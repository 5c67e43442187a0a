#!/usr/bin/env python3
"""Check that the pinned runs still write the same reports and put the
same packets on the wire.

    python3 scripts/check_digests.py

Runs smoke and mobility with `--pipeline all`, flagship with `--pipeline
linkage`, and the benchmark workloads `track` and `link` at seeds 1, 77
and 9173 (each workload's scenario document from `perfbench/workloads.py`,
with that workload's pipeline).  Each run is made once, in this process,
from this checkout's `src`, with the calls `p2ptrack run` makes after
loading: `pipelines.run`, then `pipelines.write_report`.  Two sha256
digests are taken of each run:

- report: the bytes of its report.json;
- trace: the packets, which the report cannot see.  First one sha256 per
  `CallerPool` tap over every packet that leaves it, in the order it
  leaves, serialised in `SimPacket`'s field order; the trace hashes these
  per-tap digests sorted, so it does not depend on how often the taps
  are read or how their reads interleave.  The hook wraps
  `CaptureTap.take`, the only way out of a tap, which only
  `FlowIndex.take` calls, from `CallerPool.read`.  Then the reply of
  every verifier handshake probe (`HandshakeClient.send` wrapped to
  collect the probes), in send order, or `none` for a probe nobody
  answered.

Prints one line per run and exits 1 if a digest differs from the pair
pinned below or a pipeline check fails.  A `FAIL` line names each digest
that moved (`report`, `trace` or both), with its new and pinned values,
and says if a pipeline check failed.  A change that alters a report or
moves packets on purpose updates its digest here and says why.
"""

import hashlib
import math
import os
import runpy
import sys
import tempfile
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from p2ptrack.btswarm.swarm import HandshakeClient  # noqa: E402
from p2ptrack.netsim import CaptureTap  # noqa: E402
from p2ptrack.pipelines import run, write_report  # noqa: E402
from p2ptrack.scenario import load_scenario, scenario_from_dict  # noqa: E402

# run name -> (sha256 of its report.json, sha256 of its packets); a name is
# "<scenario> --pipeline <pipeline>" for a file under scenarios/, or
# "benchmark <workload> seed <seed>"
PINNED = {
    "smoke --pipeline all": (
        "8a22e62dc91f88aaa6af6e2127dc84fc033c1c0128bdcc0cd53d5147c643901c",
        "146293caad96ec7b4c2195ddfc4d8b433443be43ca5503049583693141e88162"),
    "mobility --pipeline all": (
        "2ca087b2bdc5f3ec4d392def516c0f7f68e6505508823ff0d868db94a68ab313",
        "244ec1af90aaa716a0eafbfef3ee31d056854ac8a9f5e7e2ea726c794ea847fa"),
    "flagship --pipeline linkage": (
        "e013fdb92d8e40111fa159daf559b929730a85af38cb6eb38ed833271541f5c5",
        "3a2942054d1498a7db0928ec485979da955ff4b8f080dbce53fbcb3c53b2d05a"),
    "benchmark track seed 1": (
        "fb5ce2058e27cde87d1427fa14bf81e4ada2dccccbace907ff2832287e03f22e",
        "210bc002b3e458db8b27fb410adfe3a68a75218ea38de334b18067768f31a492"),
    "benchmark track seed 77": (
        "834153299ddeef3ccc2153fcd8ec34769c7efed65b0bed66babc7f0b8d381762",
        "7f1d596e77cea8fbc7beeb3d124472c67dc71062b1f438f2816115181a522b28"),
    "benchmark track seed 9173": (
        "f52c7d834bc5d8226149558e9679f00826976737738088f96616122c7670d38f",
        "9fb2227e7f80a01ab8954e3ab360d8d08edaa009c4dcd256978a450369cd81d2"),
    "benchmark link seed 1": (
        "6af448f9b04d1342c178a908596ff7246f886ba04e21be46813967345cd5a05b",
        "e08481d9358a055be16869ce81dfc5abfb0df56d14c6bd9ccddef51afe206c7f"),
    "benchmark link seed 77": (
        "a5302b8bf800f30e6e45dcc0e10789927cb6bc49b1205d1a98b5f4b6bca1e5a2",
        "4362ce4a903dcbf6d607d1548f464ffdeaa050f2dcf4b756dfe93be317cf1db8"),
    "benchmark link seed 9173": (
        "36f8f6e2e0249ceb23f404e3c4b5f88ee5887c2f7e1766c5f5949db50c93e7f5",
        "572eccf3811100221485e96e9344e0afeeae74752af2a68639871c9cb9d3c45a"),
}


def _packet_line(pkt) -> bytes:
    """A packet's fields in SimPacket's order, space separated, flags as
    stored; pkt is a tap record or a SimPacket."""
    return ("%r %r %d %d %d %d %s %s %d %d\n" % tuple(pkt)).encode()


@contextmanager
def _hooks(taps, probes):
    """Hash the packets that leave each tap into taps (tap -> sha256), and
    collect every probe."""
    take, send = CaptureTap.take, HandshakeClient.send

    def hashed_take(tap, until=math.inf):
        taken = take(tap, until)
        if taken:
            digest = taps.setdefault(tap, hashlib.sha256())
            for pkt in taken:
                digest.update(_packet_line(pkt))
        return taken

    def collected_send(client, *args, **kwargs):
        probe = send(client, *args, **kwargs)
        probes.append(probe)
        return probe

    CaptureTap.take, HandshakeClient.send = hashed_take, collected_send
    try:
        yield
    finally:
        CaptureTap.take, HandshakeClient.send = take, send


def pinned_run(name: str) -> tuple:
    """(scenario, pipeline) of the pinned run of that name."""
    words = name.split()
    if words[0] != "benchmark":
        return (load_scenario(os.path.join(ROOT, "scenarios",
                                           f"{words[0]}.yaml")), words[2])
    workloads = runpy.run_path(os.path.join(ROOT, "perfbench",
                                            "workloads.py"))
    return (scenario_from_dict(workloads["scenario_doc"](words[1],
                                                         int(words[3]))),
            workloads["WORKLOADS"][words[1]]["pipeline"])


def digests(scenario, pipeline: str) -> tuple:
    """(report sha256, trace sha256, whether every pipeline check passed)
    of one run of the scenario's pipeline."""
    taps, probes = {}, []
    with _hooks(taps, probes):
        report = run(scenario, pipeline)
    trace = hashlib.sha256(b"taps %d\n" % len(taps))
    for tap_digest in sorted(digest.hexdigest() for digest in taps.values()):
        trace.update(b"%s\n" % tap_digest.encode())
    trace.update(b"probes %d\n" % len(probes))
    for probe in probes:
        trace.update(b"none\n" if probe.response is None
                     else _packet_line(probe.response))
    with tempfile.TemporaryDirectory() as out:
        with open(write_report(report, out)["report"], "rb") as fh:
            return (hashlib.sha256(fh.read()).hexdigest(), trace.hexdigest(),
                    report.ok())


def main() -> int:
    failed = 0
    for name, pinned in PINNED.items():
        *got, ok = digests(*pinned_run(name))
        faults = [f"{what} {now}, pinned {then}" for what, now, then
                  in zip(("report", "trace"), got, pinned) if now != then]
        if not ok:
            faults.append("a pipeline check failed")
        if faults:
            print(f"FAIL {name}: {'; '.join(faults)}")
            failed += 1
        else:
            print(f"ok   {name}: {got[0]} {got[1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
