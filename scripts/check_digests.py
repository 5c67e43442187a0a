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
- trace: the packets, which the report cannot see.  First every packet
  that leaves a `CallerPool` tap, in the order it leaves, serialised as
  its `SimPacket` fields.  The hook wraps `CaptureTap.clear`, the only way
  out of a tap, which only `CallerPool.read` calls: slot by slot as the
  round runs, then for the rest at its end.  Then the reply of every
  verifier handshake probe (`HandshakeClient.send` wrapped to collect
  the probes), in send order, or `none` for a probe nobody answered.

Prints one line per run and exits 1 if a digest differs from the pair
pinned below or a pipeline check fails.  A change that alters a report or
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
        "8776220139a5f7719af8c04eeecca93795996b4af8e179ed154ea9ba1d871834"),
    "mobility --pipeline all": (
        "2ca087b2bdc5f3ec4d392def516c0f7f68e6505508823ff0d868db94a68ab313",
        "f1bc8fd870a338e766a7c0d88ad076539bafab599da21523d99a8598f957eb66"),
    "flagship --pipeline linkage": (
        "e013fdb92d8e40111fa159daf559b929730a85af38cb6eb38ed833271541f5c5",
        "9d8909b84a51e08461054d6784acee0be7f01a5658a8e922a0ab61d08034928f"),
    "benchmark track seed 1": (
        "fb5ce2058e27cde87d1427fa14bf81e4ada2dccccbace907ff2832287e03f22e",
        "9d38b22f1f5d1c5493a3c4c441ac1d3bfc1f937186e9380e88fb08417e3028dd"),
    "benchmark track seed 77": (
        "834153299ddeef3ccc2153fcd8ec34769c7efed65b0bed66babc7f0b8d381762",
        "78a2638ce622d6205d26b59cf695a6c8a59980bb04af6c3576e1ad4596dbe835"),
    "benchmark track seed 9173": (
        "f52c7d834bc5d8226149558e9679f00826976737738088f96616122c7670d38f",
        "60d73a922c072f067066edff8eb973ad6e3d7bdd7cfdde35600a2928eaad7112"),
    "benchmark link seed 1": (
        "6af448f9b04d1342c178a908596ff7246f886ba04e21be46813967345cd5a05b",
        "eed0a6e22e03373a3c2e5ecca12301cb1c1fd657cb46918201f96d865c03e298"),
    "benchmark link seed 77": (
        "a5302b8bf800f30e6e45dcc0e10789927cb6bc49b1205d1a98b5f4b6bca1e5a2",
        "087c7e1efc52076c18846768c96f352ecc1011418abbe20b100c08d9092753f3"),
    "benchmark link seed 9173": (
        "36f8f6e2e0249ceb23f404e3c4b5f88ee5887c2f7e1766c5f5949db50c93e7f5",
        "00cf8279262d9f0592fece86faf6a2ba0ae7c47483cb5077dec5746a9034bc1f"),
}


def _packet_line(pkt) -> bytes:
    """A SimPacket's fields, space separated, flags as stored."""
    return ("%r %r %d %d %d %d %s %s %d %d\n" % (
        pkt.t_send, pkt.t_recv, pkt.src_ip, pkt.src_port, pkt.dst_ip,
        pkt.dst_port, pkt.proto, pkt.tcp_flags, pkt.size, pkt.ip_id)).encode()


@contextmanager
def _hooks(digest, probes):
    """Hash the packets that leave each tap, and collect every probe."""
    clear, send = CaptureTap.clear, HandshakeClient.send

    def hashed_clear(tap, before=math.inf):
        trace = tap.trace()
        clear(tap, before)
        left = trace[:len(trace) - len(tap)]
        if left:
            digest.update(b"tap %d\n" % len(left))
            for pkt in left:
                digest.update(_packet_line(pkt))

    def collected_send(client, *args, **kwargs):
        probe = send(client, *args, **kwargs)
        probes.append(probe)
        return probe

    CaptureTap.clear, HandshakeClient.send = hashed_clear, collected_send
    try:
        yield
    finally:
        CaptureTap.clear, HandshakeClient.send = clear, send


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
    trace, probes = hashlib.sha256(), []
    with _hooks(trace, probes):
        report = run(scenario, pipeline)
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
        if tuple(got) == pinned and ok:
            print(f"ok   {name}: {got[0]} {got[1]}")
        else:
            print(f"FAIL {name}: {got[0]} {got[1]}, pinned {pinned[0]} "
                  f"{pinned[1]}{'' if ok else ', a pipeline check failed'}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
