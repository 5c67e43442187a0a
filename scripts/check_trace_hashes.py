#!/usr/bin/env python3
"""Check that the pinned runs still put the same packets on the wire.

    python3 scripts/check_trace_hashes.py

The report digests of check_report_hashes.py cannot see noise or packet
timing, so they hold through changes that move every packet.  This script
digests the packets themselves.  It runs smoke with `--pipeline all` and
the benchmark workloads `track` and `link` at seeds 1, 77 and 9173 (each
workload's scenario document from `perfbench/workloads.py`, with that
workload's pipeline), all in this process, and hashes with sha256:

- every packet each `CallerPool` tap holds when `CallerPool.read` runs, in
  tap order, serialised as its `SimPacket` fields.  The hook wraps
  `CaptureTap.clear`, which only `read` calls, just before the taps are
  cleared;
- then the reply of every verifier handshake probe (`HandshakeClient.send`
  wrapped to collect the probes), in send order, or `none` for a probe
  nobody answered.

Prints one line per run and exits 1 if any digest differs from the one
pinned below.  A change that moves packets on purpose updates its digest
here and says why.  Nothing of this reaches `report.json`.
"""

import hashlib
import importlib.util
import os
import sys
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from p2ptrack.btswarm.swarm import HandshakeClient  # noqa: E402
from p2ptrack.netsim import CaptureTap  # noqa: E402
from p2ptrack.pipelines import run  # noqa: E402
from p2ptrack.scenario import load_scenario, scenario_from_dict  # noqa: E402

# (run name) -> sha256 of its tap packets and probe replies
PINNED = {
    "smoke --pipeline all":
        "eb9c77bd235761fa9ae6a6ec24bbfa03514f807aa70fd6c8afbab132ba7852c6",
    "benchmark track seed 1":
        "befe2c20ecf8cb5a58d026da50240760d91067712eacfd3bda9ccce5b0acca12",
    "benchmark track seed 77":
        "101570caca0ba5f0eb211b5f5a83a3ac89a51facad160c7dc37bb2ef8e6a7f1d",
    "benchmark track seed 9173":
        "4245e7402da695dcd3c39c7909c44ead984b08b027b4de485622c3fb34b632bd",
    "benchmark link seed 1":
        "f28cf1af58de363fd98483c1e7599dae01e3fce284d2c0f637fa10ff5464c590",
    "benchmark link seed 77":
        "83c7f13fb779b34ae4dcbbe2e21d00aed2b3f396895b4fc3b24b69c734948100",
    "benchmark link seed 9173":
        "209f8486db651a98942c775853e6bf4fcbd7f2bfd315e8bc4eaebdc541dcc0d6",
}
SEEDS = (1, 77, 9173)


def _packet_line(pkt) -> bytes:
    """A SimPacket's fields, space separated, flags as stored."""
    return ("%r %r %d %d %d %d %s %s %d %d\n" % (
        pkt.t_send, pkt.t_recv, pkt.src_ip, pkt.src_port, pkt.dst_ip,
        pkt.dst_port, pkt.proto, pkt.tcp_flags, pkt.size, pkt.ip_id)).encode()


@contextmanager
def _hooks(digest, probes):
    """Hash each tap's packets as it is cleared, and collect every probe."""
    clear, send = CaptureTap.clear, HandshakeClient.send

    def hashed_clear(tap):
        digest.update(b"tap %d\n" % len(tap))
        for pkt in tap.trace():
            digest.update(_packet_line(pkt))
        clear(tap)

    def collected_send(client, *args, **kwargs):
        probe = send(client, *args, **kwargs)
        probes.append(probe)
        return probe

    CaptureTap.clear, HandshakeClient.send = hashed_clear, collected_send
    try:
        yield
    finally:
        CaptureTap.clear, HandshakeClient.send = clear, send


def trace_digest(scenario, pipeline: str) -> str:
    """Run the scenario's pipeline and return the sha256 of its traces."""
    digest, probes = hashlib.sha256(), []
    with _hooks(digest, probes):
        run(scenario, pipeline)
    digest.update(b"probes %d\n" % len(probes))
    for probe in probes:
        digest.update(b"none\n" if probe.response is None
                      else _packet_line(probe.response))
    return digest.hexdigest()


def pinned_runs():
    """(name, scenario, pipeline) of each pinned run."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    yield ("smoke --pipeline all",
           load_scenario(os.path.join(ROOT, "scenarios", "smoke.yaml")), "all")
    for name in ("track", "link"):
        for seed in SEEDS:
            yield (f"benchmark {name} seed {seed}",
                   scenario_from_dict(workloads.scenario_doc(name, seed)),
                   workloads.WORKLOADS[name]["pipeline"])


def main() -> int:
    failed = 0
    for name, scenario, pipeline in pinned_runs():
        digest = trace_digest(scenario, pipeline)
        if digest == PINNED[name]:
            print(f"ok   {name}: {digest}")
        else:
            print(f"FAIL {name}: {digest}, pinned {PINNED[name]}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
