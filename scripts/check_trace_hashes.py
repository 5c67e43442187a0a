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
        "5d5d2370455d74dc53630d6d1692c1adcde7e08e65ea3121af83a99da41b4131",
    "benchmark track seed 1":
        "e7a154bc7145968702f97c3c78e47870c0c1ca8b3aed0ca21fdb2174028d5e6a",
    "benchmark track seed 77":
        "838cc28afffa2bd5aa312432f7c5e90303e51894da01d526557f6d4a376b0ee7",
    "benchmark track seed 9173":
        "5ad857e83eed052c5202cfa1b81ace86a02bd4c479fd4220b37025c6f08ad3c1",
    "benchmark link seed 1":
        "0c8a711e8c9bea00cef453e3a199aa0e5d482040392df1bc447142ec5f6538fa",
    "benchmark link seed 77":
        "1cbe73e30fb2a7ccae0d4287879909abd9184cb7bf36277cc408ad3ec5e571c8",
    "benchmark link seed 9173":
        "64dfc8cc0a4b7eaec5fdb6eeab68d708644ccf1fdc39ac3692f32957ae57df6b",
}
SEEDS = (1, 77, 9173)


def _packet_line(pkt) -> bytes:
    """A SimPacket's fields, flags sorted so no hash seed reorders them."""
    return ("%r %r %d %d %d %d %s %s %d %d\n" % (
        pkt.t_send, pkt.t_recv, pkt.src_ip, pkt.src_port, pkt.dst_ip,
        pkt.dst_port, pkt.proto, ",".join(sorted(pkt.tcp_flags)), pkt.size,
        pkt.ip_id)).encode()


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
