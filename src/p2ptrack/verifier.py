"""Same-machine verification via the IP-ID side channel.

For each RTC/BT match candidate the verifier simultaneously places an
inconspicuous call and a BitTorrent handshake, reads the IP-ID of the
first packet received from each protocol, and measures their shortest
distance on the 2^16 ring.  Packets minted by one OS counter sit a few
increments apart; independent hosts land anywhere on the ring, so the
90th percentile over repeated rounds separates same-host candidates from
NAT neighbors sharing the public address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .btswarm.swarm import MatchCandidate
from .netsim import Simulator
from .rtcdir import CallRequest, RtcOverlay
from .sniffer import KIND_III, ClassifierConfig, FlowIndex, classify_trace

RING_MODULUS = 1 << 16

VERDICT_VERIFIED = "verified"
VERDICT_NOT_VERIFIED = "not_verified"
VERDICT_UNVERIFIABLE = "unverifiable"


class VerifierError(Exception):
    pass


def ring_distance(a: int, b: int, m: int = RING_MODULUS) -> int:
    """Shortest way around the ring of m elements; result in [0, m/2]."""
    if not 0 <= a < m or not 0 <= b < m:
        raise VerifierError(f"ring values must be in [0, {m}): {a}, {b}")
    d = (a - b) % m
    return min(d, m - d)


def percentile_nearest_rank(values, p: float):
    """ceil(p/100 * n)-th smallest value (nearest-rank percentile)."""
    if not values:
        raise VerifierError("percentile of empty input")
    if not 0 < p <= 100:
        raise VerifierError(f"percentile must be in (0, 100]: {p}")
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100)
    return ordered[rank - 1]


@dataclass
class VerifierConfig:
    threshold: int = 1000
    min_rounds: int = 10
    round_spacing: float = 60.0
    call_gap: float = 3.0          # slot spacing when batching candidates
    clients: int = 10              # client pairs the world builds

    def __post_init__(self):
        if self.threshold >= RING_MODULUS // 2:
            raise VerifierError("threshold must be below RING_MODULUS/2")
        # a slot of no length holds no pattern; no rounds measure nothing
        if not self.call_gap > 0:
            raise VerifierError(f"call_gap must be > 0: {self.call_gap}")
        if self.min_rounds < 1:
            raise VerifierError(f"min_rounds must be >= 1: {self.min_rounds}")


@dataclass(frozen=True)
class ProbeRound:
    t: float
    ipid_rtc: int
    ipid_bt: int
    distance: int


@dataclass
class VerificationResult:
    candidate: MatchCandidate
    rounds: list
    p90: Optional[int]
    verdict: str
    handshake_replies: int = 0
    call_matches: int = 0


class Verifier:
    def __init__(self, sim: Simulator, overlay: RtcOverlay, clients,
                 classifier: ClassifierConfig, cfg: VerifierConfig):
        """clients: (rtc_host_id, rtc_user, HandshakeClient) triples; the
        RTC hosts are SYN-filtered tracking clients, the handshake hosts
        are plain public probers sharing the same clock."""
        if not clients:
            raise VerifierError("verifier needs at least one client pair")
        self.sim = sim
        self.overlay = overlay
        self.clients = list(clients)
        self.classifier = classifier
        self.cfg = cfg
        self._taps = [sim.tap(h) for h, _, _ in self.clients]
        self._observers = [sim.hosts[h].ip for h, _, _ in self.clients]

    def verify_candidates(self, candidates, t0: float) -> list:
        pool = len(self.clients)
        gap = self.cfg.call_gap
        window = self.classifier.pattern_window
        slots = max(1, math.ceil(len(candidates) / pool))
        stride = max(self.cfg.round_spacing, slots * gap + window + 5.0)
        results = [VerificationResult(c, [], None, VERDICT_UNVERIFIABLE)
                   for c in candidates]

        for r in range(self.cfg.min_rounds):
            base = t0 + r * stride
            probes = []
            for j, res in enumerate(results):
                rtc_host, rtc_user, bt_client = self.clients[j % pool]
                t_call = base + (j // pool) * gap
                # the simultaneity contract: both sends at the same instant
                probe = bt_client.send(res.candidate.ip,
                                       res.candidate.port,
                                       res.candidate.infohash, at=t_call)
                self.overlay.place_call(
                    CallRequest(rtc_user, res.candidate.user, t_call))
                probes.append((j, t_call, probe))
            self.sim.advance(base + slots * gap + window + 5.0)

            indexes = [FlowIndex(tap, ip)
                       for tap, ip in zip(self._taps, self._observers)]
            for j, t_call, probe in probes:
                res = results[j]
                index = indexes[j % pool]
                matches = classify_trace(index.slot_trace(t_call, gap, window),
                                         self.classifier, index.observer_ip)
                ipid_rtc = None
                for m in matches:
                    if m.candidate_ip != res.candidate.ip or \
                            m.kind == KIND_III:
                        continue
                    inbound = [p for p in m.packets
                               if p.src_ip == res.candidate.ip]
                    if inbound:
                        first = min(inbound, key=lambda p: p.t_recv)
                        ipid_rtc = first.ip_id
                        res.call_matches += 1
                    break
                ipid_bt = None
                if probe.response is not None:
                    ipid_bt = probe.response.ip_id
                    res.handshake_replies += 1
                if ipid_rtc is None or ipid_bt is None:
                    continue   # round skipped
                res.rounds.append(ProbeRound(
                    t_call, ipid_rtc, ipid_bt,
                    ring_distance(ipid_rtc, ipid_bt)))
            for tap in self._taps:
                tap.clear()

        for res in results:
            if not res.rounds:
                continue
            res.p90 = percentile_nearest_rank(
                [r.distance for r in res.rounds], 90)
            if res.p90 < self.cfg.threshold and \
                    len(res.rounds) >= self.cfg.min_rounds:
                res.verdict = VERDICT_VERIFIED
            else:
                res.verdict = VERDICT_NOT_VERIFIED
        return results

