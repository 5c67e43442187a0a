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
from .sniffer import (ROUND_TAIL, CallerPool, ClassifierConfig,
                      classify_trace)

RING_MODULUS = 1 << 16

VERDICT_VERIFIED = "verified"
VERDICT_NOT_VERIFIED = "not_verified"
VERDICT_UNVERIFIABLE = "unverifiable"


class VerifierError(Exception):
    pass


def ring_distance(a: int, b: int) -> int:
    """Shortest way around the IP-ID ring; result in [0, RING_MODULUS/2]."""
    if not 0 <= a < RING_MODULUS or not 0 <= b < RING_MODULUS:
        raise VerifierError(
            f"ring values must be in [0, {RING_MODULUS}): {a}, {b}")
    d = (a - b) % RING_MODULUS
    return min(d, RING_MODULUS - d)


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
    def __init__(self, pool: CallerPool, probers,
                 classifier: ClassifierConfig, cfg: VerifierConfig):
        """pool: the SYN-filtered calling clients; probers: one plain
        public HandshakeClient per pool client, sharing the same clock."""
        if not pool.clients:
            raise VerifierError("verifier needs at least one client pair")
        self.pool = pool
        self.probers = list(probers)
        self.classifier = classifier
        self.cfg = cfg

    def verify_candidates(self, candidates, t0: float) -> list:
        pool = len(self.pool.clients)
        gap = self.cfg.call_gap
        window = self.classifier.pattern_window
        slots = max(1, math.ceil(len(candidates) / pool))
        stride = max(self.cfg.round_spacing,
                     slots * gap + window + ROUND_TAIL)
        results = [VerificationResult(c, [], None, VERDICT_UNVERIFIABLE)
                   for c in candidates]

        for r in range(self.cfg.min_rounds):
            base = t0 + r * stride
            probes = []
            for j, res in enumerate(results):
                t_call = base + (j // pool) * gap
                # the simultaneity contract: both sends at the same instant
                probe = self.probers[j % pool].send(
                    res.candidate.ip, res.candidate.port,
                    res.candidate.infohash, at=t_call)
                self.pool.call(j % pool, res.candidate.user, t_call)
                probes.append((j, t_call, probe))
            traces = self.pool.read([(j % pool, t) for j, t, _ in probes],
                                    gap, window)

            for (j, t_call, probe), trace in zip(probes, traces):
                res = results[j]
                matches = classify_trace(trace, self.classifier,
                                         self.pool.observer_ips[j % pool])
                ipid_rtc = next((m.ip_id for m in matches
                                 if m.candidate_ip == res.candidate.ip), None)
                if ipid_rtc is not None:
                    res.call_matches += 1
                ipid_bt = None
                if probe.response is not None:
                    ipid_bt = probe.response.ip_id
                    res.handshake_replies += 1
                if ipid_rtc is None or ipid_bt is None:
                    continue   # round skipped
                res.rounds.append(ProbeRound(
                    t_call, ipid_rtc, ipid_bt,
                    ring_distance(ipid_rtc, ipid_bt)))

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

