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
from .sniffer import PATTERN_WINDOW, ROUND_TAIL, CallerPool, classify_trace

RING_MODULUS = 1 << 16
CALL_GAP = 3.0          # slot spacing when batching candidates

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
    clients: int = 10              # client pairs the world builds

    def stride(self, slots: int) -> float:
        """Seconds from one round's start to the next: round_spacing, or
        what slots call slots, the pattern window and the tail need."""
        return max(self.round_spacing,
                   slots * CALL_GAP + PATTERN_WINDOW + ROUND_TAIL)


@dataclass
class VerificationResult:
    candidate: MatchCandidate
    rounds: list            # each kept round's ring distance
    p90: Optional[int]
    verdict: str
    handshake_replies: int = 0
    call_matches: int = 0


class Verifier:
    def __init__(self, pool: CallerPool, probers, cfg: VerifierConfig):
        """pool: the SYN-filtered calling clients; probers: one plain
        public HandshakeClient per pool client, sharing the same clock."""
        if not pool.clients:
            raise VerifierError("verifier needs at least one client pair")
        self.pool = pool
        self.probers = list(probers)
        self.cfg = cfg

    def verify_candidates(self, candidates, t0: float) -> list:
        """One VerificationResult per candidate, over min_rounds rounds.  A
        round gives candidate j slot j, CALL_GAP apart per client, and
        CallerPool.read places each slot's call, with its handshake probe,
        when the loop nears it."""
        pool = len(self.pool.clients)
        stride = self.cfg.stride(max(1, math.ceil(len(candidates) / pool)))
        results = [VerificationResult(c, [], None, VERDICT_UNVERIFIABLE)
                   for c in candidates]

        for r in range(self.cfg.min_rounds):
            base = t0 + r * stride
            slots = [(j % pool, base + (j // pool) * CALL_GAP)
                     for j in range(len(results))]
            probes = [None] * len(results)

            def place(j, call_id):
                client, t_call = slots[j]
                candidate = results[j].candidate
                # the simultaneity contract: both sends at the same instant
                probes[j] = self.probers[client].send(
                    candidate.ip, candidate.port, candidate.infohash,
                    at=t_call)
                self.pool.call(client, candidate.user, t_call, call_id)

            # slot j is candidate j's call; a probe's reply may come after
            # its call's trace is final, so probes are read once the round
            # has ended
            ipids_rtc = [None] * len(results)
            for j, trace in self.pool.read(slots, CALL_GAP, PATTERN_WINDOW,
                                           place):
                ipids_rtc[j] = next(
                    (m.ip_id for m in classify_trace(
                        trace, self.pool.observer_ips[j % pool])
                     if m.candidate_ip == results[j].candidate.ip), None)

            for res, probe, ipid_rtc in zip(results, probes, ipids_rtc):
                if ipid_rtc is not None:
                    res.call_matches += 1
                ipid_bt = None
                if probe.response is not None:
                    ipid_bt = probe.response.ip_id
                    res.handshake_replies += 1
                if ipid_rtc is None or ipid_bt is None:
                    continue   # round skipped
                res.rounds.append(ring_distance(ipid_rtc, ipid_bt))

        for res in results:
            if not res.rounds:
                continue
            res.p90 = percentile_nearest_rank(res.rounds, 90)
            if res.p90 < self.cfg.threshold and \
                    len(res.rounds) >= self.cfg.min_rounds:
                res.verdict = VERDICT_VERIFIED
            else:
                res.verdict = VERDICT_NOT_VERIFIED
        return results

