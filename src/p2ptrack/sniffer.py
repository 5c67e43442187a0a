"""Attacker-side trace analysis.

The SYN-suppression filter makes calls inconspicuous (no TCP connection
ever completes, so the callee is never notified), and the classifier
recovers the callee address(es) from a caller-side capture purely from
packet sizes, directions and inter-packet gaps: no payload is inspected.

Per-flow scoring: each candidate remote IP is checked against the three
call-establishment signatures; the score is the fraction of satisfied
sub-constraints, so one missing or late packet still matches at the
default threshold while random supernode chatter stays far below it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from .netsim import CaptureTap, Simulator
# the signatures are the nominal sizes and gaps the emitter uses
from .rtcdir import (KIND_NATED, KIND_OFFLINE, KIND_PUBLIC, MARKER_GAPS,
                     MARKER_SIZES, NAT_FIRST_SIZE, NAT_TAIL_DELAY,
                     NAT_TAIL_GAP, NAT_TAIL_SIZE, SYN_TIMEOUT_FIRST,
                     SYN_TIMEOUT_SECOND, CallRequest, RtcOverlay)

ECHO_WINDOW = 2.0
ROUND_TAIL = 5.0    # a round runs this long past its last pattern window


@dataclass(frozen=True)
class SynFilterPolicy:
    """Drop every inbound and outbound TCP SYN while active.  Packets of
    connections established before t_begin carry no SYN flag and pass."""
    t_begin: float
    t_end: float


def apply_syn_filter(sim: Simulator, host_id: str,
                     policy: SynFilterPolicy) -> None:
    def drop_syn(s, pkt):
        return (pkt.proto == "TCP" and "SYN" in pkt.tcp_flags
                and policy.t_begin <= s.now <= policy.t_end)

    host = sim.hosts[host_id]
    host.egress_filters.append(drop_syn)
    host.ingress_filters.append(drop_syn)


@dataclass
class ClassifierConfig:
    timing_tolerance: float = 0.25
    min_score: float = 0.8
    pattern_window: float = 20.0


@dataclass(frozen=True, slots=True)
class PatternMatch:
    """One remote's call pattern in a trace.  ip_id is the IP-ID of the
    first packet the remote sent: None for kind III, whose flow has none."""
    kind: str
    candidate_ip: int
    t_first_packet: float
    score: float
    ip_id: Optional[int]

    @property
    def stale(self) -> bool:
        """Kind III: the last-seen address, not a current one."""
        return self.kind == KIND_OFFLINE


def _within(gap: float, nominal: float, tol: float) -> bool:
    return abs(gap - nominal) <= tol * nominal


def _score_syn_udp(entries, tol: float) -> float:
    """Kind I/III shape: outbound SYN triple (3 s then 1 s timeouts) and an
    outbound 59/58-byte UDP triple with 2 s and 4 s gaps."""
    syn_t = [t for t, outbound, p in entries
             if outbound and p.proto == "TCP"
             and "SYN" in p.tcp_flags and "ACK" not in p.tcp_flags]
    mark_t = [t for t, outbound, p in entries
              if outbound and p.proto == "UDP" and p.size in MARKER_SIZES]
    checks = (
        len(syn_t) >= 3,
        len(syn_t) >= 2 and _within(syn_t[1] - syn_t[0], SYN_TIMEOUT_FIRST,
                                    tol),
        len(syn_t) >= 3 and _within(syn_t[2] - syn_t[1], SYN_TIMEOUT_SECOND,
                                    tol),
        len(mark_t) >= 3,
        len(mark_t) >= 2 and _within(mark_t[1] - mark_t[0],
                                     MARKER_GAPS[0], tol),
        len(mark_t) >= 3 and _within(mark_t[2] - mark_t[1],
                                     MARKER_GAPS[1], tol),
    )
    return sum(checks) / len(checks)


def _score_nated(entries, tol: float) -> float:
    """Kind II shape: inbound 28-byte first contact, echoed 28-byte reply,
    varying-size exchange, inbound 3-byte keepalives ~10 s in."""
    t0, first_outbound, first_pkt = entries[0]
    c_first = (not first_outbound and first_pkt.proto == "UDP"
               and first_pkt.size == NAT_FIRST_SIZE)
    c_echo = any(outbound and p.proto == "UDP" and p.size == NAT_FIRST_SIZE
                 and t0 < t <= t0 + ECHO_WINDOW
                 for t, outbound, p in entries)
    varying = sum(1 for t, _, p in entries
                  if p.proto == "UDP"
                  and p.size not in (NAT_FIRST_SIZE, NAT_TAIL_SIZE))
    tail_t = [t for t, outbound, p in entries
              if not outbound and p.proto == "UDP"
              and p.size == NAT_TAIL_SIZE]
    c_tail_delay = any(_within(t - t0, NAT_TAIL_DELAY, tol) for t in tail_t)
    c_tail_series = (len(tail_t) >= 3
                     and _within(tail_t[1] - tail_t[0], NAT_TAIL_GAP, tol)
                     and _within(tail_t[2] - tail_t[1], NAT_TAIL_GAP, tol))
    checks = (c_first, c_echo, varying >= 3, c_tail_delay, c_tail_series)
    return sum(checks) / len(checks)


def classify_trace(trace, cfg: ClassifierConfig, observer_ip: int) -> list:
    """One match per remote address scoring at least cfg.min_score, for a
    trace captured at the host whose address is observer_ip; ranked by
    score, then earliest first packet, then address."""
    flows: dict = {}
    for pkt in trace:
        outbound = pkt.src_ip == observer_ip
        remote = pkt.dst_ip if outbound else pkt.src_ip
        obs_t = pkt.t_send if outbound else pkt.t_recv
        flows.setdefault(remote, []).append((obs_t, outbound, pkt))

    tol = cfg.timing_tolerance
    matches = []
    for remote in sorted(flows):
        entries = sorted(flows[remote], key=lambda e: e[0])
        first_in = next((p for _, outbound, p in entries if not outbound),
                        None)
        if first_in is None:
            scored = ((KIND_OFFLINE, _score_syn_udp(entries, tol)),)
        else:
            scored = ((KIND_PUBLIC, _score_syn_udp(entries, tol)),
                      (KIND_NATED, _score_nated(entries, tol)))
        kind, score = max(scored, key=lambda ks: ks[1])
        if score >= cfg.min_score:
            matches.append(PatternMatch(
                kind, remote, entries[0][0], score,
                None if first_in is None else first_in.ip_id))
    matches.sort(key=lambda m: (-m.score, m.t_first_packet, m.candidate_ip))
    return matches


class FlowIndex:
    """A host tap's trace grouped by remote address once, so each call
    classifies only the flows that start in its slot.  A host tap records
    each packet at classify_trace's observation time (t_send outbound,
    t_recv inbound), so a flow here lists the same entries in the same
    order as the flow classify_trace builds from tap.window.  The index is
    a snapshot: build it after the tap has recorded the round."""

    def __init__(self, tap: CaptureTap, observer_ip: int):
        self.tap = tap
        self.observer_ip = observer_ip
        self._flows: dict = {}     # remote -> (observation times, packets)
        for pkt in tap.trace():
            if pkt.src_ip == observer_ip:
                remote, obs_t = pkt.dst_ip, pkt.t_send
            else:
                remote, obs_t = pkt.src_ip, pkt.t_recv
            flow = self._flows.get(remote)
            if flow is None:
                flow = self._flows[remote] = ([], [])
            flow[0].append(obs_t)
            flow[1].append(pkt)

    def slot_trace(self, t: float, length: float, window: float) -> list:
        """The packets in [t - window, t + window] of every remote whose
        first packet in that window lies in the slot [t, t + length): a
        pattern belongs to the call whose slot holds its first packet."""
        obs = self.observer_ip
        out = []
        for remote in sorted({p.dst_ip if p.src_ip == obs else p.src_ip
                              for p in self.tap.window(t, t + length)}):
            times, pkts = self._flows[remote]
            lo = bisect.bisect_left(times, t - window)
            if t <= times[lo] < t + length:
                out += pkts[lo:bisect.bisect_right(times, t + window, lo)]
        return out


class CallerPool:
    """The SYN-filtered calling clients that tracking and verification
    share: each places inconspicuous calls, and a finished round is read
    from each client's tap, one slot per call."""

    def __init__(self, sim: Simulator, overlay: RtcOverlay, clients):
        """clients: (host_id, rtc_id) pairs with SYN filters installed.  A
        tap records only what it observes once it exists, so make the pool
        before its calls."""
        self.sim = sim
        self.overlay = overlay
        self.clients = list(clients)
        self.taps = [sim.tap(h) for h, _ in self.clients]
        self.observer_ips = [sim.hosts[h].ip for h, _ in self.clients]

    def call(self, client: int, callee: str, t: float, start_delay=None):
        """Place a call from client (an index into clients) at time t."""
        return self.overlay.place_call(
            CallRequest(self.clients[client][1], callee, t),
            start_delay=start_delay)

    def read(self, slots, length: float, window: float) -> list:
        """Run the round to its end and return the slot trace of each
        (client, t) in slots, then clear the taps for the next round."""
        if slots:
            self.sim.advance(max(t for _, t in slots) + length + window
                             + ROUND_TAIL)
        indexes = [FlowIndex(tap, ip)
                   for tap, ip in zip(self.taps, self.observer_ips)]
        traces = [indexes[c].slot_trace(t, length, window) for c, t in slots]
        for tap in self.taps:
            tap.clear()
        return traces

