"""Attacker-side trace analysis.

The SYN filter (Host.syn_filter_from) makes calls inconspicuous (no TCP
connection ever completes, so the callee is never notified), and the
classifier recovers the callee address(es) from a caller-side capture
purely from packet sizes, directions and gaps: no payload is inspected.

Per-flow scoring: each candidate remote IP is checked against the three
call-establishment signatures; the score is the fraction of satisfied
sub-constraints, so one missing or late packet still matches at the
default threshold while random supernode chatter stays far below it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

from .netsim import CaptureTap, Simulator
# the signatures are the nominal sizes and gaps the emitter uses
from .rtcdir import (KIND_NATED, KIND_OFFLINE, KIND_PUBLIC, MARKER_GAPS,
                     MARKER_SIZES, NAT_FIRST_SIZE, NAT_TAIL_DELAY,
                     NAT_TAIL_GAP, NAT_TAIL_SIZE, SYN_TIMEOUT_FIRST,
                     SYN_TIMEOUT_SECOND, CallRequest, RtcOverlay)

ECHO_WINDOW = 2.0
TIMING_TOLERANCE = 0.25   # a gap matches within this fraction of nominal
MIN_SCORE = 0.8           # a flow scoring at least this is a match
PATTERN_WINDOW = 20.0     # a call's trace reaches this far around its slot
ROUND_TAIL = 5.0    # a round runs this long past its last pattern window


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


def _within(gap: float, nominal: float) -> bool:
    return abs(gap - nominal) <= TIMING_TOLERANCE * nominal


def _score_syn_udp(entries) -> float:
    """Kind I/III shape: outbound SYN triple (3 s then 1 s timeouts) and an
    outbound 59/58-byte UDP triple with 2 s and 4 s gaps."""
    syn_t = [t for t, outbound, proto, flags, _, _ in entries
             if outbound and proto == "TCP"
             and "SYN" in flags and "ACK" not in flags]
    mark_t = [t for t, outbound, proto, _, size, _ in entries
              if outbound and proto == "UDP" and size in MARKER_SIZES]
    checks = (
        len(syn_t) >= 3,
        len(syn_t) >= 2 and _within(syn_t[1] - syn_t[0], SYN_TIMEOUT_FIRST),
        len(syn_t) >= 3 and _within(syn_t[2] - syn_t[1], SYN_TIMEOUT_SECOND),
        len(mark_t) >= 3,
        len(mark_t) >= 2 and _within(mark_t[1] - mark_t[0], MARKER_GAPS[0]),
        len(mark_t) >= 3 and _within(mark_t[2] - mark_t[1], MARKER_GAPS[1]),
    )
    return sum(checks) / len(checks)


def _score_nated(entries) -> float:
    """Kind II shape: inbound 28-byte first contact, echoed 28-byte reply,
    varying-size exchange, inbound 3-byte keepalives ~10 s in."""
    t0, first_outbound, first_proto, _, first_size, _ = entries[0]
    c_first = (not first_outbound and first_proto == "UDP"
               and first_size == NAT_FIRST_SIZE)
    c_echo = any(outbound and proto == "UDP" and size == NAT_FIRST_SIZE
                 and t0 < t <= t0 + ECHO_WINDOW
                 for t, outbound, proto, _, size, _ in entries)
    varying = sum(1 for _, _, proto, _, size, _ in entries
                  if proto == "UDP"
                  and size not in (NAT_FIRST_SIZE, NAT_TAIL_SIZE))
    tail_t = [t for t, outbound, proto, _, size, _ in entries
              if not outbound and proto == "UDP"
              and size == NAT_TAIL_SIZE]
    c_tail_delay = any(_within(t - t0, NAT_TAIL_DELAY) for t in tail_t)
    c_tail_series = (len(tail_t) >= 3
                     and _within(tail_t[1] - tail_t[0], NAT_TAIL_GAP)
                     and _within(tail_t[2] - tail_t[1], NAT_TAIL_GAP))
    checks = (c_first, c_echo, varying >= 3, c_tail_delay, c_tail_series)
    return sum(checks) / len(checks)


def classify_trace(trace, observer_ip: int) -> list:
    """One match per remote address scoring at least MIN_SCORE, for a
    trace captured at the host whose address is observer_ip; ranked by
    score, then earliest first packet, then address.  trace holds tap
    records or SimPackets; each is unpacked once, into a flow entry
    (observation time, outbound, proto, flags, size, IP-ID)."""
    flows: dict = {}
    for t_send, t_recv, src_ip, _, dst_ip, _, proto, flags, size, ip_id \
            in trace:
        if src_ip == observer_ip:
            remote, entry = dst_ip, (t_send, True, proto, flags, size, ip_id)
        else:
            remote, entry = src_ip, (t_recv, False, proto, flags, size, ip_id)
        flows.setdefault(remote, []).append(entry)

    matches = []
    for remote in sorted(flows):
        entries = sorted(flows[remote], key=lambda e: e[0])
        first_in = next((e for e in entries if not e[1]), None)
        if first_in is None:
            scored = ((KIND_OFFLINE, _score_syn_udp(entries)),)
        else:
            scored = ((KIND_PUBLIC, _score_syn_udp(entries)),
                      (KIND_NATED, _score_nated(entries)))
        kind, score = max(scored, key=lambda ks: ks[1])
        if score >= MIN_SCORE:
            matches.append(PatternMatch(
                kind, remote, entries[0][0], score,
                None if first_in is None else first_in[5]))
    matches.sort(key=lambda m: (-m.score, m.t_first_packet, m.candidate_ip))
    return matches


class FlowIndex:
    """A host tap's trace grouped by remote address, so each call
    classifies only the flows that start in its slot.  A host tap records
    each packet at classify_trace's observation time (t_send outbound,
    t_recv inbound), so a flow here lists the same entries in the same
    order as the flow classify_trace builds from the tap's packets.

    The index grows and shrinks with the round: take(until) moves what the
    tap observed up to until into the flows, and drop(before, window)
    forgets what the flows hold from before that time.  Of a remote's
    forgotten packets a slot only asks whether one lies in its window, so
    the index keeps the time of the last one."""

    def __init__(self, tap: CaptureTap, observer_ip: int):
        """An empty index over tap, which records at observer_ip."""
        self.tap = tap
        self.observer_ip = observer_ip
        # remote -> [last forgotten time, observation times, packets]
        self._flows: dict = {}

    def take(self, until: float) -> None:
        """Index the packets the tap observed at or before until.  The loop
        has run to until, so no packet observed by then is recorded
        later.  Records are read by position, in SimPacket's field
        order."""
        obs, flows = self.observer_ip, self._flows
        for pkt in self.tap.take(until):
            if pkt[2] == obs:
                remote, obs_t = pkt[4], pkt[0]
            else:
                remote, obs_t = pkt[2], pkt[1]
            flow = flows.get(remote)
            if flow is None:
                flow = flows[remote] = [-math.inf, [], []]
            flow[1].append(obs_t)
            flow[2].append(pkt)

    def drop(self, before: float, window: float) -> None:
        """Forget the packets observed before time before, which no later
        slot_trace reads, keeping each remote's last forgotten time; a
        remote goes once it holds no packet and that time lies more than
        window before before, where no later slot's window reaches."""
        for remote, flow in list(self._flows.items()):
            times = flow[1]
            lo = bisect.bisect_left(times, before)
            if lo:
                flow[0] = times[lo - 1]
                del times[:lo], flow[2][:lo]
            if not times and flow[0] < before - window:
                del self._flows[remote]

    def slot_trace(self, t: float, length: float, window: float) -> list:
        """The packets in [t - window, t + window] of every remote whose
        first packet in that window lies in the slot [t, t + length): a
        pattern belongs to the call whose slot holds its first packet.
        The index must have taken t + window, and dropped nothing from t
        on; a remote whose last forgotten packet lies in [t - window, t)
        started before the slot."""
        out = []
        for remote in sorted(self._flows):
            last, times, pkts = self._flows[remote]
            if last >= t - window:
                continue
            lo = bisect.bisect_left(times, t - window)
            if lo < len(times) and t <= times[lo] < t + length:
                out += pkts[lo:bisect.bisect_right(times, t + window, lo)]
        return out


class CallerPool:
    """The SYN-filtered calling clients that tracking and verification
    share: each places inconspicuous calls, and a round is read from each
    client's tap, one slot per call, while the loop runs."""

    def __init__(self, sim: Simulator, overlay: RtcOverlay, clients):
        """clients: (host_id, rtc_id) pairs of SYN-filtered hosts.  A
        tap records only what it observes once it exists, so make the pool
        before its calls."""
        self.sim = sim
        self.overlay = overlay
        self.clients = list(clients)
        self.taps = [sim.tap(h) for h, _ in self.clients]
        self.observer_ips = [sim.hosts[h].ip for h, _ in self.clients]
        self.indexes = [FlowIndex(tap, ip)
                        for tap, ip in zip(self.taps, self.observer_ips)]

    def call(self, client: int, callee: str, t: float, call_id: int,
             start_delay=None):
        """Place call call_id from client (an index into clients) at t."""
        return self.overlay.place_call(
            CallRequest(self.clients[client][1], callee, t), call_id,
            start_delay)

    def read(self, slots, length: float, window: float, place):
        """Run the round, yielding (k, slot trace) for each (client, t) =
        slots[k] as soon as that trace is final; the caller exhausts the
        generator to end the round.  The read takes the overlay's next
        len(slots) call ids for good, slot k's being the first plus k, and
        place(k, call_id) places slot k's call just before the loop first
        advances to its t or past, so the loop holds the calls of about a
        window of slots, not the round.  A read closed early keeps its ids,
        so no later call draws a placed call's streams again.  The loop
        runs slot time by slot time: once it has reached t + max(length,
        window), everything a slot at t reads is final, so the indexes take
        in what is new and the slots at t are yielded, in slots order, and
        then everything observed before the next slot time leaves the
        indexes.  So the indexes hold about a window of packets, not the
        round, and no trace is kept past its yield.  The round ends at max
        t + length + window + ROUND_TAIL, with taps and indexes empty."""
        by_t: dict = {}
        for k, (_, t) in enumerate(slots):
            by_t.setdefault(t, []).append(k)
        times = sorted(by_t)
        reach = max(length, window)
        first = len(self.overlay.calls)
        self.overlay.calls = range(first + len(slots))
        due = 0                             # the first slot time to place
        for i, t in enumerate(times):
            while due < len(times) and times[due] <= t + reach:
                for k in by_t[times[due]]:
                    place(k, first + k)
                due += 1
            self.sim.advance(max(self.sim.now, t + reach))
            for index in self.indexes:
                index.take(t + reach)
            for k in by_t[t]:
                yield k, self.indexes[slots[k][0]].slot_trace(t, length,
                                                              window)
            if i + 1 < len(times):
                for index in self.indexes:
                    index.drop(times[i + 1], window)
        if slots:
            self.sim.advance(times[-1] + length + window + ROUND_TAIL)
        for index in self.indexes:
            index.take(math.inf)
            index.drop(math.inf, window)
