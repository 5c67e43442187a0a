import heapq
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2ptrack.netsim import (IPID_MOD, IPID_RANDOM,
                             IPID_SEQUENTIAL_PER_FLOW, LATENCY, NetsimError,
                             SimPacket, Simulator, ip_str, parse_ip)


def test_ipid_sequential_from_start(sim):
    sim.add_host("a", "10.0.0.1", ipid_start=7)
    sim.add_host("b", "10.0.0.2")
    tap = sim.tap("b")
    for k in range(3):
        sim.schedule_send("a", "10.0.0.2", 80, "UDP", 10, at=float(k),
                          src_port=1000)
    sim.advance(5.0)
    assert [p.ip_id for p in tap.trace()] == [7, 8, 9]


def test_ipid_wraps_mod_2_16(sim):
    host = sim.add_host("a", "10.0.0.1", ipid_start=65535)
    assert host.next_ipid(None) == 65535
    assert host.next_ipid(None) == 0


def test_ipid_per_flow_counters(sim):
    host = sim.add_host("a", "10.0.0.1", ipid_start=0,
                        ipid_model=IPID_SEQUENTIAL_PER_FLOW)
    f1 = (1000, parse_ip("10.0.0.2"), 80, "UDP")
    f2 = (1000, parse_ip("10.0.0.3"), 80, "UDP")
    seq = [host.next_ipid(f1), host.next_ipid(f2), host.next_ipid(f1),
           host.next_ipid(f2), host.next_ipid(f1), host.next_ipid(f2)]
    assert seq == [0, 0, 1, 1, 2, 2]


def test_ipid_per_flow_default_random_offsets(sim):
    host = sim.add_host("a", "10.0.0.1",
                        ipid_model=IPID_SEQUENTIAL_PER_FLOW)
    f1 = (1000, parse_ip("10.0.0.2"), 80, "UDP")
    f2 = (1000, parse_ip("10.0.0.3"), 80, "UDP")
    a0, b0 = host.next_ipid(f1), host.next_ipid(f2)
    assert host.next_ipid(f1) == (a0 + 1) % IPID_MOD
    assert host.next_ipid(f2) == (b0 + 1) % IPID_MOD
    assert a0 != b0    # flows start at independent offsets


def test_ipid_random_reproducible():
    def draw():
        sim = Simulator(seed=99)
        host = sim.add_host("a", "10.0.0.1", ipid_model=IPID_RANDOM)
        return [host.next_ipid(None) for _ in range(50)]

    first, second = draw(), draw()
    assert first == second
    assert all(0 <= v < IPID_MOD for v in first)
    assert len(set(first)) > 10  # actually random, not a constant


def test_nat_rewrites_source_to_public(sim):
    sim.add_nat("n1", "5.5.5.5")
    sim.add_host("inside", "192.168.0.2", nat="n1")
    sim.add_host("b", "10.0.0.9")
    tap = sim.tap("b")
    sim.schedule_send("inside", "10.0.0.9", 80, "UDP", 10, at=0.0,
                      src_port=4000)
    sim.advance(1.0)
    pkt = tap.trace()[0]
    assert ip_str(pkt.src_ip) == "5.5.5.5"
    assert pkt.src_port != 4000 or pkt.src_port >= 40000


def test_nat_unsolicited_inbound_dropped(sim):
    sim.add_nat("n1", "5.5.5.5", accepts_unsolicited_inbound=False)
    sim.add_host("inside", "192.168.0.2", nat="n1")
    sim.add_host("a", "10.0.0.1")
    inside_tap = sim.tap("inside")
    sim.schedule_send("a", "5.5.5.5", 40000, "TCP", 44, flags=("SYN",),
                      at=0.0, src_port=1234)
    sim.advance(1.0)
    assert len(inside_tap) == 0
    assert sim.drops == {"nat_no_binding:n1": 1}


def test_nat_binding_allows_reply_and_restricts_strangers(sim):
    nat = sim.add_nat("n1", "5.5.5.5")
    sim.add_host("inside", "192.168.0.2", nat="n1")
    sim.add_host("peer", "10.0.0.1")
    sim.add_host("stranger", "10.0.0.2")
    inside_tap = sim.tap("inside")
    sim.schedule_send("inside", "10.0.0.1", 80, "UDP", 10, at=0.0,
                      src_port=4000)
    sim.advance(1.0)
    pub_ip, pub_port = nat.public_endpoint(parse_ip("192.168.0.2"), 4000,
                                           "UDP")
    sim.schedule_send("peer", pub_ip, pub_port, "UDP", 11, at=1.0,
                      src_port=80)
    sim.schedule_send("stranger", pub_ip, pub_port, "UDP", 12, at=1.0,
                      src_port=80)
    sim.advance(2.0)
    sizes = [p.size for p in inside_tap.trace() if p.dst_port == 4000]
    assert 11 in sizes and 12 not in sizes
    assert sim.drops == {"nat_unsolicited:n1": 1}   # the stranger's 12


def test_nat_preserves_ipid(sim):
    sim.add_nat("n1", "5.5.5.5")
    sim.add_host("inside", "192.168.0.2", nat="n1", ipid_start=100)
    sim.add_host("b", "10.0.0.9")
    private = sim.tap("inside")
    received = sim.tap("b")
    for k in range(5):
        sim.schedule_send("inside", "10.0.0.9", 80, "UDP", 10, at=float(k),
                          src_port=4000)
    sim.advance(10.0)
    inner = [p.ip_id for p in private.trace()]
    outer = [p.ip_id for p in received.trace()]
    assert inner == outer == [100, 101, 102, 103, 104]
    # b saw the packets after the NAT rewrote their source
    assert {p.src_ip for p in received.trace()} == {parse_ip("5.5.5.5")}


def test_advance_tie_breaks_by_insertion_order(sim):
    ran = []
    sim.schedule(1.0, ran.append, "e1")
    sim.schedule(1.0, ran.extend, ("e2", "e3"))
    sim.advance(2.0)
    assert ran == ["e1", "e2", "e3"]


def test_trace_ties_in_event_order():
    # zero jitter: both packets reach b at exactly 1.05
    sim = Simulator(seed=1, default_jitter=0.0)
    sim.add_host("high", "10.0.0.9")
    sim.add_host("low", "10.0.0.1")
    sim.add_host("b", "10.0.0.2")
    tap = sim.tap("b")
    sim.schedule_send("high", "10.0.0.2", 80, "UDP", 10, at=1.0, src_port=1)
    sim.schedule_send("low", "10.0.0.2", 80, "UDP", 10, at=1.0, src_port=1)
    sim.advance(2.0)
    assert [ip_str(p.src_ip) for p in tap.trace()] == ["10.0.0.9", "10.0.0.1"]
    assert tap.window(1.05, 1.05) == tap.trace()


def test_tap_merges_written_entries_with_loop_records():
    # zero jitter: the loop records b's packets at 1.05, 2.05 and 3.05; a
    # writer records around, between and on those times, out of order
    sim = Simulator(seed=1, default_jitter=0.0)
    sim.add_host("a", "10.0.0.1")
    sim.add_host("b", "10.0.0.2")
    tap = sim.tap("b")
    for t in (1.0, 2.0, 3.0):
        sim.schedule_send("a", "10.0.0.2", 80, "UDP", 10, at=t, src_port=1)

    def write(obs_t, size):
        tap.record(obs_t, SimPacket(obs_t - LATENCY, obs_t,
                                    parse_ip("10.0.0.3"), 2,
                                    parse_ip("10.0.0.2"), 80, "UDP",
                                    frozenset(), size, 0))

    write(2.5, 20)
    write(0.5, 21)
    sim.advance(1.5)                # records 1.0 + LATENCY
    write(2.0 + LATENCY, 22)        # ties a loop record still to come
    write(1.0 + LATENCY, 23)        # ties the loop record already made
    sim.advance(4.0)
    write(9.0, 24)
    assert len(tap) == 8
    # equal observation times keep their recording order
    order = [21, 10, 23, 22, 10, 20, 10, 24]
    assert [p.size for p in tap.window(1.0 + LATENCY, 3.0 + LATENCY)] == \
        order[1:7]
    trace = tap.trace()
    assert [p.size for p in trace] == order
    assert [p.t_recv for p in trace] == sorted(p.t_recv for p in trace)
    tap.clear()
    assert len(tap) == 0 and tap.trace() == [] and tap.window(0, 10) == []
    write(0.5, 25)                  # earlier than anything cleared
    assert [p.size for p in tap.trace()] == [25]


def test_drops_count_packets_per_reason(sim):
    sim.add_host("a", "10.0.0.1")
    for k in range(3):
        sim.schedule_send("a", "10.9.9.9", 80, "UDP", 10, at=float(k),
                          src_port=1)
    sim.advance(1.0)
    assert sim.drops == {"no_route": 2}   # counted when the packet leaves
    sim.advance(5.0)
    assert sim.drops == {"no_route": 3}


def test_advance_idempotent_at_same_time(sim):
    ran = []
    sim.schedule(1.0, lambda: ran.append(1))
    sim.advance(5.0)
    sim.advance(5.0)
    assert ran == [1]
    assert sim.now == 5.0


def test_delivery_time_is_send_plus_latency(sim):
    sim.add_host("a", "10.0.0.1")
    sim.add_host("b", "10.0.0.2")
    tap = sim.tap("b")
    sim.schedule_send("a", "10.0.0.2", 80, "UDP", 10, at=3.0, src_port=1)
    sim.advance(4.0)
    assert tap.trace()[0].t_recv == pytest.approx(3.05)


def test_advance_rejects_past_and_schedule_rejects_past(sim):
    sim.advance(5.0)
    with pytest.raises(NetsimError):
        sim.advance(4.0)
    with pytest.raises(NetsimError):
        sim.schedule(1.0, lambda: None)


def test_schedule_rejects_nan(sim):
    ran = []
    with pytest.raises(NetsimError):
        sim.schedule(math.nan, ran.append, "nan")
    sim.schedule(1.0, ran.append, "e1")
    sim.advance(2.0)
    assert ran == ["e1"]


def test_advance_rejects_nan(sim):
    sim.advance(1.0)
    with pytest.raises(NetsimError):
        sim.advance(math.nan)
    assert sim.now == 1.0
    with pytest.raises(NetsimError):
        sim.schedule(0.5, lambda: None)


def test_loop_rejects_infinite_time(sim):
    # at now = inf a 30 s echo guard reads inf - inf = nan, which compares
    # False, so the loop must never get there
    sim.add_host("h", "10.0.0.1")
    ran = []
    with pytest.raises(NetsimError, match="inf"):
        sim.schedule(math.inf, ran.append, "inf")
    with pytest.raises(NetsimError, match="inf"):
        sim.schedule_send("h", "1.2.3.4", 1, "UDP", 10, at=math.inf)
    with pytest.raises(NetsimError, match="inf"):
        sim.advance(math.inf)
    sim.schedule(1.0, ran.append, "e1")
    sim.advance(2.0)
    assert ran == ["e1"] and sim.now == 2.0


def test_advance_from_a_running_event_rejected(sim):
    sim.schedule(1.0, sim.advance, 3.0)
    with pytest.raises(NetsimError, match="running event"):
        sim.advance(2.0)
    ran = []        # the loop is usable again
    sim.schedule(2.5, ran.append, "e1")
    sim.advance(3.0)
    assert ran == ["e1"]


class _HeapLoop:
    """The reference queue: one heap of (time, insertion seq)."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def schedule(self, at, fn, *args):
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn, args))

    def advance(self, until):
        while self._heap and self._heap[0][0] <= until:
            t, _, fn, args = heapq.heappop(self._heap)
            self.now = t
            fn(*args)
        self.now = until


def _drive(loop, phases):
    """Run phases of (events, step) on loop: schedule the events, each
    (delay, children), then advance by step.  An event that runs
    schedules its children the same way, relative to its own time."""
    ran, nows = [], []

    def fire(label, children):
        ran.append(label)
        for k, (delay, grandchildren) in enumerate(children):
            loop.schedule(loop.now + delay, fire, f"{label}.{k}",
                          grandchildren)

    for p, (events, step) in enumerate(phases):
        for k, (delay, children) in enumerate(events):
            loop.schedule(loop.now + delay, fire, f"{p}.{k}", children)
        loop.advance(loop.now + step)
        nows.append(loop.now)
    return ran, nows


# few distinct delays, so that many events share a time
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.5])
_EVENT = st.tuples(_DELAYS, st.lists(
    st.tuples(_DELAYS, st.lists(st.tuples(_DELAYS, st.just([])),
                                max_size=3)),
    max_size=3))
_PHASES = st.lists(st.tuples(st.lists(_EVENT, max_size=8),
                             st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0])),
                   min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_PHASES)
def test_queue_order_matches_one_heap(phases):
    assert _drive(Simulator(), phases) == _drive(_HeapLoop(), phases)


def test_simpacket_is_an_immutable_value():
    fields = (1.0, 1.05, 1, 2, 3, 4, "TCP", frozenset(("SYN",)), 44, 7)
    a, b = SimPacket(*fields), SimPacket(*fields)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != SimPacket(*fields[:-1], 8)
    with pytest.raises(AttributeError):
        a.size = 45
    assert SimPacket._fields == (
        "t_send", "t_recv", "src_ip", "src_port", "dst_ip", "dst_port",
        "proto", "tcp_flags", "size", "ip_id")


def test_schedule_send_unknown_host(sim):
    with pytest.raises(NetsimError):
        sim.schedule_send("ghost", "10.0.0.1", 80, "UDP", 10, at=0.0)


def test_duplicate_public_ip_rejected(sim):
    sim.add_host("a", "10.0.0.1")
    with pytest.raises(NetsimError):
        sim.add_host("b", "10.0.0.1")
    sim.add_nat("n1", "10.0.0.2")
    with pytest.raises(NetsimError):
        sim.add_nat("n2", "10.0.0.2")


def test_private_ip_unique_per_nat_domain(sim):
    sim.add_nat("n1", "5.5.5.5")
    sim.add_nat("n2", "5.5.5.6")
    sim.add_host("a", "192.168.0.2", nat="n1")
    sim.add_host("b", "192.168.0.2", nat="n2")  # other domain: fine
    with pytest.raises(NetsimError):
        sim.add_host("c", "192.168.0.2", nat="n1")


def _build_traced_sim(seed):
    sim = Simulator(seed=seed)
    sim.add_host("a", "10.0.0.1")
    sim.add_nat("n1", "5.5.5.5")
    sim.add_host("inside", "192.168.0.2", nat="n1")
    tap = sim.tap("a")
    rng = random.Random("det")
    for k in range(200):
        at = round(rng.uniform(0, 50), 3)
        if rng.random() < 0.5:
            sim.schedule_send("a", "5.5.5.5", 40000, "UDP",
                              rng.randint(10, 100), at=at, src_port=1000)
        else:
            sim.schedule_send("inside", "10.0.0.1", 2000, "UDP",
                              rng.randint(10, 100), at=at, src_port=3000)
    sim.advance(60.0)
    return tap.trace()


def test_determinism_byte_identical_traces():
    assert _build_traced_sim(4242) == _build_traced_sim(4242)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=60))
def test_sequential_global_ipids_step_one_in_send_order(times):
    sim = Simulator(seed=8, default_jitter=0.0)
    sim.add_host("a", "10.0.0.1", ipid_start=123)
    sim.add_host("b", "10.0.0.2")
    sim.add_host("c", "10.0.0.3")
    tap = sim.tap("a")
    for i, t in enumerate(sorted(times)):
        dst = "10.0.0.2" if i % 2 else "10.0.0.3"
        sim.schedule_send("a", dst, 80, "UDP", 10, at=t, src_port=1000 + i % 3)
    sim.advance(200.0)
    sent = [p.ip_id for p in tap.trace() if p.src_ip == parse_ip("10.0.0.1")]
    assert len(sent) == len(times)
    for prev, cur in zip(sent, sent[1:]):
        assert (cur - prev) % IPID_MOD == 1


def test_capture_ordering_nondecreasing(mini):
    user, _ = mini.add_public_user()
    mini.start()
    from p2ptrack.rtcdir import CallRequest
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 50.0))
    mini.sim.advance(80.0)
    own_ip = mini.sim.hosts[mini.tracker_host].ip
    times = [p.t_send if p.src_ip == own_ip else p.t_recv
             for p in mini.tap.trace()]
    assert times == sorted(times)


def test_window_is_the_inclusive_slice_of_the_trace(sim):
    sim.add_host("a", "10.0.0.1")
    sim.add_host("b", "10.0.0.2")
    tap = sim.tap("b")
    for t in (1.0, 2.0, 2.0, 3.0, 4.0):
        sim.schedule_send("a", "10.0.0.2", 80, "UDP", 10, at=t, src_port=1)
    sim.advance(10.0)
    trace = tap.trace()
    assert tap.window(2.05, 3.05) == trace[1:4]     # both bounds inclusive
    assert tap.window(0.0, 100.0) == trace
    assert tap.window(5.0, 6.0) == []


def test_parse_ip_validation():
    assert ip_str(parse_ip("10.1.2.3")) == "10.1.2.3"
    for bad in ("10.1.2", "10.1.2.3.4", "300.1.2.3", "a.b.c.d"):
        with pytest.raises(NetsimError):
            parse_ip(bad)
