import bisect
import math
import runpy
import weakref
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from p2ptrack.netsim import CaptureTap, SimPacket, Simulator, parse_ip
from p2ptrack.rtcdir import (KEEPALIVE_SIZE, KIND_NATED, KIND_OFFLINE,
                             KIND_PUBLIC, MARKER_GAPS, MARKER_SIZES,
                             NAT_FIRST_SIZE, NAT_TAIL_DELAY, NAT_TAIL_GAP,
                             NAT_TAIL_SIZE, SYN_SIZE, SYN_TIMEOUT_FIRST,
                             SYN_TIMEOUT_SECOND, VARYING_SIZES, CallRequest,
                             Directory, PresenceBook, RtcOverlay)
from p2ptrack.pipelines import run
from p2ptrack.scenario import load_scenario, scenario_from_dict
from p2ptrack import sniffer
from p2ptrack.sniffer import (ROUND_TAIL, CallerPool, FlowIndex,
                              classify_trace)
from p2ptrack.worldgen import build_world
from tests.conftest import named
OBSERVER = parse_ip("10.0.0.1")


def _observer(mini):
    """The address of the host the tap sits at."""
    return mini.sim.hosts[mini.tracker_host].ip


def _obs_t(pkt, observer_ip):
    """When a tap at observer_ip observes pkt."""
    return pkt.t_send if pkt.src_ip == observer_ip else pkt.t_recv


def _window(mini, t_call, span=25.0):
    obs_ip = _observer(mini)
    return [p for p in named(mini.tap.take())
            if t_call <= _obs_t(p, obs_ip) <= t_call + span]


def test_classifier_config_validation():
    # the classifier's tolerance, score and window are constants, not
    # scenario keys, and each lies in the bounds the keys had
    assert 0 < sniffer.TIMING_TOLERANCE < 0.5
    assert 0 <= sniffer.MIN_SCORE <= 1
    assert sniffer.PATTERN_WINDOW > 0


def test_case_i_classified_against_noise(mini):
    user, host = mini.add_public_user()
    mini.start()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 100.0), 0)
    mini.sim.advance(140.0)
    matches = classify_trace(_window(mini, 100.0), _observer(mini))
    assert len(matches) == 1
    assert matches[0].kind == KIND_PUBLIC
    assert matches[0].candidate_ip == mini.sim.hosts[host].ip
    assert matches[0].score >= sniffer.MIN_SCORE


def test_case_ii_and_dual_login(mini):
    user, _ = mini.add_public_user(user="dualuser")
    _, nhost = mini.add_nated_user(online=None)
    mini.presence.add_session("dualuser", nhost, 0.0, None)
    mini.start()
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, "dualuser", 100.0), 0)
    mini.sim.advance(140.0)
    matches = classify_trace(_window(mini, 100.0), _observer(mini))
    assert sorted(m.kind for m in matches) == [KIND_PUBLIC, KIND_NATED]
    assert {m.candidate_ip for m in matches} == \
        {t.expect_ip for t in placed.targets}


def test_case_iii_no_responses(mini):
    user, host = mini.add_public_user(online=(0.0, 500.0))
    mini.start(at=600.0)
    mini.tap.take()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 700.0), 0)
    mini.sim.advance(740.0)
    matches = classify_trace(_window(mini, 700.0), _observer(mini))
    assert [m.kind for m in matches] == [KIND_OFFLINE]
    assert matches[0].candidate_ip == mini.sim.hosts[host].ip


def test_kind_i_and_iii_mutually_exclusive(mini):
    user, host = mini.add_public_user()
    mini.start()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 100.0), 0)
    mini.sim.advance(140.0)
    window = _window(mini, 100.0)
    callee_ip = mini.sim.hosts[host].ip
    flow = [p for p in window if callee_ip in (p.src_ip, p.dst_ip)]
    # with responses present the flow scores as I...
    full = classify_trace(flow, _observer(mini))
    assert [m.kind for m in full] == [KIND_PUBLIC]
    # ...and with callee packets removed, the same emission scores as III
    outbound_only = [p for p in flow if p.src_ip != callee_ip]
    bare = classify_trace(outbound_only, _observer(mini))
    assert [m.kind for m in bare] == [KIND_OFFLINE]


def test_noise_only_windows_never_match(mini):
    # dark callee: present in the directory, last seen long ago, so a call
    # emits supernode noise and nothing else (generator ground truth);
    # 10000 Monte-Carlo windows must stay below the match threshold
    user, _ = mini.add_public_user(online=(0.0, 10.0))
    mini.start(at=300000.0)
    n_windows = 10000
    obs_ip = mini.sim.hosts[mini.tracker_host].ip
    hits = 0
    batch = 500
    for start in range(0, n_windows, batch):
        mini.tap.take()
        base = 300100.0 + 20.0 * start
        for k in range(batch):
            mini.overlay.place_call(
                CallRequest(mini.tracker_user, user, base + 20.0 * k),
                start + k)
        # every window's noise (12 s span) completes within its 20 s slot
        mini.sim.advance(base + 20.0 * batch)
        trace = mini.tap.take()
        times = [_obs_t(p, obs_ip) for p in named(trace)]
        for k in range(batch):
            t0 = base + 20.0 * k
            window = trace[bisect.bisect_left(times, t0):
                           bisect.bisect_right(times, t0 + 20.0)]
            hits += len(classify_trace(window, observer_ip=obs_ip))
    assert hits == 0


def _syn_udp_rows(t, remote, inbound=True, syn_gap=SYN_TIMEOUT_SECOND):
    """_host_tap rows of a kind I pattern from t (kind III without the
    inbound reply); a wrong syn_gap fails one of its six checks."""
    rows = [(t, remote, True, "TCP", "SYN", SYN_SIZE),
            (t + SYN_TIMEOUT_FIRST, remote, True, "TCP", "SYN", SYN_SIZE),
            (t + SYN_TIMEOUT_FIRST + syn_gap, remote, True, "TCP", "SYN",
             SYN_SIZE)]
    mark = t + 0.1
    for gap in (0.0,) + MARKER_GAPS:
        mark += gap
        rows.append((mark, remote, True, "UDP", "", MARKER_SIZES[0]))
    if inbound:
        rows.append((t + 0.3, remote, False, "UDP", "", MARKER_SIZES[1]))
    return rows


def test_classify_ranks_by_score_then_time_then_address():
    a, b, c, d = (parse_ip(f"10.0.1.{k}") for k in (2, 4, 1, 3))
    rows = (_syn_udp_rows(5.0, a) + _syn_udp_rows(1.0, b, inbound=False)
            + _syn_udp_rows(0.0, c, syn_gap=3.0) + _syn_udp_rows(5.0, d))
    rows.sort(key=lambda r: r[0])
    trace = _host_tap(rows).take()
    ranked = classify_trace(trace, OBSERVER)
    # b, a and d score 1 and b starts first; d ties a on time and follows
    # it by address; c fails one of its six checks
    assert [m.candidate_ip for m in ranked] == [b, a, d, c]
    assert [m.kind for m in ranked] == [KIND_OFFLINE] + [KIND_PUBLIC] * 3
    assert [m.stale for m in ranked] == [True, False, False, False]
    assert [m.score for m in ranked] == [1.0, 1.0, 1.0, 5 / 6]
    assert [m.t_first_packet for m in ranked] == [1.0, 5.0, 5.0, 0.0]
    # each online match carries its remote's first inbound IP-ID
    first_in = {}
    for p in named(trace):
        first_in.setdefault(p.src_ip, p.ip_id)
    assert [m.ip_id for m in ranked] == [None] + [first_in[ip]
                                                  for ip in (a, d, c)]


def test_classify_empty_trace():
    assert classify_trace([], parse_ip("10.0.0.1")) == []


def _host_tap(observations):
    """A tap at OBSERVER recording (t, remote, outbound, proto, flags, size)
    observations the way a host tap does: outbound packets at t_send,
    inbound ones at t_recv.  A packet's IP-ID is its row index."""
    tap = CaptureTap()
    for ip_id, (t, remote, outbound, proto, flags, size) in \
            enumerate(observations):
        if outbound:
            pkt = SimPacket(t, t + 0.05, OBSERVER, 5000, remote, 6000, proto,
                            flags, size, ip_id)
        else:
            pkt = SimPacket(t - 0.05, t, remote, 6000, OBSERVER, 5000, proto,
                            flags, size, ip_id)
        tap.record(t, pkt)
    return tap


def _whole_index(tap, observer_ip):
    """An index of every packet tap holds, which it takes: the whole-round
    read's index."""
    index = FlowIndex(tap, observer_ip)
    index.take(math.inf)
    return index


def test_slot_trace_half_open_slot():
    # a pattern belongs to the call whose slot [t, t + length) holds its
    # first packet in [t - window, t + window]: t is inside, t + length is
    # the next call's
    a, b, c, d, e = (parse_ip(f"10.0.1.{k}") for k in range(1, 6))
    tap = _host_tap((t, remote, False, "UDP", (), 30) for t, remote in (
        (-11.0, e),    # before t - window: not e's first in-window packet
        (9.0, a),      # in [t - window, t): a started before the slot
        (10.0, c), (11.0, a), (12.5, e), (14.999, d),
        (15.0, b),     # at t + length: the next call's
        (30.0, c),     # at t + window: still in c's window
        (30.5, c)))
    index = _whole_index(tap, OBSERVER)
    assert [(p.t_recv, p.src_ip)
            for p in named(index.slot_trace(10.0, 5.0, 20.0))] \
        == [(10.0, c), (30.0, c), (14.999, d), (12.5, e)]
    assert [(p.t_recv, p.src_ip)
            for p in named(index.slot_trace(15.0, 5.0, 20.0))] \
        == [(15.0, b)]
    assert index.slot_trace(40.0, 5.0, 20.0) == []
    assert _whole_index(CaptureTap(), OBSERVER).slot_trace(
        10.0, 5.0, 20.0) == []


# sizes and gaps of the call signatures, so random flows partly match them
_SIZES = (*MARKER_SIZES, NAT_FIRST_SIZE, NAT_TAIL_SIZE, KEEPALIVE_SIZE,
          SYN_SIZE, *VARYING_SIZES)
_GAPS = (0.0, SYN_TIMEOUT_FIRST, SYN_TIMEOUT_SECOND, *MARKER_GAPS,
         NAT_TAIL_DELAY, NAT_TAIL_GAP)
_observations = st.lists(st.tuples(
    st.sampled_from(_GAPS) | st.floats(0.0, 5.0),
    st.integers(1, 6),
    st.booleans(),
    st.sampled_from((("UDP", ""), ("TCP", "SYN"), ("TCP", "ACK,SYN"),
                     ("TCP", "ACK"))),
    st.sampled_from(_SIZES) | st.integers(1, 1500)), max_size=80)


@settings(max_examples=300, deadline=None)
@given(_observations, st.floats(-5.0, 120.0), st.floats(0.5, 30.0),
       st.floats(0.5, 30.0))
def test_slot_trace_equals_slot_filtered_window(obs, t, length, window):
    # the oracle: classify the whole window, keep the flows that start in
    # the slot; a MIN_SCORE of 0 scores every flow
    rows, now = [], 0.0
    for gap, host, outbound, (proto, flags), size in obs:
        now += gap
        rows.append((now, parse_ip(f"10.0.1.{host}"), outbound, proto, flags,
                     size))
    whole = [p for p in named(_host_tap(rows).take())
             if t - window <= _obs_t(p, OBSERVER) <= t + window]
    slot = _whole_index(_host_tap(rows), OBSERVER).slot_trace(t, length,
                                                              window)
    with mock.patch.object(sniffer, "MIN_SCORE", 0.0):
        want = [m for m in classify_trace(whole, OBSERVER)
                if t <= m.t_first_packet < t + length]
        got = classify_trace(slot, OBSERVER)
    assert got == want
    # a match carries the IP-ID of the first packet its remote sent in the
    # slot trace, and has none exactly when it is stale
    for m in got:
        assert m.ip_id == next((p.ip_id for p in named(slot)
                                if p.src_ip == m.candidate_ip), None)
        assert (m.ip_id is None) == m.stale


# -- the calling-client pool ---------------------------------------------------

def _pool_sim():
    """Two callers exchanging packets with two remotes from t = 0.5 on;
    nothing has been emitted yet."""
    sim = Simulator(seed=4)
    for host, ip in (("c0", "10.0.0.1"), ("c1", "10.0.0.2"),
                     ("r0", "10.0.1.1"), ("r1", "10.0.1.2"),
                     ("r2", "10.0.1.3")):
        sim.add_host(host, ip)
    for k in range(12):
        at = 0.5 + 1.5 * k
        caller, remote = sim.hosts[f"c{k % 2}"], sim.hosts[f"r{k // 2 % 2}"]
        sim.schedule_send(caller.host_id, remote.ip, 5000, "UDP", 40 + k,
                          at=at, src_port=6000)
        sim.schedule_send(remote.host_id, caller.ip, 6000, "UDP", 80 + k,
                          at=at + 0.2, src_port=5000)
    return sim


def _late_packet(sim):
    """A flow scheduled once the taps exist, starting in c0's last slot."""
    sim.schedule_send("r2", "10.0.0.1", 6000, "UDP", 200, at=7.5,
                      src_port=5000)


_POOL_SLOTS = [(0, 1.0), (1, 4.0), (0, 7.0), (1, 7.0)]


def _pool():
    """A pool over _pool_sim's two callers, with the late flow scheduled."""
    sim = _pool_sim()
    pool = CallerPool(sim, RtcOverlay(sim, Directory(), PresenceBook()),
                      [("c0", "u0"), ("c1", "u1")])
    _late_packet(sim)
    return pool


def test_caller_pool_read_is_each_slot_trace():
    slots, length, window = _POOL_SLOTS, 3.0, 4.0
    end = 7.0 + length + window + ROUND_TAIL
    # the oracle: index each tap by hand once the round has run
    sim = _pool_sim()
    taps = [sim.tap("c0"), sim.tap("c1")]
    _late_packet(sim)
    sim.advance(end)
    indexes = [_whole_index(taps[c], sim.hosts[f"c{c}"].ip) for c in (0, 1)]
    want = [indexes[c].slot_trace(t, length, window) for c, t in slots]

    pool = _pool()
    sim = pool.sim
    pairs, nows = [], []
    for k, trace in pool.read(slots, length, window,
                              lambda k, call_id: None):
        pairs.append((k, trace))
        nows.append(sim.now)
    # each slot once, in slot time order, as soon as the loop has run
    # max(length, window) past it
    assert [k for k, _ in pairs] == [0, 1, 2, 3]
    assert nows == [t + max(length, window) for _, t in slots]
    got = [trace for _, trace in pairs]
    assert got == want
    assert all(got)
    assert any(p.size == 200 for p in named(got[2]))
    assert sim.now == end
    assert [len(tap) for tap in pool.taps] == [0, 0]
    assert [index._flows for index in pool.indexes] == [{}, {}]


def test_streamed_read_equals_whole_round_read(monkeypatch):
    # three clients with 2 s slots under a 20 s window, so slots overlap,
    # and one call whose pattern starts past its slot; a few noise flows a
    # call, so supernode flows pause and restart; every record a tap
    # sees is copied, and each read is checked against one index of the
    # copies, which nothing trims
    world = build_world(scenario_from_dict({
        "name": "stream", "seed": 93,
        "rtc": {"supernodes": 30, "noise_flows": [1, 2],
                "noise_packets": [5, 7]},
        "population": {"users": 120, "cities": 8, "nat_fraction": 0.3,
                       "online_fraction": 0.8, "stale_fraction": 0.1},
        "tracker": {"clients": 3, "s": 2.0, "rounds": 2,
                    "round_period": 3600.0, "reorders": 1}}))
    assert len(world.reorder_plan) == 1
    copies, record, read = {}, CaptureTap.record, CallerPool.read

    def copying_record(tap, obs_t, pkt):
        record(tap, obs_t, pkt)
        record(copies.setdefault(tap, CaptureTap()), obs_t, pkt)

    checked = []

    def checked_read(pool, slots, length, window, place):
        pairs = []
        for k, trace in read(pool, slots, length, window, place):
            pairs.append((k, trace))
            yield k, trace
        assert sorted(k for k, _ in pairs) == list(range(len(slots)))
        wholes = {c: _whole_index(copies[pool.taps[c]], pool.observer_ips[c])
                  for c in {c for c, _ in slots}}
        for k, trace in pairs:
            c, t = slots[k]
            assert trace == wholes[c].slot_trace(t, length, window)
        checked.extend(trace for _, trace in pairs)
        copies.clear()

    monkeypatch.setattr(CaptureTap, "record", copying_record)
    monkeypatch.setattr(CallerPool, "read", checked_read)
    tracker = world.make_tracker()
    rounds = list(tracker.run_study(world.target_ids, 2, world.base_t))
    assert len(checked) == sum(map(len, rounds)) > 200
    assert sum(map(bool, checked)) > 150
    late = [c for k, r in enumerate(rounds) for c in r
            if (k, c.callee) in world.reorder_plan]
    assert len(late) == 1 and late[0].placed.start_delay > tracker.sched.s


def test_no_slot_trace_outlives_its_read(monkeypatch):
    # the pool keeps no trace it has yielded, so trace k is gone once the
    # caller, holding only the trace in hand, takes trace k + 1
    class Trace(list):
        pass

    slot_trace = FlowIndex.slot_trace
    monkeypatch.setattr(FlowIndex, "slot_trace",
                        lambda index, *args: Trace(slot_trace(index, *args)))
    refs, sizes = [], []
    for k, trace in _pool().read(_POOL_SLOTS, 3.0, 4.0,
                                 lambda k, call_id: None):
        assert [ref() for ref in refs] == [None] * k
        refs.append(weakref.ref(trace))
        sizes.append(len(trace))
    assert len(refs) == len(_POOL_SLOTS) and all(sizes)


def test_streamed_read_holds_under_a_quarter_of_a_round(monkeypatch):
    # the track benchmark's first round: taps and indexes together hold
    # about a window of packets at a time, not the round, and an index
    # keeps nothing observed before the next slot
    workloads = runpy.run_path("perfbench/workloads.py")
    world = build_world(scenario_from_dict(
        workloads["scenario_doc"]("track", 1)))
    tracker = world.make_tracker()
    pool = tracker.pool
    counts = {"recorded": 0, "held": 0, "drops": 0}
    record, drop = CaptureTap.record, FlowIndex.drop

    def counted_record(tap, obs_t, pkt):
        counts["recorded"] += 1
        record(tap, obs_t, pkt)

    def measured_drop(index, before, window):
        # a take moves packets from a tap to its index and only a drop
        # lets them go, so taps and indexes hold the most just before one
        held = sum(map(len, pool.taps)) + sum(
            len(times) for each in pool.indexes
            for _, times, _ in each._flows.values())
        counts["held"] = max(counts["held"], held)
        drop(index, before, window)
        assert all(times[0] >= before
                   for _, times, _ in index._flows.values() if times)
        counts["drops"] += 1

    monkeypatch.setattr(CaptureTap, "record", counted_record)
    monkeypatch.setattr(FlowIndex, "drop", measured_drop)
    tracker.run_round(world.target_ids, world.base_t)
    assert counts["recorded"] > 40_000 and counts["drops"] > 100
    assert counts["held"] < counts["recorded"] / 4


def test_a_round_places_a_window_of_calls_at_a_time(monkeypatch):
    # the track benchmark's first round: a call is placed just before the
    # loop can reach its slot, so the calls placed and not yet read are
    # those of the slots within max(length, window) of the slot being
    # read, at most clients x (max(length, window) // s + 1), not the round
    workloads = runpy.run_path("perfbench/workloads.py")
    world = build_world(scenario_from_dict(
        workloads["scenario_doc"]("track", 1)))
    tracker = world.make_tracker()
    s = tracker.sched.s
    bound = len(tracker.pool.clients) * (
        math.floor(max(s, sniffer.PATTERN_WINDOW) / s) + 1)
    counts = {"placed": 0, "read": 0, "most": 0}
    place_call, read = RtcOverlay.place_call, CallerPool.read

    def counted_place_call(overlay, *args, **kwargs):
        counts["placed"] += 1
        counts["most"] = max(counts["most"],
                             counts["placed"] - counts["read"])
        return place_call(overlay, *args, **kwargs)

    def counted_read(pool, *args):
        for k, trace in read(pool, *args):
            counts["read"] += 1
            yield k, trace

    monkeypatch.setattr(RtcOverlay, "place_call", counted_place_call)
    monkeypatch.setattr(CallerPool, "read", counted_read)
    calls = tracker.run_round(world.target_ids, world.base_t)
    assert counts["placed"] == counts["read"] == len(calls) > 5 * bound
    assert counts["most"] <= bound


def test_a_rounds_call_ids_are_its_slot_order(monkeypatch):
    # every round of a smoke run: calls are placed in time order, but the
    # read reserves the round's ids up front, so slot k's call has the
    # round's first id plus k, the order in which a round once placed
    # every call before the loop ran; the tracker's slots go client by
    # client, so its calls are not placed in id order
    reads = []
    place_call, read = RtcOverlay.place_call, CallerPool.read

    def noted_place_call(overlay, req, call_id, start_delay=None):
        call = place_call(overlay, req, call_id, start_delay)
        reads[-1]["placed"].append((call.call_id, (req.caller, req.t_start)))
        return call

    def noted_read(pool, slots, length, window, place):
        noted = {"first": len(pool.overlay.calls), "placed": [],
                 "slots": [(pool.clients[c][1], t) for c, t in slots]}
        reads.append(noted)
        yield from read(pool, slots, length, window, place)
        assert len(pool.overlay.calls) == noted["first"] + len(slots)

    monkeypatch.setattr(RtcOverlay, "place_call", noted_place_call)
    monkeypatch.setattr(CallerPool, "read", noted_read)
    assert run(load_scenario("scenarios/smoke.yaml"), "all").ok()
    assert len(reads) > 10
    orders = []
    for noted in reads:
        first, slots = noted["first"], noted["slots"]
        ids = [call_id for call_id, _ in noted["placed"]]
        assert sorted(ids) == list(range(first, first + len(slots)))
        assert [slots[i - first] for i in ids] == \
            [slot for _, slot in noted["placed"]]
        orders.append(ids)
    assert any(ids != sorted(ids) for ids in orders)


def test_a_read_closed_early_reuses_no_call_id():
    # a caller that stops reading, say on an exception in its
    # classification, closes the read; the read keeps every id it took,
    # so no later call draws a placed call's streams again.  The slots go
    # client by client, as the tracker's do, so the first read places
    # ids from both halves of its range before it is closed
    world = build_world(scenario_from_dict({
        "name": "closed", "seed": 94,
        "population": {"users": 12, "cities": 8},
        "tracker": {"clients": 2, "s": 3.0, "rounds": 1}}))
    pool = world.make_tracker().pool
    first = len(world.overlay.calls)
    ids = world.target_ids

    def reading(t0, placed):
        slots = [(c, t0 + 3.0 * k) for c in (0, 1) for k in range(12)]

        def place(k, call_id):
            c, t = slots[k]
            placed.append(pool.call(c, ids[k % len(ids)], t, call_id).call_id)

        return slots, pool.read(slots, 3.0, sniffer.PATTERN_WINDOW, place)

    placed, later = [], []
    slots, read = reading(world.base_t, placed)
    assert [k for k, _ in (next(read), next(read))] == [0, 12]
    read.close()
    assert 2 < len(placed) < len(slots) and placed != sorted(placed)
    assert len(world.overlay.calls) == first + len(slots)
    for _ in reading(world.base_t + 600.0, later)[1]:
        pass
    assert min(later) >= first + len(slots)


# -- SYN filter ----------------------------------------------------------------

def test_filter_drops_syns_passes_udp_and_established():
    sim = Simulator(seed=2, default_jitter=0.0)
    sim.add_host("a", "10.0.0.1")
    sim.add_host("b", "10.0.0.2")
    tap_b = sim.tap("b")
    # a connection opened before the filter: its non-SYN packets must flow
    sim.hosts["a"].syn_filter_from = 10.0
    sim.schedule_send("a", "10.0.0.2", 80, "TCP", 44, flags="SYN", at=1.0,
                      src_port=500)
    sim.schedule_send("a", "10.0.0.2", 80, "TCP", 52, flags="ACK", at=20.0,
                      src_port=500)
    sim.schedule_send("a", "10.0.0.2", 80, "TCP", 44, flags="SYN", at=30.0,
                      src_port=501)
    sim.schedule_send("a", "10.0.0.2", 80, "UDP", 59, at=40.0, src_port=502)
    # inbound SYN to the filtered host is dropped before the handler
    seen = []
    sim.set_handler("a", lambda s, h, p, d: seen.append(p))
    sim.schedule_send("b", "10.0.0.1", 500, "TCP", 44, flags="SYN", at=50.0,
                      src_port=80)
    sim.advance(60.0)
    delivered = [(p.proto, p.tcp_flags, p.size)
                 for p in named(tap_b.take())
                 if p.src_ip == sim.hosts["a"].ip]
    assert ("TCP", "SYN", 44) in delivered[:1]        # pre-window SYN passed
    assert ("TCP", "ACK", 52) in delivered             # established traffic
    assert ("UDP", "", 59) in delivered                # UDP untouched
    assert sum(1 for d in delivered if d[1] == "SYN") == 1
    assert seen == []                                  # inbound SYN dropped
    # the SYN at 30.0 is dropped leaving a, the SYN at 50.0 arriving at a
    assert sim.drops == {"egress_filter:a": 1, "ingress_filter:a": 1}


def test_filter_window_bounds():
    sim = Simulator(seed=2, default_jitter=0.0)
    sim.add_host("a", "10.0.0.1")
    sim.add_host("b", "10.0.0.2")
    tap_b = sim.tap("b")
    sim.hosts["a"].syn_filter_from = 10.0
    for k, t in enumerate((5.0, 9.5, 10.0, 15.0, 1e6)):
        sim.schedule_send("a", "10.0.0.2", 80, "TCP", 44, flags="SYN", at=t,
                          src_port=500 + k)
    sim.advance(1e6 + 1.0)
    # the filter starts at its time and never ends
    assert [p.t_send for p in named(tap_b.take())] == [5.0, 9.5]


def test_filtered_calls_leave_no_syn_at_callee(mini):
    user, host = mini.add_public_user()
    callee_tap = mini.sim.tap(host)
    mini.start()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 100.0), 0)
    mini.sim.advance(140.0)
    tracker_ip = mini.sim.hosts[mini.tracker_host].ip
    inbound_syn = [p for p in named(callee_tap.take())
                   if p.src_ip == tracker_ip and "SYN" in p.tcp_flags]
    assert inbound_syn == []
    # but the caller-side capture still shows the SYN triple (the filter
    # sits between the capture point and the wire)
    caller_syns = [p for p in named(mini.tap.take())
                   if p.src_ip == tracker_ip and "SYN" in p.tcp_flags]
    assert len(caller_syns) == 3


def test_filter_implies_zero_notifications(mini):
    pub, _ = mini.add_public_user()
    nat, _ = mini.add_nated_user()
    mini.start()
    for k, user in enumerate([pub, nat] * 10):
        mini.overlay.place_call(
            CallRequest(mini.tracker_user, user, 100.0 + 30.0 * k), k)
    mini.sim.advance(100.0 + 30.0 * 20 + 40.0)
    assert mini.overlay.notifications == []


def test_soundness_extracted_equals_true_sessions(mini):
    users = []
    for _ in range(8):
        users.append(mini.add_public_user()[0])
        users.append(mini.add_nated_user()[0])
    mini.start()
    obs_ip = mini.sim.hosts[mini.tracker_host].ip
    supernode_ips = set(map(mini.sim.public_ip_of, mini.overlay.supernodes))
    for k, user in enumerate(users):
        t = 100.0 + 40.0 * k
        mini.tap.take()
        placed = mini.overlay.place_call(
            CallRequest(mini.tracker_user, user, t), k)
        mini.sim.advance(t + 35.0)
        matches = classify_trace(mini.tap.take(), observer_ip=obs_ip)
        got = {m.candidate_ip for m in matches}
        want = {tt.expect_ip for tt in placed.targets}
        assert got == want
        assert not (got & supernode_ips)
