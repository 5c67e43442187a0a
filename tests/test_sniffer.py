from hypothesis import given, settings
from hypothesis import strategies as st

from p2ptrack.netsim import CaptureTap, SimPacket, Simulator, parse_ip
from p2ptrack.rtcdir import (KEEPALIVE_SIZE, KIND_NATED, KIND_OFFLINE,
                             KIND_PUBLIC, MARKER_GAPS, MARKER_SIZES,
                             NAT_FIRST_SIZE, NAT_TAIL_DELAY, NAT_TAIL_GAP,
                             NAT_TAIL_SIZE, SYN_SIZE, SYN_TIMEOUT_FIRST,
                             SYN_TIMEOUT_SECOND, VARYING_SIZES, CallRequest,
                             Directory, PresenceBook, RtcOverlay)
from p2ptrack.scenario import scenario_from_dict
from p2ptrack.sniffer import (ROUND_TAIL, CallerPool, ClassifierConfig,
                              FlowIndex, SynFilterPolicy, apply_syn_filter,
                              classify_trace)
CFG = ClassifierConfig()
OBSERVER = parse_ip("10.0.0.1")


def _observer(mini):
    """The address of the host the tap sits at."""
    return mini.sim.hosts[mini.tracker_host].ip


def _window(mini, t_call, span=25.0):
    obs_ip = _observer(mini)
    return [p for p in mini.tap.trace()
            if t_call <= (p.t_send if p.src_ip == obs_ip
                          else p.t_recv) <= t_call + span]


def test_classifier_config_validation():
    # the scenario states the classifier's bounds, and names a key it breaks
    for key, value in (("timing_tolerance", 0.6), ("timing_tolerance", 0.0),
                       ("pattern_window", 0.0)):
        scn = scenario_from_dict({"tracker": {"classifier": {key: value}}})
        assert any(p.startswith(f"tracker.classifier.{key}:")
                   for p in scn.validate())


def test_case_i_classified_against_noise(mini):
    user, host = mini.add_public_user()
    mini.start()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 100.0))
    mini.sim.advance(140.0)
    matches = classify_trace(_window(mini, 100.0), CFG, _observer(mini))
    assert len(matches) == 1
    assert matches[0].kind == KIND_PUBLIC
    assert matches[0].candidate_ip == mini.sim.hosts[host].ip
    assert matches[0].score >= CFG.min_score


def test_case_ii_and_dual_login(mini):
    user, _ = mini.add_public_user(user="dualuser")
    _, nhost = mini.add_nated_user(online=None)
    mini.presence.add_session("dualuser", nhost, 0.0, None)
    mini.start()
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, "dualuser", 100.0))
    mini.sim.advance(140.0)
    matches = classify_trace(_window(mini, 100.0), CFG, _observer(mini))
    assert sorted(m.kind for m in matches) == [KIND_PUBLIC, KIND_NATED]
    assert {m.candidate_ip for m in matches} == \
        {t.expect_ip for t in placed.targets}


def test_case_iii_no_responses(mini):
    user, host = mini.add_public_user(online=(0.0, 500.0))
    mini.start(at=600.0)
    mini.tap.clear()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 700.0))
    mini.sim.advance(740.0)
    matches = classify_trace(_window(mini, 700.0), CFG, _observer(mini))
    assert [m.kind for m in matches] == [KIND_OFFLINE]
    assert matches[0].candidate_ip == mini.sim.hosts[host].ip


def test_kind_i_and_iii_mutually_exclusive(mini):
    user, host = mini.add_public_user()
    mini.start()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 100.0))
    mini.sim.advance(140.0)
    window = _window(mini, 100.0)
    callee_ip = mini.sim.hosts[host].ip
    flow = [p for p in window if callee_ip in (p.src_ip, p.dst_ip)]
    # with responses present the flow scores as I...
    full = classify_trace(flow, CFG, _observer(mini))
    assert [m.kind for m in full] == [KIND_PUBLIC]
    # ...and with callee packets removed, the same emission scores as III
    outbound_only = [p for p in flow if p.src_ip != callee_ip]
    bare = classify_trace(outbound_only, CFG, _observer(mini))
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
        mini.tap.clear()
        base = 300100.0 + 20.0 * start
        for k in range(batch):
            mini.overlay.place_call(
                CallRequest(mini.tracker_user, user, base + 20.0 * k))
        # every window's noise (12 s span) completes within its 20 s slot
        mini.sim.advance(base + 20.0 * batch)
        for k in range(batch):
            t0 = base + 20.0 * k
            hits += len(classify_trace(mini.tap.window(t0, t0 + 20.0), CFG,
                                       observer_ip=obs_ip))
    assert hits == 0


def _syn_udp_rows(t, remote, inbound=True, syn_gap=SYN_TIMEOUT_SECOND):
    """_host_tap rows of a kind I pattern from t (kind III without the
    inbound reply); a wrong syn_gap fails one of its six checks."""
    rows = [(t, remote, True, "TCP", ("SYN",), SYN_SIZE),
            (t + SYN_TIMEOUT_FIRST, remote, True, "TCP", ("SYN",), SYN_SIZE),
            (t + SYN_TIMEOUT_FIRST + syn_gap, remote, True, "TCP", ("SYN",),
             SYN_SIZE)]
    mark = t + 0.1
    for gap in (0.0,) + MARKER_GAPS:
        mark += gap
        rows.append((mark, remote, True, "UDP", (), MARKER_SIZES[0]))
    if inbound:
        rows.append((t + 0.3, remote, False, "UDP", (), MARKER_SIZES[1]))
    return rows


def test_classify_ranks_by_score_then_time_then_address():
    a, b, c, d = (parse_ip(f"10.0.1.{k}") for k in (2, 4, 1, 3))
    rows = (_syn_udp_rows(5.0, a) + _syn_udp_rows(1.0, b, inbound=False)
            + _syn_udp_rows(0.0, c, syn_gap=3.0) + _syn_udp_rows(5.0, d))
    rows.sort(key=lambda r: r[0])
    trace = _host_tap(rows).trace()
    ranked = classify_trace(trace, CFG, OBSERVER)
    # b, a and d score 1 and b starts first; d ties a on time and follows
    # it by address; c fails one of its six checks
    assert [m.candidate_ip for m in ranked] == [b, a, d, c]
    assert [m.kind for m in ranked] == [KIND_OFFLINE] + [KIND_PUBLIC] * 3
    assert [m.stale for m in ranked] == [True, False, False, False]
    assert [m.score for m in ranked] == [1.0, 1.0, 1.0, 5 / 6]
    assert [m.t_first_packet for m in ranked] == [1.0, 5.0, 5.0, 0.0]
    # each online match carries its remote's first inbound IP-ID
    first_in = {}
    for p in trace:
        first_in.setdefault(p.src_ip, p.ip_id)
    assert [m.ip_id for m in ranked] == [None] + [first_in[ip]
                                                  for ip in (a, d, c)]


def test_classify_empty_trace():
    assert classify_trace([], CFG, parse_ip("10.0.0.1")) == []


def _host_tap(observations):
    """A tap at OBSERVER recording (t, remote, outbound, proto, flags, size)
    observations the way a host tap does: outbound packets at t_send,
    inbound ones at t_recv.  A packet's IP-ID is its row index."""
    tap = CaptureTap()
    for ip_id, (t, remote, outbound, proto, flags, size) in \
            enumerate(observations):
        if outbound:
            pkt = SimPacket(t, t + 0.05, OBSERVER, 5000, remote, 6000, proto,
                            frozenset(flags), size, ip_id)
        else:
            pkt = SimPacket(t - 0.05, t, remote, 6000, OBSERVER, 5000, proto,
                            frozenset(flags), size, ip_id)
        tap.record(t, pkt)
    return tap


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
    index = FlowIndex(tap, OBSERVER)
    assert [(p.t_recv, p.src_ip) for p in index.slot_trace(10.0, 5.0, 20.0)] \
        == [(10.0, c), (30.0, c), (14.999, d), (12.5, e)]
    assert [(p.t_recv, p.src_ip) for p in index.slot_trace(15.0, 5.0, 20.0)] \
        == [(15.0, b)]
    assert index.slot_trace(40.0, 5.0, 20.0) == []
    assert FlowIndex(CaptureTap(), OBSERVER).slot_trace(
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
    st.sampled_from((("UDP", ()), ("TCP", ("SYN",)), ("TCP", ("SYN", "ACK")),
                     ("TCP", ("ACK",)))),
    st.sampled_from(_SIZES) | st.integers(1, 1500)), max_size=80)


@settings(max_examples=300, deadline=None)
@given(_observations, st.floats(-5.0, 120.0), st.floats(0.5, 30.0),
       st.floats(0.5, 30.0))
def test_slot_trace_equals_slot_filtered_window(obs, t, length, window):
    # the oracle: classify the whole window, keep the flows that start in
    # the slot; min_score 0 scores every flow
    cfg = ClassifierConfig(min_score=0.0)
    rows, now = [], 0.0
    for gap, host, outbound, (proto, flags), size in obs:
        now += gap
        rows.append((now, parse_ip(f"10.0.1.{host}"), outbound, proto, flags,
                     size))
    tap = _host_tap(rows)
    want = [m for m in classify_trace(tap.window(t - window, t + window),
                                      cfg, OBSERVER)
            if t <= m.t_first_packet < t + length]
    slot = FlowIndex(tap, OBSERVER).slot_trace(t, length, window)
    got = classify_trace(slot, cfg, OBSERVER)
    assert got == want
    # a match carries the IP-ID of the first packet its remote sent in the
    # slot trace, and has none exactly when it is stale
    for m in got:
        assert m.ip_id == next((p.ip_id for p in slot
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


def test_caller_pool_read_is_each_slot_trace():
    slots, length, window = [(0, 1.0), (1, 4.0), (0, 7.0), (1, 7.0)], 3.0, 4.0
    end = 7.0 + length + window + ROUND_TAIL
    # the oracle: index each tap by hand once the round has run
    sim = _pool_sim()
    taps = [sim.tap("c0"), sim.tap("c1")]
    _late_packet(sim)
    sim.advance(end)
    want = [FlowIndex(taps[c], sim.hosts[f"c{c}"].ip).slot_trace(
        t, length, window) for c, t in slots]

    sim = _pool_sim()
    pool = CallerPool(sim, RtcOverlay(sim, Directory(), PresenceBook()),
                      [("c0", "u0"), ("c1", "u1")])
    _late_packet(sim)
    got = pool.read(slots, length, window)
    assert got == want
    assert all(got)
    assert any(p.size == 200 for p in got[2])
    assert sim.now == end
    assert [len(tap) for tap in pool.taps] == [0, 0]


# -- SYN filter ----------------------------------------------------------------

def test_filter_drops_syns_passes_udp_and_established():
    sim = Simulator(seed=2, default_jitter=0.0)
    sim.add_host("a", "10.0.0.1")
    sim.add_host("b", "10.0.0.2")
    tap_b = sim.tap("b")
    # pre-window TCP connection: its non-SYN packets must keep flowing
    apply_syn_filter(sim, "a", SynFilterPolicy(10.0, 100.0))
    sim.schedule_send("a", "10.0.0.2", 80, "TCP", 44, flags=("SYN",), at=1.0,
                      src_port=500)
    sim.schedule_send("a", "10.0.0.2", 80, "TCP", 52, flags=("ACK",), at=20.0,
                      src_port=500)
    sim.schedule_send("a", "10.0.0.2", 80, "TCP", 44, flags=("SYN",), at=30.0,
                      src_port=501)
    sim.schedule_send("a", "10.0.0.2", 80, "UDP", 59, at=40.0, src_port=502)
    # inbound SYN to the filtered host is dropped before the handler
    seen = []
    sim.set_handler("a", lambda s, h, p, d: seen.append(p))
    sim.schedule_send("b", "10.0.0.1", 500, "TCP", 44, flags=("SYN",),
                      at=50.0, src_port=80)
    sim.advance(60.0)
    delivered = [(p.proto, tuple(sorted(p.tcp_flags)), p.size)
                 for p in tap_b.trace()
                 if p.src_ip == sim.hosts["a"].ip]
    assert ("TCP", ("SYN",), 44) in delivered[:1]     # pre-window SYN passed
    assert ("TCP", ("ACK",), 52) in delivered          # established traffic
    assert ("UDP", (), 59) in delivered                # UDP untouched
    assert sum(1 for d in delivered if d[1] == ("SYN",)) == 1
    assert seen == []                                  # inbound SYN dropped
    # the SYN at 30.0 is dropped leaving a, the SYN at 50.0 arriving at a
    assert sim.drops == {"egress_filter:a": 1, "ingress_filter:a": 1}


def test_filter_window_bounds():
    sim = Simulator(seed=2, default_jitter=0.0)
    sim.add_host("a", "10.0.0.1")
    sim.add_host("b", "10.0.0.2")
    tap_b = sim.tap("b")
    apply_syn_filter(sim, "a", SynFilterPolicy(10.0, 20.0))
    for t in (5.0, 15.0, 25.0):
        sim.schedule_send("a", "10.0.0.2", 80, "TCP", 44, flags=("SYN",),
                          at=t, src_port=int(t))
    sim.advance(30.0)
    assert [p.t_send for p in tap_b.trace()] == [5.0, 25.0]


def test_filtered_calls_leave_no_syn_at_callee(mini):
    user, host = mini.add_public_user()
    callee_tap = mini.sim.tap(host)
    mini.start()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 100.0))
    mini.sim.advance(140.0)
    tracker_ip = mini.sim.hosts[mini.tracker_host].ip
    inbound_syn = [p for p in callee_tap.trace()
                   if p.src_ip == tracker_ip and "SYN" in p.tcp_flags]
    assert inbound_syn == []
    # but the caller-side capture still shows the SYN triple (the filter
    # sits between the capture point and the wire)
    caller_syns = [p for p in mini.tap.trace()
                   if p.src_ip == tracker_ip and "SYN" in p.tcp_flags]
    assert len(caller_syns) == 3


def test_filter_implies_zero_notifications(mini):
    pub, _ = mini.add_public_user()
    nat, _ = mini.add_nated_user()
    mini.start()
    for k, user in enumerate([pub, nat] * 10):
        mini.overlay.place_call(
            CallRequest(mini.tracker_user, user, 100.0 + 30.0 * k))
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
        mini.tap.clear()
        placed = mini.overlay.place_call(
            CallRequest(mini.tracker_user, user, t))
        mini.sim.advance(t + 35.0)
        matches = classify_trace(mini.tap.trace(), CFG, observer_ip=obs_ip)
        got = {m.candidate_ip for m in matches}
        want = {tt.expect_ip for tt in placed.targets}
        assert got == want
        assert not (got & supernode_ips)
