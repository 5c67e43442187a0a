import random
from collections import Counter

import pytest

from p2ptrack.rtcdir import (KIND_NATED, KIND_OFFLINE, KIND_PUBLIC,
                             LAST_SEEN_WINDOW, MARKER_SIZES, NAT_FIRST_SIZE,
                             NAT_TAIL_SIZE, VARYING_SIZES, CallError,
                             CallRequest, Directory, DirectoryError,
                             PresenceBook, UserProfile, harvest_ids)
from p2ptrack.scenario import load_scenario
from p2ptrack.worldgen import build_world
from tests.conftest import MiniWorld, named


# -- directory search ---------------------------------------------------------

def _mkdir(*profiles):
    d = Directory()
    for p in profiles:
        d.add(p)
    return d


def test_email_search_is_exact_match_only():
    d = _mkdir(UserProfile("bob123x", "bob@x.org", birth_name="Bob Ross"),
               UserProfile("bobby99", "bobby@x.org", birth_name="Bob Marley"))
    hits = d.search_users("bob@x.org")
    assert [h.rtc_id for h in hits] == ["bob123x"]
    assert d.search_users("bob@") == []
    assert d.search_users("BOB@X.ORG")[0].rtc_id == "bob123x"


def test_empty_query_returns_nothing():
    d = _mkdir(UserProfile("bob123x", "bob@x.org"))
    assert d.search_users("") == []
    assert d.search_users("   ") == []


def test_valid_id_matches_id_or_birth_name():
    d = _mkdir(
        UserProfile("walker7", "w@x.org", birth_name="Ann Miller"),
        UserProfile("annmill", "a@x.org", birth_name="Ann Walker7 Jones"))
    hits = d.search_users("walker7")
    # exact id match plus birth-name substring match
    assert [h.rtc_id for h in hits] == ["annmill", "walker7"]


def test_non_id_query_searches_birth_name_only():
    d = _mkdir(UserProfile("ab", "ab@x.org", birth_name="Zed Q"),
               UserProfile("zq12345", "z@x.org", birth_name="holy ab here"))
    # "ab" is too short to be a valid id: birth-name substring only
    hits = d.search_users("ab")
    assert [h.rtc_id for h in hits] == ["zq12345"]


def test_search_is_case_insensitive_substring():
    d = _mkdir(UserProfile("smithjr", "s@x.org", birth_name="John SMITH"))
    assert d.search_users("Smith")[0].rtc_id == "smithjr"


def test_search_returns_public_view_without_email():
    d = _mkdir(UserProfile("bob123x", "bob@x.org", birth_name="Bob",
                           contact_list={"x"}, blocked={"y"}))
    view = d.search_users("bob@x.org")[0]
    assert not hasattr(view, "email")
    assert not hasattr(view, "contact_list")
    assert view.birth_name == "Bob"


def test_search_against_linear_scan_oracle(fixture_directory):
    d = fixture_directory
    for query in ("smith", "alice", "ivan", "zzz-nope"):
        oracle = sorted(
            p.rtc_id for p in d._users.values()
            if p.birth_name and query.lower() in p.birth_name.lower())
        got = [h.rtc_id for h in d.search_users(query)]
        assert got == oracle
    assert len(d.search_users("smith")) > 0


def test_duplicate_ids_and_emails_rejected():
    d = _mkdir(UserProfile("bob123x", "bob@x.org"))
    with pytest.raises(DirectoryError):
        d.add(UserProfile("bob123x", "other@x.org"))
    with pytest.raises(DirectoryError):
        d.add(UserProfile("karl999", "bob@x.org"))


def test_fixture_roundtrip(tmp_path, fixture_directory):
    path = tmp_path / "directory.tsv"
    fixture_directory.dump_fixture(path)
    loaded = Directory.load_fixture(path)
    assert len(loaded) == len(fixture_directory)
    for rtc_id in fixture_directory.ids():
        a = fixture_directory.get(rtc_id)
        b = loaded.get(rtc_id)
        assert (a.email, a.birth_name, a.city, a.age) == \
            (b.email, b.birth_name, b.city, b.age)


# -- harvesting ---------------------------------------------------------------

def test_harvest_builds_combination_strings():
    d = _mkdir(UserProfile("alicesm", "a@x.org", birth_name="Alice Smith"))
    result = harvest_ids(d, ["alice"], ["smith"], [])
    assert result.search_strings == {"alice", "smith", "alice smith"}
    assert result.ids == {"alicesm"}


def test_harvest_idempotent_and_flags_only():
    d = _mkdir(
        UserProfile("alicesm", "a@x.org", birth_name="Alice Smith",
                    city="oslo"),
        UserProfile("bsmith9", "b@x.org", birth_name="Bob Smith"))
    r1 = harvest_ids(d, ["alice", "bob"], ["smith"], [])
    r2 = harvest_ids(d, ["alice", "bob"], ["smith"], [])
    assert r1.ids == r2.ids == {"alicesm", "bsmith9"}
    assert r1.field_flags["alicesm"]["city"] is True
    assert r1.field_flags["bsmith9"]["city"] is False
    assert all(isinstance(v, bool)
               for flags in r1.field_flags.values() for v in flags.values())


def test_harvest_availability_fraction_88_of_100():
    d = Directory()
    # 88 discoverable by birth name; 12 whose id equals a searched last
    # name, profile without birth name
    names = ["smith", "jones", "miller", "garcia"]
    for i in range(88):
        d.add(UserProfile(f"named{i:03d}", f"n{i}@x.org",
                          birth_name=f"Ann{i} {names[i % 4]}"))
    bare_ids = [f"{names[i % 4]}{i:02d}x" for i in range(12)]
    for i, rtc_id in enumerate(bare_ids):
        d.add(UserProfile(rtc_id, f"b{i}@x.org"))
    result = harvest_ids(d, ["ann1"], names + bare_ids, [])
    assert len(result.ids) == 100
    assert result.availability["birth_name"] == pytest.approx(0.88)


# -- presence -----------------------------------------------------------------

def test_presence_multi_login_and_last_seen():
    p = PresenceBook()
    p.add_session("u", "h1", 0.0, 100.0)
    p.add_session("u", "h2", 50.0, None)
    assert len(p.online_sessions("u", 60.0)) == 2
    assert [s.host_id for s in p.online_sessions("u", 200.0)] == ["h2"]
    # last_seen refreshes on a 60 s grid while online
    host, seen = p.last_seen("u", 130.0)
    assert host == "h2" and seen == 110.0


def test_last_seen_is_logout_after_session_end():
    p = PresenceBook()
    p.add_session("u", "h1", 0.0, 100.0)
    assert p.last_seen("u", 500.0) == ("h1", 100.0)
    assert p.last_seen("u", 50.0) == ("h1", 50.0 - 50.0 % 60)
    assert p.last_seen("ghost", 10.0) is None


def test_session_validation():
    p = PresenceBook()
    with pytest.raises(DirectoryError):
        p.add_session("u", "h1", 10.0, 5.0)


# -- call emission -------------------------------------------------------------

def test_call_errors(mini):
    user, _ = mini.add_public_user(online=None)   # exists, never online
    mini.start()
    with pytest.raises(CallError):
        mini.overlay.place_call(CallRequest(mini.tracker_user, "ghost", 20.0),
                                0)
    with pytest.raises(CallError):
        mini.overlay.place_call(CallRequest(user, mini.tracker_user, 20.0), 0)


def test_nated_caller_rejected(mini):
    callee, _ = mini.add_public_user()
    caller, _ = mini.add_nated_user(user="natcaller")
    mini.start()
    with pytest.raises(CallError):
        mini.overlay.place_call(CallRequest("natcaller", callee, 20.0), 0)


def test_public_callee_pattern_timing(mini):
    user, host = mini.add_public_user()
    mini.start()
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, user, 100.0), 0)
    mini.sim.advance(130.0)
    callee_ip = mini.sim.hosts[host].ip
    trace = [p for p in named(mini.tap.take())
             if callee_ip in (p.src_ip, p.dst_ip)]
    syns = [p.t_send for p in trace
            if p.proto == "TCP" and p.tcp_flags == "SYN"
            and p.src_ip != callee_ip]
    markers = [p.t_send for p in trace
               if p.proto == "UDP" and p.size in (59, 58)
               and p.src_ip != callee_ip]
    assert len(syns) == 3
    base = placed.t_start + placed.start_delay
    assert syns[0] == pytest.approx(base, abs=1e-6)
    assert syns[1] - syns[0] == pytest.approx(3.0, rel=0.06)
    assert syns[2] - syns[1] == pytest.approx(1.0, rel=0.06)
    assert len(markers) == 3
    assert markers[1] - markers[0] == pytest.approx(2.0, rel=0.06)
    assert markers[2] - markers[1] == pytest.approx(4.0, rel=0.06)
    # callee responded over UDP
    assert any(p.src_ip == callee_ip and p.proto == "UDP" for p in trace)


def test_nated_callee_pattern_shape(mini):
    user, host = mini.add_nated_user()
    mini.start()
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, user, 200.0), 0)
    mini.sim.advance(240.0)
    callee_ip = placed.targets[0].expect_ip
    trace = named(mini.tap.take())
    inbound = [p for p in trace if p.src_ip == callee_ip]
    assert inbound[0].size == 28 and inbound[0].proto == "UDP"
    tails = [p for p in inbound if p.size == 3]
    assert len(tails) == 3
    delay = tails[0].t_recv - inbound[0].t_recv
    assert 8.0 <= delay <= 12.5
    # caller echoed the 28-byte packet
    echoes = [p for p in trace if p.dst_ip == callee_ip and p.size == 28]
    assert len(echoes) == 1


def test_dual_login_emits_both_patterns(mini):
    user, _ = mini.add_public_user(user="dualuser")
    _, nhost = mini.add_nated_user(user=None, online=None)
    mini.presence.add_session("dualuser", nhost, 0.0, None)
    mini.start()
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, "dualuser", 100.0), 0)
    assert sorted(t.kind for t in placed.targets) == ["i", "ii"]
    assert len({t.expect_ip for t in placed.targets}) == 2


def test_72_hour_rule_boundary(mini):
    user, host = mini.add_public_user(online=(0.0, 1000.0))
    mini.start()
    t_in = 1000.0 + LAST_SEEN_WINDOW        # exactly 72 h: still served
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, user, t_in), 0)
    assert [t.kind for t in placed.targets] == ["iii"]
    assert placed.targets[0].stale
    assert placed.targets[0].expect_ip == mini.sim.hosts[host].ip
    t_out = 1000.0 + LAST_SEEN_WINDOW + 0.5
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, user, t_out), 1)
    assert placed.targets == []


def test_offline_callee_never_responds(mini):
    user, host = mini.add_public_user(online=(0.0, 1000.0))
    mini.start(at=2000.0)
    mini.tap.take()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 3000.0),
                            0)
    mini.sim.advance(3030.0)
    callee_ip = mini.sim.hosts[host].ip
    inbound = [p for p in named(mini.tap.take()) if p.src_ip == callee_ip]
    assert inbound == []


def test_privacy_settings_do_not_change_emission():
    from tests.conftest import MiniWorld

    def emission_multiset(block):
        w = MiniWorld(seed=44)
        user, host = w.add_public_user(user="victim99")
        if block:
            w.directory.get("victim99").blocked = {w.tracker_user}
            w.directory.get("victim99").whitelist_only = True
        w.start()
        w.tap.take()
        w.overlay.place_call(CallRequest(w.tracker_user, user, 50.0), 0)
        w.sim.advance(90.0)
        return sorted((p.t_send, p.src_ip, p.dst_ip, p.proto, p.size)
                      for p in named(w.tap.take()))

    assert emission_multiset(False) == emission_multiset(True)


def test_notifications_fire_only_without_filter():
    from tests.conftest import MiniWorld
    w = MiniWorld(filtered=False)
    pub, _ = w.add_public_user()
    nat, _ = w.add_nated_user()
    off, _ = w.add_public_user(online=(0.0, 20.0))
    w.start(at=30.0)
    c1 = w.overlay.place_call(CallRequest(w.tracker_user, pub, 100.0), 0)
    c2 = w.overlay.place_call(CallRequest(w.tracker_user, nat, 200.0), 1)
    c3 = w.overlay.place_call(CallRequest(w.tracker_user, off, 300.0), 2)
    w.sim.advance(340.0)

    def kinds(call):
        return sorted(n.kind for n in w.overlay.notifications
                      if n.call_id == call.call_id)
    assert kinds(c1) == ["popup", "ring"]
    assert kinds(c2) == ["popup", "ring"]
    assert kinds(c3) == []
    # with no SYN filter a SYN-ACK could still come, so every attempt stays
    assert sorted(a.established for a in w.overlay._pending_tcp.values()) \
        == [False, True, True]


def test_filter_suppresses_all_notifications(mini):
    pub, _ = mini.add_public_user()
    nat, _ = mini.add_nated_user()
    mini.start()
    mini.overlay.place_call(CallRequest(mini.tracker_user, pub, 100.0), 0)
    mini.overlay.place_call(CallRequest(mini.tracker_user, nat, 200.0), 1)
    # the caller's SYNs and the NATed callee's all meet the filter, so no
    # SYN-ACK could reach either attempt, and neither is stored
    assert mini.overlay._pending_tcp == {}
    mini.sim.advance(240.0)
    assert mini.overlay.notifications == []
    assert mini.overlay._pending_tcp == {}


def test_a_syn_is_resent_only_until_answered():
    # at the caller's tap, a call to an online callee shows the SYN of the
    # side that opens (the caller's to a public callee, the NATed callee's
    # to the caller) and, without the filter, one SYN-ACK back, which
    # stops the retransmits; with the filter, all three SYNs and no answer
    from tests.conftest import MiniWorld
    for filtered in (True, False):
        w = MiniWorld(filtered=filtered)
        pub, phost = w.add_public_user()
        nat, nhost = w.add_nated_user()
        w.start(at=30.0)
        w.tap.take()
        calls = [w.overlay.place_call(CallRequest(w.tracker_user, callee, t),
                                      call_id)
                 for call_id, (callee, t) in enumerate(((pub, 100.0),
                                                        (nat, 200.0)))]
        w.sim.advance(240.0)
        packets = named(w.tap.take())
        for call, host, opens in zip(calls, (phost, nhost), ("out", "in")):
            peer = w.sim.public_ip_of(host)
            syns = Counter(("out" if p.dst_ip == peer else "in", p.tcp_flags)
                           for p in packets if peer in (p.src_ip, p.dst_ip)
                           and "SYN" in p.tcp_flags)
            answers = "in" if opens == "out" else "out"
            assert syns == ({(opens, "SYN"): 3} if filtered else
                            {(opens, "SYN"): 1, (answers, "ACK,SYN"): 1})
            rung = sorted(n.kind for n in w.overlay.notifications
                          if n.call_id == call.call_id)
            assert rung == ([] if filtered else ["popup", "ring"])


def test_reveal_after_accept_unanswered_only_noise(mini):
    from tests.conftest import MiniWorld
    w = MiniWorld(defense="reveal_after_accept")
    user, host = w.add_public_user()
    w.start()
    w.tap.take()
    placed = w.overlay.place_call(CallRequest(w.tracker_user, user, 100.0),
                                  0)
    w.sim.advance(140.0)
    assert placed.targets == []
    infra = {w.sim.public_ip_of(h) for h in w.overlay.supernodes}
    dests = {p.dst_ip for p in named(w.tap.take())
             if p.src_ip == w.sim.hosts[w.tracker_host].ip}
    assert dests <= infra
    # answered calls do reveal
    placed = w.overlay.place_call(
        CallRequest(w.tracker_user, user, 300.0, answered=True), 1)
    assert len(placed.targets) == 1


def test_relay_all_hides_callee_ip():
    from tests.conftest import MiniWorld
    w = MiniWorld(defense="relay_all")
    pub, phost = w.add_public_user()
    nat, nhost = w.add_nated_user()
    w.start()
    w.tap.take()
    p1 = w.overlay.place_call(CallRequest(w.tracker_user, pub, 100.0), 0)
    p2 = w.overlay.place_call(CallRequest(w.tracker_user, nat, 200.0), 1)
    w.sim.advance(240.0)
    relay_ips = {w.sim.public_ip_of(h) for h in w.overlay.relays}
    assert all(t.expect_ip in relay_ips for t in p1.targets + p2.targets)
    seen = {ip for p in named(w.tap.take()) for ip in (p.src_ip, p.dst_ip)}
    assert w.sim.hosts[phost].ip not in seen
    assert w.sim.public_ip_of(nhost) not in seen


def test_reading_an_address_binds_no_nat_port():
    # right after the world is built, before the loop has run the login of
    # a NATed callee who is online at the first round, neither its session
    # addresses, nor a call plan to it, nor placing that call binds a port
    # at its NAT or writes overlay state: only the login's packet, when the
    # loop emits it, binds the callee's port
    world = build_world(load_scenario("scenarios/smoke.yaml"))
    t, overlay = world.base_t, world.overlay
    callee, session, box = next(
        (user, s, box) for user in world.target_ids
        for s in world.presence.online_sessions(user, t)
        for box in [world.sim.nats.get(world.sim.hosts[s.host_id].nat)]
        if box is not None and not box.port_map and s.t_login > world.sim.now)
    assert overlay.user_session_ips(callee, t) == {box.public_ip}
    assert box.port_map == {}
    req = CallRequest(world.tracker_clients[0][1], callee, t)
    placed, _, _ = overlay.plan_call(req, 0)
    assert [target.expect_ip for target in placed.targets] == [box.public_ip]
    overlay.place_call(req, 0)
    assert box.port_map == overlay._sent28 == overlay._pending_tcp == {}
    world.sim.advance(session.t_login)
    host = world.sim.hosts[session.host_id]
    assert list(box.port_map) == [(host.ip, overlay._ports[host.host_id],
                                   "UDP")]


def test_a_send_to_an_unbound_nat_is_dropped_not_bound(mini):
    # a stale callee whose NATed last-seen host never sent a login: the
    # caller's sends to it find no binding when they are emitted, so they
    # go to the NAT's port 0 and are dropped there, and nothing is bound
    user, host = mini.add_nated_user(online=None)
    mini.start()
    mini.presence.add_session(user, host, 0.0, 5.0)   # no login sent
    nat = mini.sim.hosts[host].nat
    box = mini.sim.nats[nat]
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, user, 100.0), 0)
    assert [(t.kind, t.expect_ip) for t in placed.targets] == \
        [(KIND_OFFLINE, box.public_ip)]
    mini.sim.advance(130.0)
    # the three markers; the caller's SYNs meet its own filter first
    assert {r: n for r, n in mini.sim.drops.items() if r.endswith(nat)} == \
        {f"nat_no_binding:{nat}": 3}
    assert box.port_map == {}
    sent = [p for p in named(mini.tap.take()) if p.dst_ip == box.public_ip]
    assert len(sent) == 6 and {p.dst_port for p in sent} == {0}


# -- call plans ----------------------------------------------------------------

def _plan(w, callee, t, call_id, answered=False):
    """Call call_id's (placed, pattern sends), planned without scheduling
    anything; a plan holds no supernode send, as the noise is not planned."""
    seq, now = w.sim._evseq, w.sim.now
    placed, _, plan = w.overlay.plan_call(
        CallRequest(w.tracker_user, callee, t, answered=answered), call_id)
    assert (w.sim._evseq, w.sim.now) == (seq, now)
    supernodes = set(w.overlay.supernodes)
    assert not any({src, dst} & supernodes for _, src, dst, *_ in plan)
    return placed, plan


def _syn_attempt(syns, remote):
    """The attempt a SYN and its 2 retries open, or None when all three
    are plain sends; each retry re-sends it unless it was established."""
    attempt = syns[0][-1]
    if attempt is None:
        assert [s[-1] for s in syns] == [None] * 3
    else:
        assert attempt.callee_host == remote
        assert [s[-1] for s in syns[1:]] == [(attempt,)] * 2
    return attempt


def _public_shape(pattern, caller, remote, base):
    """A SYN plus 2 retries, then 3 markers, all caller -> remote; returns
    the SYNs' attempt."""
    assert [s[1:3] for s in pattern] == [(caller, remote)] * 6
    syns, markers = pattern[:3], pattern[3:]
    assert [(s[3], s[4], s[5]) for s in syns] == [("TCP", 44, "SYN")] * 3
    assert syns[0][0] == base
    assert syns[1][0] - syns[0][0] == pytest.approx(3.0, rel=0.06)
    assert syns[2][0] - syns[1][0] == pytest.approx(1.0, rel=0.06)
    assert [(s[3], s[4] in (59, 58), s[-1]) for s in markers] == \
        [("UDP", True, None)] * 3
    return _syn_attempt(syns, remote)


def _nated_shape(pattern, caller, remote, base):
    """28 bytes first, a SYN plus 2 retries, 4-8 varying sizes in
    alternating directions, then 3 x 3-byte tail, remote first; returns
    the SYNs' attempt."""
    first, syns, varying, tail = \
        pattern[0], pattern[1:4], pattern[4:-3], pattern[-3:]
    assert first[:5] == (base, remote, caller, "UDP", 28)
    assert [s[1:6] for s in syns] == \
        [(remote, caller, "TCP", 44, "SYN")] * 3
    assert 4 <= len(varying) <= 8
    assert [s[1:3] for s in varying] == \
        [(remote, caller) if k % 2 == 0 else (caller, remote)
         for k in range(len(varying))]
    assert all(30 <= s[4] <= 120 and s[4] != 28 for s in varying)
    assert [s[1:5] for s in tail] == [(remote, caller, "UDP", 3)] * 3
    return _syn_attempt(syns, remote)


def _rung(attempts) -> list:
    """The callee each attempt would ring; a plain SYN opens none."""
    return [a.callee for a in attempts if a is not None]


def test_call_plan_shapes():
    from tests.conftest import MiniWorld
    for filtered in (True, False):
        w = MiniWorld(filtered=filtered)
        pub, phost = w.add_public_user()
        nat, nhost = w.add_nated_user()
        off, ohost = w.add_public_user(online=(0.0, 20.0))
        w.start(at=30.0)
        caller, attempts = w.tracker_host, []
        # offline: the public pattern toward the last-seen host
        for call_id, (callee, t, shape, remote, kind) in enumerate((
                (pub, 100.0, _public_shape, phost, KIND_PUBLIC),
                (nat, 200.0, _nated_shape, nhost, KIND_NATED),
                (off, 300.0, _public_shape, ohost, KIND_OFFLINE))):
            placed, pattern = _plan(w, callee, t, call_id)
            base = placed.t_start + placed.start_delay
            attempts.append(shape(pattern, caller, remote, base))
            assert [t.kind for t in placed.targets] == [kind]
        # behind the filter every SYN is plain; without it an attempt
        # rings an online callee, and nobody for an offline one
        assert _rung(attempts) == ([] if filtered else [pub, nat, None])


def test_relayed_and_unanswered_call_plans():
    from tests.conftest import MiniWorld
    for filtered in (True, False):
        w = MiniWorld(defense="relay_all", filtered=filtered)
        pub, _ = w.add_public_user()
        nat, _ = w.add_nated_user()
        w.start()
        # the relay is the remote of the pattern the callee would have
        # shown, and rings nobody
        placed, pattern = _plan(w, pub, 100.0, 0)
        relay = pattern[0][2]
        assert relay in w.overlay.relays
        base = placed.t_start + placed.start_delay
        attempts = [_public_shape(pattern, w.tracker_host, relay, base)]
        placed, pattern = _plan(w, nat, 200.0, 1)
        relay = pattern[0][1]
        assert relay in w.overlay.relays
        base = placed.t_start + placed.start_delay
        attempts.append(_nated_shape(pattern, w.tracker_host, relay, base))
        # reveal-after-accept: only noise before an answer, then a pattern
        w = MiniWorld(defense="reveal_after_accept", filtered=filtered)
        user, host = w.add_public_user()
        w.start()
        placed, pattern = _plan(w, user, 100.0, 0)
        assert pattern == [] and placed.targets == []
        placed, pattern = _plan(w, user, 300.0, 1, answered=True)
        base = pattern[0][0]
        assert base - placed.t_start - placed.start_delay >= 1.0
        attempts.append(_public_shape(pattern, w.tracker_host, host, base))
        assert _rung(attempts) == ([] if filtered else [None, None, user])


# -- supernode noise -----------------------------------------------------------

def _dark_call(seed=12):
    """A world whose tracking client, at zero jitter, calls a callee who was
    never online, so that the call is noise only; and the call's request."""
    from tests.conftest import MiniWorld
    w = MiniWorld(seed=seed)
    w.sim.default_jitter = 0.0
    w.overlay.config.noise_packets = (40, 60)
    user, _ = w.add_public_user(online=None)
    w.start()
    w.tap.take()
    return w, CallRequest(w.tracker_user, user, 50.0)


def test_written_noise_equals_noise_through_the_loop():
    # the writer's trace, and its sends as data: what it wrote but the
    # answers _udp_reply gave, each sent by the answering host at arrival
    # plus delay; every supernode tapped
    w, req = _dark_call()
    sn_taps = {w.sim.hosts[sn].ip: w.sim.tap(sn)
               for sn in w.overlay.supernodes}
    placed, caller, plan = w.overlay.plan_call(req, 0)
    assert plan == [] and placed.targets == [] and caller == w.tracker_host
    udp_reply, answers = w.overlay._udp_reply, set()

    def noted_reply(host_id, peer_ip, peer_port, size, now, rng=None):
        reply = udp_reply(host_id, peer_ip, peer_port, size, now, rng)
        if reply is not None:
            answers.add((now + reply[0], w.sim.hosts[host_id].ip))
        return reply

    w.overlay._udp_reply = noted_reply
    assert w.overlay._write_noise(placed, caller) is None
    del w.overlay._udp_reply
    w.sim.advance(90.0)
    written = named(w.tap.take())
    noise = sorted((p for p in written
                    if (p.t_send, p.src_ip) not in answers),
                   key=lambda p: p.t_send)
    assert answers and len(noise) + len(answers) == len(written)
    # every send is caller <-> supernode; 28-byte and marker noise each
    # way
    caller = w.sim.hosts[w.tracker_host].ip
    for p in noise:
        (ip,) = {p.src_ip, p.dst_ip} - {caller}
        assert ip in sn_taps
    udp = [(p.size, p.src_ip == caller) for p in noise if p.proto == "UDP"]
    for outbound in (True, False):
        assert (28, outbound) in udp
        assert (58, outbound) in udp or (59, outbound) in udp
    # the same sends put on the loop by hand, on an identical world
    w, req = _dark_call()
    w.overlay.plan_call(req, 0)
    host = {h.ip: h.host_id for h in w.sim.hosts.values()}
    for p in noise:
        w.sim.schedule_send(host[p.src_ip], p.dst_ip, p.dst_port, p.proto,
                            p.size, p.tcp_flags, p.t_send, p.src_port)
    w.sim.advance(90.0)
    looped = named(w.tap.take())
    # the noise triggers echoes, re-echoes and marker replies
    planned = {(p.t_send, p.src_ip) for p in noise}
    replies = [p for p in looped if (p.t_send, p.src_ip) not in planned]
    assert {p.size == 28 for p in replies} == {True, False}
    assert {p.src_ip == caller for p in replies if p.size == 28} == \
        {True, False}
    assert len(written) == len(looped) == len(noise) + len(replies)
    reply_sizes = set(range(30, 121)) - {28, 58, 59}
    for a, b in zip(looped, written):
        # every field but the IP-ID; a marker reply's size only in range
        assert a[:8] == b[:8]
        if a in replies and a.size != 28:
            assert {a.size, b.size} <= reply_sizes
        else:
            assert a.size == b.size
    # each supernode's tap holds the caller's flow to it, both ways
    assert sum(len(tap) > 0 for tap in sn_taps.values()) >= 10
    for ip, tap in sn_taps.items():
        assert Counter(tap.take()) == Counter(
            p for p in written if ip in (p.src_ip, p.dst_ip))


def test_a_marker_reply_never_draws_another_answer(mini):
    # _write_noise writes a marker's reply at once and answers only 28-byte
    # arrivals in arrival order: that holds while no marker reply has a
    # size that draws an answer, or a size of the call pattern; the loop's
    # replies, from the host's keyed stream, keep the same rule
    overlay = mini.overlay
    sn, peer = overlay.supernodes[0], mini.sim.hosts[mini.tracker_host].ip
    lo, hi = VARYING_SIZES
    allowed = set(range(lo, hi + 1)) - {NAT_FIRST_SIZE, NAT_TAIL_SIZE,
                                        *MARKER_SIZES}
    for rng in (random.Random("marker replies"), None):
        assert {overlay._udp_reply(sn, peer, 20000, MARKER_SIZES[k % 2],
                                   50.0, rng)[1]
                for k in range(10_000)} == allowed


def test_a_hosts_nth_reply_hangs_only_on_seed_host_and_n():
    # the loop draws a host's marker replies from a stream keyed by (seed,
    # host, n): two hosts answering in either order, between replies drawn
    # from the noise writer's own generator, each get the same sizes
    def replies(order, seed=5):
        mini = MiniWorld(seed=seed)
        overlay, rng = mini.overlay, random.Random("noise")
        peer = mini.sim.hosts[mini.tracker_host].ip
        sizes = {}
        for host in order:
            sn = overlay.supernodes[int(host)]
            sizes.setdefault(host, []).append(overlay._udp_reply(
                sn, peer, 20000, MARKER_SIZES[0], 50.0)[1])
            overlay._udp_reply(sn, peer, 20000, MARKER_SIZES[1], 50.0, rng)
        return sizes

    first = replies("000000111111")
    assert first == replies("101010101010") == replies("111111000000")
    assert first["0"] != first["1"]
    assert replies("000000111111", seed=6) != first


def test_noise_to_a_supernode_behind_a_nat_is_refused(mini):
    # noise is written past any NAT, so a supernode behind one is refused
    # when it registers, not when the loop reaches a call
    mini.sim.add_nat("snnat", "9.7.0.1")
    mini.sim.add_host("sn_nat", "192.168.5.5", nat="snnat")
    with pytest.raises(CallError, match="behind a NAT"):
        mini.overlay.add_supernode("sn_nat")
    assert "sn_nat" not in mini.overlay.supernodes
