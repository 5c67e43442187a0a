import pytest

from p2ptrack.rtcdir import (KIND_NATED, KIND_OFFLINE, KIND_PUBLIC,
                             LAST_SEEN_WINDOW, NOISE, RETRY, CallError,
                             CallRequest, Directory, DirectoryError,
                             PresenceBook, UserProfile, harvest_ids)


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
        mini.overlay.place_call(CallRequest(mini.tracker_user, "ghost", 20.0))
    with pytest.raises(CallError):
        mini.overlay.place_call(CallRequest(user, mini.tracker_user, 20.0))


def test_nated_caller_rejected(mini):
    callee, _ = mini.add_public_user()
    caller, _ = mini.add_nated_user(user="natcaller")
    mini.start()
    with pytest.raises(CallError):
        mini.overlay.place_call(CallRequest("natcaller", callee, 20.0))


def test_public_callee_pattern_timing(mini):
    user, host = mini.add_public_user()
    mini.start()
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, user, 100.0))
    mini.sim.advance(130.0)
    callee_ip = mini.sim.hosts[host].ip
    trace = [p for p in mini.tap.trace() if callee_ip in (p.src_ip, p.dst_ip)]
    syns = [p.t_send for p in trace
            if p.proto == "TCP" and p.tcp_flags == frozenset(("SYN",))
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
        CallRequest(mini.tracker_user, user, 200.0))
    mini.sim.advance(240.0)
    callee_ip = placed.targets[0].expect_ip
    inbound = [p for p in mini.tap.trace() if p.src_ip == callee_ip]
    assert inbound[0].size == 28 and inbound[0].proto == "UDP"
    tails = [p for p in inbound if p.size == 3]
    assert len(tails) == 3
    delay = tails[0].t_recv - inbound[0].t_recv
    assert 8.0 <= delay <= 12.5
    # caller echoed the 28-byte packet
    echoes = [p for p in mini.tap.trace()
              if p.dst_ip == callee_ip and p.size == 28]
    assert len(echoes) == 1


def test_dual_login_emits_both_patterns(mini):
    user, _ = mini.add_public_user(user="dualuser")
    _, nhost = mini.add_nated_user(user=None, online=None)
    mini.presence.add_session("dualuser", nhost, 0.0, None)
    mini.start()
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, "dualuser", 100.0))
    assert sorted(t.kind for t in placed.targets) == ["i", "ii"]
    assert len({t.expect_ip for t in placed.targets}) == 2


def test_72_hour_rule_boundary(mini):
    user, host = mini.add_public_user(online=(0.0, 1000.0))
    mini.start()
    t_in = 1000.0 + LAST_SEEN_WINDOW        # exactly 72 h: still served
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, user, t_in))
    assert [t.kind for t in placed.targets] == ["iii"]
    assert placed.targets[0].stale
    assert placed.targets[0].expect_ip == mini.sim.hosts[host].ip
    t_out = 1000.0 + LAST_SEEN_WINDOW + 0.5
    placed = mini.overlay.place_call(
        CallRequest(mini.tracker_user, user, t_out))
    assert placed.targets == []


def test_offline_callee_never_responds(mini):
    user, host = mini.add_public_user(online=(0.0, 1000.0))
    mini.start(at=2000.0)
    mini.tap.clear()
    mini.overlay.place_call(CallRequest(mini.tracker_user, user, 3000.0))
    mini.sim.advance(3030.0)
    callee_ip = mini.sim.hosts[host].ip
    inbound = [p for p in mini.tap.trace() if p.src_ip == callee_ip]
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
        w.tap.clear()
        w.overlay.place_call(CallRequest(w.tracker_user, user, 50.0))
        w.sim.advance(90.0)
        return sorted((p.t_send, p.src_ip, p.dst_ip, p.proto, p.size)
                      for p in w.tap.trace())

    assert emission_multiset(False) == emission_multiset(True)


def test_notifications_fire_only_without_filter():
    from tests.conftest import MiniWorld
    w = MiniWorld(filtered=False)
    pub, _ = w.add_public_user()
    nat, _ = w.add_nated_user()
    off, _ = w.add_public_user(online=(0.0, 20.0))
    w.start(at=30.0)
    c1 = w.overlay.place_call(CallRequest(w.tracker_user, pub, 100.0))
    c2 = w.overlay.place_call(CallRequest(w.tracker_user, nat, 200.0))
    c3 = w.overlay.place_call(CallRequest(w.tracker_user, off, 300.0))
    w.sim.advance(340.0)

    def kinds(call):
        return sorted(n.kind for n in w.overlay.notifications
                      if n.call_id == call.call_id)
    assert kinds(c1) == ["popup", "ring"]
    assert kinds(c2) == ["popup", "ring"]
    assert kinds(c3) == []


def test_filter_suppresses_all_notifications(mini):
    pub, _ = mini.add_public_user()
    nat, _ = mini.add_nated_user()
    mini.start()
    mini.overlay.place_call(CallRequest(mini.tracker_user, pub, 100.0))
    mini.overlay.place_call(CallRequest(mini.tracker_user, nat, 200.0))
    mini.sim.advance(240.0)
    assert mini.overlay.notifications == []


def test_reveal_after_accept_unanswered_only_noise(mini):
    from tests.conftest import MiniWorld
    w = MiniWorld(defense="reveal_after_accept")
    user, host = w.add_public_user()
    w.start()
    w.tap.clear()
    placed = w.overlay.place_call(CallRequest(w.tracker_user, user, 100.0))
    w.sim.advance(140.0)
    assert placed.targets == []
    infra = {w.sim.public_ip_of(h) for h in w.overlay.supernodes}
    dests = {p.dst_ip for p in w.tap.trace()
             if p.src_ip == w.sim.hosts[w.tracker_host].ip}
    assert dests <= infra
    # answered calls do reveal
    placed = w.overlay.place_call(
        CallRequest(w.tracker_user, user, 300.0, answered=True))
    assert len(placed.targets) == 1


def test_relay_all_hides_callee_ip():
    from tests.conftest import MiniWorld
    w = MiniWorld(defense="relay_all")
    pub, phost = w.add_public_user()
    nat, nhost = w.add_nated_user()
    w.start()
    w.tap.clear()
    p1 = w.overlay.place_call(CallRequest(w.tracker_user, pub, 100.0))
    p2 = w.overlay.place_call(CallRequest(w.tracker_user, nat, 200.0))
    w.sim.advance(240.0)
    relay_ips = {w.sim.public_ip_of(h) for h in w.overlay.relays}
    assert all(t.expect_ip in relay_ips for t in p1.targets + p2.targets)
    seen = {p.src_ip for p in w.tap.trace()} | \
           {p.dst_ip for p in w.tap.trace()}
    assert w.sim.hosts[phost].ip not in seen
    assert w.sim.public_ip_of(nhost) not in seen


# -- call plans ----------------------------------------------------------------

def _plan(w, callee, t, answered=False):
    """The call's (placed, pattern sends, noise sends), planned without
    scheduling anything; every noise send is caller <-> supernode."""
    seq, now = w.sim._evseq, w.sim.now
    placed, plan = w.overlay.plan_call(
        CallRequest(w.tracker_user, callee, t, answered=answered))
    assert (w.sim._evseq, w.sim.now) == (seq, now)
    pattern = [s for s in plan if s[-1] is not NOISE]
    noise = [s for s in plan if s[-1] is NOISE]
    assert noise
    for _, src, dst, *_ in noise:
        (sn,) = {src, dst} - {w.tracker_host}
        assert sn in w.overlay.supernodes
    return placed, pattern, noise


def _public_shape(pattern, caller, remote, base):
    """A SYN plus 2 retries, then 3 markers, all caller -> remote."""
    assert [s[1:3] for s in pattern] == [(caller, remote)] * 6
    syns, markers = pattern[:3], pattern[3:]
    assert [(s[3], s[4], s[5]) for s in syns] == [("TCP", 44, ("SYN",))] * 3
    assert syns[0][0] == base and syns[0][-1].callee_host == remote
    assert [s[-1] for s in syns[1:]] == [RETRY, RETRY]
    assert syns[1][0] - syns[0][0] == pytest.approx(3.0, rel=0.06)
    assert syns[2][0] - syns[1][0] == pytest.approx(1.0, rel=0.06)
    assert [(s[3], s[4] in (59, 58), s[-1]) for s in markers] == \
        [("UDP", True, None)] * 3
    return syns[0][-1]


def _nated_shape(pattern, caller, remote, base):
    """28 bytes first, a SYN plus 2 retries, 4-8 varying sizes in
    alternating directions, then 3 x 3-byte tail, remote first."""
    first, syns, varying, tail = \
        pattern[0], pattern[1:4], pattern[4:-3], pattern[-3:]
    assert first[:5] == (base, remote, caller, "UDP", 28)
    assert [s[1:6] for s in syns] == \
        [(remote, caller, "TCP", 44, ("SYN",))] * 3
    assert [s[-1] for s in syns[1:]] == [RETRY, RETRY]
    assert 4 <= len(varying) <= 8
    assert [s[1:3] for s in varying] == \
        [(remote, caller) if k % 2 == 0 else (caller, remote)
         for k in range(len(varying))]
    assert all(30 <= s[4] <= 120 and s[4] != 28 for s in varying)
    assert [s[1:5] for s in tail] == [(remote, caller, "UDP", 3)] * 3
    return syns[0][-1]


def test_call_plan_shapes(mini):
    pub, phost = mini.add_public_user()
    nat, nhost = mini.add_nated_user()
    off, ohost = mini.add_public_user(online=(0.0, 20.0))
    mini.start(at=30.0)
    caller = mini.tracker_host
    placed, pattern, _ = _plan(mini, pub, 100.0)
    base = placed.t_start + placed.start_delay
    attempt = _public_shape(pattern, caller, phost, base)
    assert attempt.callee == pub
    assert [t.kind for t in placed.targets] == [KIND_PUBLIC]
    placed, pattern, _ = _plan(mini, nat, 200.0)
    base = placed.t_start + placed.start_delay
    attempt = _nated_shape(pattern, caller, nhost, base)
    assert attempt.callee == nat
    assert [t.kind for t in placed.targets] == [KIND_NATED]
    # offline: the public pattern toward the last-seen host, nobody rung
    placed, pattern, _ = _plan(mini, off, 300.0)
    base = placed.t_start + placed.start_delay
    assert _public_shape(pattern, caller, ohost, base).callee is None
    assert [t.kind for t in placed.targets] == [KIND_OFFLINE]


def test_relayed_and_unanswered_call_plans():
    from tests.conftest import MiniWorld
    w = MiniWorld(defense="relay_all")
    pub, _ = w.add_public_user()
    nat, _ = w.add_nated_user()
    w.start()
    # the relay is the remote of the pattern the callee would have shown
    placed, pattern, _ = _plan(w, pub, 100.0)
    relay = pattern[0][2]
    assert relay in w.overlay.relays
    base = placed.t_start + placed.start_delay
    assert _public_shape(pattern, w.tracker_host, relay, base).callee is None
    placed, pattern, _ = _plan(w, nat, 200.0)
    relay = pattern[0][1]
    assert relay in w.overlay.relays
    base = placed.t_start + placed.start_delay
    assert _nated_shape(pattern, w.tracker_host, relay, base).callee is None
    # reveal-after-accept: only noise before an answer, then a pattern
    w = MiniWorld(defense="reveal_after_accept")
    user, host = w.add_public_user()
    w.start()
    placed, pattern, _ = _plan(w, user, 100.0)
    assert pattern == [] and placed.targets == []
    placed, pattern, _ = _plan(w, user, 300.0, answered=True)
    base = pattern[0][0]
    assert base - placed.t_start - placed.start_delay >= 1.0
    assert _public_shape(pattern, w.tracker_host, host, base).callee == user
