import random

import pytest

from p2ptrack.netsim import parse_ip
from p2ptrack.tracker import (GeoError, GeoTable, LocationSample,
                              anonymize_token, disambiguate, geo_anonymize,
                              ip_token, mobility_report)
from p2ptrack.scenario import scenario_from_dict
from p2ptrack.worldgen import build_world


# -- geo table ------------------------------------------------------------------

GEO_ROWS = [
    ("10.0.0.0/8", "bigblock", "countryA", 64500),
    ("10.1.0.0/16", "townsville", "countryA", 64501),
    ("10.1.2.0/24", "innertown", "countryA", 64502),
]


def test_longest_prefix_match():
    geo = GeoTable(GEO_ROWS)
    assert geo.lookup(parse_ip("10.9.9.9")).city == "bigblock"
    assert geo.lookup(parse_ip("10.1.9.9")).city == "townsville"
    assert geo.lookup(parse_ip("10.1.2.3")).city == "innertown"
    assert geo.lookup(parse_ip("11.0.0.1")) is None
    assert geo.missing([parse_ip("10.0.0.1"), parse_ip("11.0.0.1")]) == \
        [parse_ip("11.0.0.1")]


def test_geo_table_rejects_bad_prefixes():
    with pytest.raises(GeoError):
        GeoTable([("10.0.0.1/8", "x", "y", 1)])    # host bits set
    with pytest.raises(GeoError):
        GeoTable([("10.0.0.0/40", "x", "y", 1)])


def test_anonymize_same_input_same_token():
    geo = GeoTable(GEO_ROWS)
    salt = b"fixed-salt"
    ip = parse_ip("10.1.2.3")
    assert geo_anonymize(ip, geo, salt) == geo_anonymize(ip, geo, salt)
    token = geo_anonymize(ip, geo, salt)[0]
    assert len(token) == 32 and int(token, 16) >= 0


def test_anonymize_label_level_equality():
    geo = GeoTable(GEO_ROWS)
    salt = b"fixed-salt"
    a = geo_anonymize(parse_ip("10.1.3.1"), geo, salt)
    b = geo_anonymize(parse_ip("10.1.4.200"), geo, salt)
    assert a == b                       # same city/AS/country labels
    c = geo_anonymize(parse_ip("10.1.2.1"), geo, salt)
    assert c[0] != a[0] and c[1] != a[1]
    assert c[2] == a[2]                 # same country


def test_unknown_prefix_reserved_token():
    geo = GeoTable(GEO_ROWS)
    salt = b"s"
    unknown1 = geo_anonymize(parse_ip("11.0.0.1"), geo, salt)
    unknown2 = geo_anonymize(parse_ip("12.0.0.1"), geo, salt)
    assert unknown1 == unknown2
    assert unknown1[0] == anonymize_token("city:__unknown__", salt)


def test_different_salts_give_disjoint_tokens():
    geo = GeoTable(GEO_ROWS)
    rng = random.Random("salts")
    ips = [rng.randrange(10 << 24, (10 << 24) + (1 << 24))
           for _ in range(300)]
    tokens_a = {t for ip in ips for t in geo_anonymize(ip, geo, b"saltA")}
    tokens_a |= {ip_token(ip, b"saltA") for ip in ips}
    tokens_b = {t for ip in ips for t in geo_anonymize(ip, geo, b"saltB")}
    tokens_b |= {ip_token(ip, b"saltB") for ip in ips}
    assert tokens_a.isdisjoint(tokens_b)


# -- disambiguation --------------------------------------------------------------

def _sample(user, ip_h, t=0.0, status="online"):
    return LocationSample(user, t, status, ip_h, "c", "a", "k")


def test_majority_vote_assigns_most_frequent_user():
    rounds = [[_sample("u1", "ipX")], [_sample("u1", "ipX")],
              [_sample("u1", "ipX")], [_sample("u2", "ipX")]]
    result = disambiguate(rounds)
    assert result.ip_to_user == {"ipX": "u1"}
    assert result.unassigned == frozenset()


def test_tie_leaves_ip_unassigned():
    rounds = [[_sample("u1", "ipX")], [_sample("u2", "ipX")]]
    result = disambiguate(rounds)
    assert result.ip_to_user == {}
    assert result.unassigned == {"ipX"}


def test_assignment_invariant_under_round_reordering():
    rng = random.Random("rounds")
    rounds = []
    for r in range(6):
        rounds.append([_sample(f"u{rng.randint(0, 3)}", f"ip{rng.randint(0, 5)}")
                       for _ in range(10)])
    forward = disambiguate(rounds)
    backward = disambiguate(list(reversed(rounds)))
    assert forward == backward


def test_offline_samples_do_not_vote():
    rounds = [[LocationSample("u1", 0.0, "offline")],
              [_sample("u2", "ipX")]]
    result = disambiguate(rounds)
    assert result.ip_to_user == {"ipX": "u2"}


# -- mobility report --------------------------------------------------------------

def test_distinct_location_counting():
    a = anonymize_token("city:A", b"s")
    b = anonymize_token("city:B", b"s")
    rounds = [[LocationSample("u", 0.0, "online", "i", a, "x", "y")],
              [LocationSample("u", 1.0, "online", "i", a, "x", "y")],
              [LocationSample("u", 2.0, "online", "i", b, "x", "y")],
              [LocationSample("u", 3.0, "online", "i", a, "x", "y")]]
    rep = mobility_report(rounds)
    assert rep.per_user["u"].cities == 2
    assert rep.changed_city_frac == 1.0
    assert rep.changed_as_frac == 0.0


def test_availability_fraction():
    rounds = []
    for r in range(14):
        status = "online" if r < 7 else "offline"
        rounds.append([LocationSample("u", float(r), status,
                                      "i" if r < 7 else None,
                                      "c" if r < 7 else None,
                                      "a" if r < 7 else None,
                                      "k" if r < 7 else None)])
    rep = mobility_report(rounds)
    assert rep.per_user["u"].availability == 0.5
    assert rep.fig3_middle[-1] == (0.5, 1.0)


def test_stale_samples_count_location_not_availability():
    rounds = [[LocationSample("u", 0.0, "online", "i", "cA", "x", "y")],
              [LocationSample("u", 1.0, "stale", "i", "cB", "x", "y")]]
    rep = mobility_report(rounds)
    assert rep.per_user["u"].availability == 0.5
    assert rep.per_user["u"].cities == 2


def test_cumulative_curve_nondecreasing_and_counts_online_only():
    rounds = [[LocationSample("u1", 0.0, "online", "i", "c", "a", "k"),
               LocationSample("u2", 0.0, "stale", "i", "c", "a", "k")],
              [LocationSample("u2", 10.0, "online", "i", "c", "a", "k")]]
    rep = mobility_report(rounds)
    assert [y for _, y in rep.fig3_left_cumulative] == [1, 2]
    assert [y for _, y in rep.fig3_left_simultaneous] == [1, 1]
    assert rep.online_ever == {"u1", "u2"}


# -- scheduler ---------------------------------------------------------------------

def _tracking_world(users=6, clients=2, seed=91, **tracker_kw):
    scn = scenario_from_dict({
        "name": "t", "seed": seed,
        "rtc": {"supernodes": 14, "noise_flows": [10, 11],
                "noise_packets": [5, 7]},
        "population": {"users": users, "cities": 8, "nat_fraction": 0.3,
                       "online_fraction": 1.0, "stale_fraction": 0.0,
                       **tracker_kw.pop("population", {})},
        "tracker": {"clients": clients, "s": 3.0, "rounds": 1,
                    "round_period": 3600.0, **tracker_kw},
    })
    return build_world(scn)


def test_schedule_arithmetic_two_clients():
    world = _tracking_world(users=4, clients=2)
    tracker = world.make_tracker()
    result = tracker.run_round(world.target_ids, world.base_t)
    starts = {}
    for call in result.calls:
        starts.setdefault(call.client, []).append(call.t - world.base_t)
    assert starts == {0: [0.0, 3.0], 1: [0.0, 3.0]}


def test_round_extracts_all_online_users():
    world = _tracking_world(users=10, clients=2)
    tracker = world.make_tracker()
    result = tracker.run_round(world.target_ids, world.base_t)
    online_samples = [s for s in result.samples if s.status == "online"]
    assert len(online_samples) == 10
    assert {s.user for s in online_samples} == set(world.target_ids)
    # observations carry the true addresses
    for obs in result.observations:
        want = world.overlay.user_session_ips(obs.user, obs.t)
        assert obs.ip in want


def test_validation_calls_inserted_every_n():
    world = _tracking_world(users=12, clients=1,
                            validation_every=5,
                            population={"volunteers": 2})
    tracker = world.make_tracker()
    result = tracker.run_round(world.target_ids, world.base_t)
    flags = [c.validation for c in result.calls]
    # after every 5 calls a volunteer call takes the next slot
    assert flags[5] is True and flags[10] is True
    assert sum(flags) == 2
    assert all(c.callee.startswith("volunteer")
               for c in result.calls if c.validation)


def test_throughput_exceeds_340_per_hour():
    world = _tracking_world(users=12, clients=1)
    tracker = world.make_tracker()
    result = tracker.run_round(world.target_ids, world.base_t)
    assert result.calls_per_hour_per_client[0] >= 340.0


def test_reorder_plant_causes_false_positive_then_vote_removes_it():
    scn = scenario_from_dict({
        "name": "re", "seed": 92,
        "rtc": {"supernodes": 14, "noise_flows": [10, 11],
                "noise_packets": [5, 7]},
        "population": {"users": 10, "cities": 8, "nat_fraction": 0.0,
                       "online_fraction": 1.0, "stale_fraction": 0.0},
        "tracker": {"clients": 1, "s": 3.0, "rounds": 3,
                    "round_period": 3600.0, "reorders": 1},
    })
    world = build_world(scn)
    assert len(world.reorder_plan) == 1
    tracker = world.make_tracker()
    rounds = tracker.run_study(world.target_ids, 3, world.base_t)
    fp = 0
    for rnd in rounds:
        for call in rnd.calls:
            want = {t.expect_ip for t in call.placed.targets}
            got = {m.candidate_ip for m in call.extracted}
            if got - want:
                fp += 1
                # the victim slot saw two pattern starts: flagged ambiguous
                assert len(call.extracted) > 1
                marked = [s for s in rnd.samples if s.user == call.callee]
                assert all(s.ambiguous for s in marked)
    assert fp == 1
    assignment = disambiguate([r.samples for r in rounds])
    # every assigned token maps back to a user that truly owns the address
    truth = {}
    for user in world.target_ids:
        host = world.user_home[user]
        truth[ip_token(world.sim.public_ip_of(host), world.salt)] = user
    for token, user in assignment.ip_to_user.items():
        assert truth[token] == user
