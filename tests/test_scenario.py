import copy
import math
from collections import Counter
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from p2ptrack.scenario import (MAX_TIME, Scenario, ScenarioError,
                               load_scenario, scenario_from_dict)
from p2ptrack.worldgen import (BT_DISTINCT_HOST, BT_SAME_HOST,
                               BT_UNVERIFIABLE, STATE_DARK, STATE_ONLINE,
                               STATE_STALE, build_world)

SMOKE = "scenarios/smoke.yaml"


def test_load_bundled_smoke():
    scn = load_scenario(SMOKE)
    assert scn.name == "smoke"
    assert scn.seed == 42
    assert scn.population.users == 20
    assert scn.bt is not None and scn.bt.swarms == 5
    assert scn.validate() == []


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_dict({"nonsense": 1})
    with pytest.raises(ScenarioError, match="rtc"):
        scenario_from_dict({"rtc": {"warp_drive": True}})
    # keys whose one value is now a constant
    for doc, key in (({"net": {"default_latency": 0.05}}, "net"),
                     ({"net": {"default_jitter": 0.01}}, "net"),
                     ({"rtc": {"noise_sizes": [20, 120]}}, "noise_sizes"),
                     ({"population": {"hosts_per_nat": 1}}, "hosts_per_nat"),
                     ({"bt": {"crawl_deadline": 3600.0}}, "crawl_deadline"),
                     ({"bt": {"crawl_timeout": 1.0}}, "crawl_timeout")):
        with pytest.raises(ScenarioError, match=f"unknown.*{key}"):
            scenario_from_dict(doc)
    # a value out of its bounds is a scenario problem naming the key
    cases = (({"tracker": {"classifier": {"timing_tolerance": 0.7}}},
              "tracker.classifier.timing_tolerance"),
             ({"verifier": {"threshold": 40000}}, "verifier.threshold"),
             ({"verifier": {"call_gap": 0.0}}, "verifier.call_gap"),
             ({"verifier": {"call_gap": -3.0}}, "verifier.call_gap"),
             ({"verifier": {"min_rounds": 0}}, "verifier.min_rounds"),
             ({"rtc": {"defense_mode": "bogus"}}, "rtc.defense_mode"))
    for doc, key in cases:
        assert any(p.startswith(f"{key}:")
                   for p in scenario_from_dict(doc).validate())
    # a value of the wrong type names the field; an int is a float
    with pytest.raises(ScenarioError, match="tracker.clients"):
        scenario_from_dict({"tracker": {"clients": "two"}})
    # every tuple field is a range [lo, hi] with 0 <= lo <= hi
    for key, value in (("noise_flows", [10, "many"]),
                       ("noise_flows", [1, 2, 3]),
                       ("noise_packets", [-1, 2])):
        with pytest.raises(ScenarioError, match=f"rtc.{key}"):
            scenario_from_dict({"rtc": {key: value}})
    assert scenario_from_dict({"rtc": {"noise_flows": [0, 0]}}) \
        .rtc.noise_flows == (0, 0)
    assert scenario_from_dict({"tracker": {"s": 3}}).tracker.s == 3
    # the scalar keys are checked like section fields
    for doc, key in (({"seed": "two"}, "seed"), ({"seed": True}, "seed"),
                     ({"name": [1]}, "name"),
                     ({"directory_fixture": 5}, "directory_fixture")):
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(doc)
    scn = scenario_from_dict({"name": "n", "seed": 7,
                              "directory_fixture": None})
    assert (scn.name, scn.seed, scn.directory_fixture) == ("n", 7, None)


def test_validation_catches_bad_fractions():
    scn = scenario_from_dict({"population": {"nat_fraction": 1.5}})
    assert any("nat_fraction" in p for p in scn.validate())
    scn = scenario_from_dict({"population": {"online_fraction": 0.8,
                                             "stale_fraction": 0.4}})
    assert any("stale_fraction" in p or "online_fraction" in p
               for p in scn.validate())


# every int and float but the seed is finite and >= 0; these are > 0
POSITIVE = {"population.users", "rtc.supernodes", "rtc.relays",
            "tracker.clients", "tracker.s", "tracker.round_period",
            "tracker.rounds", "tracker.classifier.timing_tolerance",
            "tracker.classifier.pattern_window", "bt.swarms", "bt.dht_nodes",
            "bt.crawler_bots", "verifier.min_rounds", "verifier.call_gap",
            "verifier.clients"}
# and these are bounded above: each (key, first value out of bounds)
ABOVE = [(f"population.{name}_fraction", 1.5)
         for name in ("nat", "online", "stale", "blocked", "whitelist",
                      "random_ipid")] + [
    ("tracker.classifier.min_score", 1.5),
    ("tracker.classifier.timing_tolerance", 0.5),
    ("rtc.pattern_jitter", 1.0),
    ("verifier.threshold", 32768)]


def _number_keys(section, path=""):
    for f in fields(section):
        key = f"{path}{f.name}"
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from _number_keys(value, key + ".")
        elif type(value) in (int, float):
            yield key


def _set(scn, key, value):
    *sections, name = key.split(".")
    for section in sections:
        scn = getattr(scn, section)
    setattr(scn, name, value)


def test_every_number_is_bounded():
    scn = scenario_from_dict({"mobility": {}, "bt": {}})
    assert scn.validate() == []
    keys = [k for k in _number_keys(scn) if k != "seed"]
    assert len(keys) == 41 and POSITIVE <= set(keys)
    cases = [(k, v) for k in keys for v in (math.nan, math.inf, -1)]
    cases += [(k, 0) for k in sorted(POSITIVE)] + ABOVE
    for key, value in cases:
        bad = copy.deepcopy(scn)
        _set(bad, key, value)
        assert any(p.startswith(f"{key}:") for p in bad.validate()), \
            (key, value)
    # the seed is any int, and the bounds themselves are in bounds
    for key, value in [("seed", -1)] + [(k, 0) for k in keys
                                        if k not in POSITIVE]:
        ok = copy.deepcopy(scn)
        _set(ok, key, value)
        assert not any(p.startswith(f"{key}:") for p in ok.validate()), key


def test_run_ends_within_the_float_horizon():
    # 20 users, 2 clients: 2 * 10 calls a client, s apart, end the run
    scn = scenario_from_dict({"tracker": {"round_period": 1.0}})
    s = (MAX_TIME - scn.horizon()[0]) / 20 + scn.tracker.s
    scn.tracker.s = s
    assert scn.horizon() == (pytest.approx(MAX_TIME),
                             "tracker.s * a client's calls")
    scn.tracker.s = s * (1 - 1e-12)
    assert scn.validate() == []
    scn.tracker.s = s * (1 + 1e-12)
    assert [p.split(":")[0] for p in scn.validate()] == \
        ["tracker.s * a client's calls"]
    # the verifier's rounds count only with a bt section
    scn = scenario_from_dict({"verifier": {"round_spacing": 1e300}})
    assert scn.validate() == []
    scn = scenario_from_dict({"bt": {}, "verifier": {"round_spacing": 1e300}})
    assert scn.validate()[0].startswith("verifier.min_rounds * (verifier."
                                        "round_spacing")
    # and every time step moves a time at the horizon
    for key in ("tracker.s", "tracker.round_period",
                "tracker.classifier.pattern_window", "verifier.call_gap"):
        for step, ok in ((1e-300, False), (2.0 ** -21, False),
                         (1e-6, True)):
            scn = scenario_from_dict({})
            _set(scn, key, step)
            assert (scn.validate() == []) == ok, (key, step)
            assert ok or scn.validate()[0].startswith(f"{key}:")


def test_privacy_plants_never_exceed_the_users():
    # round(1.5) + round(1.5) would be 4 privacy settings for 3 users
    for seed in range(10):
        world = build_world(scenario_from_dict({
            "seed": seed, "population": {"users": 3,
                                         "blocked_fraction": 0.5,
                                         "whitelist_fraction": 0.5}}))
        profiles = [world.directory.get(u) for u in world.target_ids]
        assert sum(bool(p.blocked) for p in profiles) == 2
        assert sum(p.whitelist_only for p in profiles) == 1


def test_validation_bt_plants():
    scn = scenario_from_dict({"bt": {"candidates": 3, "same_host": 5}})
    assert any("same_host" in p for p in scn.validate())
    scn = scenario_from_dict(
        {"population": {"users": 4},
         "bt": {"candidates": 10, "same_host": 1}})
    assert any("plants exceed" in p for p in scn.validate())


def test_state_counts_never_exceed_the_users():
    # round(1.5) + round(1.5) would be 4 states for 3 users
    for seed in range(20):
        world = build_world(scenario_from_dict({
            "seed": seed, "population": {"users": 3, "online_fraction": 0.5,
                                         "stale_fraction": 0.5}}))
        assert Counter(world.user_state.values()) == \
            {STATE_ONLINE: 2, STATE_STALE: 1}


def test_validation_plants_fit_the_online_users():
    pop = {"users": 10, "online_fraction": 0.5, "stale_fraction": 0.3}
    bt = {"candidates": 3, "same_host": 1, "shared_ip_same_host": 1,
          "unverifiable": 2}
    assert scenario_from_dict({"population": pop, "bt": bt}).validate() == []
    scn = scenario_from_dict({"population": pop,
                              "bt": dict(bt, unverifiable=3)})
    assert scn.state_counts() == (5, 3, 2)
    assert any("plants exceed the 5 online" in p for p in scn.validate())
    # 6 online users, 2 + 1 + 1 of them behind a NAT of their own
    mob = {"never_online_stale": 3, "never_online_dark": 1,
           "movers_country": 2}
    bt = dict(bt, unverifiable=1)
    scn = scenario_from_dict({"population": pop, "bt": bt, "mobility": mob})
    assert scn.state_counts() == (6, 3, 1) and scn.validate() == []
    scn.mobility.movers_city_as = 1
    assert any("plants exceed the 2 online" in p for p in scn.validate())
    scn.mobility.movers_city_as = -1
    assert scn.validate() == [
        "mobility.movers_city_as: need finite movers_city_as >= 0, got -1"]


@st.composite
def small_scenarios(draw):
    """Scenario documents of at most 40 users whose plants may or may not
    fit the population, and whose numbers may be out of bounds."""
    users = draw(st.integers(min_value=1, max_value=40))
    count = st.integers(min_value=0, max_value=max(1, users // 5))
    out = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 2.0])

    def number(lo, hi):
        return draw(st.one_of(st.floats(lo, hi), out))

    doc = {"seed": draw(st.integers(min_value=0, max_value=999)),
           "rtc": {"supernodes": 10, "relays": 1, "noise_flows": [1, 2],
                   "pattern_jitter": number(0.0, 0.99)},
           "population": {
               "users": users,
               "online_fraction": number(0.0, 1.0),
               "stale_fraction": draw(st.floats(0.0, 1.0)),
               "nat_fraction": draw(st.floats(0.0, 1.0))},
           "tracker": {"clients": 1, "rounds": 2,
                       "s": draw(st.one_of(st.floats(0.5, 10.0),
                                           st.floats(1e6, 1e308), out)),
                       "reorders": draw(st.integers(-2, 3)),
                       "classifier": {"min_score": number(0.0, 1.0)}}}
    if draw(st.booleans()):
        doc["mobility"] = {
            key: draw(count) for key in (
                "movers_city_only", "movers_city_as", "movers_country",
                "never_online_stale", "never_online_dark")}
    if draw(st.booleans()):
        candidates = draw(count)
        same_host = draw(st.integers(0, candidates))
        doc["bt"] = {
            "swarms": 1, "dht_nodes": 2, "crawler_bots": 1,
            "extra_peers_per_swarm": 1, "scrape_filler": 1,
            "candidates": candidates, "same_host": same_host,
            "shared_ip_same_host": draw(st.integers(0, same_host)),
            "shared_ip_distinct": draw(
                st.integers(0, candidates - same_host)),
            "unverifiable": draw(count)}
        doc["verifier"] = {"clients": 1}
    return doc


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_scenarios())
@example({"population": {"users": 3, "online_fraction": 0.5,
                         "stale_fraction": 0.5}})
@example({"population": {"users": 3, "online_fraction": math.nan}})
def test_every_valid_scenario_builds_with_its_state_counts(doc):
    scn = scenario_from_dict(doc)
    if scn.validate():
        with pytest.raises(ScenarioError, match="invalid scenario"):
            build_world(scn)
        return
    world = build_world(scn)
    counts = Counter(world.user_state.values())
    assert (counts[STATE_ONLINE], counts[STATE_STALE],
            counts[STATE_DARK]) == scn.state_counts()
    # and every plant is planted in full
    if scn.bt is not None:
        b = scn.bt
        assert Counter(world.bt.truth.values()) == Counter({
            BT_SAME_HOST: b.same_host,
            BT_DISTINCT_HOST: b.candidates - b.same_host,
            BT_UNVERIFIABLE: b.unverifiable})
    if scn.mobility is not None:
        m, truth = scn.mobility, world.mobility_truth
        assert (len(truth.movers_city), len(truth.movers_as),
                len(truth.movers_country)) == (
            m.movers_city_only + m.movers_city_as + m.movers_country,
            m.movers_city_as + m.movers_country, m.movers_country)
    # and a tracking round runs on it
    world.make_tracker().run_round(world.target_ids, world.base_t)


def test_validation_mobility_needs_rounds():
    scn = scenario_from_dict({
        "tracker": {"rounds": 1},
        "mobility": {"movers_city_only": 2}})
    assert any("2 rounds" in p for p in scn.validate())
    # so does the reorder plant, whose false positives the vote removes
    scn = scenario_from_dict({"tracker": {"rounds": 1, "reorders": 2}})
    assert any("tracker.reorders" in p for p in scn.validate())


def test_salt_default_derived_from_seed():
    a = scenario_from_dict({"seed": 1}).salt_bytes()
    b = scenario_from_dict({"seed": 2}).salt_bytes()
    assert a != b
    fixed = scenario_from_dict({"tracker": {"salt": "00ff"}}).salt_bytes()
    assert fixed == b"\x00\xff"
    # a salt that is not hex, or too long to key blake2b, is invalid, and
    # so is a name that makes the derived salt too long
    for doc, key in (({"tracker": {"salt": "zz"}}, "tracker.salt"),
                     ({"tracker": {"salt": "xyz"}}, "tracker.salt"),
                     ({"tracker": {"salt": "00" * 65}}, "tracker.salt"),
                     ({"name": "n" * 66}, "name")):
        assert any(key in p for p in scenario_from_dict(doc).validate())
    assert scenario_from_dict({"tracker": {"salt": "00" * 64}}).validate() \
        == []
    # "salt:7:" and the name: 64 bytes fit, 65 do not
    for length, problems in ((57, 0), (58, 1)):
        scn = scenario_from_dict({"seed": 7, "name": "n" * length})
        assert len(scn.validate()) == problems


def test_geo_covers_all_public_addresses():
    scn = load_scenario(SMOKE)
    world = build_world(scn)
    ips = [h.ip for h in world.sim.hosts.values() if h.nat is None]
    ips += [n.public_ip for n in world.sim.nats.values()]
    assert world.geo.missing(ips) == []


def test_world_generation_deterministic():
    scn = load_scenario(SMOKE)
    w1, w2 = build_world(scn), build_world(scn)
    assert sorted(w1.sim.hosts) == sorted(w2.sim.hosts)
    assert all(w1.sim.hosts[h].ip == w2.sim.hosts[h].ip for h in w1.sim.hosts)
    assert w1.user_state == w2.user_state
    assert w1.reorder_plan == w2.reorder_plan
    t1, t2 = w1.sim.tap(w1.tracker_clients[0][0]), \
        w2.sim.tap(w2.tracker_clients[0][0])
    from p2ptrack.rtcdir import CallRequest
    for w, tap in ((w1, t1), (w2, t2)):
        w.overlay.place_call(CallRequest(w.tracker_clients[0][1],
                                         w.target_ids[0], w.base_t))
        w.sim.advance(w.base_t + 30.0)
    assert t1.trace() == t2.trace()


def test_bt_endpoint_uniqueness_in_generated_world():
    scn = load_scenario(SMOKE)
    world = build_world(scn)
    endpoints = list(world.bt.registry.by_endpoint)
    assert len(endpoints) == len(set(endpoints))


def test_directory_fixture_merged_into_world(tmp_path):
    from p2ptrack.rtcdir import Directory, UserProfile
    extra = Directory()
    extra.add(UserProfile("fixtureonly1", "fx1@example.invalid",
                          birth_name="Fixture Person"))
    path = tmp_path / "extra.tsv"
    extra.dump_fixture(path)
    scn = load_scenario(SMOKE)
    scn.directory_fixture = str(path)
    world = build_world(scn)
    assert "fixtureonly1" in world.directory
    hits = world.directory.search_users("fixture person")
    assert [h.rtc_id for h in hits] == ["fixtureonly1"]
    # fixture identities never log in: a call toward them emits nothing
    from p2ptrack.rtcdir import CallRequest
    placed = world.overlay.place_call(CallRequest(
        world.tracker_clients[0][1], "fixtureonly1", world.base_t))
    assert placed.targets == []
