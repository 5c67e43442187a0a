import pytest

from p2ptrack.scenario import (Scenario, ScenarioError, load_scenario,
                               scenario_from_dict)
from p2ptrack.worldgen import build_world

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
    # a value the component rejects is a scenario error naming the section
    with pytest.raises(ScenarioError, match="tracker.classifier"):
        scenario_from_dict({"tracker": {"classifier":
                                        {"timing_tolerance": 0.7}}})
    for bad in ({"threshold": 40000}, {"call_gap": 0.0}, {"call_gap": -3.0},
                {"min_rounds": 0}):
        with pytest.raises(ScenarioError, match="verifier"):
            scenario_from_dict({"verifier": bad})
    # a value of the wrong type names the field; an int is a float
    with pytest.raises(ScenarioError, match="tracker.clients"):
        scenario_from_dict({"tracker": {"clients": "two"}})
    with pytest.raises(ScenarioError, match="rtc.noise_flows"):
        scenario_from_dict({"rtc": {"noise_flows": [10, "many"]}})
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


def test_validation_bt_plants():
    scn = scenario_from_dict({"bt": {"candidates": 3, "same_host": 5}})
    assert any("same_host" in p for p in scn.validate())
    scn = scenario_from_dict(
        {"population": {"users": 4},
         "bt": {"candidates": 10, "same_host": 1}})
    assert any("plants exceed" in p for p in scn.validate())


def test_validation_mobility_needs_rounds():
    scn = scenario_from_dict({
        "tracker": {"rounds": 1},
        "mobility": {"movers_city_only": 2}})
    assert any("2 rounds" in p for p in scn.validate())


def test_salt_default_derived_from_seed():
    a = scenario_from_dict({"seed": 1}).salt_bytes()
    b = scenario_from_dict({"seed": 2}).salt_bytes()
    assert a != b
    fixed = scenario_from_dict({"tracker": {"salt": "00ff"}}).salt_bytes()
    assert fixed == b"\x00\xff"
    # a salt that is not hex, or too long to key blake2b, is invalid
    for salt in ("zz", "xyz", "00" * 65):
        problems = scenario_from_dict({"tracker": {"salt": salt}}).validate()
        assert any("tracker.salt" in p for p in problems)
    assert scenario_from_dict({"tracker": {"salt": "00" * 64}}).validate() \
        == []


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
