import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2ptrack.btswarm.swarm import MatchCandidate
from p2ptrack.netsim import IPID_SEQUENTIAL_PER_FLOW, Simulator
from p2ptrack.scenario import scenario_from_dict
from p2ptrack.verifier import (RING_MODULUS, VERDICT_NOT_VERIFIED,
                               VERDICT_UNVERIFIABLE, VERDICT_VERIFIED,
                               VerifierError, percentile_nearest_rank,
                               ring_distance)
from p2ptrack.worldgen import build_world


# -- ring distance ---------------------------------------------------------------

def test_ring_distance_examples():
    assert ring_distance(12345, 12345) == 0
    assert ring_distance(65530, 4) == 10
    assert ring_distance(4, 65530) == 10
    assert ring_distance(100, 1100) == 1000
    assert ring_distance(0, 32768) == 32768       # antipode


def test_ring_distance_rejects_out_of_range():
    for a, b in ((-1, 0), (0, 65536), (70000, 0)):
        with pytest.raises(VerifierError):
            ring_distance(a, b)


ring_vals = st.integers(min_value=0, max_value=RING_MODULUS - 1)


@settings(max_examples=300, deadline=None)
@given(ring_vals, ring_vals, ring_vals)
def test_ring_distance_is_a_metric(a, b, c):
    assert ring_distance(a, b) == ring_distance(b, a)
    assert (ring_distance(a, b) == 0) == (a == b)
    assert ring_distance(a, c) <= ring_distance(a, b) + ring_distance(b, c)
    assert 0 <= ring_distance(a, b) <= RING_MODULUS // 2


# -- nearest-rank percentile -------------------------------------------------------

def test_percentile_examples():
    assert percentile_nearest_rank(list(range(10)), 90) == 8
    assert percentile_nearest_rank([7], 50) == 7
    assert percentile_nearest_rank([7], 99) == 7
    assert percentile_nearest_rank([3, 3, 3, 3], 90) == 3
    assert percentile_nearest_rank([5, 1, 9], 100) == 9


def test_percentile_rejects_bad_input():
    with pytest.raises(VerifierError):
        percentile_nearest_rank([], 90)
    with pytest.raises(VerifierError):
        percentile_nearest_rank([1], 0)
    with pytest.raises(VerifierError):
        percentile_nearest_rank([1], 101)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50),
       st.integers(min_value=1, max_value=100))
def test_percentile_matches_sorted_index(values, p):
    import math
    got = percentile_nearest_rank(values, p)
    assert got == sorted(values)[math.ceil(p * len(values) / 100) - 1]


def test_verifier_config_threshold_bound():
    # the scenario states the bound: a threshold below half the ring
    for threshold, problems in ((40000, 1), (RING_MODULUS // 2, 1),
                                (RING_MODULUS // 2 - 1, 0)):
        scn = scenario_from_dict({"verifier": {"threshold": threshold}})
        assert sum(p.startswith("verifier.threshold:")
                   for p in scn.validate()) == problems


# -- IP-ID sequential distance bound -----------------------------------------------

def test_sequential_distance_bounded_by_interleaving():
    """Two reads of a SequentialGlobal counter sit at most K+1 apart on the
    ring when K packets were sent in between."""
    for k in (0, 5, 50):
        sim = Simulator(seed=k)
        host = sim.add_host("x", "10.0.0.1", ipid_start=60000)
        sim.add_host("b", "10.0.0.2")
        a = host.next_ipid(None)
        for _ in range(k):
            host.next_ipid(None)
        b = host.next_ipid(None)
        assert ring_distance(a, b) <= k + 1


# -- probe machinery ----------------------------------------------------------------

def _verify_world(n, same, seed, min_rounds=10, ipid_override=None):
    scn = scenario_from_dict({
        "name": "verify", "seed": seed,
        "rtc": {"supernodes": 14, "noise_flows": [10, 11],
                "noise_packets": [5, 7]},
        "population": {"users": n + 4, "cities": 8, "nat_fraction": 0.0,
                       "online_fraction": 1.0, "stale_fraction": 0.0},
        "tracker": {"clients": 1, "rounds": 1},
        "bt": {"swarms": 4, "dht_nodes": 12, "crawler_bots": 2,
               "extra_peers_per_swarm": 0, "candidates": n,
               "same_host": same, "scrape_filler": 3},
        "verifier": {"min_rounds": min_rounds, "clients": 4},
    })
    world = build_world(scn)
    cands = []
    for user in sorted(world.bt.truth):
        ip = world.sim.public_ip_of(world.user_home[user])
        for (eip, eport), host in sorted(world.bt.registry.by_endpoint.items()):
            if eip == ip:
                client = world.bt.registry.clients[host]
                if ipid_override:
                    world.sim.hosts[host].ipid_model = ipid_override
                cands.append(MatchCandidate(
                    user, ip, eport, next(iter(client.torrents))))
                break
    return world, cands


def test_same_host_candidates_verified():
    world, cands = _verify_world(6, 6, seed=301)
    results = world.make_verifier().verify_candidates(cands, world.base_t)
    assert all(r.verdict == VERDICT_VERIFIED for r in results)
    assert all(r.p90 < 1000 for r in results)
    assert all(len(r.rounds) == 10 for r in results)


def test_same_host_verified_despite_interleaving_traffic():
    """A busy same-host candidate: other packets consume counter values
    between the two first packets, but the distance stays bounded by the
    interleaving volume, far below the threshold."""
    world, cands = _verify_world(2, 2, seed=307)
    sim = world.sim
    hosts = [world.user_home[c.user] for c in cands]
    fillers_per_round = 30
    stride = max(world.scenario.verifier.round_spacing, 3.0 * 1 + 25.0)

    # schedule filler chatter right between the BT reply (~0.11 s) and the
    # first RTC response (>= 0.35 s) of every probe round
    verifier = world.make_verifier()
    t0 = world.base_t
    for r in range(10):
        base = t0 + r * stride
        for j, host in enumerate(hosts):
            t_call = base + (j // len(verifier.pool.clients)) * 3.0
            for k in range(fillers_per_round):
                sim.schedule_send(host, "10.0.0.2", 9, "UDP", 40,
                                  at=t_call + 0.13 + k * 0.004,
                                  src_port=7000)
    sim.add_host("sink", "10.0.0.2")
    results = verifier.verify_candidates(cands, t0)
    for res in results:
        assert res.verdict == VERDICT_VERIFIED
        assert all(d.distance <= fillers_per_round + 20
                   for d in res.rounds)
        assert any(d.distance >= 10 for d in res.rounds), \
            "fillers should actually interleave"
        assert res.p90 < 1000


def test_distinct_host_random_not_verified():
    world, cands = _verify_world(6, 0, seed=302)
    results = world.make_verifier().verify_candidates(cands, world.base_t)
    assert all(r.verdict == VERDICT_NOT_VERIFIED for r in results)


def test_sequential_per_flow_yields_not_verified():
    # same machine, but the RTC and BT flows carry independent counters
    # starting at unrelated offsets: the ring test cannot link them (the
    # false-negative class the verification concedes)
    world, cands = _verify_world(6, 6, seed=303,
                                 ipid_override=IPID_SEQUENTIAL_PER_FLOW)
    for user in world.bt.truth:
        world.sim.hosts[world.user_home[user]].ipid_model = \
            IPID_SEQUENTIAL_PER_FLOW
    results = world.make_verifier().verify_candidates(cands, world.base_t)
    assert all(r.verdict == VERDICT_NOT_VERIFIED for r in results)
    assert all(len(r.rounds) == 10 for r in results)


def test_unreachable_handshake_is_unverifiable():
    world, cands = _verify_world(4, 0, seed=304)
    # close every sibling NAT: handshakes now die at the box
    for nat in world.sim.nats.values():
        nat.accepts_unsolicited_inbound = False
    results = world.make_verifier().verify_candidates(cands, world.base_t)
    assert all(r.verdict == VERDICT_UNVERIFIABLE for r in results)
    assert all(r.rounds == [] for r in results)


def test_offline_callee_rounds_skipped_entirely():
    world, cands = _verify_world(2, 2, seed=305)
    for user in world.bt.truth:
        # end every session before the probes begin
        world.presence._sessions[user] = [
            s.__class__(s.host_id, s.t_login, 200.0)
            for s in world.presence.sessions(user)]
    results = world.make_verifier().verify_candidates(cands,
                                                      world.base_t + 10.0)
    # handshake still answers (BT client is just software on the host), but
    # no RTC pattern ever matches: zero complete rounds
    assert all(r.verdict == VERDICT_UNVERIFIABLE for r in results)
    assert all(r.handshake_replies > 0 for r in results)
    assert all(r.call_matches == 0 for r in results)


def test_false_verify_probability_negligible_analytically():
    # analytic binomial oracle: with independent uniform IP-IDs the
    # per-round chance of distance < 1000 is (2*1000-1)/2^16; a false
    # Verified needs at least 9 of 10 rounds under threshold
    p = (2 * 1000 - 1) / 65536
    n = 10
    false_verify = sum(
        math.comb(n, k) * p**k * (1 - p)**(n - k) for k in (9, 10))
    assert false_verify < 1e-12


def test_verdict_monotone_in_threshold():
    world, cands = _verify_world(5, 5, seed=306)
    results = world.make_verifier().verify_candidates(cands, world.base_t)
    for high in (1000, 500, 100, 10, 1):
        for r in results:
            verified_high = r.p90 is not None and r.p90 < high
            verified_low = r.p90 is not None and r.p90 < max(1, high // 2)
            assert not (verified_low and not verified_high)
