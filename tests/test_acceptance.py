"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured numbers.  Population sizes are desk-scale stand-ins
with planted ground truth; the accuracy claims of the methods themselves
are what gets asserted, at the stated tolerances."""

import copy
import random
import time

from p2ptrack.btswarm.bencode import bdecode, bencode
from p2ptrack.btswarm.dht import KrpcClient, LookupTask, xor_distance
from p2ptrack.btswarm.swarm import MatchCandidate, SwarmRegistry, run_crawl
from p2ptrack.netsim import Simulator
from p2ptrack.pipelines import RunReport, run_linkage, run_mobility
from p2ptrack.scenario import load_scenario, scenario_from_dict
from p2ptrack.verifier import VERDICT_VERIFIED, ring_distance
from p2ptrack.worldgen import build_world

SMALL_NOISE = {"supernodes": 24, "noise_flows": [10, 12],
               "noise_packets": [5, 8]}


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_classifier_accuracy_and_disambiguation():
    scn = scenario_from_dict({
        "name": "acc1", "seed": 1001,
        "rtc": dict(SMALL_NOISE, pattern_jitter=0.2),
        "population": {"users": 250, "cities": 8, "nat_fraction": 0.35,
                       "online_fraction": 0.72, "stale_fraction": 0.14},
        "tracker": {"clients": 2, "s": 3.0, "round_period": 3600.0,
                    "rounds": 4, "reorders": 3},
    })
    t0 = time.monotonic()
    rep = RunReport(scn.name, scn.seed, "mobility")
    run_mobility(scn, rep)
    elapsed = time.monotonic() - t0
    acc = rep.metrics["accuracy"]
    ok = (acc["calls"] >= 1000
          and acc["false_positive_rate"] <= 0.003
          and acc["post_assignment_errors"] == 0
          and elapsed < 60.0)
    report(1, ok,
           f"{acc['calls']} calls, fp rate {acc['false_positive_rate']:.4f}"
           f" (<= 0.003), after majority vote "
           f"{acc['post_assignment_errors']} errors, {elapsed:.1f}s")


def test_criterion_2_s_interval_equivalence():
    base = {
        "name": "acc2", "seed": 1002,
        "rtc": dict(SMALL_NOISE),
        "population": {"users": 500, "cities": 8, "nat_fraction": 0.3,
                       "online_fraction": 0.7, "stale_fraction": 0.15},
        "tracker": {"clients": 5, "s": 3.0, "rounds": 1,
                    "round_period": 14400.0},
    }
    t0 = time.monotonic()

    def mapping(s):
        cfg = copy.deepcopy(base)
        cfg["tracker"]["s"] = s
        world = build_world(scenario_from_dict(cfg))
        calls = world.make_tracker().run_round(world.target_ids,
                                               world.base_t)
        out = {}
        for call in calls:
            for m in call.extracted:
                out.setdefault(call.callee, set()).add(m.candidate_ip)
        return out

    m3, m20 = mapping(3.0), mapping(20.0)
    elapsed = time.monotonic() - t0
    ok = m3 == m20 and len(m3) >= 400 and elapsed < 60.0
    report(2, ok, f"s=3 and s=20 mappings identical for {len(m3)} mapped "
                  f"users out of 500, {elapsed:.1f}s")


def test_criterion_3_inconspicuousness():
    scn = scenario_from_dict({
        "name": "acc3", "seed": 1003,
        "rtc": dict(SMALL_NOISE),
        "population": {"users": 250, "cities": 8, "nat_fraction": 0.4,
                       "online_fraction": 1.0, "stale_fraction": 0.0,
                       "blocked_fraction": 0.1, "whitelist_fraction": 0.1},
        "tracker": {"clients": 2, "s": 3.0, "round_period": 3600.0,
                    "rounds": 4},
    })
    world = build_world(scn)
    blocked = sum(1 for u in world.target_ids
                  if world.directory.get(u).blocked)
    whitelisted = sum(1 for u in world.target_ids
                      if world.directory.get(u).whitelist_only)
    tracker = world.make_tracker()
    rounds = list(tracker.run_study(world.target_ids, 4, world.base_t))
    calls = sum(map(len, rounds))
    notifications = len(world.overlay.notifications)
    online = extracted = 0
    for rnd in rounds:
        for call in rnd:
            want = {t.expect_ip for t in call.placed.targets}
            online += 1
            if want <= {m.candidate_ip for m in call.extracted}:
                extracted += 1
    ok = (calls >= 1000 and notifications == 0 and extracted == online
          and blocked >= 20 and whitelisted >= 20)
    report(3, ok,
           f"{calls} inconspicuous calls ({blocked} blocked, "
           f"{whitelisted} whitelist-only callees), {notifications} "
           f"notifications, extraction {extracted}/{online}")


def _calibration_world(n_cand, same, seed, min_rounds):
    scn = scenario_from_dict({
        "name": "cal", "seed": seed,
        "rtc": {"supernodes": 16, "noise_flows": [10, 11],
                "noise_packets": [5, 7]},
        "population": {"users": n_cand + 10, "cities": 8,
                       "nat_fraction": 0.0, "online_fraction": 1.0,
                       "stale_fraction": 0.0},
        "tracker": {"clients": 2, "rounds": 1},
        "bt": {"swarms": 8, "dht_nodes": 20, "crawler_bots": 4,
               "extra_peers_per_swarm": 0, "candidates": n_cand,
               "same_host": same, "scrape_filler": 5},
        "verifier": {"min_rounds": min_rounds, "clients": 10},
    })
    world = build_world(scn)
    cands = []
    for user in sorted(world.bt.truth):
        ip = world.sim.public_ip_of(world.user_home[user])
        for (eip, eport), host in sorted(
                world.bt.registry.by_endpoint.items()):
            if eip == ip:
                client = world.bt.registry.clients[host]
                cands.append(MatchCandidate(
                    user, ip, eport, next(iter(client.torrents))))
                break
    return world, cands


def test_criterion_4_verifier_calibration():
    # (a) same-host SequentialGlobal: verified >= 99% at threshold 1000
    world, cands = _calibration_world(120, 120, seed=1041, min_rounds=10)
    results = world.make_verifier().verify_candidates(cands, world.base_t)
    verified = sum(1 for r in results if r.verdict == VERDICT_VERIFIED)
    a_ok = verified / len(results) >= 0.99

    # (b) distinct-host Random IP-IDs: per-round P(distance < 1000) within
    # one percentage point of the analytic value, over >= 20000 rounds
    world, cands = _calibration_world(200, 0, seed=1042, min_rounds=100)
    results_b = world.make_verifier().verify_candidates(cands, world.base_t)
    distances = [d for r in results_b for d in r.rounds]
    freq = sum(1 for d in distances if d < 1000) / len(distances)
    analytic = (2 * 1000 - 1) / 65536
    b_ok = len(distances) >= 20000 and abs(freq - analytic) <= 0.01 \
        and abs(freq - 0.0305) <= 0.01

    # (c) false-Verified over >= 1000 distinct-host pairs: zero observed
    world, cands = _calibration_world(1000, 0, seed=1043, min_rounds=10)
    results_c = world.make_verifier().verify_candidates(cands, world.base_t)
    false_verified = sum(1 for r in results_c
                         if r.verdict == VERDICT_VERIFIED)
    c_ok = len(results_c) >= 1000 and false_verified == 0

    # ring-distance metric properties over 1e5 random triples
    rng = random.Random("ring-props")
    metric_ok = True
    for _ in range(100000):
        a, b, c = (rng.randrange(65536) for _ in range(3))
        if ring_distance(a, b) != ring_distance(b, a) or \
                ring_distance(a, a) != 0 or \
                ring_distance(a, c) > ring_distance(a, b) + ring_distance(b, c):
            metric_ok = False
            break

    ok = a_ok and b_ok and c_ok and metric_ok
    report(4, ok,
           f"(a) same-host verified {verified}/{len(results)}; "
           f"(b) {len(distances)} rounds, freq {freq:.5f} vs analytic "
           f"{analytic:.5f}; (c) {false_verified} false-verified over "
           f"{len(results_c)} pairs; metric triples ok={metric_ok}")


def test_criterion_5_flagship_linkage():
    scn = load_scenario("scenarios/flagship.yaml")
    t0 = time.monotonic()
    rep = RunReport(scn.name, scn.seed, "linkage")
    run_linkage(scn, rep)
    elapsed = time.monotonic() - t0
    m = rep.metrics["linkage"]
    ok = (m["verifiable_users"] == 765
          and m["same_host_planted"] == 398
          and m["precision"] == 1.0
          and m["recall"] >= 0.99
          and elapsed < 300.0)
    report(5, ok,
           f"verifiable {m['verifiable_users']}, verified "
           f"{m['verified_users']} (planted same-host "
           f"{m['same_host_planted']}), precision {m['precision']:.4f}, "
           f"recall {m['recall']:.4f}, {elapsed:.1f}s")


def test_criterion_6_dht_and_codec():
    # bencode round-trip over 1e4 random structured values
    rng = random.Random("bencode-acceptance")

    def random_value(depth=0):
        kind = rng.randrange(6 if depth < 3 else 2)
        if kind == 0:
            return rng.randint(-2**40, 2**40)
        if kind == 1:
            return rng.randbytes(rng.randrange(20))
        if kind in (2, 3):
            return [random_value(depth + 1)
                    for _ in range(rng.randrange(4))]
        return {rng.randbytes(rng.randrange(1, 8)): random_value(depth + 1)
                for _ in range(rng.randrange(4))}

    roundtrip_ok = all(bdecode(bencode(v)) == v
                       for v in (random_value() for _ in range(10000)))

    # lookups equal the exhaustive-scan oracle: 100 nodes, 1000 hashes
    sim = Simulator(seed=1061)
    from p2ptrack.btswarm.dht import DhtNetwork
    dht = DhtNetwork(sim, seed=1061)
    for i in range(100):
        host = f"d{i:03d}"
        sim.add_host(host, f"10.0.{i // 250}.{i % 250 + 1}")
        dht.add_node(host)
    dht.build_routing()
    sim.add_host("client", "10.9.0.1")
    client = KrpcClient(sim, "client", seed=1061)
    boot = dht.bootstrap_node()
    targets = [rng.randbytes(20) for _ in range(1000)]
    done = []
    idx = [0]

    def start_next():
        if idx[0] >= len(targets):
            return
        target = targets[idx[0]]
        idx[0] += 1
        LookupTask(client, (boot.node_id, boot.ip, boot.port), target,
                   lambda res, t=target: (done.append((t, res)),
                                          start_next())).start()

    sim.schedule(0.1, start_next)
    while len(done) < len(targets):
        sim.advance(sim.now + 50.0)
    mismatches = sum(
        1 for target, res in done
        if res.responsible_id != min(dht.nodes,
                                     key=lambda n: xor_distance(n, target)))

    # crawl 500 swarms in one simulated hour, >= 99% membership recovered
    sim2 = Simulator(seed=1062)
    dht2 = DhtNetwork(sim2, seed=1062)
    for i in range(100):
        host = f"d{i:03d}"
        sim2.add_host(host, f"10.0.{i // 250}.{i % 250 + 1}")
        dht2.add_node(host)
    dht2.build_routing()
    registry = SwarmRegistry(sim2, dht2, seed=1062)
    crng = random.Random("crawl-acceptance")
    swarms = [crng.randbytes(20) for _ in range(500)]
    truth = {}
    peer_index = 0
    for infohash in swarms:
        members = set()
        for _ in range(crng.randint(3, 10)):
            host = f"p{peer_index:05d}"
            peer_index += 1
            sim2.add_host(host, f"10.{1 + peer_index // 60000}."
                                f"{(peer_index // 250) % 250}."
                                f"{peer_index % 250 + 1}")
            bt = registry.add_client(host)
            registry.join(host, infohash, 1.0)
            members.add((bt.external_ip, bt.external_port))
        truth[infohash] = members
    sim2.advance(30.0)
    bots = []
    for b in range(10):
        host = f"bot{b:02d}"
        sim2.add_host(host, f"10.9.0.{b + 1}")
        bots.append(KrpcClient(sim2, host, seed=1062))
    crawl_start = sim2.now + 1.0
    crawl = run_crawl(sim2, dht2, bots, swarms, crawl_start, deadline=3600.0)
    got = crawl.membership()
    planted = sum(len(v) for v in truth.values())
    recovered = sum(len(got.get(ih, set()) & truth[ih]) for ih in swarms)
    within_hour = sim2.now <= crawl_start + 3600.0
    coverage = recovered / planted

    ok = roundtrip_ok and mismatches == 0 and coverage >= 0.99 \
        and within_hour
    report(6, ok,
           f"bencode round-trip 10000 ok={roundtrip_ok}; lookup oracle "
           f"mismatches {mismatches}/1000; crawl recovered {coverage:.4f} "
           f"of {planted} memberships in {sim2.now - crawl_start:.0f}s "
           f"simulated")


def test_criterion_7_defense_evaluation():
    scn = scenario_from_dict({
        "name": "acc7", "seed": 1007,
        "rtc": dict(SMALL_NOISE),
        "population": {"users": 250, "cities": 8, "nat_fraction": 0.4,
                       "online_fraction": 1.0, "stale_fraction": 0.0},
        "tracker": {"clients": 2, "s": 3.0, "round_period": 3600.0,
                    "rounds": 4},
    })
    # reveal-after-accept: 1000 unanswered calls, zero extracted addresses
    raa = copy.deepcopy(scn)
    raa.rtc.defense_mode = "reveal_after_accept"
    world = build_world(raa)
    rounds = list(world.make_tracker().run_study(world.target_ids, 4,
                                                 world.base_t))
    raa_calls = sum(map(len, rounds))
    raa_extracted = sum(len(c.extracted) for r in rounds for c in r)

    # relay-all: extracted addresses never intersect the true callee ips
    relay = copy.deepcopy(scn)
    relay.rtc.defense_mode = "relay_all"
    relay.tracker.rounds = 1
    world2 = build_world(relay)
    calls = world2.make_tracker().run_round(world2.target_ids,
                                            world2.base_t)
    relay_hits = sum(
        1 for c in calls
        if {m.candidate_ip for m in c.extracted}
        & world2.overlay.user_session_ips(c.callee, c.t))
    relay_extractions = sum(len(c.extracted) for c in calls)

    ok = raa_calls >= 1000 and raa_extracted == 0 and relay_hits == 0
    report(7, ok,
           f"reveal-after-accept: {raa_extracted} extracted over "
           f"{raa_calls} unanswered calls; relay-all: {relay_hits} true-ip "
           f"hits over {len(calls)} calls "
           f"({relay_extractions} relay addresses extracted)")


def test_criterion_8_mobility_analytics():
    scn = load_scenario("scenarios/mobility.yaml")
    rep = RunReport(scn.name, scn.seed, "mobility")
    run_mobility(scn, rep)
    m = rep.metrics["mobility"]
    n = m["online_ever"]
    ok = (m["changed_city_frac"] == 760 / n
          and m["changed_as_frac"] == 361 / n
          and m["changed_country_frac"] == 76 / n
          and n == 1900
          and m["coverage"] == 0.95
          and rep.ok())
    report(8, ok,
           f"fractions {m['changed_city_frac']:.4f}/"
           f"{m['changed_as_frac']:.4f}/{m['changed_country_frac']:.4f} "
           f"over {n} ever-online users (planted 0.40/0.19/0.04), "
           f"coverage {m['coverage']:.4f} (planted 0.95)")


def test_criterion_9_throughput():
    scn = scenario_from_dict({
        "name": "acc9", "seed": 1009,
        "rtc": dict(SMALL_NOISE),
        "population": {"users": 30, "cities": 8, "nat_fraction": 0.3,
                       "online_fraction": 1.0, "stale_fraction": 0.0},
        "tracker": {"clients": 1, "s": 3.0, "rounds": 1,
                    "round_period": 3600.0},
    })
    world = build_world(scn)
    calls = world.make_tracker().run_round(world.target_ids, world.base_t)
    # calls whose every target address was extracted, per hour of the span
    done = sum(1 for c in calls if c.placed.targets and
               {t.expect_ip for t in c.placed.targets}
               <= {m.candidate_ip for m in c.extracted})
    span = calls[-1].t - calls[0].t + scn.tracker.s
    rate = done * 3600.0 / span
    ok = rate >= 340.0
    report(9, ok, f"single client extracts {done} of {len(calls)} "
                  f"calls, {rate:.0f} per simulated hour (>= 340)")
