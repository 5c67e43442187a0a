"""Benchmark workloads: scenario shapes kept as data.

Each workload is a scenario document (the same keys as a file under
``scenarios/``) plus the pipeline it runs.  The seed comes from the command
line, so the same seed always builds the same world.  The shapes follow the
bundled mobility and flagship scenarios, scaled so that one pipeline run
takes a few seconds and several fresh-process runs fit in one benchmark run.
"""

from __future__ import annotations

import copy

# Seed the benchmark's own tests use while the benchmark is developed.
DEV_SEED = 77
# Seed kept out of tuning: confirm a claimed gain on it before accepting it.
HELD_OUT_SEED = 9173

WORKLOADS = {
    # Mobility study shape (scenarios/mobility.yaml) at 500 users: 25% NATed,
    # 10 clients, s = 3, 3 hourly rounds, exact plants (40% / 19% / 4% of the
    # 95% ever online move city / AS / country).  Call placement, the event
    # loop and the classifier carry run_s; the verifier and btswarm idle.
    "track": {
        "pipeline": "mobility",
        "scenario": {
            "rtc": {"supernodes": 24, "relays": 4, "noise_flows": [10, 12],
                    "noise_packets": [5, 8]},
            "population": {"users": 500, "cities": 8, "nat_fraction": 0.25,
                           "volunteers": 4},
            "tracker": {"clients": 10, "s": 3.0, "round_period": 3600.0,
                        "rounds": 3, "validation_every": 100},
            "mobility": {"movers_city_only": 100, "movers_city_as": 71,
                         "movers_country": 19, "never_online_stale": 12,
                         "never_online_dark": 13},
        },
    },
    # Flagship ratios (scenarios/flagship.yaml) at 400 users: 16% online,
    # 20% NATed, 60 planted candidates of which about half run BT on the
    # same host, NAT siblings on the rest, 2 daily rounds.  The only
    # workload with the verifier's windowed classification and IP-ID path.
    "link": {
        "pipeline": "linkage",
        "scenario": {
            "rtc": {"supernodes": 30, "relays": 4, "noise_flows": [10, 12],
                    "noise_packets": [5, 8]},
            "population": {"users": 400, "cities": 8, "nat_fraction": 0.2,
                           "online_fraction": 0.16, "stale_fraction": 0.24,
                           "volunteers": 4},
            "tracker": {"clients": 10, "s": 3.0, "round_period": 86400.0,
                        "rounds": 2},
            "bt": {"swarms": 60, "dht_nodes": 60, "crawler_bots": 10,
                   "extra_peers_per_swarm": 2, "candidates": 60,
                   "same_host": 31, "shared_ip_same_host": 1,
                   "shared_ip_distinct": 29, "unverifiable": 2,
                   "scrape_filler": 40, "torrents_per_client": [1, 2]},
            "verifier": {"threshold": 1000, "min_rounds": 10,
                         "round_spacing": 60.0, "clients": 10},
        },
    },
    # A large DHT and many swarms with only 40 RTC users: bencode/KRPC, XOR
    # routing and the event loop's payload path carry run_s, and building
    # the routing tables makes set-up the largest of the three.  The
    # classifier and GC idle, so changes to them should not move it.
    "crawl": {
        "pipeline": "linkage",
        "scenario": {
            "rtc": {"supernodes": 16, "relays": 3, "noise_flows": [10, 12],
                    "noise_packets": [5, 10]},
            "population": {"users": 40, "cities": 8, "nat_fraction": 0.3,
                           "online_fraction": 0.6, "stale_fraction": 0.2,
                           "volunteers": 2},
            "tracker": {"clients": 2, "s": 3.0, "round_period": 86400.0,
                        "rounds": 4},
            "bt": {"swarms": 800, "dht_nodes": 400, "crawler_bots": 4,
                   "extra_peers_per_swarm": 2, "candidates": 6,
                   "same_host": 3, "shared_ip_same_host": 1,
                   "shared_ip_distinct": 1, "unverifiable": 1,
                   "scrape_filler": 10},
            "verifier": {"min_rounds": 5, "clients": 3},
        },
    },
}

# Spans every traced run must record; a layer missing here would otherwise
# report 0 s after a rename.
_ALWAYS = ("pipelines.run", "worldgen.build_world", "netsim.advance",
           "pipelines.write_report")
_CALLS = ("rtcdir.place_call", "sniffer.classify", "tracker.run_round")
_CRAWL = ("btswarm.run_crawl", "btswarm.bdecode", "btswarm.bencode",
          "btswarm.match_ips")
EXPECTED_SPANS = {
    "track": _ALWAYS + _CALLS + ("tracker.disambiguate",
                                 "tracker.mobility_report"),
    "link": _ALWAYS + _CALLS + _CRAWL + ("verifier.verify_candidates",),
    "crawl": _ALWAYS + _CRAWL,
}


def scenario_doc(workload: str, seed: int) -> dict:
    """The scenario document for one workload and seed."""
    doc = copy.deepcopy(WORKLOADS[workload]["scenario"])
    doc["name"] = workload
    doc["seed"] = seed
    return doc
