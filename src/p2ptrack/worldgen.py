"""Procedural world builder: turns a Scenario into a live simulation.

Addressing plan: city c owns the 10.c.0.0/16 block (public hosts and NAT
boxes draw from it), two cities share an AS and four share a country, so
planted moves change exactly the intended location scale.  Tracking and
verifier clients sit in city 0.  Rounds start late enough in simulated
time (BASE_T) that "dark" users' last logins have aged past the 72-hour
window, while "stale" users logged out half an hour before the study.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .btswarm.dht import DhtNetwork, KrpcClient
from .btswarm.swarm import (HandshakeClient, ScrapeEntry, SwarmRegistry,
                            build_scrape, parse_scrape, top_k)
from .netsim import IPID_RANDOM, IPID_SEQUENTIAL_GLOBAL, Simulator, ip_str
from .rtcdir import (Directory, DirectoryError, PresenceBook, RtcOverlay,
                     UserProfile)
from .scenario import BASE_T, Scenario, ScenarioError
from .sniffer import CallerPool
from .tracker import GeoTable, Tracker
from .verifier import Verifier

SETUP_T = 10.0             # tracking-client connection setup
DARK_LOGOUT = 3000.0       # dark users' last logout (> 72 h before BASE_T)
STALE_OFFSET = 1800.0      # stale users' logout before BASE_T

STATE_ONLINE = "online"
STATE_STALE = "stale"
STATE_DARK = "dark"

BT_SAME_HOST = "same_host"
BT_DISTINCT_HOST = "distinct_host"
BT_UNVERIFIABLE = "unverifiable"

# The address plan as (network, prefix length) blocks: every address a
# world hands out lies in one of them.
CITY_BLOCK = (10 << 24, 8)                          # city c: 10.c.0.0/16
NAT_PRIVATE_BLOCK = ((192 << 24) | (168 << 16), 16)  # behind every NAT
ADDRESS_PLAN = (CITY_BLOCK, NAT_PRIVATE_BLOCK)


def load_name_lists():
    pkg = resources.files("p2ptrack.data")
    first = pkg.joinpath("first_names.txt").read_text().split()
    last = pkg.joinpath("last_names.txt").read_text().split()
    return first, last


class _CityAllocator:
    """Sequential public-address allocator inside one city /16."""

    def __init__(self, city: int):
        self.base = CITY_BLOCK[0] | (city << 16)
        self.next = 1

    def alloc(self) -> int:
        self.next += 1
        hi, lo = divmod(self.next, 250)
        if hi > 250:
            raise ScenarioError("city address block exhausted")
        return self.base | ((hi + 1) << 8) | (lo + 1)


@dataclass
class MobilityTruth:
    movers_city: frozenset          # everyone planted with a second city
    movers_as: frozenset            # subset that also changes AS
    movers_country: frozenset       # subset that also changes country
    online_ever: frozenset


@dataclass
class BtWorld:
    dht: DhtNetwork
    registry: SwarmRegistry
    top_infohashes: list
    crawler_bots: list
    truth: dict                     # user -> BT_* category


@dataclass
class World:
    scenario: Scenario
    sim: Simulator
    directory: Directory
    presence: PresenceBook
    overlay: RtcOverlay
    geo: GeoTable
    salt: bytes
    tracker_clients: list           # (host_id, rtc_id)
    verifier_clients: list          # (host_id, rtc_id)
    probers: list                   # HandshakeClient per verifier client
    target_ids: list
    volunteers: list
    reorder_plan: frozenset
    user_state: dict
    user_home: dict
    mobility_truth: Optional[MobilityTruth]
    bt: Optional[BtWorld]
    base_t: float = BASE_T

    def make_tracker(self) -> Tracker:
        return Tracker(CallerPool(self.sim, self.overlay,
                                  self.tracker_clients),
                       self.scenario.tracker, volunteers=self.volunteers,
                       reorder_plan=self.reorder_plan,
                       seed=self.scenario.seed)

    def make_verifier(self) -> Verifier:
        if self.bt is None:
            raise ScenarioError("scenario has no bt section")
        return Verifier(CallerPool(self.sim, self.overlay,
                                   self.verifier_clients),
                        self.probers, self.scenario.verifier)


def build_geo(cities: int) -> GeoTable:
    rows = []
    for c in range(cities):
        rows.append((f"{ip_str(CITY_BLOCK[0] | c << 16)}/16", f"city{c:02d}",
                     f"country{c // 4}", 64500 + c // 2))
    net, plen = NAT_PRIVATE_BLOCK
    rows.append((f"{ip_str(net)}/{plen}", "rfc1918", "private", 64999))
    return GeoTable(rows)


def away_city(city: int, scale: str, cities: int) -> int:
    if scale == "city":
        return city ^ 1                                  # same AS pair
    if scale == "as":
        return city + 2 if city % 4 < 2 else city - 2    # same country
    return (city + 4) % cities                           # other country


def build_world(scenario: Scenario) -> World:
    scenario.check()
    seed = scenario.seed
    rng = random.Random(f"{seed}:worldgen")
    pop = scenario.population
    cities = pop.cities
    mob = scenario.mobility
    bt = scenario.bt

    sim = Simulator(seed)
    directory = Directory()
    presence = PresenceBook()
    overlay = RtcOverlay(sim, directory, presence, scenario.rtc, seed=seed)
    geo = build_geo(cities)
    alloc = [_CityAllocator(c) for c in range(cities)]
    first_names, last_names = load_name_lists()

    # infrastructure: supernodes and relays spread over the cities
    for i in range(scenario.rtc.supernodes):
        host = f"sn{i:03d}"
        sim.add_host(host, alloc[i % cities].alloc())
        overlay.add_supernode(host)
    for i in range(scenario.rtc.relays):
        host = f"rel{i:02d}"
        sim.add_host(host, alloc[(i + 1) % cities].alloc())
        overlay.add_relay(host)

    # calling clients (public, city 0), SYN-filtered for the whole run
    def add_caller(host: str, user: str, t_setup: float) -> tuple:
        sim.add_host(host, alloc[0].alloc())
        overlay.register_client(host)
        directory.add(UserProfile(user, f"{user}@tracker.invalid"))
        presence.add_session(user, host, 1.0, None)
        overlay.setup_tracking_client(host, t_setup)
        sim.hosts[host].syn_filter_from = SETUP_T + 5.0
        return host, user

    tracker_clients = [add_caller(f"tc{i:02d}", f"trackerclient{i:02d}",
                                  SETUP_T + 0.1 * i)
                       for i in range(scenario.tracker.clients)]

    # population states
    n = pop.users
    users = [f"user{i:05d}" for i in range(n)]
    n_online, n_stale, n_dark = scenario.state_counts()
    state_pool = ([STATE_ONLINE] * n_online + [STATE_STALE] * n_stale
                  + [STATE_DARK] * n_dark)
    rng.shuffle(state_pool)
    user_state = dict(zip(users, state_pool))
    online_users = [u for u in users if user_state[u] == STATE_ONLINE]

    # BT plan first: planted users may need dedicated NATs and fixed
    # IP-ID models before their hosts are created
    bt_same: list = []
    bt_distinct: list = []
    bt_unverifiable: list = []
    bt_shared: set = set()
    if bt is not None:
        need = bt.candidates + bt.unverifiable
        picks = online_users[:need]
        bt_same = picks[:bt.same_host]
        bt_distinct = picks[bt.same_host:bt.candidates]
        bt_unverifiable = picks[bt.candidates:need]
        bt_shared = set(bt_same[:bt.shared_ip_same_host])
    needs_own_nat = set(bt_distinct) | set(bt_unverifiable) | bt_shared
    force_sequential = set(bt_same)

    # mobility plants: exact mover counts drawn from the online pool
    movers_city_only: list = []
    movers_as: list = []
    movers_country: list = []
    if mob is not None:
        eligible = [u for u in online_users if u not in needs_own_nat]
        k_city, k_as = mob.movers_city_only, mob.movers_city_as
        movers_city_only = eligible[:k_city]
        movers_as = eligible[k_city:k_city + k_as]
        movers_country = eligible[k_city + k_as:
                                  k_city + k_as + mob.movers_country]

    # privacy settings plant
    n_blocked = round(n * pop.blocked_fraction)
    n_whitelist = min(round(n * pop.whitelist_fraction), n - n_blocked)
    privacy_pool = ([1] * n_blocked + [2] * n_whitelist
                    + [0] * (n - n_blocked - n_whitelist))
    rng.shuffle(privacy_pool)
    tracker_users = [u for _, u in tracker_clients]

    # hosts and profiles
    nat_count = 0
    user_home: dict = {}
    user_city: dict = {}
    for idx, user in enumerate(users):
        host = f"h{idx:05d}"
        city = idx % cities
        user_city[user] = city
        if user in force_sequential:
            ipid = IPID_SEQUENTIAL_GLOBAL
        elif rng.random() < pop.random_ipid_fraction:
            ipid = IPID_RANDOM
        else:
            ipid = IPID_SEQUENTIAL_GLOBAL
        if user in needs_own_nat or rng.random() < pop.nat_fraction:
            nat_id = f"nat{nat_count:05d}"
            nat_count += 1
            sim.add_nat(nat_id, alloc[city].alloc())
            sim.add_host(host, NAT_PRIVATE_BLOCK[0] | 2, nat=nat_id,
                         ipid_model=ipid)
        else:
            sim.add_host(host, alloc[city].alloc(), ipid_model=ipid)
        overlay.register_client(host)
        user_home[user] = host

        fn = first_names[idx % len(first_names)]
        ln = last_names[(idx // len(first_names)) % len(last_names)]
        profile = UserProfile(
            user, f"{user}@example.invalid",
            birth_name=f"{fn} {ln}", first_name=fn, last_name=ln,
            city=f"city{city:02d}", country=f"country{city // 4}")
        if privacy_pool[idx] == 1:
            profile.blocked = set(tracker_users)
        elif privacy_pool[idx] == 2:
            profile.whitelist_only = True
        directory.add(profile)

    # mover away hosts live in the shifted city
    user_away: dict = {}
    mover_scales = ([(u, "city") for u in movers_city_only]
                    + [(u, "as") for u in movers_as]
                    + [(u, "country") for u in movers_country])
    for i, (user, scale) in enumerate(mover_scales):
        target = away_city(user_city[user], scale, cities)
        host = f"a{i:05d}"
        sim.add_host(host, alloc[target].alloc())
        overlay.register_client(host)
        user_away[user] = host

    # sessions
    rounds = scenario.tracker.rounds
    period = scenario.tracker.round_period
    movers = set(u for u, _ in mover_scales)
    for user in users:
        state = user_state[user]
        home = user_home[user]
        if state == STATE_DARK:
            presence.add_session(user, home, 100.0, DARK_LOGOUT)
            continue
        if state == STATE_STALE:
            presence.add_session(user, home, 100.0, BASE_T - STALE_OFFSET)
            continue
        if mob is None:
            presence.add_session(user, home, BASE_T - 600.0, None)
            continue
        if user in movers:
            mine = {0, 1} | {r for r in range(2, rounds)
                             if rng.random() < 0.6}
            presence.add_session(user, home, BASE_T - 600.0,
                                 BASE_T + period * 0.5)
            last_r = max(mine)
            presence.add_session(user, user_away[user],
                                 BASE_T + period * 0.75,
                                 BASE_T + last_r * period + period * 0.5)
        else:
            first_r = rng.randint(0, rounds - 1)
            mine = {first_r} | {r for r in range(first_r + 1, rounds)
                                if rng.random() < 0.6}
            for r in sorted(mine):
                presence.add_session(user, home,
                                     BASE_T + r * period - 300.0,
                                     BASE_T + r * period + period * 0.5)

    mobility_truth = None
    if mob is not None:
        mobility_truth = MobilityTruth(
            frozenset(movers),
            frozenset(movers_as) | frozenset(movers_country),
            frozenset(movers_country), frozenset(online_users))

    # volunteers: extra always-online public users for validation calls
    volunteers = []
    for i in range(pop.volunteers):
        user, host = f"volunteer{i:03d}", f"vol{i:03d}"
        sim.add_host(host, alloc[i % cities].alloc())
        overlay.register_client(host)
        directory.add(UserProfile(user, f"{user}@example.invalid",
                                  birth_name=f"Volunteer {i:03d}"))
        presence.add_session(user, host, BASE_T - 600.0, None)
        volunteers.append(user)

    # reorder plant: exact count of (round, online callee) pairs
    reorder_plan = set()
    if scenario.tracker.reorders:
        stable = [u for u in sorted(online_users) if u not in movers]
        picks = rng.sample(stable, min(scenario.tracker.reorders,
                                       len(stable)))
        for user in picks:
            reorder_plan.add((rng.randrange(rounds), user))

    # extra directory-only identities from an explicit fixture file: they
    # are searchable and harvestable but never log in
    if scenario.directory_fixture:
        try:
            fixture = Directory.load_fixture(scenario.directory_fixture)
            for rtc_id in fixture.ids():
                if rtc_id not in directory:
                    directory.add(fixture.get(rtc_id))
        except (OSError, UnicodeDecodeError, DirectoryError) as exc:
            raise ScenarioError(f"directory_fixture: {exc}") from exc

    bt_world = None
    verifier_clients: list = []
    probers: list = []
    if bt is not None:
        bt_world = _materialize_bt(
            scenario, sim, rng, alloc, registry_users=(
                bt_same, bt_distinct, bt_unverifiable, bt_shared),
            user_home=user_home)
        for i in range(scenario.verifier.clients):
            verifier_clients.append(add_caller(
                f"vt{i:02d}", f"verifierclient{i:02d}",
                SETUP_T + 1.0 + 0.1 * i))
            sim.add_host(f"vb{i:02d}", alloc[0].alloc())
            probers.append(HandshakeClient(sim, f"vb{i:02d}", seed=seed))

    overlay.bootstrap_logins()
    sim.advance(SETUP_T + 6.0)

    return World(scenario, sim, directory, presence, overlay, geo,
                 scenario.salt_bytes(), tracker_clients, verifier_clients,
                 probers, list(users), volunteers, frozenset(reorder_plan),
                 user_state, user_home, mobility_truth, bt_world)


def _materialize_bt(scenario, sim, rng, alloc, registry_users, user_home):
    bt = scenario.bt
    seed = scenario.seed
    cities = scenario.population.cities
    bt_same, bt_distinct, bt_unverifiable, bt_shared = registry_users

    dht = DhtNetwork(sim, seed)
    for i in range(bt.dht_nodes):
        host = f"dht{i:03d}"
        sim.add_host(host, alloc[i % cities].alloc())
        dht.add_node(host)
    dht.build_routing()
    registry = SwarmRegistry(sim, dht, seed)

    hash_rng = random.Random(f"{seed}:infohash")
    swarm_hashes = sorted(hash_rng.randbytes(20) for _ in range(bt.swarms))
    join_t = BASE_T - 900.0
    truth: dict = {}
    sibling_idx = 0
    nat_siblings: dict = {}

    def join_swarms(client):
        k = rng.randint(*bt.torrents_per_client)
        for infohash in rng.sample(swarm_hashes, min(k, len(swarm_hashes))):
            registry.join(client.host_id, infohash, join_t)

    def add_sibling(user, accepts: bool):
        nonlocal sibling_idx
        home_host = sim.hosts[user_home[user]]
        sim.nats[home_host.nat].accepts_unsolicited_inbound = accepts
        sib = f"btsib{sibling_idx:04d}"
        sibling_idx += 1
        k = nat_siblings.get(home_host.nat, 0)
        nat_siblings[home_host.nat] = k + 1
        sim.add_host(sib, NAT_PRIVATE_BLOCK[0] | (1 << 8) | (k + 2),
                     nat=home_host.nat, ipid_model=IPID_RANDOM)
        return registry.add_client(sib)

    for user in bt_same:
        home = user_home[user]
        host = sim.hosts[home]
        if host.nat is not None:
            sim.nats[host.nat].accepts_unsolicited_inbound = True
        join_swarms(registry.add_client(home))
        truth[user] = BT_SAME_HOST
        if user in bt_shared:
            join_swarms(add_sibling(user, True))
    for i, user in enumerate(bt_distinct):
        join_swarms(add_sibling(user, True))
        if i < bt.shared_ip_distinct:
            join_swarms(add_sibling(user, True))
        truth[user] = BT_DISTINCT_HOST
    for user in bt_unverifiable:
        join_swarms(add_sibling(user, False))
        truth[user] = BT_UNVERIFIABLE

    # background swarm population: public BT hosts with no RTC identity
    for i in range(bt.extra_peers_per_swarm * bt.swarms):
        host = f"btx{i:04d}"
        sim.add_host(host, alloc[i % cities].alloc())
        registry.add_client(host)
        registry.join(host, swarm_hashes[i % len(swarm_hashes)], join_t)

    # scrape-all blob: real swarms outrank the filler entries
    scrape_rng = random.Random(f"{seed}:scrape")
    entries = []
    for infohash in swarm_hashes:
        entries.append(ScrapeEntry(infohash, 500 + scrape_rng.randint(0, 400),
                                   scrape_rng.randint(50, 300),
                                   scrape_rng.randint(0, 5000)))
    for _ in range(bt.scrape_filler):
        entries.append(ScrapeEntry(hash_rng.randbytes(20),
                                   scrape_rng.randint(0, 200),
                                   scrape_rng.randint(0, 200),
                                   scrape_rng.randint(0, 1000)))
    top = top_k(parse_scrape(build_scrape(entries)).entries, bt.swarms)

    bots = []
    for i in range(bt.crawler_bots):
        host = f"crawl{i:02d}"
        sim.add_host(host, alloc[i % cities].alloc())
        bots.append(KrpcClient(sim, host, seed=seed))

    return BtWorld(dht, registry, top, bots, truth)
