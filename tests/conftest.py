import random

import pytest

from p2ptrack.netsim import SimPacket, Simulator
from p2ptrack.rtcdir import (Directory, PresenceBook, RtcConfig, RtcOverlay,
                             UserProfile)


def named(records) -> list:
    """Tap records, exact tuples in SimPacket's field order, as SimPackets,
    so that a test reads their fields by name."""
    return [SimPacket._make(r) for r in records]


@pytest.fixture
def sim():
    return Simulator(seed=1, default_jitter=0.0)


class MiniWorld:
    """Hand-built overlay: one filtered tracking client, a supernode pool,
    and helpers to add callees.  Small enough for per-test assertions."""

    def __init__(self, seed=5, supernodes=14, jitter=0.05, filtered=True,
                 defense="none"):
        self.sim = Simulator(seed=seed)
        self.directory = Directory()
        self.presence = PresenceBook()
        self.overlay = RtcOverlay(
            self.sim, self.directory, self.presence,
            RtcConfig(defense_mode=defense, pattern_jitter=jitter,
                      noise_flows=(10, 12), noise_packets=(5, 10)),
            seed=seed)
        for i in range(supernodes):
            h = f"sn{i:02d}"
            self.sim.add_host(h, f"9.9.{i}.1")
            self.overlay.add_supernode(h)
        for i in range(3):
            h = f"rel{i}"
            self.sim.add_host(h, f"9.8.{i}.1")
            self.overlay.add_relay(h)
        self.tracker_host = "tc0"
        self.tracker_user = "tracker0"
        self.sim.add_host(self.tracker_host, "10.0.0.10")
        self.overlay.register_client(self.tracker_host)
        self.directory.add(UserProfile(self.tracker_user, "t0@track.invalid"))
        self.presence.add_session(self.tracker_user, self.tracker_host,
                                  0.0, None)
        self.overlay.setup_tracking_client(self.tracker_host, 1.0)
        self.sim.advance(3.0)
        if filtered:
            self.sim.hosts[self.tracker_host].syn_filter_from = 3.0
        self.tap = self.sim.tap(self.tracker_host)
        self._next = 0

    def add_public_user(self, user=None, online=(0.0, None)):
        user = user or f"pub{self._next:03d}"
        host = f"hp{self._next:03d}"
        self._next += 1
        self.sim.add_host(host, f"10.1.{self._next // 250}."
                                f"{self._next % 250 + 1}")
        self.overlay.register_client(host)
        self.directory.add(UserProfile(user, f"{user}@example.invalid"))
        if online is not None:
            self.presence.add_session(user, host, *online)
        return user, host

    def add_nated_user(self, user=None, online=(0.0, None)):
        user = user or f"nat{self._next:03d}"
        host = f"hn{self._next:03d}"
        nat = f"nb{self._next:03d}"
        self._next += 1
        self.sim.add_nat(nat, f"10.2.{self._next // 250}."
                              f"{self._next % 250 + 1}")
        self.sim.add_host(host, "192.168.0.2", nat=nat)
        self.overlay.register_client(host)
        self.directory.add(UserProfile(user, f"{user}@example.invalid"))
        if online is not None:
            self.presence.add_session(user, host, *online)
        return user, host

    def start(self, at=10.0):
        self.overlay.bootstrap_logins()
        self.sim.advance(at)


@pytest.fixture
def mini():
    return MiniWorld()


@pytest.fixture
def fixture_directory():
    """1,000 deterministic profiles for search-oracle tests."""
    rng = random.Random("directory-fixture")
    firsts = ["alice", "bob", "carol", "dave", "erin", "frank", "grace",
              "heidi", "ivan", "judy", "mallory", "victor"]
    lasts = ["smith", "jones", "miller", "garcia", "chen", "patel",
             "johnson", "brown", "lee", "walker"]
    directory = Directory()
    for i in range(1000):
        first = rng.choice(firsts)
        last = rng.choice(lasts)
        birth = f"{first} {last}" if rng.random() < 0.85 else None
        directory.add(UserProfile(
            f"fix{i:05d}user", f"fix{i:05d}@example.invalid",
            birth_name=birth,
            city=rng.choice(["paris", "oslo", None]),
            age=str(rng.randint(18, 80)) if rng.random() < 0.5 else None))
    return directory
