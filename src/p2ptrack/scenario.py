"""Scenario configuration: dataclass sections, YAML loading, validation.

A scenario file is key-value sections plus optional tables; together with
the seed it fully determines a run.  Population, mobility plants and the
BitTorrent ecosystem are generated procedurally from the declared counts
and fractions (see worldgen), so desk-scale stand-ins for full-scale
experiments stay reproducible and carry exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import yaml

from .rtcdir import DEFENSES, RtcConfig
from .sniffer import ClassifierConfig
from .tracker import SchedulerConfig
from .verifier import VerifierConfig, VerifierError


class ScenarioError(Exception):
    pass


# The value types each field annotation accepts: a float field also takes
# an int, and every tuple field is a range of ints.
_TYPES = {"int": int, "float": (int, float), "str": str, "tuple": tuple,
          "Optional[str]": (str, type(None))}


def _section(cls, data, path):
    """Build section cls from a mapping; a key cls does not declare, a value
    of another type than its field's, or a value its constructor rejects,
    is a ScenarioError naming the path."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {f.name: _checked(f, data[f.name], f"{path}.{f.name}")
              for f in fields(cls) if f.name in data}
    try:
        return cls(**kwargs)
    except (ValueError, VerifierError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _checked(f, value, path):
    """value, with a list made a tuple, if it has the type of field f;
    otherwise a ScenarioError naming the path."""
    if isinstance(value, list) and f.type == "tuple":
        value = tuple(value)
    ok = isinstance(value, _TYPES[f.type]) and not isinstance(value, bool)
    if ok and f.type == "tuple":
        ok = all(type(v) is int for v in value)
    if not ok:
        want = {"tuple": "a list of ints",
                "Optional[str]": "a str or null"}.get(f.type, f.type)
        raise ScenarioError(f"{path}: expected {want}, got {value!r}")
    return value


@dataclass
class NetSection:
    default_latency: float = 0.05
    default_jitter: float = 0.01


@dataclass
class PopulationSection:
    users: int = 20
    cities: int = 8
    nat_fraction: float = 0.3
    hosts_per_nat: int = 1
    online_fraction: float = 0.6
    stale_fraction: float = 0.2      # offline but seen within 72 h
    blocked_fraction: float = 0.0    # callees that block the trackers
    whitelist_fraction: float = 0.0  # callees allowing contacts only
    random_ipid_fraction: float = 0.0
    volunteers: int = 0


@dataclass
class MobilitySection:
    movers_city_only: int = 0        # second city, same AS
    movers_city_as: int = 0          # second city and AS, same country
    movers_country: int = 0          # second city, AS and country
    never_online_stale: int = 0      # probed but only ever seen as stale
    never_online_dark: int = 0       # probed, never seen at all


@dataclass
class BtSection:
    swarms: int = 5
    dht_nodes: int = 25
    crawler_bots: int = 10
    extra_peers_per_swarm: int = 3
    candidates: int = 10             # RTC users joinable to a BT endpoint
    same_host: int = 5               # of those, BT runs on the same machine
    shared_ip_same_host: int = 0     # same-host users with a NAT sibling too
    shared_ip_distinct: int = 0      # distinct-host users with 2 siblings
    unverifiable: int = 0            # siblings behind non-accepting NATs
    scrape_filler: int = 20          # fake scrape entries below the real ones
    torrents_per_client: tuple = (1, 2)
    crawl_deadline: float = 3600.0
    crawl_timeout: float = 1.0


@dataclass
class Scenario:
    name: str = "scenario"
    seed: int = 0
    directory_fixture: Optional[str] = None   # extra profiles, TSV format
    net: NetSection = field(default_factory=NetSection)
    rtc: RtcConfig = field(default_factory=RtcConfig)
    population: PopulationSection = field(default_factory=PopulationSection)
    tracker: SchedulerConfig = field(default_factory=SchedulerConfig)
    mobility: Optional[MobilitySection] = None
    bt: Optional[BtSection] = None
    verifier: VerifierConfig = field(default_factory=VerifierConfig)

    def salt_bytes(self) -> bytes:
        if self.tracker.salt is not None:
            return bytes.fromhex(self.tracker.salt)
        return f"salt:{self.seed}:{self.name}".encode()

    def validate(self) -> list:
        """All violations, empty when the scenario is runnable."""
        bad = []
        pop = self.population
        for name, frac in (("nat_fraction", pop.nat_fraction),
                           ("online_fraction", pop.online_fraction),
                           ("stale_fraction", pop.stale_fraction),
                           ("blocked_fraction", pop.blocked_fraction),
                           ("whitelist_fraction", pop.whitelist_fraction),
                           ("random_ipid_fraction", pop.random_ipid_fraction)):
            if not 0.0 <= frac <= 1.0:
                bad.append(f"population.{name} out of [0,1]: {frac}")
        if pop.online_fraction + pop.stale_fraction > 1.0 + 1e-9:
            bad.append("population online_fraction + stale_fraction > 1")
        if pop.users < 1:
            bad.append("population.users must be positive")
        if pop.cities < 8 or pop.cities % 4:
            bad.append("population.cities must be a multiple of 4, >= 8")
        if pop.hosts_per_nat < 1:
            bad.append("population.hosts_per_nat must be >= 1")
        if self.rtc.defense_mode not in DEFENSES:
            bad.append(f"rtc.defense_mode unknown: {self.rtc.defense_mode}")
        if self.rtc.supernodes < self.rtc.noise_flows[1]:
            bad.append("rtc.supernodes smaller than the noise flow maximum")
        if self.tracker.clients < 1 or self.tracker.s <= 0:
            bad.append("tracker needs clients >= 1 and s > 0")
        if self.tracker.rounds < 1:
            bad.append("tracker.rounds must be >= 1")
        if self.tracker.salt is not None:
            # the salt keys blake2b, which takes at most 64 bytes
            try:
                if len(bytes.fromhex(self.tracker.salt)) > 64:
                    bad.append("tracker.salt is longer than 64 bytes")
            except ValueError:
                bad.append("tracker.salt must be a hex string")
        if self.mobility is not None:
            m = self.mobility
            movers = (m.movers_city_only + m.movers_city_as
                      + m.movers_country)
            if movers + m.never_online_stale + m.never_online_dark > pop.users:
                bad.append("mobility plants exceed the population")
            if self.tracker.rounds < 2 and movers:
                bad.append("mobility movers need at least 2 rounds")
        if self.bt is not None:
            b = self.bt
            if b.same_host > b.candidates:
                bad.append("bt.same_host exceeds bt.candidates")
            if b.shared_ip_same_host > b.same_host:
                bad.append("bt.shared_ip_same_host exceeds bt.same_host")
            if b.shared_ip_distinct > b.candidates - b.same_host:
                bad.append("bt.shared_ip_distinct exceeds the distinct-host "
                           "candidate count")
            if b.candidates + b.unverifiable > pop.users:
                bad.append("bt candidate plants exceed the population")
            if b.swarms < 1 or b.dht_nodes < 1 or b.crawler_bots < 1:
                bad.append("bt needs swarms, dht_nodes and crawler_bots >= 1")
            if self.verifier.clients < 1:
                bad.append("verifier.clients must be >= 1")
        return bad


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a mapping")
    known = {"name", "seed", "directory_fixture", "net", "rtc", "population",
             "tracker", "mobility", "bt", "verifier"}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys {sorted(unknown)}")
    tracker_data = dict(data.get("tracker") or {})
    classifier_data = tracker_data.pop("classifier", None)
    tracker = _section(SchedulerConfig, tracker_data, "tracker")
    tracker.classifier = _section(ClassifierConfig, classifier_data,
                                  "tracker.classifier")
    # the scalar keys; the sections are built below
    top = {f.name: _checked(f, data[f.name], f.name)
           for f in fields(Scenario) if f.type in _TYPES and f.name in data}
    return Scenario(
        **top,
        net=_section(NetSection, data.get("net"), "net"),
        rtc=_section(RtcConfig, data.get("rtc"), "rtc"),
        population=_section(PopulationSection, data.get("population"),
                            "population"),
        tracker=tracker,
        mobility=(_section(MobilitySection, data["mobility"], "mobility")
                  if data.get("mobility") is not None else None),
        bt=(_section(BtSection, data["bt"], "bt")
            if data.get("bt") is not None else None),
        verifier=_section(VerifierConfig, data.get("verifier"), "verifier"),
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    scn = scenario_from_dict(data or {})
    problems = scn.validate()
    if problems:
        raise ScenarioError("invalid scenario:\n  " + "\n  ".join(problems))
    return scn
