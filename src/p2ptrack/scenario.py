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

from .rtcdir import RtcConfig
from .sniffer import ClassifierConfig
from .tracker import SchedulerConfig
from .verifier import VerifierConfig, VerifierError


class ScenarioError(Exception):
    pass


# The value types each field annotation accepts: a float field also takes
# an int, and every tuple field is a range [lo, hi] of ints, 0 <= lo <= hi.
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
        ok = len(value) == 2 and all(type(v) is int for v in value) and \
            0 <= value[0] <= value[1]
    if not ok:
        want = {"tuple": "[lo, hi] with ints 0 <= lo <= hi",
                "Optional[str]": "a str or null"}.get(f.type, f.type)
        raise ScenarioError(f"{path}: expected {want}, got {value!r}")
    return value


@dataclass
class PopulationSection:
    users: int = 20
    cities: int = 8
    nat_fraction: float = 0.3
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


@dataclass
class Scenario:
    name: str = "scenario"
    seed: int = 0
    directory_fixture: Optional[str] = None   # extra profiles, TSV format
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

    def state_counts(self) -> tuple:
        """(online, stale, dark) user counts; worldgen plants exactly
        these."""
        users = self.population.users
        if self.mobility is not None:
            stale = self.mobility.never_online_stale
            dark = self.mobility.never_online_dark
            return users - stale - dark, stale, dark
        online = round(users * self.population.online_fraction)
        stale = min(round(users * self.population.stale_fraction),
                    users - online)
        return online, stale, users - online - stale

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
        if pop.blocked_fraction + pop.whitelist_fraction > 1.0 + 1e-9:
            bad.append("population blocked_fraction + whitelist_fraction "
                       "> 1")
        if pop.users < 1:
            bad.append("population.users must be positive")
        if pop.cities < 8 or pop.cities % 4:
            bad.append("population.cities must be a multiple of 4, >= 8")
        for name in ("supernodes", "relays"):
            if getattr(self.rtc, name) < 1:
                bad.append(f"rtc.{name} must be >= 1")
        if self.rtc.supernodes < self.rtc.noise_flows[1]:
            bad.append("rtc.supernodes smaller than the noise flow maximum")
        if self.tracker.clients < 1 or self.tracker.s <= 0:
            bad.append("tracker needs clients >= 1 and s > 0")
        if self.tracker.rounds < 1:
            bad.append("tracker.rounds must be >= 1")
        if self.tracker.reorders and self.tracker.rounds < 2:
            bad.append("tracker.reorders need >= 2 rounds for the majority "
                       "vote to recover")
        # the salt keys blake2b, which takes at most 64 bytes
        try:
            if len(self.salt_bytes()) > 64:
                bad.append("tracker.salt, or the salt derived from seed "
                           "and name, is longer than 64 bytes")
        except ValueError:
            bad.append("tracker.salt must be a hex string")
        for name in ("mobility", "bt"):
            section = getattr(self, name)
            for f in fields(section) if section is not None else ():
                if f.type == "int" and getattr(section, f.name) < 0:
                    bad.append(f"{name}.{f.name} must be >= 0")
        online = self.state_counts()[0]
        own_nat = 0                  # planted users that need their own NAT
        if self.bt is not None:
            b = self.bt
            if b.same_host > b.candidates:
                bad.append("bt.same_host exceeds bt.candidates")
            if b.shared_ip_same_host > b.same_host:
                bad.append("bt.shared_ip_same_host exceeds bt.same_host")
            if b.shared_ip_distinct > b.candidates - b.same_host:
                bad.append("bt.shared_ip_distinct exceeds the distinct-host "
                           "candidate count")
            if b.candidates + b.unverifiable > online:
                bad.append(f"bt candidate plants exceed the {online} online "
                           f"users")
            own_nat = (b.candidates - b.same_host + b.unverifiable
                       + b.shared_ip_same_host)
            if b.swarms < 1 or b.dht_nodes < 1 or b.crawler_bots < 1:
                bad.append("bt needs swarms, dht_nodes and crawler_bots >= 1")
            if self.verifier.clients < 1:
                bad.append("verifier.clients must be >= 1")
        if self.mobility is not None:
            m = self.mobility
            movers = (m.movers_city_only + m.movers_city_as
                      + m.movers_country)
            if movers > online - own_nat:
                bad.append(f"mobility plants exceed the {online - own_nat} "
                           f"online users without a NAT of their own")
            if self.tracker.rounds < 2 and movers:
                bad.append("mobility movers need at least 2 rounds")
        return bad


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a mapping")
    unknown = set(data) - {f.name for f in fields(Scenario)}
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
