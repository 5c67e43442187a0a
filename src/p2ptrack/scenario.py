"""Scenario configuration: dataclass sections, YAML loading, validation.

A scenario file is key-value sections plus optional tables; together with
the seed it fully determines a run.  Population, mobility plants and the
BitTorrent ecosystem are generated procedurally from the declared counts
and fractions (see worldgen), so desk-scale stand-ins for full-scale
experiments stay reproducible and carry exact ground truth.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional, get_args, get_type_hints

import yaml

from .rtcdir import DEFENSES, RtcConfig
from .sniffer import ROUND_TAIL
from .tracker import SchedulerConfig
from .verifier import RING_MODULUS, VerifierConfig


class ScenarioError(Exception):
    pass


# The value types each field annotation accepts, and how a message names
# them: a float field also takes an int, and every tuple field is a range
# [lo, hi] of ints, 0 <= lo <= hi.
_TYPES = {int: (int, "int"), float: ((int, float), "float"),
          str: (str, "str"),
          tuple: (tuple, "[lo, hi] with ints 0 <= lo <= hi"),
          Optional[str]: ((str, type(None)), "a str or null")}

BASE_T = 266400.0          # first round start: 74 h into simulated time
# Simulated time is a float.  A run ends by MAX_TIME, where floats lie about
# 1e-6 s apart, and a time step must be large enough to move a time there.
MAX_TIME = 2.0 ** 32

# Every int and float a scenario holds must be finite and meet its bounds:
# >= 0 unless this table states others.  The seed may be any int.
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "<=": operator.le}
_AT_LEAST_0 = ((">=", 0),)
_BOUNDS = {
    "seed": (),
    **dict.fromkeys((
        "population.users", "rtc.supernodes", "rtc.relays",
        "tracker.clients", "tracker.rounds",
        "bt.swarms", "bt.dht_nodes", "bt.crawler_bots",
        "verifier.min_rounds", "verifier.clients"), ((">", 0),)),
    **dict.fromkeys((
        "tracker.s", "tracker.round_period",
        "tracker.classifier.pattern_window", "verifier.call_gap"),
        ((">", math.ulp(MAX_TIME) / 2),)),
    **dict.fromkeys((
        "population.nat_fraction", "population.online_fraction",
        "population.stale_fraction", "population.blocked_fraction",
        "population.whitelist_fraction", "population.random_ipid_fraction",
        "tracker.classifier.min_score"), ((">=", 0), ("<=", 1))),
    "tracker.classifier.timing_tolerance": ((">", 0), ("<", 0.5)),
    # a jittered gap, nominal * (1 + uniform(-j, j)), stays positive
    "rtc.pattern_jitter": ((">=", 0), ("<", 1)),
    "verifier.threshold": ((">=", 0), ("<", RING_MODULUS // 2)),
}


def _key(path, name):
    return f"{path}.{name}" if path else name


def _section(cls, data, path=""):
    """Build dataclass cls from a mapping, each field by its annotation: a
    section field is built by this same rule (a null one takes its
    defaults, or stays None if it is Optional), any other value must have
    its field's type.  An unknown key or a value of another type is a
    ScenarioError naming its path."""
    where = path or "scenario"
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError(f"{where} must be a mapping")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ScenarioError(f"unknown {where} keys {sorted(unknown)}")
    kwargs = {}
    for name, hint in get_type_hints(cls).items():
        if name not in data:
            continue
        key, value = _key(path, name), data[name]
        section = next((t for t in get_args(hint) or (hint,)
                        if is_dataclass(t)), None)
        if section is None:
            kwargs[name] = _checked(hint, value, key)
        elif value is not None or section is hint:
            kwargs[name] = _section(section, value, key)
    return cls(**kwargs)


def _checked(hint, value, path):
    """value, with a list made a tuple, if it has the type hint; otherwise
    a ScenarioError naming the path."""
    if isinstance(value, list) and hint is tuple:
        value = tuple(value)
    types, want = _TYPES[hint]
    ok = isinstance(value, types) and not isinstance(value, bool)
    if ok and hint is tuple:
        ok = len(value) == 2 and all(type(v) is int for v in value) and \
            0 <= value[0] <= value[1]
    if not ok:
        raise ScenarioError(f"{path}: expected {want}, got {value!r}")
    return value


def _numbers(section, path=""):
    """(key, value) of each int and float in a section and its sections."""
    for f in fields(section):
        key, value = _key(path, f.name), getattr(section, f.name)
        if is_dataclass(value):
            yield from _numbers(value, key)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield key, value


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

    def horizon(self) -> tuple:
        """(t, term): about the last time a run reaches, counting one
        volunteer call after each target call and one verifier candidate
        per user, and the keys of its largest term."""
        t = self.tracker
        window = t.classifier.pattern_window
        terms = {"tracker.rounds * tracker.round_period":
                 t.rounds * t.round_period,
                 "tracker.s * a client's calls":
                 2 * math.ceil(self.population.users / t.clients) * t.s,
                 "tracker.classifier.pattern_window": window}
        if self.bt is not None:
            v = self.verifier
            slots = math.ceil(self.population.users / v.clients)
            terms["verifier.min_rounds * (verifier.round_spacing or the "
                  "verifier.call_gap slots)"] = v.min_rounds * max(
                v.round_spacing, slots * v.call_gap + window + ROUND_TAIL)
        return (BASE_T + sum(terms.values()) + ROUND_TAIL,
                max(terms, key=terms.get))

    def validate(self) -> list:
        """All violations, empty when the scenario is runnable."""
        bad = []
        for key, value in _numbers(self):
            bounds = _BOUNDS.get(key, _AT_LEAST_0)
            if not (math.isfinite(value) and
                    all(_OPS[op](value, lim) for op, lim in bounds)):
                rule = " and ".join(f"{op} {lim}" for op, lim in bounds)
                bad.append(f"{key}: need finite {key.rsplit('.', 1)[-1]} "
                           f"{rule}, got {value!r}")
        if self.rtc.defense_mode not in DEFENSES:
            bad.append(f"rtc.defense_mode: need one of {', '.join(DEFENSES)}"
                       f", got {self.rtc.defense_mode!r}")
        # the salt keys blake2b, which takes at most 64 bytes
        try:
            if len(self.salt_bytes()) > 64:
                bad.append("tracker.salt, or the salt derived from seed "
                           "and name, is longer than 64 bytes")
        except ValueError:
            bad.append("tracker.salt must be a hex string")
        if bad:
            return bad   # the checks across keys assume numbers in bounds
        end, term = self.horizon()
        if not end <= MAX_TIME:
            bad.append(f"{term}: the run would reach t = {end:.4g} s, past "
                       f"{MAX_TIME:.0f} s; this term is the largest")
        pop = self.population
        if pop.online_fraction + pop.stale_fraction > 1.0 + 1e-9:
            bad.append("population online_fraction + stale_fraction > 1")
        if pop.blocked_fraction + pop.whitelist_fraction > 1.0 + 1e-9:
            bad.append("population blocked_fraction + whitelist_fraction "
                       "> 1")
        if pop.cities < 8 or pop.cities % 4:
            bad.append("population.cities must be a multiple of 4, >= 8")
        if self.rtc.supernodes < self.rtc.noise_flows[1]:
            bad.append("rtc.supernodes smaller than the noise flow maximum")
        if self.tracker.reorders and self.tracker.rounds < 2:
            bad.append("tracker.reorders need >= 2 rounds for the majority "
                       "vote to recover")
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
    return _section(Scenario, data)


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
