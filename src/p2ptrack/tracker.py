"""Scalable periodic calling and location analytics.

A pool of tracking clients calls its share of target ids sequentially,
s seconds apart, letting each packet pattern complete past its slot.
Patterns are attributed to the call whose slot contains their first
packet; an IP designated by several users across rounds is assigned by
majority vote, which removes the rare reordering false positives.

Raw addresses live only in a round's calls, in memory: each TrackedCall's
extracted matches.  location_samples turns calls into samples that carry
salted-hash tokens for the IP and its geo labels (city / AS / country), so
equal locations compare equal within a run but nothing identifying is
persisted.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .netsim import ip_str, parse_ip
from .sniffer import PATTERN_WINDOW, CallerPool, classify_trace

STATUS_ONLINE = "online"
STATUS_STALE = "stale"
STATUS_OFFLINE = "offline"


@dataclass
class SchedulerConfig:
    clients: int = 2
    s: float = 3.0                 # gap between successive calls of a client
    round_period: float = 3600.0
    rounds: int = 2
    validation_every: int = 100    # a volunteer call every N calls
    reorders: int = 0              # planted late-start calls, total
    salt: Optional[str] = None     # hex; derived from the seed if unset


@dataclass(frozen=True)
class LocationSample:
    user: str
    t: float
    status: str
    ip_h: Optional[str] = None
    city_h: Optional[str] = None
    as_h: Optional[str] = None
    country_h: Optional[str] = None
    ambiguous: bool = False
    validation: bool = False


@dataclass
class TrackedCall:
    client: int
    t: float
    callee: str
    validation: bool
    placed: object          # rtcdir.PlacedCall
    extracted: tuple = ()   # the call's sniffer.PatternMatch results


# -- geo lookup and anonymization ------------------------------------------

class GeoError(Exception):
    pass


@dataclass(frozen=True)
class GeoRow:
    network: int
    prefix_len: int
    city: str
    country: str
    asn: int


class GeoTable:
    """Longest-prefix-match fixture table standing in for a commercial
    IP-geolocation database."""

    def __init__(self, rows):
        parsed = []
        for prefix, city, country, asn in rows:
            net_s, _, len_s = prefix.partition("/")
            plen = int(len_s) if len_s else 32
            if not 0 <= plen <= 32:
                raise GeoError(f"bad prefix length in {prefix!r}")
            net = parse_ip(net_s)
            mask = ((1 << plen) - 1) << (32 - plen) if plen else 0
            if net & ~mask & 0xFFFFFFFF:
                raise GeoError(f"prefix {prefix!r} has host bits set")
            parsed.append((plen, mask, net, GeoRow(net, plen, city, country,
                                                   int(asn))))
        parsed.sort(key=lambda r: (-r[0], r[2]))
        self._rows = parsed

    def lookup(self, ip: int) -> Optional[GeoRow]:
        for _, mask, net, row in self._rows:
            if ip & mask == net:
                return row
        return None

    def missing(self, ips) -> list:
        return sorted(ip for ip in ips if self.lookup(ip) is None)

    def __len__(self) -> int:
        return len(self._rows)


UNKNOWN_LABEL = "__unknown__"


def anonymize_token(label: str, salt: bytes) -> str:
    return hashlib.blake2b(label.encode("utf-8"), key=salt,
                           digest_size=16).hexdigest()


def geo_anonymize(ip: int, table: GeoTable, salt: bytes) -> tuple:
    """(city_h, as_h, country_h) salted-hash tokens for an address."""
    row = table.lookup(ip)
    if row is None:
        city, asn, country = UNKNOWN_LABEL, UNKNOWN_LABEL, UNKNOWN_LABEL
    else:
        city, asn, country = row.city, str(row.asn), row.country
    return (anonymize_token(f"city:{city}", salt),
            anonymize_token(f"as:{asn}", salt),
            anonymize_token(f"country:{country}", salt))


def ip_token(ip: int, salt: bytes) -> str:
    return anonymize_token(f"ip:{ip_str(ip)}", salt)


def location_samples(calls, geo: GeoTable, salt: bytes) -> list:
    """One LocationSample per extracted match of each call, or one offline
    sample for a call that extracted nothing."""
    samples: list = []
    for call in calls:
        extracted = call.extracted
        ambiguous = len(extracted) > 1
        if not extracted:
            samples.append(LocationSample(call.callee, call.t, STATUS_OFFLINE,
                                          validation=call.validation))
            continue
        for m in extracted:
            ip = m.candidate_ip
            status = STATUS_STALE if m.stale else STATUS_ONLINE
            city_h, as_h, country_h = geo_anonymize(ip, geo, salt)
            samples.append(LocationSample(
                call.callee, call.t, status, ip_token(ip, salt),
                city_h, as_h, country_h, ambiguous, call.validation))
    return samples


# -- the scheduler -----------------------------------------------------------

class Tracker:
    def __init__(self, pool: CallerPool, sched: SchedulerConfig,
                 volunteers=(), reorder_plan=frozenset(), seed=0):
        """pool: the tracking clients.  reorder_plan holds (round_index,
        callee) pairs whose pattern start is delayed past the slot, the
        parallel-calling failure mode the majority vote exists for."""
        self.pool = pool
        self.sched = sched
        self.volunteers = list(volunteers)
        self.reorder_plan = frozenset(reorder_plan)
        self._counts = [0] * len(pool.clients)   # calls so far, per client
        self._vol_rng = random.Random(f"{seed}:volunteers")
        self._reorder_rng = random.Random(f"{seed}:reorder")

    def _client_sequence(self, client: int, ids) -> list:
        """Interleave the client's target ids with a volunteer call after
        every validation_every calls."""
        out = []
        count = self._counts[client]
        every = self.sched.validation_every
        for callee in ids:
            out.append((callee, False))
            count += 1
            if self.volunteers and every and count % every == 0:
                out.append((self._vol_rng.choice(self.volunteers), True))
                count += 1
        self._counts[client] = count
        return out

    def run_round(self, ids, round_start: float,
                  round_index: int = 0) -> list:
        """The round's TrackedCalls, each with its extracted matches.  The
        slots are planned here, client by client; CallerPool.read places
        each call when the loop nears it."""
        s = self.sched.s
        n = len(self.pool.clients)
        per_client = [list(ids[i::n]) for i in range(n)]
        calls: list = []
        delays: list = []
        for c in range(n):
            seq = self._client_sequence(c, per_client[c])
            for slot, (callee, validation) in enumerate(seq):
                delay = None
                if (round_index, callee) in self.reorder_plan \
                        and slot < len(seq) - 1:
                    delay = s * self._reorder_rng.uniform(1.1, 1.6)
                calls.append(TrackedCall(c, round_start + slot * s, callee,
                                         validation, None))
                delays.append(delay)

        def place(k, call_id):
            call = calls[k]
            call.placed = self.pool.call(call.client, call.callee, call.t,
                                         call_id, delays[k])

        observer_ips = self.pool.observer_ips
        for k, trace in self.pool.read([(c.client, c.t) for c in calls], s,
                                       PATTERN_WINDOW, place):
            call = calls[k]
            call.extracted = tuple(classify_trace(
                trace, observer_ips[call.client]))
        return calls

    def run_study(self, ids, rounds: int, t0: float):
        """Each round's TrackedCalls, one round at a time."""
        for r in range(rounds):
            yield self.run_round(ids, t0 + r * self.sched.round_period,
                                 round_index=r)


# -- majority-vote disambiguation --------------------------------------------

@dataclass(frozen=True)
class Assignment:
    ip_to_user: dict
    unassigned: frozenset


def disambiguate(rounds) -> Assignment:
    """Assign each IP token to the user that designated it most often
    across rounds; ties stay unassigned.  Pure counting, so the result is
    invariant under round reordering."""
    votes: Counter = Counter()
    for samples in rounds:
        for sample in samples:
            if sample.ip_h is not None:
                votes[(sample.ip_h, sample.user)] += 1
    per_ip: dict = {}
    for (ip_h, user), n in votes.items():
        per_ip.setdefault(ip_h, []).append((n, user))
    ip_to_user: dict = {}
    unassigned = set()
    for ip_h, entries in per_ip.items():
        entries.sort(key=lambda e: (-e[0], e[1]))
        if len(entries) > 1 and entries[0][0] == entries[1][0]:
            unassigned.add(ip_h)
            continue
        ip_to_user[ip_h] = entries[0][1]
    return Assignment(ip_to_user, frozenset(unassigned))


# -- mobility analytics -------------------------------------------------------

@dataclass(frozen=True)
class UserMobility:
    cities: int
    ases: int
    countries: int
    online: int
    stale: int
    total: int
    availability: float


@dataclass
class MobilityReport:
    per_user: dict
    population: int
    online_ever: frozenset
    changed_city_frac: float
    changed_as_frac: float
    changed_country_frac: float
    fig3_left_simultaneous: list
    fig3_left_cumulative: list
    fig3_middle: list
    fig3_right_city: list
    fig3_right_as: list
    fig3_right_country: list

    @property
    def coverage(self) -> float:
        return len(self.online_ever) / self.population if self.population \
            else 0.0


def mobility_report(rounds) -> MobilityReport:
    """Availability and distinct-location statistics over per-round sample
    lists.  Stale samples contribute a (last-seen) location but do not
    count as online time."""
    users: dict = {}
    simultaneous = []
    cumulative = []
    seen_online: set = set()
    for samples in rounds:
        online_now = set()
        t_round = min((s.t for s in samples), default=0.0)
        for s in samples:
            u = users.setdefault(s.user, {
                "cities": set(), "ases": set(), "countries": set(),
                "online": 0, "stale": 0, "total": 0})
            u["total"] += 1
            if s.status == STATUS_ONLINE:
                u["online"] += 1
                online_now.add(s.user)
            elif s.status == STATUS_STALE:
                u["stale"] += 1
            if s.city_h is not None:
                u["cities"].add(s.city_h)
                u["ases"].add(s.as_h)
                u["countries"].add(s.country_h)
        seen_online |= online_now
        simultaneous.append((t_round, len(online_now)))
        cumulative.append((t_round, len(seen_online)))

    per_user = {}
    for user, u in users.items():
        per_user[user] = UserMobility(
            len(u["cities"]), len(u["ases"]), len(u["countries"]),
            u["online"], u["stale"], u["total"],
            u["online"] / u["total"] if u["total"] else 0.0)

    online_ever = frozenset(seen_online)
    n = len(online_ever)

    def changed(attr):
        if not n:
            return 0.0
        return sum(1 for u in online_ever
                   if getattr(per_user[u], attr) >= 2) / n

    avail = sorted(per_user[u].availability for u in online_ever)
    middle = [(a, (i + 1) / n) for i, a in enumerate(avail)] if n else []

    def right(attr):
        counts = sorted((getattr(per_user[u], attr) for u in online_ever),
                        reverse=True)
        return [(i + 1, c) for i, c in enumerate(counts)]

    return MobilityReport(
        per_user, len(users), online_ever,
        changed("cities"), changed("ases"), changed("countries"),
        simultaneous, cumulative, middle,
        right("cities"), right("ases"), right("countries"))
