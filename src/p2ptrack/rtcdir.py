"""Simulated real-time-communication overlay.

A user directory with email/id/birth-name search semantics, presence with
the 72-hour last-seen rule, and the call-establishment packet emitter.
Calling an online public user produces the SYN-triple + 59/58-byte UDP
pattern; a NATed callee initiates with a 28-byte UDP packet and ends with
3-byte keepalives after ~10 s; a recently-offline callee yields the public
pattern with no responses.  Every call also talks to a set of supernodes
(classifier noise).  Two defense modes can be toggled: reveal-after-accept
and relay-everything.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from .netsim import Simulator

DEFENSE_NONE = "none"
DEFENSE_REVEAL_AFTER_ACCEPT = "reveal_after_accept"
DEFENSE_RELAY_ALL = "relay_all"
DEFENSES = (DEFENSE_NONE, DEFENSE_REVEAL_AFTER_ACCEPT, DEFENSE_RELAY_ALL)

KIND_PUBLIC = "i"
KIND_NATED = "ii"
KIND_OFFLINE = "iii"

# Call-establishment timing, from observed client behavior.
SYN_TIMEOUT_FIRST = 3.0
SYN_TIMEOUT_SECOND = 1.0
MARKER_SIZES = (59, 58)
MARKER_GAPS = (2.0, 4.0)
NAT_FIRST_SIZE = 28
NAT_TAIL_SIZE = 3
NAT_TAIL_DELAY = 10.0
NAT_TAIL_COUNT = 3
NAT_TAIL_GAP = 1.0
LAST_SEEN_WINDOW = 259200.0     # 72 hours
PRESENCE_REFRESH = 60.0
# emitter parameters that no scenario sets
START_DELAY = (0.3, 2.2)        # call request to first pattern packet
VARYING_SIZES = (30, 120)
VARYING_COUNT = (4, 8)
NOISE_WINDOW = 12.0             # supernode chatter after the call request
KEEPALIVE_SIZE = 52

SYN_SIZE = 44
SYN_ONLY = frozenset(("SYN",))     # tcp_flags of a connection request
SYNACK_SIZE = 44
LOGIN_SIZE = 32

PROFILE_FIELDS = ("rtc_id", "email", "birth_name", "first_name", "last_name",
                  "city", "country", "language", "age", "gender", "homepage")
OPTIONAL_FIELDS = PROFILE_FIELDS[2:]

RTC_ID_RE = re.compile(r"^[a-z][a-z0-9_.\-]{5,31}$", re.IGNORECASE)


class DirectoryError(Exception):
    pass


class CallError(Exception):
    pass


@dataclass
class UserProfile:
    rtc_id: str
    email: str
    birth_name: Optional[str] = None
    first_name: Optional[str] = None
    last_name: Optional[str] = None
    city: Optional[str] = None
    country: Optional[str] = None
    language: Optional[str] = None
    age: Optional[str] = None
    gender: Optional[str] = None
    homepage: Optional[str] = None
    contact_list: set = field(default_factory=set)
    blocked: set = field(default_factory=set)
    whitelist_only: bool = False


@dataclass(frozen=True)
class PublicProfile:
    """Directory search result: public fields only, no email or lists."""
    rtc_id: str
    birth_name: Optional[str]
    first_name: Optional[str]
    last_name: Optional[str]
    city: Optional[str]
    country: Optional[str]
    language: Optional[str]
    age: Optional[str]
    gender: Optional[str]
    homepage: Optional[str]


def _public_view(p: UserProfile) -> PublicProfile:
    return PublicProfile(p.rtc_id, p.birth_name, p.first_name, p.last_name,
                         p.city, p.country, p.language, p.age, p.gender,
                         p.homepage)


class Directory:
    def __init__(self):
        self._users: dict = {}
        self._emails: dict = {}

    def add(self, profile: UserProfile) -> None:
        if profile.rtc_id in self._users:
            raise DirectoryError(f"duplicate rtc id {profile.rtc_id!r}")
        email = profile.email.lower()
        if email in self._emails:
            raise DirectoryError(f"duplicate email {profile.email!r}")
        self._users[profile.rtc_id] = profile
        self._emails[email] = profile.rtc_id

    def get(self, rtc_id: str) -> Optional[UserProfile]:
        return self._users.get(rtc_id)

    def __contains__(self, rtc_id: str) -> bool:
        return rtc_id in self._users

    def __len__(self) -> int:
        return len(self._users)

    def ids(self) -> list:
        return list(self._users)

    def search_users(self, query: str) -> list:
        """Directory search: '@' means exact email match; a syntactically
        valid id matches on id or birth-name substring; anything else is a
        case-insensitive birth-name substring search."""
        q = query.strip()
        if not q:
            return []
        if "@" in q:
            rtc_id = self._emails.get(q.lower())
            return [] if rtc_id is None else [_public_view(self._users[rtc_id])]
        ql = q.lower()
        match_id = RTC_ID_RE.match(q) is not None
        hits = []
        for rtc_id, prof in self._users.items():
            if match_id and rtc_id.lower() == ql:
                hits.append(prof)
                continue
            if prof.birth_name and ql in prof.birth_name.lower():
                hits.append(prof)
        hits.sort(key=lambda p: p.rtc_id)
        return [_public_view(p) for p in hits]

    # one profile per line, tab separated, empty field = unset
    def dump_fixture(self, path) -> None:
        with open(path, "w") as fh:
            for rtc_id in sorted(self._users):
                p = self._users[rtc_id]
                cols = [getattr(p, f) or "" for f in PROFILE_FIELDS]
                cols.append(",".join(sorted(p.contact_list)))
                cols.append(",".join(sorted(p.blocked)))
                cols.append("1" if p.whitelist_only else "0")
                fh.write("\t".join(cols) + "\n")

    @classmethod
    def load_fixture(cls, path) -> "Directory":
        directory = cls()
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != len(PROFILE_FIELDS) + 3:
                    raise DirectoryError(
                        f"{path}:{lineno}: expected "
                        f"{len(PROFILE_FIELDS) + 3} fields, got {len(cols)}")
                kw = {f: (c or None) for f, c in zip(PROFILE_FIELDS, cols)}
                kw["rtc_id"] = cols[0]
                kw["email"] = cols[1]
                contacts = set(filter(None, cols[-3].split(",")))
                blocked = set(filter(None, cols[-2].split(",")))
                directory.add(UserProfile(
                    contact_list=contacts, blocked=blocked,
                    whitelist_only=cols[-1] == "1", **kw))
        return directory


@dataclass(frozen=True)
class HarvestResult:
    ids: frozenset
    field_flags: dict          # rtc_id -> {field: bool}
    availability: dict         # field -> fraction of harvested ids
    search_strings: frozenset


def harvest_ids(directory: Directory, first_names, last_names,
                full_names=()) -> HarvestResult:
    """Issue a directory search for every unique name string and for every
    first+last combination; record only which optional profile fields each
    discovered id has set, never their values."""
    strings = set()
    for name in full_names:
        strings.add(name.strip().lower())
    for name in first_names:
        strings.add(name.strip().lower())
    for name in last_names:
        strings.add(name.strip().lower())
    for first in first_names:
        for last in last_names:
            strings.add(f"{first.strip()} {last.strip()}".lower())
    strings.discard("")

    flags: dict = {}
    for s in sorted(strings):
        for view in directory.search_users(s):
            if view.rtc_id in flags:
                continue
            flags[view.rtc_id] = {
                f: getattr(view, f) is not None for f in OPTIONAL_FIELDS}
    n = len(flags)
    availability = {
        f: (sum(1 for v in flags.values() if v[f]) / n if n else 0.0)
        for f in OPTIONAL_FIELDS}
    return HarvestResult(frozenset(flags), flags, availability,
                         frozenset(strings))


# -- presence ---------------------------------------------------------------

@dataclass(frozen=True)
class Session:
    host_id: str
    t_login: float
    t_logout: Optional[float]   # None = stays online

    def online_at(self, t: float) -> bool:
        return self.t_login <= t and (self.t_logout is None or t < self.t_logout)


class PresenceBook:
    """Login schedule per user; presence queries are pure functions of it."""

    def __init__(self):
        self._sessions: dict = {}
        self._by_host: dict = {}

    def add_session(self, user: str, host_id: str, t_login: float,
                    t_logout: Optional[float] = None) -> None:
        if t_logout is not None and t_logout <= t_login:
            raise DirectoryError(f"session for {user} ends before it starts")
        session = Session(host_id, t_login, t_logout)
        self._sessions.setdefault(user, []).append(session)
        self._sessions[user].sort(key=lambda s: s.t_login)
        self._by_host.setdefault(host_id, []).append(session)

    def users(self) -> list:
        return sorted(self._sessions)

    def sessions(self, user: str) -> list:
        return list(self._sessions.get(user, ()))

    def online_sessions(self, user: str, t: float) -> list:
        return [s for s in self._sessions.get(user, ()) if s.online_at(t)]

    def host_active(self, host_id: str, t: float) -> bool:
        return any(s.online_at(t) for s in self._by_host.get(host_id, ()))

    def last_seen(self, user: str, t: float):
        """(host_id, t_seen) of the most recent activity at or before t,
        refreshed every PRESENCE_REFRESH while online, set at logout."""
        best = None
        for s in self._sessions.get(user, ()):
            if s.t_login > t:
                continue
            if s.online_at(t):
                seen = s.t_login + PRESENCE_REFRESH * (
                    (t - s.t_login) // PRESENCE_REFRESH)
                cand = (seen, s.host_id)
            else:
                cand = (s.t_logout, s.host_id)
            if best is None or cand[0] > best[0]:
                best = cand
        if best is None:
            return None
        return (best[1], best[0])


# -- call signaling ----------------------------------------------------------

@dataclass(frozen=True)
class CallRequest:
    caller: str
    callee: str
    t_start: float
    defense_mode: Optional[str] = None    # None = overlay default
    answered: bool = False


@dataclass(frozen=True)
class NotificationEvent:
    callee: str
    host: str
    t: float
    kind: str          # "ring" | "popup"
    call_id: int


@dataclass(frozen=True)
class CallTarget:
    kind: str          # pattern kind the caller-side trace should show
    expect_ip: int     # remote address of the pattern at the caller tap
    host_id: Optional[str]
    port: int
    stale: bool


@dataclass
class PlacedCall:
    call_id: int
    caller: str
    caller_host: str
    callee: str
    t_start: float
    defense: str
    answered: bool
    start_delay: float
    targets: list
    true_session_ips: frozenset
    noise_ips: frozenset


@dataclass
class RtcConfig:
    defense_mode: str = DEFENSE_NONE
    supernodes: int = 20
    relays: int = 4
    noise_flows: tuple = (10, 14)
    noise_packets: tuple = (5, 20)
    noise_sizes: tuple = (20, 120)
    pattern_jitter: float = 0.05


class _TcpAttempt:
    __slots__ = ("call_id", "callee", "callee_host", "established")

    def __init__(self, call_id, callee, callee_host):
        self.call_id = call_id
        self.callee = callee
        self.callee_host = callee_host
        self.established = False


class RtcOverlay:
    def __init__(self, sim: Simulator, directory: Directory,
                 presence: PresenceBook, config: Optional[RtcConfig] = None,
                 seed=0):
        self.sim = sim
        self.directory = directory
        self.presence = presence
        self.config = config or RtcConfig()
        self.seed = seed
        self.supernodes: list = []
        self.relays: list = []
        self.calls: list = []
        self.notifications: list = []
        self._ports: dict = {}          # host_id -> rtc port
        self._service_hosts: set = set()  # always-responding infrastructure
        self._tracking_hosts: set = set()
        self._home_supernode: dict = {}  # host_id -> (sn_host, established)
        self._pending_tcp: dict = {}    # (host, peer_ip, peer_port, lport)
        self._sent28: dict = {}         # (host, peer_ip, peer_port) -> t
        self._echoed: dict = {}         # same key -> t of last echo
        self._resp_rng: dict = {}       # host_id -> RNG for probe responses
        self._next_call = 0
        self._port_rng = random.Random(f"{seed}:rtcport")

    # -- membership --------------------------------------------------------

    def register_client(self, host_id: str, port: Optional[int] = None) -> int:
        if host_id in self._ports:
            return self._ports[host_id]
        if port is None:
            port = self._port_rng.randint(20000, 39999)
        self._ports[host_id] = port
        self._resp_rng[host_id] = random.Random(f"{self.seed}:resp:{host_id}")
        self.sim.hosts[host_id].handler = self._client_handler
        return port

    def add_supernode(self, host_id: str) -> None:
        self.register_client(host_id)
        self._service_hosts.add(host_id)
        self.supernodes.append(host_id)

    def add_relay(self, host_id: str) -> None:
        self.register_client(host_id)
        self._service_hosts.add(host_id)
        self.relays.append(host_id)

    def setup_tracking_client(self, host_id: str, t: float) -> None:
        """Open the persistent supernode TCP connection before any SYN
        filter window starts."""
        if not self.supernodes:
            raise CallError("no supernodes registered")
        self._tracking_hosts.add(host_id)
        rng = random.Random(f"{self.seed}:home:{host_id}")
        sn = rng.choice(self.supernodes)
        self._home_supernode[host_id] = sn
        sn_ip = self.sim.public_ip_of(sn)
        key = (host_id, sn_ip, self._ports[sn], self._ports[host_id])
        self._pending_tcp[key] = _TcpAttempt(None, None, None)
        self.sim.schedule_send(
            host_id, sn_ip, self._ports[sn], "TCP", SYN_SIZE,
            flags=("SYN",), at=t, src_port=self._ports[host_id])

    def bootstrap_logins(self) -> None:
        """Each session opens with one login datagram to a supernode; this
        is what creates NAT bindings for NATed clients."""
        if not self.supernodes:
            raise CallError("no supernodes registered")
        for user in self.presence.users():
            for s in self.presence.sessions(user):
                host = s.host_id
                rng = random.Random(
                    f"{self.seed}:login:{user}:{host}:{s.t_login}")
                sn = rng.choice(self.supernodes)
                self.sim.schedule_send(
                    host, self.sim.public_ip_of(sn), self._ports[sn],
                    "UDP", LOGIN_SIZE, at=max(s.t_login, self.sim.now),
                    src_port=self._ports[host])

    # -- presence-derived endpoints -----------------------------------------

    def _endpoint(self, host_id: str) -> tuple:
        """Public (ip, port) of a host's RTC socket as seen from outside."""
        host = self.sim.hosts[host_id]
        port = self._ports[host_id]
        if host.nat is None:
            return (host.ip, port)
        box = self.sim.nats[host.nat]
        ep = box.public_endpoint(host.ip, port, "UDP")
        if ep is None:
            # no binding yet: report the address the login will establish
            return (box.public_ip, box.bind(host.ip, port, "UDP"))
        return ep

    def user_session_ips(self, user: str, t: float) -> frozenset:
        return frozenset(self._endpoint(s.host_id)[0]
                         for s in self.presence.online_sessions(user, t))

    # -- the call ------------------------------------------------------------

    def place_call(self, req: CallRequest,
                   start_delay: Optional[float] = None) -> PlacedCall:
        if req.callee not in self.directory:
            raise CallError(f"unknown callee {req.callee!r}")
        caller_sessions = self.presence.online_sessions(req.caller, req.t_start)
        if not caller_sessions:
            raise CallError(f"caller {req.caller!r} is offline")
        caller_host = caller_sessions[0].host_id
        if self.sim.hosts[caller_host].nat is not None:
            raise CallError("tracking callers must not be behind a NAT")

        defense = req.defense_mode or self.config.defense_mode
        if defense not in DEFENSES:
            raise CallError(f"unknown defense mode {defense!r}")
        call_id = self._next_call
        self._next_call += 1
        rng = random.Random(f"{self.seed}:call:{call_id}")
        if start_delay is None:
            start_delay = rng.uniform(*START_DELAY)

        online = self.presence.online_sessions(req.callee, req.t_start)
        true_ips = frozenset(self._endpoint(s.host_id)[0] for s in online)
        targets: list = []
        base = req.t_start + start_delay

        if defense == DEFENSE_REVEAL_AFTER_ACCEPT and not req.answered:
            pass  # pre-accept signaling stays on supernodes: no targets
        elif defense == DEFENSE_RELAY_ALL:
            targets = self._plan_relayed(call_id, rng, caller_host, base,
                                         online, req)
        else:
            if defense == DEFENSE_REVEAL_AFTER_ACCEPT:
                base += rng.uniform(1.0, 3.0)  # accept happens first
            if online:
                for s in online:
                    targets.append(self._plan_session(
                        call_id, rng, caller_host, base, s, req))
            else:
                seen = self.presence.last_seen(req.callee, req.t_start)
                if seen is not None and \
                        req.t_start - seen[1] <= LAST_SEEN_WINDOW:
                    targets.append(self._plan_offline(
                        call_id, rng, caller_host, base, seen[0]))

        noise_ips = self._plan_noise(rng, caller_host, req.t_start)
        call = PlacedCall(call_id, req.caller, caller_host, req.callee,
                          req.t_start, defense, req.answered, start_delay,
                          targets, true_ips, noise_ips)
        self.calls.append(call)
        return call

    def _plan_session(self, call_id, rng, caller_host, base, session,
                      req) -> CallTarget:
        callee_host = session.host_id
        if self.sim.hosts[callee_host].nat is None:
            ip, port = self._endpoint(callee_host)
            self._emit_public_pattern(call_id, rng, caller_host, ip, port,
                                      base, req.callee, callee_host)
            return CallTarget(KIND_PUBLIC, ip, callee_host, port, False)
        self._emit_nated_pattern(call_id, rng, callee_host, caller_host,
                                 base, req.callee)
        ip, port = self._endpoint(callee_host)
        return CallTarget(KIND_NATED, ip, callee_host, port, False)

    def _plan_offline(self, call_id, rng, caller_host, base,
                      last_host) -> CallTarget:
        ip, port = self._endpoint(last_host)
        self._emit_public_pattern(call_id, rng, caller_host, ip, port, base,
                                  None, None)
        return CallTarget(KIND_OFFLINE, ip, last_host, port, True)

    def _plan_relayed(self, call_id, rng, caller_host, base, online,
                      req) -> list:
        if not self.relays:
            raise CallError("relay_all defense requires relays")
        relay = rng.choice(self.relays)
        ip, port = self._endpoint(relay)
        if online and self.sim.hosts[online[0].host_id].nat is not None:
            # relay plays the callee side of the NATed exchange
            self._emit_nated_pattern(call_id, rng, relay, caller_host, base,
                                     None)
            return [CallTarget(KIND_NATED, ip, relay, port, False)]
        self._emit_public_pattern(call_id, rng, caller_host, ip, port, base,
                                  None, relay if online else None)
        kind = KIND_PUBLIC if online else KIND_OFFLINE
        return [CallTarget(kind, ip, relay, port, not online)]

    def _jit(self, rng, nominal: float) -> float:
        j = self.config.pattern_jitter
        return nominal * (1.0 + rng.uniform(-j, j)) if j else nominal

    def _emit_syn_series(self, call_id, rng, src_host, dst_ip, dst_port,
                         base, callee, callee_host):
        """SYN plus two conditional retransmits (3 s then 1 s timeouts)."""
        lport = self._ports[src_host]
        key = (src_host, dst_ip, dst_port, lport)
        self._pending_tcp[key] = _TcpAttempt(call_id, callee, callee_host)
        self.sim.schedule_send(src_host, dst_ip, dst_port, "TCP", SYN_SIZE,
                               flags=("SYN",), at=base, src_port=lport)
        t1 = base + self._jit(rng, SYN_TIMEOUT_FIRST)
        t2 = t1 + self._jit(rng, SYN_TIMEOUT_SECOND)
        self.sim.schedule(t1, self._retry_syn, key)
        self.sim.schedule(t2, self._retry_syn, key)

    def _retry_syn(self, key) -> None:
        attempt = self._pending_tcp.get(key)
        if attempt is not None and not attempt.established:
            src_host, dst_ip, dst_port, lport = key
            self.sim.schedule_send(src_host, dst_ip, dst_port, "TCP",
                                   SYN_SIZE, flags=("SYN",), src_port=lport)

    def _emit_public_pattern(self, call_id, rng, caller_host, dst_ip,
                             dst_port, base, callee, callee_host):
        """Case (i)/(iii) caller-side emissions; responses, if any, come
        from the remote client's handler."""
        self._emit_syn_series(call_id, rng, caller_host, dst_ip, dst_port,
                              base, callee, callee_host)
        lport = self._ports[caller_host]
        t = base + rng.uniform(0.05, 0.25)
        gaps = (0.0,) + MARKER_GAPS
        for gap in gaps:
            t += self._jit(rng, gap) if gap else 0.0
            self.sim.schedule_send(caller_host, dst_ip, dst_port, "UDP",
                                   rng.choice(MARKER_SIZES), at=t,
                                   src_port=lport)

    def _emit_nated_pattern(self, call_id, rng, callee_host, caller_host,
                            base, callee):
        """Case (ii): the NATed callee initiates toward the public caller."""
        caller_ip = self.sim.hosts[caller_host].ip
        caller_port = self._ports[caller_host]
        cport = self._ports[callee_host]
        callee_pub_ip = self.sim.public_ip_of(callee_host)
        send = self.sim.schedule_send

        # first contact: 28-byte UDP; remember we initiated so the caller's
        # echo is not re-echoed
        self._sent28[(callee_host, caller_ip, caller_port)] = base
        send(callee_host, caller_ip, caller_port, "UDP", NAT_FIRST_SIZE,
             at=base, src_port=cport)

        # callee-side TCP attempt toward the caller
        self._emit_syn_series(call_id, rng, callee_host, caller_ip,
                              caller_port, base + self._jit(rng, 0.4),
                              callee, callee_host)

        # varying-size exchange, both directions
        lo, hi = VARYING_SIZES
        n = rng.randint(*VARYING_COUNT)
        t = base + rng.uniform(0.4, 0.7)
        for k in range(n):
            size = rng.randint(lo, hi)
            while size in (NAT_FIRST_SIZE, NAT_TAIL_SIZE):
                size = rng.randint(lo, hi)
            if k % 2 == 0:
                send(callee_host, caller_ip, caller_port, "UDP", size,
                     at=t, src_port=cport)
            else:
                send(caller_host, callee_pub_ip,
                     self._endpoint(callee_host)[1], "UDP", size,
                     at=t, src_port=caller_port)
            t += rng.uniform(0.25, 1.1)

        # 3-byte tail after about 10 seconds
        t = base + self._jit(rng, NAT_TAIL_DELAY)
        for _ in range(NAT_TAIL_COUNT):
            send(callee_host, caller_ip, caller_port, "UDP",
                 NAT_TAIL_SIZE, at=t, src_port=cport)
            t += self._jit(rng, NAT_TAIL_GAP)

    def _plan_noise(self, rng, caller_host, t_start) -> frozenset:
        cfg = self.config
        send = self.sim.schedule_send
        count = min(rng.randint(*cfg.noise_flows), len(self.supernodes))
        chosen = rng.sample(self.supernodes, count)
        caller_ip = self.sim.hosts[caller_host].ip
        caller_port = self._ports[caller_host]
        ips = []
        for sn in chosen:
            sn_ip = self.sim.public_ip_of(sn)
            sn_port = self._ports[sn]
            ips.append(sn_ip)
            for _ in range(rng.randint(*cfg.noise_packets)):
                at = t_start + rng.uniform(0.0, NOISE_WINDOW)
                if rng.random() < 0.08:
                    size = rng.choice(MARKER_SIZES)
                else:
                    size = rng.randint(*cfg.noise_sizes)
                    if size == NAT_TAIL_SIZE:
                        size += 1
                if rng.random() < 0.5:
                    send(caller_host, sn_ip, sn_port, "UDP", size,
                         at=at, src_port=caller_port)
                else:
                    send(sn, caller_ip, caller_port, "UDP", size,
                         at=at, src_port=sn_port)
        # keepalives on the pre-established supernode TCP connection
        home = self._home_supernode.get(caller_host)
        if home is not None:
            sn_ip = self.sim.public_ip_of(home)
            at = t_start + rng.uniform(0.5, NOISE_WINDOW)
            send(caller_host, sn_ip, self._ports[home], "TCP",
                 KEEPALIVE_SIZE, flags=("ACK",), at=at,
                 src_port=caller_port)
            send(home, caller_ip, caller_port, "TCP",
                 KEEPALIVE_SIZE, flags=("ACK",),
                 at=at + rng.uniform(0.05, 0.4),
                 src_port=self._ports[home])
        return frozenset(ips)

    # -- client behavior ------------------------------------------------------

    def _host_active(self, host_id: str, t: float) -> bool:
        if host_id in self._service_hosts or host_id in self._tracking_hosts:
            return True
        return self.presence.host_active(host_id, t)

    def _client_handler(self, sim, host_id, pkt, payload):
        now = sim.now
        if pkt.proto == "TCP":
            if pkt.tcp_flags == SYN_ONLY:
                if self._host_active(host_id, now):
                    self.sim.schedule_send(
                        host_id, pkt.src_ip, pkt.src_port, "TCP", SYNACK_SIZE,
                        flags=("SYN", "ACK"), at=now + 0.02,
                        src_port=pkt.dst_port)
            elif "SYN" in pkt.tcp_flags and "ACK" in pkt.tcp_flags:
                key = (host_id, pkt.src_ip, pkt.src_port, pkt.dst_port)
                attempt = self._pending_tcp.get(key)
                if attempt is not None and not attempt.established:
                    attempt.established = True
                    if attempt.call_id is not None and \
                            attempt.callee is not None:
                        for kind in ("ring", "popup"):
                            self.notifications.append(NotificationEvent(
                                attempt.callee, attempt.callee_host, now,
                                kind, attempt.call_id))
            return
        # UDP
        if pkt.size == NAT_FIRST_SIZE:
            key = (host_id, pkt.src_ip, pkt.src_port)
            if now - self._sent28.get(key, -1e9) < 30.0:
                return  # we initiated; do not re-echo the echo
            if now - self._echoed.get(key, -1e9) < 30.0:
                return
            self._echoed[key] = now
            self.sim.schedule_send(host_id, pkt.src_ip, pkt.src_port, "UDP",
                                   NAT_FIRST_SIZE, at=now + 0.08,
                                   src_port=pkt.dst_port)
        elif pkt.size in MARKER_SIZES and self._host_active(host_id, now):
            rng = self._resp_rng[host_id]
            lo, hi = VARYING_SIZES
            size = rng.randint(lo, hi)
            while size in (NAT_FIRST_SIZE, NAT_TAIL_SIZE) or \
                    size in MARKER_SIZES:
                size = rng.randint(lo, hi)
            self.sim.schedule_send(host_id, pkt.src_ip, pkt.src_port, "UDP",
                                   size, at=now + 0.05, src_port=pkt.dst_port)
