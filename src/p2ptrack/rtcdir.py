"""Simulated real-time-communication overlay.

A user directory with email/id/birth-name search semantics, presence with
the 72-hour last-seen rule, and call plans: a call's packets as data.
Calling an online public user produces the SYN-triple + 59/58-byte UDP
pattern; a NATed callee initiates with a 28-byte UDP packet and ends with
3-byte keepalives after ~10 s; a recently-offline callee yields the public
pattern with no responses.  Every call also talks to a set of supernodes
(classifier noise).  A call's pattern runs on the event loop; its noise is
one loop event at the call's start, which draws it and writes it straight
into the taps.  Two
defense modes can be toggled: reveal-after-accept and relay-everything.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .netsim import Simulator, keyed_draw

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
NOISE_SIZES = range(20, 121)    # supernode chatter; never NAT_TAIL_SIZE
VARYING_COUNT = (4, 8)
NOISE_WINDOW = 12.0             # supernode chatter after the call request
KEEPALIVE_SIZE = 52

SYN_SIZE = 44
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
        with open(path, "w", encoding="utf-8") as fh:
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
        with open(path, encoding="utf-8") as fh:
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

    @property
    def stale(self) -> bool:
        return self.kind == KIND_OFFLINE


@dataclass
class PlacedCall:
    call_id: int
    t_start: float
    start_delay: float
    targets: list


# A planned send's role, its last field: None for a plain send, the
# _TcpAttempt a SYN opens, or (attempt,) for a SYN re-sent unless a SYN-ACK
# established that attempt.  A SYN no SYN-ACK can reach is plain.


@dataclass
class RtcConfig:
    defense_mode: str = DEFENSE_NONE
    supernodes: int = 20
    relays: int = 4
    noise_flows: tuple = (10, 14)
    noise_packets: tuple = (5, 20)
    pattern_jitter: float = 0.05


class _TcpAttempt:
    """A call's SYNs from one host to a peer host that a SYN-ACK can still
    reach; the first SYN-ACK establishes it and rings callee, if any."""
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
        self.calls = range(0)           # ids handed out so far
        self.notifications: list = []
        self._ports: dict = {}          # host_id -> rtc port
        self._service_hosts: set = set()  # always-responding infrastructure
        self._home_supernode: dict = {}  # host_id -> its home supernode
        self._pending_tcp: dict = {}    # (host, peer_ip, peer_port, lport)
        self._sent28: dict = {}         # (host, peer_ip, peer_port) -> t
        self._echoed: dict = {}         # same key -> t of last echo
        self._replies: dict = {}        # host_id -> reply draws so far
        self._port_rng = random.Random(f"{seed}:rtcport")

    # -- membership --------------------------------------------------------

    def register_client(self, host_id: str) -> int:
        if host_id in self._ports:
            return self._ports[host_id]
        port = self._port_rng.randint(20000, 39999)
        self._ports[host_id] = port
        self.sim.hosts[host_id].handler = self._client_handler
        return port

    def add_supernode(self, host_id: str) -> None:
        """A supernode is public: noise is written past any NAT."""
        if self.sim.hosts[host_id].nat is not None:
            raise CallError(f"supernode {host_id} is behind a NAT")
        self.register_client(host_id)
        self._service_hosts.add(host_id)
        self.supernodes.append(host_id)

    def add_relay(self, host_id: str) -> None:
        self.register_client(host_id)
        self._service_hosts.add(host_id)
        self.relays.append(host_id)

    def setup_tracking_client(self, host_id: str, t: float) -> None:
        """Open the persistent supernode TCP connection before any SYN
        filter starts."""
        if not self.supernodes:
            raise CallError("no supernodes registered")
        rng = random.Random(f"{self.seed}:home:{host_id}")
        sn = rng.choice(self.supernodes)
        self._home_supernode[host_id] = sn
        sn_ip = self.sim.public_ip_of(sn)
        self.sim.schedule_send(
            host_id, sn_ip, self._ports[sn], "TCP", SYN_SIZE,
            flags="SYN", at=t, src_port=self._ports[host_id])

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

    # -- presence-derived addresses -----------------------------------------

    def user_session_ips(self, user: str, t: float) -> frozenset:
        return frozenset(self.sim.public_ip_of(s.host_id)
                         for s in self.presence.online_sessions(user, t))

    # -- the call ------------------------------------------------------------

    def place_call(self, req: CallRequest, call_id: int,
                   start_delay: Optional[float] = None) -> PlacedCall:
        call, caller, plan = self.plan_call(req, call_id, start_delay)
        schedule = self.sim.schedule
        for t, *send in plan:
            schedule(t, self._send, *send)
        schedule(call.t_start, self._write_noise, call, caller)
        return call

    def plan_call(self, req: CallRequest, call_id: int,
                  start_delay: Optional[float] = None) -> tuple:
        """(PlacedCall, calling host, plan): the call's pattern sends in
        schedule order, each (t, src host, dst host, proto, size, flags,
        role); flags is in SimPacket.tcp_flags form.  Noise is not planned:
        see _write_noise.  call_id keys the call's streams; it is one of
        the ids CallerPool.read took for its round, and no two calls share
        one.  Planning changes no state: each send is resolved and decided
        when the loop emits it (_send)."""
        if req.callee not in self.directory:
            raise CallError(f"unknown callee {req.callee!r}")
        caller_sessions = self.presence.online_sessions(req.caller, req.t_start)
        if not caller_sessions:
            raise CallError(f"caller {req.caller!r} is offline")
        caller = caller_sessions[0].host_id
        if self.sim.hosts[caller].nat is not None:
            raise CallError("tracking callers must not be behind a NAT")

        rng = random.Random(f"{self.seed}:call:{call_id}")
        if start_delay is None:
            start_delay = rng.uniform(*START_DELAY)
        online = self.presence.online_sessions(req.callee, req.t_start)
        base = req.t_start + start_delay
        if self.config.defense_mode == DEFENSE_REVEAL_AFTER_ACCEPT and \
                req.answered:
            base += rng.uniform(1.0, 3.0)  # accept happens first

        plan: list = []
        targets = []
        for kind, remote, notify in self._targets(req, rng, online):
            opens = (call_id, notify, remote)
            if kind == KIND_NATED:
                self._nated_plan(plan, rng, caller, remote, base, opens)
            else:
                self._public_plan(plan, rng, caller, remote, base, opens)
            targets.append(CallTarget(kind, self.sim.public_ip_of(remote)))
        return PlacedCall(call_id, req.t_start, start_delay,
                          targets), caller, plan

    def _targets(self, req, rng, online) -> list:
        """(kind, remote host, callee to notify or None) of each pattern
        the call shows the caller; a relay stands in for the callee."""
        defense = self.config.defense_mode
        if defense == DEFENSE_REVEAL_AFTER_ACCEPT and not req.answered:
            return []  # pre-accept signaling stays on supernodes
        nated = [self.sim.hosts[s.host_id].nat is not None for s in online]
        if defense == DEFENSE_RELAY_ALL:
            if not self.relays:
                raise CallError("relay_all defense requires relays")
            relay = rng.choice(self.relays)
            # the relay plays the callee side of the first session's pattern
            kind = KIND_OFFLINE if not online else \
                KIND_NATED if nated[0] else KIND_PUBLIC
            return [(kind, relay, None)]
        if online:
            return [(KIND_NATED if n else KIND_PUBLIC, s.host_id, req.callee)
                    for s, n in zip(online, nated)]
        seen = self.presence.last_seen(req.callee, req.t_start)
        if seen is not None and req.t_start - seen[1] <= LAST_SEEN_WINDOW:
            return [(KIND_OFFLINE, seen[0], None)]
        return []

    def _jit(self, rng, nominal: float) -> float:
        j = self.config.pattern_jitter
        return nominal * (1.0 + rng.uniform(-j, j)) if j else nominal

    def _syn_plan(self, plan, rng, src, dst, t, opens) -> None:
        """A SYN plus two retransmits (3 s then 1 s timeouts).  A host's
        SYN filter only ever starts, so from either end's filter time on no
        SYN-ACK can reach them, and the three SYNs are plain sends.  Before
        it, the first opens _TcpAttempt(*opens), and each retransmit is
        sent unless a SYN-ACK established that attempt."""
        t1 = t + self._jit(rng, SYN_TIMEOUT_FIRST)
        t2 = t1 + self._jit(rng, SYN_TIMEOUT_SECOND)
        hosts = self.sim.hosts
        if t >= min(hosts[src].syn_filter_from, hosts[dst].syn_filter_from):
            attempt = retry = None
        else:
            attempt = _TcpAttempt(*opens)
            retry = (attempt,)
        plan += ((t, src, dst, "TCP", SYN_SIZE, "SYN", attempt),
                 (t1, src, dst, "TCP", SYN_SIZE, "SYN", retry),
                 (t2, src, dst, "TCP", SYN_SIZE, "SYN", retry))

    def _public_plan(self, plan, rng, caller, remote, base, opens) -> None:
        """Case (i)/(iii): the caller's SYNs and three 59/58-byte markers;
        responses, if any, come from the remote client's handler."""
        self._syn_plan(plan, rng, caller, remote, base, opens)
        t = base + rng.uniform(0.05, 0.25)
        for gap in (0.0,) + MARKER_GAPS:
            t += self._jit(rng, gap) if gap else 0.0
            plan.append((t, caller, remote, "UDP", rng.choice(MARKER_SIZES),
                         "", None))

    def _nated_plan(self, plan, rng, caller, remote, base, opens) -> None:
        """Case (ii): the NATed remote initiates toward the public caller."""
        # first contact: 28-byte UDP
        plan.append((base, remote, caller, "UDP", NAT_FIRST_SIZE, "", None))
        self._syn_plan(plan, rng, remote, caller,
                       base + self._jit(rng, 0.4), opens)

        # varying-size exchange, alternating directions
        lo, hi = VARYING_SIZES
        n = rng.randint(*VARYING_COUNT)
        t = base + rng.uniform(0.4, 0.7)
        for k in range(n):
            size = rng.randint(lo, hi)
            while size in (NAT_FIRST_SIZE, NAT_TAIL_SIZE):
                size = rng.randint(lo, hi)
            src, dst = (caller, remote) if k % 2 else (remote, caller)
            plan.append((t, src, dst, "UDP", size, "", None))
            t += rng.uniform(0.25, 1.1)

        # 3-byte tail after about 10 seconds
        t = base + self._jit(rng, NAT_TAIL_DELAY)
        for _ in range(NAT_TAIL_COUNT):
            plan.append((t, remote, caller, "UDP", NAT_TAIL_SIZE, "", None))
            t += self._jit(rng, NAT_TAIL_GAP)

    def _send(self, src, dst, proto, size, flags, role) -> None:
        """Emit a planned send now, from src's RTC port to dst's RTC socket
        as dst's NAT shows it now; a NATed dst with no binding gets the
        NAT's address and port 0, which the NAT drops (nat_no_binding), as
        only packets bind.  A retransmit ((attempt,)) is skipped once a
        SYN-ACK established its attempt; a SYN stores the _TcpAttempt it
        opens; a 28-byte first contact is remembered, so that its echo is
        not re-echoed."""
        if type(role) is tuple and role[0].established:
            return
        sim, ports = self.sim, self._ports
        host, port = sim.hosts[dst], ports[dst]
        ip = host.ip
        if host.nat is not None:
            box = sim.nats[host.nat]
            ip, port = box.public_endpoint(ip, port, "UDP") or \
                (box.public_ip, 0)
        if isinstance(role, _TcpAttempt):
            self._pending_tcp[(src, ip, port, ports[src])] = role
        elif size == NAT_FIRST_SIZE:
            self._sent28[(src, ip, port)] = sim.now
        sim.emit(src, ports[src], ip, port, proto, size, flags, None)

    def _write_noise(self, call: PlacedCall, caller: str) -> None:
        """Draw a call's supernode chatter from its own stream and write it
        into the taps of both ends, flow by flow (UDP each way to each of
        its supernodes, then a keepalive each way to the home supernode),
        as tap records.  place_call makes this one loop event at the call's
        start, so every packet is written ahead of the loop and none is
        observed before the loop reaches the call; the IP-IDs are drawn
        then.  A marker's reply (_udp_reply) is written right after it, as
        it never draws another answer; 28-byte arrivals, whose answers hang
        on the 30 s echo state, wait on a heap and are answered in arrival
        order.  The state spans calls but is applied per call (on the track
        benchmark at seed 1 the classifier reads 27,639 packets).  Noise
        has no SYN and supernodes are public (add_supernode), so no NAT or
        SYN filter could touch it."""
        sim, hosts, ports = self.sim, self.sim.hosts, self._ports
        t0 = call.t_start
        c, cport = hosts[caller], ports[caller]
        rng = random.Random(f"{self.seed}:noise:{call.call_id}")
        draw, latency = rng.random, sim.latency
        echoes = []   # (t_recv, pkt, ways, k) heap

        def flow(sn, proto):
            """Each way to sn: (src ip, port, dst ip, port, flow key, the
            source's next_ipid, source tap, destination tap, destination
            host id, which answers)."""
            s, sport = hosts[sn], ports[sn]
            return ((c.ip, cport, s.ip, sport, (cport, s.ip, sport, proto),
                     c.next_ipid, c.tap, s.tap, sn),
                    (s.ip, sport, c.ip, cport, (sport, c.ip, cport, proto),
                     s.next_ipid, s.tap, c.tap, caller))

        def write(t, ways, k, proto, size, flags):
            """Write a packet the k-th way, queueing a 28-byte arrival."""
            sip, sport, dip, dport, key, next_ipid, stap, dtap, _ = ways[k]
            t_recv = t + latency(rng)
            pkt = (t, t_recv, sip, sport, dip, dport, proto, flags, size,
                   next_ipid(key))
            if stap is not None:
                stap.record(t, pkt)
            if dtap is not None:
                dtap.record(t_recv, pkt)
            if size == NAT_FIRST_SIZE:
                heapq.heappush(echoes, (t_recv, pkt, ways, k))
            return pkt

        def answer(pkt, ways, k):
            """Write the answer _udp_reply gives pkt, if any."""
            t_recv = pkt[1]
            reply = self._udp_reply(ways[k][8], pkt[2], pkt[3], pkt[8],
                                    t_recv, rng)
            if reply is not None:
                write(t_recv + reply[0], ways, 1 - k, "UDP", reply[1], "")

        count = min(rng.randint(*self.config.noise_flows),
                    len(self.supernodes))
        for sn in rng.sample(self.supernodes, count):
            ways = flow(sn, "UDP")
            for _ in range(rng.randint(*self.config.noise_packets)):
                t = t0 + NOISE_WINDOW * draw()
                if draw() < 0.08:
                    size = MARKER_SIZES[draw() < 0.5]
                else:
                    size = NOISE_SIZES[int(draw() * len(NOISE_SIZES))]
                k = draw() >= 0.5   # 0: caller -> sn, 1: sn -> caller
                pkt = write(t, ways, k, "UDP", size, "")
                if size in MARKER_SIZES:
                    answer(pkt, ways, k)
        home = self._home_supernode.get(caller)
        if home is not None:
            ways = flow(home, "TCP")
            t = t0 + rng.uniform(0.5, NOISE_WINDOW)
            for k, t in enumerate((t, t + rng.uniform(0.05, 0.4))):
                write(t, ways, k, "TCP", KEEPALIVE_SIZE, "ACK")
        while echoes:
            answer(*heapq.heappop(echoes)[1:])

    # -- client behavior ------------------------------------------------------

    def _host_active(self, host_id: str, t: float) -> bool:
        if host_id in self._service_hosts:
            return True
        return self.presence.host_active(host_id, t)

    def _client_handler(self, sim, host_id, pkt, payload):
        now = sim.now
        if pkt.proto == "TCP":
            if pkt.tcp_flags == "SYN":
                if self._host_active(host_id, now):
                    self.sim.schedule_send(
                        host_id, pkt.src_ip, pkt.src_port, "TCP", SYNACK_SIZE,
                        flags="ACK,SYN", at=now + 0.02,
                        src_port=pkt.dst_port)
            elif pkt.tcp_flags == "ACK,SYN":
                key = (host_id, pkt.src_ip, pkt.src_port, pkt.dst_port)
                attempt = self._pending_tcp.get(key)
                if attempt is not None and not attempt.established:
                    attempt.established = True
                    if attempt.callee is not None:
                        for kind in ("ring", "popup"):
                            self.notifications.append(NotificationEvent(
                                attempt.callee, attempt.callee_host, now,
                                kind, attempt.call_id))
            return
        reply = self._udp_reply(host_id, pkt.src_ip, pkt.src_port, pkt.size,
                                now)
        if reply is not None:
            self.sim.schedule_send(host_id, pkt.src_ip, pkt.src_port, "UDP",
                                   reply[1], at=now + reply[0],
                                   src_port=pkt.dst_port)

    def _udp_reply(self, host_id, peer_ip, peer_port, size, now, rng=None):
        """(delay, size) of host_id's answer to a size-byte UDP datagram
        from (peer_ip, peer_port) arriving at now, or None.  A 28-byte
        packet is echoed once per 30 s unless host_id sent the first one; a
        59/58-byte marker draws a varying-size reply while the host is
        active, from rng or else from the host's keyed reply stream, so a
        host's n-th loop reply hangs only on (seed, host, n)."""
        if size == NAT_FIRST_SIZE:
            key = (host_id, peer_ip, peer_port)
            if now - self._sent28.get(key, -1e9) < 30.0:
                return None  # we initiated; do not re-echo the echo
            if now - self._echoed.get(key, -1e9) < 30.0:
                return None
            self._echoed[key] = now
            return (0.08, NAT_FIRST_SIZE)
        if size in MARKER_SIZES and self._host_active(host_id, now):
            randint = partial(self._reply_randint, host_id) if rng is None \
                else rng.randint
            lo, hi = VARYING_SIZES
            size = randint(lo, hi)
            while size in (NAT_FIRST_SIZE, NAT_TAIL_SIZE) or \
                    size in MARKER_SIZES:
                size = randint(lo, hi)
            return (0.05, size)
        return None

    def _reply_randint(self, host_id, lo: int, hi: int) -> int:
        """host_id's next draw in [lo, hi] from its keyed reply stream."""
        n = self._replies.get(host_id, 0)
        self._replies[host_id] = n + 1
        return lo + keyed_draw(self.seed, "resp", host_id, n) % (hi - lo + 1)
