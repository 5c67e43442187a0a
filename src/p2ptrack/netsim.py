"""Deterministic discrete-event network substrate.

Hosts (optionally behind NAT middleboxes) exchange UDP/TCP packets over
links with seeded latency jitter.  Every packet carries a 16-bit IP-ID
drawn from its sender's generator; NATs rewrite addresses and ports but
never touch the IP-ID.  A packet's TCP flags are one string, the flag
names sorted and joined by ",": "", "SYN", "ACK", "ACK,SYN" or "RST".
From a host's syn_filter_from time on (never, by default), the loop drops
every TCP SYN the host sends or receives.
Capture taps record traffic at host edges, with addresses as the host
sees them: the loop records each packet as it is observed, and a writer
(the RTC overlay's supernode noise, one loop event per call) may record
a packet ahead of the loop.  A tap record is an exact tuple in
SimPacket's field order, which the garbage collector stops tracking; a
SimPacket is built only for the loop's packets, which handlers read.  A
tap is an inbox: its records leave once, through take, which sorts them
by observation time.  Once the loop has run to a time, no later record
is observed at or before it.

The loop is single threaded: one heap runs its events in (time, insertion)
order, so a given (topology, seed) always produces byte-identical traces.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from collections import Counter
from typing import Callable, NamedTuple, Optional

IPID_MOD = 1 << 16
NAT_PORT_BASE = 40000      # first public port a NAT box hands out
LATENCY = 0.05             # one-way delay of every packet, in seconds

IPID_SEQUENTIAL_GLOBAL = "sequential_global"
IPID_SEQUENTIAL_PER_FLOW = "sequential_per_flow"
IPID_RANDOM = "random"
IPID_MODELS = (IPID_SEQUENTIAL_GLOBAL, IPID_SEQUENTIAL_PER_FLOW, IPID_RANDOM)


class NetsimError(Exception):
    pass


def ip_str(ip: int) -> str:
    return f"{ip >> 24 & 255}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"


def parse_ip(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise NetsimError(f"bad IPv4 address {text!r}")
    value = 0
    for p in parts:
        try:
            octet = int(p)
        except ValueError:
            raise NetsimError(f"bad IPv4 address {text!r}") from None
        if not 0 <= octet <= 255:
            raise NetsimError(f"bad IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def keyed_draw(seed, purpose: str, key: str, count: int) -> int:
    """The count-th 64-bit draw of the stream keyed by (seed, purpose,
    key): an 8-byte blake2b digest, so a stream holds no generator, does
    not hang on any other stream's draws, and, unlike hash(), does not
    change with PYTHONHASHSEED."""
    return int.from_bytes(hashlib.blake2b(
        f"{seed}:{purpose}:{key}:{count}".encode(), digest_size=8).digest(),
        "big")


class SimPacket(NamedTuple):
    """One datagram, addresses as seen at the capture point: the packet
    the loop hands to handlers.  A tap record holds the same fields in
    the same order as an exact tuple."""

    t_send: float
    t_recv: float
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    proto: str  # "TCP" | "UDP"
    tcp_flags: str  # flag names sorted and joined by ",", e.g. "ACK,SYN"
    size: int
    ip_id: int


class Host:
    """A network endpoint with its own IP-ID generator and packet handler.

    An explicit ipid_start fixes the counter (and, for the per-flow model,
    every flow's initial value); by default counters start at seeded
    random offsets, per flow for the per-flow model, the way real stacks
    behave."""

    __slots__ = (
        "host_id", "ip", "nat", "ipid_model", "handler",
        "port_handlers", "syn_filter_from", "tap", "_counter",
        "_flow_counters", "_flow_start", "_rng", "_seed",
    )

    def __init__(self, host_id: str, ip: int, nat: Optional[str],
                 ipid_model: str, ipid_start: Optional[int], seed):
        if ipid_model not in IPID_MODELS:
            raise NetsimError(f"unknown ipid model {ipid_model!r}")
        self.host_id = host_id
        self.ip = ip
        self.nat = nat
        self.ipid_model = ipid_model
        self.handler: Optional[Callable] = None
        self.port_handlers: dict = {}
        self.syn_filter_from = math.inf   # drop TCP SYNs from this time
        self.tap: Optional[CaptureTap] = None
        self._seed = seed
        rng = random.Random(f"{seed}:ipid:{host_id}")
        self._flow_start = ipid_start   # None: random offset per flow
        if ipid_start is None:
            ipid_start = rng.randrange(IPID_MOD)
        # a global counter draws nothing after its start
        self._rng = None if ipid_model == IPID_SEQUENTIAL_GLOBAL else rng
        self._counter = ipid_start % IPID_MOD
        self._flow_counters: dict = {}

    def next_ipid(self, flow_key) -> int:
        if self.ipid_model == IPID_SEQUENTIAL_GLOBAL:
            value = self._counter
            self._counter = (self._counter + 1) % IPID_MOD
            return value
        if self.ipid_model == IPID_SEQUENTIAL_PER_FLOW:
            value = self._flow_counters.get(flow_key)
            if value is None:
                value = self._flow_start if self._flow_start is not None \
                    else self._draw()
                value %= IPID_MOD
            self._flow_counters[flow_key] = (value + 1) % IPID_MOD
            return value
        return self._draw()

    def _draw(self) -> int:
        if self._rng is None:   # the model was changed from a global counter
            self._rng = random.Random(f"{self._seed}:ipid:{self.host_id}")
        return self._rng.randrange(IPID_MOD)


class NatBox:
    """Port-translating middlebox.  Bindings never expire within a scenario
    and the IP-ID field passes through untouched."""

    __slots__ = ("nat_id", "public_ip", "accepts_unsolicited_inbound",
                 "port_map", "reverse", "remotes", "_next_port")

    def __init__(self, nat_id: str, public_ip: int,
                 accepts_unsolicited_inbound: bool = False):
        self.nat_id = nat_id
        self.public_ip = public_ip
        self.accepts_unsolicited_inbound = accepts_unsolicited_inbound
        self.port_map: dict = {}   # (priv_ip, priv_port, proto) -> pub_port
        self.reverse: dict = {}    # (pub_port, proto) -> (priv_ip, priv_port)
        self.remotes: dict = {}    # (pub_port, proto) -> set of contacted ips
        self._next_port = NAT_PORT_BASE

    def bind(self, priv_ip: int, priv_port: int, proto: str) -> int:
        key = (priv_ip, priv_port, proto)
        pub = self.port_map.get(key)
        if pub is None:
            pub = self._alloc_port(proto)
            self.port_map[key] = pub
            self.reverse[(pub, proto)] = (priv_ip, priv_port)
            self.remotes[(pub, proto)] = set()
        return pub

    def forward(self, priv_ip: int, priv_port: int, proto: str) -> int:
        """Static UPnP-style mapping created at configuration time: the
        private port if it is free, else the next free NAT port."""
        key = (priv_ip, priv_port, proto)
        if key in self.port_map:
            return self.port_map[key]
        public_port = priv_port if (priv_port, proto) not in self.reverse \
            else self._alloc_port(proto)
        self.port_map[key] = public_port
        self.reverse[(public_port, proto)] = (priv_ip, priv_port)
        self.remotes[(public_port, proto)] = set()
        return public_port

    def public_endpoint(self, priv_ip: int, priv_port: int,
                        proto: str) -> Optional[tuple]:
        pub = self.port_map.get((priv_ip, priv_port, proto))
        if pub is None:
            return None
        return (self.public_ip, pub)

    def _alloc_port(self, proto: str) -> int:
        while (self._next_port, proto) in self.reverse:
            self._next_port += 1
        port = self._next_port
        self._next_port += 1
        return port


class CaptureTap:
    """Packet capture at one attach point: an inbox.  A record is an
    exact tuple in SimPacket's field order, so the collector can forget
    it.  The loop records in time order, but a writer outside it (the RTC
    overlay's supernode noise) records a call's packets when the loop
    reaches the call, ahead of the loop's own.  So the tap keeps records
    in recording order, and take sorts what leaves."""

    __slots__ = ("_times", "_packets")

    def __init__(self):
        self._times: list = []     # observation times
        self._packets: list = []

    def record(self, obs_t: float, pkt: tuple) -> None:
        """Record pkt, a SimPacket or an exact tuple, as an exact tuple
        (tuple() copies only the SimPacket)."""
        self._times.append(obs_t)
        self._packets.append(tuple(pkt))

    def take(self, until: float = math.inf) -> list:
        """Remove the records observed at or before until, by default all,
        and return them in observation order, ties in recording order."""
        times, packets = self._times, self._packets
        self._times, self._packets = kept_times, kept_packets = [], []
        out = []
        for k, t in enumerate(times):
            if t <= until:
                out.append(k)
            else:
                kept_times.append(t)
                kept_packets.append(packets[k])
        out.sort(key=times.__getitem__)
        return [packets[k] for k in out]

    def __len__(self) -> int:
        return len(self._packets)


class Simulator:
    """Single-threaded deterministic event loop.  Every event is a heap
    entry (time, insertion seq, fn, args); drops counts packets by reason."""

    def __init__(self, seed=0, default_jitter: float = 0.01):
        self.seed = seed
        self.now = 0.0
        self.default_jitter = default_jitter
        self.hosts: dict = {}
        self.nats: dict = {}
        self.drops: Counter = Counter()
        self._heap: list = []
        self._running = False
        self._evseq = 0
        self._ip_host: dict = {}       # public ip -> host_id
        self._ip_nat: dict = {}        # public ip -> nat_id
        self._nat_members: dict = {}   # nat_id -> {priv_ip: host_id}
        self._jitter_rng = random.Random(f"{seed}:netsim:jitter")

    # -- topology ---------------------------------------------------------

    def add_nat(self, nat_id: str, public_ip,
                accepts_unsolicited_inbound=False) -> NatBox:
        if isinstance(public_ip, str):
            public_ip = parse_ip(public_ip)
        if nat_id in self.nats:
            raise NetsimError(f"duplicate NAT id {nat_id!r}")
        if public_ip in self._ip_nat or public_ip in self._ip_host:
            raise NetsimError(f"public IP {ip_str(public_ip)} already in use")
        box = NatBox(nat_id, public_ip, accepts_unsolicited_inbound)
        self.nats[nat_id] = box
        self._ip_nat[public_ip] = nat_id
        self._nat_members[nat_id] = {}
        return box

    def add_host(self, host_id: str, ip, nat: Optional[str] = None,
                 ipid_model: str = IPID_SEQUENTIAL_GLOBAL,
                 ipid_start: Optional[int] = None) -> Host:
        if isinstance(ip, str):
            ip = parse_ip(ip)
        if host_id in self.hosts:
            raise NetsimError(f"duplicate host id {host_id!r}")
        if nat is None:
            if ip in self._ip_host or ip in self._ip_nat:
                raise NetsimError(f"public IP {ip_str(ip)} already in use")
        else:
            if nat not in self.nats:
                raise NetsimError(f"unknown NAT {nat!r}")
            members = self._nat_members[nat]
            if ip in members:
                raise NetsimError(
                    f"private IP {ip_str(ip)} duplicated behind NAT {nat}")
        host = Host(host_id, ip, nat, ipid_model, ipid_start, self.seed)
        self.hosts[host_id] = host
        if nat is None:
            self._ip_host[ip] = host_id
        else:
            self._nat_members[nat][ip] = host_id
        return host

    def set_handler(self, host_id: str, handler: Callable) -> None:
        self.hosts[host_id].handler = handler

    def set_port_handler(self, host_id: str, port: int,
                         handler: Callable) -> None:
        self.hosts[host_id].port_handlers[port] = handler

    def public_ip_of(self, host_id: str) -> int:
        host = self.hosts[host_id]
        if host.nat is None:
            return host.ip
        return self.nats[host.nat].public_ip

    def tap(self, host_id: str) -> CaptureTap:
        host = self.hosts.get(host_id)
        if host is None:
            raise NetsimError(f"unknown host {host_id!r}")
        if host.tap is None:
            host.tap = CaptureTap()
        return host.tap

    # -- scheduling -------------------------------------------------------

    def schedule(self, at: float, fn: Callable, *args) -> None:
        """Run fn(*args) at time at, which is finite and not past."""
        if not self.now <= at < math.inf:   # also rejects NaN
            raise NetsimError(f"cannot schedule at {at}: now is {self.now}")
        self._evseq += 1
        heapq.heappush(self._heap, (at, self._evseq, fn, args))

    def schedule_send(self, src: str, dst_ip, dst_port: int, proto: str,
                      size: int, flags: str = "", at: Optional[float] = None,
                      src_port: int = 0,
                      payload: Optional[bytes] = None) -> None:
        """Emit a packet from src at time at (default now) with TCP flags
        flags, in SimPacket's form."""
        if src not in self.hosts:
            raise NetsimError(f"unknown host {src!r}")
        if isinstance(dst_ip, str):
            dst_ip = parse_ip(dst_ip)
        if at is None:
            at = self.now
        self.schedule(at, self.emit, src, src_port, dst_ip, dst_port,
                      proto, size, flags, payload)

    def advance(self, until: float) -> None:
        """Run all events with time <= until, in (time, insertion) order,
        then set now to until.  A running event may schedule but not
        advance: the outer call would then set now back to its own until,
        below the time a nested advance had reached."""
        if not self.now <= until < math.inf:   # also rejects NaN
            raise NetsimError(f"cannot advance to {until}: now is {self.now}")
        if self._running:
            raise NetsimError("advance called from a running event")
        heap, heappop = self._heap, heapq.heappop
        self._running = True
        try:
            while heap and heap[0][0] <= until:
                t, _, fn, args = heappop(heap)
                self.now = t
                fn(*args)
        finally:
            self._running = False
        self.now = until

    # -- datapath ---------------------------------------------------------

    def _drop(self, reason: str) -> None:
        self.drops[reason] += 1

    def latency(self, rng: random.Random) -> float:
        """A packet's one-way delay: LATENCY, plus jitter drawn from rng
        uniformly in [-default_jitter, default_jitter]."""
        j = self.default_jitter
        # rng.uniform(-j, j), bit for bit, without its call
        return LATENCY + (-j + (j + j) * rng.random()) if j else LATENCY

    def emit(self, src: str, src_port: int, dst_ip: int, dst_port: int,
             proto: str, size: int, flags: str,
             payload: Optional[bytes]) -> None:
        """Send a packet from src now: tap, filter, and rewrite it at src's
        NAT, which binds a port for it if it has none.  Only this and
        NatBox.forward (configuration) bind NAT ports."""
        host = self.hosts[src]
        now = self.now
        flow_key = (src_port, dst_ip, dst_port, proto)
        ip_id = host.next_ipid(flow_key)

        # route: who owns the destination public address?
        dst_host_id = self._ip_host.get(dst_ip)
        dst_nat_id = self._ip_nat.get(dst_ip) if dst_host_id is None else None
        t_recv = now + self.latency(self._jitter_rng)

        # capture at sender edge: host's own view of addresses
        wire = SimPacket(now, t_recv, host.ip, src_port, dst_ip, dst_port,
                         proto, flags, size, ip_id)
        if host.tap is not None:
            host.tap.record(now, wire)

        if now >= host.syn_filter_from and "SYN" in flags and proto == "TCP":
            self._drop(f"egress_filter:{src}")
            return

        # source NAT rewrite
        if host.nat is not None:
            box = self.nats[host.nat]
            pub_port = box.bind(host.ip, src_port, proto)
            box.remotes[(pub_port, proto)].add(dst_ip)
            wire = wire._replace(src_ip=box.public_ip, src_port=pub_port)

        if dst_host_id is None and dst_nat_id is None:
            self._drop("no_route")
            return
        self.schedule(t_recv, self._deliver, wire, dst_host_id, dst_nat_id,
                      payload)

    def _deliver(self, wire: SimPacket, dst_host_id: Optional[str],
                 dst_nat_id: Optional[str], payload: Optional[bytes]) -> None:
        pkt = wire
        if dst_nat_id is not None:
            box = self.nats[dst_nat_id]
            inner = box.reverse.get((wire.dst_port, wire.proto))
            if inner is None:
                self._drop(f"nat_no_binding:{dst_nat_id}")
                return
            if not box.accepts_unsolicited_inbound and \
                    wire.src_ip not in box.remotes[(wire.dst_port, wire.proto)]:
                self._drop(f"nat_unsolicited:{dst_nat_id}")
                return
            priv_ip, priv_port = inner
            dst_host_id = self._nat_members[dst_nat_id][priv_ip]
            pkt = wire._replace(dst_ip=priv_ip, dst_port=priv_port)

        host = self.hosts[dst_host_id]
        if host.tap is not None:
            host.tap.record(pkt.t_recv, pkt)

        if self.now >= host.syn_filter_from and "SYN" in pkt.tcp_flags \
                and pkt.proto == "TCP":
            self._drop(f"ingress_filter:{dst_host_id}")
            return
        handler = host.port_handlers.get(pkt.dst_port, host.handler)
        if handler is not None:
            handler(self, dst_host_id, pkt, payload)
