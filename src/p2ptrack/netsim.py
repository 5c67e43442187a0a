"""Deterministic discrete-event network substrate.

Hosts (optionally behind NAT middleboxes) exchange UDP/TCP packets over
links with seeded latency jitter.  Every packet carries a 16-bit IP-ID
drawn from its sender's generator; NATs rewrite addresses and ports but
never touch the IP-ID.  Capture taps record traffic at host edges, with
addresses as the host sees them: the loop records each packet as it is
observed, and a writer outside the loop (the RTC overlay's supernode
noise) may record a packet ahead of the loop, so a tap sorts itself by
observation time when it is next read.

The loop is single threaded: one heap runs its events in (time, insertion)
order, so a given (topology, seed) always produces byte-identical traces.
"""

from __future__ import annotations

import bisect
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


class SimPacket(NamedTuple):
    """One captured datagram, addresses as seen at the capture point."""

    t_send: float
    t_recv: float
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    proto: str  # "TCP" | "UDP"
    tcp_flags: frozenset
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
        "port_handlers", "egress_filters", "ingress_filters", "tap",
        "_counter", "_flow_counters", "_flow_start", "_rng",
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
        self.egress_filters: list = []
        self.ingress_filters: list = []
        self.tap: Optional[CaptureTap] = None
        self._rng = random.Random(f"{seed}:ipid:{host_id}")
        self._flow_start = ipid_start   # None: random offset per flow
        if ipid_start is None:
            ipid_start = self._rng.randrange(IPID_MOD)
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
                    else self._rng.randrange(IPID_MOD)
                value %= IPID_MOD
            self._flow_counters[flow_key] = (value + 1) % IPID_MOD
            return value
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
    """Packet capture at one attach point, in observation order.  The loop
    records in time order, but a writer outside it may record ahead of
    the loop or out of order, so the tap sorts itself, stably by
    observation time, when it is next read: entries with equal times keep
    the order they were recorded in."""

    __slots__ = ("_times", "_packets", "_unsorted")

    def __init__(self):
        self._times: list = []     # observation times
        self._packets: list = []
        self._unsorted = False

    def record(self, obs_t: float, pkt: SimPacket) -> None:
        times = self._times
        if times and obs_t < times[-1]:
            self._unsorted = True
        times.append(obs_t)
        self._packets.append(pkt)

    def _sort(self) -> None:
        times, packets = self._times, self._packets
        order = sorted(range(len(times)), key=times.__getitem__)
        self._times = [times[i] for i in order]
        self._packets = [packets[i] for i in order]
        self._unsorted = False

    def trace(self) -> list:
        """Packets in observation order, ties in recording order."""
        if self._unsorted:
            self._sort()
        return list(self._packets)

    def window(self, t_lo: float, t_hi: float) -> list:
        """The packets of trace() observed in [t_lo, t_hi]."""
        if self._unsorted:
            self._sort()
        lo = bisect.bisect_left(self._times, t_lo)
        hi = bisect.bisect_right(self._times, t_hi, lo)
        return self._packets[lo:hi]

    def clear(self) -> None:
        self._times.clear()
        self._packets.clear()
        self._unsorted = False

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
        self._flagsets: dict = {}  # flag tuple -> its interned frozenset
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
                      size: int, flags: tuple = (), at: Optional[float] = None,
                      src_port: int = 0,
                      payload: Optional[bytes] = None) -> None:
        """Emit a packet from src at time at (default now); flags is a
        tuple of TCP flag names, interned as one frozenset per tuple."""
        if src not in self.hosts:
            raise NetsimError(f"unknown host {src!r}")
        if isinstance(dst_ip, str):
            dst_ip = parse_ip(dst_ip)
        if at is None:
            at = self.now
        flagset = self._flagsets.get(flags)
        if flagset is None:
            flagset = self._flagsets[flags] = frozenset(flags)
        self.schedule(at, self._emit, src, src_port, dst_ip, dst_port,
                      proto, size, flagset, payload)

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
        jitter = self.default_jitter
        return LATENCY + rng.uniform(-jitter, jitter) if jitter else LATENCY

    def _emit(self, src: str, src_port: int, dst_ip: int, dst_port: int,
              proto: str, size: int, flags: frozenset,
              payload: Optional[bytes]) -> None:
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

        for filt in host.egress_filters:
            if filt(self, wire):
                self._drop(f"egress_filter:{src}")
                return

        # source NAT rewrite
        if host.nat is not None:
            box = self.nats[host.nat]
            pub_port = box.bind(host.ip, src_port, proto)
            box.remotes[(pub_port, proto)].add(dst_ip)
            wire = SimPacket(now, t_recv, box.public_ip, pub_port, dst_ip,
                             dst_port, proto, flags, size, ip_id)

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
            pkt = SimPacket(wire.t_send, wire.t_recv, wire.src_ip,
                            wire.src_port, priv_ip, priv_port, wire.proto,
                            wire.tcp_flags, wire.size, wire.ip_id)

        host = self.hosts[dst_host_id]
        if host.tap is not None:
            host.tap.record(pkt.t_recv, pkt)

        for filt in host.ingress_filters:
            if filt(self, pkt):
                self._drop(f"ingress_filter:{dst_host_id}")
                return
        handler = host.port_handlers.get(pkt.dst_port, host.handler)
        if handler is not None:
            handler(self, dst_host_id, pkt, payload)
