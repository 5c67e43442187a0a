"""BitTorrent-side ecosystem: scrape parsing, swarm membership, the wire
handshake, the hourly crawler, and the RTC/BT address matcher.

One (IP, port) pair belongs to exactly one BT client: clients multiplex
every torrent on a single port, so the pair is the user-identity unit.
The crawler never touches tracker announce endpoints (those blacklist);
it walks the DHT with find_node and drains peer lists with get_peers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..netsim import Simulator
from .bencode import BencodeError, bdecode, bencode
from .dht import DhtNetwork, KrpcClient, LookupTask, announce

HANDSHAKE_LEN = 68
HANDSHAKE_PROTO = b"BitTorrent protocol"
REFUSAL_SIZE = 40
PROBE_PORT_BASE = 10000    # a prober's first source port, one per probe

DAY_SECONDS = 86400.0


class SwarmError(Exception):
    pass


# -- scrape-all ---------------------------------------------------------------

@dataclass(frozen=True)
class ScrapeEntry:
    infohash: bytes
    seeds: int
    leechers: int
    downloaded: int

    @property
    def popularity(self) -> int:
        return self.seeds + self.leechers


@dataclass
class ScrapeResult:
    entries: list
    skipped: int           # malformed (non-20-byte) infohash keys


def build_scrape(entries) -> bytes:
    files = {}
    for e in entries:
        files[e.infohash] = {"complete": e.seeds, "downloaded": e.downloaded,
                             "incomplete": e.leechers}
    return bencode({"files": files})


def parse_scrape(data: bytes) -> ScrapeResult:
    """Entries of a scrape-all dump sorted by popularity (seeds+leechers)
    descending, ties by infohash byte order."""
    try:
        doc = bdecode(data)
    except BencodeError as exc:
        raise SwarmError(f"bad scrape blob: {exc}") from exc
    if not isinstance(doc, dict) or b"files" not in doc or \
            not isinstance(doc[b"files"], dict):
        raise SwarmError("scrape blob has no files dict")
    entries = []
    skipped = 0
    for key, stats in doc[b"files"].items():
        if not isinstance(key, bytes) or len(key) != 20 or \
                not isinstance(stats, dict):
            skipped += 1
            continue
        entries.append(ScrapeEntry(
            key,
            int(stats.get(b"complete", 0)),
            int(stats.get(b"incomplete", 0)),
            int(stats.get(b"downloaded", 0))))
    entries.sort(key=lambda e: (-e.popularity, e.infohash))
    return ScrapeResult(entries, skipped)


def top_k(entries, k: int) -> list:
    ordered = sorted(entries, key=lambda e: (-e.popularity, e.infohash))
    return [e.infohash for e in ordered[:k]]


# -- swarm membership ---------------------------------------------------------

@dataclass
class BtClient:
    host_id: str
    bt_port: int            # local listening port
    external_ip: int = 0
    external_port: int = 0
    torrents: dict = field(default_factory=dict)   # infohash -> (t0, t1|None)
    peer_id: bytes = b""

    def participates(self, infohash: bytes, t: float) -> bool:
        span = self.torrents.get(infohash)
        if span is None:
            return False
        t0, t1 = span
        return t0 <= t and (t1 is None or t < t1)


class SwarmRegistry:
    """All BT clients plus their DHT announces; validates that (ip, port)
    identifies exactly one client."""

    def __init__(self, sim: Simulator, dht: DhtNetwork, seed=0):
        self.sim = sim
        self.dht = dht
        self.seed = seed
        self.clients: dict = {}        # host_id -> BtClient
        self.by_endpoint: dict = {}    # (ip, port) -> host_id
        # packets to a BT port that are not a handshake, the DHT's replies
        # to the port's own announces included
        self.rejected = 0
        self._port_rng = random.Random(f"{seed}:btport")
        self._id_rng = random.Random(f"{seed}:btpeerid")

    def add_client(self, host_id: str, bt_port: Optional[int] = None) -> BtClient:
        if host_id in self.clients:
            raise SwarmError(f"host {host_id} already runs a BT client")
        if bt_port is None:
            bt_port = self._port_rng.randint(50000, 59999)
        host = self.sim.hosts[host_id]
        if host.nat is None:
            ext_ip, ext_port = host.ip, bt_port
        else:
            box = self.sim.nats[host.nat]
            ext_port = box.forward(host.ip, bt_port, "TCP")
            ext_ip = box.public_ip
        endpoint = (ext_ip, ext_port)
        if endpoint in self.by_endpoint:
            raise SwarmError(
                f"endpoint collision: {endpoint} already owned by "
                f"{self.by_endpoint[endpoint]}")
        client = BtClient(host_id, bt_port, ext_ip, ext_port,
                          peer_id=b"-SM0001-" + self._id_rng.randbytes(12))
        self.clients[host_id] = client
        self.by_endpoint[endpoint] = host_id
        self.sim.set_port_handler(host_id, bt_port, self._serve_handshake)
        return client

    def join(self, host_id: str, infohash: bytes, t_join: float,
             t_leave: Optional[float] = None) -> None:
        client = self.clients[host_id]
        if len(infohash) != 20:
            raise SwarmError("infohash must be 20 bytes")
        client.torrents[infohash] = (t_join, t_leave)
        announce(self.sim, self.dht, host_id, client.bt_port, infohash,
                 client.external_port, at=t_join)
        if t_leave is not None:
            self.dht.withdraw_peer(infohash, client.external_ip,
                                   client.external_port, t_leave)

    def _serve_handshake(self, sim, host_id, pkt, payload):
        client = self.clients[host_id]
        try:
            infohash, _ = parse_handshake(payload or b"")
        except SwarmError:
            self.rejected += 1
            return
        if client.participates(infohash, sim.now):
            reply = build_handshake(infohash, client.peer_id)
            sim.schedule_send(host_id, pkt.src_ip, pkt.src_port, "TCP",
                              len(reply), at=sim.now + 0.01,
                              src_port=client.bt_port, payload=reply)
        else:
            sim.schedule_send(host_id, pkt.src_ip, pkt.src_port, "TCP",
                              REFUSAL_SIZE, flags=("RST",),
                              at=sim.now + 0.01, src_port=client.bt_port)


# -- wire handshake -----------------------------------------------------------

def build_handshake(infohash: bytes, peer_id: bytes) -> bytes:
    if len(infohash) != 20:
        raise SwarmError("infohash must be 20 bytes")
    if len(peer_id) != 20:
        raise SwarmError("peer id must be 20 bytes")
    data = bytes([19]) + HANDSHAKE_PROTO + bytes(8) + infohash + peer_id
    assert len(data) == HANDSHAKE_LEN
    return data


def parse_handshake(data: bytes):
    if len(data) != HANDSHAKE_LEN or data[0] != 19 or \
            data[1:20] != HANDSHAKE_PROTO:
        raise SwarmError("not a BitTorrent handshake")
    return data[28:48], data[48:68]


@dataclass
class HandshakeProbe:
    target_ip: int
    target_port: int
    infohash: bytes
    response: Optional[object] = None    # SimPacket of the reply
    refused: bool = False


class HandshakeClient:
    """Active prober: one 68-byte handshake per probe, responses matched
    by the probe's unique source port."""

    def __init__(self, sim: Simulator, host_id: str, seed=0):
        self.sim = sim
        self.host_id = host_id
        self._next_port = PROBE_PORT_BASE
        self._pending: dict = {}    # src_port -> HandshakeProbe
        self.peer_id = b"-SM0000-" + \
            random.Random(f"{seed}:probe:{host_id}").randbytes(12)
        sim.set_handler(host_id, self._on_packet)

    def _on_packet(self, sim, host_id, pkt, payload):
        probe = self._pending.get(pkt.dst_port)
        if probe is None or pkt.src_ip != probe.target_ip:
            return
        if "RST" in pkt.tcp_flags:
            probe.refused = True
            return
        if probe.response is None:
            probe.response = pkt

    def send(self, ip: int, port: int, infohash: bytes,
             at: float) -> HandshakeProbe:
        src_port = self._next_port
        self._next_port += 1
        probe = HandshakeProbe(ip, port, infohash)
        self._pending[src_port] = probe
        data = build_handshake(infohash, self.peer_id)
        self.sim.schedule_send(self.host_id, ip, port, "TCP", len(data),
                               at=at, src_port=src_port, payload=data)
        return probe


# -- the crawler --------------------------------------------------------------

@dataclass(frozen=True)
class CrawlSnapshot:
    t: float
    infohash: bytes
    peers: tuple             # ((ip, port), ...)
    complete: bool


@dataclass
class CrawlRound:
    snapshots: list
    failures: int

    def membership(self) -> dict:
        return {s.infohash: set(s.peers) for s in self.snapshots}


def run_crawl(sim: Simulator, dht: DhtNetwork, bots, infohashes,
              t_start: float, deadline: float = 3600.0) -> CrawlRound:
    """One crawl round: the infohash list is partitioned over the bots
    (KrpcClient instances); each bot chains lookups, appending snapshots to
    the shared sink.  Crawling is read-only for swarm state."""
    snapshots: list = []
    boot = dht.bootstrap_node()
    bootstrap = (boot.node_id, boot.ip, boot.port)
    queues = [list(infohashes[b::len(bots)]) for b in range(len(bots))]
    remaining = [len(q) for q in queues]

    def start_next(bot_index: int) -> None:
        if not queues[bot_index]:
            return
        infohash = queues[bot_index].pop(0)

        def on_done(result):
            snapshots.append(CrawlSnapshot(sim.now, infohash, result.peers,
                                           not result.failed))
            remaining[bot_index] -= 1
            start_next(bot_index)

        LookupTask(bots[bot_index], bootstrap, infohash, on_done).start()

    for b in range(len(bots)):
        sim.schedule(t_start + 0.001 * b, start_next, b)

    end = t_start + deadline
    while sim.now < end and any(remaining):
        sim.advance(min(end, sim.now + 30.0))
    for b, queue in enumerate(queues):
        for infohash in queue:   # not even attempted before the deadline
            snapshots.append(CrawlSnapshot(end, infohash, (), False))
    snapshots.sort(key=lambda s: (s.infohash, s.t))
    failures = sum(1 for s in snapshots if not s.complete)
    return CrawlRound(snapshots, failures)


# -- RTC/BT matching ----------------------------------------------------------

@dataclass(frozen=True)
class MatchCandidate:
    user: str
    ip: int
    port: int
    infohash: bytes


def match_ips(rtc_observations, snapshots,
              day_seconds: float = DAY_SECONDS) -> list:
    """Join RTC samples with crawl snapshots on IP within the same
    simulated day.  Performed on the fly; the (IP, infohash) pairing is
    never persisted -- candidates go straight to the verifier."""
    by_day: dict = {}
    for snap in snapshots:
        day = int(snap.t // day_seconds)
        index = by_day.setdefault(day, {})
        for ip, port in snap.peers:
            index.setdefault(ip, set()).add((port, snap.infohash))
    out = {}
    for obs in rtc_observations:
        day = int(obs.t // day_seconds)
        hits = by_day.get(day, {}).get(obs.ip)
        if not hits:
            continue
        for port, infohash in sorted(hits):
            key = (obs.user, obs.ip, port)
            if key not in out:
                out[key] = MatchCandidate(obs.user, obs.ip, port, infohash)
    return sorted(out.values(),
                  key=lambda c: (c.user, c.ip, c.port, c.infohash))
