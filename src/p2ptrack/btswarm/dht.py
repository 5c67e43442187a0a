"""Simulated Mainline-style DHT with real KRPC message bytes.

Nodes store each infohash's peer list at the node whose id minimizes the
XOR distance to it.  Routing tables are Kademlia buckets (up to 8 entries
per distance level), so iterative find_node lookups strictly shrink the
distance each hop.  Queries, responses and announces are bencoded KRPC
dicts carried as payloads on simulated UDP packets; NATed announcers are
therefore recorded under their public address, exactly like on the real
network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..netsim import Simulator
from .bencode import BencodeError, bdecode, bencode

KRPC_PORT = 6881
KRPC_CLIENT_PORT = 9100
BUCKET_CAP = 8
CLOSEST_RETURNED = 8
MAX_LOOKUP_QUERIES = 64
QUERY_TIMEOUT = 1.0      # seconds a lookup waits for each reply
PROTOCOL_ERROR = 203     # BEP 5 error code for a malformed query


class DhtError(Exception):
    pass


def xor_distance(a: bytes, b: bytes) -> int:
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


# -- compact encodings --------------------------------------------------------

def pack_peer(ip: int, port: int) -> bytes:
    return ip.to_bytes(4, "big") + port.to_bytes(2, "big")


def unpack_peers(values) -> list:
    peers = []
    for v in values:
        if isinstance(v, (bytes, bytearray)) and len(v) == 6:
            peers.append((int.from_bytes(v[:4], "big"),
                          int.from_bytes(v[4:], "big")))
    return peers


def pack_nodes(nodes) -> bytes:
    return b"".join(node_id + pack_peer(ip, port)
                    for node_id, ip, port in nodes)


def unpack_nodes(blob: bytes) -> list:
    out = []
    for i in range(0, len(blob) - 25, 26):
        chunk = blob[i:i + 26]
        out.append((chunk[:20], int.from_bytes(chunk[20:24], "big"),
                    int.from_bytes(chunk[24:26], "big")))
    return out


# -- KRPC messages ------------------------------------------------------------

def krpc_query(txn: bytes, method: str, args: dict) -> bytes:
    return bencode({"t": txn, "y": "q", "q": method, "a": args})


def krpc_response(txn: bytes, body: dict) -> bytes:
    return bencode({"t": txn, "y": "r", "r": body})


def krpc_error(txn: bytes, code: int, message: str) -> bytes:
    return bencode({"t": txn, "y": "e", "e": [code, message]})


def parse_krpc(data: bytes) -> dict:
    msg = bdecode(data)
    if not isinstance(msg, dict) or b"t" not in msg or b"y" not in msg:
        raise DhtError("not a KRPC message")
    return msg


def _query_args_ok(args) -> bool:
    """BEP 5 argument types: 20-byte ids, targets and infohashes, and a
    port that fits 16 bits."""
    if not isinstance(args, dict):
        return False
    for key in (b"id", b"target", b"info_hash"):
        value = args.get(key)
        if value is not None and \
                not (isinstance(value, bytes) and len(value) == 20):
            return False
    port = args.get(b"port", 0)
    return type(port) is int and 0 <= port < 1 << 16


def _response_ok(body) -> bool:
    return isinstance(body, dict) and \
        isinstance(body.get(b"nodes", b""), bytes) and \
        isinstance(body.get(b"values", []), list)


# -- nodes --------------------------------------------------------------------

class DhtNode:
    __slots__ = ("node_id", "host_id", "ip", "port", "routing", "store",
                 "responsive")

    def __init__(self, node_id: bytes, host_id: str, ip: int, port: int):
        if len(node_id) != 20:
            raise DhtError("node id must be 20 bytes")
        self.node_id = node_id
        self.host_id = host_id
        self.ip = ip
        self.port = port
        self.routing: list = []      # (node_id, ip, port)
        self.store: dict = {}        # infohash -> {(ip, port): True}
        self.responsive = True

    def closest_known(self, target: bytes) -> list:
        pool = self.routing + [(self.node_id, self.ip, self.port)]
        pool.sort(key=lambda n: (xor_distance(n[0], target), n[0]))
        return pool[:CLOSEST_RETURNED]


class DhtNetwork:
    """All simulated DHT nodes plus their ground-truth placement oracle."""

    def __init__(self, sim: Simulator, seed=0):
        self.sim = sim
        self.seed = seed
        self.nodes: dict = {}        # node_id -> DhtNode
        self.by_host: dict = {}
        self.rejected = 0            # packets a responsive node ignores
        self._rng = random.Random(f"{seed}:dht")

    def add_node(self, host_id: str) -> DhtNode:
        node_id = self._rng.randbytes(20)
        host = self.sim.hosts[host_id]
        if host.nat is not None:
            raise DhtError("DHT nodes must be public")
        node = DhtNode(node_id, host_id, host.ip, KRPC_PORT)
        if node_id in self.nodes:
            raise DhtError("duplicate node id")
        self.nodes[node_id] = node
        self.by_host[host_id] = node
        self.sim.set_port_handler(host_id, KRPC_PORT, self._server)
        return node

    def build_routing(self) -> None:
        ids = sorted(self.nodes)
        for me in ids:
            node = self.nodes[me]
            buckets: dict = {}
            for other in ids:
                if other == me:
                    continue
                buckets.setdefault(xor_distance(me, other).bit_length() - 1,
                                   []).append(other)
            routing = []
            for level in sorted(buckets):
                members = buckets[level]
                if len(members) > BUCKET_CAP:
                    members = self._rng.sample(members, BUCKET_CAP)
                for other in sorted(members):
                    peer = self.nodes[other]
                    routing.append((other, peer.ip, peer.port))
            node.routing = routing

    def responsible(self, infohash: bytes) -> DhtNode:
        """Oracle: node minimizing XOR(node_id, infohash) over all nodes."""
        if not self.nodes:
            raise DhtError("empty DHT")
        best = min(self.nodes,
                   key=lambda nid: (xor_distance(nid, infohash), nid))
        return self.nodes[best]

    def bootstrap_node(self) -> DhtNode:
        if not self.nodes:
            raise DhtError("empty DHT")
        return self.nodes[min(self.nodes)]

    # -- server side -----------------------------------------------------

    def _server(self, sim, host_id, pkt, payload):
        node = self.by_host[host_id]
        if not node.responsive:
            return
        try:
            if payload is None:
                raise DhtError("no payload")
            msg = parse_krpc(payload)
        except (BencodeError, DhtError):
            self.rejected += 1
            return
        if msg.get(b"y") != b"q":
            self.rejected += 1
            return
        txn = msg[b"t"]
        args = msg.get(b"a", {})
        method = msg.get(b"q")
        if not isinstance(txn, bytes):
            self.rejected += 1
            return   # no transaction id to answer under
        if not _query_args_ok(args):
            self.rejected += 1
            self._reply(host_id, pkt, krpc_error(txn, PROTOCOL_ERROR,
                                                 "malformed arguments"))
            return
        if method == b"find_node":
            target = args.get(b"target", b"\x00" * 20)
            body = {"id": node.node_id,
                    "nodes": pack_nodes(node.closest_known(target))}
        elif method == b"get_peers":
            infohash = args.get(b"info_hash", b"")
            stored = node.store.get(infohash)
            if stored:
                values = [pack_peer(ip, port)
                          for ip, port in sorted(stored)]
                body = {"id": node.node_id, "values": values}
            else:
                body = {"id": node.node_id,
                        "nodes": pack_nodes(node.closest_known(infohash))}
        elif method == b"announce_peer":
            infohash = args.get(b"info_hash", b"")
            port = args.get(b"port", pkt.src_port)
            if len(infohash) == 20:
                node.store.setdefault(infohash, {})[(pkt.src_ip, port)] = True
            body = {"id": node.node_id}
        else:
            self.rejected += 1
            return
        self._reply(host_id, pkt, krpc_response(txn, body))

    def _reply(self, host_id: str, pkt, reply: bytes) -> None:
        self.sim.schedule_send(host_id, pkt.src_ip, pkt.src_port, "UDP",
                               len(reply), src_port=KRPC_PORT, payload=reply)

    def withdraw_peer(self, infohash: bytes, ip: int, port: int,
                      at: float) -> None:
        """Model announce expiry when a peer leaves its swarm."""
        self.sim.schedule(at, _expire, self.responsible(infohash), infohash,
                          (ip, port))


def _expire(node: DhtNode, infohash: bytes, peer: tuple) -> None:
    node.store.get(infohash, {}).pop(peer, None)


# -- client side --------------------------------------------------------------

class KrpcClient:
    """Request/response correlation for one querying host."""

    def __init__(self, sim: Simulator, host_id: str, seed=0):
        self.sim = sim
        self.host_id = host_id
        self.node_id = random.Random(f"{seed}:krpc:{host_id}").randbytes(20)
        self._pending: dict = {}    # txn -> callback
        self._txn = 0
        self.rejected = 0           # packets that are not a valid response
        sim.set_port_handler(host_id, KRPC_CLIENT_PORT, self._on_packet)

    def _on_packet(self, sim, host_id, pkt, payload):
        try:
            if payload is None:
                raise DhtError("no payload")
            msg = parse_krpc(payload)
        except (BencodeError, DhtError):
            self.rejected += 1
            return
        if msg.get(b"y") != b"r":
            self.rejected += 1
            return
        txn, body = msg[b"t"], msg.get(b"r", {})
        if not isinstance(txn, bytes) or not _response_ok(body):
            self.rejected += 1
            return
        cb = self._pending.pop(txn, None)
        if cb is not None:
            cb(body)

    def send_query(self, ip: int, port: int, method: str, args: dict,
                   on_reply: Callable, on_timeout: Callable,
                   timeout: float) -> None:
        self._txn += 1
        txn = self._txn.to_bytes(4, "big")
        self._pending[txn] = on_reply
        data = krpc_query(txn, method, args)
        self.sim.schedule_send(self.host_id, ip, port, "UDP", len(data),
                               at=self.sim.now, src_port=KRPC_CLIENT_PORT,
                               payload=data)
        self.sim.schedule(self.sim.now + timeout, self._check_timeout, txn,
                          on_timeout)

    def _check_timeout(self, txn: bytes, on_timeout: Callable) -> None:
        if self._pending.pop(txn, None) is not None:
            on_timeout()


@dataclass
class LookupResult:
    infohash: bytes
    responsible_id: Optional[bytes]
    peers: tuple
    hops: tuple              # XOR distances of each responding hop
    queries: int
    failed: bool


class LookupTask:
    """Iterative find_node toward an infohash, then get_peers at the best
    responding node.  Unresponsive nodes are retried once and skipped."""

    def __init__(self, client: KrpcClient, bootstrap, infohash: bytes,
                 on_done: Callable):
        self.client = client
        self.infohash = infohash
        self.on_done = on_done
        self.queries = 0
        self.hops: list = []
        self.candidates: dict = {}   # node_id -> (ip, port)
        self.tried: set = set()
        self.best: Optional[tuple] = None   # (dist, node_id, ip, port)
        boot_id, boot_ip, boot_port = bootstrap
        self.candidates[boot_id] = (boot_ip, boot_port)

    def start(self) -> None:
        self._step()

    def _next_candidate(self):
        fresh = [(xor_distance(nid, self.infohash), nid)
                 for nid in self.candidates if nid not in self.tried]
        if not fresh:
            return None
        fresh.sort()
        return fresh[0][1]

    def _step(self) -> None:
        nid = self._next_candidate()
        if nid is None or self.queries >= MAX_LOOKUP_QUERIES:
            self._finish(failed=self.best is None)
            return
        dist = xor_distance(nid, self.infohash)
        if self.best is not None and dist >= self.best[0]:
            self._finish(failed=False)
            return
        ip, port = self.candidates[nid]
        self.tried.add(nid)
        self._query_find_node(nid, ip, port, dist, retry=True)

    def _query_find_node(self, nid, ip, port, dist, retry: bool) -> None:
        self.queries += 1

        def on_reply(body):
            self.hops.append(dist)
            self.best = (dist, nid, ip, port)
            for other_id, oip, oport in unpack_nodes(body.get(b"nodes", b"")):
                if len(other_id) == 20 and other_id not in self.candidates:
                    self.candidates[other_id] = (oip, oport)
            self._step()

        def on_timeout():
            if retry:
                self._query_find_node(nid, ip, port, dist, retry=False)
            else:
                self._step()   # skip this node

        self.client.send_query(ip, port, "find_node",
                               {"id": self.client.node_id,
                                "target": self.infohash},
                               on_reply, on_timeout, QUERY_TIMEOUT)

    def _finish(self, failed: bool) -> None:
        if failed:
            self.on_done(LookupResult(self.infohash, None, (), tuple(self.hops),
                                      self.queries, True))
            return
        _, nid, ip, port = self.best
        self.queries += 1

        def on_reply(body):
            peers = tuple(sorted(unpack_peers(body.get(b"values", []))))
            self.on_done(LookupResult(self.infohash, nid, peers,
                                      tuple(self.hops), self.queries, False))

        def on_timeout():
            self.on_done(LookupResult(self.infohash, nid, (),
                                      tuple(self.hops), self.queries, True))

        self.client.send_query(ip, port, "get_peers",
                               {"id": self.client.node_id,
                                "info_hash": self.infohash},
                               on_reply, on_timeout, QUERY_TIMEOUT)


def announce(sim: Simulator, dht: DhtNetwork, host_id: str, src_port: int,
             infohash: bytes, public_port: int, at: float) -> None:
    """One announce datagram from the peer to the responsible node; the
    node records the packet's (post-NAT) source IP and the announced port."""
    target = dht.responsible(infohash)
    data = krpc_query(b"an", "announce_peer",
                      {"id": b"\x00" * 20, "info_hash": infohash,
                       "port": public_port})
    sim.schedule_send(host_id, target.ip, target.port, "UDP", len(data),
                      at=at, src_port=src_port, payload=data)
