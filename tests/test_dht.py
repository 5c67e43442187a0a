import random
import warnings

import pytest

from p2ptrack.btswarm.bencode import bdecode, bencode
from p2ptrack.btswarm.dht import (KRPC_CLIENT_PORT, PROTOCOL_ERROR,
                                  DhtError, DhtNetwork, KrpcClient,
                                  LookupTask, announce, krpc_query,
                                  krpc_response, pack_peer, parse_krpc,
                                  unpack_nodes, unpack_peers, xor_distance)
from p2ptrack.netsim import Simulator, parse_ip


def build_dht(n, seed=13):
    sim = Simulator(seed=seed)
    dht = DhtNetwork(sim, seed=seed)
    for i in range(n):
        host = f"d{i:03d}"
        sim.add_host(host, f"10.0.{i // 250}.{i % 250 + 1}")
        dht.add_node(host)
    dht.build_routing()
    sim.add_host("client", "10.9.0.1")
    return sim, dht, KrpcClient(sim, "client", seed=seed)


def lookup(client, dht, infohash):
    """One lookup from the bootstrap node, the loop run in half-second
    steps until it reports."""
    boot = dht.bootstrap_node()
    done = []
    LookupTask(client, (boot.node_id, boot.ip, boot.port), infohash,
               done.append).start()
    sim = client.sim
    while not done and sim.now < 3600.0:
        sim.advance(sim.now + 0.5)
    return done[0]


def test_krpc_query_wire_format():
    data = krpc_query(b"aa", "find_node", {"id": b"\x01" * 20,
                                           "target": b"\x02" * 20})
    doc = bdecode(data)
    assert doc == {b"t": b"aa", b"y": b"q", b"q": b"find_node",
                   b"a": {b"id": b"\x01" * 20, b"target": b"\x02" * 20}}
    # canonical key order on the wire
    assert data.startswith(b"d1:ad2:id20:")


def test_krpc_response_and_compact_peers():
    values = [pack_peer(parse_ip("1.2.3.4"), 6881)]
    assert values[0] == b"\x01\x02\x03\x04\x1a\xe1"
    data = krpc_response(b"tx", {"id": b"\x03" * 20, "values": values})
    doc = parse_krpc(data)
    assert doc[b"y"] == b"r"
    peers = unpack_peers(doc[b"r"][b"values"])
    assert peers == [(parse_ip("1.2.3.4"), 6881)]


def test_compact_nodes_roundtrip():
    blob = b"".join(bytes([i]) * 20 + pack_peer(parse_ip(f"10.0.0.{i}"), 100 + i)
                    for i in range(1, 4))
    nodes = unpack_nodes(blob)
    assert len(nodes) == 3
    assert nodes[1] == (b"\x02" * 20, parse_ip("10.0.0.2"), 102)


def test_single_node_dht_owns_everything():
    sim, dht, client = build_dht(1)
    rng = random.Random("single")
    only = next(iter(dht.nodes.values()))
    for _ in range(10):
        assert dht.responsible(rng.randbytes(20)) is only
    result = lookup(client, dht, rng.randbytes(20))
    assert result.responsible_id == only.node_id
    assert not result.failed


def test_lookup_matches_exhaustive_xor_oracle():
    sim, dht, client = build_dht(60)
    rng = random.Random("oracle")
    for _ in range(60):
        target = rng.randbytes(20)
        result = lookup(client, dht, target)
        oracle = min(dht.nodes, key=lambda nid: xor_distance(nid, target))
        assert result.responsible_id == oracle
        # strictly decreasing distance per hop
        assert all(a > b for a, b in zip(result.hops, result.hops[1:]))


def test_get_peers_returns_exact_membership():
    sim, dht, client = build_dht(20)
    infohash = b"\x42" * 20
    node = dht.responsible(infohash)
    peers = {(parse_ip(f"10.3.0.{i + 1}"), 6000 + i) for i in range(25)}
    node.store[infohash] = {p: True for p in peers}
    result = lookup(client, dht, infohash)
    assert set(result.peers) == peers
    assert len(result.peers) == 25


def test_announce_records_post_nat_source_address():
    sim, dht, client = build_dht(10)
    nat = sim.add_nat("n1", "10.8.0.1", accepts_unsolicited_inbound=True)
    sim.add_host("peer", "192.168.0.2", nat="n1")
    infohash = b"\x07" * 20
    announce(sim, dht, "peer", 7000, infohash, public_port=7001, at=1.0)
    sim.advance(3.0)
    stored = dht.responsible(infohash).store[infohash]
    assert list(stored) == [(parse_ip("10.8.0.1"), 7001)]


def test_unresponsive_node_retried_then_skipped():
    sim, dht, client = build_dht(30, seed=77)
    rng = random.Random("unresp")
    target = rng.randbytes(20)
    oracle = min(dht.nodes, key=lambda nid: xor_distance(nid, target))
    # silence a mid-path node that is neither bootstrap nor responsible
    boot = dht.bootstrap_node()
    for nid in sorted(dht.nodes,
                      key=lambda n: xor_distance(n, target))[1:3]:
        if nid != boot.node_id:
            dht.nodes[nid].responsive = False
    result = lookup(client, dht, target)
    assert not result.failed
    assert result.responsible_id == oracle


def test_unresponsive_responsible_fails_lookup():
    sim, dht, client = build_dht(15, seed=5)
    target = random.Random("x").randbytes(20)
    for node in dht.nodes.values():
        node.responsive = False
    result = lookup(client, dht, target)
    assert result.failed


def test_empty_dht_lookup_is_error():
    dht = DhtNetwork(Simulator(seed=1), seed=1)
    with pytest.raises(DhtError, match="empty DHT"):
        dht.bootstrap_node()


def test_nodes_must_be_public():
    sim = Simulator(seed=1)
    dht = DhtNetwork(sim, seed=1)
    sim.add_nat("n1", "10.0.0.1")
    sim.add_host("h", "192.168.0.2", nat="n1")
    with pytest.raises(DhtError):
        dht.add_node("h")


# -- malformed KRPC messages: rejected and counted, the run goes on ----------

def _probe(sim):
    """A host whose port 5000 keeps the payloads it receives."""
    sim.add_host("probe", "10.9.0.2")
    got = []
    sim.set_port_handler("probe", 5000,
                         lambda s, h, p, payload: got.append(payload))
    return got


@pytest.mark.parametrize("method, args", [
    ("find_node", [b"\x01" * 20]),                    # a is a list
    ("get_peers", {"id": b"\x01" * 20,
                   "info_hash": [b"\x42" * 20]}),      # info_hash is a list
    ("announce_peer", {"id": b"\x01" * 20, "info_hash": b"\x42" * 20,
                       "port": b"7001"}),               # port is bytes
])
def test_malformed_query_gets_protocol_error(method, args):
    sim, dht, client = build_dht(10)
    got = _probe(sim)
    node = dht.responsible(b"\x42" * 20)
    query = bencode({"t": b"q1", "y": "q", "q": method, "a": args})
    sim.schedule_send("probe", node.ip, node.port, "UDP", len(query),
                      at=1.0, src_port=5000, payload=query)
    sim.advance(2.0)
    assert dht.rejected == 1
    assert [bdecode(p) for p in got] == [
        {b"t": b"q1", b"y": b"e", b"e": [PROTOCOL_ERROR,
                                          b"malformed arguments"]}]
    assert node.store == {}          # nothing stored under a bytes port
    # the run goes on: a get_peers at the same node still answers
    result = lookup(client, dht, b"\x42" * 20)
    assert not result.failed and result.responsible_id == node.node_id


@pytest.mark.parametrize("response", [
    {"t": [1], "y": "r", "r": {"id": b"\x02" * 20}},       # t is a list
    {"t": b"\x00\x00\x00\x01", "y": "r", "r": {"nodes": 5}},  # nodes an int
])
def test_malformed_response_is_rejected(response):
    sim, dht, client = build_dht(10)
    sim.add_host("probe", "10.9.0.2")
    boot = dht.bootstrap_node()
    replies = []
    client.send_query(boot.ip, boot.port, "find_node",
                      {"id": client.node_id, "target": b"\x05" * 20},
                      replies.append, lambda: replies.append("timeout"), 1.0)
    bad = bencode(response)    # arrives while the query is pending
    sim.schedule_send("probe", "10.9.0.1", KRPC_CLIENT_PORT, "UDP",
                      len(bad), at=sim.now, src_port=6881, payload=bad)
    sim.advance(sim.now + 2.0)
    assert client.rejected == 1
    assert len(replies) == 1 and b"nodes" in replies[0]   # the real reply
    assert not lookup(client, dht, b"\x05" * 20).failed


def test_ignored_packets_are_counted_without_reply():
    sim, dht, client = build_dht(10)
    got = _probe(sim)
    node = dht.bootstrap_node()
    for payload in (None,                                     # no payload
                    bencode({"t": b"r1", "y": "r",            # a response
                             "r": {"id": b"\x01" * 20}}),
                    bencode({"t": b"q1", "y": "q", "q": "vote",  # unknown
                             "a": {"id": b"\x01" * 20}})):
        sim.schedule_send("probe", node.ip, node.port, "UDP",
                          len(payload or b"") + 8, at=1.0, src_port=5000,
                          payload=payload)
    sim.advance(2.0)
    assert dht.rejected == 3
    assert got == []
    # an unresponsive node ignores everything without counting
    node.responsive = False
    sim.schedule_send("probe", node.ip, node.port, "UDP", 8, at=2.5,
                      src_port=5000)
    sim.advance(3.0)
    assert dht.rejected == 3


def test_client_counts_every_packet_that_is_not_a_response():
    sim, dht, client = build_dht(10)
    sim.add_host("probe", "10.9.0.2")
    node = dht.bootstrap_node()
    node.responsive = False          # the query below stays pending
    replies = []
    client.send_query(node.ip, node.port, "find_node",
                      {"id": client.node_id, "target": b"\x05" * 20},
                      replies.append, lambda: replies.append("timeout"), 1.0)
    txn = b"\x00\x00\x00\x01"        # the pending query's transaction id
    for payload in (None,                                     # no payload
                    bencode({"t": txn, "y": "q", "q": "ping",  # a query
                             "a": {"id": b"\x01" * 20}}),
                    bencode({"t": txn, "y": "e",              # an error
                             "e": [PROTOCOL_ERROR, b"no"]})):
        sim.schedule_send("probe", "10.9.0.1", KRPC_CLIENT_PORT, "UDP",
                          len(payload or b"") + 8, at=sim.now,
                          src_port=5000, payload=payload)
    sim.advance(sim.now + 0.5)
    assert client.rejected == 3
    assert replies == []
    sim.advance(sim.now + 1.0)
    assert replies == ["timeout"]


def test_unsorted_krpc_is_rejected_and_counted():
    # keys out of order (y before t before q): BEP 3 forbids it, so both
    # ends drop the datagram, count it, and the loop runs on to its end
    sim, dht, client = build_dht(10)
    sim.add_host("probe", "10.9.0.2")
    unsorted = b"d1:y1:q1:t2:aa1:q4:pinge"
    node = dht.bootstrap_node()
    for ip, port in ((node.ip, node.port), ("10.9.0.1", KRPC_CLIENT_PORT)):
        sim.schedule_send("probe", ip, port, "UDP", len(unsorted), at=0.0,
                          src_port=5000, payload=unsorted)
    with warnings.catch_warnings(record=True) as caught:
        sim.advance(1.0)
    assert caught == []
    assert sim.now == 1.0
    assert dht.rejected == 1
    assert client.rejected == 1
