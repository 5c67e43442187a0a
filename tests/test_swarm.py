import random
import sys

import pytest

from p2ptrack.btswarm.bencode import bencode
from p2ptrack.btswarm.dht import DhtNetwork, KrpcClient
from p2ptrack.btswarm.swarm import (PROBE_PORT_BASE, HandshakeClient,
                                    ScrapeEntry, SwarmError,
                                    SwarmRegistry, build_handshake,
                                    build_scrape, match_ips, parse_handshake,
                                    parse_scrape, run_crawl, top_k)
from p2ptrack.netsim import Simulator, parse_ip


def test_scrape_sorts_by_popularity_then_infohash():
    entries = [ScrapeEntry(b"\x03" * 20, 5, 2, 0),    # pop 7
               ScrapeEntry(b"\x01" * 20, 4, 3, 0),    # pop 7
               ScrapeEntry(b"\x02" * 20, 9, 1, 0)]    # pop 10
    result = parse_scrape(build_scrape(entries))
    assert [e.infohash for e in result.entries] == \
        [b"\x02" * 20, b"\x01" * 20, b"\x03" * 20]
    assert result.skipped == 0


def test_scrape_skips_malformed_keys_with_tally():
    blob = bencode({"files": {
        b"\x01" * 20: {"complete": 3, "incomplete": 1, "downloaded": 9},
        b"short": {"complete": 5, "incomplete": 5, "downloaded": 0},
        # a count that is not a non-negative integer skips its entry too
        b"\x02" * 20: {"complete": [1], "incomplete": 1, "downloaded": 0},
        b"\x03" * 20: {"complete": 1, "incomplete": {"n": 1}},
        b"\x04" * 20: {"complete": b"abc", "incomplete": 1},
        b"\x05" * 20: {"complete": b"12", "incomplete": 1},
        b"\x06" * 20: {"complete": 1, "incomplete": 1, "downloaded": -1},
        b"\x07" * 20: [3, 1, 9],
    }})
    result = parse_scrape(blob)
    assert len(result.entries) == 1
    assert result.skipped == 7
    assert result.entries[0].seeds == 3
    assert result.entries[0].leechers == 1


def test_scrape_rejects_non_scrape_blob():
    with pytest.raises(SwarmError):
        parse_scrape(bencode({"not-files": {}}))
    with pytest.raises(SwarmError):
        parse_scrape(b"garbage")
    with pytest.raises(SwarmError):
        parse_scrape(b"i%se" % (b"1" * (sys.get_int_max_str_digits() + 1)))


def test_top_k_larger_than_entry_count():
    entries = [ScrapeEntry(bytes([i]) * 20, i, 0, 0) for i in range(3)]
    assert len(top_k(entries, 50)) == 3


def test_top_k_matches_brute_force_oracle():
    rng = random.Random("scrape-oracle")
    entries = [ScrapeEntry(rng.randbytes(20), rng.randint(0, 500),
                           rng.randint(0, 500), rng.randint(0, 100))
               for _ in range(1000)]
    got = top_k(entries, 500)
    oracle = [e.infohash for e in
              sorted(entries, key=lambda e: (-(e.seeds + e.leechers),
                                             e.infohash))][:500]
    assert got == oracle


def test_handshake_bytes_bit_exact():
    infohash = b"\xab" * 20
    peer_id = b"-SM0000-aaaabbbbcccc"
    data = build_handshake(infohash, peer_id)
    assert len(data) == 68
    assert data[0] == 19
    assert data[1:20] == b"BitTorrent protocol"
    assert data[20:28] == bytes(8)
    assert data[28:48] == infohash
    assert data[48:68] == peer_id
    assert parse_handshake(data) == (infohash, peer_id)


def test_parse_handshake_rejects_wrong_shapes():
    with pytest.raises(SwarmError):
        parse_handshake(b"\x00" * 68)
    with pytest.raises(SwarmError):
        parse_handshake(b"\x13BitTorrent protocol")
    with pytest.raises(SwarmError):
        build_handshake(b"short", b"-SM0000-aaaabbbbcccc")


def _bt_world(seed=21):
    sim = Simulator(seed=seed)
    dht = DhtNetwork(sim, seed=seed)
    for i in range(12):
        h = f"d{i:02d}"
        sim.add_host(h, f"10.0.0.{i + 1}")
        dht.add_node(h)
    dht.build_routing()
    registry = SwarmRegistry(sim, dht, seed=seed)
    return sim, dht, registry


def handshake(sim, prober, ip, port, infohash):
    """Send one handshake now and run the loop long enough for any reply."""
    probe = prober.send(ip, port, infohash, sim.now)
    sim.advance(sim.now + 2.0)
    return probe


def test_handshake_response_iff_participates():
    sim, dht, registry = _bt_world()
    sim.add_host("peer", "10.1.0.1")
    client = registry.add_client("peer")
    infohash = b"\x11" * 20
    registry.join("peer", infohash, t_join=0.5)
    sim.add_host("prober", "10.2.0.1")
    prober = HandshakeClient(sim, "prober", seed=1)
    sim.advance(2.0)

    probe = handshake(sim, prober, client.external_ip,
                      client.external_port, infohash)
    assert probe.response is not None
    assert probe.response.size == 68
    assert not probe.refused

    probe2 = handshake(sim, prober, client.external_ip,
                       client.external_port, b"\x99" * 20)
    assert probe2.response is None
    assert probe2.refused


def test_non_handshake_packets_rejected_without_reply():
    sim, dht, registry = _bt_world()
    sim.add_host("peer", "10.1.0.1")
    client = registry.add_client("peer")
    infohash = b"\x11" * 20
    registry.join("peer", infohash, t_join=0.5)
    sim.add_host("sender", "10.2.0.2")
    got = []
    sim.set_port_handler("sender", 7000,
                         lambda s, h, p, payload: got.append(p))
    sim.advance(1.0)
    # the DHT node's reply to the join's announce is not a handshake either
    assert registry.rejected == 1
    # no payload, a short payload, 68 bytes that are not a handshake
    for payload in (None, b"hello", b"\x00" * 68):
        sim.schedule_send("sender", client.external_ip,
                          client.external_port, "TCP",
                          len(payload or b"") + 40, at=1.0, src_port=7000,
                          payload=payload)
    sim.advance(3.0)
    assert registry.rejected == 4
    assert got == []
    # a handshake is answered and not counted
    sim.add_host("prober", "10.2.0.1")
    probe = handshake(sim, HandshakeClient(sim, "prober", seed=1),
                      client.external_ip, client.external_port, infohash)
    assert probe.response is not None
    assert registry.rejected == 4


def test_stray_packets_to_a_prober_are_counted_and_the_probe_waits():
    sim, dht, registry = _bt_world()
    sim.add_host("peer", "10.1.0.1")
    client = registry.add_client("peer")
    infohash = b"\x11" * 20
    registry.join("peer", infohash, t_join=0.5)
    for host, ip in (("prober", "10.2.0.1"), ("stray", "10.2.0.9")):
        sim.add_host(host, ip)
    prober = HandshakeClient(sim, "prober", seed=1)
    sim.advance(2.0)
    probe = prober.send(client.external_ip, client.external_port, infohash,
                        sim.now)
    # ahead of the peer's reply: one from another address to the probe's
    # port, one to a port no probe waits on, and from the target's address
    # a 3-byte UDP packet and a TCP packet from another of its ports
    for port in (PROBE_PORT_BASE, PROBE_PORT_BASE + 7):
        sim.schedule_send("stray", "10.2.0.1", port, "TCP", 68,
                          src_port=client.external_port)
    sim.schedule_send("peer", "10.2.0.1", PROBE_PORT_BASE, "UDP", 3,
                      src_port=client.external_port)
    sim.schedule_send("peer", "10.2.0.1", PROBE_PORT_BASE, "TCP", 68,
                      src_port=client.external_port + 1)
    sim.advance(sim.now + 2.0)
    assert prober.rejected == 4
    assert probe.response is not None and not probe.refused
    assert probe.response.proto == "TCP" and probe.response.size == 68
    assert (probe.response.src_ip, probe.response.src_port) \
        == (client.external_ip, client.external_port)
    # a second reply comes after the probe stopped waiting
    sim.schedule_send("peer", "10.2.0.1", PROBE_PORT_BASE, "TCP", 68,
                      src_port=client.external_port)
    sim.advance(sim.now + 2.0)
    assert prober.rejected == 5
    assert probe.response.src_ip == client.external_ip


def test_nated_accepting_peer_reachable_nonaccepting_not():
    sim, dht, registry = _bt_world()
    sim.add_nat("open", "10.3.0.1", accepts_unsolicited_inbound=True)
    sim.add_nat("closed", "10.3.0.2", accepts_unsolicited_inbound=False)
    sim.add_host("p1", "192.168.0.2", nat="open")
    sim.add_host("p2", "192.168.0.2", nat="closed")
    c1 = registry.add_client("p1")
    c2 = registry.add_client("p2")
    infohash = b"\x22" * 20
    registry.join("p1", infohash, 0.5)
    registry.join("p2", infohash, 0.5)
    sim.add_host("prober", "10.2.0.1")
    prober = HandshakeClient(sim, "prober", seed=1)
    sim.advance(2.0)

    assert handshake(sim, prober, c1.external_ip, c1.external_port,
                     infohash).response is not None
    assert handshake(sim, prober, c2.external_ip, c2.external_port,
                     infohash).response is None


def test_endpoint_injectivity_enforced():
    sim, dht, registry = _bt_world()
    sim.add_host("p1", "10.1.0.1")
    registry.add_client("p1", bt_port=50001)
    with pytest.raises(SwarmError):
        registry.add_client("p1", bt_port=50002)  # one client per host
    # same public (ip, port) from two hosts is impossible by construction:
    # public hosts have unique ips and NATs allocate distinct ports; the
    # guard still rejects a forced collision
    sim.add_host("p2", "10.1.0.2")
    registry.add_client("p2", bt_port=50001)  # different ip: fine


def test_crawl_is_readonly_and_sees_joins_next_round():
    sim, dht, registry = _bt_world()
    infohash = b"\x33" * 20
    for i in range(3):
        h = f"p{i}"
        sim.add_host(h, f"10.1.0.{i + 1}")
        registry.add_client(h)
        registry.join(h, infohash, 0.5)
    sim.add_host("late", "10.1.0.9")
    late = registry.add_client("late")
    sim.add_host("bot0", "10.2.0.1")
    bots = [KrpcClient(sim, "bot0", seed=3)]
    sim.advance(2.0)

    before = {(c.external_ip, c.external_port): dict(c.torrents)
              for c in registry.clients.values()}
    round1 = run_crawl(sim, dht, bots, [infohash], sim.now + 1.0,
                       deadline=600.0)
    after = {(c.external_ip, c.external_port): dict(c.torrents)
             for c in registry.clients.values()}
    assert before == after          # crawling changed nothing
    members1 = round1.membership()[infohash]
    assert (late.external_ip, late.external_port) not in members1

    registry.join("late", infohash, sim.now + 5.0)
    sim.advance(sim.now + 10.0)
    round2 = run_crawl(sim, dht, bots, [infohash], sim.now + 1.0,
                       deadline=600.0)
    members2 = round2.membership()[infohash]
    assert (late.external_ip, late.external_port) in members2
    assert members1 < members2


def test_peer_leave_expires_from_store():
    sim, dht, registry = _bt_world()
    infohash = b"\x44" * 20
    sim.add_host("p0", "10.1.0.1")
    c = registry.add_client("p0")
    registry.join("p0", infohash, 0.5, t_leave=50.0)
    sim.add_host("bot0", "10.2.0.1")
    bots = [KrpcClient(sim, "bot0", seed=3)]
    sim.advance(2.0)
    r1 = run_crawl(sim, dht, bots, [infohash], sim.now + 1.0,
                   deadline=600.0)
    assert (c.external_ip, c.external_port) in r1.membership()[infohash]
    sim.advance(60.0)
    r2 = run_crawl(sim, dht, bots, [infohash], sim.now + 1.0,
                   deadline=600.0)
    assert r2.membership()[infohash] == set()


class _Snap:
    def __init__(self, t, infohash, peers):
        self.t = t
        self.infohash = infohash
        self.peers = peers


def _obs(user, t, ip):
    return (user, t, parse_ip(ip))


def test_match_ips_joins_same_day_only():
    snaps = [_Snap(1000.0, b"\x01" * 20, ((parse_ip("5.5.5.5"), 6881),)),
             _Snap(90000.0, b"\x02" * 20, ((parse_ip("6.6.6.6"), 7000),))]
    obs = [_obs("alice", 2000.0, "5.5.5.5"),
           _obs("bob", 2000.0, "6.6.6.6")]       # bob's peer is on day 1
    candidates = match_ips(obs, snaps)
    assert len(candidates) == 1
    cand = candidates[0]
    assert (cand.user, cand.port, cand.infohash) == ("alice", 6881,
                                                     b"\x01" * 20)


def test_match_ips_emits_nat_false_positive_candidate():
    # the RTC user and the BT client share a NAT address: candidate must
    # be emitted for the verifier to settle
    snaps = [_Snap(1000.0, b"\x01" * 20, ((parse_ip("5.5.5.5"), 6881),))]
    obs = [_obs("alice", 500.0, "5.5.5.5")]
    candidates = match_ips(obs, snaps)
    assert len(candidates) == 1


def test_match_ips_dedupes_user_ip_port():
    snaps = [_Snap(1000.0, b"\x01" * 20, ((parse_ip("5.5.5.5"), 6881),)),
             _Snap(2000.0, b"\x01" * 20, ((parse_ip("5.5.5.5"), 6881),))]
    obs = [_obs("alice", 500.0, "5.5.5.5"),
           _obs("alice", 1500.0, "5.5.5.5")]
    assert len(match_ips(obs, snaps)) == 1
