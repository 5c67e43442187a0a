"""Every packet handler accepts or counts what reaches it: random packets
aimed at each handler of a smoke linkage world while a crawl runs never
escape `Simulator.advance`, and the crawl still completes."""

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from p2ptrack.btswarm.bencode import bencode
from p2ptrack.btswarm.dht import KRPC_CLIENT_PORT
from p2ptrack.btswarm.swarm import (CRAWL_DELAY, PROBE_PORT_BASE,
                                    build_handshake, run_crawl)
from p2ptrack.scenario import load_scenario
from p2ptrack.worldgen import STATE_ONLINE, build_world

SMOKE = "scenarios/smoke.yaml"
FUZZ_PORT = 4444          # the source port of every fuzz packet
FUZZ_SPAN = 2.0           # fuzz packets leave in the crawl's first seconds
TARGETS = ("krpc node", "krpc client", "bt port", "prober", "rtc client")


@functools.cache
def _swarms() -> list:
    """The smoke world's swarm infohashes, built on first use."""
    return build_world(load_scenario(SMOKE)).bt.top_infohashes


_swarm = st.deferred(lambda: st.sampled_from(_swarms()))
# guessed transaction ids: a crawler numbers its queries from 1
_txns = st.integers(0, 40).map(lambda n: n.to_bytes(4, "big"))
_atoms = (st.integers(-2, 1 << 17) | st.binary(max_size=30) | _txns
          | st.sampled_from([b"q", b"r", b"e", b"find_node", b"get_peers",
                             b"announce_peer", b"ping"]))
_values = st.recursive(
    _atoms,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from([b"id", b"target", b"info_hash", b"port", b"nodes",
                         b"values", b"token"]), inner, max_size=4),
    max_leaves=8)
_ids = st.binary(min_size=20, max_size=20)
_query_args = st.fixed_dictionaries({}, optional={
    b"id": _ids | _values, b"target": _swarm | _values,
    b"info_hash": _swarm | _values,
    b"port": st.integers(0, 65535) | _values})
_response_body = st.fixed_dictionaries({}, optional={
    b"id": _ids | _values, b"nodes": st.binary(max_size=60) | _values,
    b"values": st.lists(st.binary(min_size=6, max_size=6) | _values,
                        max_size=3) | _values})


@st.composite
def _krpc(draw):
    """A KRPC query or response under a guessed transaction id, with up to
    two of t, y, q, a and r left out or given a value of any type."""
    if draw(st.booleans()):
        msg = {b"t": draw(_txns), b"y": b"q",
               b"q": draw(st.sampled_from([b"find_node", b"get_peers",
                                           b"announce_peer", b"ping"])),
               b"a": draw(_query_args)}
    else:
        msg = {b"t": draw(_txns), b"y": b"r", b"r": draw(_response_body)}
    for key in draw(st.lists(st.sampled_from([b"t", b"y", b"q", b"a", b"r"]),
                             max_size=2, unique=True)):
        if draw(st.booleans()):
            msg.pop(key, None)
        else:
            msg[key] = draw(_values)
    return bencode(msg)


@st.composite
def _near_handshake(draw):
    """A valid handshake for one of the world's swarms, then one byte
    changed, the end cut, or bytes appended (or kept whole)."""
    data = bytearray(build_handshake(draw(_swarm),
                                     b"-FZ0000-" + bytes(12)))
    how = draw(st.sampled_from(["whole", "flip", "cut", "grow"]))
    if how == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif how == "cut":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif how == "grow":
        data += draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


_payloads = (st.none() | st.binary(max_size=80) | _near_handshake()
             | _krpc())
# each target is also sent the payloads its protocol expects
_aimed = {"krpc node": _krpc() | _payloads,
          "krpc client": _krpc() | _payloads,
          "bt port": _near_handshake() | _payloads,
          "prober": _near_handshake() | _payloads,
          "rtc client": _payloads}


@st.composite
def _packet(draw):
    """(target, source index, send offset, proto, flags, size, prober
    port offset, payload) of one fuzz packet."""
    target = draw(st.sampled_from(TARGETS))
    return (target, draw(st.integers(0, 2)), draw(st.floats(0.0, FUZZ_SPAN)),
            draw(st.sampled_from(["UDP", "TCP"])),
            draw(st.sampled_from(["", "SYN", "ACK", "ACK,SYN", "RST"])),
            draw(st.sampled_from([3, 28, 58, 59, 68]) | st.integers(0, 200)),
            draw(st.integers(0, 2)), draw(_aimed[target]))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.lists(_packet(), min_size=1, max_size=25))
def test_random_packets_at_every_handler_never_escape(packets):
    world = build_world(load_scenario(SMOKE))
    sim, bt = world.sim, world.bt
    # no source answers a packet to FUZZ_PORT, so each packet that reaches
    # a target with that source port is one the test sent
    bt_host = next(h for h in bt.registry.clients
                   if sim.hosts[h].nat is None
                   and h not in world.overlay._ports)
    rtc_host = next(world.user_home[u] for u in world.target_ids
                    if world.user_state[u] == STATE_ONLINE
                    and sim.hosts[world.user_home[u]].nat is None)
    node = bt.dht.nodes[min(bt.dht.nodes)]
    bot = bt.crawler_bots[0].host_id
    prober = world.probers[0]
    t0 = sim.now + CRAWL_DELAY
    # a probe waits at PROBE_PORT_BASE for a reply from bt_host
    client = bt.registry.clients[bt_host]
    prober.send(client.external_ip, client.external_port,
                next(iter(client.torrents)), at=t0)

    hosts = {"krpc node": (node.host_id, node.port),
             "krpc client": (bot, KRPC_CLIENT_PORT),
             "bt port": (bt_host, client.bt_port),
             "prober": (prober.host_id, PROBE_PORT_BASE),
             "rtc client": (rtc_host, world.overlay._ports[rtc_host])}
    sources = (node.host_id, bot, bt_host)
    reached = []

    def noted(target, handler):
        def wrapper(sim, host_id, pkt, payload):
            if pkt.src_port == FUZZ_PORT:
                reached.append(target)
            handler(sim, host_id, pkt, payload)
        return wrapper

    for target, (host_id, port) in hosts.items():
        host = sim.hosts[host_id]
        if port in host.port_handlers:
            host.port_handlers[port] = noted(target,
                                             host.port_handlers[port])
        else:
            host.handler = noted(target, host.handler)

    sent = []
    for target, src, dt, proto, flags, size, port_off, payload in packets:
        host_id, port = hosts[target]
        if target == "prober":
            port += port_off
        sim.schedule_send(sources[src], sim.public_ip_of(host_id), port,
                          proto, len(payload) if payload else size, flags,
                          at=t0 + dt, src_port=FUZZ_PORT, payload=payload)
        sent.append(target)

    crawl = run_crawl(sim, bt.dht, bt.crawler_bots, bt.top_infohashes, t0)
    sim.advance(max(sim.now, t0 + FUZZ_SPAN + 1.0))
    assert sorted(s.infohash for s in crawl.snapshots) == \
        sorted(bt.top_infohashes)
    # every fuzz packet reached the handler it was aimed at
    assert sorted(reached) == sorted(sent)
