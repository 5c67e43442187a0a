"""BitTorrent ecosystem: bencoding, scrape handling, simulated DHT crawl,
wire handshake, and RTC/BT address matching."""

from .bencode import BencodeError, bdecode, bencode
from .dht import (DhtError, DhtNetwork, DhtNode, KrpcClient, LookupResult,
                  LookupTask, announce, dht_lookup, krpc_query,
                  krpc_response, pack_nodes, pack_peer, parse_krpc,
                  unpack_nodes, unpack_peers, xor_distance)
from .swarm import (BtClient, CrawlRound, CrawlSnapshot, HandshakeClient,
                    HandshakeProbe, MatchCandidate, ScrapeEntry,
                    ScrapeResult, SwarmError, SwarmRegistry,
                    bt_handshake, build_handshake, build_scrape, match_ips,
                    parse_handshake, parse_scrape, run_crawl, top_k)

__all__ = [name for name in dir() if not name.startswith("_")]
