"""BitTorrent ecosystem: bencoding, scrape handling, simulated DHT crawl,
wire handshake, and RTC/BT address matching."""
