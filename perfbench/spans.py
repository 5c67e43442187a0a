"""Spans around the calls into each p2ptrack module, recorded from outside.

``Tracer`` replaces public functions by wrappers under the names their
callers look them up by, and puts the originals back on exit.  A span is
(name, start, end, parent span).  Spans live in flat arrays while the run
goes on and are reduced once, at the end, to per-layer totals and self
times.  A layer's self time is its spans' duration minus the part their
child spans cover.  GC pauses come from ``gc.callbacks`` and are charged to
the span that was open when the collection began; they stay inside that
span's self time.
"""

from __future__ import annotations

import gc
import importlib
import time
from array import array
from functools import partial

NO_SPAN = "none"


def _packets(args, counts):
    counts["sniffer.packets_in"] += len(args[0])


def _decoded_bytes(args, counts):
    counts["btswarm.bdecode.bytes"] += len(args[0])


def _crawl_round(args, result, counts):
    counts["btswarm.lookups"] += len(result.snapshots)
    counts["btswarm.lookup_failed"] += result.failures


def _verified(args, result, counts):
    counts["verifier.probe_rounds"] += (len(args[1])
                                        * args[0].cfg.min_rounds)
    counts["verifier.rounds_kept"] += sum(len(r.rounds) for r in result)


# (owner, attribute, span name, hook on the arguments, hook on the result).
# An owner is a module, or "module:Class".  Functions imported by name are
# wrapped in the importing module.
SPANS = (
    ("p2ptrack.pipelines", "run", "pipelines.run", None, None),
    ("p2ptrack.pipelines", "build_world", "worldgen.build_world", None, None),
    ("p2ptrack.pipelines", "write_report", "pipelines.write_report", None,
     None),
    ("p2ptrack.pipelines", "run_crawl", "btswarm.run_crawl", None,
     _crawl_round),
    ("p2ptrack.pipelines", "match_ips", "btswarm.match_ips", None, None),
    ("p2ptrack.pipelines", "disambiguate", "tracker.disambiguate", None,
     None),
    ("p2ptrack.pipelines", "mobility_report", "tracker.mobility_report",
     None, None),
    ("p2ptrack.netsim:Simulator", "advance", "netsim.advance", None, None),
    ("p2ptrack.rtcdir:RtcOverlay", "place_call", "rtcdir.place_call", None,
     None),
    ("p2ptrack.tracker", "classify_trace", "sniffer.classify", _packets,
     None),
    ("p2ptrack.verifier", "classify_trace", "sniffer.classify", _packets,
     None),
    ("p2ptrack.tracker:Tracker", "run_round", "tracker.run_round", None,
     None),
    ("p2ptrack.verifier:Verifier", "verify_candidates",
     "verifier.verify_candidates", None, _verified),
    ("p2ptrack.btswarm.dht", "bdecode", "btswarm.bdecode", _decoded_bytes,
     None),
    ("p2ptrack.btswarm.dht", "bencode", "btswarm.bencode", None, None),
)
# Called once per simulator event, so counted without a span.
COUNTED = (("p2ptrack.netsim:Simulator", "schedule", "netsim.events"),)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in SPANS))
COUNTERS = ("netsim.events", "sniffer.packets_in", "btswarm.bdecode.bytes",
            "btswarm.lookups", "btswarm.lookup_failed",
            "verifier.probe_rounds", "verifier.rounds_kept")


def resolve(owner: str):
    """The module or class an owner string names."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Context manager: wrappers and the GC callback are installed on entry
    and removed on exit, also when the traced code raises."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.gc_collections = [0, 0, 0]
        self._names = array("H")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list = []
        self._pause_by_name = dict.fromkeys(SPAN_NAMES + (NO_SPAN,), 0.0)
        self._gc_start = (0.0, -1)
        self._saved: list = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, before, after in SPANS:
                self._install(owner, attr, partial(
                    self._span, name_id=SPAN_NAMES.index(name),
                    before=before, after=after))
            for owner, attr, name in COUNTED:
                self._install(owner, attr, partial(self._counted, name=name))
            gc.callbacks.append(self._on_gc)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._restore()

    def _install(self, owner, attr, wrap) -> None:
        owner = resolve(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------

    def _span(self, fn, name_id, before, after):
        names, parents, starts, ends = (self._names, self._parents,
                                        self._starts, self._ends)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, counts)
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = (time.perf_counter(),
                              self._stack[-1] if self._stack else -1)
            return
        t0, sid = self._gc_start
        name = SPAN_NAMES[self._names[sid]] if sid >= 0 else NO_SPAN
        self._pause_by_name[name] += time.perf_counter() - t0
        self.gc_collections[info["generation"]] += 1

    # -- reduction ------------------------------------------------------

    def span_totals(self) -> dict:
        """Span name -> {"n", "s" (inclusive seconds), "self_s"}."""
        n = len(self._names)
        child = [0.0] * n
        durations = [self._ends[i] - self._starts[i] for i in range(n)]
        for i, parent in enumerate(self._parents):
            if parent >= 0:
                child[parent] += durations[i]
        totals = {name: {"n": 0, "s": 0.0, "self_s": 0.0}
                  for name in SPAN_NAMES}
        for i, name_id in enumerate(self._names):
            t = totals[SPAN_NAMES[name_id]]
            t["n"] += 1
            t["s"] += durations[i]
            t["self_s"] += durations[i] - child[i]
        return totals

    def gc_pause(self) -> dict:
        """Span name (or ``none``) -> GC pause seconds that began in it."""
        return dict(self._pause_by_name)


def layer_metrics(tracer: Tracer, cpu_s: float, traced_s: float) -> dict:
    """Flat per-layer metrics of one traced run; traced_s is the run's
    setup_s + run_s as timed around the pipeline."""
    totals = tracer.span_totals()
    counts = tracer.counts
    out = {}
    for name, t in totals.items():
        out[f"{name}.n"] = t["n"]
        out[f"{name}.s"] = t["s"]
        out[f"{name}.self_s"] = t["self_s"]
    for name, pause in tracer.gc_pause().items():
        out[f"gc.pause_s.{name}"] = pause
    out["gc.pause_s"] = sum(tracer.gc_pause().values())
    for gen, n in enumerate(tracer.gc_collections):
        out[f"gc.collections.gen{gen}"] = n
    out["runtime.cpu_s"] = cpu_s

    def per(num, den):
        return num / den if den else 0.0

    out["netsim.events.n"] = counts["netsim.events"]
    out["netsim.events_per_s"] = per(counts["netsim.events"],
                                     totals["netsim.advance"]["self_s"])
    place = totals["rtcdir.place_call"]
    out["rtcdir.place_call.us_per_call"] = per(place["self_s"] * 1e6,
                                               place["n"])
    classify = totals["sniffer.classify"]
    out["sniffer.packets_in.n"] = counts["sniffer.packets_in"]
    out["sniffer.packets_per_s"] = per(counts["sniffer.packets_in"],
                                       classify["self_s"])
    out["sniffer.packets_per_call"] = per(counts["sniffer.packets_in"],
                                          classify["n"])
    out["verifier.probe_rounds.n"] = counts["verifier.probe_rounds"]
    out["verifier.rounds_kept_frac"] = per(counts["verifier.rounds_kept"],
                                           counts["verifier.probe_rounds"])
    out["btswarm.lookups.n"] = counts["btswarm.lookups"]
    out["btswarm.lookup_failed.n"] = counts["btswarm.lookup_failed"]
    out["btswarm.bdecode.mb_per_s"] = per(
        counts["btswarm.bdecode.bytes"] / 1e6, totals["btswarm.bdecode"]["s"])
    out["trace.unattributed_s"] = traced_s - sum(t["self_s"]
                                                 for t in totals.values())
    return out


def layer_specs() -> list:
    """(name, unit, better) of every per-layer metric, in output order:
    those of ``layer_metrics`` plus the two the benchmark adds from the
    untraced run of each pair."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.n", "count", "lower"),
                  (f"{name}.s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
    specs += [(f"gc.pause_s.{name}", "s", "lower")
              for name in SPAN_NAMES + (NO_SPAN,)]
    specs += [("gc.pause_s", "s", "lower"),
              ("gc.collections.gen0", "count", "lower"),
              ("gc.collections.gen1", "count", "lower"),
              ("gc.collections.gen2", "count", "lower"),
              ("runtime.cpu_s", "s", "lower"),
              ("netsim.events.n", "count", "lower"),
              ("netsim.events_per_s", "1/s", "higher"),
              ("rtcdir.place_call.us_per_call", "us", "lower"),
              ("sniffer.packets_in.n", "count", "lower"),
              ("sniffer.packets_per_s", "1/s", "higher"),
              ("sniffer.packets_per_call", "count", "lower"),
              ("verifier.probe_rounds.n", "count", "lower"),
              ("verifier.rounds_kept_frac", "frac", "higher"),
              ("btswarm.lookups.n", "count", "higher"),
              ("btswarm.lookup_failed.n", "count", "lower"),
              ("btswarm.lookups_per_s", "1/s", "higher"),
              ("btswarm.bdecode.mb_per_s", "MB/s", "higher"),
              ("trace.unattributed_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs
