"""Spans and counts at layer boundaries, recorded from outside the package.

`Boundaries` replaces a layer's public function at the attribute its
caller looks it up through (for example `iovsim.harness.route`, which is
what `simulate` calls), times each call as a span and counts the work it
was handed. Nothing under src/ changes. On exit every original is put
back. A call site that no longer exists is skipped, so a boundary the code
stops calling reports zero calls.

Spans are kept in memory as flat arrays and written once, at the end.
A layer's self time is a span's duration minus the time its direct child
spans cover.
"""

import gzip
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, Optional

ROOT = "harness.simulate"
COMM = "harness.comm"

# Spans whose per-call durations are kept for p50 and tail.
DISTRIBUTIONS = ("clustering.assign_clusters", "routing.next_hop", "bfo.optimize_split")

# Tail percentiles tried, highest first, in tenths of a percent.
_TAIL_LADDER = (999, 990, 950, 900, 750, 500)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_cell = array("i")
        self.cell = -1
        self._stack: List[list] = []  # [span id, name, start ns, child ns]
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[int]] = {n: [] for n in DISTRIBUTIONS}
        self.counts: Dict[str, int] = defaultdict(int)
        self.search_lens: Optional[set] = None

    def enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_cell.append(self.cell)
        self.span_end.append(0)
        start = perf_counter_ns()
        self.span_start.append(start)
        self._stack.append([sid, name, start, 0])

    def exit(self) -> None:
        end = perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        self.span_end[sid] = end
        dur = end - start
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if name in self.durations:
            self.durations[name].append(dur)

    def top(self) -> Optional[str]:
        return self._stack[-1][1] if self._stack else None

    def unwind_to(self, depth: int) -> None:
        """Close every span above `depth`; keeps the stack whole when a
        cell raises or a per-communication span is still open."""
        while len(self._stack) > depth:
            self.exit()

    def depth(self) -> int:
        return len(self._stack)

    def cut_comm(self) -> None:
        """A dispatch event starts a new per-communication span."""
        if self.top() == COMM:
            self.exit()
        if self.top() == ROOT:
            self.enter(COMM)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="\n", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tcell\n")
            names = self.names
            for sid, (nid, start, end, parent, cell) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_cell)):
                fh.write(f"{sid}\t{names[nid]}\t{start}\t{end}\t{parent}\t{cell}\n")


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


# Hooks see (tracer, args, kwargs) before the call and also the result after.

def _after_assign(t, args, kwargs, result):
    t.counts["clustering.nodes_assigned"] += len(result.by_node)


def _after_next_hop(t, args, kwargs, result):
    t.counts["routing.nodes_scanned"] += len(_arg(args, kwargs, 3, "nodes"))


def _after_route(t, args, kwargs, result):
    t.counts["routing.hops"] += len(result.hops) - 1
    t.counts["routing.delivered"] += bool(result.delivered)


def _before_search(t, args, kwargs):
    t.search_lens = set()


def _after_search(t, args, kwargs, result):
    t.counts["bfo.distinct_active_len"] += len(t.search_lens)
    t.search_lens = None


def _before_fitness(t, args, kwargs):
    if t.search_lens is not None:
        b, chain = _arg(args, kwargs, 0, "b"), _arg(args, kwargs, 1, "chain")
        t.search_lens.add(min(b.split_point, len(chain) - b.split_point))


def _before_split(t, args, kwargs):
    t.counts["ledger.blocks_copied"] += len(_arg(args, kwargs, 0, "chain"))


def _after_trust_add(t, args, kwargs, result):
    t.counts["trust.records_summed"] += len(args[0].records)


def _after_mark(t, args, kwargs, result):
    for kind in result.values():
        t.counts[f"attacks.marked.{kind}"] += 1


def _after_phantoms(t, args, kwargs, result):
    t.counts["attacks.phantoms"] += len(result[0])


def _after_flood(t, args, kwargs, result):
    t.counts["attacks.flood_accepted"] += result


def _before_event(t, args, kwargs):
    if _arg(args, kwargs, 1, "kind") == "dispatch":
        t.cut_comm()


def _after_event(t, args, kwargs, result):
    t.counts["harness.events"] += 1


# (module, class or None, attribute, span name, before hook, after hook)
SITES = (
    ("iovsim.harness", None, "deploy", "network.deploy", None, None),
    ("iovsim.harness", None, "mark_communications", "attacks.mark_communications", None, _after_mark),
    ("iovsim.harness", None, "make_phantoms", "attacks.make_phantoms", None, _after_phantoms),
    ("iovsim.harness", None, "flood_queue", "attacks.flood_queue", None, _after_flood),
    ("iovsim.harness", None, "assign_clusters", "clustering.assign_clusters", None, _after_assign),
    ("iovsim.harness", None, "route", "routing.route", None, _after_route),
    ("iovsim.routing", None, "next_hop", "routing.next_hop", None, _after_next_hop),
    ("iovsim.harness", None, "select_miners", "trust.select_miners", None, None),
    ("iovsim.trust", "TrustState", "add", "trust.add", None, _after_trust_add),
    ("iovsim.harness", None, "make_block", "ledger.make_block", None, None),
    ("iovsim.bfo", None, "make_block", "ledger.make_block", None, None),
    ("iovsim.bfo", None, "split", "ledger.split", _before_split, None),
    ("iovsim.harness", None, "optimize_split", "bfo.optimize_split", _before_search, _after_search),
    ("iovsim.bfo", None, "split_fitness", "bfo.split_fitness", _before_fitness, None),
    ("iovsim.harness", "EventLog", "append", "harness.event_append", _before_event, _after_event),
)

_MISSING = object()


def _wrap(tracer, fn, name, before, after):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


class Boundaries:
    """Context manager that installs the wrappers in SITES for one tracer.

    `skipped` lists the sites that were not found, so a renamed or removed
    call site shows up in the output instead of failing the run.
    """

    def __init__(self, tracer: Tracer, modules: Dict[str, object]):
        self.tracer = tracer
        self.modules = modules
        self.skipped: List[str] = []
        self._saved: List[tuple] = []

    def __enter__(self) -> "Boundaries":
        try:
            for mod_name, cls_name, attr, span, before, after in SITES:
                owner = self.modules.get(mod_name)
                if owner is not None and cls_name is not None:
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.skipped.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                    continue
                self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, _wrap(self.tracer, original, span, before, after))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def tail(durations_ns: List[int]):
    """(p50 ms, tail ms, tail percentile). The tail is the highest rung of
    the ladder with at least 10 samples beyond it; with fewer than 20
    samples no rung qualifies and the maximum is reported as rank 100."""
    if not durations_ns:
        return 0.0, 0.0, 0.0
    xs = sorted(durations_ns)
    n = len(xs)

    def rank(per_mille):  # nearest-rank percentile
        return xs[max(0, -(-per_mille * n // 1000) - 1)] / 1e6

    for per_mille in _TAIL_LADDER:
        if n * (1000 - per_mille) >= 10 * 1000:
            return rank(500), rank(per_mille), per_mille / 10.0
    return rank(500), xs[-1] / 1e6, 100.0


# (metric prefix, span name) reported as .calls and .self_ms
_TIMED = (
    ("network.deploy", "network.deploy"),
    ("clustering.assign_clusters", "clustering.assign_clusters"),
    ("routing.route", "routing.route"),
    ("routing.next_hop", "routing.next_hop"),
    ("trust.add", "trust.add"),
    ("trust.select_miners", "trust.select_miners"),
    ("ledger.make_block", "ledger.make_block"),
    ("ledger.split", "ledger.split"),
    ("bfo.optimize_split", "bfo.optimize_split"),
    ("bfo.split_fitness", "bfo.split_fitness"),
)
_ATTACK_SPANS = ("attacks.mark_communications", "attacks.make_phantoms", "attacks.flood_queue")
ATTACK_KINDS = ("sybil", "ddos", "finney", "mitm")


def tail_ranks(t: Tracer) -> Dict[str, tuple]:
    """span -> (percentile of its tail_ms, sample count). The rank follows
    from the count alone, so it is printed beside tail_ms, not reported
    as a metric."""
    return {span: (tail(t.durations[span])[2], len(t.durations[span]))
            for span in DISTRIBUTIONS}


def layer_metrics(t: Tracer, extra: Dict[str, tuple]) -> Dict[str, tuple]:
    """Per-layer metrics of one traced pass as name -> (value, unit).
    `extra` carries what is read off the run's results, not its spans."""
    m: Dict[str, tuple] = {}

    def self_ms(*spans):
        return sum(t.self_ns.get(s, 0) for s in spans) / 1e6

    for prefix, span in _TIMED:
        m[f"{prefix}.calls"] = (t.calls.get(span, 0), "count")
        m[f"{prefix}.self_ms"] = (self_ms(span), "ms")
    for span in DISTRIBUTIONS:
        p50, tl, _ = tail(t.durations[span])
        m[f"{span}.p50_ms"] = (p50, "ms")
        m[f"{span}.tail_ms"] = (tl, "ms")
    c = t.counts
    routes = t.calls.get("routing.route", 0)
    evals = t.calls.get("bfo.split_fitness", 0)
    m["clustering.nodes_assigned"] = (c["clustering.nodes_assigned"], "count")
    m["routing.nodes_scanned"] = (c["routing.nodes_scanned"], "count")
    m["routing.hops"] = (c["routing.hops"], "count")
    m["routing.delivered_ratio"] = (c["routing.delivered"] / routes if routes else 0.0, "ratio")
    m["bfo.distinct_active_len"] = (c["bfo.distinct_active_len"], "count")
    m["bfo.eval_useful_ratio"] = (c["bfo.distinct_active_len"] / evals if evals else 0.0, "ratio")
    m["ledger.split.blocks_copied"] = (c["ledger.blocks_copied"], "count")
    m["trust.records_summed"] = (c["trust.records_summed"], "count")
    for kind in ATTACK_KINDS:
        m[f"attacks.marked.{kind}"] = (c[f"attacks.marked.{kind}"], "count")
    m["attacks.phantoms"] = (c["attacks.phantoms"], "count")
    m["attacks.flood_accepted"] = (c["attacks.flood_accepted"], "count")
    m["attacks.self_ms"] = (self_ms(*_ATTACK_SPANS), "ms")
    m["harness.events"] = (c["harness.events"], "count")
    m["harness.event_append.self_ms"] = (self_ms("harness.event_append"), "ms")
    m["harness.inline.self_ms"] = (self_ms(ROOT, COMM), "ms")
    m["harness.output_write_ms"] = (self_ms("harness.trace_write", "harness.csv_write"), "ms")
    m.update(extra)
    return m
