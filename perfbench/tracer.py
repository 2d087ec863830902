"""Per-layer tracing of the maa package, done from outside the package.

Each traced function is wrapped by rebinding its name in every maa module
that holds it (so `maacore.main_loop` and the `main_loop` that `kat`
imported are both caught), and the originals are put back afterwards.
Spans live in flat arrays in memory -- name, start, end, parent span and
message id -- and are written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.

The gate core's memo tables are not wrapped: their `cache_info()`
counters are read instead, as deltas across the traced pass.
"""

import contextlib
import gzip
import json
import sys
from array import array
from time import perf_counter

# (module, attribute path, stats reported).  The span of a function is
# named "<module>.<attribute path>"; kat.run_record is split by its core
# argument into kat.run_record.gate and kat.run_record.native.
TARGETS = (
    ("nativecore", "prelude", ("calls", "self_s")),
    ("nativecore", "main_loop", ("calls", "self_s")),
    ("nativecore", "coda", ("calls", "self_s")),
    ("nativecore", "mac_values", ("calls", "self_s")),
    ("nativecore", "native_mac", ("calls", "self_s")),
    ("maacore", "message_blocks", ("calls", "self_s", "blocks")),
    ("maacore", "mac_message", ("calls", "self_s")),
    ("maacore", "MacStream.push", ("calls", "self_s")),
    ("maacore", "prelude", ("calls", "self_s")),
    ("maacore", "main_loop", ("calls", "self_s")),
    ("maacore", "coda", ("calls", "self_s")),
    ("maaops", "mul1", ("calls", "self_s")),
    ("maaops", "mul2", ("calls", "self_s")),
    ("maaops", "mul2a", ("calls", "self_s")),
    ("maaops", "byt", ("calls", "self_s")),
    ("maaops", "pat", ("calls", "self_s")),
    ("wordcore", "mul_block", ("calls", "self_s")),
    ("wordcore", "add_block", ("calls", "self_s")),
    ("kat", "load_vectors", ("self_s",)),
    ("kat", "run_record", ("calls", "self_s")),
    ("cli", "main", ("self_s",)),
)

SPLIT_BY_CORE = {"kat.run_record": ("gate", "native")}

MEMO_TABLES = ("mul_octet", "add_octet_carry", "xor_octet", "and_octet",
               "or_octet")

UNITS = {"calls": "count", "self_s": "s", "blocks": "count",
         "hits": "count", "misses": "count", "hit_ratio": "ratio"}
BETTER = {"hits": "higher", "hit_ratio": "higher"}


def _spans(base):
    if base in SPLIT_BY_CORE:
        return [f"{base}.{core}" for core in SPLIT_BY_CORE[base]]
    return [base]


def span_names():
    """Every span name the tracer can record, in TARGETS order."""
    return [span for module, attr, _ in TARGETS
            for span in _spans(f"{module}.{attr}")]


def layer_metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, attr, stats in TARGETS:
        for span in _spans(f"{module}.{attr}"):
            out.extend((f"{span}.{s}", UNITS[s], BETTER.get(s, "lower"))
                       for s in stats)
    for table in MEMO_TABLES:
        out.extend((f"wordcore.{table}.{s}", UNITS[s], BETTER.get(s, "lower"))
                   for s in ("hits", "misses", "hit_ratio"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def maa_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "maa" or name.startswith("maa."))]


class Tracer:
    """Wraps the TARGETS in place while active; records one span per call."""

    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.msg = array("i")
        self.msg_id = -1
        self.blocks = 0
        self._stack = []

    def _wrapper(self, original, name):
        split = SPLIT_BY_CORE.get(name)
        fixed_id = None if split else self._ids[name]
        ids = self._ids
        count_blocks = name == "maacore.message_blocks"
        tracer = self

        def traced(*args, **kwargs):
            nid = fixed_id if split is None else ids[f"{name}.{args[1]}"]
            stack = tracer._stack
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.msg.append(tracer.msg_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if count_blocks:
                tracer.blocks += len(result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper; restore every original on exit."""
        modules = maa_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        patches = []
        try:
            for module, attr, _ in TARGETS:
                owner = by_name[module]
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrapper(original, f"{module}.{attr}")
                if outer:
                    holders = [(owner, leaf)]
                else:
                    holders = [(m, n) for m in modules
                               for n, v in list(vars(m).items())
                               if v is original]
                for holder, n in holders:
                    patches.append((holder, n, original))
                    setattr(holder, n, wrapper)
            yield self
        finally:
            for holder, n, original in reversed(patches):
                setattr(holder, n, original)

    def layer_stats(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path, meta):
        """Write every span, gzip-compressed JSON columns, to path."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "names": self.names,
               "columns": ["name", "start", "end", "parent", "msg"],
               "name": self.name.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist(), "parent": self.parent.tolist(),
               "msg": self.msg.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


class Memos:
    """Clears the gate core's memo tables and sums their counters.

    Every functools cache found at module level in the maa package is a
    memo table; all of them are cleared, so a cold pass stays cold even if
    tables are added.  While recording, the hits and misses seen before
    each clear are added to the totals.
    """

    def __init__(self):
        self.tables = {}
        for m in maa_modules():
            for v in vars(m).values():
                if callable(getattr(v, "cache_clear", None)) and \
                        callable(getattr(v, "cache_info", None)):
                    short = v.__module__.rpartition(".")[2]
                    self.tables[f"{short}.{v.__qualname__}"] = v
        self.recording = False
        self.hits = {}
        self.misses = {}

    def _record(self):
        if self.recording:
            for name, f in self.tables.items():
                info = f.cache_info()
                self.hits[name] = self.hits.get(name, 0) + info.hits
                self.misses[name] = self.misses.get(name, 0) + info.misses

    def clear(self):
        self._record()
        for f in self.tables.values():
            f.cache_clear()

    def start(self):
        """Clear every table and start counting from zero."""
        self.recording = False
        self.clear()
        self.hits, self.misses = {}, {}
        self.recording = True

    def stop(self):
        self._record()
        self.recording = False
