"""The traced run: spans around the public functions of each nilvar layer.

Nothing under `src/` knows about this.  `Tracer.installed()` replaces each
traced function by a span-recording wrapper in every nilvar module that
binds it -- the place its callers look it up (`classify` calls
`ext1_vanishes` through its own `from .homalg import ...` binding) -- and
patches the traced methods on their classes.  A span is (name, start, end,
parent index, note); spans stay in memory and are summarised per pass.
A layer is the module part of a span name, and a layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "classify", "words", "homalg", "exactla", "modmatrix", "verify")

# span name -> (module, function) for module-level functions
FUNCTIONS = {
    "cli.main": ("nilvar.cli", "main"),
    "classify.components": ("nilvar.classify", "components"),
    "classify.regular_components": ("nilvar.classify", "regular_components"),
    "classify.nonregular_components": ("nilvar.classify", "nonregular_components"),
    "words.admissible_pairs": ("nilvar.words", "admissible_pairs"),
    "words.enumerate_open_strings": ("nilvar.words", "enumerate_open_strings"),
    "words.enumerate_words": ("nilvar.words", "enumerate_words"),
    "homalg.ext1_vanishes": ("nilvar.homalg", "ext1_vanishes"),
    "homalg.hom_dim_graph": ("nilvar.homalg", "hom_dim_graph"),
    "homalg.hom_dim_oracle": ("nilvar.homalg", "hom_dim_oracle"),
    "homalg.projective_cover": ("nilvar.homalg", "projective_cover"),
    "homalg.end_dim": ("nilvar.homalg", "end_dim"),
    "exactla.pivot_columns": ("nilvar.exactla", "pivot_columns"),
    "modmatrix.string_module": ("nilvar.modmatrix", "string_module"),
    "modmatrix.band_module": ("nilvar.modmatrix", "band_module"),
    "modmatrix.direct_sum": ("nilvar.modmatrix", "direct_sum"),
    "verify.run_suite": ("nilvar.verify", "run_suite"),
    "verify.random_module": ("nilvar.verify", "random_module"),
}

# span name -> (module, class, method)
METHODS = {
    "exactla.rank": ("nilvar.exactla", "RationalMatrix", "rank"),
    "exactla.mul": ("nilvar.exactla", "RationalMatrix", "mul"),
    "exactla.matrix_init": ("nilvar.exactla", "RationalMatrix", "__init__"),
    "modmatrix.stats": ("nilvar.modmatrix", "MatrixPairModule", "stats"),
    "modmatrix.verify_relations": ("nilvar.modmatrix", "MatrixPairModule",
                                   "verify_relations"),
}

# rank calls on matrices with at least this many cells count as large: about
# 1 in 10 000 random-modules ranks reaches it, and 40 % of the classify ones.
LARGE_RANK_CELLS = 4096

# memo tables cleared before every traced case: metric prefix -> attribute
CACHES = {"homalg.hom_cache": "_hom_count", "homalg.ext1_cache": "_ext1_vanishes"}


def _rank_cells(args):
    return args[0].nrows * args[0].ncols


NOTES = {"exactla.rank": _rank_cells}


class Tracer:
    """Records spans while installed.  Single-threaded: the span stack
    assumes calls nest, which holds with NILVAR_THREADS=1."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              note(args) if note else None)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function and method; restore them on exit."""
        undo = []
        importlib.import_module("nilvar.cli")  # loads every traced module
        try:
            modules = [m for key, m in list(sys.modules.items())
                       if key == "nilvar" or key.startswith("nilvar.")]
            for name, (modname, attr) in FUNCTIONS.items():
                original = getattr(importlib.import_module(modname), attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            for name, (modname, clsname, attr) in METHODS.items():
                cls = getattr(importlib.import_module(modname), clsname)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def caches():
    """The lru_cache memo tables of homalg, by metric prefix."""
    homalg = importlib.import_module("nilvar.homalg")
    return {prefix: getattr(homalg, attr) for prefix, attr in CACHES.items()}


def clear_caches() -> dict:
    """Empty the memo tables and return their cache_info() afterwards."""
    out = {}
    for prefix, fn in caches().items():
        fn.cache_clear()
        out[prefix] = fn.cache_info()
    return out


def run_in_process(argv) -> tuple[int, bytes]:
    """`nilvar <argv>` through nilvar.cli.main: (exit code, stdout)."""
    cli = importlib.import_module("nilvar.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue().encode()


def traced_pass(cases):
    """Run every case once under a fresh Tracer with cold memo tables.

    Returns (wall seconds, results, spans, cache stats, cache_info at the
    start of each case); results are (case, exit code, stdout)."""
    tracer = Tracer()
    results, starts = [], []
    hits = defaultdict(int)
    misses = defaultdict(int)
    wall = 0.0
    with tracer.installed():
        for case in cases:
            starts.append(clear_caches())
            t0 = time.perf_counter()
            code, out = run_in_process(case.argv)
            wall += time.perf_counter() - t0
            results.append((case, code, out))
            for prefix, fn in caches().items():
                info = fn.cache_info()
                hits[prefix] += info.hits
                misses[prefix] += info.misses
    stats = {p: (hits[p], misses[p]) for p in CACHES}
    return wall, results, tracer.spans, stats, starts


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(wall, spans, cache_stats) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    durations = defaultdict(list)
    self_time = defaultdict(float)
    cells = []
    for idx, (name, start, end, parent, note) in enumerate(spans):
        durations[name].append(end - start)
        self_time[name] += end - start - covered[idx]
        if note is not None:
            cells.append(note)
    out = {}
    for name in list(FUNCTIONS) + list(METHODS):
        ds = sorted(durations[name])
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.s"] = sum(ds)
        out[f"{name}.self_s"] = self_time[name]
        out[f"{name}.p50_ms"] = _quantile(ds, 0.5) * 1e3
        out[f"{name}.p90_ms"] = _quantile(ds, 0.9) * 1e3
        out[f"{name}.p50_us"] = _quantile(ds, 0.5) * 1e6
        out[f"{name}.p99_us"] = _quantile(ds, 0.99) * 1e6
    out["exactla.rank.cells"] = sum(cells)
    out["exactla.rank.calls.large"] = sum(1 for c in cells if c >= LARGE_RANK_CELLS)
    out["exactla.rank.calls.small"] = len(cells) - out["exactla.rank.calls.large"]
    layer_self = defaultdict(float)
    for name, s in self_time.items():
        layer_self[name.split(".")[0]] += s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    for prefix, (hits, misses) in cache_stats.items():
        out[f"{prefix}.hits"] = hits
        out[f"{prefix}.misses"] = misses
        out[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.wall_s"] = wall
    out["trace.self_coverage"] = sum(layer_self.values()) / wall if wall else 0.0
    return out
