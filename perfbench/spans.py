"""Span tracer for the benchmark's traced run.

The tracer wraps the package's public functions where they are looked up,
from outside the package: ``symplectic`` imports ``build_covariance`` and
``params_from_covariance`` by name while ``cli`` calls ``core.*`` through the
module, so every module attribute bound to a traced function is replaced,
and restored afterwards.  Wrappers return values and raise exceptions
unchanged (``DegenerateBoundError`` drives the closed-form fallbacks); they
only record a span (name, start, end, parent) in memory and count
exceptions by type.

A span's self time is its duration minus the time its child spans cover.
Functions that are not wrapped (private helpers, argument parsing, the
command loops) count toward the self time of the nearest wrapped caller,
or toward ``cli.main`` at the top; the time outside every layer span is
reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from reference import BAND  # |oracle margin| at or below this is a boundary-band hit

ROOT = "cli.main"

# (span name, function name) for every traced public function.  Span names
# are hierarchical; a metric over a prefix sums the spans below it.
TARGETS = (
    ("cli.parse.load", "load_states"),
    ("cli.parse.record", "record_to_params"),
    ("cli.serialize.verdict", "verdict_to_dict"),
    ("cli.bisect", "bisect_n2_threshold"),
    ("cli.prep_fold", "literal_prep_fold"),
    ("core.build_covariance", "build_covariance"),
    ("core.intermediates", "intermediates"),
    ("core.bounds.physical", "physicality_bound_n2"),
    ("core.bounds.separable", "separability_bound_n2"),
    ("core.bounds.prep", "prep_bound_n2"),
    ("core.eigvalsh", "min_eigenvalue_hermitian"),
    ("core.partial_transpose", "partial_transpose"),
    ("core.params_from_covariance", "params_from_covariance"),
    ("core.classify", "classify"),
    ("symplectic.sampler", "random_physical_state"),
    ("symplectic.sampler.draw", "random_params"),
    ("symplectic.apply_local", "apply_local"),
    ("symplectic.invariants", "invariants"),
    ("symplectic.reduce", "reduce_to_invariant_form"),
)


class Tracer:
    """Spans in preorder: ``name[i]`` indexes ``names``; ``parent[i]`` is the
    index of the enclosing span, or -1."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = [-1]
        self.raised: Counter = Counter()  # (span name, exception type) -> count
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, select=None, on_result=None):
        """``fn`` recording a span per call.

        ``select(args, kwargs)`` may return a span name id chosen per call;
        ``on_result(result, args, kwargs)`` sees each return value.
        """
        nid = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock, raised = self.stack, self.clock, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid if select is None else select(args, kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                raised[(self.names[names[i]], type(exc).__name__)] += 1
                raise
            ends[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write the spans and their name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so direct children never
    overlap and their durations add up to the time they cover.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def nearest_ancestor(parent: np.ndarray, name: np.ndarray, targets) -> np.ndarray:
    """Index of each span's nearest strict ancestor whose name id is in
    ``targets``, or -1."""
    targets = np.asarray(sorted(targets), dtype=np.int64)
    found = np.full(len(parent), -1, dtype=np.int64)
    cur = parent.copy()
    active = cur >= 0
    while active.any():
        idx = np.nonzero(active)[0]
        hit = np.isin(name[cur[idx]], targets)
        found[idx[hit]] = cur[idx[hit]]
        cur[idx] = parent[cur[idx]]
        active[idx[hit]] = False
        active &= cur >= 0
    return found


def _under(names: list[str], prefix: str) -> set[int]:
    return {i for i, n in enumerate(names) if n == prefix or n.startswith(prefix + ".")}


def summarize(tracer: Tracer, wall_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass over a workload.

    ``wall_s`` is the traced pass's wall time and ``untraced_s`` that of an
    untraced pass over the same commands.
    """
    a = tracer.arrays()
    names = tracer.names
    self_s = self_times(a["start"], a["end"], a["parent"])
    per_self = np.bincount(a["name"], weights=self_s, minlength=len(names))
    per_calls = np.bincount(a["name"], minlength=len(names))

    def S(*prefixes):
        ids = set().union(*(_under(names, p) for p in prefixes))
        return float(sum(per_self[i] for i in ids))

    def C(prefix):
        return int(sum(per_calls[i] for i in _under(names, prefix)))

    def raised(prefix, exc=None):
        return sum(n for (span, e), n in tracer.raised.items()
                   if (span == prefix or span.startswith(prefix + ".")) and exc in (None, e))

    def ratio(num, den):
        return num / den if den else 0.0

    def count_under(child, ancestors, wanted):
        """Spans under ``child`` whose nearest ancestor under ``ancestors`` is
        under ``wanted``."""
        child_ids = _under(names, child)
        if not child_ids:
            return 0
        anc = nearest_ancestor(a["parent"], a["name"], _under(names, ancestors) - child_ids)
        sel = np.isin(a["name"], list(child_ids)) & (anc >= 0)
        return int(np.isin(a["name"][anc[sel]], list(_under(names, wanted))).sum())

    ctr = tracer.counters
    # Every cli span except the root, whose self time is not a layer's.
    cli_self = S("cli.parse", "cli.serialize", "cli.bisect", "cli.prep_fold")
    closed = C("core.classify.closed")
    reject = C("symplectic.sampler.reject")
    return {
        "trace.wall_s": wall_s,
        "trace.overhead_frac": wall_s / untraced_s - 1.0,
        "trace.unattributed_s": wall_s - cli_self - S("core") - S("symplectic"),
        "cli.self_s": cli_self,
        "core.self_s": S("core"),
        "symplectic.self_s": S("symplectic"),
        "cli.parse.self_s": S("cli.parse"),
        "cli.parse.records": C("cli.parse.record"),
        "cli.serialize.self_s": S("cli.serialize"),
        "cli.bisect.calls": C("cli.bisect"),
        "cli.bisect.self_s": S("cli.bisect"),
        "cli.bisect.evals_per_call": ratio(
            count_under("core.build_covariance", "cli.bisect", "cli.bisect"), C("cli.bisect")),
        "cli.prep_fold.self_s": S("cli.prep_fold"),
        "core.classify.calls": C("core.classify"),
        "core.classify.closed.self_s": S("core.classify.closed"),
        "core.classify.eig.self_s": S("core.classify.eig"),
        "core.intermediates.calls_per_classify": ratio(
            count_under("core.intermediates", "core.classify", "core.classify.closed"), closed),
        "core.intermediates.self_s": S("core.intermediates"),
        "core.eigvalsh.calls": C("core.eigvalsh"),
        "core.eigvalsh.self_s": S("core.eigvalsh"),
        "core.build_covariance.calls": C("core.build_covariance"),
        "core.build_covariance.self_s": S("core.build_covariance"),
        "core.bounds.calls": C("core.bounds"),
        "core.bounds.self_s": S("core.bounds"),
        "core.bounds.degenerate": raised("core.bounds", "DegenerateBoundError"),
        "core.fallbacks": ctr["fallbacks"],
        "core.closed_decided_frac": ratio(ctr["closed_decided"], ctr["closed_attempted"]),
        "core.boundary_band_hits": ctr["band_hits"],
        "core.partial_transpose.self_s": S("core.partial_transpose"),
        "core.params_from_covariance.calls": C("core.params_from_covariance"),
        "core.params_from_covariance.self_s": S("core.params_from_covariance"),
        "symplectic.sampler.self_s": S("symplectic.sampler"),
        "symplectic.sampler.draws_per_accept": ratio(
            count_under("symplectic.sampler.draw", "symplectic.sampler",
                        "symplectic.sampler.reject"), reject),
        "symplectic.apply_local.calls": C("symplectic.apply_local"),
        "symplectic.apply_local.self_s": S("symplectic.apply_local"),
        "symplectic.invariants.calls": C("symplectic.invariants"),
        "symplectic.invariants.self_s": S("symplectic.invariants"),
        "symplectic.reduce.calls": C("symplectic.reduce"),
        "symplectic.reduce.self_s": S("symplectic.reduce"),
        "symplectic.reduce.applicable_frac": ratio(
            C("symplectic.reduce") - raised("symplectic.reduce"), C("symplectic.reduce")),
    }


# ---------------------------------------------------------------------------
# Installing the wrappers


def _arg_reader(fn, name: str):
    """(args, kwargs) -> the value ``fn`` receives for parameter ``name``."""
    params = inspect.signature(fn).parameters
    if name not in params:
        return lambda args, kwargs: None
    pos = list(params).index(name)
    default = params[name].default

    def read(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default

    return read


class _WriteProxy:
    """An output stream whose ``write`` is traced; everything else passes through."""

    def __init__(self, stream, write):
        self._stream = stream
        self.write = write

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


class _JsonProxy:
    """The ``json`` module with a traced ``dumps``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


class Instrumentation:
    """Installs a tracer's wrappers into the loaded ``gausssep`` modules and
    removes them again; use as a context manager."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "gausssep" or n.startswith("gausssep."))]

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap_everywhere(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _find(self, fname):
        """The function named ``fname`` as defined in its own module, or None."""
        for module in self._modules():
            fn = vars(module).get(fname)
            if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
                return fn
        return None

    def _hooks(self, span, fn):
        """(select, on_result) for the functions whose span depends on the call."""
        t = self.tracer
        if span == "core.classify":
            method = _arg_reader(fn, "method")
            eig_name = getattr(sys.modules.get(fn.__module__), "METHOD_EIG", "eigen-oracle")
            closed_id, eig_id = t.name_id("core.classify.closed"), t.name_id("core.classify.eig")

            def select(args, kwargs):
                return eig_id if method(args, kwargs) == eig_name else closed_id

            def on_result(v, args, kwargs):
                if method(args, kwargs) == eig_name:
                    margins = (v.margin_physical, v.margin_separable, v.margin_prep)
                    t.counters["band_hits"] += sum(
                        1 for m in margins if not math.isnan(m) and abs(m) <= BAND)
                else:
                    attempted = 3 if v.physical else 1
                    t.counters["fallbacks"] += len(v.fallbacks)
                    t.counters["closed_attempted"] += attempted
                    t.counters["closed_decided"] += attempted - len(v.fallbacks)

            return select, on_result
        if span == "symplectic.sampler":
            mode = _arg_reader(fn, "mode")
            ids = {m: t.name_id(f"symplectic.sampler.{m}") for m in ("construct", "reject")}

            def select(args, kwargs):
                return ids.get(mode(args, kwargs), ids["construct"])

            return select, None
        return None, None

    def __enter__(self):
        t = self.tracer
        for span, fname in TARGETS:
            fn = self._find(fname)
            if fn is None:
                continue
            select, on_result = self._hooks(span, fn)
            self._wrap_everywhere(fn, t.wrap(fn, span, select=select, on_result=on_result))
        cli = sys.modules.get("gausssep.cli")
        if cli is not None and hasattr(cli, "json"):
            self._patch(cli, "json", _JsonProxy(t.wrap(json.dumps, "cli.serialize.dumps")))
        if cli is not None and hasattr(cli, "_open_output"):
            open_output = cli._open_output

            def traced_open_output(*args, **kwargs):
                stream, close = open_output(*args, **kwargs)
                return _WriteProxy(stream, t.wrap(stream.write, "cli.serialize.write")), close

            self._patch(cli, "_open_output", traced_open_output)
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)
        return False
