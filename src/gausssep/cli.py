"""Command-line front end.

Subcommands
-----------
classify    read states (JSON/JSONL), report physicality / separability /
            P-representability with margins
invariants  report the four local-symplectic invariants per state
transform   apply a local symplectic; with --reduce, attempt the
            invariant-form reduction
sample      run a random-state campaign and cross-validate both methods
sweep       emit a CSV of n2 lower-bound folds over a parameter grid
            (columns: axis1[,axis2],n2_min_physical,n2_min_separable,
            n2_min_prep,prep_below_sep_flag,degenerate).  The physicality
            and separability folds are the oracle-consistent closed forms;
            the P-fold column is the literal published bound, whose dips
            below the S-fold (``core.prep_below_sep``, which ignores
            rounding-level ties) mark operators that are not physical states.

Every subcommand parses its arguments and input, evaluates its states and
hands complete output lines to one writer (``_write_output``), the only
code that opens and closes an output.  Every command except ``sample``
evaluates all of its states before it opens its output, so an evaluation
error, like a parse error, exits before any record is written: ``classify``
makes one ``core.classify_batch`` call per route and ``sweep`` one
``core.n2_folds_batch`` call.  ``invariants`` makes one
``symplectic.invariants`` call over the stack of the file's covariance
matrices, and ``transform`` one ``symplectic.apply_local`` call (its
parameters read by ``core._ParamArrays.from_covariance``) and, with
``--reduce``, one array pass of the reduction, out of which
``symplectic.reduce_to_invariant_form`` reads each record's state.  A
failing file reports the error of its first failing record, in the order
of one record's checks: the transform, the read of its parameters, the
reduction.  ``sample`` draws (one
``symplectic.random_physical_states`` call), classifies (one call per
route) and writes its states per batch of ``SAMPLE_BATCH`` (1024), so its
memory does not grow with ``--count``.

Exit codes: 0 success, else the ``exit_code`` of the package error raised
(``errors``): 2 unreadable, malformed or unwritable input or output
(``ParseError``), 3 invalid parameters, 4 domain error, 5 internal
assertion.  A numeric ``OverflowError`` exits 4, as a domain error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import core, symplectic
from .core import GaussianParams, Verdict
from .errors import (
    DomainError,
    GaussSepError,
    InvalidParameterError,
    ParseError,
    PrescriptionInapplicableError,
    StructuralError,
)

EXIT_OK = 0
EXIT_INTERNAL = GaussSepError.exit_code


# ---------------------------------------------------------------------------
# Input handling


def _to_float(value, where: str) -> float:
    """``value`` if it is a JSON number, which ``json`` parses to an int or a
    float (a bool is neither here)."""
    if type(value) in (int, float):
        return float(value)
    raise ParseError(f"{where}: expected a number, got {value!r}")


def _to_complex(value, where: str) -> complex:
    """A JSON number or an [re, im] pair of JSON numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_to_float(value[0], where), _to_float(value[1], where))
    return complex(_to_float(value, where))


def record_to_params(record: dict, where: str) -> tuple[str | None, GaussianParams]:
    if not isinstance(record, dict):
        raise ParseError(f"{where}: expected an object")
    rec_id = record.get("id")
    if not isinstance(rec_id, (str, type(None))):
        try:
            json.dumps(rec_id, allow_nan=False)  # it is echoed, and NaN is not JSON
        except ValueError as exc:
            raise ParseError(f"{where}: bad id: {exc}") from exc
    has_params = "params" in record
    has_matrix = "matrix" in record
    if has_params == has_matrix:
        raise ParseError(f"{where}: exactly one of 'params'/'matrix' must be present")
    if has_params:
        raw = record["params"]
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: 'params' must be an object")
        n1 = _to_float(raw.get("n1"), f"{where}.n1")
        n2 = _to_float(raw.get("n2"), f"{where}.n2")
        kwargs = {}
        for name in ("m1", "m2", "ms", "mc"):
            if name in raw:
                kwargs[name] = _to_complex(raw[name], f"{where}.{name}")
        return rec_id, GaussianParams(n1=n1, n2=n2, **kwargs)
    raw = record["matrix"]
    try:
        M = np.array(
            [[_to_complex(cell, f"{where}[{i}][{j}]") for j, cell in enumerate(row)]
             for i, row in enumerate(raw)],
            dtype=complex,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad matrix: {exc}") from exc
    if M.shape != (4, 4):
        raise ParseError(f"{where}: matrix must be 4x4, got shape {M.shape}")
    return rec_id, core.params_from_covariance(M)


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an int, too deep a nesting
        raise ParseError(f"{where}: invalid JSON: {exc}") from exc


def load_states(path: str, fmt: str) -> list[tuple[str | None, GaussianParams]]:
    """(id, parameters) of every record of ``path`` in ``fmt`` ("json" or
    "jsonl").  JSONL lines are parsed lazily, each just before its record
    is read, so the first bad line or record is the one reported."""
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input {path}: {exc}") from exc
    if "\r" in text:  # universal newlines, as text mode reads them, keep JSON error positions
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if fmt == "json":
        doc = _parse_json(text, path)
        if not isinstance(doc, dict) or not isinstance(doc.get("states"), list):
            raise ParseError(f"{path}: expected an object with a 'states' array")
        records = ((f"{path} states[{i}]", record) for i, record in enumerate(doc["states"]))
    else:
        records = ((f"{path}:{n}", _parse_json(line, f"{path}:{n}"))
                   for n, line in enumerate(text.splitlines(), start=1) if line.strip())
    return [record_to_params(record, where) for where, record in records]


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8", newline=""), True
    except OSError as exc:
        raise ParseError(f"cannot open output {path}: {exc}") from exc


def _write_output(path: str | None, lines) -> None:
    """Write ``lines``, an iterable of complete lines, to ``path`` (stdout for
    None or '-') and flush them: the one place an output is opened and
    closed.  A failed write, flush or close (a full disk, a closed pipe) is
    a ParseError."""
    out, close = _open_output(path)
    try:
        try:
            for line in lines:
                out.write(line)
            out.flush()
        finally:
            if close:
                out.close()
    except OSError as exc:
        if out is sys.__stdout__:  # not an in-process stream, which may have no fileno()
            # what stdout still buffers goes to os.devnull at exit, not to an
            # "Exception ignored" line from the interpreter's final flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        raise ParseError(f"cannot write output {path or '-'}: {exc}") from exc


def _jsonable(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "physical": v.physical,
        "separable": v.separable,
        "p_representable": v.p_representable,
        "margin_physical": _jsonable(v.margin_physical),
        "margin_separable": _jsonable(v.margin_separable),
        "margin_prep": _jsonable(v.margin_prep),
        "method": v.method,
        "fallbacks": list(v.fallbacks),
    }


def _check_tol_psd(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParameterError(f"--tol-psd must be finite and >= 0, got {tol}")


def _agree(a: Verdict, b: Verdict) -> bool:
    """Whether two verdicts on one state give the same three answers."""
    return (a.physical, a.separable, a.p_representable) == (b.physical, b.separable, b.p_representable)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args) -> int:
    _check_tol_psd(args.tol_psd)
    states = load_states(args.input, args.format)
    params = [p for _, p in states]
    method = core.METHOD_EIG if args.method == "eig" else core.METHOD_CLOSED
    verdicts = core.classify_batch(params, method=method, tol_psd=args.tol_psd)
    if args.method == "both":
        eig = core.classify_batch(params, method=core.METHOD_EIG, tol_psd=args.tol_psd)
    lines = []
    for i, (rec_id, _) in enumerate(states):
        record = {"id": rec_id, **verdict_to_dict(verdicts[i])}
        if args.method == "both":
            record["eig"] = verdict_to_dict(eig[i])
            record["methods_agree"] = _agree(verdicts[i], eig[i])
        lines.append(json.dumps(record) + "\n")
    _write_output(args.output, lines)
    return EXIT_OK


def cmd_invariants(args) -> int:
    states = load_states(args.input, args.format)
    inv = symplectic.invariants(core._ParamArrays.of([p for _, p in states]).covariance())
    lines = [
        json.dumps({"id": rec_id, "i1": i1, "i2": i2, "i3": i3, "i4": i4}) + "\n"
        for (rec_id, _), i1, i2, i3, i4 in zip(
            states, inv.i1.tolist(), inv.i2.tolist(), inv.i3.tolist(), inv.i4.tolist())
    ]
    _write_output(args.output, lines)
    return EXIT_OK


def _params_to_dict(p: GaussianParams) -> dict:
    return {
        "n1": p.n1, "n2": p.n2,
        "m1": [p.m1.real, p.m1.imag], "m2": [p.m2.real, p.m2.imag],
        "ms": [p.ms.real, p.ms.imag], "mc": [p.mc.real, p.mc.imag],
    }


def cmd_transform(args) -> int:
    states = load_states(args.input, args.format)
    S = symplectic.make_local_symplectic(
        args.theta1, args.phi1, args.vphi1, args.theta2, args.phi2, args.vphi2
    )
    batch = core._Batch.of([p for _, p in states])
    V = batch.q.covariance()
    try:
        transformed = core._ParamArrays.from_covariance(symplectic.apply_local(S, V)).params()
    except (OverflowError, StructuralError, InvalidParameterError):
        # A record fails: transform each record on its own as the loop reaches
        # it, so that the first failing record reports its own error.
        transformed = (core.params_from_covariance(symplectic.apply_local(S, M)) for M in V)
    lines = []
    for (rec_id, _), t, row in zip(states, transformed, batch.rows()):
        record = {"id": rec_id, "transformed_params": _params_to_dict(t)}
        if args.reduce:
            try:
                res = symplectic.reduce_to_invariant_form(row)
            except PrescriptionInapplicableError as exc:
                record["reduction"] = {"applicable": False, "residual": exc.residual}
            else:
                record["reduction"] = {
                    "applicable": True,
                    "form": res.form,
                    "nu1": res.nu1,
                    "nu2": res.nu2,
                    "mu": [res.mu.real, res.mu.imag],
                    "residual": res.residual,
                }
        lines.append(json.dumps(record) + "\n")
    _write_output(args.output, lines)
    return EXIT_OK


SAMPLE_BATCH = 1024  # states drawn and classified per batch, so memory does not grow with --count


def _sampled(rng, mode: str, count: int, tol_psd: float):
    """(index, state, closed-form verdict, oracle verdict) of ``count``
    states drawn from ``rng`` and classified in batches of ``SAMPLE_BATCH``,
    each drawn in one array pass; the states are those of one-at-a-time
    draws, whatever the batch size."""
    for start in range(0, count, SAMPLE_BATCH):
        states = symplectic.random_physical_states(rng, min(SAMPLE_BATCH, count - start), mode)
        closed = core.classify_batch(states, method=core.METHOD_CLOSED, tol_psd=tol_psd)
        eig = core.classify_batch(states, method=core.METHOD_EIG, tol_psd=tol_psd)
        yield from zip(range(start, start + len(states)), states, closed, eig)


def _seed(seed: int | None) -> int:
    """``--seed``, else ``GAUSSSEP_SEED``, else 0; numpy seeds are non-negative."""
    if seed is None:
        env = os.environ.get("GAUSSSEP_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError as exc:
            raise ParseError(f"GAUSSSEP_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ParseError(f"the seed (--seed or GAUSSSEP_SEED) must be >= 0, got {seed}")
    return seed


def cmd_sample(args) -> int:
    if args.count < 1:
        raise InvalidParameterError("--count must be >= 1")
    _check_tol_psd(args.tol_psd)
    seed = _seed(args.seed)
    rng = np.random.default_rng(seed)
    summary = {
        "count": args.count, "seed": seed, "mode": args.mode,
        "separable": 0, "entangled": 0, "p_representable": 0,
        "separable_not_prep": 0, "prep_and_entangled": 0,
        "method_disagreements_off_boundary": 0, "separable_not_prep_witness": None,
    }

    def lines():
        """Each state's record line, tallied into ``summary``, then the summary line."""
        for i, p, vc, ve in _sampled(rng, args.mode, args.count, args.tol_psd):
            margins = [ve.margin_physical, ve.margin_separable, ve.margin_prep]
            off_boundary = all(abs(m) > 1e-8 for m in margins if not math.isnan(m))
            agree = _agree(vc, ve)
            if off_boundary and not agree and not vc.fallbacks:
                summary["method_disagreements_off_boundary"] += 1
            if ve.separable:
                summary["separable"] += 1
            elif ve.separable is False:
                summary["entangled"] += 1
            if ve.p_representable:
                summary["p_representable"] += 1
            if ve.separable and ve.p_representable is False:
                summary["separable_not_prep"] += 1
                if summary["separable_not_prep_witness"] is None:
                    summary["separable_not_prep_witness"] = _params_to_dict(p)
            if ve.p_representable and ve.separable is False:
                summary["prep_and_entangled"] += 1
            yield json.dumps({
                "index": i,
                "params": _params_to_dict(p),
                "closed": verdict_to_dict(vc),
                "eig": verdict_to_dict(ve),
                "agree": agree,
            }) + "\n"
        yield json.dumps({"summary": summary}) + "\n"

    _write_output(args.output, lines())
    if summary["prep_and_entangled"] or summary["method_disagreements_off_boundary"]:
        return EXIT_INTERNAL
    return EXIT_OK


SWEEPABLE = ("n1", "m1", "m2", "ms", "mc")


def _parse_axis(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise ParseError(f"axis spec must be name:min:max:steps, got {spec!r}")
    try:
        name, lo, hi, steps = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ParseError(f"axis spec {spec!r}: {exc}") from exc
    if name not in SWEEPABLE:
        raise ParseError(f"cannot sweep {name!r}; choose one of {SWEEPABLE}")
    if steps < 2 or not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParseError(f"axis spec needs steps >= 2 and finite min < max, got {spec!r}")
    return name, np.linspace(lo, hi, steps)


def _csv_line(fields: list[str]) -> str:
    """One CSV row, as ``csv.writer`` writes fields that need no quoting."""
    return ",".join(fields) + "\r\n"


def cmd_sweep(args) -> int:
    names: list[str] = []  # every parameter given by --fixed or an axis, in order
    assignment: dict[str, float] = {"n1": args.n1, "n2": 1.0}
    for item in args.fixed or []:
        if "=" not in item:
            raise ParseError(f"--fixed expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in SWEEPABLE:
            raise ParseError(f"cannot fix {name!r}; choose one of {SWEEPABLE}")
        try:
            assignment[name] = float(value)
        except ValueError as exc:
            raise ParseError(f"--fixed {item!r}: {exc}") from exc
        names.append(name)
    axis1 = args.axis1 or ("n1:0.75:4.0:40" if args.fig1 else None)
    if axis1 is None:
        raise ParseError("--axis1 is required (or use --fig1)")
    axes = [_parse_axis(spec) for spec in (axis1, args.axis2) if spec is not None]
    axis_names = [name for name, _ in axes]
    names += axis_names
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        raise ParseError(f"{', '.join(twice)} named twice across --axis1, --axis2 and --fixed")
    if args.fig1:
        # Fold comparison of the published figure: m1 = 0.5, m2 = 1, no cross
        # correlations, swept over the mode-1 occupation.
        assignment = {"m1": 0.5, "m2": 1.0, **assignment}

    points = list(itertools.product(*(grid for _, grid in axes)))
    params = [GaussianParams(**{**assignment, **dict(zip(axis_names, point))}) for point in points]
    phys, sep, prep, degenerate = core.n2_folds_batch(params)
    rows = zip(points, phys.tolist(), sep.tolist(), prep.tolist(),
               core.prep_below_sep(prep, sep).tolist(), degenerate.tolist())
    lines = [_csv_line(axis_names + [
        "n2_min_physical", "n2_min_separable", "n2_min_prep", "prep_below_sep_flag", "degenerate",
    ])]
    for point, f_phys, f_sep, f_prep, flag, degen in rows:
        lines.append(_csv_line([repr(float(x)) for x in point] + [
            repr(f_phys), repr(f_sep), repr(f_prep), "1" if flag else "0", "1" if degen else "0",
        ]))
    _write_output(args.output, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausssep",
        description="Physicality, separability and P-representability of "
        "bipartite Gaussian states from their 4x4 covariance matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="input file ('-' for stdin)")
            sp.add_argument("--format", choices=("jsonl", "json"), default="jsonl")
        sp.add_argument("--output", default=None, help="output file (default stdout)")

    sp = sub.add_parser("classify", help="classify states from a file")
    add_io(sp)
    sp.add_argument("--method", choices=("closed", "eig", "both"), default="closed")
    sp.add_argument("--tol-psd", type=float, default=core.TOL_PSD)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("invariants", help="print the four local-symplectic invariants")
    add_io(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("transform", help="apply a local symplectic transform")
    add_io(sp)
    for name in ("theta1", "phi1", "vphi1", "theta2", "phi2", "vphi2"):
        sp.add_argument(f"--{name}", type=float, default=0.0)
    sp.add_argument("--reduce", action="store_true",
                    help="also attempt the invariant-form reduction")
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("sample", help="random-state campaign with method cross-check")
    add_io(sp, needs_input=False)
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--mode", choices=("construct", "reject"), default="construct")
    sp.add_argument("--tol-psd", type=float, default=core.TOL_PSD)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser(
        "sweep",
        help="emit CSV n2-fold table over a parameter grid",
        description="CSV columns: axis1[,axis2],n2_min_physical,"
        "n2_min_separable,n2_min_prep,prep_below_sep_flag,degenerate. "
        "Header row is always present.",
    )
    add_io(sp, needs_input=False)
    sp.add_argument("--fixed", action="append", metavar="NAME=VALUE",
                    help="fix a parameter (repeatable)")
    sp.add_argument("--axis1", metavar="NAME:MIN:MAX:STEPS")
    sp.add_argument("--axis2", metavar="NAME:MIN:MAX:STEPS")
    sp.add_argument("--n1", type=float, default=1.0,
                    help="mode-1 occupation when not fixed or swept")
    sp.add_argument("--fig1", action="store_true",
                    help="preset: m1=0.5, m2=1, sweep n1 (S/P fold comparison)")
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return DomainError.exit_code
    except GaussSepError as exc:
        label = "internal error" if exc.exit_code == EXIT_INTERNAL else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
