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

This module only parses, dispatches and serializes.  ``classify`` evaluates
all of its states with one ``core.classify_batch`` call per route, and
``sweep`` folds its whole grid with one ``core.n2_folds_batch`` call; both
evaluate before they open their output, so an evaluation error, like a
parse error, exits before any record is written.  ``sample`` draws,
classifies (one call per route) and writes its states in batches of
``SAMPLE_BATCH``, so its memory does not grow with ``--count``.

Exit codes: 0 success, 2 parse error, 3 invalid parameters, 4 domain error
(including numeric overflow), 5 internal assertion.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import core, symplectic
from .core import GaussianParams, Verdict
from .errors import (
    DomainError,
    GaussSepError,
    InvalidParameterError,
    PrescriptionInapplicableError,
    StructuralError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_DOMAIN = 4
EXIT_INTERNAL = 5


class ParseError(Exception):
    pass


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


def load_states(path: str, fmt: str) -> list[tuple[str | None, GaussianParams]]:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read input {path}: {exc}") from exc
    states = []
    if fmt == "json":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too long an int, too deep a nesting
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("states"), list):
            raise ParseError(f"{path}: expected an object with a 'states' array")
        for i, record in enumerate(doc["states"]):
            states.append(record_to_params(record, f"{path} states[{i}]"))
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            states.append(record_to_params(record, f"{path}:{lineno}"))
    return states


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8", newline=""), True
    except OSError as exc:
        raise ParseError(f"cannot open output {path}: {exc}") from exc


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
    out, close = _open_output(args.output)
    try:
        for i, (rec_id, _) in enumerate(states):
            record: dict = {"id": rec_id}
            record.update(verdict_to_dict(verdicts[i]))
            if args.method == "both":
                ve = eig[i]
                record["eig"] = verdict_to_dict(ve)
                record["methods_agree"] = (
                    record["physical"] == ve.physical
                    and record["separable"] == ve.separable
                    and record["p_representable"] == ve.p_representable
                )
            out.write(json.dumps(record) + "\n")
    finally:
        if close:
            out.close()
    return EXIT_OK


def cmd_invariants(args) -> int:
    states = load_states(args.input, args.format)
    out, close = _open_output(args.output)
    try:
        for rec_id, p in states:
            inv = symplectic.invariants(core.build_covariance(p))
            out.write(json.dumps({
                "id": rec_id, "i1": inv.i1, "i2": inv.i2, "i3": inv.i3, "i4": inv.i4,
            }) + "\n")
    finally:
        if close:
            out.close()
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
    out, close = _open_output(args.output)
    try:
        for rec_id, p in states:
            W = symplectic.apply_local(S, core.build_covariance(p))
            record = {"id": rec_id, "transformed_params": _params_to_dict(core.params_from_covariance(W))}
            if args.reduce:
                try:
                    res = symplectic.reduce_to_invariant_form(p)
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
            out.write(json.dumps(record) + "\n")
    finally:
        if close:
            out.close()
    return EXIT_OK


SAMPLE_BATCH = 1024  # states drawn and classified per batch, so memory does not grow with --count


def _sampled(rng, mode: str, count: int, tol_psd: float):
    """(index, state, closed-form verdict, oracle verdict) of ``count``
    states drawn one after another from ``rng``, classified in batches of
    ``SAMPLE_BATCH``."""
    for start in range(0, count, SAMPLE_BATCH):
        states = [symplectic.random_physical_state(rng, mode=mode)
                  for _ in range(min(SAMPLE_BATCH, count - start))]
        closed = core.classify_batch(states, method=core.METHOD_CLOSED, tol_psd=tol_psd)
        eig = core.classify_batch(states, method=core.METHOD_EIG, tol_psd=tol_psd)
        yield from zip(range(start, start + len(states)), states, closed, eig)


def cmd_sample(args) -> int:
    if args.count < 1:
        raise InvalidParameterError("--count must be >= 1")
    _check_tol_psd(args.tol_psd)
    rng = np.random.default_rng(args.seed)
    out, close = _open_output(args.output)
    n_sep = n_ent = n_prep = n_sep_not_prep = 0
    n_prep_and_entangled = 0
    n_disagree = 0
    witness = None
    try:
        for i, p, vc, ve in _sampled(rng, args.mode, args.count, args.tol_psd):
            margins = [ve.margin_physical, ve.margin_separable, ve.margin_prep]
            off_boundary = all(abs(m) > 1e-8 for m in margins if not math.isnan(m))
            agree = (
                vc.physical == ve.physical
                and vc.separable == ve.separable
                and vc.p_representable == ve.p_representable
            )
            if off_boundary and not agree and not vc.fallbacks:
                n_disagree += 1
            if ve.separable:
                n_sep += 1
            elif ve.separable is False:
                n_ent += 1
            if ve.p_representable:
                n_prep += 1
            if ve.separable and ve.p_representable is False:
                n_sep_not_prep += 1
                if witness is None:
                    witness = _params_to_dict(p)
            if ve.p_representable and ve.separable is False:
                n_prep_and_entangled += 1
            out.write(json.dumps({
                "index": i,
                "params": _params_to_dict(p),
                "closed": verdict_to_dict(vc),
                "eig": verdict_to_dict(ve),
                "agree": agree,
            }) + "\n")
        out.write(json.dumps({
            "summary": {
                "count": args.count,
                "seed": args.seed,
                "mode": args.mode,
                "separable": n_sep,
                "entangled": n_ent,
                "p_representable": n_prep,
                "separable_not_prep": n_sep_not_prep,
                "prep_and_entangled": n_prep_and_entangled,
                "method_disagreements_off_boundary": n_disagree,
                "separable_not_prep_witness": witness,
            }
        }) + "\n")
    finally:
        if close:
            out.close()
    if n_prep_and_entangled or n_disagree:
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


def cmd_sweep(args) -> int:
    fixed: dict[str, float] = {}
    named: list[str] = []  # every parameter given by --fixed or an axis
    for item in args.fixed or []:
        if "=" not in item:
            raise ParseError(f"--fixed expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in SWEEPABLE:
            raise ParseError(f"cannot fix {name!r}; choose one of {SWEEPABLE}")
        try:
            fixed[name] = float(value)
        except ValueError as exc:
            raise ParseError(f"--fixed {item!r}: {exc}") from exc
        named.append(name)

    axis1 = args.axis1 or ("n1:0.75:4.0:40" if args.fig1 else None)
    if axis1 is None:
        raise ParseError("--axis1 is required (or use --fig1)")
    name1, grid1 = _parse_axis(axis1)
    if args.axis2 is not None:
        name2, grid2 = _parse_axis(args.axis2)
        points = [(a, b) for a in grid1 for b in grid2]
        header = [name1, name2]
        named += [name1, name2]
    else:
        name2, points = None, [(a, None) for a in grid1]
        header = [name1]
        named.append(name1)
    twice = sorted({name for name in named if named.count(name) > 1})
    if twice:
        raise ParseError(f"{', '.join(twice)} named twice across --axis1, --axis2 and --fixed")
    if args.fig1:
        # Fold comparison of the published figure: m1 = 0.5, m2 = 1, no cross
        # correlations, swept over the mode-1 occupation.
        for name, value in (("m1", 0.5), ("m2", 1.0)):
            if name not in named:
                fixed[name] = value

    params = []
    for a, b in points:
        assignment = dict(fixed)
        assignment[name1] = a
        if name2 is not None:
            assignment[name2] = b
        n1 = assignment.pop("n1", args.n1)
        params.append(GaussianParams(n1=n1, n2=1.0, **assignment))
    phys, sep, prep, degenerate = core.n2_folds_batch(params)
    flags = core.prep_below_sep(prep, sep).tolist()
    phys, sep, prep, degenerate = phys.tolist(), sep.tolist(), prep.tolist(), degenerate.tolist()

    out, close = _open_output(args.output)
    try:
        writer = csv.writer(out)
        writer.writerow(header + [
            "n2_min_physical", "n2_min_separable", "n2_min_prep",
            "prep_below_sep_flag", "degenerate",
        ])
        for k, (a, b) in enumerate(points):
            row = [repr(float(a))]
            if name2 is not None:
                row.append(repr(float(b)))
            row += [repr(phys[k]), repr(sep[k]), repr(prep[k]),
                    "1" if flags[k] else "0",
                    "1" if degenerate[k] else "0"]
            writer.writerow(row)
    finally:
        if close:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _default_seed() -> int:
    env = os.environ.get("GAUSSSEP_SEED")
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise ParseError(f"GAUSSSEP_SEED must be an integer, got {env!r}") from exc


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
        if getattr(args, "seed", None) is None and args.command == "sample":
            args.seed = _default_seed()
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidParameterError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except GaussSepError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
