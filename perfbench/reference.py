"""Independent correctness reference for the benchmark's outputs.

Nothing here imports ``gausssep`` or the repository's tests.  The covariance
matrix is rebuilt from the parameters with numpy, and every criterion is
decided by batched ``numpy.linalg.eigvalsh`` on the stacked 4x4 matrices,
with the partial transpose done as the index permutation [0, 1, 3, 2]:

* physical:          lambda_min(V + E/2)
* separable:         lambda_min(V[p][:, p] + E/2),  p = [0, 1, 3, 2]
* P-representable:   lambda_min(V - I/2)

Each ``check_*`` function compares one command's output with this reference
and returns a ``Check``: the number of output items attempted and, for each
item that is missing or wrong, the first reason found.  The sweep's literal
P-fold column and its ``prep_below_sep_flag`` are not checked: the first is
not oracle-consistent by design and the second flips on 1-ulp differences.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# An oracle margin with |margin| <= BAND is a boundary point: either verdict
# is accepted there, because the decision is floating-point noise.
BAND = 1e-8
# The CLI's default decision tolerance (--tol-psd).
TOL_PSD = 1e-10
# Reported oracle margins must match the reference to MARGIN_RTOL * scale,
# where scale = max(1, max |V_ij|).
MARGIN_RTOL = 1e-9
# A fold f is probed at n2 = f +- FOLD_STEP * max(1, f): just above it the
# oracle must not read below -PROBE_TOL, just below it not above +PROBE_TOL.
FOLD_STEP = 1e-7
PROBE_TOL = 1e-11
# n2 used to confirm that an infinite fold really has no threshold.
LARGE_N2 = 1e8

PT_PERM = [0, 1, 3, 2]
E_HALF = np.diag([0.5, -0.5, 0.5, -0.5]).astype(complex)
I_HALF = 0.5 * np.eye(4, dtype=complex)
Z2 = np.diag([1.0, -1.0]).astype(complex)

CRITERIA = ("physical", "separable", "p_representable")
MARGIN_KEYS = ("margin_physical", "margin_separable", "margin_prep")
PARAM_NAMES = ("n1", "n2", "m1", "m2", "ms", "mc")


# ---------------------------------------------------------------------------
# Model


def covariance(n1, n2, m1, m2, ms, mc) -> np.ndarray:
    """Stack of covariance matrices in the (a1+, a1, a2+, a2) ordering."""
    n1, n2, m1, m2, ms, mc = np.broadcast_arrays(
        *(np.asarray(x, dtype=complex) for x in (n1, n2, m1, m2, ms, mc))
    )
    V = np.empty(n1.shape + (4, 4), dtype=complex)
    rows = (
        (n1, m1, ms, mc),
        (m1.conj(), n1, mc.conj(), ms.conj()),
        (ms.conj(), mc, n2, m2),
        (mc.conj(), ms, m2.conj(), n2),
    )
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            V[..., i, j] = value
    return V


def params_of(V: np.ndarray) -> dict[str, np.ndarray]:
    """The six parameters read off a stack of structured covariance matrices."""
    return {
        "n1": V[..., 0, 0].real, "n2": V[..., 2, 2].real,
        "m1": V[..., 0, 1], "m2": V[..., 2, 3],
        "ms": V[..., 0, 2], "mc": V[..., 0, 3],
    }


def oracle_margins(V: np.ndarray) -> np.ndarray:
    """(N, 3) minimum eigenvalues for physicality, separability, P-representability."""
    V = V.reshape(-1, 4, 4)
    phys = np.linalg.eigvalsh(V + E_HALF)[:, 0]
    sep = np.linalg.eigvalsh(V[:, PT_PERM][:, :, PT_PERM] + E_HALF)[:, 0]
    prep = np.linalg.eigvalsh(V - I_HALF)[:, 0]
    return np.column_stack([phys, sep, prep])


def invariants(V: np.ndarray) -> np.ndarray:
    """(N, 4) invariants det V1, det V2, det C, Tr[V1 Z C Z V2 Z C+ Z]."""
    V = V.reshape(-1, 4, 4)
    V1, V2, C = V[:, :2, :2], V[:, 2:, 2:], V[:, :2, 2:]

    def det2(A):
        return (A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]).real

    ZCZ = Z2 @ C @ Z2
    ZChZ = Z2 @ np.conj(np.swapaxes(C, 1, 2)) @ Z2
    i4 = np.trace(V1 @ ZCZ @ V2 @ ZChZ, axis1=1, axis2=2).real
    return np.column_stack([det2(V1), det2(V2), det2(C), i4])


def single_mode_block(theta, phi, vphi) -> np.ndarray:
    """Stack of 2x2 blocks [[e^{i phi} ch, e^{i vphi} sh], [e^{-i vphi} sh, e^{-i phi} ch]]."""
    theta, phi, vphi = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (theta, phi, vphi)))
    ch, sh = np.cosh(theta), np.sinh(theta)
    S = np.empty(theta.shape + (2, 2), dtype=complex)
    S[..., 0, 0] = np.exp(1j * phi) * ch
    S[..., 0, 1] = np.exp(1j * vphi) * sh
    S[..., 1, 0] = np.exp(-1j * vphi) * sh
    S[..., 1, 1] = np.exp(-1j * phi) * ch
    return S


def local_symplectic(theta1, phi1, vphi1, theta2, phi2, vphi2) -> np.ndarray:
    """Stack of block-diagonal local symplectics S1 (+) S2."""
    S1 = single_mode_block(theta1, phi1, vphi1)
    S2 = single_mode_block(theta2, phi2, vphi2)
    S = np.zeros(np.broadcast_shapes(S1.shape, S2.shape)[:-2] + (4, 4), dtype=complex)
    S[..., :2, :2] = S1
    S[..., 2:, 2:] = S2
    return S


def congruence(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M+ V M, symmetrised to exact Hermiticity."""
    W = np.conj(np.swapaxes(M, -1, -2)) @ V @ M
    return (W + np.conj(np.swapaxes(W, -1, -2))) / 2


def scale_of(V: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.abs(V.reshape(-1, 16)).max(axis=1))


# ---------------------------------------------------------------------------
# Records


def _cplx(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def params_to_json(n1, n2, m1, m2, ms, mc) -> dict:
    """JSON form of one parameter set, complex values as [re, im] pairs."""
    out = {"n1": float(n1), "n2": float(n2)}
    for name, value in (("m1", m1), ("m2", m2), ("ms", ms), ("mc", mc)):
        out[name] = [float(value.real), float(value.imag)]
    return out


def matrices(records: list) -> np.ndarray:
    """(N, 4, 4) covariance matrices the input or output records describe,
    each given by ``params`` or by ``matrix``."""
    V = np.empty((len(records), 4, 4), dtype=complex)
    by_params = [i for i, r in enumerate(records) if "matrix" not in r]
    if by_params:
        raw = [records[i]["params"] for i in by_params]
        V[by_params] = covariance(*(
            [float(p[name]) if name in ("n1", "n2") else _cplx(p.get(name, 0.0)) for p in raw]
            for name in PARAM_NAMES
        ))
    for i, r in enumerate(records):
        if "matrix" in r:
            V[i] = [[_cplx(c) for c in row] for row in r["matrix"]]
    return V


def read_jsonl(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_output(path) -> list[dict]:
    """Output records of a command; a missing or unreadable file reads as
    none, and a line that is not an object as an empty record."""
    try:
        records = read_jsonl(path)
    except (OSError, ValueError):
        return []
    return [r if isinstance(r, dict) else {} for r in records]


# ---------------------------------------------------------------------------
# Checks


class Check:
    """Items attempted and, per failed item, the first reason it failed."""

    def __init__(self, attempted: int = 0):
        self.attempted = attempted
        self.failures: dict[str, str] = {}

    def fail(self, item: str, reason: str) -> None:
        self.failures.setdefault(item, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def merge(self, other: "Check", prefix: str) -> None:
        self.attempted += other.attempted
        for item, reason in other.failures.items():
            self.fail(f"{prefix}:{item}", reason)


def _decided(margin: float) -> bool | None:
    """The reference verdict for a margin; None inside the boundary band."""
    if abs(margin) <= BAND:
        return None
    return margin > 0.0


def verdict_problem(v, ref, scale: float, oracle: bool) -> str | None:
    """First problem of one verdict dict against reference margins, or None.

    ``oracle`` says all reported margins are eigen-oracle margins; on the
    closed-form route only criteria listed in ``fallbacks`` carry one.
    """
    if not isinstance(v, dict):
        return "verdict missing"
    physical = v.get("physical")
    if not isinstance(physical, bool):
        return "physical is not a boolean"
    expect = _decided(ref[0])
    if expect is not None and physical != expect:
        return f"physical={physical} but oracle margin {ref[0]:.3e}"
    if physical:
        for key in ("separable", "p_representable"):
            if not isinstance(v.get(key), bool):
                return f"{key} is not a boolean on a physical state"
        for k, key in ((1, "separable"), (2, "p_representable")):
            expect = _decided(ref[k])
            if expect is not None and v[key] != expect:
                return f"{key}={v[key]} but oracle margin {ref[k]:.3e}"
        # Nesting: P => S (S => physical holds by the shape checked above).
        if v["p_representable"] and not v["separable"] and not (
            abs(ref[1]) <= BAND or abs(ref[2]) <= BAND
        ):
            return "P-representable but not separable"
    else:
        for key in ("separable", "p_representable", "margin_separable", "margin_prep"):
            if v.get(key) is not None:
                return f"{key} reported for an unphysical state"
    fallbacks = v.get("fallbacks") or []
    for k, (crit, key) in enumerate(zip(CRITERIA, MARGIN_KEYS)):
        margin = v.get(key)
        if margin is None:
            if k == 0 or physical:
                return f"{key} missing"
            continue
        if not isinstance(margin, (int, float)) or not math.isfinite(margin):
            return f"{key} is not a finite number"
        if (oracle or crit in fallbacks) and abs(margin - ref[k]) > MARGIN_RTOL * scale:
            return f"{key}={margin!r} but oracle margin {float(ref[k])!r}"
    return None


def _same_verdict(a: dict, b: dict) -> bool:
    return all(a.get(k) == b.get(k) for k in CRITERIA)


def check_classify(inputs: list, outputs: list) -> Check:
    """``classify --method both`` output against the reference."""
    check = Check(len(inputs))
    V = matrices(inputs)
    ref = oracle_margins(V)
    scale = scale_of(V)
    for i, rec_in in enumerate(inputs):
        item = str(rec_in.get("id", i))
        if i >= len(outputs):
            check.fail(item, "missing")
            continue
        out = outputs[i]
        if out.get("id") != rec_in.get("id"):
            check.fail(item, f"id {out.get('id')!r} out of order")
            continue
        problem = (
            verdict_problem(out, ref[i], scale[i], oracle=False)
            or verdict_problem(out.get("eig"), ref[i], scale[i], oracle=True)
        )
        if problem is None and out.get("methods_agree") != _same_verdict(out, out["eig"]):
            problem = "methods_agree does not match the two verdicts"
        if problem:
            check.fail(item, problem)
    if len(outputs) > len(inputs):
        check.fail("extra", f"{len(outputs) - len(inputs)} extra output records")
    return check


SUMMARY_KEYS = (
    "separable", "entangled", "p_representable", "separable_not_prep", "prep_and_entangled",
)


def check_sample(outputs: list, count: int) -> Check:
    """``sample`` output (one record per state, then a summary) against the reference.

    Every sampled state must be physical; both verdicts are checked against
    the reference on the parameters the record reports, and the summary's
    class counts must match the records.
    """
    check = Check(count + 1)
    states = [r for r in outputs if "index" in r]
    V = matrices(states)
    ref = oracle_margins(V)
    scale = scale_of(V)
    tally = dict.fromkeys(SUMMARY_KEYS, 0)
    for i, rec in enumerate(states[:count]):
        item = f"state{i}"
        if rec.get("index") != i:
            check.fail(item, f"index {rec.get('index')!r} out of order")
            continue
        if ref[i, 0] < -BAND:
            check.fail(item, f"sampled state is unphysical (oracle margin {ref[i, 0]:.3e})")
            continue
        closed, eig = rec.get("closed"), rec.get("eig")
        problem = (
            verdict_problem(closed, ref[i], scale[i], oracle=False)
            or verdict_problem(eig, ref[i], scale[i], oracle=True)
        )
        if problem is None and rec.get("agree") != _same_verdict(closed, eig):
            problem = "agree does not match the two verdicts"
        if problem:
            check.fail(item, problem)
            continue
        sep, prep = eig["separable"], eig["p_representable"]
        tally["separable"] += sep is True
        tally["entangled"] += sep is False
        tally["p_representable"] += prep is True
        tally["separable_not_prep"] += sep is True and prep is False
        tally["prep_and_entangled"] += prep is True and sep is False
    for i in range(len(states), count):
        check.fail(f"state{i}", "missing")
    summaries = [r["summary"] for r in outputs if "summary" in r]
    if len(summaries) != 1:
        check.fail("summary", f"{len(summaries)} summary records")
    elif summaries[0].get("count") != count or (
        not check.failures and any(summaries[0].get(k) != tally[k] for k in SUMMARY_KEYS)
    ):
        check.fail("summary", "summary counts do not match the records")
    return check


def read_sweep(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        return [], []
    return (rows[0], rows[1:]) if rows else ([], [])


def _fold_problem(V_at, fold: float, k: int) -> str | None:
    """Probe the reference oracle for criterion k (0 physical, 1 separable) around a fold."""
    if math.isnan(fold) or fold < 0.0:
        return f"fold {fold!r} is not a nonnegative number"
    if math.isinf(fold):
        if oracle_margins(V_at(LARGE_N2))[0, k] >= 0.0:
            return f"fold is inf but the oracle is nonnegative at n2={LARGE_N2:g}"
        return None
    step = FOLD_STEP * max(1.0, fold)
    if oracle_margins(V_at(fold + step))[0, k] < -PROBE_TOL:
        return f"oracle negative just above fold {fold!r}"
    if fold - step >= 0.0 and oracle_margins(V_at(fold - step))[0, k] > PROBE_TOL:
        return f"oracle nonnegative just below fold {fold!r}"
    return None


def check_sweep(path, axes: list[tuple[str, np.ndarray]], base: dict) -> Check:
    """A ``sweep`` CSV: grid coordinates, then the physicality and separability
    folds probed with the reference oracle just above and below each fold.

    ``axes`` lists (name, grid) for axis1 and optional axis2; ``base`` holds
    the parameters that are not swept (n1 and fixed values).
    """
    grids = [g for _, g in axes]
    points = [(a,) for a in grids[0]] if len(grids) == 1 else [
        (a, b) for a in grids[0] for b in grids[1]
    ]
    check = Check(len(points))
    header, rows = read_sweep(path)
    names = [n for n, _ in axes]
    expected_header = names + ["n2_min_physical", "n2_min_separable"]
    if header[: len(expected_header)] != expected_header:
        for i in range(len(points)):
            check.fail(f"row{i}", f"bad header {header!r}")
        return check
    width = len(names)
    for i, point in enumerate(points):
        item = f"row{i}"
        if i >= len(rows):
            check.fail(item, "missing")
            continue
        row = rows[i]
        try:
            coords = [float(x) for x in row[:width]]
            folds = [float(x) for x in row[width:width + 2]]
        except (ValueError, IndexError):
            check.fail(item, f"unreadable row {row!r}")
            continue
        if len(folds) != 2 or coords != [float(x) for x in point]:
            check.fail(item, f"row {row!r} does not match grid point {point}")
            continue
        values = dict(base)
        values.update(zip(names, point))

        def V_at(n2, values=values):
            return covariance(values.get("n1", 1.0), n2, values.get("m1", 0.0),
                              values.get("m2", 0.0), values.get("ms", 0.0), values.get("mc", 0.0))

        for k, fold in enumerate(folds):
            problem = _fold_problem(V_at, fold, k)
            if problem:
                check.fail(item, ("physical " if k == 0 else "separable ") + problem)
                break
    if len(rows) > len(points):
        check.fail("extra", f"{len(rows) - len(points)} extra rows")
    return check


def check_invariants(inputs: list, outputs: list) -> Check:
    """``invariants`` output: I1..I4 against the reference."""
    check = Check(len(inputs))
    V = matrices(inputs)
    ref = invariants(V)
    s2 = scale_of(V) ** 2
    for i, rec_in in enumerate(inputs):
        item = str(rec_in.get("id", i))
        if i >= len(outputs):
            check.fail(item, "missing")
            continue
        out = outputs[i]
        if out.get("id") != rec_in.get("id"):
            check.fail(item, f"id {out.get('id')!r} out of order")
            continue
        got = [out.get(k) for k in ("i1", "i2", "i3", "i4")]
        tol = MARGIN_RTOL * np.array([s2[i], s2[i], s2[i], s2[i] ** 2])
        if not all(isinstance(g, (int, float)) for g in got) or np.any(
            np.abs(np.array(got, dtype=float) - ref[i]) > tol
        ):
            check.fail(item, f"invariants {got} but reference {ref[i].tolist()}")
    return check


def check_transform(inputs: list, outputs: list, symplectic: dict, squeezed_prefix: str) -> Check:
    """``transform --reduce`` output.

    The transformed parameters must match S+ V S built here from the same
    angles.  An applicable reduction must satisfy I1 = nu1^2, I2 = nu2^2 and
    |I3| = |mu|^2, with the sign of I3 matching the form; an inapplicable one
    must report a positive residual.  Records whose id starts with
    ``squeezed_prefix`` are squeezed invariant forms, for which the
    reduction must apply.
    """
    check = Check(len(inputs))
    V = matrices(inputs)
    S = local_symplectic(*(symplectic.get(k, 0.0) for k in
                           ("theta1", "phi1", "vphi1", "theta2", "phi2", "vphi2")))
    W = params_of(congruence(S, V))
    inv = invariants(V)
    scale = scale_of(V)
    for i, rec_in in enumerate(inputs):
        item = str(rec_in.get("id", i))
        if i >= len(outputs):
            check.fail(item, "missing")
            continue
        out = outputs[i]
        if out.get("id") != rec_in.get("id"):
            check.fail(item, f"id {out.get('id')!r} out of order")
            continue
        tol = MARGIN_RTOL * scale[i]
        got = out.get("transformed_params") or {}
        try:
            bad = [n for n in PARAM_NAMES
                   if abs(_cplx(got[n]) - complex(W[n][i])) > tol]
        except (KeyError, TypeError, ValueError, IndexError):
            bad = ["unreadable"]
        if bad:
            check.fail(item, f"transformed params differ from S+ V S in {bad}")
            continue
        red = out.get("reduction")
        if not isinstance(red, dict):
            check.fail(item, "reduction missing")
            continue
        if red.get("applicable") is True:
            i1, i2, i3, _ = inv[i]
            tol2 = MARGIN_RTOL * scale[i] ** 2
            try:
                nu1, nu2, mu = float(red["nu1"]), float(red["nu2"]), abs(_cplx(red["mu"]))
                form = red["form"]
            except (KeyError, TypeError, ValueError, IndexError):
                check.fail(item, "unreadable reduction")
                continue
            if (abs(i1 - nu1 ** 2) > tol2 or abs(i2 - nu2 ** 2) > tol2
                    or abs(abs(i3) - mu ** 2) > tol2):
                check.fail(item, "reduced form does not carry the state's invariants")
            elif form not in ("form1", "form2") or (
                form == "form1" and i3 > tol2) or (form == "form2" and i3 < -tol2):
                check.fail(item, f"{form} disagrees with the sign of I3 = {i3:.3e}")
        elif red.get("applicable") is False:
            residual = red.get("residual")
            if not (isinstance(residual, (int, float)) and 0.0 < residual < math.inf):
                check.fail(item, f"inapplicable reduction with residual {residual!r}")
            elif item.startswith(squeezed_prefix):
                check.fail(item, "reduction inapplicable on a squeezed invariant form")
        else:
            check.fail(item, "reduction.applicable is not a boolean")
    return check
