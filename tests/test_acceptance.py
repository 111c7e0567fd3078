"""Acceptance suite: one test per criterion, one PASS line printed per test.

Heavy campaigns evaluate the library's array core in one batch and check
it against the suite's own batched eigenvalue oracle over stacked 4x4
matrices (``batch_margins_eig``), which is spot-checked against the scalar
library path.
"""

import csv
import math
import sys
import time

import numpy as np
import pytest

import literal
from gausssep import cli, core, symplectic
from gausssep.core import E, GaussianParams, I4, build_covariance


def report(name):
    print(f"ACCEPTANCE {name}: PASS", file=sys.stderr)


def batch_margins_eig(V):
    """(physical, separable, prep) margins for a stack of covariance matrices."""
    phys = np.minimum(
        np.linalg.eigvalsh(V + E / 2)[:, 0],
        np.linalg.eigvalsh(V)[:, 0],
    )
    sep = np.linalg.eigvalsh(literal.partial_transpose(V) + E / 2)[:, 0]
    prep = np.linalg.eigvalsh(V - I4 / 2)[:, 0]
    return phys, sep, prep


def physical_margin_eig(V):
    """The physicality oracle margin of a covariance matrix, as a float, or
    of each matrix of a stack, as an array."""
    margins = core._physical_margin_eig(V if V.ndim == 3 else V[None])
    return margins if V.ndim == 3 else float(margins[0])


def separable_margin_eig(V):
    """Separability's oracle margin: physicality of the partial transpose."""
    return physical_margin_eig(literal.partial_transpose(V))


def prep_margin_eig(V):
    """The P-representability oracle margin of a covariance matrix."""
    return float(core._prep_margin_eig(V[None])[0])


def eig_verdicts(V):
    """(physical, separable) from the eigen-oracle margins of a covariance
    matrix, or a list of them for the matrices of a stack; separable is
    None for an unphysical matrix."""
    physical = np.atleast_1d(physical_margin_eig(V) >= -core.TOL_PSD).tolist()
    separable = np.atleast_1d(separable_margin_eig(V) >= -core.TOL_PSD).tolist()
    verdicts = [(ph, s if ph else None) for ph, s in zip(physical, separable)]
    return verdicts if V.ndim == 3 else verdicts[0]


def test_oracle_equivalence_campaign():
    """10^5 mixed draws: closed form and eigen-oracle never disagree off the
    boundary band; runtime under 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(20260823)
    n = 100_000
    # n box draws (physical or not) in one batch
    q = symplectic._random_box(rng, n, 0.4, 3.0, 1.0)
    V = q.covariance()
    eig = np.column_stack(batch_margins_eig(V))
    # The library's closed-form (physical, separable, prep) margins in one
    # batch, NaN where degenerate: the closed-form path is not defined there.
    closed = np.column_stack(core._closed_margins(core._Batch(q)))

    off_boundary = np.all(np.abs(eig) > core.BOUNDARY_BAND, axis=1)
    differ = (closed >= -core.TOL_PSD) != (eig >= -core.TOL_PSD)
    disagreements = np.count_nonzero(differ & ~np.isnan(closed) & off_boundary[:, None])
    elapsed = time.time() - t0
    assert disagreements == 0
    assert elapsed < 60.0

    # honesty check: batched oracle == scalar library path on a subsample
    for i in rng.choice(n, size=200, replace=False):
        v = core.classify(q.take([i]).params()[0], method=core.METHOD_EIG)
        assert v.margin_physical == pytest.approx(eig[i, 0], abs=1e-12)
        if v.physical:
            assert v.margin_separable == pytest.approx(eig[i, 1], abs=1e-12)
            assert v.margin_prep == pytest.approx(eig[i, 2], abs=1e-12)
    report(f"oracle-equivalence (n={n}, {elapsed:.1f}s, 0 disagreements)")


def test_subset_theorem_campaign():
    """10^5 random physical states: no P-representable entangled state, and
    separable-but-not-P states exist; pinned regression witness."""
    rng = np.random.default_rng(4171)
    n = 100_000
    V = core._ParamArrays.of(symplectic.random_physical_states(rng, n)).covariance()
    phys, sep, prep = batch_margins_eig(V)
    assert np.all(phys >= -core.TOL_PSD)
    p_rep = prep >= -core.TOL_PSD
    separable = sep >= -core.TOL_PSD
    assert np.count_nonzero(p_rep & ~separable) == 0
    n_sep_not_p = np.count_nonzero(separable & ~p_rep)
    assert n_sep_not_p >= 1

    # pinned witness: separable but not P-representable, by both methods
    witness = GaussianParams(1.0, 1.0, m2=0.8, ms=0.3, mc=0.3)
    for method in (core.METHOD_CLOSED, core.METHOD_EIG):
        v = core.classify(witness, method=method)
        assert v.physical and v.separable and v.p_representable is False
    report(f"subset-theorem (n={n}, {n_sep_not_p} separable-not-P, 0 P-entangled)")


def test_invariant_form_equivalence():
    """10^4 random form-1/form-2 states: separable <=> P-representable, and
    the product criterion matches the eigen threshold by bisection."""
    rng = np.random.default_rng(99)
    n = 10_000
    exceptions = 0
    for i in range(n):
        n1, n2 = rng.uniform(0.5, 3.0, size=2)
        mu = rng.uniform(0, 1.2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        p = (GaussianParams(n1, n2, mc=mu) if i % 2 == 0
             else GaussianParams(n1, n2, ms=mu))
        V = build_covariance(p)
        if physical_margin_eig(V) < -core.TOL_PSD:
            continue
        m_sep = separable_margin_eig(V)
        m_prep = prep_margin_eig(V)
        if min(abs(m_sep), abs(m_prep)) <= core.BOUNDARY_BAND:
            continue
        if (m_sep >= 0) != (m_prep >= 0):
            exceptions += 1
        # reduced criterion agrees too
        assert (m_sep >= 0) == ((n1 - 0.5) * (n2 - 0.5) >= abs(mu) ** 2)
    assert exceptions == 0

    # bisect the |mu| threshold and compare with sqrt((n1-1/2)(n2-1/2))
    for _ in range(25):
        n1, n2 = rng.uniform(0.6, 3.0, size=2)
        lo, hi = 0.0, math.sqrt((n1 - 0.5) * (n2 + 0.5))
        for _ in range(60):
            mid = (lo + hi) / 2
            V = build_covariance(GaussianParams(n1, n2, mc=mid))
            if separable_margin_eig(V) >= 0:
                lo = mid
            else:
                hi = mid
        assert lo == pytest.approx(math.sqrt((n1 - 0.5) * (n2 - 0.5)), abs=1e-8)
    report(f"invariant-form-equivalence (n={n}, 0 exceptions, 25 bisections)")


def test_symplectic_invariance():
    """I1..I4 and the physicality/separability verdicts survive 100x100
    random local conjugations; a P-representability flip is exhibited."""
    rng = np.random.default_rng(2718)
    states = symplectic.random_physical_states(rng, 100)
    transforms = [symplectic.make_local_symplectic(*literal.local_angles(rng))
                  for _ in range(100)]
    # the 100 transforms as one LocalSymplectic of angle arrays: each state's
    # 100 conjugations are one (100, 4, 4) stack
    angles = ("theta1", "phi1", "vphi1", "theta2", "phi2", "vphi2")
    stacked = symplectic.LocalSymplectic(
        *(np.array([getattr(S, name) for S in transforms]) for name in angles))
    for p in states:
        V = build_covariance(p)
        inv0 = symplectic.invariants(V)
        v0 = eig_verdicts(V)
        W = symplectic.apply_local(stacked, V)
        inv1 = symplectic.invariants(W)
        for a, b in zip((inv0.i1, inv0.i2, inv0.i3, inv0.i4),
                        (inv1.i1, inv1.i2, inv1.i3, inv1.i4)):
            assert b == pytest.approx(np.full(len(transforms), a), rel=1e-9, abs=1e-9)
        assert eig_verdicts(W) == [v0] * len(transforms)

    # witness: P-representability flips under a hard local squeeze
    V = build_covariance(GaussianParams(1.0, 1.0))
    assert prep_margin_eig(V) >= -core.TOL_PSD
    W = symplectic.apply_local(symplectic.make_local_symplectic(1.5), V)
    assert prep_margin_eig(W) < -core.TOL_PSD
    report("symplectic-invariance (100 states x 100 transforms, P-flip witness)")


def test_two_mode_squeezed_thermal_boundary():
    """Symmetric family n1=n2=n, mc=m: bisected eigen thresholds sit at
    m = n - 1/2 (separability) and m = sqrt((n-1/2)(n+1/2)) (physicality)."""
    for n in (0.6, 1.0, 2.0, 5.0):
        def bisect(margin_fn):
            lo, hi = 0.0, n + 0.5
            for _ in range(80):
                mid = (lo + hi) / 2
                V = build_covariance(GaussianParams(n, n, mc=mid))
                if margin_fn(V) >= 0:
                    lo = mid
                else:
                    hi = mid
            return lo

        assert bisect(separable_margin_eig) == pytest.approx(n - 0.5, abs=1e-10)
        assert bisect(physical_margin_eig) == pytest.approx(
            math.sqrt((n - 0.5) * (n + 0.5)), abs=1e-10)
    report("two-mode-squeezed-thermal-boundary (n in {0.6, 1, 2, 5})")


def test_fig1_fold_structure(tmp_path):
    """Default fold sweep: the published P-fold dips below the S-fold, and
    every grid state in that gap fails the physicality eigen-check."""
    out = tmp_path / "fig1.csv"
    assert cli.main(["sweep", "--fig1", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    gap_rows = [r for r in rows if r["prep_below_sep_flag"] == "1"]
    assert gap_rows
    for r in gap_rows:
        n1 = float(r["n1"])
        p_fold, s_fold = float(r["n2_min_prep"]), float(r["n2_min_separable"])
        assert p_fold < s_fold
        for n2 in (p_fold, (p_fold + s_fold) / 2, s_fold - 1e-6):
            if not p_fold <= n2 < s_fold:
                continue
            v = core.classify(GaussianParams(n1, n2, m1=0.5, m2=1.0),
                              method=core.METHOD_EIG)
            assert not v.physical
    report(f"fig1-fold-structure ({len(gap_rows)}/{len(rows)} grid rows in the gap)")


def test_mirror_identity_campaign():
    """The separability row of the closed-form pass over p (physicality's
    family with c conjugated, m2 conjugated and delta negated) == the
    physicality row of the pass over the mirrored parameters on 10^5 draws,
    bit for bit, for the bound and where it is defined, the closed margin
    and the exact fold; the margins are NaN exactly where degenerate."""
    rng = np.random.default_rng(555)
    n = 100_000
    a = symplectic._random_box(rng, n, 0.4, 3.0, 1.0)  # n box draws (physical or not)

    def rows(batch, k):
        bound, defined = core._bound(batch)
        return [np.asarray(x[k]).tobytes()
                for x in (bound, defined, core._closed_margins(batch), core._exact_folds(batch))]

    assert rows(core._Batch(a), 1) == rows(core._Batch(a.mirror()), 0)
    checked = np.count_nonzero(~np.isnan(core._closed_margins(core._Batch(a))[1]))
    assert checked > 0.99 * n
    report(f"mirror-identity (n={n}, exact float equality)")
