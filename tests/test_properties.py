"""Property-based cross-validation of the closed forms against the oracle."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import literal
from gausssep import core
from gausssep.core import GaussianParams, build_covariance
from gausssep.errors import InvalidParameterError

finite = st.floats(allow_nan=False, allow_infinity=False)


def complexes(max_mod):
    return st.tuples(
        st.floats(-max_mod, max_mod), st.floats(-max_mod, max_mod)
    ).map(lambda t: complex(*t))


@st.composite
def param_sets(draw, n_lo=0.4, n_hi=3.0, m_max=1.0):
    return GaussianParams(
        n1=draw(st.floats(n_lo, n_hi)),
        n2=draw(st.floats(n_lo, n_hi)),
        m1=draw(complexes(m_max)),
        m2=draw(complexes(m_max)),
        ms=draw(complexes(m_max)),
        mc=draw(complexes(m_max)),
    )


@given(param_sets())
def test_mirror_identity_exact(p):
    """separability closed form (physicality on the mirrored physicality
    family of p) == physicality closed form of the mirrored parameters, bit
    for bit, in the array core; both are NaN where degenerate."""
    a = core._ParamArrays.of([p])
    q = a.mirror()
    sep = core._closed_margin(q, core._families(a)[0].mirror())
    assert np.array_equal(sep, core._closed_margin(q, core._families(q)[0]), equal_nan=True)


@st.composite
def dyadic_complexes(draw):
    """k/16 times a + ib, for a Pythagorean pair (a, b), turned by a power
    of i: its real part, imaginary part and modulus are short dyadics."""
    a, b = draw(st.sampled_from([(1, 0), (3, 4), (5, 12), (8, 15)]))  # moduli 1, 5, 13, 17
    k = draw(st.integers(-16, 16))
    return complex(k * a / 16, k * b / 16) * draw(st.sampled_from([1, 1j, -1, -1j]))


@given(st.integers(0, 64), dyadic_complexes(), dyadic_complexes(), dyadic_complexes())
def test_families_are_the_papers_terms(k, m1, ms, mc):
    """On short dyadic inputs, where every product, sum and modulus is
    exact, ``_families`` gives the paper's (s, c, d) and (s', c', d') of
    ``literal.closed_form_terms`` exactly, at h = n1 and n1 - 1/2."""
    p = GaussianParams(k / 16, 1.0, m1=m1, ms=ms, mc=mc)
    families = core._families(core._ParamArrays.of([p]))
    for f, (s, c, d), h in zip(families, literal.closed_form_terms(p), (p.n1, p.n1 - 0.5)):
        assert (f.s[0], complex(f.c[0][0], f.c[1][0]), f.a[0], f.h[0]) == (s, c, d, h)


@st.composite
def edge_sets(draw):
    """d = d' = 0 (n1 = 1/2, m1 = 0), d' = 0 with d > 0 (n1 - 1/2 = |m1|
    exactly), or a near-vacuum mode 1 with a small cross correlation."""
    kind = draw(st.sampled_from(["d0", "dp0", "near_vacuum"]))
    n2 = draw(st.floats(0.4, 3.0))
    m2, ms, mc = draw(complexes(1.0)), draw(complexes(1.0)), draw(complexes(1.0))
    if kind == "d0":
        quiet = draw(st.booleans())
        return GaussianParams(0.5, n2, m2=m2, ms=0 if quiet else ms, mc=0 if quiet else mc)
    if kind == "dp0":
        k = draw(st.integers(1, 128)) / 64
        unit = draw(st.sampled_from([1, -1, 1j, -1j]))
        return GaussianParams(0.5 + k, n2, m1=k * unit, m2=m2, ms=ms, mc=mc)
    n1 = draw(st.sampled_from([0.5, math.nextafter(0.5, 0), math.nextafter(0.5, 1)]))
    return GaussianParams(n1, draw(st.floats(0.5, 0.6)), mc=draw(complexes(1e-5)))


def bits(x):
    return struct.pack("<d", x)


@given(st.lists(st.one_of(param_sets(), edge_sets()), min_size=1, max_size=20))
def test_batch_equals_one_element_views(params):
    """A state's Verdict and covariance do not depend on the other states in
    its batch: classify_batch equals per-state classify field by field, bit
    for bit, on mixed unphysical, d = 0, d' = 0 and near-vacuum states.
    The covariance, in the batch and alone, is the paper's matrix, bit for
    bit (signed zeros included)."""
    for method in (core.METHOD_CLOSED, core.METHOD_EIG):
        batch = core.classify_batch(params, method=method)
        assert len(batch) == len(params)
        for p, v in zip(params, batch):
            w = core.classify(p, method=method)
            assert (v.physical, v.separable, v.p_representable, v.method, v.fallbacks) == (
                w.physical, w.separable, w.p_representable, w.method, w.fallbacks)
            for a, b in ((v.margin_physical, w.margin_physical),
                         (v.margin_separable, w.margin_separable),
                         (v.margin_prep, w.margin_prep)):
                assert bits(a) == bits(b)
    V = core._ParamArrays.of(params).covariance()
    for p, Vp in zip(params, V):
        assert Vp.tobytes() == build_covariance(p).tobytes() == literal.covariance(p).tobytes()


@given(st.lists(st.one_of(param_sets(), edge_sets()), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_batch_folds_equal_one_element_views(params):
    """n2_folds_batch equals per-state n2_folds bit for bit, bisections included."""
    phys, sep, prep, degenerate = core.n2_folds_batch(params)
    for i, p in enumerate(params):
        one = core.n2_folds(p)
        assert [bits(x) for x in one[:3]] == [bits(x) for x in (phys[i], sep[i], prep[i])]
        assert one[3] == degenerate[i]


@given(param_sets())
def test_mirror_involution(p):
    assert p.mirror().mirror() == p


@given(param_sets())
def test_mirrored_covariance_is_partial_transpose_bytes(p):
    """Separability's oracle margin is the physicality oracle on the mirrored
    covariance.  That covariance, and so its eigen-oracle input, equals the
    partial transpose of the covariance (the index permutation) bit for
    bit, signed zeros included."""
    Vm = build_covariance(p.mirror())
    VT = literal.partial_transpose(build_covariance(p))
    assert Vm.tobytes() == VT.tobytes()
    assert (Vm + core.E / 2).tobytes() == (VT + core.E / 2).tobytes()


@given(param_sets())
def test_partial_transpose_involution_and_hermiticity(p):
    V = build_covariance(p)
    W = literal.partial_transpose(V)
    assert np.array_equal(W, W.conj().T)
    assert np.array_equal(literal.partial_transpose(W), V)


@given(param_sets())
@settings(max_examples=300)
def test_closed_form_matches_oracle(p):
    """Verdicts agree whenever closed form is non-degenerate and the state
    is away from every decision boundary."""
    ve = core.classify(p, method=core.METHOD_EIG)
    vc = core.classify(p, method=core.METHOD_CLOSED)
    if vc.fallbacks:
        return
    for eig_margin, closed_flag, eig_flag in (
        (ve.margin_physical, vc.physical, ve.physical),
        (ve.margin_separable, vc.separable, ve.separable),
        (ve.margin_prep, vc.p_representable, ve.p_representable),
    ):
        if not math.isnan(eig_margin) and abs(eig_margin) > core.BOUNDARY_BAND:
            assert closed_flag == eig_flag


@given(param_sets())
@settings(max_examples=300)
def test_prep_implies_separable(p):
    v = core.classify(p, method=core.METHOD_EIG)
    if v.physical and v.p_representable:
        assert v.separable


@given(param_sets())
def test_margins_ordered(p):
    """Eigen margins satisfy prep <= separable and prep <= physical."""
    V = build_covariance(p)[None]
    m_prep = core._prep_margin_eig(V)[0]
    assert core._physical_margin_eig(literal.partial_transpose(V))[0] >= m_prep - 1e-12
    assert core._physical_margin_eig(V)[0] >= m_prep - 1e-12


@given(param_sets())
def test_shifted_spectrum_bounds_covariance_spectrum(p):
    """lambda_min(V) >= lambda_min(V + E/2): why the physicality oracle needs
    no separate V >= 0 term."""
    V = build_covariance(p)[None]
    assert core.min_eigenvalue_hermitian(V)[0] >= (
        core.min_eigenvalue_hermitian(V + core.E / 2)[0] - 1e-12)


@given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), complexes(1.0))
def test_form1_reduced_criterion(n1, n2, mu):
    """On form 1, separability and P-representability coincide and both
    equal (n1 - 1/2)(n2 - 1/2) >= |mu|^2."""
    p = GaussianParams(n1=n1, n2=n2, mc=mu)
    v = core.classify(p, method=core.METHOD_EIG)
    if not v.physical:
        return
    reduced = (n1 - 0.5) * (n2 - 0.5) - abs(mu) ** 2
    if abs(reduced) > core.BOUNDARY_BAND:
        assert v.separable == (reduced >= 0)
        assert v.p_representable == (reduced >= 0)
    if abs(min(v.margin_separable, v.margin_prep)) > core.BOUNDARY_BAND:
        assert v.separable == v.p_representable


@given(st.floats(0.45, 2.0), st.floats(0.45, 2.0), complexes(1.2), complexes(1.2))
def test_saturation_has_zero_margin(n1, n2, m1, m2):
    """States saturating both mode bounds have min eigenvalue of V + E/2 == 0."""
    # saturate mode 1: n1 = sqrt(|m1|^2 + 1/4); mode 2 likewise; no cross terms
    p = GaussianParams(
        n1=math.sqrt(abs(m1) ** 2 + 0.25),
        n2=math.sqrt(abs(m2) ** 2 + 0.25),
        m1=m1,
        m2=m2,
    )
    margin = core._physical_margin_eig(build_covariance(p)[None])[0]
    assert abs(margin) <= core.TOL_PSD


EIGHTHS = st.integers(-8, 8).map(lambda k: k / 8)


def eighths():
    return st.tuples(EIGHTHS, EIGHTHS).map(lambda t: complex(*t))


@st.composite
def degenerate_sets(draw):
    """States with d = 0 or d' = 0 exactly, from dyadic values: n1 = 1/2 with
    m1 = 0 (d = d' = 0), n1 = 5/8 with |m1| = 3/8 (d = 0), or n1 = 1/2 +- |m1|
    with |m1| in {1/4, 1/2} (d' = 0; below 1/2, V1 - I/2 is negative
    semidefinite and no n2 gives P).  The cross block is zero, a draw, or a
    draw with mc = unit * conj(ms) for m1 = |m1| * unit, which at d' = 0 is
    orthogonal to the null vector of V1 - I/2: the P-fold's slope is then 0
    although the cross block is not."""
    unit = draw(st.sampled_from([1, -1, 1j, -1j]))
    kind = draw(st.sampled_from(["vacuum", "d0", "dp0"]))
    if kind == "vacuum":
        n1, m1 = 0.5, 0.0
    elif kind == "d0":
        n1, m1 = 0.625, 0.375 * unit
    else:
        k = draw(st.sampled_from([0.25, 0.5]))
        n1, m1 = 0.5 + draw(st.sampled_from([k, -k])), k * unit
    m2, ms, mc = draw(eighths()), draw(eighths()), draw(eighths())
    cross = draw(st.sampled_from(["zero", "drawn", "split"]))
    if cross == "zero":
        ms = mc = 0.0
    elif cross == "split":
        mc = unit * ms.conjugate()
    return GaussianParams(n1, 1.0, m1=m1, m2=m2, ms=ms, mc=mc)


def fold_margin(p, criterion, n2):
    """The eigen-oracle margin of ``criterion`` at ``p`` with its n2 set to ``n2``."""
    V = build_covariance(dataclasses.replace(p, n2=n2))[None]
    oracle = core._prep_margin_eig if criterion == "p_representable" else core._physical_margin_eig
    return oracle(V)[0]


@given(degenerate_sets())
@settings(max_examples=300, deadline=None)
def test_exact_folds_on_degenerate_states_match_oracle(p):
    """Each exact fold of a state whose mode-1 block is singular is checked
    with the eigen-oracle: a finite fold f holds just above f and fails at
    f (1 - 1e-7); an infinite one fails at n2 = 1e2, 1e3 and 1e4.  (Not at
    1e8, where the oracle's rounding, about u |V|, exceeds the true margin.)"""
    for state, criterion in ((p, "physical"), (p.mirror(), "physical"), (p, "p_representable")):
        fold = core.bisect_n2_threshold(state, criterion)
        if math.isinf(fold):
            assert all(fold_margin(state, criterion, n2) < 0 for n2 in (1e2, 1e3, 1e4))
        else:
            assert fold_margin(state, criterion, fold * (1 + 1e-7)) >= -core.TOL_PSD
            assert fold_margin(state, criterion, fold * (1 - 1e-7)) < 0


@st.composite
def invariant_forms(draw):
    """Form 1 (mc = mu) or form 2 (ms = mu) states, with n1 - 1/2 >= 1e-3
    so that d' = (n1 - 1/2)^2 lies off the band."""
    mu = draw(complexes(2.0))
    n1, n2 = draw(st.floats(0.501, 4.0)), draw(st.floats(0.0, 3.0))
    return GaussianParams(n1, n2, mc=mu) if draw(st.booleans()) else GaussianParams(n1, n2, ms=mu)


@given(invariant_forms())
@example(GaussianParams(0.6442879149519982, 1.5185806937642425,
                        mc=0.6556368308863103 - 0.06352705380706045j))
def test_invariant_form_p_fold(p):
    """On the invariant forms, P-representability holds from
    n2 = 1/2 + |mu|^2 / (n1 - 1/2), where the quadratic of the P-fold has a
    double root; on form 1 separability holds from the same n2 (the paper's
    coincidence).  The exact P-fold matches within 1e-14 relative, the
    sweep's S-fold within 1e-13."""
    mu = p.mc if p.ms == 0 else p.ms
    expected = 0.5 + abs(mu) ** 2 / (p.n1 - 0.5)
    assert core.bisect_n2_threshold(p, "p_representable") == pytest.approx(expected, rel=1e-14)
    if p.ms == 0:
        assert core.n2_folds(p)[1] == pytest.approx(expected, rel=1e-13)


@given(param_sets())
@example(GaussianParams(1.0, 1.0, m2=0.5, ms=0.3, mc=0.3))
@example(GaussianParams(0.6442879149519982, 1.5185806937642425,
                        mc=0.6556368308863103 - 0.06352705380706045j))
def test_exact_fold_off_the_band_is_the_closed_bound(p):
    """Off the band |a| > TOL_SING, where the mode-1 rule holds, the exact
    fold of each criterion is its closed bound bit for bit: physicality on
    ``p`` and on ``p.mirror()``, and P-representability."""
    q = core._ParamArrays.of([p])
    phys, prep = core._families(q)
    assume(phys.a[0] > core.TOL_SING)
    for state in (p, p.mirror()):
        assert bits(core.bisect_n2_threshold(state, "physical")) == bits(
            core.physicality_bound_n2(state))
    bound, defined = core._bound(q, prep)
    if defined[0]:
        assert bits(core.bisect_n2_threshold(p, "p_representable")) == bits(bound[0])


@given(st.lists(st.one_of(st.floats(), st.sampled_from([-0.0, -5e-324])), min_size=10, max_size=10))
def test_invalid_rows_are_the_rejected_parameter_sets(values):
    """``_ParamArrays.invalid`` flags a row iff ``GaussianParams`` rejects
    it, and a row it accepts reads back as its own ten floats."""
    q = core._ParamArrays.from_rows([values])
    n1, n2, *m = values
    try:
        p = GaussianParams(n1, n2, *(complex(a, b) for a, b in zip(m[::2], m[1::2])))
    except InvalidParameterError:
        assert q.invalid().tolist() == [True]
    else:
        assert q.invalid().tolist() == [False]
        assert struct.pack("10d", *core._values(p)) == struct.pack("10d", *values)
        assert q.params() == [p]
