"""Property-based cross-validation of the closed forms against the oracle."""

import dataclasses
import itertools
import math
import struct
from fractions import Fraction

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
@example(GaussianParams(0.5, 1.0, m2=0.25 + 0.5j, ms=0.125 - 0.25j, mc=0.375 + 0.125j))  # d = 0
@example(GaussianParams(0.625, 0.75, m1=0.375j, m2=-0.5, ms=0.25, mc=0.5 - 0.25j))  # d = 0
@example(GaussianParams(0.75, 1.25, m1=0.25, m2=0.125j, ms=0.5j, mc=0.25 + 0.25j))  # d' = 0
def test_mirror_identity_exact(p):
    """The separability row of the closed-form pass over p (physicality's
    family with c conjugated, m2 conjugated and delta negated) == the
    physicality row of the pass over the mirrored parameters, bit for bit:
    the bound and where it is defined, the closed margin (NaN where
    degenerate) and the exact fold, inside the band too."""
    a = core._ParamArrays.of([p])

    def rows(batch, k):
        bound, defined = core._bound(batch)
        return [np.asarray(x[k]).tobytes()
                for x in (bound, defined, core._closed_margins(batch), core._exact_folds(batch))]

    assert rows(core._Batch(a), 1) == rows(core._Batch(a.mirror()), 0)


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
    ``literal.closed_form_terms`` exactly, at h = n1 and n1 - 1/2, on the
    physicality and P rows, and on the separability row the (s, c, d) of
    the mirrored parameters."""
    p = GaussianParams(k / 16, 1.0, m1=m1, ms=ms, mc=mc)
    f = core._families(core._ParamArrays.of([p]))
    (phys, prep), (sep, _) = literal.closed_form_terms(p), literal.closed_form_terms(p.mirror())
    for row, (s, c, d), h in zip(range(3), (phys, sep, prep), (p.n1, p.n1, p.n1 - 0.5)):
        assert (f.s[row, 0], complex(f.c[0][row, 0], f.c[1][row, 0]), f.a[row, 0],
                f.h[row, 0]) == (s, c, d, h)


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


@given(st.lists(st.one_of(param_sets(), degenerate_sets()), min_size=1, max_size=8))
@example([GaussianParams(0.5, 1.0, m2=0.25 + 0.5j, ms=0.125 - 0.25j, mc=0.375 + 0.125j),
          GaussianParams(1.0, 1.0, m1=1.1, mc=0.2)])  # d = 0, d < 0
@settings(max_examples=100, deadline=None)
def test_sweep_separability_column_is_the_mirrors_physicality_column(ps):
    """The sweep's separability column, read in one masked pass, is the
    physicality column of the mirrored states, read state by state where
    degenerate, bit for bit, band rows and ``inf`` folds included; and the
    other way round.  Both batches flag the same degenerate states."""
    phys, sep, _, degenerate = core.n2_folds_batch(ps)
    m_phys, m_sep, _, m_degenerate = core.n2_folds_batch([p.mirror() for p in ps])
    assert sep.tobytes() == m_phys.tobytes()
    assert phys.tobytes() == m_sep.tobytes()
    assert degenerate.tolist() == m_degenerate.tolist()


@st.composite
def band_states(draw):
    """States at d = 0 from dyadic values, n1 = 1/2 with m1 = 0 or n1 = 3/2
    with m1 = 1 + i, with m2 drawn and the cross block zero (finite folds)
    or drawn (``inf`` folds unless it is zero)."""
    n1, m1 = draw(st.sampled_from([(0.5, 0j), (1.5, 1 + 1j)]))
    ms, mc = (0j, 0j) if draw(st.booleans()) else (draw(eighths()), draw(eighths()))
    return GaussianParams(n1, 1.0, m1=m1, m2=draw(eighths()), ms=ms, mc=mc)


@given(st.lists(band_states(), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_band_separability_fold_is_the_physicality_fold(ps):
    """Where d = 0 (|a| <= TOL_SING), rows 0 and 1 of ``_exact_folds``, the
    physicality and separability exact folds, are equal bit for bit: mode 1
    is pure there, so a physical state is a product state, and separable."""
    batch = core._Batch.of(ps)
    assert (np.abs(batch.families.a[:2]) <= core.TOL_SING).all()
    folds = core._exact_folds(batch)
    assert folds[0].tobytes() == folds[1].tobytes()


# d' = 0 in floats (n1 - 1/2 = |m1| = 2^-40) with the cross block split off
# (slope 0): its exact P-fold, (t cross - s) / t^2 with t = 2^-39 and
# cross = 2^1001, overflows, while its physicality folds are inf.
P_OVERFLOW = GaussianParams(0.5 + 2.0 ** -40, 1.0, m1=2.0 ** -40, ms=2.0 ** 500, mc=2.0 ** 500)


@st.composite
def prep_fold_rows(draw):
    """A state whose literal P-fold is defined (d' > TOL_SING), one whose
    mode-1 rule fails (d' < 0), one exactly in the band (d' = 0 from short
    dyadics: n1 = 1/2 +- r with |m1| = r, the cross block drawn or split
    off), or now and then ``P_OVERFLOW``."""
    kind = draw(st.sampled_from(["defined"] * 3 + ["fails"] * 3 + ["band"] * 3 + ["overflow"]))
    unit = draw(st.sampled_from([1, -1, 1j, -1j]))
    n2 = draw(st.floats(0.4, 3.0))
    m2, ms, mc = draw(complexes(1.0)), draw(complexes(1.0)), draw(complexes(1.0))
    if kind == "defined":  # d' >= 1/16 - 2 (0.15)^2
        n1, m1 = draw(st.floats(0.75, 3.0)), draw(complexes(0.15))
        return GaussianParams(n1, n2, m1=m1, m2=m2, ms=ms, mc=mc)
    if kind == "fails":  # d' = r^2 - (|r| + delta)^2 <= -1e-4
        r = draw(st.floats(-0.1, 0.5))
        return GaussianParams(0.5 + r, n2, m1=(abs(r) + draw(st.floats(0.01, 1.0))) * unit,
                              m2=m2, ms=ms, mc=mc)
    if kind == "band":
        r = draw(st.integers(0, 32)) / 64
        m2, ms, mc = draw(eighths()), draw(eighths()), draw(eighths())
        if draw(st.booleans()):
            mc = unit * ms.conjugate()
        n1 = 0.5 + draw(st.sampled_from([r, -r]))
        return GaussianParams(n1, n2, m1=r * unit, m2=m2, ms=ms, mc=mc)
    return P_OVERFLOW


@given(st.lists(prep_fold_rows(), min_size=1, max_size=8))
@example([GaussianParams(1.0, 1.0), P_OVERFLOW, GaussianParams(0.5, 1.0, m2=0.25), P_OVERFLOW])
@settings(max_examples=150, deadline=None)
def test_batch_prep_folds_equal_the_per_state_reads(params):
    """The sweep's P column, ``n2_folds_batch(...)[2]``, takes the entries
    without a literal fold from the exact fold's array pass in one masked
    read.  It equals the former per-state reads (``literal.prep_folds``)
    bit for bit, inf included; where those reads raise, the batch raises
    the same error, with the same text."""
    try:
        expected = literal.prep_folds(params)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as info:
            core.n2_folds_batch(params)
        assert str(info.value) == str(exc)
        return
    prep = core.n2_folds_batch(params)[2]
    assert [bits(x) for x in prep.tolist()] == [bits(x) for x in expected]


def test_exact_prep_folds_pass_the_exact_referee():
    """Every P entry that the sweep takes from the exact fold (d' <=
    TOL_SING), on a dyadic grid of exact band rows (d' = 0) and mode-1
    failures (d' < 0), is checked in rational arithmetic
    (``literal.prep_exact``): for a finite fold f, V - I/2 is positive
    semidefinite at n2 = f (1 + 2^-20) and not at f (1 - 2^-20); for an
    infinite one it is not at n2 = 2^40."""
    params = []
    for r, sign, excess, unit, (ms, split), mc_unit, m2 in itertools.product(
            [0.0, 0.125, 0.375], [1, -1], [0.0, 0.125], [1, 1j], [(0, False), (0.375 - 0.25j, False),
            (0.375 - 0.25j, True)], [0, 0.125], [0, 0.5 + 0.125j]):
        mc = unit * ms.conjugate() if split else mc_unit
        params.append(GaussianParams(0.5 + sign * r, 1.0, m1=(r + excess) * unit, m2=m2, ms=ms, mc=mc))
    params = [p for p in dict.fromkeys(params) if literal.closed_form_terms(p)[1][2] <= core.TOL_SING]
    finite = assert_folds_pass_the_referee(params, core.n2_folds_batch(params)[2], literal.prep_exact)
    kinds = {literal.closed_form_terms(p)[1][2] == 0 for p in params}
    assert kinds == {True, False} and 0 < finite < len(params)


def assert_folds_pass_the_referee(params, folds, referee) -> int:
    """Check each fold f of ``folds`` against the exact ``referee`` of its
    state of ``params``: for a finite f, the criterion holds at n2 = f (1 +
    2^-20) and not at f (1 - 2^-20); for an infinite one it fails at n2 =
    2^40.  Returns the number of finite folds."""
    step = Fraction(1, 2 ** 20)
    finite = 0
    for p, f in zip(params, folds.tolist()):
        if math.isinf(f):
            assert not referee(p, Fraction(2 ** 40))
        else:
            finite += 1
            assert f > 0 and referee(p, Fraction(f) * (1 + step))
            assert not referee(p, Fraction(f) * (1 - step))
    return finite


def test_exact_physicality_and_separability_folds_pass_the_exact_referee():
    """Every physicality and separability entry that the sweep takes from
    the exact fold (d <= TOL_SING), on a dyadic grid of exact band rows (d
    = 0: n1^2 - |m1|^2 = 1/4) and mode-1 failures (d < 0), is checked in
    rational arithmetic (``literal.physical_exact``, V + E/2, and
    ``literal.separable_exact``, T V T + E/2), as the P entries are.  A
    band row's fold is finite only where its cross block is 0: otherwise
    the null vector of the singular mode-1 block couples to mode 2."""
    params = list(dict.fromkeys(
        GaussianParams(n1, 1.0, m1=r * unit, m2=m2, ms=ms, mc=mc)
        for (n1, r), unit, (ms, mc), m2 in itertools.product(
            [(0.5, 0.0), (0.625, 0.375), (1.0625, 0.9375), (0.5, 0.125), (0.625, 0.5), (0.375, 0.0)],
            [1, 1j], [(0, 0), (0.375 - 0.25j, 0), (0, 0.125j)], [0, 0.375, 0.5 + 0.125j])))
    d = [literal.closed_form_terms(p)[0][2] for p in params]
    assert max(d) == 0.0 and min(d) < 0.0
    phys, sep, _, degenerate = core.n2_folds_batch(params)
    assert degenerate.all()
    for folds, referee in ((phys, literal.physical_exact), (sep, literal.separable_exact)):
        finite = assert_folds_pass_the_referee(params, folds, referee)
        assert 0 < finite < len(params)


REFEREES = (literal.physical_exact, literal.separable_exact, literal.prep_exact)


def assert_referee_answers(p, band):
    """On both routes, every answer of ``classify(p)`` whose |margin| >
    ``band`` is the exact referee's (``literal``), criterion by criterion."""
    for method in (core.METHOD_CLOSED, core.METHOD_EIG):
        v = core.classify(p, method)
        for criterion, answer, margin, referee in zip(core._CRITERIA, v[:3], v[3:6], REFEREES):
            if answer is not None and abs(margin) > band:
                assert answer == referee(p), (method, criterion, margin)


def short_dyadics(k):
    """Multiples of 1/32 in [-k/32, k/32]."""
    return st.integers(-k, k).map(lambda i: i / 32)


@given(st.builds(GaussianParams, *[short_dyadics(128).map(abs)] * 2,
                 *[st.builds(complex, short_dyadics(16), short_dyadics(16))] * 3,
                 st.builds(complex, short_dyadics(48), short_dyadics(48))))
@settings(max_examples=200, deadline=None)
def test_answers_off_the_band_are_the_exact_referees(p):
    """On short-dyadic states (steps of 1/32: n1, n2 in [0, 4], the parts of
    m1, m2 and ms in [-1/2, 1/2] and of mc in [-3/2, 3/2]; uniform draws
    from these ranges are unphysical, entangled, separable only and
    P-representable in about 56:3:10:31), wherever a criterion's |margin| >
    ``BOUNDARY_BAND``, both routes give the answer that rational arithmetic
    gives."""
    assert_referee_answers(p, core.BOUNDARY_BAND)


@pytest.mark.parametrize("p", [
    pytest.param(GaussianParams(1e8, 1e8, mc=1e8), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="absolute tolerances: both routes call this "
        "unphysical state (exact lambda_min about -1.25e-9) physical, with margin 0.0")),
    pytest.param(GaussianParams(1e104, 1e104, mc=1e103), marks=pytest.mark.xfail(
        strict=True, raises=OverflowError, reason="no scaled closed forms: the closed "
        "route's intermediates, cubic in the parameters, overflow")),
])
def test_large_magnitude_answers_are_the_exact_referees(p):
    """Every answer of both routes is the referee's, however near the
    boundary (the band is -inf).  Each state fails today: the first needs
    certified verdicts, the second scale-free closed forms (both on the
    ROADMAP); each strict xfail flips when its fix lands."""
    assert_referee_answers(p, -math.inf)


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
    batch = core._Batch.of([p])
    assume(batch.families.a[0, 0] > core.TOL_SING)
    for state in (p, p.mirror()):
        assert bits(core.bisect_n2_threshold(state, "physical")) == bits(
            core.physicality_bound_n2(state))
    bound, defined = core._bound(batch)
    if defined[2, 0]:
        assert bits(core.bisect_n2_threshold(p, "p_representable")) == bits(bound[2, 0])


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
