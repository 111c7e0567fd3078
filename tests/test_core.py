import gc
import math
import re
import weakref

import numpy as np
import pytest

import gausssep
import literal
from gausssep import core, errors, symplectic
from gausssep.core import (
    TOL_PATTERN,
    E,
    GaussianParams,
    I4,
    build_covariance,
    classify,
    min_eigenvalue_hermitian,
    params_from_covariance,
)
from gausssep.errors import DegenerateBoundError, InvalidParameterError, StructuralError

I2 = np.eye(2)
Z = literal.Z

VACUUM = GaussianParams(0.5, 0.5)

# Oracle-frozen n2 thresholds for n1=1, m1=0, ms=mc=0.3, m2=0.5
# (bisection on the minimum eigenvalue of the shifted matrices).
REF = GaussianParams(1.0, 1.0, m1=0.0, m2=0.5, ms=0.3, mc=0.3)
REF_PHYS_BOUND = 0.8035601121442149
REF_PREP_BOUND = 1.0

# m1 = sqrt(3/4) + eps puts n1 = 1 just past the mode-1 limit: d = -1.7 eps.
NEAR_D0 = [GaussianParams(1, 1, m1=math.sqrt(0.75) + eps, m2=0.3, ms=0.1, mc=0.4)
           for eps in (1e-11, 1e-7, 1e-5)]
# d' = 0 in floats (n1 - 1/2 = |m1| = 2^-40) with the cross block split off:
# the exact P-fold overflows, and only the P column's.
P_OVERFLOW = GaussianParams(0.5 + 2.0 ** -40, 1.0, m1=2.0 ** -40, ms=2.0 ** 500, mc=2.0 ** 500)


class TestCanonicalMatrices:
    """E = Z (+) Z, and the mirror's T = I (+) X, which is the permutation
    matrix of ``literal.PT_PERM``."""

    def test_squares(self):
        T = I4[literal.PT_PERM]
        assert np.array_equal(E @ E, I4)
        assert np.array_equal(Z @ Z, I2)
        assert np.array_equal(T @ T, I4)

    def test_block_structure(self):
        T = I4[literal.PT_PERM]
        assert np.array_equal(E[:2, :2], Z)
        assert np.array_equal(E[2:, 2:], Z)
        assert not E[:2, 2:].any() and not E[2:, :2].any()
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(T, np.block([[I2, 0 * I2], [0 * I2, X]]))


class TestBuildCovariance:
    def test_vacuum(self):
        assert np.array_equal(build_covariance(VACUUM), np.diag([0.5] * 4))

    def test_m1_placement(self):
        V = build_covariance(GaussianParams(1.0, 0.5, m1=0.5))
        assert V[0, 1] == 0.5 and V[1, 0] == 0.5
        assert V[0, 0] == 1.0 and V[1, 1] == 1.0

    def test_mc_placement(self):
        V = build_covariance(GaussianParams(1.0, 1.0, mc=0.6))
        assert V[0, 3] == 0.6 and V[3, 0] == 0.6
        assert V[1, 2] == 0.6 and V[2, 1] == 0.6

    def test_hermitian_by_construction(self):
        p = GaussianParams(1.2, 0.9, m1=0.1 + 0.2j, m2=-0.3j, ms=0.4 - 0.1j, mc=0.2j)
        V = build_covariance(p)
        assert np.array_equal(V, V.conj().T)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["n1", "n2", "m1", "m2", "ms", "mc"])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"n1": 1.0, "n2": 1.0, field: value}
        with pytest.raises(InvalidParameterError):
            GaussianParams(**kwargs)

    def test_negative_occupation_rejected(self):
        with pytest.raises(InvalidParameterError):
            GaussianParams(-0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            GaussianParams(1.0, -2.0)

    def test_params_round_trip(self):
        p = GaussianParams(1.2, 0.9, m1=0.1 + 0.2j, m2=-0.3j, ms=0.4 - 0.1j, mc=0.2j)
        assert params_from_covariance(build_covariance(p)) == p


GENERIC = GaussianParams(1.2, 0.9, m1=0.1 + 0.2j, m2=-0.3j, ms=0.4 - 0.1j, mc=0.2j)


BROKEN_RELATIONS = [
    {(1, 1): 0.1},                         # V11 != V00
    {(3, 3): -0.1},                        # V33 != V22
    {(2, 2): 0.1j},                        # non-real diagonal
    {(1, 3): 0.1, (3, 1): 0.1},            # V13 != conj V02, still Hermitian
    {(1, 2): 0.1j, (2, 1): -0.1j},         # V12 != conj V03, still Hermitian
    {(3, 0): 0.1},                         # lower triangle != conj of upper
    {(1, 0): 2 * TOL_PATTERN},             # just past the tolerance
    {(1, 0): math.nan},                    # NaN fails every comparison
]


def stack_failure(*matrices):
    """``first_error`` of the parameters read off a stack of ``matrices``."""
    q, residual, ok, _ = core._ParamArrays.read_stack(np.stack(matrices))
    return q.first_error(ok, residual)


def assert_fails_as_alone(failure, k, V):
    """``failure`` names matrix ``k`` of its stack with the error that
    ``params_from_covariance`` raises on that matrix, ``V``, alone."""
    with pytest.raises((InvalidParameterError, StructuralError)) as alone:
        params_from_covariance(V)
    index, exc = failure
    assert (index, type(exc), str(exc)) == (k, type(alone.value), str(alone.value))


class TestStructuralRule:
    """A matrix is accepted iff it rebuilds from the parameters read off it:
    entry (i, j) within TOL_PATTERN * max(1, sqrt(|B_ii| |B_jj|)) of the
    rebuild B."""

    @pytest.mark.parametrize("edits", BROKEN_RELATIONS)
    def test_broken_relation_rejected(self, edits):
        V = build_covariance(GENERIC)
        for ij, dv in edits.items():
            V[ij] += dv
        with pytest.raises(StructuralError):
            params_from_covariance(V)

    @pytest.mark.parametrize("edits", BROKEN_RELATIONS)
    def test_stack_reader_applies_the_same_rule(self, edits):
        """Each matrix of a stack is read and checked as one matrix is; the
        first that fails is named, with its own error."""
        good = build_covariance(GENERIC)
        bad = good.copy()
        for ij, dv in edits.items():
            bad[ij] += dv
        assert_fails_as_alone(stack_failure(good, bad, bad), 1, bad)
        q, residual, ok, _ = core._ParamArrays.read_stack(np.stack([good, build_covariance(REF)]))
        assert q.first_error(ok, residual) is None
        assert q.params() == [GENERIC, REF] == [params_from_covariance(good), REF]

    def test_within_tolerance_accepted(self):
        V = build_covariance(GENERIC)
        V[1, 2] += TOL_PATTERN / 2
        assert params_from_covariance(V) == GENERIC

    def test_tolerance_scales_with_the_matrix(self):
        """At the scale of 1e12 an ulp-sized deviation is rounding, not a
        broken pattern; 2 TOL_PATTERN of the scale is, and an infinite
        entry is never within the tolerance."""
        p = GaussianParams(1e12, 1.0, m1=3e11 + 1e11j)
        V = build_covariance(p)
        V[1, 0] += 2.5e-4  # two ulps of 1e12, 2.5e5 TOL_PATTERN
        assert params_from_covariance(V) == p
        assert stack_failure(V, V) is None
        assert core._ParamArrays.read_stack(np.stack([V, V]))[0].params() == [p, p]
        broken, infinite = V.copy(), V.copy()
        broken[1, 0] += 2 * TOL_PATTERN * 1e12
        infinite[3, 2] = math.inf
        for W in (broken, infinite):
            with pytest.raises(StructuralError):
                params_from_covariance(W)
            assert_fails_as_alone(stack_failure(V, W), 1, W)

    @pytest.mark.parametrize(
        "edits", [e for e in BROKEN_RELATIONS if any(max(ij) >= 2 for ij in e)])
    def test_large_mode1_does_not_widen_the_other_blocks(self, edits):
        """A broken relation in the mode-2 or the cross block is rejected
        when mode 1 is of scale 1e12: those blocks keep the tolerance of
        their own scale."""
        V = build_covariance(GaussianParams(1e12, 0.9, m1=3e11 + 1e11j, m2=-0.3j,
                                            ms=0.4 - 0.1j, mc=0.2j))
        bad = V.copy()
        for ij, dv in edits.items():
            bad[ij] += dv
        with pytest.raises(StructuralError):
            params_from_covariance(bad)
        assert_fails_as_alone(stack_failure(V, bad), 1, bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("ij", [(i, j) for i in range(4) for j in range(4)])
    def test_non_finite_entry_rejected(self, ij, value):
        V = build_covariance(GENERIC)
        V[ij] = value
        with pytest.raises((StructuralError, InvalidParameterError)):
            params_from_covariance(V)

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (4, 4, 1), (2, 4, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(StructuralError):
            params_from_covariance(np.ones(shape))

    def test_errors_in_order(self):
        """The shape fails first, then the parameters ``GaussianParams``
        rejects, then the pattern."""
        V = build_covariance(GENERIC)
        V[0, 0], V[1, 0] = -1.0, 5.0  # a negative occupation and a broken pattern
        with pytest.raises(InvalidParameterError, match="occupations must be nonnegative"):
            params_from_covariance(V)
        with pytest.raises(StructuralError, match="expected a 4x4 matrix"):
            params_from_covariance(V[:3, :3])
        V[0, 0] = V[1, 1] = 1.2
        with pytest.raises(StructuralError, match=r"pattern \(max deviation 4\.9"):
            params_from_covariance(V)

    def test_first_error_in_order(self):
        """``first_error`` names the first failing set of a stack; within a
        set, invalid parameters come before the pattern, as in
        ``params_from_covariance``."""
        good = build_covariance(GENERIC)
        broken, both, infinite = good.copy(), good.copy(), good.copy()
        broken[1, 0] += 5.0
        both[0, 0], both[1, 0] = -1.0, 5.0
        infinite[0, 0] = math.inf
        assert_fails_as_alone(stack_failure(good, broken, both), 1, broken)
        assert_fails_as_alone(stack_failure(good, both, broken), 1, both)
        assert_fails_as_alone(stack_failure(infinite, broken), 0, infinite)
        assert isinstance(stack_failure(good, both)[1], InvalidParameterError)
        q = core._ParamArrays.of([GENERIC, GaussianParams(1, 1)])
        assert q.first_error() is None and q.validated() is q
        q = q._replace(n2=np.array([1.0, -2.0]))
        k, exc = q.first_error()
        assert (k, str(exc)) == (1, "occupations must be nonnegative, got n1=1.0, n2=-2.0")
        with pytest.raises(InvalidParameterError, match="n2=-2.0"):
            q.validated()


class TestDecomposeBlocks:
    """The local blocks V1, V2 and the cross block C are slices of the
    covariance; ``symplectic.invariants``, which reads them off matrices
    from outside the package, checks its input first."""

    def test_vacuum(self):
        V = build_covariance(VACUUM)
        assert np.array_equal(V[:2, :2], I2 / 2)
        assert np.array_equal(V[2:, 2:], I2 / 2)
        assert np.array_equal(V[:2, 2:], np.zeros((2, 2)))

    def test_form1_cross_block(self):
        mu = 0.3 - 0.1j
        C = build_covariance(GaussianParams(1.0, 1.0, mc=mu))[:2, 2:]
        assert np.array_equal(C, np.array([[0, mu], [np.conj(mu), 0]]))

    def test_reassembly_round_trip(self):
        V = build_covariance(GaussianParams(1.3, 0.8, m1=0.2j, m2=0.5, ms=0.1, mc=0.4j))
        V1, V2, C = V[:2, :2], V[2:, 2:], V[:2, 2:]
        W = np.block([[V1, C], [C.conj().T, V2]])
        assert np.array_equal(W, V)

    def test_non_hermitian_rejected(self):
        M = np.eye(4, dtype=complex)
        M[0, 1] = 1.0
        with pytest.raises(StructuralError, match="not Hermitian"):
            symplectic.invariants(M)
        with pytest.raises(StructuralError, match="not Hermitian"):
            symplectic.invariants(np.stack([np.eye(4), M]))
        # at scale 1e6 an entry's tolerance is TOL_HERM * 1e6: just above it fails
        M = 1e6 * np.eye(4, dtype=complex)
        M[0, 1] = 1.01e-6
        with pytest.raises(StructuralError, match=r"^matrix is not Hermitian: max deviation 1\.010e-06$"):
            symplectic.invariants(M)
        M[0, 1] = 0.99e-6
        assert symplectic.invariants(M).i1 == 1e12

    def test_nan_entry_rejected(self):
        M = np.eye(4, dtype=complex)
        M[1, 0] = math.nan
        with pytest.raises(StructuralError):
            symplectic.invariants(M)

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 2), (5, 5), (2, 4, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(StructuralError, match="expected a 4x4 matrix"):
            symplectic.invariants(np.zeros(shape))


class TestMinEigenvalue:
    """The oracle backend takes (N, n, n) stacks."""

    def test_diagonal(self):
        assert min_eigenvalue_hermitian(np.diag([0.5] * 4)[None]).tolist() == [0.5]

    def test_z(self):
        assert min_eigenvalue_hermitian(np.stack([Z, I2])).tolist() == [-1.0, 1.0]

    def test_physical_state_shifted_matrix(self):
        # form-1 cross-check: (n1-1/2)(n2+1/2) = 0.75 >= 0.36 = |mc|^2
        V = build_covariance(GaussianParams(1.0, 1.0, mc=0.6))
        assert min_eigenvalue_hermitian((V + E / 2)[None])[0] >= 0.0


def schur_complement(V1, V2, C, shift1, shift2):
    """(V2 + shift2) - C+ (V1 + shift1)^-1 C, with the 2x2 inverse written
    out: the block positivity test the closed-form bounds are checked
    against.  LinAlgError where the upper-left block is singular."""
    A = V1 + shift1
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) <= core.TOL_SING:
        raise np.linalg.LinAlgError(f"upper-left block is singular (|det| = {abs(det):.3e})")
    Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
    return V2 + shift2 - C.conj().T @ Ainv @ C


class TestSchurComplement:
    def test_decoupled_blocks(self):
        V = build_covariance(GaussianParams(1.0, 2.0))
        S = schur_complement(V[:2, :2], V[2:, 2:], V[:2, 2:], Z / 2, Z / 2)
        assert np.array_equal(S, V[2:, 2:] + Z / 2)

    def test_singular_upper_left(self):
        """A singular upper-left block is where the closed form has no
        bound: the vacuum's physicality falls back to the oracle."""
        V = build_covariance(VACUUM)
        with pytest.raises(np.linalg.LinAlgError):
            schur_complement(V[:2, :2], V[2:, 2:], V[:2, 2:], Z / 2, Z / 2)
        assert "physical" in classify(VACUUM).fallbacks

    def test_matches_closed_form_margin(self):
        # positivity of the Schur complement is exactly the n2 bound
        V = build_covariance(REF)
        S = schur_complement(V[:2, :2], V[2:, 2:], V[:2, 2:], Z / 2, Z / 2)
        margin = REF.n2 - core.physicality_bound_n2(REF)
        assert np.linalg.eigvalsh(S)[0] == pytest.approx(margin, abs=1e-12)


class TestPartialTranspose:
    """The mirror of the parameters is T V T of the covariance, the index
    permutation ``literal.PT_PERM``."""

    def test_involution(self):
        V = build_covariance(GaussianParams(1.3, 0.8, m1=0.2j, m2=0.5, ms=0.1, mc=0.4j))
        assert np.array_equal(literal.partial_transpose(literal.partial_transpose(V)), V)

    def test_form1_to_form2(self):
        V = build_covariance(GaussianParams(1.0, 1.0, mc=0.3))
        p = params_from_covariance(literal.partial_transpose(V))
        assert p.ms == 0.3 and p.mc == 0.0
        assert GaussianParams(1.0, 1.0, mc=0.3).mirror() == p

    def test_parameter_action(self):
        V = build_covariance(GaussianParams(1.0, 1.0, m2=1j, ms=0.3, mc=0.1))
        p = params_from_covariance(literal.partial_transpose(V))
        assert p.ms == 0.1 and p.mc == 0.3 and p.m2 == -1j

    def test_matches_mirror(self):
        p = GaussianParams(1.3, 0.8, m1=0.2j, m2=0.5 - 0.2j, ms=0.1, mc=0.4j)
        VT = literal.partial_transpose(build_covariance(p))
        assert params_from_covariance(VT) == p.mirror()
        assert VT.tobytes() == literal.covariance(p.mirror()).tobytes()


class TestPhysicality:
    def test_subthermal_unphysical(self):
        v = classify(GaussianParams(0.4, 1.0))
        assert not v.physical
        assert v.margin_physical == pytest.approx(-0.1)

    def test_reference_state_physical(self):
        assert core.physicality_bound_n2(REF) == pytest.approx(REF_PHYS_BOUND, abs=1e-12)
        v = classify(REF)
        assert v.physical
        V = build_covariance(REF)
        assert min_eigenvalue_hermitian((V + E / 2)[None])[0] >= -core.TOL_PSD

    def test_vacuum_routes_to_oracle(self):
        assert np.isnan(core._closed_margins(core._Batch.of([VACUUM]))[0, 0])
        v = classify(VACUUM, method=core.METHOD_EIG)
        assert v.physical
        assert v.margin_physical == pytest.approx(0.0, abs=1e-14)

    def test_form1_existence_condition(self):
        # (n1 - 1/2)(n2 + 1/2) >= |mc|^2 cross-checks the oracle
        assert classify(GaussianParams(1, 1, mc=0.8), method=core.METHOD_EIG).physical
        assert not classify(GaussianParams(1, 1, mc=0.9), method=core.METHOD_EIG).physical


class TestSeparability:
    def test_entangled(self):
        v = classify(GaussianParams(1, 1, mc=0.6))
        assert v.physical and v.separable is False
        ve = classify(GaussianParams(1, 1, mc=0.6), method=core.METHOD_EIG)
        assert ve.separable is False

    def test_separable(self):
        assert classify(GaussianParams(1, 1, mc=0.4)).separable
        assert classify(GaussianParams(1, 1, mc=0.4), method=core.METHOD_EIG).separable

    def test_product_thermal(self):
        assert classify(GaussianParams(1, 1)).separable

    def test_two_mode_squeezed_thermal_boundary(self):
        # n = 1, m = n - 1/2 sits exactly on the separability boundary
        v = classify(GaussianParams(1, 1, mc=0.5), method=core.METHOD_EIG)
        assert v.separable
        assert abs(v.margin_separable) <= core.TOL_PSD

    def test_unphysical_gives_na(self):
        v = classify(GaussianParams(0.4, 1.0))
        assert not v.physical
        assert v.separable is None and math.isnan(v.margin_separable)


class TestPRepresentability:
    def test_vacuum_boundary(self):
        v = classify(VACUUM, method=core.METHOD_EIG)
        assert v.p_representable
        assert v.margin_prep == pytest.approx(0.0, abs=1e-14)

    def test_thermal_margin(self):
        v = classify(GaussianParams(2, 2), method=core.METHOD_EIG)
        assert v.p_representable
        assert v.margin_prep == pytest.approx(1.5, abs=1e-12)

    def test_mode1_anomalous_blocks_prep(self):
        # n1 - |m1| - 1/2 = -0.1 < 0
        p = GaussianParams(0.6, 1.0, m1=0.2)
        v = classify(p)
        assert v.p_representable is False
        assert v.margin_prep == pytest.approx(-0.1)
        V1 = build_covariance(p)[:2, :2]
        assert min_eigenvalue_hermitian((V1 - I2 / 2)[None])[0] < 0

    def test_reference_state_prep_bound(self):
        """The closed-form P bound of the batch and the exact P-fold agree
        on the frozen threshold."""
        bound, _ = core._bound(core._Batch.of([REF]))
        assert bound[2, 0] == pytest.approx(REF_PREP_BOUND, abs=1e-12)
        assert core.bisect_n2_threshold(REF, "p_representable") == pytest.approx(
            REF_PREP_BOUND, abs=1e-12)

    def test_no_prep_bound_below_half(self):
        # n1 - 1/2 - |m1| = -0.3 < 0 although d' = 0.09 > 0: no n2 gives V - I/2 >= 0
        p = GaussianParams(0.2, 1.0, m2=0.3, mc=0.1)
        batch = core._Batch.of([p])
        assert batch.families.a[2, 0] > 0
        assert math.isnan(core._bound(batch)[0][2, 0])
        assert core.bisect_n2_threshold(p, "p_representable") == math.inf

    def test_near_vacuum_mode1_falls_back(self):
        # n1 one ulp below 1/2: |d'| <= TOL_SING, so n1 < 1/2 alone does not
        # decide the mode-1 rule; the correlations make the state entangled,
        # hence not P-representable, which only the oracle sees.
        p = GaussianParams(0.49999999999999994, 0.501, mc=9e-6)
        assert abs(core._families(core._ParamArrays.of([p])).a[2, 0]) <= core.TOL_SING
        vc = classify(p)
        ve = classify(p, method=core.METHOD_EIG)
        assert "p_representable" in vc.fallbacks
        assert vc.physical and vc.separable is False and vc.p_representable is False
        assert (vc.physical, vc.separable, vc.p_representable) == (
            ve.physical, ve.separable, ve.p_representable)
        assert vc.margin_prep == ve.margin_prep

    def test_prep_below_sep_tolerance(self):
        assert core.prep_below_sep(1.0, 1.0 + 1e-11)
        assert not core.prep_below_sep(1.0, 1.0 + 1e-13)
        assert not core.prep_below_sep(1.0, 1.0)
        assert core.prep_below_sep(5.0, math.inf)

    def test_squeezed_vacuum_never_prep(self):
        for r in (0.1, 0.5, 1.5):
            n1 = math.cosh(2 * r) / 2
            m1 = -math.sinh(2 * r) / 2  # saturates the mode-1 uncertainty
            p = GaussianParams(n1, 1.0, m1=m1)
            v = classify(p, method=core.METHOD_EIG)
            assert v.physical
            assert v.p_representable is False


class TestClassify:
    def test_entangled_state(self):
        v = classify(GaussianParams(1, 1, mc=0.6))
        assert v.physical and v.separable is False and v.p_representable is False

    def test_separable_prep_state(self):
        v = classify(GaussianParams(1, 1, mc=0.4))
        assert v.physical and v.separable and v.p_representable

    def test_unphysical_na(self):
        v = classify(GaussianParams(0.4, 1.0))
        assert not v.physical
        assert v.separable is None and v.p_representable is None
        assert math.isnan(v.margin_separable) and math.isnan(v.margin_prep)

    def test_separable_not_prep_witness(self):
        p = GaussianParams(1.0, 1.0, m2=0.8, ms=0.3, mc=0.3)
        for method in (core.METHOD_CLOSED, core.METHOD_EIG):
            v = classify(p, method=method)
            assert v.physical and v.separable and v.p_representable is False

    def test_fallback_recorded(self):
        v = classify(VACUUM, method=core.METHOD_CLOSED)
        assert v.method == core.METHOD_EIG
        assert "physical" in v.fallbacks
        assert v.physical and v.separable and v.p_representable

    def test_covariance_built_only_for_the_oracle(self, monkeypatch):
        """A batch builds one covariance stack, and only for the oracle: its
        separability rows are T V T of that stack, and their margins are
        bit for bit those of the literal partial transpose."""
        built = []
        real = core._ParamArrays.covariance
        monkeypatch.setattr(core._ParamArrays, "covariance",
                            lambda q: built.append(real(q)) or built[-1])

        def expect(*states):  # not build_covariance: it is a view of the patched method
            return [np.stack([literal.covariance(p) for p in states]).tobytes()]

        classify(REF)  # closed form, no fallback
        assert built == []
        classify(VACUUM)  # all three fall back: p's covariance once
        assert [V.tobytes() for V in built] == expect(VACUUM)
        built.clear()
        classify(REF, method=core.METHOD_EIG)
        assert [V.tobytes() for V in built] == expect(REF)
        built.clear()
        states = [*MIXED, *UNPHYSICAL, *D_ZERO]
        verdicts = core.classify_batch(states, method=core.METHOD_EIG)  # one stack per batch
        assert [V.tobytes() for V in built] == expect(*states)
        physical = [v.physical for v in verdicts]
        assert not all(physical)
        sep = np.linalg.eigvalsh(literal.partial_transpose(built[0][physical]) + E / 2)[:, 0]
        assert np.array([v.margin_separable for v in verdicts])[physical].tobytes() == sep.tobytes()
        built.clear()
        classify(GaussianParams(0.4, 1.0), method=core.METHOD_EIG)  # unphysical: one oracle
        assert len(built) == 1

    def test_batch_evaluates_once(self, monkeypatch):
        """The batch entry points read every state out of one array pass:
        the families of the three criterion rows are computed once per
        batch, and the sweep's mirrored states, read state by state where
        separability is degenerate, compute none of their own."""
        sizes, parents = [], []
        real, real_fold = core._families, core._n2_fold
        monkeypatch.setattr(core, "_families", lambda q: sizes.append(len(q.n1)) or real(q))
        monkeypatch.setattr(core, "_n2_fold", lambda p: parents.append(p.batch.parent) or real_fold(p))
        states = [REF, VACUUM, *NEAR_D0, GaussianParams(0.4, 1.0)]
        core.classify_batch(states)
        assert sizes == [len(states)]
        sizes.clear()
        batch = core._Batch.of(states)
        core._n2_folds(batch)
        assert batch in parents  # VACUUM's d = 0: its separability entry is read on the mirror
        assert sizes == [len(states)]
        sizes.clear()
        core.classify_batch(states, method=core.METHOD_EIG)  # the oracle route needs none
        assert sizes == []

    def test_one_closed_form_pass_per_batch(self, monkeypatch):
        """The closed margins, the sweep's folds and the per-state reads run
        one closed-form pass per batch over its three criterion rows, and
        none on ``batch.mirror``, on states with d > 0, d = 0 and d < 0: one
        bound pass and one exact-fold pass, whose band rows make one
        ``_split_folds`` call."""
        calls = []
        for name in ("_families", "_bound", "_exact_folds", "_split_folds", "_literal_prep_fold"):
            real = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *args, name=name, real=real:
                                calls.append((name, args[0])) or real(*args))
        batch = core._Batch.of([REF, GaussianParams(0.5, 0.8, ms=0.1 + 0.2j),
                                GaussianParams(1, 1, m1=1.1)])
        core._classified(batch, core.METHOD_CLOSED, core.TOL_PSD)
        core._n2_folds(batch)
        core.physicality_bound_n2(core._Row(batch, 0))
        mirror = batch.mirror
        core.physicality_bound_n2(core._Row(mirror, 0))
        with pytest.raises(DegenerateBoundError):
            core.physicality_bound_n2(core._Row(mirror, 1))
        assert core.bisect_n2_threshold(core._Row(mirror, 2), "physical") == math.inf
        assert calls == [("_families", batch.q), ("_bound", batch), ("_literal_prep_fold", batch),
                         ("_exact_folds", batch), ("_split_folds", batch.q)]
        assert mirror._values == {} and vars(mirror).keys() == {"q", "_values", "parent"}

    def test_batches_form_no_reference_cycle(self):
        """A batch, and a batch with its mirror, are freed by reference
        counting alone once dropped, whatever passes they ran: a cycle
        would keep every batch of a run alive until the cyclic collector
        runs."""
        states = [REF, VACUUM, *NEAR_D0, GaussianParams(0.4, 1.0)]
        gc.disable()
        try:
            for run in (lambda b: core._classified(b, core.METHOD_CLOSED, core.TOL_PSD),
                        lambda b: core._classified(b, core.METHOD_EIG, core.TOL_PSD),
                        core._n2_folds):
                batch = core._Batch.of(states)
                run(batch)
                mirror = batch.mirror
                core.physicality_bound_n2(core._Row(mirror, 0))
                refs = weakref.ref(batch), weakref.ref(mirror)
                del batch, mirror
                assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_mirror_reads_the_separability_rows(self):
        """A state of ``batch.mirror`` reads the separability row of the
        batch's passes, the physicality row of its own mirrored batch, bit
        for bit: the bound, its ``DegenerateBoundError`` and the exact fold."""
        states = [REF, GaussianParams(0.5, 0.8, m2=0.25j, ms=0.1 + 0.2j, mc=0.3),
                  GaussianParams(1, 1, m1=1.1, mc=0.2)]
        batch = core._Batch.of(states)

        def read(p):
            try:
                return [np.float64(core.physicality_bound_n2(p)).tobytes()]
            except DegenerateBoundError as exc:
                return [str(exc), np.float64(core.bisect_n2_threshold(p, "physical")).tobytes()]

        for i, p in enumerate(states):
            assert read(core._Row(batch.mirror, i)) == read(p.mirror())

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            classify(VACUUM, method="guess")
        with pytest.raises(ValueError, match="unknown method 'guess'"):
            core.classify_batch([], method="guess")  # no state is read

    @pytest.mark.parametrize("method", [core.METHOD_CLOSED, core.METHOD_EIG])
    @pytest.mark.parametrize("tol", [-1.0, -5.0, math.nan, math.inf])
    def test_bad_tol_psd_rejected(self, tol, method):
        """A negative tolerance called GaussianParams(1, 1) unphysical at
        margin 0.5, NaN called every state unphysical and inf every state
        physical; both entry points reject them instead."""
        message = f"tol_psd must be finite and >= 0, got {tol}"
        for p in (GaussianParams(1, 1), GaussianParams(1, 1, mc=0.3), GaussianParams(0.4, 1)):
            with pytest.raises(InvalidParameterError, match=re.escape(message)):
                classify(p, method=method, tol_psd=tol)
            with pytest.raises(InvalidParameterError, match=re.escape(message)):
                core.classify_batch([REF, p], method=method, tol_psd=tol)
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            core.classify_batch([], method=method, tol_psd=tol)  # no state is read
        assert classify(REF, method=method, tol_psd=0.0).physical

    def test_methods_agree_on_reference(self):
        vc = classify(REF)
        ve = classify(REF, method=core.METHOD_EIG)
        assert (vc.physical, vc.separable, vc.p_representable) == (
            ve.physical, ve.separable, ve.p_representable)


UNPHYSICAL = [GaussianParams(0.4, 1.0), GaussianParams(0.3, 0.2, mc=0.5)]
D_ZERO = [VACUUM, GaussianParams(0.5, 1.0), GaussianParams(0.5, 0.7, m2=0.1)]  # d = 0: fallbacks
MIXED = [REF, GaussianParams(1, 1, mc=0.6), GaussianParams(1.0, 1.0, m2=0.8, ms=0.3, mc=0.3),
         *UNPHYSICAL[:1], *D_ZERO[:1]]


class TestVerdictContract:
    """A Verdict is a named tuple of plain Python values: a numpy scalar
    would still format (``str(np.True_)``), so no output shows one."""

    @pytest.mark.parametrize("method", [core.METHOD_CLOSED, core.METHOD_EIG])
    @pytest.mark.parametrize("states", [MIXED, [], UNPHYSICAL, D_ZERO],
                             ids=["mixed", "empty", "unphysical", "d=0"])
    def test_fields_are_python_values(self, states, method):
        verdicts = core.classify_batch(states, method=method)
        assert len(verdicts) == len(states)
        for v in verdicts:
            assert type(v) is core.Verdict
            assert type(v.physical) is bool
            for answer in (v.separable, v.p_representable):
                assert type(answer) is bool if v.physical else answer is None
            for margin in (v.margin_physical, v.margin_separable, v.margin_prep):
                assert type(margin) is float
            assert type(v.method) is str
            assert type(v.fallbacks) is tuple and all(type(f) is str for f in v.fallbacks)
        if states is D_ZERO and method == core.METHOD_CLOSED:
            assert all("physical" in v.fallbacks for v in verdicts)
        if states is UNPHYSICAL:
            assert not any(v.physical for v in verdicts)

    def test_named_tuple(self):
        assert core.Verdict._fields == (
            "physical", "separable", "p_representable", "margin_physical",
            "margin_separable", "margin_prep", "method", "fallbacks")
        v = classify(REF)
        assert v == tuple(v) and v._asdict() == dict(zip(v._fields, v))
        assert v._replace(method=core.METHOD_EIG).method == core.METHOD_EIG
        assert core.Verdict(True, True, True, 1.0, 1.0, 1.0, core.METHOD_CLOSED).fallbacks == ()
        assert repr(v).startswith("Verdict(physical=True, separable=True, ")
        with pytest.raises(AttributeError):
            v.physical = False

    @pytest.mark.parametrize("method", [core.METHOD_CLOSED, core.METHOD_EIG])
    def test_classify_is_the_one_element_batch(self, method):
        for p in MIXED + UNPHYSICAL + D_ZERO:
            alone, batched = classify(p, method), core.classify_batch([p], method)[0]
            # repr is exact for floats and, unlike ==, equates NaN margins
            assert repr(alone) == repr(batched)
            if alone.physical:
                assert alone == batched


class TestFolds:
    @pytest.mark.parametrize("p", NEAR_D0)
    def test_no_fold_when_mode1_fails(self, p):
        """d < 0 just past the mode-1 limit: no n2 is physical, so every fold
        is inf, not a large finite number found by bracket doubling."""
        assert core._families(core._ParamArrays.of([p])).a[0, 0] < -core.TOL_SING
        assert core.bisect_n2_threshold(p, "physical") == math.inf
        assert core.n2_folds(p) == (math.inf, math.inf, math.inf, True)

    def test_unknown_criterion(self):
        with pytest.raises(KeyError):
            core.bisect_n2_threshold(REF, "separable")

    @pytest.mark.parametrize("unit", [1, -1, 1j, -1j])
    @pytest.mark.parametrize("k", [0.25, 0.5])
    def test_zero_slope_fold_is_the_split_block(self, unit, k):
        """d' = 0 with a cross block orthogonal to the null vector of
        V1 - I/2: that vector splits off, and the P-fold is that of the
        block left, 1/2 + lambda_max(C+ A+ C - offdiag(m2)), with A+ the
        pseudo-inverse of A = V1 - I/2."""
        ms = 0.375 - 0.25j
        p = GaussianParams(0.5 + k, 1.0, m1=k * unit, m2=0.5 + 0.125j, ms=ms,
                           mc=unit * ms.conjugate())
        assert core._families(core._ParamArrays.of([p])).a[2, 0] == 0.0
        V = build_covariance(p)
        C = V[:2, 2:]
        M = C.conj().T @ np.linalg.pinv(V[:2, :2] - I2 / 2) @ C - (V[2:, 2:] - p.n2 * I2)
        fold = core.bisect_n2_threshold(p, "p_representable")
        assert fold == pytest.approx(0.5 + np.linalg.eigvalsh(M)[-1], rel=1e-13)
        assert core.n2_folds(p)[2] == fold

    @pytest.mark.parametrize("p", [
        GaussianParams(0.5, 1.0, m1=1e-7, m2=0.3),
        GaussianParams(0.5 + 1e-7, 1.0, m1=2e-7j),
        GaussianParams(0.5 - 1e-7, 1.0, m1=1e-7, mc=0.2),
    ])
    def test_no_prep_fold_for_an_indefinite_block_in_the_band(self, p):
        """|d'| <= TOL_SING, yet V1 - I/2 has an eigenvalue near -1e-7, far
        below -TOL_PSD: no n2 gives V - I/2 >= 0."""
        assert abs(core._families(core._ParamArrays.of([p])).a[2, 0]) <= core.TOL_SING
        assert core.bisect_n2_threshold(p, "p_representable") == math.inf
        assert core.n2_folds(p)[2] == math.inf
        for n2 in (1e2, 1e3, 1e4):
            V = build_covariance(GaussianParams(p.n1, n2, p.m1, p.m2, p.ms, p.mc))
            assert core._prep_margin_eig(V[None])[0] < -core.TOL_PSD

    def test_folds_call_no_oracle(self, monkeypatch):
        """The exact folds are closed arithmetic: no eigenvalue call and no
        covariance matrix, on d = 0, d' = 0 and mode-1-failing states."""
        def no_oracle(*args):
            raise AssertionError("oracle called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_oracle)
        monkeypatch.setattr(core._ParamArrays, "covariance", no_oracle)
        states = [REF, VACUUM, *NEAR_D0, GaussianParams(0.4, 1.0),
                  GaussianParams(1.0, 1.0, m1=0.5, m2=1.0), GaussianParams(0.5, 1.0, mc=0.3)]
        phys, sep, prep, degenerate = core.n2_folds_batch(states)
        assert degenerate.tolist() == [False] + [True] * (len(states) - 1)
        assert prep[-2] == 1.5 and phys[-1] == math.inf

    def test_empty_batch(self):
        """A batch of no states runs the (3, 0) pass: four empty columns,
        three empty margin rows and three empty fold rows."""
        phys, sep, prep, degenerate = core.n2_folds_batch([])
        assert [(x.shape, x.dtype.kind) for x in (phys, sep, prep, degenerate)] == [
            ((0,), "f"), ((0,), "f"), ((0,), "f"), ((0,), "b")]
        batch = core._Batch.of([])
        assert core._closed_margins(batch).shape == (3, 0)
        assert core._exact_folds(batch) == [[], [], []]

    @pytest.mark.parametrize("p, criterion, expected", [
        (REF, "p_representable", REF_PREP_BOUND), (NEAR_D0[0], "physical", math.inf),
        (GaussianParams(0.2, 1.0, m2=0.3, mc=0.1), "p_representable", math.inf)])
    def test_fold_is_a_python_float(self, p, criterion, expected):
        """``bisect_n2_threshold`` returns a Python float, ``inf`` included,
        on a state alone and on a state of a batch and of its mirror."""
        batch = core._Batch.of([REF, p])
        for row in (p, core._Row(batch, 1), core._Row(batch.mirror, 1)):
            fold = core.bisect_n2_threshold(row, criterion)
            assert type(fold) is float
        assert core.bisect_n2_threshold(p, criterion) == pytest.approx(expected, abs=1e-12)

    def test_prep_column_is_one_masked_read(self, monkeypatch):
        """The P column takes its entries without a literal fold from the
        exact fold's array pass in one masked read: no per-state P
        ``bisect_n2_threshold`` call.  The physicality and separability
        columns still read theirs per state, and a NaN exact P-fold is the
        OverflowError of its first state, raised after them."""
        calls = []
        real = core.bisect_n2_threshold
        monkeypatch.setattr(core, "bisect_n2_threshold",
                            lambda p, what: calls.append((what, p.index)) or real(p, what))
        states = [REF, VACUUM, *NEAR_D0, GaussianParams(0.5, 1.0, m1=0.5),
                  GaussianParams(0.75, 1.0, m1=0.25)]
        core.n2_folds_batch(states)
        assert calls and {what for what, _ in calls} == {"physical"}
        calls.clear()
        with pytest.raises(OverflowError, match=r"^n2 fold overflows for state 1 of the batch$"):
            core.n2_folds_batch([REF, P_OVERFLOW, VACUUM, P_OVERFLOW])
        assert calls == [("physical", i) for i in (1, 2, 3)] * 2  # phys, then sep

    def test_degenerate_bound_message(self):
        """The message is built only when it is read, with the same text;
        a bound that overflows is an OverflowError of its own text."""
        with pytest.raises(DegenerateBoundError) as info:
            core.physicality_bound_n2(GaussianParams(0.5, 1.0, m1=1e-7))
        assert str(info.value) == "no physicality bound: d = -1.000e-14, d' = -1.000e-14, n1 = 0.5"
        with pytest.raises(OverflowError, match=r"^physicality bound overflows$"):
            core.physicality_bound_n2(GaussianParams(1.0, 1.0, m1=0.5, mc=1e154))


def test_public_surface():
    """The exported names are exactly these, and each resolves on the
    package; the twins of the array core and the helpers only the tests
    used are defined nowhere in it."""
    assert gausssep.__all__ == [
        "GaussianParams", "InvariantFormResult", "LocalSymplectic", "SymplecticInvariants",
        "Verdict", "apply_local", "build_covariance", "classify", "classify_batch",
        "invariants", "make_local_symplectic", "params_from_covariance",
        "random_physical_states", "reduce_to_invariant_form"]
    missing = [name for name in gausssep.__all__ if not hasattr(gausssep, name)]
    assert missing == []
    removed = ("random_physical_state", "schur_complement", "SingularBlockError",
               "partial_transpose", "decompose_blocks", "prep_bound_n2",
               "random_local_symplectic", "T", "X", "I2", "_require_hermitian", "Z",
               "_physical_bound", "_prep_bound", "_physical_mode1_fails", "_prep_mode1_fails",
               "_physical_margin_closed", "_prep_margin_closed", "literal_prep_fold",
               "_scalar_bound", "_closed_margin")
    for module in (gausssep, core, symplectic, errors):
        assert [name for name in removed if hasattr(module, name)] == []
