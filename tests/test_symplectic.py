import math

import numpy as np
import pytest

from gausssep import core, symplectic
from gausssep.core import E, GaussianParams, build_covariance, params_from_covariance
from gausssep.errors import DomainError, PrescriptionInapplicableError, SamplingBudgetError
from gausssep.symplectic import (
    FORM1,
    FORM2,
    apply_local,
    invariants,
    make_local_symplectic,
    random_local_symplectic,
    random_physical_state,
    reduce_to_invariant_form,
    two_mode_mixer,
)


def symplectic_defect(S: np.ndarray) -> float:
    """max |S+ E S - E|; zero for a symplectic matrix in this representation."""
    return float(np.abs(S.conj().T @ E @ S - E).max())


class TestLocalSymplectic:
    def test_identity_at_zero(self):
        S = make_local_symplectic(0.0)
        assert np.array_equal(S.realized, np.eye(4))

    def test_single_mode_squeeze(self):
        S = make_local_symplectic(0.3)
        ch, sh = math.cosh(0.3), math.sinh(0.3)
        assert np.allclose(S.realized[:2, :2], [[ch, sh], [sh, ch]], atol=1e-15)
        assert np.array_equal(S.realized[2:, 2:], np.eye(2))

    def test_symplectic_condition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            S = random_local_symplectic(rng).realized
            assert symplectic_defect(S) < 1e-12
            # S^-1 = E S+ E
            assert np.abs(np.linalg.inv(S) - E @ S.conj().T @ E).max() < 1e-10

    def test_unit_block_determinants(self):
        rng = np.random.default_rng(8)
        S = random_local_symplectic(rng).realized
        assert np.linalg.det(S[:2, :2]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(S[2:, 2:]) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            make_local_symplectic(math.inf)


class TestApplyLocal:
    def test_identity_leaves_fixed(self):
        V = build_covariance(GaussianParams(1.2, 0.8, m1=0.1j, m2=0.4, ms=0.2, mc=0.3))
        W = apply_local(make_local_symplectic(0.0), V)
        assert np.allclose(W, V, atol=0)

    def test_blockwise_action(self):
        rng = np.random.default_rng(3)
        S = random_local_symplectic(rng)
        V = build_covariance(GaussianParams(1.2, 0.8, m1=0.1j, m2=0.4, ms=0.2, mc=0.3))
        W = apply_local(S, V)
        S1, S2 = S.realized[:2, :2], S.realized[2:, 2:]
        V1, V2, C = core.decompose_blocks(V)
        assert np.allclose(W[:2, :2], S1.conj().T @ V1 @ S1, atol=1e-12)
        assert np.allclose(W[2:, 2:], S2.conj().T @ V2 @ S2, atol=1e-12)
        assert np.allclose(W[:2, 2:], S1.conj().T @ C @ S2, atol=1e-12)

    def test_preserves_physicality_and_separability(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_physical_state(rng)
            S = random_local_symplectic(rng)
            V = build_covariance(p)
            W = apply_local(S, V)
            for margin in (core._physical_margin_eig,
                           lambda M: core._physical_margin_eig(core.partial_transpose(M))):
                assert (margin(V) >= -core.TOL_PSD) == (margin(W) >= -core.TOL_PSD)

    def test_prep_not_preserved(self):
        # thermal state is P-representable; a hard local squeeze breaks it
        V = build_covariance(GaussianParams(1.0, 1.0))
        assert core._prep_margin_eig(V) >= -core.TOL_PSD
        W = apply_local(make_local_symplectic(1.5), V)
        assert core._prep_margin_eig(W) < -core.TOL_PSD


class TestInvariants:
    def test_product_thermal(self):
        inv = invariants(build_covariance(GaussianParams(1.0, 2.0)))
        assert inv.i3 == 0.0 and inv.i4 == 0.0
        assert inv.i1 == pytest.approx(1.0) and inv.i2 == pytest.approx(4.0)

    def test_vacuum(self):
        inv = invariants(build_covariance(GaussianParams(0.5, 0.5)))
        assert inv.i1 == pytest.approx(0.25) and inv.i2 == pytest.approx(0.25)

    def test_invariance_under_conjugation(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = random_physical_state(rng)
            S = random_local_symplectic(rng)
            a = invariants(build_covariance(p))
            b = invariants(apply_local(S, build_covariance(p)))
            for x, y in zip((a.i1, a.i2, a.i3, a.i4), (b.i1, b.i2, b.i3, b.i4)):
                assert y == pytest.approx(x, rel=1e-9, abs=1e-11)


class TestReduceToInvariantForm:
    def test_already_form1(self):
        res = reduce_to_invariant_form(GaussianParams(1.0, 1.0, mc=0.4))
        assert res.form == FORM1
        assert res.transform.theta1 == 0.0 and res.transform.theta2 == 0.0
        assert res.nu1 == pytest.approx(1.0, abs=1e-12)
        assert res.nu2 == pytest.approx(1.0, abs=1e-12)
        assert res.mu == pytest.approx(0.4, abs=1e-12)
        assert res.residual <= 1e-12

    def test_already_form2(self):
        res = reduce_to_invariant_form(GaussianParams(1.0, 1.0, ms=0.3))
        assert res.form == FORM2
        assert res.mu == pytest.approx(0.3, abs=1e-12)

    def test_form1_preferred_on_tie(self):
        res = reduce_to_invariant_form(GaussianParams(1.0, 1.0))
        assert res.form == FORM1

    def test_local_squeeze_removed(self):
        # start from a form-1 matrix, locally squeeze it, reduce it back
        p0 = GaussianParams(1.1, 1.3, mc=0.35)
        S = make_local_symplectic(0.4, 0.7, 1.1, 0.25, 2.0, 0.3)
        p = params_from_covariance(apply_local(S, build_covariance(p0)))
        assert abs(p.m1) > 1e-3 and abs(p.m2) > 1e-3
        res = reduce_to_invariant_form(p)
        assert res.residual <= symplectic.TOL_FORM
        assert res.nu1 == pytest.approx(math.sqrt(p.n1**2 - abs(p.m1) ** 2), abs=1e-10)
        assert res.nu2 == pytest.approx(math.sqrt(p.n2**2 - abs(p.m2) ** 2), abs=1e-10)
        # the surviving correlation magnitude is sqrt(|mc|^2 - |ms|^2) (its
        # phase is a residual-rotation convention)
        assert abs(res.mu) == pytest.approx(
            math.sqrt(abs(p.mc) ** 2 - abs(p.ms) ** 2), abs=1e-9)
        # and the invariants are those of the original form-1 state
        a = invariants(build_covariance(p0))
        b = invariants(build_covariance(res.reduced_params()))
        assert b.i1 == pytest.approx(a.i1, rel=1e-9)
        assert b.i3 == pytest.approx(a.i3, rel=1e-9, abs=1e-10)

    def test_generic_state_inapplicable(self):
        p = GaussianParams(1.4, 1.2, m1=0.3, m2=0.1, ms=0.25, mc=0.4)
        assert core.classify(p, method=core.METHOD_EIG).physical
        with pytest.raises(PrescriptionInapplicableError) as exc:
            reduce_to_invariant_form(p)
        assert exc.value.residual > symplectic.TOL_FORM

    def test_unphysical_rejected(self):
        with pytest.raises(DomainError):
            reduce_to_invariant_form(GaussianParams(0.4, 1.0))

    def test_overcorrelated_mode_rejected(self):
        with pytest.raises(DomainError):
            symplectic.reduction_transform(GaussianParams(1.0, 1.0, m1=1.1))

    def test_form_connection_by_phases(self):
        # theta = 0, phases only: form 1 maps to the form-2 pattern
        p = GaussianParams(1.0, 1.2, mc=0.4)
        # swap within mode 2 via the X pattern: conjugation by T
        W = core.partial_transpose(build_covariance(p))
        q = params_from_covariance(W)
        assert q.mc == 0.0 and q.ms == 0.4


class TestRandomGeneration:
    def test_reproducible(self):
        a = random_local_symplectic(np.random.default_rng(5))
        b = random_local_symplectic(np.random.default_rng(5))
        assert np.array_equal(a.realized, b.realized)
        pa = random_physical_state(np.random.default_rng(5))
        pb = random_physical_state(np.random.default_rng(5))
        assert pa == pb

    def test_mixer_symplectic(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            M = two_mode_mixer(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
            assert symplectic_defect(M) < 1e-12

    def test_construct_zero_mixing_is_product(self):
        p = random_physical_state(np.random.default_rng(2), theta_max=0.0, r_max=0.0)
        assert p.m1 == 0 and p.m2 == 0 and p.ms == 0 and p.mc == 0
        assert core.classify(p, method=core.METHOD_EIG).separable

    def test_construct_outputs_physical(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_physical_state(rng)
            assert core.classify(p, method=core.METHOD_EIG).physical

    def test_reject_outputs_physical(self):
        rng = np.random.default_rng(17)
        accepted = 0
        for _ in range(50):
            p = random_physical_state(rng, mode="reject")
            assert core.classify(p, method=core.METHOD_EIG).physical
            accepted += 1
        assert accepted == 50  # acceptance fraction of the box is positive

    def test_budget_error(self):
        with pytest.raises(SamplingBudgetError):
            random_physical_state(np.random.default_rng(1), mode="reject", max_draws=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            random_physical_state(np.random.default_rng(1), mode="magic")
