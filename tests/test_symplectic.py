import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import literal
from gausssep import core, symplectic
from gausssep.core import E, GaussianParams, build_covariance, params_from_covariance
from gausssep.errors import (
    DomainError,
    InvalidParameterError,
    PrescriptionInapplicableError,
    SamplingBudgetError,
    StructuralError,
)
from gausssep.symplectic import (
    FORM1,
    FORM2,
    apply_local,
    invariants,
    make_local_symplectic,
    random_physical_states,
    reduce_to_invariant_form,
    two_mode_mixer,
)


def bits(states) -> bytes:
    """The bytes of every float of ``states``, so -0.0 and 0.0 differ."""
    return np.array([(p.n1, p.n2, p.m1.real, p.m1.imag, p.m2.real, p.m2.imag,
                      p.ms.real, p.ms.imag, p.mc.real, p.mc.imag) for p in states]).tobytes()


def one_at_a_time_box(rng, n_lo, n_hi, m_max):
    """A box draw as separate scalar ``rng.uniform`` calls: the stream the
    batch draws must reproduce."""
    n1, n2 = rng.uniform(n_lo, n_hi, size=2)
    mods = rng.uniform(0.0, m_max, size=4)
    args = rng.uniform(0.0, 2 * math.pi, size=4)
    m1, m2, ms, mc = (mod * np.exp(1j * a) for mod, a in zip(mods, args))
    return GaussianParams(n1=n1, n2=n2, m1=m1, m2=m2, ms=ms, mc=mc)


def one_at_a_time_reject(rng, n):
    """Box candidates one at a time, each checked by the scalar eigen-oracle."""
    states = []
    for _ in range(n):
        for _ in range(symplectic.MAX_DRAWS):
            p = one_at_a_time_box(rng, 0.5, 3.0, 1.0)
            if core._physical_margin_eig(build_covariance(p)[None])[0] >= -core.TOL_PSD:
                states.append(p)
                break
        else:
            raise SamplingBudgetError("budget")
    return states


def random_local_symplectic(rng, theta_max=1.5):
    return make_local_symplectic(*literal.local_angles(rng, theta_max))


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
        with pytest.raises(InvalidParameterError):
            make_local_symplectic(math.inf)


class TestApplyLocal:
    def test_identity_leaves_fixed(self):
        V = build_covariance(GaussianParams(1.2, 0.8, m1=0.1j, m2=0.4, ms=0.2, mc=0.3))
        W = apply_local(make_local_symplectic(0.0), V)
        assert np.allclose(W, V, atol=0)

    def test_identity_near_float_limit(self):
        # W + W+ would overflow here; the result is finite and equals V
        V = build_covariance(GaussianParams(1.5e308, 1.0))
        assert np.array_equal(apply_local(make_local_symplectic(0.0), V), V)

    def test_blockwise_action(self):
        rng = np.random.default_rng(3)
        S = random_local_symplectic(rng)
        V = build_covariance(GaussianParams(1.2, 0.8, m1=0.1j, m2=0.4, ms=0.2, mc=0.3))
        W = apply_local(S, V)
        S1, S2 = S.realized[:2, :2], S.realized[2:, 2:]
        V1, V2, C = V[:2, :2], V[2:, 2:], V[:2, 2:]
        assert np.allclose(W[:2, :2], S1.conj().T @ V1 @ S1, atol=1e-12)
        assert np.allclose(W[2:, 2:], S2.conj().T @ V2 @ S2, atol=1e-12)
        assert np.allclose(W[:2, 2:], S1.conj().T @ C @ S2, atol=1e-12)

    def test_preserves_physicality_and_separability(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_physical_states(rng, 1)[0]
            S = random_local_symplectic(rng)
            V = build_covariance(p)[None]
            W = apply_local(S, V)
            for margin in (core._physical_margin_eig,
                           lambda M: core._physical_margin_eig(literal.partial_transpose(M))):
                assert (margin(V) >= -core.TOL_PSD) == (margin(W) >= -core.TOL_PSD)

    def test_prep_not_preserved(self):
        # thermal state is P-representable; a hard local squeeze breaks it
        V = build_covariance(GaussianParams(1.0, 1.0))[None]
        assert core._prep_margin_eig(V)[0] >= -core.TOL_PSD
        W = apply_local(make_local_symplectic(1.5), V)
        assert core._prep_margin_eig(W)[0] < -core.TOL_PSD


class TestInvariants:
    def test_product_thermal(self):
        inv = invariants(build_covariance(GaussianParams(1.0, 2.0)))
        assert inv.i3 == 0.0 and inv.i4 == 0.0
        assert inv.i1 == pytest.approx(1.0) and inv.i2 == pytest.approx(4.0)

    def test_vacuum(self):
        inv = invariants(build_covariance(GaussianParams(0.5, 0.5)))
        assert inv.i1 == pytest.approx(0.25) and inv.i2 == pytest.approx(0.25)

    def test_stack_equals_each_matrix(self):
        """A stack's invariants are those of each of its matrices, bit for
        bit; an empty stack has none, and one overflowing matrix fails it."""
        rng = np.random.default_rng(31)
        V = np.stack([build_covariance(p) for p in random_physical_states(rng, 20)])
        inv = invariants(V)
        for k, M in enumerate(V):
            one = invariants(M)
            assert isinstance(one.i4, float)
            assert (one.i1, one.i2, one.i3, one.i4) == (
                inv.i1[k], inv.i2[k], inv.i3[k], inv.i4[k])
        assert invariants(V[:0]).i4.shape == (0,)
        V[3] = build_covariance(GaussianParams(1e160, 1.0, mc=1e155))
        with pytest.raises(OverflowError):
            invariants(V)

    def test_i4_is_the_product_chain(self):
        """I4, written out entry by entry, is Re Tr[V1 Z C Z V2 Z C+ Z] of the
        stacked matrix products within 1e-12 scale^4 (scale: the largest
        |entry| of the matrix), on Hermitian matrices over twelve decades."""
        rng = np.random.default_rng(23)
        A = rng.normal(size=(300, 4, 4)) + 1j * rng.normal(size=(300, 4, 4))
        V = (A + A.conj().swapaxes(-1, -2)) * 10.0 ** rng.uniform(-6, 6, size=(300, 1, 1))
        V1, V2, C = V[:, :2, :2], V[:, 2:, 2:], V[:, :2, 2:]
        Z = literal.Z
        chain = V1 @ Z @ C @ Z @ V2 @ Z @ C.conj().swapaxes(-1, -2) @ Z
        reference = np.trace(chain, axis1=-2, axis2=-1).real
        scale = np.abs(V).max(axis=(-2, -1))
        assert (np.abs(invariants(V).i4 - reference) <= 1e-12 * scale**4).all()

    def test_subnormal_entry_has_finite_invariants(self):
        # np.linalg.det divided by a subnormal pivot here and returned NaN
        inv = invariants(build_covariance(GaussianParams(0.0, 0.0, mc=1.1125369292536007e-308j)))
        assert (inv.i1, inv.i2, inv.i3, inv.i4) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("p", [GaussianParams(1e160, 2.0, m1=1e160),
                                   GaussianParams(3e200, 2.0, m1=-3e200j)])
    def test_determinant_of_overflowing_products(self, p):
        # n1^2 and |m1|^2 overflow, their difference does not
        inv = invariants(build_covariance(p))
        assert (inv.i1, inv.i2, inv.i3, inv.i4) == (0.0, 4.0, 0.0, 0.0)

    def test_determinants_are_the_closed_form(self):
        """In range, I1..I3 are a d - b c of the blocks, bit for bit."""
        rng = np.random.default_rng(17)
        V = np.stack([build_covariance(p) for p in random_physical_states(rng, 50)])
        inv = invariants(V)
        for k, (i, j) in enumerate(((0, 0), (2, 2), (0, 2))):
            B = V[:, i:i + 2, j:j + 2]
            closed = (B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]).real
            assert (closed == (inv.i1, inv.i2, inv.i3)[k]).all()

    def test_stack_names_its_first_failing_matrix(self):
        V = np.stack([np.eye(4, dtype=complex)] * 4)
        V[2, 1, 3] = V[3, 0, 1] = 1e-3
        with pytest.raises(StructuralError, match=r"^matrix 2 of the stack is not Hermitian: "
                                                  r"max deviation 1\.000e-03$"):
            invariants(V)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 70.0), st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    def test_plain_local_transform_keeps_the_invariants_at_any_scale(self, e, u):
        """A state with n1 = n, n2 in [n, 2n] and cross terms up to 0.3 n,
        n from 1 to 1e70, conjugated by a fixed local symplectic as a plain
        S+ V S (Hermitian to rounding only), is accepted, and its I1..I4 are
        the untransformed state's within 1e-9 of n^2 (n^4 for I4)."""
        n = 10.0 ** e
        mc, ms = (0.3 * n * r * np.exp(2j * math.pi * a) for r, a in ((u[1], u[2]), (u[3], u[4])))
        V = build_covariance(GaussianParams(n, n * (1 + u[0]), ms=ms, mc=mc))
        S = make_local_symplectic(0.7, 0.3, 1.1, 0.4, 2.0, 0.5).realized
        a, b = invariants(V), invariants(S.conj().T @ V @ S)
        for x, y, scale in zip((a.i1, a.i2, a.i3, a.i4), (b.i1, b.i2, b.i3, b.i4),
                               (n**2, n**2, n**2, n**4)):
            assert abs(x - y) <= 1e-9 * scale

    def test_invariance_under_conjugation(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = random_physical_states(rng, 1)[0]
            S = random_local_symplectic(rng)
            a = invariants(build_covariance(p))
            b = invariants(apply_local(S, build_covariance(p)))
            for x, y in zip((a.i1, a.i2, a.i3, a.i4), (b.i1, b.i2, b.i3, b.i4)):
                assert y == pytest.approx(x, rel=1e-9, abs=1e-11)


@st.composite
def mode_draws(draw):
    """(n, (re m, im m)) of one mode: m = 0 of either sign, |m| just below,
    at or above n, or inside, at any phase, for n from subnormal to 1e150,
    or 0."""
    scale = draw(st.sampled_from([5e-324, 1e-310, 1e-150, 1.0, 1e150]))
    n = 0.0 if draw(st.booleans()) and draw(st.booleans()) else draw(st.floats(1.0, 4.0)) * scale
    kind = draw(st.sampled_from(["zero", "below", "at", "above", "inside"]))
    if kind == "zero":
        m = (draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))
    elif kind == "inside":
        a = draw(st.floats(-math.pi, math.pi))
        r = n * draw(st.floats(0.0, 1.0, exclude_max=True))
        m = (r * math.cos(a), r * math.sin(a))
    else:
        r = {"below": math.nextafter(n, 0.0), "at": n, "above": math.nextafter(n, math.inf)}[kind]
        m = (r, draw(st.sampled_from([0.0, -0.0])))
        if draw(st.booleans()):
            m = m[::-1]
    signs = draw(st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])))
    return n, (signs[0] * m[0], signs[1] * m[1])


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
        assert res.residual <= core.TOL_PATTERN
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
        assert exc.value.residual > core.TOL_PATTERN
        assert str(exc.value) == (f"reduction to form1 failed: residual {exc.value.residual:.3e}"
                                  " exceeds 1.0e-09 x max(1, sqrt(|B_ii| |B_jj|))")

    def test_rows_of_a_batch_reduce_as_lone_states(self):
        """Each state of a batch reduces, or fails, as it does alone, read
        out of one array pass over the batch; its transform's matrix is
        built only when it is used."""
        squeezed = params_from_covariance(apply_local(
            make_local_symplectic(0.4, 0.7, 0.0, 0.25, 2.0, 0.0),
            build_covariance(GaussianParams(1.1, 1.3, mc=0.35))))
        states = [
            GaussianParams(1.0, 1.0, mc=0.4), GaussianParams(1.0, 1.2, ms=0.3j), squeezed,
            GaussianParams(1.4, 1.2, m1=0.3, m2=0.1, ms=0.25, mc=0.4),  # inapplicable
            GaussianParams(0.4, 1.0),  # unphysical
            GaussianParams(1.5, 2.0, m2=0.7 - 0.2j), GaussianParams(1e8, 1.0, m1=3e7 + 1e7j),
            GaussianParams(2e9, 1.0, m1=2e9),  # no squeeze angle, if the oracle calls it physical
            GaussianParams(1, 1, m1=complex(1.5e308, 1.5e308)),  # the oracle overflows
        ]

        def outcome(p):
            try:
                res = reduce_to_invariant_form(p)
            except (DomainError, OverflowError,
                    PrescriptionInapplicableError) as exc:  # the same, alone or not
                return type(exc), str(exc)
            assert "realized" not in vars(res.transform)
            S = res.transform
            return (res.form, res.nu1, res.nu2, res.mu, res.residual,
                    S.theta1, S.phi1, S.theta2, S.phi2, S.realized.tobytes())

        alone = [outcome(p) for p in states]
        assert alone == [outcome(row) for row in core._Batch.of(states).rows()]
        assert [a[0] for a in alone] == [FORM1, FORM2, FORM1, PrescriptionInapplicableError,
                                         DomainError, FORM1, FORM1, DomainError, OverflowError]

    def test_unphysical_rejected(self):
        with pytest.raises(DomainError):
            reduce_to_invariant_form(GaussianParams(0.4, 1.0))

    def test_one_physicality_pass_for_reduction_and_oracle_route(self, monkeypatch):
        """The reduction and the eigen-oracle route read physicality from
        the batch's one oracle pass: one oracle call over its whole stack."""
        calls = []
        margin = core._physical_margin_eig
        monkeypatch.setattr(core, "_physical_margin_eig",
                            lambda V: calls.append(len(V)) or margin(V))
        states = [GaussianParams(1.0, 1.0, mc=0.4), GaussianParams(0.4, 1.0),
                  GaussianParams(1.1, 1.3, ms=0.1)]
        batch = core._Batch.of(states)
        rows = batch.rows()
        forms = [reduce_to_invariant_form(rows[0]).form, reduce_to_invariant_form(rows[2]).form]
        assert calls == [3]
        verdicts = core._classified(batch, core.METHOD_EIG, core.TOL_PSD)
        assert calls == [3, 2]  # then separability, on the two physical states
        assert [v.physical for v in verdicts] == [True, False, True]
        assert forms == [FORM1, FORM2]
        assert repr(verdicts) == repr(core.classify_batch(states, core.METHOD_EIG))  # NaN margins

    def test_overcorrelated_mode_rejected(self):
        [(_, angles, *_)] = symplectic._reductions(
            core._Batch.of([GaussianParams(1.0, 1.0, m1=1.1)]))
        assert type(angles) is DomainError
        assert str(angles) == "squeeze angle undefined: |m| = 1.1 >= n = 1.0"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(mode_draws(), mode_draws()), min_size=1, max_size=12))
    # phases where numpy's AVX512 arctan2 + pi is one ulp off libm's
    @example([((1.0, (0.33963775269927754, -0.5491007814405117)),
               (1.0, (-0.39701329139800523, -0.6432708048667787))),
              ((1.0, (-0.08643461043269918, -0.1380469264168396)), (0.0, (0.0, -0.0)))])
    # |m| overflows abs(): in mode 1, in mode 2, and in mode 2 after mode 1's DomainError
    @example([((1.0, (1.5e308, 1.5e308)), (1.0, (0.5, 0.0))),
              ((1.0, (0.5, 0.0)), (1.0, (1.5e308, -1.5e308))),
              ((1.0, (1.1, 0.0)), (1.0, (-1.5e308, 1.5e308)))])
    def test_column_angles_are_the_scalar_angles(self, modes):
        """The angles of ``_reductions`` are, state by state, those of the
        scalar reference ``literal.squeeze_angles`` on that state alone, bit
        for bit (signed zeros included), or the same DomainError or
        OverflowError, mode 1's first."""
        rows = [(n1, *m1, n2, *m2) for (n1, m1), (n2, m2) in modes]
        n1, a, b, n2, c, d = np.array(rows, dtype=float).T.copy()
        zero = (np.zeros_like(n1), np.zeros_like(n1))
        q = core._ParamArrays(n1, n2, (a, b), (c, d), zero, zero)
        got = [row[1] for row in symplectic._reductions(core._Batch(q))]

        def modulus(re, im):  # abs(), or inf where it overflows
            try:
                return abs(complex(re, im))
            except OverflowError:
                return math.inf

        with np.errstate(over="ignore"):
            assert (core._abs((a, b)).tolist() == list(map(modulus, a, b))
                    and core._abs((c, d)).tolist() == list(map(modulus, c, d)))
        for angles, (n1, a, b, n2, c, d) in zip(got, rows):
            try:
                want = (literal.squeeze_angles(complex(a, b), n1)
                        + literal.squeeze_angles(complex(c, d), n2))
            except (DomainError, OverflowError) as exc:
                assert type(angles) is type(exc) and str(angles) == str(exc)
            else:
                assert repr(angles) == repr(want)

    def test_form_connection_by_phases(self):
        # theta = 0, phases only: form 1 maps to the form-2 pattern
        p = GaussianParams(1.0, 1.2, mc=0.4)
        # swap within mode 2 via the X pattern: conjugation by T
        W = literal.partial_transpose(build_covariance(p))
        q = params_from_covariance(W)
        assert q.mc == 0.0 and q.ms == 0.4


class TestRandomGeneration:
    def test_reproducible(self):
        pa = random_physical_states(np.random.default_rng(5), 1)
        pb = random_physical_states(np.random.default_rng(5), 1)
        assert pa == pb

    def test_mixer_symplectic(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            M = two_mode_mixer(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
            assert symplectic_defect(M) < 1e-12

    def test_construct_zero_mixing_is_product(self, monkeypatch):
        monkeypatch.setattr(symplectic, "THETA_MAX", 0.0)
        monkeypatch.setattr(symplectic, "R_MAX", 0.0)
        p = random_physical_states(np.random.default_rng(2), 1)[0]
        assert p.m1 == 0 and p.m2 == 0 and p.ms == 0 and p.mc == 0
        assert core.classify(p, method=core.METHOD_EIG).separable

    def test_construct_outputs_physical(self):
        rng = np.random.default_rng(13)
        for p in random_physical_states(rng, 100):
            assert core.classify(p, method=core.METHOD_EIG).physical

    def test_reject_outputs_physical(self):
        rng = np.random.default_rng(17)
        states = random_physical_states(rng, 50, mode="reject")
        assert len(states) == 50  # acceptance fraction of the box is positive
        for p in states:
            assert core.classify(p, method=core.METHOD_EIG).physical

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(symplectic, "MAX_DRAWS", 0)
        with pytest.raises(SamplingBudgetError):
            random_physical_states(np.random.default_rng(1), 1, mode="reject")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            random_physical_states(np.random.default_rng(1), 1, mode="magic")


class TestBatchSampling:
    """A batch of draws is the stream of one-at-a-time draws, bit for bit,
    and leaves the generator where they leave it."""

    SPLITS = [(37,), (1,) * 37, (5, 11, 21), (20, 0, 17)]

    @pytest.mark.parametrize("mode, block", [
        ("construct", symplectic.REJECT_BLOCK),
        ("reject", symplectic.REJECT_BLOCK),
        ("reject", 3),  # many blocks per call
    ])
    @pytest.mark.parametrize("seed", [0, 41])
    def test_any_split_gives_the_same_states(self, mode, block, seed, monkeypatch):
        monkeypatch.setattr(symplectic, "REJECT_BLOCK", block)
        results = []
        for split in self.SPLITS:
            rng = np.random.default_rng(seed)
            states = [p for k in split for p in random_physical_states(rng, k, mode)]
            assert len(states) == 37
            results.append((bits(states), rng.bit_generator.state))
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("block", [symplectic.REJECT_BLOCK, 3])
    def test_reject_is_the_one_at_a_time_stream(self, block, monkeypatch):
        monkeypatch.setattr(symplectic, "REJECT_BLOCK", block)
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        assert bits(random_physical_states(a, 60, "reject")) == bits(one_at_a_time_reject(b, 60))
        assert a.bit_generator.state == b.bit_generator.state

    def test_construct_is_the_one_at_a_time_construction(self):
        """Against the scalar construction from the same ten draws per state;
        the products may round differently in the last bits."""
        a, b = np.random.default_rng(12), np.random.default_rng(12)
        batch = random_physical_states(a, 50, "construct")
        for p in batch:
            nu1, nu2 = b.uniform(0.5, symplectic.NU_MAX, size=2)
            S = random_local_symplectic(b, theta_max=symplectic.THETA_MAX)
            V = apply_local(S, np.diag([nu1, nu1, nu2, nu2]).astype(complex))
            M = two_mode_mixer(b.uniform(0.0, symplectic.R_MAX), b.uniform(0.0, 2 * math.pi))
            ref = build_covariance(params_from_covariance(M.conj().T @ V @ M))
            assert np.abs(build_covariance(p) - ref).max() <= 1e-12 * np.abs(ref).max()
        assert a.bit_generator.state == b.bit_generator.state

    def test_box_batch_is_the_one_at_a_time_stream(self):
        a, b, c = (np.random.default_rng(21) for _ in range(3))
        batch = symplectic._random_box(a, 40, 0.4, 3.0, 1.0).params()
        assert bits(batch) == bits([symplectic._random_box(b, 1, 0.4, 3.0, 1.0).params()[0]
                                    for _ in range(40)])
        assert bits(batch) == bits([one_at_a_time_box(c, 0.4, 3.0, 1.0) for _ in range(40)])
        assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state

    def test_budget_is_exact_across_blocks(self, monkeypatch):
        """With no physical candidate the budget of the first state runs out
        after exactly MAX_DRAWS draws, over blocks of 4, 4 and 2."""
        monkeypatch.setattr(symplectic, "REJECT_BLOCK", 4)
        monkeypatch.setattr(symplectic, "MAX_DRAWS", 10)
        checked = []

        def never_physical(V):
            checked.append(len(V))
            return np.full(len(V), -1.0)

        monkeypatch.setattr(core, "_physical_margin_eig", never_physical)
        rng = np.random.default_rng(3)
        with pytest.raises(SamplingBudgetError, match="no physical state found in 10 draws"):
            random_physical_states(rng, 5, "reject")
        assert checked == [4, 4, 2]
        ref = np.random.default_rng(3)
        ref.random(10 * 10)  # ten draws of ten uniforms
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_budget_is_per_accepted_state(self, monkeypatch):
        """Where the one-at-a-time stream runs out of budget on a later state,
        so does the batch, at the same draw."""
        monkeypatch.setattr(symplectic, "REJECT_BLOCK", 3)
        monkeypatch.setattr(symplectic, "MAX_DRAWS", 2)
        ends = []
        for draw in (lambda rng: random_physical_states(rng, 200, "reject"),
                     lambda rng: one_at_a_time_reject(rng, 200)):
            rng = np.random.default_rng(4)
            with pytest.raises(SamplingBudgetError):
                draw(rng)
            ends.append(rng.bit_generator.state)
        assert ends[0] == ends[1]

    @pytest.mark.parametrize("mode", ["construct", "reject"])
    def test_array_draws_are_the_parameter_sets(self, mode, monkeypatch):
        """``_random_states`` draws the states of ``random_physical_states``,
        as arrays, and leaves the generator where it leaves it."""
        monkeypatch.setattr(symplectic, "REJECT_BLOCK", 5)  # several blocks
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        q = symplectic._random_states(a, 23, mode).q
        assert bits(q.params()) == bits(random_physical_states(b, 23, mode))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("block", [symplectic.REJECT_BLOCK, 5, 3])
    @pytest.mark.parametrize("mode", ["construct", "reject"])
    def test_batch_holds_the_samplers_stack(self, mode, block, monkeypatch):
        """The batch ``_random_states`` returns holds the sampler's
        covariance stack, read-only and bit for bit ``q.covariance()``, and
        in reject mode the physicality oracle margins of its accepted
        candidates, the oracle over that stack, bit for bit."""
        monkeypatch.setattr(symplectic, "REJECT_BLOCK", block)
        batch = symplectic._random_states(np.random.default_rng(13), 23, mode)
        V = batch.covariance
        assert not V.flags.writeable
        assert V.shape == (23, 4, 4) and V.tobytes() == batch.q.covariance().tobytes()
        seeded = batch._values.get((core._physical_oracle,))
        if mode == "construct":
            assert seeded is None
        else:
            assert not seeded.flags.writeable
            assert seeded.tobytes() == core._physical_margin_eig(V).tobytes()
            assert (seeded >= -core.TOL_PSD).all()

    @pytest.mark.parametrize("mode", ["construct", "reject"])
    def test_invalid_draw_raises_its_error(self, mode, monkeypatch):
        """A drawn row that ``GaussianParams`` rejects raises its error:
        ``_construct`` checks the rows it reads off its matrices, and
        ``_reject`` the candidates of ``_random_box`` that it accepts."""
        def with_negative_n1(q):
            return q._replace(n1=np.where(np.arange(len(q.n1)) == 1, -1.0, q.n1))

        if mode == "construct":
            read = core._ParamArrays.read_stack
            monkeypatch.setattr(core._ParamArrays, "read_stack",
                                lambda V: (with_negative_n1(read(V)[0]), *read(V)[1:]))
        else:  # the eigen-oracle accepts every candidate
            box = symplectic._random_box
            monkeypatch.setattr(symplectic, "_random_box",
                                lambda *args: with_negative_n1(box(*args)))
            monkeypatch.setattr(core, "_physical_margin_eig", lambda V: np.zeros(len(V)))
        with pytest.raises(InvalidParameterError, match="occupations must be nonnegative"):
            symplectic._random_states(np.random.default_rng(1), 4, mode)

    @pytest.mark.parametrize("mode", ["construct", "reject"])
    def test_negative_count_rejected(self, mode):
        with pytest.raises(ValueError):
            random_physical_states(np.random.default_rng(1), -1, mode)

    def test_empty_batch(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert random_physical_states(rng, 0, "construct") == []
        assert random_physical_states(rng, 0, "reject") == []
        assert rng.bit_generator.state == state
