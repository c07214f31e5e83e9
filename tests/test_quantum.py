"""Operator-level tests: states, POVM effects, the p = f + q split, decoherence."""
from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchoice import (
    DegenerateSetError,
    DensityOperator,
    EventOperator,
    NormalizationError,
    ProbabilityTriple,
    Prospect,
    ValidationError,
    decohere,
    normalize_prospect_set,
    prospect_probability,
    prospect_projector,
    prospect_state,
    random_density_operator,
    sample_inconclusive,
)
from qchoice.quantum import (
    decohere_levels,
    normalize,
    prospect_projector_stack,
    random_prospect_draws,
    split,
    trace_rule,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bits(array) -> bytes:
    """The exact bytes of a complex array, so signed zeros count too."""
    return np.ascontiguousarray(array, dtype=np.complex128).tobytes()


class TestStateVector:
    """Amplitude vectors: the inputs of ``from_pure`` and ``Prospect``, and
    the output of ``prospect_state``."""

    def test_rejects_empty_and_matrix_shaped(self):
        for amplitudes in (np.array([]), np.eye(2)):
            with pytest.raises(ValidationError):
                DensityOperator.from_pure(amplitudes)
            with pytest.raises(ValidationError):
                Prospect(0, amplitudes)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            DensityOperator.from_pure([1.0, float("nan")])
        with pytest.raises(ValidationError):
            Prospect(0, [1.0, float("nan")])

    @pytest.mark.parametrize(
        "amplitudes", [["a", "b"], ["1", "0"], [True, False], [[1.0], [0.0, 1.0]], "ab"]
    )
    def test_rejects_strings_bools_and_ragged_nesting(self, amplitudes):
        with pytest.raises(ValidationError, match="array of numbers"):
            DensityOperator.from_pure(amplitudes)
        with pytest.raises(ValidationError, match="array of numbers"):
            Prospect(0, amplitudes)

    def test_accepts_strided_amplitudes(self):
        amplitudes = np.array([1.0, 9.0, 0.0, 9.0], dtype=np.complex128)[::2]
        assert Prospect(0, amplitudes).b_dim == 2
        assert DensityOperator.from_pure(amplitudes).dim == 2

    def test_amplitudes_frozen(self):
        state = prospect_state(Prospect(0, [1.0]), 2, 1)
        assert state.dtype == np.complex128
        with pytest.raises(ValueError):
            state[0] = 2.0


class TestDensityOperator:
    def test_pure_state(self):
        rho = DensityOperator.from_pure([INV_SQRT2, INV_SQRT2])
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))

    def test_from_pure_requires_unit_norm(self):
        with pytest.raises(NormalizationError):
            DensityOperator.from_pure([1.0, 1.0])

    @pytest.mark.parametrize(
        "matrix",
        [[["a", "0"], ["0", "b"]], [[0.5, 0.0], [0.0]], [[True, False], [False, False]]],
    )
    def test_rejects_strings_bools_and_ragged_nesting(self, matrix):
        with pytest.raises(ValidationError, match="array of numbers"):
            DensityOperator(matrix)
        with pytest.raises(ValidationError, match="array of numbers"):
            EventOperator(matrix)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_accepts_complex_hermitian(self):
        rho = DensityOperator(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        assert rho.dim == 2

    def test_random_is_deterministic_and_valid(self):
        a = random_density_operator(6, 42)
        b = random_density_operator(6, 42)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_density_operator(6, 43)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_random_dim_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            random_density_operator(65, 0)


class TestEventOperator:
    def test_projector_from_basis_state(self):
        proj = prospect_projector(Prospect(0, [1.0]), 2, 1)
        assert np.allclose(proj.matrix, np.diag([1.0, 0.0]))

    def test_projector_from_superposition(self):
        proj = prospect_projector(Prospect(0, [INV_SQRT2, INV_SQRT2]), 1, 2)
        assert np.allclose(proj.matrix, 0.5 * np.ones((2, 2)))

    def test_projector_of_subunit_norm_is_an_effect(self):
        proj = prospect_projector(Prospect(0, [0.6, 0.0]), 2, 2)
        assert np.allclose(proj.matrix, np.diag([0.36, 0.0, 0.0, 0.0]))

    def test_projector_refuses_squared_norm_above_one(self):
        # ``prospect_probability`` still evaluates this prospect's quadratic form.
        with pytest.raises(ValidationError) as exc:
            prospect_projector(Prospect(0, [1, 1]), 2, 2)
        assert str(exc.value) == "event operator has eigenvalue 2.000000 above 1"

    def test_povm_element_allows_subunit_weight(self):
        op = EventOperator(np.diag([0.5, 0.25]))
        assert op.dim == 2

    def test_povm_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError) as exc:
            EventOperator(np.diag([-0.5, 0.5]))
        assert str(exc.value) == "event operator has negative eigenvalue -5.000e-01"

    def test_povm_rejects_eigenvalue_above_one(self):
        with pytest.raises(ValidationError, match="above 1"):
            EventOperator(np.diag([1.5, 0.0]))

    def test_expectation_under_maximally_mixed(self):
        event = EventOperator(np.diag([0.0, 0.0, 1.0, 0.0]))
        rho = DensityOperator(np.eye(4) / 4)
        assert event.expectation(rho) == pytest.approx(0.25, abs=1e-14)

    def test_expectation_dim_mismatch(self):
        event = EventOperator(np.diag([1.0, 0.0]))
        with pytest.raises(ValidationError, match="mismatch"):
            event.expectation(DensityOperator(np.eye(3) / 3))


class TestTensor:
    """The basis convention of the composite space, which ``prospect_state``
    follows: ``(n, alpha)`` lands at ``n * b_dim + alpha``, as in ``np.kron``."""

    def test_basis_index_convention(self):
        # Choice register first.
        state = prospect_state(Prospect(1, [0.0, 0.0, 1.0]), 2, 3)
        assert state.tolist() == [0, 0, 0, 0, 0, 1]
        assert state.tolist() == np.kron([0, 1], [0, 0, 1]).tolist()

    def test_coefficients_fill_choice_block(self):
        state = prospect_state(Prospect(0, [0.6, 0.8]), 2, 2)
        assert state.tolist() == [0.6, 0.8, 0.0, 0.0]
        assert state.tolist() == np.kron([1, 0], [0.6, 0.8]).tolist()

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=4),
    )
    def test_norm_multiplicative(self, n, ys):
        # |e_n (x) b| = |e_n| |b| = |b|.
        state = prospect_state(Prospect(n, ys), 4, len(ys))
        assert np.linalg.norm(state) == pytest.approx(np.linalg.norm(ys), abs=1e-9)


class TestProspectState:
    def test_embeds_in_choice_block(self):
        pr = Prospect(1, [INV_SQRT2, INV_SQRT2])
        state = prospect_state(pr, 2, 2)
        assert np.allclose(state, [0, 0, INV_SQRT2, INV_SQRT2])

    def test_matches_tensor_construction(self):
        b = sample_inconclusive(3, 5)
        via_embed = prospect_state(Prospect(2, b), 4, 3)
        via_kron = np.kron(np.eye(4)[2], b)
        assert np.allclose(via_embed, via_kron, atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            prospect_state(Prospect(2, [1.0]), 2, 1)

    def test_coefficient_length_mismatch(self):
        with pytest.raises(ValidationError, match="coefficients"):
            prospect_state(Prospect(0, [1.0, 0.0]), 2, 3)

    def test_prospect_rejects_negative_index(self):
        with pytest.raises(ValidationError):
            Prospect(-1, [1.0])

    @pytest.mark.parametrize("index", [1.5, 1.0, "1", None])
    def test_prospect_rejects_non_integer_index(self, index):
        with pytest.raises(ValidationError, match="must be an integer"):
            Prospect(index, [1.0])

    @pytest.mark.parametrize("index", [True, False, np.True_])
    def test_prospect_rejects_bool_index(self, index):
        with pytest.raises(ValidationError, match="must be an integer"):
            Prospect(index, [1.0])

    @pytest.mark.parametrize("index", [np.int64(1), np.uint8(1), np.intp(1)])
    def test_prospect_accepts_numpy_integer_index(self, index):
        prospect = Prospect(index, [1.0])
        assert prospect.choice_index == 1
        assert type(prospect.choice_index) is int
        rho = DensityOperator(np.eye(2) / 2)
        assert prospect_probability(rho, prospect, (2, 1)).p == pytest.approx(0.5)


class TestProbabilitySplit:
    def test_pure_constructive_interference(self):
        # State (1,1)/sqrt2 probed by matching coefficients: p = 1 = 1/2 + 1/2.
        rho = DensityOperator.from_pure([INV_SQRT2, INV_SQRT2])
        t = prospect_probability(rho, Prospect(0, [INV_SQRT2, INV_SQRT2]), (1, 2))
        assert t.p == pytest.approx(1.0, abs=1e-12)
        assert t.f == pytest.approx(0.5, abs=1e-12)
        assert t.q == pytest.approx(0.5, abs=1e-12)

    def test_pure_destructive_interference(self):
        rho = DensityOperator.from_pure([INV_SQRT2, -INV_SQRT2])
        t = prospect_probability(rho, Prospect(0, [INV_SQRT2, INV_SQRT2]), (1, 2))
        assert t.p == pytest.approx(0.0, abs=1e-12)
        assert t.f == pytest.approx(0.5, abs=1e-12)
        assert t.q == pytest.approx(-0.5, abs=1e-12)

    def test_complex_amplitudes_destructive(self):
        # Off-diagonal 0.5j interferes fully with coefficients (1, i)/sqrt2.
        rho = DensityOperator(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        t = prospect_probability(rho, Prospect(0, [INV_SQRT2, 1j * INV_SQRT2]), (1, 2))
        assert t.p == pytest.approx(0.0, abs=1e-12)
        assert t.f == pytest.approx(0.5, abs=1e-12)
        assert t.q == pytest.approx(-0.5, abs=1e-12)

    def test_diagonal_state_has_no_interference(self):
        rho = DensityOperator(np.diag([0.1, 0.2, 0.3, 0.4]))
        t = prospect_probability(rho, Prospect(1, [0.6, 0.8]), (2, 2))
        assert t.q == 0.0
        assert t.f == pytest.approx(0.36 * 0.3 + 0.64 * 0.4, abs=1e-14)
        assert t.p == pytest.approx(t.f, abs=1e-14)

    def test_single_inconclusive_component(self):
        rho = random_density_operator(3, 11)
        t = prospect_probability(rho, Prospect(2, [1.0]), (3, 1))
        assert t.q == 0.0
        assert t.p == pytest.approx(float(np.real(rho.matrix[2, 2])), abs=1e-14)

    def test_maximally_mixed_gives_uniform_raw(self):
        rho = DensityOperator(np.eye(6) / 6)
        b = sample_inconclusive(2, 3)
        for n in range(3):
            t = prospect_probability(rho, Prospect(n, b), (3, 2))
            assert t.p == pytest.approx(1.0 / 6.0, abs=1e-12)
            assert t.q == pytest.approx(0.0, abs=1e-15)

    def test_pure_state_overlap_oracle(self):
        # Independent route: for rho = |psi><psi|, p must be |<pi|psi>|^2.
        psi = sample_inconclusive(12, 21)
        rho = DensityOperator.from_pure(psi)
        b = sample_inconclusive(3, 22)
        for n in range(4):
            t = prospect_probability(rho, Prospect(n, b), (4, 3))
            pi = prospect_state(Prospect(n, b), 4, 3)
            assert t.p == pytest.approx(abs(np.vdot(pi, psi)) ** 2, abs=1e-12)

    def test_trace_rule_oracle(self):
        rho = random_density_operator(12, 9)
        b = sample_inconclusive(3, 10)
        for n in range(4):
            t = prospect_probability(rho, Prospect(n, b), (4, 3))
            proj = prospect_projector(Prospect(n, b), 4, 3)
            assert t.p == pytest.approx(proj.expectation(rho), abs=1e-13)

    def test_dims_inconsistent_with_state(self):
        rho = random_density_operator(6, 0)
        with pytest.raises(ValidationError, match="inconsistent"):
            prospect_probability(rho, Prospect(0, [1.0, 0.0]), (4, 2))

    @pytest.mark.parametrize("dims", [("x",), None, ("a", "b")])
    def test_dims_must_be_a_pair_of_integers(self, dims):
        rho = random_density_operator(6, 0)
        with pytest.raises(ValidationError, match="^register dimensions must be a pair of integers"):
            prospect_probability(rho, Prospect(0, [1.0, 0.0]), dims)

    @pytest.mark.parametrize(
        "p, f, q", [("a", 0.0, 0.0), (True, True, 0), (0.5, "0.5", 0.0), (0.0, 0.0, None)]
    )
    def test_triple_rejects_strings_and_bools(self, p, f, q):
        with pytest.raises(ValidationError, match="real number"):
            ProbabilityTriple(p=p, f=f, q=q)

    def test_triple_identity_enforced(self):
        with pytest.raises(ValidationError, match="p - \\(f \\+ q\\)"):
            ProbabilityTriple(p=0.5, f=0.3, q=0.1)

    def test_triple_keeps_and_subtracts_the_checked_values(self):
        # numpy scalars are stored, and p - (f + q) computed, as the Python
        # floats they hold: the float32 split is refused like its floats.
        message = r"^probability split is inconsistent: \|p - \(f \+ q\)\| = 7\.451e-09 exceeds 1e-12$"
        for values in ((np.float32(0.3), np.float32(0.1), np.float32(0.2)),
                       (np.float32(0.3).item(), np.float32(0.1).item(), np.float32(0.2).item())):
            with pytest.raises(ValidationError, match=message):
                ProbabilityTriple(*values)
        t = ProbabilityTriple(np.float64(0.5), np.float32(0.25), np.float16(0.25))
        assert (t.p, t.f, t.q) == (0.5, 0.25, 0.25)
        assert [type(v) for v in (t.p, t.f, t.q)] == [float, float, float]

    def test_triple_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            ProbabilityTriple(p=float("nan"), f=0.0, q=0.0)
        # Coefficients whose products overflow: split rejects the
        # non-finite p, f and q before any triple is built.
        rho = random_density_operator(4, 0)
        with pytest.raises(ValidationError), np.errstate(invalid="ignore", over="ignore"):
            prospect_probability(rho, Prospect(0, [1e200, 1e200]), (2, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_split_identity_random_states(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_operator(6, rng)
        b = sample_inconclusive(2, rng)
        for n in range(3):
            t = prospect_probability(rho, Prospect(n, b), (3, 2))
            assert abs(t.p - (t.f + t.q)) <= 1e-12
            assert -1e-12 <= t.p <= 1.0 + 1e-12
            assert -1e-12 <= t.f <= 1.0 + 1e-12


class TestNormalization:
    def test_exact_dyadic_example(self):
        # Raw p sums to 1/2, raw f too; dyadic values renormalize exactly.
        raw = [
            ProbabilityTriple(p=0.25, f=0.375, q=-0.125),
            ProbabilityTriple(p=0.25, f=0.125, q=0.125),
        ]
        family = normalize_prospect_set(raw)
        assert [t.p for t in family] == [0.5, 0.5]
        assert [t.f for t in family] == [0.75, 0.25]
        assert [t.q for t in family] == [-0.25, 0.25]

    def test_identity_on_already_normalized(self):
        raw = [
            ProbabilityTriple(p=0.65, f=0.4, q=0.25),
            ProbabilityTriple(p=0.35, f=0.6, q=-0.25),
        ]
        family = normalize_prospect_set(raw)
        assert [t.p for t in family] == pytest.approx([0.65, 0.35], abs=1e-15)
        assert [t.q for t in family] == pytest.approx([0.25, -0.25], abs=1e-15)

    def test_alternation_sums(self):
        rho = random_density_operator(12, 4)
        b = sample_inconclusive(3, 5)
        family = normalize_prospect_set(
            [prospect_probability(rho, Prospect(n, b), (4, 3)) for n in range(4)]
        )
        assert sum(t.p for t in family) == pytest.approx(1.0, abs=1e-12)
        assert sum(t.f for t in family) == pytest.approx(1.0, abs=1e-12)
        assert sum(t.q for t in family) == pytest.approx(0.0, abs=1e-12)

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            normalize_prospect_set([])

    @pytest.mark.parametrize("family, match", [
        ([1, 2], "^prospect probability 1 is not a ProbabilityTriple$"),
        ([ProbabilityTriple(0.5, 0.5, 0.0), (0.5, 0.5, 0.0)],
         "^prospect probability \\(0\\.5, 0\\.5, 0\\.0\\) is not a ProbabilityTriple$"),
        (None, "^prospect probability column must be a sequence, got None$"),
        ({0: ProbabilityTriple(1.0, 1.0, 0.0)}, "not a mapping$"),
    ])
    def test_family_entries_must_be_triples(self, family, match):
        with pytest.raises(ValidationError, match=match):
            normalize_prospect_set(family)

    def test_all_zero_family_rejected(self):
        zeros = [ProbabilityTriple(p=0.0, f=0.0, q=0.0)] * 2
        with pytest.raises(DegenerateSetError):
            normalize_prospect_set(zeros)

    def test_negative_raw_probability_rejected(self):
        bad = [
            ProbabilityTriple(p=-0.1, f=0.1, q=-0.2),
            ProbabilityTriple(p=0.5, f=0.3, q=0.2),
        ]
        with pytest.raises(ValidationError, match="non-negative"):
            normalize_prospect_set(bad)


class TestSampleInconclusive:
    def test_deterministic_per_seed(self):
        assert np.array_equal(sample_inconclusive(4, 3), sample_inconclusive(4, 3))
        assert not np.array_equal(sample_inconclusive(4, 3), sample_inconclusive(4, 4))

    def test_unit_norm(self):
        for seed in range(10):
            b = sample_inconclusive(5, seed)
            assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)

    def test_single_component_is_phase(self):
        b = sample_inconclusive(1, 0)
        assert abs(b[0]) == pytest.approx(1.0, abs=1e-12)

    def test_component_weight_is_unbiased(self):
        # |b_0|^2 of a uniform 4-sphere point averages 1/4.
        rng = np.random.default_rng(7)
        mean = np.mean([abs(sample_inconclusive(4, rng)[0]) ** 2 for _ in range(2000)])
        assert mean == pytest.approx(0.25, abs=0.02)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValidationError):
            sample_inconclusive(0, 0)


class TestDecohere:
    def test_zero_damping_is_identity(self):
        rho = random_density_operator(6, 8)
        assert np.array_equal(decohere(rho, 0.0).matrix, rho.matrix)

    def test_full_damping_kills_off_diagonals(self):
        rho = random_density_operator(6, 8)
        damped = decohere(rho, 1.0)
        off = damped.matrix[~np.eye(6, dtype=bool)]
        assert np.all(off == 0.0)
        assert np.allclose(np.diag(damped.matrix), np.diag(rho.matrix))

    def test_interference_scales_linearly(self):
        rho = random_density_operator(12, 13)
        b = sample_inconclusive(3, 14)
        base = prospect_probability(rho, Prospect(1, b), (4, 3))
        for d in (0.25, 0.5, 0.75):
            t = prospect_probability(decohere(rho, d), Prospect(1, b), (4, 3))
            assert t.q == pytest.approx((1.0 - d) * base.q, abs=1e-14)
            assert t.f == pytest.approx(base.f, abs=1e-14)

    def test_full_damping_zeroes_interference_exactly(self):
        rho = random_density_operator(12, 13)
        b = sample_inconclusive(3, 14)
        t = prospect_probability(decohere(rho, 1.0), Prospect(2, b), (4, 3))
        assert t.q == 0.0

    def test_damping_out_of_range(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValidationError, match="damping"):
            decohere(rho, 1.5)
        with pytest.raises(ValidationError, match="damping"):
            decohere(rho, -0.1)

    def test_block_dims_validated(self):
        rho = random_density_operator(6, 0)
        decohere(rho, 0.5, block_dims=(3, 2))  # consistent: fine
        with pytest.raises(ValidationError, match="block"):
            decohere(rho, 0.5, block_dims=(4, 2))

    @pytest.mark.parametrize(
        "block_dims, message",
        [
            (("x",), "^block dimensions must be a pair of integers, got \\('x',\\)$"),
            ((2.0, 6), "^choice dimension must be an integer, got 2.0$"),
        ],
    )
    def test_block_dims_must_be_integers(self, block_dims, message):
        rho = random_density_operator(12, 0)
        with pytest.raises(ValidationError, match=message):
            decohere(rho, 0.5, block_dims=block_dims)

    @pytest.mark.parametrize("damping", ["0.5", True, "x"])
    def test_damping_must_be_a_real_number(self, damping):
        rho = random_density_operator(4, 0)
        with pytest.raises(ValidationError, match="^damping must be a real number"):
            decohere(rho, damping)

    def test_result_remains_valid_density(self):
        rho = random_density_operator(8, 2)
        for d in np.linspace(0.0, 1.0, 6):
            damped = decohere(rho, float(d))
            assert np.trace(damped.matrix).real == pytest.approx(1.0, abs=1e-12)


def _register_dims():
    """Register sizes ``(n_dim, b_dim)`` with a composite dimension of at most 64."""
    return st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 64 // n))
    )


def _low_rank_state(dim: int, rank: int, rng: np.random.Generator) -> DensityOperator:
    """Checked ``G G^dagger / tr`` for complex Gaussians ``G`` of shape ``(dim, rank)``."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return DensityOperator(m / np.trace(m).real)


class TestBatchedKernels:
    """The array kernels against the scalar wrappers and the closed forms."""

    def test_trace_rule_refuses_an_imaginary_expectation(self):
        with pytest.raises(ValidationError) as exc:
            trace_rule(np.diag([1.0, 0.0]), np.diag([1j, 0]))
        assert str(exc.value) == (
            "event expectation has imaginary part 1.000e+00; operator inputs are inconsistent"
        )

    def test_split_refuses_an_empty_stack(self):
        with pytest.raises(ValidationError) as exc:
            split(np.zeros((0, 4, 4)), [1.0, 0.0], (2, 2))
        assert str(exc.value) == "cannot split an empty state stack"

    @settings(max_examples=40, deadline=None)
    @given(
        _register_dims(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 64),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_split_matches_scalar_wrappers(self, dims, seed, rank_cap, damping):
        n_dim, b_dim = dims
        dim = n_dim * b_dim
        rng = np.random.default_rng(seed)
        rho = _low_rank_state(dim, min(rank_cap, dim), rng)
        b = sample_inconclusive(b_dim, rng)
        levels = np.array([0.0] + damping)
        stack = decohere_levels(rho, levels)
        p, f, q = split(stack, b, dims)
        p_n, f_n, q_n = normalize(p, f)
        prospects = [Prospect(n, b) for n in range(n_dim)]
        projectors = [prospect_projector(pr, n_dim, b_dim) for pr in prospects]
        for k, level in enumerate(levels):
            damped = decohere(rho, float(level), block_dims=dims)
            assert np.array_equal(damped.matrix, stack[k])
            triples = [prospect_probability(damped, pr, dims) for pr in prospects]
            assert [t.p for t in triples] == p[k].tolist()
            assert [t.f for t in triples] == f[k].tolist()
            assert [t.q for t in triples] == q[k].tolist()
            family = normalize_prospect_set(triples)
            # Both wrappers skip the triple's check; their triples pass it.
            for t in triples + family:
                assert ProbabilityTriple(t.p, t.f, t.q) == t
            assert [t.p for t in family] == p_n[k].tolist()
            assert [t.f for t in family] == f_n[k].tolist()
            assert [t.q for t in family] == q_n[k].tolist()
            trace_p = [proj.expectation(damped) for proj in projectors]
            assert np.max(np.abs(np.array(trace_p) - p[k])) <= 1e-12
            # Decoherence keeps f and scales q linearly.
            assert np.array_equal(f[k], f[0])
            assert np.max(np.abs(q[k] - (1.0 - level) * q[0])) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
        st.integers(1, 64),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_decohered_stack_is_a_valid_density_operator(self, dim, seed, rank_cap, damping):
        # decohere_levels skips re-validation; its output must still pass it.
        rho = _low_rank_state(dim, min(rank_cap, dim), np.random.default_rng(seed))
        for matrix in decohere_levels(rho, damping):
            DensityOperator(matrix.copy())
        for level in damping:
            DensityOperator(decohere(rho, level).matrix.copy())

    @settings(max_examples=40, deadline=None)
    @given(_register_dims(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_random_states_pass_full_validation(self, dims, count, seed):
        # Neither generator re-checks the states it builds; each must pass.
        dim = dims[0] * dims[1]
        DensityOperator(random_density_operator(dim, seed).matrix.copy())
        rhos, _ = random_prospect_draws(count, dims, seed)
        for matrix in rhos:
            DensityOperator(matrix.copy())

    def test_kernels_refuse_a_malformed_register(self):
        rho = random_density_operator(12, 0)
        with pytest.raises(ValidationError, match="^choice dimension must be >= 1, got -2$"):
            random_prospect_draws(2, (-2, -3), 0)
        with pytest.raises(ValidationError, match="^register dimensions must be a pair of integers"):
            split(rho.matrix[None], np.ones(3), ("x",))
        with pytest.raises(ValidationError, match="^choice dimension must be >= 1, got -2$"):
            prospect_projector_stack(np.ones((1, 3)), 0, (-2, -3))

    def test_stacked_trace_rule_matches_expectation(self):
        rng = np.random.default_rng(5)
        rhos, coeffs = random_prospect_draws(7, (3, 4), rng)
        for n in range(3):
            values = trace_rule(rhos, prospect_projector_stack(coeffs, n, (3, 4)))
            for k in range(7):
                event = prospect_projector(Prospect(n, coeffs[k]), 3, 4)
                assert values[k] == event.expectation(DensityOperator(rhos[k]))

    @staticmethod
    def check_scalar_draws(rhos, coeffs, dims, seed):
        """The per-draw loop that the one batched draw must reproduce bit for bit."""
        rng = np.random.default_rng(seed)
        for k in range(len(rhos)):
            assert bits(random_density_operator(dims[0] * dims[1], rng).matrix) == bits(rhos[k])
            assert bits(sample_inconclusive(dims[1], rng)) == bits(coeffs[k])

    def test_prospect_draws_match_scalar_draws(self):
        for dims in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 4), (8, 8)]:
            for count in (1, 16):
                for seed in (0, 7, 12345):
                    rhos, coeffs = random_prospect_draws(count, dims, np.random.default_rng(seed))
                    self.check_scalar_draws(rhos, coeffs, dims, seed)

    def test_prospect_draws_redraw_a_zero_row(self):
        # A zero amplitude row in the batch rewinds the generator and takes
        # the draws one by one, as sample_inconclusive redraws a zero vector.
        class ZeroRowInBatch(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                out = super().standard_normal(size, *args, **kwargs)
                if isinstance(size, tuple) and len(size) == 2 and size[0] == 3:
                    out[1, -6:] = 0.0
                return out

        rhos, coeffs = random_prospect_draws(3, (2, 3), ZeroRowInBatch(np.random.PCG64(4)))
        self.check_scalar_draws(rhos, coeffs, (2, 3), 4)

    def test_per_state_coefficients(self):
        rng = np.random.default_rng(2)
        rhos, coeffs = random_prospect_draws(4, (2, 3), rng)
        p, f, q = split(rhos, coeffs, (2, 3))
        assert p.shape == f.shape == q.shape == (4, 2)
        for k in range(4):
            for n in range(2):
                t = prospect_probability(DensityOperator(rhos[k]), Prospect(n, coeffs[k]), (2, 3))
                assert (t.p, t.f, t.q) == (p[k, n], f[k, n], q[k, n])

    def test_split_rejects_mismatched_shapes(self):
        rhos, coeffs = random_prospect_draws(2, (2, 3), np.random.default_rng(0))
        with pytest.raises(ValidationError, match="inconsistent"):
            split(rhos, coeffs, (3, 3))
        with pytest.raises(ValidationError, match="inconsistent"):
            split(rhos[0], coeffs[0], (2, 3))
        with pytest.raises(ValidationError, match="do not fit"):
            split(rhos, coeffs[:1], (2, 3))
        with pytest.raises(ValidationError, match="do not fit"):
            split(rhos, coeffs[:, :2], (2, 3))

    def test_split_rejects_imaginary_residue(self):
        # Not Hermitian, so the quadratic form picks up an imaginary part.
        bad = np.array([[[0.5, 0.5], [-0.5, 0.5]]], dtype=complex)
        with pytest.raises(ValidationError, match="imaginary residue"):
            split(bad, [INV_SQRT2, 1j * INV_SQRT2], (1, 2))

    def test_normalize_rows_independently(self):
        p_n, f_n, q_n = normalize([[0.25, 0.25], [0.125, 0.375]], [[0.375, 0.125], [0.25, 0.25]])
        assert p_n.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert f_n.tolist() == [[0.75, 0.25], [0.5, 0.5]]
        assert q_n.tolist() == [[-0.25, 0.25], [-0.25, 0.25]]

    def test_normalize_rejects_bad_families(self):
        with pytest.raises(ValidationError, match="empty"):
            normalize(np.zeros((2, 0)), np.zeros((2, 0)))
        with pytest.raises(ValidationError, match="shapes differ"):
            normalize([0.5, 0.5], [0.5])
        with pytest.raises(ValidationError, match="non-negative"):
            normalize([[0.5, 0.5], [0.5, -0.1]], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DegenerateSetError):
            normalize([[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]])

    def test_decohere_levels_rejects_bad_levels(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValidationError, match="damping must lie"):
            decohere_levels(rho, [0.0, 0.5, 1.5])
        with pytest.raises(ValidationError, match="damping must lie"):
            decohere_levels(rho, [float("nan")])
        with pytest.raises(ValidationError, match="non-empty vector"):
            decohere_levels(rho, [])
        with pytest.raises(ValidationError, match="non-empty vector"):
            decohere_levels(rho, 0.5)

    @pytest.mark.parametrize("levels", [["0.5", True], [True], ["x"], [0.5j], [F(1, 2)]])
    def test_decohere_levels_refuses_non_real_levels(self, levels):
        # Strings and bools used to pass through np.asarray(dtype=float64).
        rho = random_density_operator(4, 0)
        with pytest.raises(ValidationError, match="^damping levels must be real numbers, got dtype "):
            decohere_levels(rho, levels)

    def test_decohere_takes_exact_and_integer_damping(self):
        rho = random_density_operator(4, 0)
        assert np.array_equal(decohere(rho, F(1, 2)).matrix, decohere_levels(rho, [0.5])[0])
        assert np.array_equal(decohere_levels(rho, [0, 1]), decohere_levels(rho, [0.0, 1.0]))

    def test_decohere_levels_is_read_only(self):
        stack = decohere_levels(random_density_operator(4, 1), [0.0, 1.0])
        with pytest.raises(ValueError):
            stack[0, 0, 1] = 0.0
