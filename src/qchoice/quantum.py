"""Finite-dimensional event calculus over composite choice spaces.

The model works on a tensor product of two registers: a *choice* register
whose basis states index the options an agent can pick, and an
*inconclusive* register holding the fuzzy context (hesitation, framing,
everything not pinned down by the choice itself).  A prospect is a choice
index dressed with amplitudes over the inconclusive register; its
probability under a state ``rho`` splits into

* a diagonal part ``f`` — the classical, utility-like contribution, and
* an off-diagonal part ``q`` — the interference contribution,

with ``p = f + q`` holding identically.  The functions here build density
operators, prospect states and their POVM effects, evaluate that split,
renormalize families of prospects, and damp interference with a
decoherence knob.

Basis convention: the composite index of choice ``n`` with inconclusive
component ``alpha`` is ``n * b_dim + alpha`` (row-major, choice register
first), spelled once in ``_block``.  ``prospect_state``,
``prospect_projector`` and ``prospect_projector_stack`` place a prospect's
coefficients by it (``_embed``), so a prospect state equals
``np.kron(e_n, b)`` for the basis vector ``e_n`` of the choice register.

The work is done by array kernels over stacks of states: ``split`` (the
``p/f/q`` split of every choice index), ``normalize`` (family
renormalization along the last axis), ``decohere_levels`` (one damped copy
per damping level) and ``trace_rule`` (``Tr(rho A)``).  The scalar API
(``prospect_probability``, ``normalize_prospect_set``, ``decohere``,
``EventOperator.expectation``) wraps them, one state, level or family at
a time, so a batched caller and a scalar caller get bitwise-identical
numbers.  Batched callers hand over stacks of at most ``STACK_ENTRIES``
complex entries (``stacks``): as many ``d x d`` states, levels or draws as
fit, so memory stays flat however long the sweep or suite is, and a small
register takes few kernel calls.  The budget bounds the stack of states,
not the work on it: ``verify_quantum_identity`` holds about six arrays of
a stack's size at once, a traced peak of about 6 MiB.
"""
from __future__ import annotations

import reprlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _checks
from ._checks import HERMITIAN_TOL, IDENTITY_TOL, IMAG_TOL, NORM_TOL
from ._checks import PSD_EIGENVALUE_SLACK, TRACE_TOL
from .errors import DegenerateSetError, NormalizationError, ValidationError

#: Default cap on composite dimension for the random generators.
DEFAULT_DIM_CAP = 64
#: Complex entries (1 MiB) in one stack of ``d x d`` states handed to the
#: kernels: 16 states at ``DEFAULT_DIM_CAP``, so the largest register still
#: gets 16 states a stack; at dims (4,3) a stack holds 455.  It bounds the
#: states only: an identity-suite stack holds about six arrays of that size.
STACK_ENTRIES = 16 * DEFAULT_DIM_CAP * DEFAULT_DIM_CAP


def stacks(count: int, dim: int) -> Iterator[slice]:
    """Slices of ``range(count)`` for stacks of ``dim x dim`` states: as many
    per stack as ``STACK_ENTRIES`` holds (``_checks.chunks``), at least one."""
    return _checks.chunks(count, STACK_ENTRIES // (dim * dim))


def _as_array(values, *, what: str, ndim: int) -> np.ndarray:
    """``values`` as a read-only complex array: a non-empty vector for
    ``ndim`` 1, a non-empty square Hermitian matrix (to 1e-12) for 2, with
    finite entries.  Strings, bools and ragged nesting are refused."""
    try:
        arr = np.asarray(values)
        arr = arr.astype(np.complex128, copy=False) if arr.dtype.kind in "iufcO" else None
    except (TypeError, ValueError):
        arr = None
    if arr is None:
        raise ValidationError(f"{what} must be an array of numbers, got {reprlib.repr(values)}")
    if arr.ndim != ndim or len(set(arr.shape)) > 1:
        shape = "one-dimensional" if ndim == 1 else "a square matrix"
        raise ValidationError(f"{what} must be {shape}, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{what} must not be empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if ndim == 2:
        herm_defect = float(np.abs(arr - arr.T.conj()).max())
        if herm_defect > HERMITIAN_TOL:
            raise ValidationError(
                f"{what} is not Hermitian: max |A - A^dagger| = {herm_defect:.3e} "
                f"exceeds {HERMITIAN_TOL:.0e}"
            )
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DensityOperator:
    """A density operator: Hermitian, unit-trace, positive semi-definite.

    All three properties are checked at construction (Hermitian symmetry
    and trace to 1e-12, eigenvalues allowed down to -1e-10 to absorb
    rounding).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_array(self.matrix, what="density operator", ndim=2)
        trace = complex(np.trace(arr))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"density operator trace must be 1, got {trace.real!r} "
                f"(defect {abs(trace - 1.0):.3e} exceeds {TRACE_TOL:.0e})"
            )
        eigmin = float(np.linalg.eigvalsh(arr)[0])
        if eigmin < PSD_EIGENVALUE_SLACK:
            raise ValidationError(
                f"density operator has negative eigenvalue {eigmin:.3e} "
                f"below slack {PSD_EIGENVALUE_SLACK:.0e}"
            )
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityOperator":
        """``|psi><psi|`` for array-like amplitudes ``psi``: one-dimensional,
        finite and of unit norm within 1e-12 (else ``NormalizationError``)."""
        psi = _as_array(amplitudes, what="pure state amplitudes", ndim=1)
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"pure density operator needs a unit vector; norm is {norm!r}"
            )
        return cls(np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class EventOperator:
    """An event: a POVM effect, Hermitian with eigenvalues in [0, 1] up to
    slack (-1e-10).  An orthogonal projector passes the same checks; a
    prospect operator passes only if its coefficients' squared norm is <= 1.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_array(self.matrix, what="event operator", ndim=2)
        eigs = np.linalg.eigvalsh(arr)
        if float(eigs[0]) < PSD_EIGENVALUE_SLACK:
            raise ValidationError(
                f"event operator has negative eigenvalue {float(eigs[0]):.3e}"
            )
        if float(eigs[-1]) > 1.0 - PSD_EIGENVALUE_SLACK:
            raise ValidationError(
                f"event operator has eigenvalue {float(eigs[-1]):.6f} above 1"
            )
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def expectation(self, rho: DensityOperator) -> float:
        """``Tr(rho A)`` — the probability of the event under ``rho``."""
        if rho.dim != self.dim:
            raise ValidationError(
                f"dimension mismatch: event is {self.dim}-dimensional, "
                f"state is {rho.dim}-dimensional"
            )
        return float(trace_rule(rho.matrix, self.matrix))


@dataclass(frozen=True)
class Prospect:
    """A choice option dressed with inconclusive-register amplitudes.

    ``choice_index`` picks the basis state of the choice register;
    ``b_coeffs`` are the (possibly unnormalized) amplitudes over the
    inconclusive register.  With normalized coefficients the prospect
    state is a unit vector and probabilities land in [0, 1]; past unit
    norm there is no event operator.  The index must be a non-negative
    integer (numpy integers included, ``bool`` excluded), stored as ``int``.
    """

    choice_index: int
    b_coeffs: np.ndarray

    def __post_init__(self) -> None:
        index = _checks.count(self.choice_index, what="choice index")
        object.__setattr__(self, "choice_index", index)
        arr = _as_array(self.b_coeffs, what="inconclusive coefficients", ndim=1)
        object.__setattr__(self, "b_coeffs", arr)

    @property
    def b_dim(self) -> int:
        return int(self.b_coeffs.size)


@dataclass(frozen=True)
class ProbabilityTriple:
    """The probability of one prospect with its diagonal/off-diagonal split.

    ``p`` is the full event probability, ``f`` the diagonal (utility-like)
    part and ``q`` the interference part.  Each is a finite real (not
    ``bool``) kept as ``_checks.real`` returns it; ``p = f + q`` is enforced
    to 1e-12, except for the triples of ``prospect_probability`` and
    ``normalize_prospect_set``, which ``split`` and ``normalize`` guarantee.
    """

    p: float
    f: float
    q: float

    def __post_init__(self) -> None:
        for c in "pfq":
            object.__setattr__(self, c, _checks.real(getattr(self, c), what=f"probability component {c}"))
        defect = abs(self.p - (self.f + self.q))
        if defect > IDENTITY_TOL:
            raise ValidationError(
                f"probability split is inconsistent: |p - (f + q)| = {defect:.3e} "
                f"exceeds {IDENTITY_TOL:.0e}"
            )


def _fit(prospect: Prospect, dims, shape=None, within: str = "") -> tuple[int, int]:
    """``dims`` through ``_checks.register``, then ``prospect`` against it."""
    n_dim, b_dim = dims = _checks.register(dims, shape, within=within)
    if prospect.b_dim != b_dim:
        raise ValidationError(
            f"prospect carries {prospect.b_dim} inconclusive coefficients "
            f"but the register has dimension {b_dim}"
        )
    if prospect.choice_index >= n_dim:
        raise ValidationError(
            f"choice index {prospect.choice_index} out of range for "
            f"{n_dim} choice states"
        )
    return dims


def _block(choice_index: int, b_dim: int) -> slice:
    """The composite indices of choice ``choice_index``: the basis convention."""
    return slice(choice_index * b_dim, (choice_index + 1) * b_dim)


def _embed(coeffs: np.ndarray, choice_index: int, dims: tuple[int, int]) -> np.ndarray:
    """Composite vectors, zero outside ``_block(choice_index, b_dim)``,
    which holds ``coeffs`` (shape ``(..., b_dim)``)."""
    n_dim, b_dim = dims
    states = np.zeros(coeffs.shape[:-1] + (n_dim * b_dim,), dtype=np.complex128)
    states[..., _block(choice_index, b_dim)] = coeffs
    return states


def prospect_state(prospect: Prospect, n_dim: int, b_dim: int) -> np.ndarray:
    """Embed a prospect into the composite space ``n_dim * b_dim``.

    The result is ``|n> (x) sum_alpha b_alpha |alpha>`` as a read-only
    complex vector: the coefficients occupy the block of entries belonging
    to choice index ``n`` and every other entry is zero.  Not normalized
    unless ``b_coeffs`` is.
    """
    dims = _fit(prospect, (n_dim, b_dim))
    amp = _embed(prospect.b_coeffs, prospect.choice_index, dims)
    amp.setflags(write=False)
    return amp


def prospect_projector(prospect: Prospect, n_dim: int, b_dim: int) -> EventOperator:
    """Event operator ``|pi_n><pi_n|`` of the embedded prospect state.

    A POVM effect, not idempotent, for coefficients of squared norm below
    1; above 1 its eigenvalue passes 1 and ``EventOperator`` refuses it.
    """
    dims = _fit(prospect, (n_dim, b_dim))
    matrix = prospect_projector_stack(prospect.b_coeffs[None], prospect.choice_index, dims)[0]
    return EventOperator(matrix)


def prospect_projector_stack(
    coeffs: np.ndarray, choice_index: int, dims: tuple[int, int]
) -> np.ndarray:
    """``|pi_n><pi_n|`` of one choice index for each row of ``coeffs``.

    ``coeffs`` is a ``(B, b_dim)`` stack of inconclusive coefficients; the
    result is a ``(B, d, d)`` stack of full projectors (not validated),
    matrix ``k`` belonging to ``Prospect(choice_index, coeffs[k])``.  Only
    ``dims`` is checked (``_checks.register``).
    """
    states = _embed(coeffs, choice_index, _checks.register(dims))
    return states[:, :, None] * states.conj()[:, None, :]


def trace_rule(rhos, events) -> np.ndarray:
    """``Tr(rho A)`` for broadcast ``(..., d, d)`` stacks of states and events.

    One ``matmul`` and one ``trace`` per pair of matrices, over the full
    ``d x d`` operators.  An imaginary residue above 1e-10 in any value
    raises.  Returns the real parts, shaped like the broadcast stack.
    """
    values = np.trace(np.matmul(rhos, events), axis1=-2, axis2=-1)
    residue = np.abs(values.imag)
    if residue.size and residue.max() > IMAG_TOL:
        worst = float(values.imag.flat[np.argmax(residue)])
        raise ValidationError(
            f"event expectation has imaginary part {worst:.3e}; "
            "operator inputs are inconsistent"
        )
    return values.real


def split(
    rhos, b, dims: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``p``, ``f`` and ``q`` of every choice index for a stack of states.

    ``rhos`` is a ``(B, d, d)`` stack of density operators with
    ``d = n_dim * b_dim``; it is not re-validated, so build it from
    validated operators.  ``b`` holds inconclusive coefficients: one
    ``(b_dim,)`` vector shared by the stack, or a ``(B, b_dim)`` stack of
    them.  Returns three ``(B, n_dim)`` arrays whose entry ``[k, n]``
    belongs to ``Prospect(n, b)`` under ``rhos[k]``.

    The stack is viewed as ``(B, n, b, n, b)`` and the diagonal choice
    blocks ``<n alpha|rho|n beta>`` are taken with ``einsum``.  Weighted by
    ``conj(b_alpha) b_beta``, the block's terms give ``p`` (all terms: the
    quadratic form ``<b|block|b>``), ``f`` (the diagonal terms) and ``q``
    (the off-diagonal terms), each summed on its own.  For Hermitian
    states the sums are real; an imaginary residue above 1e-10 raises, as
    does ``|p - (f + q)|`` above 1e-12 or not finite.
    """
    rhos = np.asarray(rhos, dtype=np.complex128)
    n_dim, b_dim = _checks.register(
        dims, rhos.shape[1:], within=f"a state stack of shape {rhos.shape}"
    )
    count = rhos.shape[0]
    if count == 0:
        raise ValidationError("cannot split an empty state stack")
    coeffs = np.asarray(b, dtype=np.complex128)
    if coeffs.shape not in ((b_dim,), (count, b_dim)):
        raise ValidationError(
            f"inconclusive coefficients of shape {coeffs.shape} do not fit "
            f"{count} states with inconclusive dimension {b_dim}"
        )
    blocks = np.einsum(
        "inanb->inab", rhos.reshape(count, n_dim, b_dim, n_dim, b_dim)
    )
    weights = coeffs.conj()[..., :, None] * coeffs[..., None, :]
    terms = np.multiply(blocks, weights.reshape(-1, 1, b_dim, b_dim), order="C")
    # Flatten each block; its diagonal sits at every (b_dim + 1)-th entry.
    # Every sum runs along the last axis of a C-ordered array, so a row's
    # result does not depend on how many rows share the call.
    terms = terms.reshape(count, n_dim, b_dim * b_dim)
    diagonal = slice(None, None, b_dim + 1)
    off_diagonal = terms.copy()
    off_diagonal[..., diagonal] = 0.0
    pfq = np.stack(
        [
            terms.sum(axis=-1),
            np.ascontiguousarray(terms[..., diagonal]).sum(axis=-1),
            off_diagonal.sum(axis=-1),
        ]
    )
    residue = np.abs(pfq.imag)
    if residue.max() > IMAG_TOL:
        worst = int(np.argmax(residue))
        raise ValidationError(
            f"{'pfq'[worst // (residue.size // 3)]} has imaginary residue "
            f"{pfq.imag.flat[worst]:.3e} above {IMAG_TOL:.0e}; the state or "
            "coefficients are inconsistent"
        )
    p, f, q = pfq.real
    defect = np.abs(p - (f + q)).max()
    if not defect <= IDENTITY_TOL:  # a non-finite p, f or q fails it too
        raise ValidationError(
            f"internal identity violated: |p - (f + q)| = {defect:.3e}"
        )
    return p, f, q


def normalize(p, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Renormalize families of raw ``p`` and ``f`` along the last axis.

    Each family (one row) has its ``p`` values rescaled to sum to 1 and
    its ``f`` values likewise; the interference parts come back as
    ``q' = p' - f'``, which sum to zero by construction.  Raw values below
    -1e-12 raise ``ValidationError``; a family whose clipped ``p`` or ``f``
    total is not positive raises ``DegenerateSetError``.
    """
    p = np.asarray(p, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if p.shape != f.shape:
        raise ValidationError(f"p and f shapes differ: {p.shape} vs {f.shape}")
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValidationError("cannot normalize an empty prospect family")
    slack = _checks.RAW_PROBABILITY_SLACK
    if min(p.min(), f.min()) < -slack:
        worst = np.argmax((p < -slack) | (f < -slack))
        raise ValidationError(
            "raw probabilities must be non-negative, got "
            f"p={float(p.flat[worst])!r}, f={float(f.flat[worst])!r}"
        )
    p = np.maximum(p, 0.0)
    f = np.maximum(f, 0.0)
    p_total = p.sum(axis=-1, keepdims=True)
    f_total = f.sum(axis=-1, keepdims=True)
    if p_total.min() <= 0.0 or f_total.min() <= 0.0:
        raise DegenerateSetError(
            "prospect family is degenerate: total p and total f must be positive"
        )
    p_n = p / p_total
    f_n = f / f_total
    return p_n, f_n, p_n - f_n


def decohere_levels(rho: DensityOperator, levels) -> np.ndarray:
    """One damped copy of ``rho`` per damping level, as a ``(L, d, d)`` stack.

    Copy ``k`` has every off-diagonal element multiplied by
    ``1 - levels[k]`` and the diagonal of ``rho`` copied unchanged.  Each
    level must lie in [0, 1].  The stack is returned read-only and is not
    re-validated: each copy is the convex mixture ``(1 - d) rho + d
    diag(rho)`` of two density operators, so it is Hermitian (conjugate
    pairs are scaled by the same real factor), keeps the trace of ``rho``
    exactly (the diagonal is copied) and is positive semi-definite.
    """
    levels = np.asarray(levels)
    if levels.dtype.kind not in "iuf":  # bool, str, object and complex are not levels
        raise ValidationError(f"damping levels must be real numbers, got dtype {levels.dtype}")
    levels = levels.astype(np.float64, copy=False)
    if levels.ndim != 1 or levels.size == 0:
        raise ValidationError(
            f"damping levels must form a non-empty vector, got shape {levels.shape}"
        )
    outside = ~((levels >= 0.0) & (levels <= 1.0))
    if outside.any():
        raise ValidationError(
            f"damping must lie in [0, 1], got {float(levels[np.argmax(outside)])!r}"
        )
    damped = rho.matrix * (1.0 - levels)[:, None, None]
    diag = np.arange(rho.dim)
    damped[:, diag, diag] = rho.matrix[diag, diag]
    damped.setflags(write=False)
    return damped


def prospect_probability(
    rho: DensityOperator,
    prospect: Prospect,
    dims: tuple[int, int],
) -> ProbabilityTriple:
    """Probability of a prospect under ``rho``, split into ``f`` and ``q``.

    ``dims`` is ``(n_dim, b_dim)`` for the choice and inconclusive
    registers; their product must equal ``rho.dim``.

    One ``split`` call on the choice block of index ``n`` alone, so the
    result equals the matching entry of any batched ``split`` bit for bit.
    Within that block ``f`` sums the diagonal contributions
    ``|b_alpha|^2 <n alpha|rho|n alpha>``, ``q`` the off-diagonal ones
    ``conj(b_alpha) b_beta <n alpha|rho|n beta>`` for ``alpha != beta``,
    and ``p`` is the block's quadratic form ``<b|block|b>``.  An imaginary
    residue above 1e-10 raises, which catches malformed operators early,
    and ``p = f + q`` is asserted to 1e-12.  ``verify quantum-identity``
    checks ``p`` against the independent full-matrix route,
    ``Tr(rho |pi><pi|)`` through ``prospect_projector_stack`` and ``trace_rule``.
    """
    b_dim = _fit(prospect, dims, rho.matrix.shape, f"a {rho.dim}-dimensional state")[1]
    block = _block(prospect.choice_index, b_dim)
    p, f, q = split(rho.matrix[None, block, block], prospect.b_coeffs, (1, b_dim))
    return _checks.trusted(
        ProbabilityTriple, p=float(p[0, 0]), f=float(f[0, 0]), q=float(q[0, 0])
    )


def normalize_prospect_set(
    triples: list[ProbabilityTriple] | tuple[ProbabilityTriple, ...],
) -> list[ProbabilityTriple]:
    """Renormalize a family of prospect probabilities into a distribution.

    A one-row call to ``normalize``: ``p`` values are rescaled to sum to 1
    and ``f`` values likewise; the interference parts are recomputed as
    ``q' = p' - f'``, which makes them sum to zero by construction (the
    alternation property: positive and negative interference across a
    complete family cancels).  ``triples`` goes through ``_checks.column``;
    an empty family, or an entry that is not a ``ProbabilityTriple``,
    raises ``ValidationError``.
    """
    triples = _checks.column(triples, what="prospect probability")
    for t in triples:
        if not isinstance(t, ProbabilityTriple):
            raise ValidationError(f"prospect probability {reprlib.repr(t)} is not a ProbabilityTriple")
    p, f, q = normalize([[t.p for t in triples]], [[t.f for t in triples]])
    return [
        _checks.trusted(ProbabilityTriple, p=a, f=b, q=c)
        for a, b, c in zip(p[0].tolist(), f[0].tolist(), q[0].tolist())
    ]


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians: the real parts are drawn first, then the imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sample_inconclusive(b_dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Draw random inconclusive amplitudes, uniform on the unit sphere.

    Components are independent standard complex Gaussians normalized to
    unit length, which makes the distribution invariant under unitary
    changes of basis.  Deterministic for a fixed integer seed.
    """
    b_dim = _checks.count(b_dim, what="inconclusive dimension", minimum=1)
    rng = _checks.rng(seed)
    while True:
        raw = _complex_gaussian(rng, b_dim)
        norm = np.linalg.norm(raw)
        if norm > 0.0:  # zero draw has probability zero, but stay safe
            return raw / norm


def decohere(
    rho: DensityOperator,
    damping: float,
    block_dims: tuple[int, int] | None = None,
) -> DensityOperator:
    """Damp every off-diagonal element of ``rho`` by ``1 - damping``.

    Equivalent to the convex mixture ``(1 - damping) * rho + damping *
    diag(rho)``, so the result stays a valid density operator for any
    ``damping`` in [0, 1].  Interference parts of prospect probabilities
    scale by exactly ``1 - damping``; at ``damping = 1`` only the
    classical diagonal survives.

    ``damping`` must be a real number (``_checks.real``: strings and
    bools are refused).  ``block_dims``, when given, is checked as the
    register of ``rho`` (``_checks.register``); the damping itself is
    uniform across all off-diagonal entries, inside and between choice
    blocks alike.

    A one-level call to ``decohere_levels``.  Sweeps call that kernel
    directly on the stacks of levels that ``stacks`` cuts and feed each
    damped stack to ``split`` and ``normalize``, as ``qchoice simulate``
    does, so each stack of damped states stays within ``STACK_ENTRIES``
    (a traced peak of about 1.5 MiB for 50 levels at dims (8,8)).
    """
    if block_dims is not None:
        within = f"a {rho.dim}-dimensional operator"
        _checks.register(block_dims, rho.matrix.shape, within=within, what="block dimensions")
    damping = _checks.real(damping, what="damping")
    return _checks.trusted(DensityOperator, matrix=decohere_levels(rho, [float(damping)])[0])


def _check_dim(dim: int) -> None:
    if _checks.count(dim, what="dimension", minimum=1) > DEFAULT_DIM_CAP:
        raise ValidationError(f"dimension {dim} is above the cap of {DEFAULT_DIM_CAP}")


def _densities_from_gaussians(g: np.ndarray) -> np.ndarray:
    """``G G^dagger / Tr(G G^dagger)`` for a ``(B, dim, dim)`` stack, read-only.

    Valid density operators by construction, so nothing is re-checked:
    ``G G^dagger`` is positive semi-definite, symmetrizing each product
    makes it Hermitian bit for bit, and dividing by the trace leaves that
    within a few roundings of 1.
    """
    m = np.matmul(g, np.swapaxes(g.conj(), -1, -2))
    m = (m + np.swapaxes(m.conj(), -1, -2)) / 2.0
    m = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    m.setflags(write=False)
    return m


def random_density_operator(dim: int, seed: int | np.random.Generator) -> DensityOperator:
    """Random full-rank density operator.

    Built as ``G G^dagger`` from a complex Gaussian ``dim x dim`` matrix,
    symmetrized and trace-normalized, so it is a valid density operator
    by construction and is not re-checked.
    """
    _check_dim(dim)
    g = _complex_gaussian(_checks.rng(seed), (dim, dim))
    return _checks.trusted(DensityOperator, matrix=_densities_from_gaussians(g[None])[0])


def random_prospect_draws(
    count: int,
    dims: tuple[int, int],
    seed: int | np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random full-rank states with inconclusive amplitudes.

    Returns a ``(count, d, d)`` stack of density operators and a
    ``(count, b_dim)`` stack of coefficient vectors, ``d = n_dim * b_dim``.
    Draw ``k`` takes the state's Gaussians and then the amplitudes from
    the one stream, so the result equals ``count`` alternating calls of
    ``random_density_operator(d, rng)`` and ``sample_inconclusive(b_dim,
    rng)`` bit for bit: one ``standard_normal`` call gives one row per draw,
    each amplitude row is divided by its 1-D ``np.linalg.norm`` (a batched
    ``norm(axis=1)`` can differ in the last bit), and a zero row, which
    ``sample_inconclusive`` redraws, rewinds the stream to the loop below.
    """
    count = _checks.count(count, what="draw count", minimum=1)
    n_dim, b_dim = _checks.register(dims)
    dim = n_dim * b_dim
    _check_dim(dim)
    rng = _checks.rng(seed)
    start = rng.bit_generator.state
    sq = dim * dim
    z = rng.standard_normal((count, 2 * sq + 2 * b_dim))
    raw = z[:, 2 * sq : 2 * sq + b_dim] + 1j * z[:, 2 * sq + b_dim :]
    norms = np.array([np.linalg.norm(row) for row in raw])
    if norms.min() > 0.0:
        gaussians = (z[:, :sq] + 1j * z[:, sq : 2 * sq]).reshape(count, dim, dim)
        return _densities_from_gaussians(gaussians), raw / norms[:, None]
    rng.bit_generator.state = start
    draws = [(_complex_gaussian(rng, (dim, dim)), sample_inconclusive(b_dim, rng)) for _ in range(count)]
    return _densities_from_gaussians(np.array([g for g, _ in draws])), np.array([a for _, a in draws])
