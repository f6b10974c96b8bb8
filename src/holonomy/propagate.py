"""Unitary integrators for matrix Schroedinger equations i dM/dt = K(t) M.

Two fixed-grid steppers are provided, both of which are exactly unitary at
the step level because each step is the exponential of a Hermitian generator:

* ``midpoint_exp``: M_{k+1} = exp(-i h K(t_mid)) M_k, second order;
* ``magnus4``: fourth-order Magnus step built from the two Gauss-Legendre
  nodes of the step, with the leading commutator correction.

A 2x2 step is built from Pauli components alone.  With K = k0 + k.sigma at
the nodes, the ``magnus4`` commutator is a cross product,
[k2.sigma, k1.sigma] = 2i (k2 x k1).sigma, so the step generator is
a0 + a.sigma with a0 = h (k1_0 + k2_0)/2 and
a = h (k1 + k2)/2 + (sqrt(3)/6) h^2 (k2 x k1), and its exponential is the
closed form e^{-i a0} (cos r - i (sin r / r) a.sigma), r = |a|, whose
eigenvalues a0 -+ r give the |K| h check; no matrix product and no
eigendecomposition is needed.  Any other step generator is eigendecomposed
once, by ``linalg.eigh_many``: its eigenvalues give the |K| h check and its
eigenvectors the step exponential.  The step factors S_k are built as one
(d, d, m) stack with the stack axis innermost, the layout of
``linalg._stack_matmul``, which forms the commutators and the products
V e^{-i Lambda} V^dag above 2x2 too.

The generator is evaluated once per node set (``_eval_nodes``), and the
steps are built from the checked values (``_steps_at_nodes``); a caller
that integrates one generator under many transformations, as the gauge
test does, evaluates it once and builds the steps of each transformed set
of values.

Two products of the factors follow, with the later factor always on the
left.  ``propagate`` returns a trace of every prefix
M(t_k) = S_k ... S_1 M(t_0), from one log-depth scan
(``linalg._ordered_products``).  ``propagate_final`` returns M(t_end) alone,
from a pairwise tree of m - 1 products (``linalg._tree_product``), for
callers that read nothing but the endpoint.  Grid refinement is the
caller's responsibility; the trace carries the largest per-step |K| h.

A level's holonomy Gamma^n is the problem K = -A^n, G(t_0) = 1, and its
coefficient matrices u^n are K = E^n - A^n (``lewis_riesenfeld_u``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ResolutionError
from .frames import FrameField
from .linalg import (
    HERMITICITY_TOL,
    _ordered_products,
    _stack_last,
    _stack_matmul,
    _tree_product,
    eigh_many,
    require_hermitian,
    require_unitary,
)

METHODS = ("midpoint_exp", "magnus4")
STEP_NORM_LIMIT = 1.0  # reject steps with |K| h beyond this

_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)


@dataclass(frozen=True)
class MatrixOdeProblem:
    """i dM/dt = K(t) M with Hermitian K(t) and unitary initial value.

    ``generator`` is batched: it maps node times (m,) to the stack K (m, l, l).
    """

    generator: Callable[[np.ndarray], np.ndarray]
    initial: np.ndarray
    times: np.ndarray  # (m,) strictly increasing output grid

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0):
            raise DomainError("time grid must be strictly increasing with >= 2 points")
        initial = require_unitary(np.asarray(self.initial, dtype=complex), name="initial value")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "initial", initial)


@dataclass(frozen=True)
class PropagatorTrace:
    """Unitary matrices M(t_k) along the integration grid."""

    times: np.ndarray       # (m,)
    matrices: np.ndarray    # (m, d, d)
    method: str
    max_step_norm: float    # max over steps of |K| h (spectral norm)

    @property
    def num_samples(self) -> int:
        return len(self.times)

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]


def _check_generator_batch(ks: np.ndarray, initial: np.ndarray) -> None:
    if ks.shape[1] != initial.shape[0]:
        raise DomainError(f"generator is {ks.shape[1]}x{ks.shape[1]}, initial value has {initial.shape[0]} rows")
    require_hermitian(ks, tol=10 * HERMITICITY_TOL, name="generator")


def _eval_nodes(gen: Callable[[np.ndarray], np.ndarray], ts: np.ndarray) -> np.ndarray:
    """Evaluate a generator once on a node set: ts (m,) -> (m, l, l)."""
    ks = np.asarray(gen(ts), dtype=complex)
    if ks.ndim != 3 or ks.shape[0] != len(ts) or ks.shape[1] != ks.shape[2]:
        raise DomainError(f"generator returned shape {ks.shape} for {len(ts)} nodes, expected ({len(ts)}, l, l)")
    return ks


def _node_sets(times: np.ndarray, method: str) -> tuple[list[np.ndarray], np.ndarray]:
    """The node times of ``method`` on a grid, one (m,) array per node set, and the step sizes (m,)."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {METHODS}")
    hs = np.diff(times)
    mids = 0.5 * (times[:-1] + times[1:])
    if method == "midpoint_exp":
        return [mids], hs
    return [mids - _GAUSS_OFFSET * hs, mids + _GAUSS_OFFSET * hs], hs


def _step_factors(problem: MatrixOdeProblem, method: str) -> tuple[np.ndarray, float]:
    """The step exponentials S_k = exp(-i heff_k) as a stack (d, d, m), stack axis innermost, and max |K| h."""
    nodes, hs = _node_sets(problem.times, method)
    return _steps_at_nodes(problem, [_eval_nodes(problem.generator, ts) for ts in nodes], hs)


def _steps_at_nodes(problem: MatrixOdeProblem, ks: Sequence[np.ndarray], hs: np.ndarray) -> tuple[np.ndarray, float]:
    """``_step_factors`` from the generator's values on the node sets of ``_node_sets``, each checked first.

    One node set is the midpoint rule, heff = h K(t_mid); two are magnus4,
    heff = h (K1 + K2)/2 - i (sqrt(3)/12) h^2 [K2, K1].  A 2x2 heff is formed
    from Pauli components, K = k0 + k.sigma, where the commutator is
    [k2.sigma, k1.sigma] = 2i (k2 x k1).sigma.
    """
    for k in ks:
        _check_generator_batch(k, problem.initial)
    if ks[0].shape[1] == 2:
        comps = [_pauli_components(k) for k in ks]
        if len(comps) == 1:
            k0, kv = comps[0]
            return _doublet_steps(hs * k0, hs * kv)
        (k10, k1), (k20, k2) = comps
        c = (np.sqrt(3.0) / 6.0) * hs**2
        cross = np.array([
            k2[1] * k1[2] - k2[2] * k1[1],
            k2[2] * k1[0] - k2[0] * k1[2],
            k2[0] * k1[1] - k2[1] * k1[0],
        ])
        return _doublet_steps(0.5 * hs * (k10 + k20), 0.5 * hs * (k1 + k2) + c * cross)

    if len(ks) == 1:
        heff = _stack_last(ks[0]) * hs
    else:
        k1, k2 = _stack_last(ks[0]), _stack_last(ks[1])
        comm = _stack_matmul(k2, k1) - _stack_matmul(k1, k2)
        heff = 0.5 * (k1 + k2) * hs - 1j * (np.sqrt(3.0) / 12.0) * hs**2 * comm
    # one decomposition per step: its eigenvalues give |K| h, its eigenvectors the step exponential
    step_eigs, step_vecs = eigh_many(np.moveaxis(heff, -1, 0))
    step_norms = np.max(np.abs(step_eigs), axis=1)
    max_step_norm = _check_step_norms(step_norms)
    vecs = _stack_last(step_vecs)
    steps = _stack_matmul(vecs * np.exp(-1j * step_eigs.T), np.conj(np.swapaxes(vecs, 0, 1), order="C"))
    return steps, max_step_norm


def _check_step_norms(step_norms: np.ndarray) -> float:
    """max |K| h over the steps, or ResolutionError naming the worst step if it reaches STEP_NORM_LIMIT."""
    max_step_norm = float(np.max(step_norms))
    if max_step_norm >= STEP_NORM_LIMIT:
        worst = int(np.argmax(step_norms))
        raise ResolutionError(
            f"step {worst} violates |K| h < {STEP_NORM_LIMIT}: got {max_step_norm:.3f}; refine the grid"
        )
    return max_step_norm


def _pauli_components(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k0, k) of a stack (m, 2, 2) of Hermitian K = k0 + k.sigma, as (m,) and (3, m).

    Read from the diagonal and the lower entry K10 = kx + i ky only, as
    ``linalg._doublet_components`` reads them.
    """
    a, c, b = ks[:, 0, 0].real, ks[:, 1, 1].real, ks[:, 1, 0]
    return 0.5 * (a + c), np.array([b.real, b.imag, 0.5 * (a - c)])


def _doublet_steps(a0: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, float]:
    """The step exponentials exp(-i (a0 + a.sigma)) of 2x2 steps (2, 2, m) in closed form, and max |K| h.

    a0 is (m,) and a = (ax, ay, az) is (3, m).  With r = hypot(az, |ax + i ay|)
    the eigenvalues are a0 -+ r, so |K| h = |a0| + r (the largest |eigenvalue|,
    as ``eigh_many`` gives it), and

        exp(-i (a0 + a.sigma)) = e^{-i a0} (cos r - i (sin r / r) a.sigma),

    where sin r / r = 1 at r = 0.
    """
    b = a[0] + 1j * a[1]
    radius = np.hypot(a[2], np.abs(b))
    max_step_norm = _check_step_norms(np.abs(a0) + radius)
    sinc = np.divide(np.sin(radius), radius, out=np.ones_like(radius), where=radius > 0)
    phase = np.exp(-1j * a0)
    rotation = -1j * sinc * phase
    cos = np.cos(radius) * phase
    steps = np.empty((2, 2, len(a0)), dtype=complex)
    steps[0, 0] = cos + rotation * a[2]
    steps[1, 1] = cos - rotation * a[2]
    steps[1, 0] = rotation * b
    steps[0, 1] = rotation * np.conj(b)
    return steps, max_step_norm


def propagate(problem: MatrixOdeProblem, method: str = "magnus4") -> PropagatorTrace:
    """Integrate i dM/dt = K(t) M over the problem grid: M(t_k) at every grid time."""
    steps, max_step_norm = _step_factors(problem, method)
    out = _ordered_products(steps, problem.initial)
    return PropagatorTrace(times=problem.times.copy(), matrices=out, method=method, max_step_norm=max_step_norm)


def propagate_final(problem: MatrixOdeProblem, method: str = "magnus4") -> np.ndarray:
    """M(t_end) alone, the ``.final`` of ``propagate(problem, method)``, from m - 1 step products."""
    steps, _ = _step_factors(problem, method)
    return _tree_product(steps, problem.initial)


def lewis_riesenfeld_u(
    a: Callable[[np.ndarray], np.ndarray],
    e: Callable[[np.ndarray], np.ndarray],
    u0: np.ndarray,
    times: np.ndarray,
    method: str = "magnus4",
) -> PropagatorTrace:
    """Coefficient matrices u^n(t): i du/dt = [E^n(t) - A^n(t)] u, u(t_0) = u0, from batched A and E."""
    problem = MatrixOdeProblem(generator=lambda nodes: e(nodes) - a(nodes), initial=u0, times=times)
    return propagate(problem, method)


def _check_assembly(
    frame_fields: Sequence[FrameField],
    traces: Sequence[PropagatorTrace],
    require_cover: bool = True,
) -> np.ndarray:
    if len(frame_fields) != len(traces) or not frame_fields:
        raise DomainError("need one trace per frame field")
    dim = frame_fields[0].dim
    total = sum(f.multiplicity for f in frame_fields)
    if require_cover and total != dim:
        raise DomainError(f"levels cover multiplicity {total}, expected the full dimension {dim}")
    ts = traces[0].times
    for f, tr in zip(frame_fields, traces):
        if len(tr.times) != len(ts) or np.max(np.abs(tr.times - ts)) > 1e-12:
            raise DomainError("traces must share one time grid")
        if len(f.times) != len(ts) or np.max(np.abs(f.times - ts)) > 1e-12:
            raise DomainError("frame fields must share the trace time grid")
    return ts


def assemble_evolution(
    frame_fields: Sequence[FrameField],
    u_traces: Sequence[PropagatorTrace],
) -> PropagatorTrace:
    """U(t) = sum_n sum_ab u^n_ab(t) |n,a;t><n,b;0| from per-level data."""
    ts = _check_assembly(frame_fields, u_traces)
    dim = frame_fields[0].dim
    out = np.zeros((len(ts), dim, dim), dtype=complex)
    for f, tr in zip(frame_fields, u_traces):
        f0 = f.frames[0]
        out += np.einsum("kia,kab,jb->kij", f.frames, tr.matrices, f0.conj())
    return PropagatorTrace(
        times=ts.copy(),
        matrices=out,
        method=u_traces[0].method,
        max_step_norm=max(tr.max_step_norm for tr in u_traces),
    )


def assemble_V(
    frame_fields: Sequence[FrameField],
    gamma_traces: Sequence[PropagatorTrace],
) -> list[np.ndarray]:
    """Per-level geometric operators V^n(t) = sum_ab Gamma^n_ab(t) |n,a;t><n,b;0|.

    Returns one (m, dim, dim) stack per level; their sum over a full level
    cover is the gauge-invariant V(t).  At t = 0 each V^n is the level
    projector at the starting point.
    """
    _check_assembly(frame_fields, gamma_traces, require_cover=False)
    out = []
    for f, tr in zip(frame_fields, gamma_traces):
        f0 = f.frames[0]
        out.append(np.einsum("kia,kab,jb->kij", f.frames, tr.matrices, f0.conj()))
    return out
