"""Parameter curves, smooth eigenframe transport, and the holonomy of transported frames.

A :class:`Curve` is a time-stamped path through parameter space.  An
:class:`OperatorFamily` maps parameter vectors to Hermitian matrices.
:func:`transport_frames` follows spectral levels along a curve from one
eigendecomposition of the sampled family, shared by the levels, and applies
discrete parallel transport so that the frames vary smoothly.  The transport
is a cumulative product of the polar factors of the raw overlaps, taken in
closed form from one stacked ``polar_many`` and projected back onto the
unitaries by one more.  The connection of such
frames vanishes, so :func:`transport_holonomy` gives their holonomy as the
discrete Wilson line of the frames; the ``phase`` and ``adiabatic`` routes of
a custom family take it from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ResolutionError
from .linalg import (
    _ordered_products,
    eigh_many,
    level_bounds,
    polar_many,
    require_hermitian,
    require_unitary,
)

CYCLIC_ENDPOINT_TOL = 1e-12
MIN_OVERLAP_SINGULAR_VALUE = 0.5
GENERATOR_CONSISTENCY_TOL = 1e-12  # relative: adiabatic._level_holonomies' drive generator against the family


@dataclass(frozen=True)
class Curve:
    """Sampled path theta(t) through an N-dimensional parameter space."""

    times: np.ndarray          # (m,) strictly increasing
    points: np.ndarray         # (m, N)
    cyclic: bool = False
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None  # optional analytic theta: ts (m,) -> (m, N)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.shape[0] != times.shape[0]:
            raise DomainError("times and points must have matching lengths")
        if times.ndim != 1 or len(times) < 2:
            raise DomainError("a curve needs at least two samples")
        if np.any(np.diff(times) <= 0):
            raise DomainError("curve times must be strictly increasing")
        if self.cyclic and np.max(np.abs(points[-1] - points[0])) > CYCLIC_ENDPOINT_TOL:
            raise DomainError("cyclic curve endpoints differ beyond tolerance")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def num_samples(self) -> int:
        return len(self.times)

    @property
    def num_parameters(self) -> int:
        return self.points.shape[1]


def curve_from_function(
    f: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    num_samples: int,
    cyclic: bool = False,
) -> Curve:
    """Sample a batched theta = f(ts), (m,) -> (m, N), on a uniform grid; f becomes the evaluator."""
    times = np.linspace(t0, t1, num_samples)
    points = np.array(f(times), dtype=float)
    if cyclic:
        points[-1] = points[0]
    return Curve(times=times, points=points, cyclic=cyclic, evaluator=f)


@dataclass(frozen=True)
class OperatorFamily:
    """Hermitian operator family I[theta].

    ``evaluator`` is batched: it maps a parameter stack (m, N) to (m, dim, dim).
    """

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        """I at a parameter stack (m, N) -> (m, dim, dim).

        The whole batch is validated at once; each matrix is held to its own scale.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2:
            raise DomainError(f"family parameters must be a stack (m, N), got shape {thetas.shape}")
        values = np.asarray(self.evaluator(thetas), dtype=complex)
        if values.shape != (len(thetas), self.dim, self.dim):
            raise DomainError(
                f"family evaluator returned shape {values.shape} for {len(thetas)} points, "
                f"expected ({len(thetas)}, {self.dim}, {self.dim})"
            )
        return require_hermitian(values, name="family value")


def _expand(thetas: np.ndarray, gens: Sequence[np.ndarray]) -> np.ndarray:
    """sum_i theta^i X_i for a parameter stack (m, N) -> (m, d, d)."""
    if thetas.shape[1] != len(gens):
        raise DomainError(f"theta has {thetas.shape[1]} components, family has {len(gens)} generators")
    # einsum sums over i in order, as sum(theta_i * X_i) does; tensordot's BLAS order rounds differently
    return np.einsum("mn,nij->mij", thetas, np.asarray(gens))


def family_from_generators(generators: Sequence[np.ndarray]) -> OperatorFamily:
    """Family I[theta] = sum_i theta^i X_i from constant Hermitian generators."""
    gens = tuple(require_hermitian(np.asarray(g, dtype=complex), name="generator") for g in generators)
    if not gens:
        raise DomainError("at least one generator is required")
    dim = gens[0].shape[0]
    if any(g.shape != (dim, dim) for g in gens):
        raise DomainError("generators must share one dimension")
    return OperatorFamily(dim=dim, evaluator=lambda thetas: _expand(thetas, gens))


@dataclass(frozen=True)
class FrameField:
    """Per-sample orthonormal frames of one spectral level along a curve."""

    level_index: int
    multiplicity: int
    times: np.ndarray               # (m,)
    frames: np.ndarray              # (m, dim, l)
    eigenvalues: np.ndarray         # (m,) level eigenvalue per sample
    cyclic_misalignment: float | None = None  # aligned transport around a loop
    min_overlap_singular_value: float | None = None  # aligned transport: smallest over successive overlaps

    @property
    def num_samples(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def transport_frames(
    family: OperatorFamily,
    curve: Curve,
    levels: Sequence[int] | None = None,
) -> tuple[FrameField, ...]:
    """Follow spectral levels along a curve, all from one eigendecomposition of the sampled family.

    ``levels`` are 0-based level indices, counted at the first sample
    (default: every level), and checked before the samples are: an index out
    of range is a ``DomainError`` even on a curve with a level crossing.  The
    eigenvalues are clustered into levels by ``level_bounds``, which raises
    ``LevelCrossingError`` at the first sample whose pattern differs.

    Each frame is post-multiplied by the unitary polar factor of its overlap
    with the previous aligned frame (discrete parallel transport); the first
    frame is the eigendecomposition's.  On a cyclic curve each field reports
    the largest entry of the difference between its last and first frame.
    """
    vals, vecs = eigh_many(family(curve.points))
    count = len(level_bounds(vals[:1]))
    levels = tuple(range(count)) if levels is None else tuple(levels)
    for level in levels:
        if not 0 <= level < count:
            raise DomainError(f"level index {level} out of range; the family has {count} levels")
    bounds = level_bounds(vals)

    fields = []
    for level in levels:
        a, b = bounds[level]
        frames, smallest = _parallel_transport(vecs[:, :, a:b])
        fields.append(
            FrameField(
                level_index=level,
                multiplicity=b - a,
                times=curve.times.copy(),
                frames=frames,
                eigenvalues=np.mean(vals[:, a:b], axis=1),
                cyclic_misalignment=float(np.max(np.abs(frames[-1] - frames[0]))) if curve.cyclic else None,
                min_overlap_singular_value=smallest,
            )
        )
    return tuple(fields)


def _parallel_transport(frames: np.ndarray) -> tuple[np.ndarray, float]:
    """Aligned frames from raw ones (m, dim, l), and the smallest overlap singular value.

    Aligning G_k = F_k polar(G_{k-1}^dag F_k)^dag in sequence is a cumulative
    product: polar(V O) = V polar(O) for a unitary V, so G_k = F_k U_k with
    U_k = polar(O_k)^dag U_{k-1} and the raw overlaps O_k = F_{k-1}^dag F_k.
    One stacked ``polar_many`` (closed form for l <= 2) gives every polar(O_k)
    and every smallest singular value.
    """
    overlaps = np.conj(np.swapaxes(frames[:-1], 1, 2)) @ frames[1:]
    polars, smallest = polar_many(overlaps)
    bad = np.flatnonzero(smallest < MIN_OVERLAP_SINGULAR_VALUE)
    if bad.size:
        k = int(bad[0]) + 1
        raise ResolutionError(
            f"curve under-resolved between samples {k - 1} and {k}: "
            f"min overlap singular value {smallest[k - 1]:.3f}"
        )
    steps = np.conj(np.moveaxis(polars, 0, -1).swapaxes(0, 1), order="C")  # (l, l, m - 1), stack axis innermost
    chain = _ordered_products(steps, np.eye(frames.shape[2], dtype=complex))
    # thousands of products drift off the unitaries by roundoff; one stacked polar projects them back
    return frames @ polar_many(chain)[0], float(np.min(smallest))


def transport_holonomy(frames: FrameField) -> np.ndarray:
    """Gamma_k (m, l, l) of aligned frames, where the connection vanishes: the identity for l > 1.

    An Abelian level keeps the link phases of successive frames, exp(-i sum_{j<=k}
    arg(1 + g_{j-1}^dag (g_j - g_{j-1}))): they cancel the roundoff drift of the
    transport chain, and the difference form keeps each link's roundoff at eps*h, not eps.
    """
    m, l = frames.num_samples, frames.multiplicity
    if l > 1:
        return np.broadcast_to(np.eye(l, dtype=complex), (m, l, l))
    g = frames.frames[:, :, 0]
    links = 1 + np.einsum("ki,ki->k", g[:-1].conj(), g[1:] - g[:-1])
    return np.exp(-1j * np.concatenate([[0.0], np.cumsum(np.angle(links))]))[:, None, None]


def apply_gauge(frames: FrameField, v: Callable[[np.ndarray], np.ndarray]) -> FrameField:
    """Post-multiply each frame by a unitary l x l gauge; ``v`` maps ts (m,) -> (m, l, l)."""
    vs = np.asarray(v(frames.times), dtype=complex)
    if vs.shape != (frames.num_samples, frames.multiplicity, frames.multiplicity):
        raise DomainError("gauge dimension does not match level multiplicity")
    require_unitary(vs, name="gauge")
    return FrameField(
        level_index=frames.level_index,
        multiplicity=frames.multiplicity,
        times=frames.times.copy(),
        frames=frames.frames @ vs,
        eigenvalues=frames.eigenvalues.copy(),
    )


def verify_invariant(
    family: OperatorFamily,
    curve: Curve,
    hamiltonians: np.ndarray,
) -> float:
    """Residual max_t |dI/dt - i[I, H]|, a diagnostic for invariant candidates.

    ``hamiltonians`` is the stack H(t_k) at the curve times.  dI/dt is taken
    by central differences over interior samples; the exact invariant
    condition would make the residual vanish up to truncation.
    """
    if curve.num_samples < 3:
        raise ResolutionError("invariant check needs at least 3 samples")
    values = family(curve.points)
    hams = np.asarray(hamiltonians, dtype=complex)
    if hams.shape != values.shape:
        raise DomainError(f"hamiltonian stack has shape {hams.shape}, the family values {values.shape}")
    ts = curve.times
    didt = (values[2:] - values[:-2]) / (ts[2:] - ts[:-2])[:, None, None]
    comm = values[1:-1] @ hams[1:-1] - hams[1:-1] @ values[1:-1]
    return float(np.max(np.abs(didt - 1j * comm)))
