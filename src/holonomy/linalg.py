"""Dense complex linear algebra at small fixed sizes.

Stacked Hermitian eigendecomposition and the one rule that clusters its
eigenvalues into levels, unitary exponentials of Hermitian generators, polar
factors, and structural checks.  Matrices are plain complex ``numpy`` arrays,
one matrix or a stack; the functions here enforce the structural contracts
(hermiticity, unitarity, orthonormal frames) that the rest of the library
relies on.  All operations are pure and deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, LevelCrossingError, StructuralError

HERMITICITY_TOL = 1e-12   # relative to max|entry|
UNITARITY_TOL = 1e-10     # absolute
DEGENERACY_REL_TOL = 1e-8  # relative gap threshold for clustering
_TINY = np.finfo(float).tiny


def _as_square_stack(m: np.ndarray, name: str) -> np.ndarray:
    """One square matrix or a stack of them, checked finite and nonempty, as (k, d, d)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"{name} must be a square matrix or a stack of them, got shape {m.shape}")
    if m.size == 0:
        raise DomainError(f"{name} is empty")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} has non-finite entries")
    return m if m.ndim == 3 else m[None]


def _gram_defects(stack: np.ndarray) -> np.ndarray:
    """max|U_k^dag U_k - 1| of each matrix of a checked stack (d, d, m), stack axis innermost, as (m,)."""
    gram = _stack_matmul(np.conj(np.swapaxes(stack, 0, 1)), stack)
    gram -= np.eye(len(stack))[:, :, None]
    return np.max(np.abs(gram), axis=(0, 1))


def unitarity_defects(u: np.ndarray, name: str = "U") -> np.ndarray:
    """max|U_k^dag U_k - 1| of each matrix of a stack (m, d, d), or of one matrix, as (m,)."""
    return _gram_defects(_stack_last(_as_square_stack(u, name)))


def _first_over_scale(deviation: np.ndarray, stack: np.ndarray, tol: float) -> int | None:
    """First k with max|deviation_k| > tol * max(max|stack_k|, 1); both are (k, d, d)."""
    if not np.max(deviation) > tol:  # every scale is >= 1, so no matrix can fail
        return None
    scales = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1.0)
    bad = np.flatnonzero(np.max(deviation, axis=(1, 2)) > tol * scales)
    return int(bad[0]) if bad.size else None


def _position(k: int, stacked: bool) -> str:
    return f" (matrix {k} of the stack)" if stacked else ""


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Validate one (d, d) matrix or a stack (k, d, d), each matrix against its own scale."""
    stack = _as_square_stack(m, name)
    deviation = np.abs(stack - np.conj(np.swapaxes(stack, 1, 2)))
    k = _first_over_scale(deviation, stack, tol)
    if k is not None:
        scale = max(float(np.max(np.abs(stack[k]))), 1.0)
        raise StructuralError(
            f"{name} is not Hermitian{_position(k, np.ndim(m) == 3)}: "
            f"defect {np.max(deviation[k]):.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    return stack if np.ndim(m) == 3 else stack[0]


def require_unitary(u: np.ndarray, tol: float = UNITARITY_TOL, name: str = "matrix") -> np.ndarray:
    """Validate one (d, d) matrix or a stack (k, d, d) of unitary matrices."""
    defects = unitarity_defects(u, name)
    bad = np.flatnonzero(defects > tol)
    if bad.size:
        k = int(bad[0])
        raise StructuralError(
            f"{name} is not unitary{_position(k, np.ndim(u) == 3)}: defect {defects[k]:.3e} exceeds {tol:.1e}"
        )
    return np.asarray(u, dtype=complex)


def _level_splits(vals: np.ndarray) -> np.ndarray:
    """Where a new level starts in each row of ascending eigenvalues (m, d), as (m, d - 1) booleans.

    Neighbours further apart than DEGENERACY_REL_TOL * the row's max|lambda|
    belong to different levels.
    """
    tol = DEGENERACY_REL_TOL * np.maximum(np.abs(vals).max(axis=1, keepdims=True), _TINY)
    return vals[:, 1:] - vals[:, :-1] > tol


def _level_bounds(splits: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Column ranges (start, stop) of the levels of one row of ``_level_splits``."""
    edges = [0, *(k + 1 for k, split in enumerate(splits.tolist()) if split), len(splits) + 1]
    return tuple(zip(edges[:-1], edges[1:]))


def level_bounds(vals: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Column ranges (start, stop) of the levels shared by every row of ascending eigenvalues (m, d).

    The one clustering rule of the package: the eigenvalues of a row form one
    level where neighbours lie within DEGENERACY_REL_TOL * the row's
    max|lambda|.  A row whose multiplicity pattern differs from the first
    row's is a level crossing, named by its row index.
    """
    splits = _level_splits(vals)
    bounds = _level_bounds(splits[0])
    changed = np.flatnonzero(np.any(splits != splits[0], axis=1))
    if changed.size:
        k = int(changed[0])
        before, after = (tuple(b - a for a, b in _level_bounds(row)) for row in (splits[0], splits[k]))
        raise LevelCrossingError(f"level structure changed at sample {k}: {before} -> {after}")
    return bounds


def _doublet_components(h00: np.ndarray, h11: np.ndarray, h10: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a0, az, r) of 2x2 Hermitian matrices a0 + az sigma_z + Re b sigma_x + Im b sigma_y with lower entry b = h10.

    The matrices are read from their diagonal and lower entry only, and
    r = hypot(az, |b|): their eigenvalues are a0 -+ r.
    """
    a, c = h00.real, h11.real
    half = 0.5 * (a - c)
    return 0.5 * (a + c), half, np.hypot(half, np.abs(h10))


def eigh_many(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) = np.linalg.eigh(h) for any stack (..., d, d), in closed form for d = 1 and d = 2.

    The contract is eigh's: ascending eigenvalues, orthonormal eigenvector
    columns, and only the lower triangle is read.  LAPACK spends about 0.6 us
    per matrix at d = 2 whatever the stack size, so small stacked matrices are
    decomposed here with a few vector operations over the stack instead.

    * d = 1: the eigenvalue is the real diagonal entry and the vector is 1.
    * d = 2: a Jacobi rotation.  With a, c the diagonal and b the lower
      entry, the eigenvalues are (a + c)/2 -+ hypot((a - c)/2, |b|), the
      rotation angle is atan2(|b|, (a - c)/2) / 2 and the phase is
      exp(i arg b) = b/|b| (1 where b = 0).  Nothing divides by the gap or by
      |b|, so exact and near degeneracy and subnormal entries need no branch.
    * d >= 3: np.linalg.eigh.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-2:] not in ((1, 1), (2, 2)):
        return np.linalg.eigh(h)
    if h.dtype.kind not in "fc":
        h = h.astype(float)
    if h.shape[-1] == 1:
        return np.array(h[..., 0].real), np.ones_like(h)
    b = h[..., 1, 0]
    mean, half, radius = _doublet_components(h[..., 0, 0], h[..., 1, 1], b)
    size = np.abs(b)
    # the angle atan2(|b|, (a - c)/2) / 2 lies in [0, pi/2]; fold it into [0, pi/4]
    # so that a diagonal H gives exact unit vectors (cos(pi/2) is 6e-17, not 0)
    folded = 0.5 * np.arctan2(size, np.abs(half))
    near, far = np.cos(folded), np.sin(folded)
    below = half < 0
    cos, sin = np.where(below, far, near), np.where(below, near, far)
    if np.iscomplexobj(b):
        phase = np.exp(1j * np.angle(b))  # b/|b| without dividing: exact for subnormal b, 1 at b = 0
    else:
        phase = np.where(b < 0, -1.0, 1.0)
    vecs = np.empty_like(h)
    vecs[..., 0, 0] = -sin
    vecs[..., 0, 1] = cos
    vecs[..., 1, 0] = phase * cos
    vecs[..., 1, 1] = phase * sin
    return np.stack([mean - radius, mean + radius], axis=-1), vecs


def _stack_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over stacks (d, k, m) x (k, l, m) -> (d, l, m) with the stack axis innermost.

    On this layout numpy's loops run over the m matrices; on the (m, d, d)
    layout einsum and matmul spend their time in overhead per tiny matrix.
    """
    return np.einsum("ijm,jkm->ikm", a, b, out=out)


def _stack_last(stack: np.ndarray) -> np.ndarray:
    """A stack (m, d, l) as a C-contiguous (d, l, m) copy, the layout of ``_stack_matmul``."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


def _ordered_products(steps: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """The time-ordered products M_0 = initial, M_{k+1} = steps[..., k] @ M_k of a stack (d, d, m), as (m + 1, d, l).

    Every prefix, by an inclusive Hillis-Steele scan (Hillis & Steele, CACM
    29, 1170 (1986)): after the pass with shift s, entry k holds
    steps[..., k] @ ... @ steps[..., k - 2s + 1], so ceil(log2 m) passes of one
    stacked product each give every prefix.  The later factor stays on the
    left, which keeps the time order.  The steps come stack-innermost, as
    ``_stack_matmul`` takes them; the first pass reads them and writes the
    first of two buffers, so the input is left unchanged.  The prefixes meet
    ``initial`` in one einsum on that layout too, and one copy moves the
    stack axis to the front of the (m + 1, d, l) result.  A caller that needs
    only M_m takes ``_tree_product``, which does m - 1 products.

    The passes do about ceil(log2 m) times the arithmetic of a loop of one
    matmul per step, so the scan pays only where that loop's overhead per
    call dominates: for d <= 4.  At m = 8000 it takes 0.04x the loop's time
    at d = 1 and 0.7x at d = 4, but 2.7x at d = 6, 5x at d = 8 and 40x at
    d = 16.
    """
    m = steps.shape[-1]
    p, q = steps, np.empty(steps.shape, dtype=complex)
    shift = 1
    while shift < m:
        _stack_matmul(p[..., shift:], p[..., :-shift], out=q[..., shift:])
        q[..., :shift] = p[..., :shift]
        p, q = q, (np.empty_like(q) if p is steps else p)
        shift *= 2
    out = np.empty((m + 1,) + initial.shape, dtype=complex)
    out[0] = initial
    # an einsum that writes (m, d, l) itself took 5x as long at d = 2, m = 1600
    out[1:] = np.moveaxis(np.einsum("ijm,jk->ikm", p, initial), -1, 0)
    return out


def _tree_product(steps: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """M_m = steps[..., m - 1] @ ... @ steps[..., 0] @ initial of a stack (d, d, m) alone, as (d, l).

    A pairwise tree of m - 1 products: each level multiplies adjacent pairs,
    the later factor on the left, in one stacked product, and carries an odd
    last factor to the next level unchanged, so ceil(log2 m) levels of
    halving stacks remain.  That is the arithmetic of a loop of one matmul per
    step, with the loop's overhead paid once per level.  At m = 8000 it takes
    0.05x that loop's time at d = 3, 0.4x at d = 6 and 0.8-1.0x at d = 8, but
    5.5x at d = 16, where the loop's BLAS products outrun the einsum of
    ``_stack_matmul`` (numpy 2.4, 2 vCPU; the scan takes 2.7x, 5x and 33-40x).
    """
    p = steps
    while p.shape[-1] > 1:
        n = p.shape[-1]
        half = n // 2
        q = np.empty(p.shape[:2] + (n - half,), dtype=complex)
        _stack_matmul(p[..., 1::2], p[..., : 2 * half : 2], out=q[..., :half])
        if n % 2:
            q[..., half] = p[..., -1]
        p = q
    return p[..., 0] @ initial


def expm_skew(h: np.ndarray, s: float = 1.0) -> np.ndarray:
    """exp(-i*s*H) for Hermitian H, exactly unitary up to roundoff."""
    h = require_hermitian(h, name="generator")
    w, v = eigh_many(h)
    return (v * np.exp(-1j * s * w)) @ v.conj().T


def expm_skew_many(w: np.ndarray, v: np.ndarray, s: float = 1.0) -> np.ndarray:
    """Batched exp(-i*s*H) from the decomposition (w, v) = eigh_many(H) of a stack (..., d, d).

    The caller decomposes once and can read the spectrum too (as the steppers' |K| h check of a
    step generator larger than 2x2 does).
    """
    phases = np.exp(-1j * s * w)
    return np.einsum("...ij,...j,...lj->...il", v, phases, v.conj())


def polar_many(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, s_min) for any stack (..., l, l): the unitary polar factor M = Q P, P >= 0, and the smallest singular value.

    The contract is that of u @ vh and s[..., -1] from np.linalg.svd(m), in
    closed form for l = 1 and l = 2, where LAPACK spends about 5 us per
    matrix.  M is first scaled by a power of two, exactly, to max|entry| in
    [1/2, 1), so that nothing below underflows or overflows; M = 0 gives Q = 1.

    * l = 1: Q = z/|z| and s_min = |z|.  Not exp(i arg z): successive
      transport overlaps share their phase, so the rounding of arg would add
      up along the transport chain (1e-13 after 8000 steps).
    * l = 2: with phi = arg det M and B = exp(i phi) adj(M)^dag = U diag(s2, s1) V^dag,
      M + B = (s1 + s2) Q and M - B = (s1 - s2) U diag(1, -1) V^dag.  So
      Q = (M + B) / S with S = sqrt|det(M + B)| = s1 + s2, and with
      D = |M - B|_F / sqrt(2) = s1 - s2 the largest singular value is
      (S + D)/2 and the smallest |det M| / ((S + D)/2).  Near s1 = s2, where
      transport overlaps live, none of this cancels; sqrt(|M|_F^4 - 4|det M|^2)
      would lose half the digits.
    * l >= 3: np.linalg.svd.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] not in ((1, 1), (2, 2)):
        u, s, vh = np.linalg.svd(m)
        return u @ vh, s[..., -1]
    shape = m.shape
    m = m.reshape(-1, *shape[-2:])  # numpy's scalar arithmetic rounds differently: one matrix goes as a stack too
    scale = np.ldexp(1.0, -np.maximum(np.frexp(np.max(np.abs(m), axis=(1, 2)))[1], -1021))
    if shape[-1] == 1:
        z = scale * m[:, 0, 0]
        size = np.abs(z)
        q = np.divide(z, size, out=np.ones_like(z), where=size > 0)
        return q.reshape(shape), (size / scale).reshape(shape[:-2])
    a, b, c, d = (scale * m[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    det = a * d - b * c
    phase = np.exp(1j * np.angle(det))  # without dividing: 1 at det = 0
    total = np.stack([a + phase * d.conj(), b - phase * c.conj(), c - phase * b.conj(), d + phase * a.conj()], -1)
    gap = np.stack([a - phase * d.conj(), b + phase * c.conj(), c + phase * b.conj(), d - phase * a.conj()], -1)
    s = np.sqrt(np.abs(total[:, 0] * total[:, 3] - total[:, 1] * total[:, 2]))
    empty = s == 0  # M = 0
    s[empty] = 1.0
    largest = 0.5 * (s + np.sqrt(0.5 * np.sum(gap.real**2 + gap.imag**2, axis=1)))
    q = total / s[:, None]
    q[empty] = (1, 0, 0, 1)
    return q.reshape(shape), (np.abs(det) / largest / scale).reshape(shape[:-2])
