"""Seeded smooth random gauge transformations for invariance testing.

A gauge is a smooth unitary path v(t) = exp(i G(t)) where G(t) is a Hermitian
matrix whose entries follow a Fourier series in t of GAUGE_ORDER harmonics,
with coefficients drawn from a seeded generator: the constant term and
harmonic 1 at scale GAUGE_AMPLITUDE, harmonic n at GAUGE_AMPLITUDE / n.  The
construction is documented and reproducible: identical (seed, size) give
identical paths.

The generator K of any integrator problem i dM/dt = K M is transformed by the
exact gauge law

    K -> v^dag K v - i v^dag (dv/dt)

without finite-difference noise.  A connection A enters its holonomy as
K = -A, so this is A -> v^dag A v + i v^dag (dv/dt); the coefficient
equation of a level, K = E - A, transforms by the same law.  The law acts on
the values of K at the integrator's nodes (``transform_generator``), so the
gauge test evaluates the base K once per node set and transforms those
values for every gauge; ``transform_problem``'s evaluator applies the same
function to the values of K at the nodes it is asked for, so both give the
same bits.

For a doublet (l = 2) the law is a closed form in Pauli vectors and needs no
eigendecomposition.  Write G = g0 + g.sigma, K = k0 + k.sigma,
dG/dt = h0 + h.sigma and r = |g|.  Conjugation by exp(i g.sigma) rotates a
Pauli vector by 2r about g (Rodrigues), so v^dag (k.sigma) v = (R k).sigma,
and -i v^dag dv/dt = int_0^1 exp(-iuG) (dG/dt) exp(iuG) du = h0 + (A h).sigma
with A the rotation averaged over the angles 0..2r.  With
sinc = sin r / r, x = cos r sinc = sin 2r / 2r and y = (1 - x) / r^2:

    K~ = k0 + h0 + [cos 2r k + x h + g x (2x k + sinc^2 h) + g (2 sinc^2 g.k + y g.h)] . sigma

Every coefficient is finite at r = 0 (sinc = x = 1, y = 2/3), and one sin r
and one cos r per node give them all.  For any other size the law is formed
in the eigenbasis of G by the Daleckii-Krein formula (the Frechet derivative
of the matrix exponential restricted to Hermitian arguments), which also
gives the exact dv/dt of ``SmoothGauge.value_and_derivative``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .linalg import _stack_last, _stack_matmul, eigh_many, expm_skew_many
from .propagate import MatrixOdeProblem

GAUGE_ORDER = 3  # Fourier harmonics of the generator G(t)
GAUGE_AMPLITUDE = 0.4  # scale of its constant term; harmonic n is drawn at GAUGE_AMPLITUDE / n


def _half_gaps(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h_ab = (lam_a - lam_b) / 2 over each spectrum of a stack (..., l), and sinc(h) = sin(h) / h."""
    half = 0.5 * (lam[..., :, None] - lam[..., None, :])
    return half, np.sinc(half / np.pi)


def _exp_i_and_frechet_many(g: np.ndarray, gdot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (exp(iG), d/dt exp(iG)) for stacked Hermitian G with derivative Gdot.

    Uses the divided-difference kernel of x -> exp(ix) on the spectrum of G,
    (e^{i lam_a} - e^{i lam_b}) / (lam_a - lam_b) = i e^{i (lam_a + lam_b)/2} sinc(h_ab),
    which needs no branch at equal eigenvalues and does not cancel near them.
    """
    lam, q = eigh_many(g)
    v = expm_skew_many(lam, q, -1.0)
    half, sinc = _half_gaps(lam)
    kernel = 1j * np.exp(1j * (lam[..., :, None] - half)) * sinc
    inner = np.einsum("...ji,...jk,...kl->...il", q.conj(), gdot, q)
    dv = np.einsum("...ij,...jk,...lk->...il", q, kernel * inner, q.conj())
    return v, dv


@dataclass(frozen=True)
class SmoothGauge:
    """Unitary path v(t) = exp(i G(t)) with analytic time derivative."""

    size: int
    t0: float
    t1: float
    base: np.ndarray        # (l, l) Hermitian
    cos_coeffs: np.ndarray  # (order, l, l) Hermitian
    sin_coeffs: np.ndarray  # (order, l, l) Hermitian

    def generator(self, t, derivative: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """G(t), or (G(t), dG/dt) from the same cosines and sines when ``derivative``.

        Accepts a scalar or an array of times (stacked output).  Harmonics 2..order
        come from the fundamental by angle addition, and G and dG/dt from one real
        product of the harmonics with the coefficients' real view.
        """
        t = np.asarray(t, dtype=float)
        s = 2 * np.pi * (t.ravel() - self.t0) / (self.t1 - self.t0)
        order = len(self.cos_coeffs)
        waves = np.empty((2, order, s.size))  # cos(ks), sin(ks) for k = 1..order
        waves[0, 0], waves[1, 0] = np.cos(s), np.sin(s)
        for k in range(1, order):
            waves[0, k] = waves[0, k - 1] * waves[0, 0] - waves[1, k - 1] * waves[1, 0]
            waves[1, k] = waves[1, k - 1] * waves[0, 0] + waves[0, k - 1] * waves[1, 0]
        outputs = 2 if derivative else 1
        harmonics = np.empty((1 + 2 * order, outputs, s.size))  # rows: base, cos, sin; columns: G, dG/dt
        harmonics[0, 0] = 1.0
        harmonics[1:, 0] = waves.reshape(2 * order, -1)
        if derivative:
            rate = (2 * np.pi / (self.t1 - self.t0)) * np.arange(1, order + 1)[:, None]
            harmonics[0, 1] = 0.0
            harmonics[1 : 1 + order, 1] = -rate * waves[1]
            harmonics[1 + order :, 1] = rate * waves[0]
        coeffs = np.concatenate([self.base[None], self.cos_coeffs, self.sin_coeffs]).astype(complex, copy=False)
        values = harmonics.reshape(1 + 2 * order, -1).T @ coeffs.reshape(1 + 2 * order, -1).view(float)
        values = values.view(complex).reshape(outputs, *t.shape, self.size, self.size)
        return (values[0], values[1]) if derivative else values[0]

    def generator_derivative(self, t) -> np.ndarray:
        return self.generator(t, derivative=True)[1]

    def value_and_derivative(self, t) -> tuple[np.ndarray, np.ndarray]:
        return _exp_i_and_frechet_many(*self.generator(t, derivative=True))

    def __call__(self, t) -> np.ndarray:
        return expm_skew_many(*eigh_many(self.generator(t)), -1.0)

    def derivative(self, t) -> np.ndarray:
        return self.value_and_derivative(t)[1]


def random_smooth_gauge(size: int, t0: float, t1: float, seed) -> SmoothGauge:
    """Draw a seeded smooth gauge path on [t0, t1].

    The 1 + 2 GAUGE_ORDER Hermitian coefficients (base, cosines, sines) come
    from one draw of standard normals, in that order, each matrix as its real
    and then its imaginary part, M = s (X + iY), made Hermitian as (M + M^dag)/2.
    """
    rng = np.random.default_rng(seed)
    harmonic = GAUGE_AMPLITUDE / np.arange(1, GAUGE_ORDER + 1)
    scale = np.concatenate([[GAUGE_AMPLITUDE], harmonic, harmonic])[:, None, None]
    draws = rng.standard_normal((1 + 2 * GAUGE_ORDER, 2, size, size))
    m = scale * draws[:, 0] + 1j * (scale * draws[:, 1])
    coeffs = 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))
    return SmoothGauge(size=size, t0=t0, t1=t1, base=coeffs[0], cos_coeffs=coeffs[1 : 1 + GAUGE_ORDER],
                       sin_coeffs=coeffs[1 + GAUGE_ORDER :])


class _TransformedConnectionEvaluator:
    """K~ = v^dag K v - i v^dag dv/dt under a smooth gauge, batched by ``transform_generator``: ts (m,) -> (m, l, l)."""

    def __init__(self, base: Callable[[np.ndarray], np.ndarray], gauge: SmoothGauge):
        self._base = base
        self._gauge = gauge

    def many(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return transform_generator(self._gauge, ts, np.asarray(self._base(ts), dtype=complex))

    def __call__(self, ts) -> np.ndarray:
        return self.many(ts)


def transform_generator(gauge: SmoothGauge, ts: np.ndarray, k: np.ndarray) -> np.ndarray:
    """K~ = v^dag K v - i v^dag dv/dt from the values k (m, l, l) of a generator at the times ts (m,).

    A doublet takes the closed form of ``_doublet_gauge_law``; any other size
    takes ``_eigenbasis_gauge_law``.
    """
    g, gdot = gauge.generator(ts, derivative=True)
    law = _doublet_gauge_law if k.shape[1:] == g.shape[1:] == (2, 2) else _eigenbasis_gauge_law
    return law(k, g, gdot)


def _eigenbasis_gauge_law(k: np.ndarray, g: np.ndarray, gdot: np.ndarray) -> np.ndarray:
    """K~ for stacks (m, l, l) of K, G and dG/dt from one eigendecomposition G = Q Lam Q^dag.

    Both terms of the law are formed in the eigenbasis of G, with
    h_ab = (lam_a - lam_b) / 2:

        Q^dag (v^dag K v) Q        = e^{-2ih} o (Q^dag K Q)
        Q^dag (-i v^dag dv/dt) Q   = e^{-ih} o sinc(h) o (Q^dag Gdot Q)   (Daleckii-Krein)
    """
    lam, q = eigh_many(g)
    half, sinc = _half_gaps(lam)
    rot = np.exp(-1j * half)
    qh = np.conj(np.swapaxes(q, -1, -2))
    inner = rot * rot * _sandwich(qh, k, q)
    inner += rot * sinc * _sandwich(qh, gdot, q)
    out = _sandwich(q, inner, qh)
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ x @ right over stacks (m, l, l) of small matrices, with the stack axis innermost."""
    lt, xt, rt = (_stack_last(z) for z in (left, x, right))
    return np.moveaxis(_stack_matmul(_stack_matmul(lt, xt), rt), -1, 0)


# Rows: the real view (Re, Im of M00, M01, M10, M11) of a 2x2 matrix M; columns:
# (m0, mx, my, mz) of its Hermitian part m0 + m.sigma.  Twice the transpose maps
# the components back to the real view of m0 + m.sigma.
_PAULI = 0.5 * np.array([
    [1, 0, 0, 1], [0, 0, 0, 0],
    [0, 1, 0, 0], [0, 0, -1, 0],
    [0, 1, 0, 0], [0, 0, 1, 0],
    [1, 0, 0, -1], [0, 0, 0, 0],
])


def _pauli(stack: np.ndarray) -> np.ndarray:
    """(m0, mx, my, mz) of the Hermitian part of each matrix of a stack (m, 2, 2), as (4, m)."""
    return _PAULI.T @ np.ascontiguousarray(stack, dtype=complex).reshape(-1, 4).view(float).T


def _doublet_gauge_law(k: np.ndarray, g: np.ndarray, gdot: np.ndarray) -> np.ndarray:
    """K~ for stacks (m, 2, 2) of K, G and dG/dt in closed form (module docstring); Hermitian by construction."""
    kc, gc, hc = _pauli(k), _pauli(g), _pauli(gdot)
    kv, gv, hv = kc[1:], gc[1:], hc[1:]
    r2 = np.einsum("im,im->m", gv, gv)
    r = np.sqrt(r2)
    sin, cos = np.sin(r), np.cos(r)
    turning = r2 > 0
    sinc = np.divide(sin, r, out=np.ones_like(r), where=turning)
    x = cos * sinc  # sin 2r / 2r
    y = np.divide(1.0 - x, r2, out=np.full_like(r2, 2.0 / 3.0), where=turning)
    z = sinc * sinc  # (1 - cos 2r) / 2r^2
    w = np.empty_like(kc)
    w[0] = kc[0] + hc[0]
    u = 2 * x * kv + z * hv
    w[1:] = (cos * cos - sin * sin) * kv + x * hv
    w[1] += gv[1] * u[2] - gv[2] * u[1]  # + g x u, written out
    w[2] += gv[2] * u[0] - gv[0] * u[2]
    w[3] += gv[0] * u[1] - gv[1] * u[0]
    w[1:] += gv * (2 * z * np.einsum("im,im->m", gv, kv) + y * np.einsum("im,im->m", gv, hv))
    return (w.T @ (2 * _PAULI.T)).view(complex).reshape(-1, 2, 2)


def transform_problem(problem: MatrixOdeProblem, gauge: SmoothGauge) -> MatrixOdeProblem:
    """The problem with its generator K gauge-transformed to v^dag K v - i v^dag dv/dt.

    The generator is evaluated on demand at the nodes the integrator asks
    for; nothing is sampled here.  The initial value is kept, so for
    M(t_0) = 1 the transformed solution is v(t)^dag M(t) v(t_0).
    """
    return replace(problem, generator=_TransformedConnectionEvaluator(problem.generator, gauge))
