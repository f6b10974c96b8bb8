"""Seeded smooth random gauge transformations for invariance testing.

A gauge is a smooth unitary path v(t) = exp(i G(t)) where G(t) is a Hermitian
matrix whose entries follow a Fourier series in t of GAUGE_ORDER harmonics,
with coefficients drawn from a seeded generator: the constant term and
harmonic 1 at scale GAUGE_AMPLITUDE, harmonic n at GAUGE_AMPLITUDE / n.  The
construction is documented and reproducible: identical (seed, size) give
identical paths.

The exact derivative dv/dt comes from the Daleckii-Krein formula on the
eigendecomposition of G (the Frechet derivative of the matrix exponential
restricted to Hermitian arguments), so the generator K of any integrator
problem i dM/dt = K M is transformed by the exact gauge law

    K -> v^dag K v - i v^dag (dv/dt)

without finite-difference noise.  A connection A enters its holonomy as
K = -A, so this is A -> v^dag A v + i v^dag (dv/dt); the coefficient
equation of a level, K = E - A, transforms by the same law.
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

        Accepts a scalar or an array of times (stacked output).
        """
        s = 2 * np.pi * (np.asarray(t, dtype=float) - self.t0) / (self.t1 - self.t0)
        ks = np.arange(1, len(self.cos_coeffs) + 1)
        angles = np.multiply.outer(s, ks)  # (..., order)
        cos, sin = np.cos(angles), np.sin(angles)
        g = (
            self.base
            + np.tensordot(cos, self.cos_coeffs, axes=([-1], [0]))
            + np.tensordot(sin, self.sin_coeffs, axes=([-1], [0]))
        )
        if not derivative:
            return g
        rate = 2 * np.pi / (self.t1 - self.t0)
        gdot = rate * (
            np.tensordot(-sin * ks, self.cos_coeffs, axes=([-1], [0]))
            + np.tensordot(cos * ks, self.sin_coeffs, axes=([-1], [0]))
        )
        return g, gdot

    def generator_derivative(self, t) -> np.ndarray:
        return self.generator(t, derivative=True)[1]

    def value_and_derivative(self, t) -> tuple[np.ndarray, np.ndarray]:
        return _exp_i_and_frechet_many(*self.generator(t, derivative=True))

    def __call__(self, t) -> np.ndarray:
        return expm_skew_many(*eigh_many(self.generator(t)), -1.0)

    def derivative(self, t) -> np.ndarray:
        return self.value_and_derivative(t)[1]


def _random_hermitian(rng: np.random.Generator, size: int, amplitude: float) -> np.ndarray:
    m = rng.normal(scale=amplitude, size=(size, size)) + 1j * rng.normal(scale=amplitude, size=(size, size))
    return 0.5 * (m + m.conj().T)


def random_smooth_gauge(size: int, t0: float, t1: float, seed) -> SmoothGauge:
    """Draw a seeded smooth gauge path on [t0, t1]."""
    rng = np.random.default_rng(seed)
    base = _random_hermitian(rng, size, GAUGE_AMPLITUDE)
    cos_coeffs = np.array([_random_hermitian(rng, size, GAUGE_AMPLITUDE / (k + 1)) for k in range(GAUGE_ORDER)])
    sin_coeffs = np.array([_random_hermitian(rng, size, GAUGE_AMPLITUDE / (k + 1)) for k in range(GAUGE_ORDER)])
    return SmoothGauge(size=size, t0=t0, t1=t1, base=base, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)


class _TransformedConnectionEvaluator:
    """K~ = v^dag K v - i v^dag dv/dt under a smooth gauge, batched: ts (m,) -> (m, l, l).

    One eigendecomposition G = Q Lam Q^dag per node set gives both terms of
    the gauge law in the eigenbasis of G, with h_ab = (lam_a - lam_b) / 2:

        Q^dag (v^dag K v) Q        = e^{-2ih} o (Q^dag K Q)
        Q^dag (-i v^dag dv/dt) Q   = e^{-ih} o sinc(h) o (Q^dag Gdot Q)   (Daleckii-Krein)
    """

    def __init__(self, base: Callable[[np.ndarray], np.ndarray], gauge: SmoothGauge):
        self._base = base
        self._gauge = gauge

    def many(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        base = np.asarray(self._base(ts), dtype=complex)
        g, gdot = self._gauge.generator(ts, derivative=True)
        lam, q = eigh_many(g)
        half, sinc = _half_gaps(lam)
        rot = np.exp(-1j * half)
        qh = np.conj(np.swapaxes(q, -1, -2))
        inner = rot * rot * _sandwich(qh, base, q)
        inner += rot * sinc * _sandwich(qh, gdot, q)
        out = _sandwich(q, inner, qh)
        return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))

    def __call__(self, ts) -> np.ndarray:
        return self.many(ts)


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ x @ right over stacks (m, l, l) of small matrices, with the stack axis innermost."""
    lt, xt, rt = (_stack_last(z) for z in (left, x, right))
    return np.moveaxis(_stack_matmul(_stack_matmul(lt, xt), rt), -1, 0)


def transform_problem(problem: MatrixOdeProblem, gauge: SmoothGauge) -> MatrixOdeProblem:
    """The problem with its generator K gauge-transformed to v^dag K v - i v^dag dv/dt.

    The generator is evaluated on demand at the nodes the integrator asks
    for; nothing is sampled here.  The initial value is kept, so for
    M(t_0) = 1 the transformed solution is v(t)^dag M(t) v(t_0).
    """
    return replace(problem, generator=_TransformedConnectionEvaluator(problem.generator, gauge))
