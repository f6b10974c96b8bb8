"""Seeded smooth random gauge transformations for invariance testing.

A gauge is a smooth unitary path v(t) = exp(i G(t)) where G(t) is a Hermitian
matrix whose entries follow a low-order Fourier series in t with coefficients
drawn from a seeded generator.  The construction is documented and
reproducible: identical (seed, size, order, amplitude) give identical paths.

The exact derivative dv/dt comes from the Daleckii-Krein formula on the
eigendecomposition of G (the Frechet derivative of the matrix exponential
restricted to Hermitian arguments), so connections can be transformed by the
exact gauge law

    A -> v^dag A v + i v^dag (dv/dt)

without finite-difference noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import ConnectionSamples, _generator_from_samples


def _exp_i_and_frechet_many(g: np.ndarray, gdot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (exp(iG), d/dt exp(iG)) for stacked Hermitian G with derivative Gdot.

    Uses the divided-difference kernel of x -> exp(ix) on the spectrum of G
    (exact for Hermitian arguments).
    """
    lam, q = np.linalg.eigh(g)
    f = np.exp(1j * lam)
    v = np.einsum("...ij,...j,...kj->...ik", q, f, q.conj())
    num = f[..., :, None] - f[..., None, :]
    den = lam[..., :, None] - lam[..., None, :]
    kernel = np.where(np.abs(den) > 1e-14, num / np.where(den == 0, 1.0, den), 1j * f[..., :, None])
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

    def _phase(self, t) -> np.ndarray:
        return 2 * np.pi * (np.asarray(t, dtype=float) - self.t0) / (self.t1 - self.t0)

    def generator(self, t) -> np.ndarray:
        """G(t); accepts a scalar or an array of times (stacked output)."""
        s = self._phase(t)
        ks = np.arange(1, len(self.cos_coeffs) + 1)
        angles = np.multiply.outer(s, ks)  # (..., order)
        return (
            self.base
            + np.tensordot(np.cos(angles), self.cos_coeffs, axes=([-1], [0]))
            + np.tensordot(np.sin(angles), self.sin_coeffs, axes=([-1], [0]))
        )

    def generator_derivative(self, t) -> np.ndarray:
        s = self._phase(t)
        rate = 2 * np.pi / (self.t1 - self.t0)
        ks = np.arange(1, len(self.cos_coeffs) + 1)
        angles = np.multiply.outer(s, ks)
        return rate * (
            np.tensordot(-np.sin(angles) * ks, self.cos_coeffs, axes=([-1], [0]))
            + np.tensordot(np.cos(angles) * ks, self.sin_coeffs, axes=([-1], [0]))
        )

    def value_and_derivative(self, t) -> tuple[np.ndarray, np.ndarray]:
        return _exp_i_and_frechet_many(self.generator(t), self.generator_derivative(t))

    def __call__(self, t) -> np.ndarray:
        lam, q = np.linalg.eigh(self.generator(t))
        return np.einsum("...ij,...j,...kj->...ik", q, np.exp(1j * lam), q.conj())

    def derivative(self, t) -> np.ndarray:
        return self.value_and_derivative(t)[1]


def _random_hermitian(rng: np.random.Generator, size: int, amplitude: float) -> np.ndarray:
    m = rng.normal(scale=amplitude, size=(size, size)) + 1j * rng.normal(scale=amplitude, size=(size, size))
    return 0.5 * (m + m.conj().T)


def random_smooth_gauge(
    size: int,
    t0: float,
    t1: float,
    seed,
    order: int = 3,
    amplitude: float = 0.4,
) -> SmoothGauge:
    """Draw a seeded smooth gauge path on [t0, t1]."""
    rng = np.random.default_rng(seed)
    base = _random_hermitian(rng, size, amplitude)
    cos_coeffs = np.array([_random_hermitian(rng, size, amplitude / (k + 1)) for k in range(order)])
    sin_coeffs = np.array([_random_hermitian(rng, size, amplitude / (k + 1)) for k in range(order)])
    return SmoothGauge(size=size, t0=t0, t1=t1, base=base, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)


class _TransformedConnectionEvaluator:
    """A~ (or E~) under a smooth gauge, batched: ts (m,) -> (m, l, l)."""

    def __init__(self, connection: ConnectionSamples, gauge: SmoothGauge, which: str):
        base = connection.evaluator_a if which == "a" else connection.evaluator_e
        if base is None:
            base = _generator_from_samples(connection.times, connection.a if which == "a" else connection.e)
        self._base = base
        self._gauge = gauge
        self._which = which

    def many(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        base = np.asarray(self._base(ts), dtype=complex)
        if self._which == "a":
            v, dv = self._gauge.value_and_derivative(ts)
            vh = np.conj(np.swapaxes(v, -1, -2))
            out = np.einsum("...ij,...jk,...kl->...il", vh, base, v) + 1j * np.einsum("...ij,...jk->...ik", vh, dv)
            return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))
        v = self._gauge(ts)
        vh = np.conj(np.swapaxes(v, -1, -2))
        return np.einsum("...ij,...jk,...kl->...il", vh, base, v)

    def __call__(self, ts) -> np.ndarray:
        return self.many(ts)


def transform_connection(connection: ConnectionSamples, gauge: SmoothGauge) -> ConnectionSamples:
    """Apply the exact gauge law to a connection.

    A~ = v^dag A v + i v^dag dv/dt, and E~ = v^dag E v.  When the input
    connection has no evaluators, A and E between the samples come from the
    same interpolant the integrators use for sampled data.
    """
    a_tilde = _TransformedConnectionEvaluator(connection, gauge, "a")
    e_tilde = _TransformedConnectionEvaluator(connection, gauge, "e")
    ts = connection.times
    return ConnectionSamples(
        level_index=connection.level_index,
        times=ts.copy(),
        a=a_tilde.many(ts),
        e=e_tilde.many(ts),
        evaluator_a=a_tilde,
        evaluator_e=e_tilde,
    )
