import dataclasses
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from holonomy import linalg
from holonomy.config import parse_config_text
from holonomy import runner
from holonomy.gauges import (
    GAUGE_AMPLITUDE,
    GAUGE_ORDER,
    SmoothGauge,
    _doublet_gauge_law,
    _eigenbasis_gauge_law,
    _exp_i_and_frechet_many,
    random_smooth_gauge,
    transform_problem,
)
from holonomy.linalg import unitarity_defects
from holonomy.propagate import STEP_NORM_LIMIT, MatrixOdeProblem, propagate, propagate_final
from holonomy.runner import run_gauge_test
from holonomy import quadrupole as qd

TYCKO = qd.TYCKO_THETA


def tycko_scenario():
    return qd.PrecessionScenario(theta=TYCKO, omega=2 * np.pi / 40, phi_final=2 * np.pi)


def tycko_problem(num=1601):
    return qd.level2_holonomy_problem(tycko_scenario(), num)


class TestSmoothGauge:
    def test_unitary_along_path(self):
        gauge = random_smooth_gauge(3, 0.0, 2.0, seed=1)
        for t in np.linspace(0.0, 2.0, 17):
            assert unitarity_defects(gauge(t))[0] <= 1e-12

    def test_deterministic_by_seed(self):
        a = random_smooth_gauge(2, 0.0, 1.0, seed=42)
        b = random_smooth_gauge(2, 0.0, 1.0, seed=42)
        assert np.array_equal(a(0.37), b(0.37))
        c = random_smooth_gauge(2, 0.0, 1.0, seed=43)
        assert not np.allclose(a(0.37), c(0.37))

    def test_derivative_matches_finite_differences(self):
        gauge = random_smooth_gauge(3, 0.0, 3.0, seed=5)
        eps = 1e-6
        for t in (0.3, 1.1, 2.9):
            _, dv = gauge.value_and_derivative(t)
            fd = (gauge(t + eps) - gauge(t - eps)) / (2 * eps)
            assert np.max(np.abs(dv - fd)) <= 1e-8

    def test_batched_matches_scalar(self):
        gauge = random_smooth_gauge(2, 0.0, 1.0, seed=9)
        ts = np.array([0.1, 0.5, 0.9])
        batched_v, batched_dv = gauge.value_and_derivative(ts)
        for k, t in enumerate(ts):
            v, dv = gauge.value_and_derivative(float(t))
            assert np.max(np.abs(batched_v[k] - v)) <= 1e-13
            assert np.max(np.abs(batched_dv[k] - dv)) <= 1e-13

    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-11, 1e-13, 0.0])
    def test_derivative_exact_near_degenerate_spectrum(self, gap):
        # reference: exp of the block matrix [[iG, iGdot], [0, iG]] has d/dt exp(iG) as its upper-right block
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        g = u @ np.diag([0.7, 0.7 + gap]) @ u.conj().T
        g = 0.5 * (g + g.conj().T)
        d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gdot = d + d.conj().T
        reference = expm(np.block([[1j * g, 1j * gdot], [np.zeros((2, 2)), 1j * g]]))[:2, 2:]
        _, dv = _exp_i_and_frechet_many(g, gdot)
        assert np.max(np.abs(dv - reference)) <= 1e-13

    def test_periodic_over_interval(self):
        # Fourier construction: v(t1) = v(t0)
        gauge = random_smooth_gauge(2, 0.0, 5.0, seed=3)
        assert np.max(np.abs(gauge(5.0) - gauge(0.0))) <= 1e-12


def _fourier_sum(gauge: SmoothGauge, t):
    """(G(t), dG/dt) summed harmonic by harmonic, each cos(ks) and sin(ks) evaluated on its own."""
    s = 2 * np.pi * (np.asarray(t, dtype=float) - gauge.t0) / (gauge.t1 - gauge.t0)
    ks = np.arange(1, len(gauge.cos_coeffs) + 1)
    angles = np.multiply.outer(s, ks)
    cos, sin = np.cos(angles), np.sin(angles)
    g = (gauge.base + np.tensordot(cos, gauge.cos_coeffs, axes=([-1], [0]))
         + np.tensordot(sin, gauge.sin_coeffs, axes=([-1], [0])))
    rate = 2 * np.pi / (gauge.t1 - gauge.t0)
    gdot = rate * (np.tensordot(-sin * ks, gauge.cos_coeffs, axes=([-1], [0]))
                   + np.tensordot(cos * ks, gauge.sin_coeffs, axes=([-1], [0])))
    return g, gdot


class TestGenerator:
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.7, np.linspace(-1.0, 6.0, 41), np.linspace(0.0, 5.0, 12).reshape(3, 4)])
    def test_matches_fourier_sum(self, size, t):
        gauge = random_smooth_gauge(size, 0.0, 5.0, seed=size)
        g_ref, gdot_ref = _fourier_sum(gauge, t)
        g, gdot = gauge.generator(t, derivative=True)
        assert g.shape == gdot.shape == np.shape(t) + (size, size)
        assert np.max(np.abs(g - g_ref)) <= 1e-13
        assert np.max(np.abs(gdot - gdot_ref)) <= 1e-13
        assert np.max(np.abs(gauge.generator(t) - g_ref)) <= 1e-13


def _unit_hermitian(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2))
    return 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))


class TestDoubletClosedForm:
    @pytest.mark.parametrize("r", [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, np.pi / 2, np.pi, 5.0, 20.0])
    def test_matches_eigenbasis_law(self, r):
        # G = g0 + r n.sigma with random unit n; K and dG/dt unit-scale Hermitian
        rng = np.random.default_rng(7)
        m = 64
        n = rng.normal(size=(m, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        g = rng.normal(size=m)[:, None, None] * np.eye(2) + r * np.einsum("mi,ijk->mjk", n, pauli)
        k, gdot = _unit_hermitian(rng, m), _unit_hermitian(rng, m)
        closed = _doublet_gauge_law(k, g, gdot)
        assert np.array_equal(closed, np.conj(np.swapaxes(closed, 1, 2)))
        assert np.max(np.abs(closed - _eigenbasis_gauge_law(k, g, gdot))) <= 1e-13

    def test_gauge_test_decomposes_no_node_set(self, monkeypatch):
        # eigh_many runs only on the two endpoint values of each gauge: 2x2 step exponentials are closed forms
        config = parse_config_text(
            "system = quadrupole\ntheta = tycko\nphi0 = 0.0\nomega = 0.15707963267948966\n"
            "phi_final = 6.283185307179586\ngrid = 400\nmethod = magnus4\nseed = 5\n"
        )
        calls = []
        original = linalg.eigh_many

        def recording(caller):
            def eigh_many(h):
                calls.append((caller, np.shape(h)))
                return original(h)
            return eigh_many

        for name, module in list(sys.modules.items()):
            if name.startswith("holonomy") and getattr(module, "eigh_many", None) is original:
                monkeypatch.setattr(module, "eigh_many", recording(name))
        result = run_gauge_test(config, count=3)
        assert result.passed
        assert sorted(calls) == [("holonomy.gauges", (2, 2, 2))] * 3


class TestTransformConnection:
    def test_transformed_connection_hermitian(self):
        problem = tycko_problem(num=101)
        gauge = random_smooth_gauge(2, 0.0, float(problem.times[-1]), seed=2)
        k_tilde = transform_problem(problem, gauge).generator(problem.times)
        for k in range(0, 101, 10):
            a = k_tilde[k]
            assert np.max(np.abs(a - a.conj().T)) <= 1e-12

    def test_holonomy_covariance(self):
        problem = tycko_problem()
        base = propagate_final(problem)
        t1 = float(problem.times[-1])
        for seed in range(5):
            gauge = random_smooth_gauge(2, 0.0, t1, seed=seed)
            got = propagate_final(transform_problem(problem, gauge))
            expected = gauge(t1).conj().T @ base @ gauge(0.0)
            assert np.max(np.abs(got - expected)) <= 1e-9

    def test_trace_invariance(self):
        scenario = tycko_scenario()
        problem = qd.level2_holonomy_problem(scenario, 1601)
        base = propagate_final(problem)
        t1 = float(problem.times[-1])
        w = qd.w2_closed(scenario.theta, scenario.phi0, scenario.phi_at(t1))
        pi_base = np.trace(w @ base)
        for seed in range(5):
            gauge = random_smooth_gauge(2, 0.0, t1, seed=100 + seed)
            got = propagate_final(transform_problem(problem, gauge))
            w_t = gauge(0.0).conj().T @ w @ gauge(t1)
            assert abs(np.trace(w_t @ got) - pi_base) <= 1e-9


def _smooth_evaluators(size: int, t1: float, seed: int):
    """Batched A and E, smooth Hermitian functions of t; E is time-dependent and does not commute with A."""
    rng = np.random.default_rng(seed)
    m0, m1, e0, e1 = (rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)) for _ in range(4))
    m0, m1, e0, e1 = (0.5 * (m + m.conj().T) for m in (m0, m1, e0, e1))

    def eval_a(ts):
        return m0 + np.multiply.outer(np.sin(2 * np.pi * np.asarray(ts) / t1), m1)

    def eval_e(ts):
        return e0 + np.multiply.outer(np.cos(2 * np.pi * np.asarray(ts) / t1), e1)

    return eval_a, eval_e


def _degenerate_gauge(size: int, t1: float) -> SmoothGauge:
    """G(t) = (0.3 + 0.8 cos(2 pi t/t1) - 0.5 sin(4 pi t/t1)) * P with P = diag(1, 1, 2, ...): an exactly degenerate pair."""
    p = np.diag([1.0, 1.0] + [2.0] * (size - 2)).astype(complex)
    return SmoothGauge(size=size, t0=0.0, t1=t1, base=0.3 * p,
                       cos_coeffs=np.array([0.8 * p, 0 * p]), sin_coeffs=np.array([0 * p, -0.5 * p]))


class TestSinglePassLaw:
    @pytest.mark.parametrize("size, degenerate", [(2, False), (3, False), (2, True), (3, True)])
    def test_matches_two_step_law(self, size, degenerate):
        # K -> v^dag K v - i v^dag dv/dt, for the holonomy's K = -A and the coefficient equation's K = E - A
        t1 = 3.0
        eval_a, eval_e = _smooth_evaluators(size, t1, seed=size)
        gauge = _degenerate_gauge(size, t1) if degenerate else random_smooth_gauge(size, 0.0, t1, seed=11)
        ts = np.linspace(0.0, t1, 37)
        v, dv = gauge.value_and_derivative(ts)
        vh = np.conj(np.swapaxes(v, 1, 2))
        for generator in (lambda t: -eval_a(t), lambda t: eval_e(t) - eval_a(t)):
            problem = MatrixOdeProblem(generator=generator, initial=np.eye(size), times=np.linspace(0.0, t1, 11))
            law = vh @ generator(ts) @ v - 1j * (vh @ dv)
            law = 0.5 * (law + np.conj(np.swapaxes(law, 1, 2)))
            assert np.max(np.abs(transform_problem(problem, gauge).generator(ts) - law)) <= 1e-13

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_coefficient_equation_transforms_by_the_same_law(self, seed):
        # i du/dt = (E - A) u, u(0) = 1: the transformed problem solves for v(t)^dag u(t) v(0)
        t1 = 3.0
        eval_a, eval_e = _smooth_evaluators(2, t1, seed=seed)
        ts = np.linspace(0.0, t1, 1601)
        problem = MatrixOdeProblem(generator=lambda t: eval_e(t) - eval_a(t), initial=np.eye(2), times=ts)
        gauge = random_smooth_gauge(2, 0.0, t1, seed=seed)
        u = propagate(problem).matrices
        got = propagate(transform_problem(problem, gauge)).matrices
        v = gauge(ts)
        expected = np.conj(np.swapaxes(v, 1, 2)) @ u @ v[0]
        assert np.max(np.abs(got - expected)) <= 1e-9


class TestGaugeTestNodes:
    def test_gauges_evaluated_only_at_integrator_nodes(self, monkeypatch):
        config = parse_config_text(
            "system = quadrupole\ntheta = tycko\nphi0 = 0.0\nomega = 0.15707963267948966\n"
            "phi_final = 6.283185307179586\ngrid = 400\nmethod = magnus4\nseed = 5\n"
        )
        lengths = []
        original = SmoothGauge.generator

        def recording(self, t, *args, **kwargs):
            lengths.append(np.size(t))
            return original(self, t, *args, **kwargs)

        monkeypatch.setattr(SmoothGauge, "generator", recording)
        result = run_gauge_test(config, count=3)
        assert result.passed
        num_samples = max(config.grid, 1600) + 1
        # two Gauss-node sets per gauge and one call on the two endpoints; never the sample grid
        assert sorted(lengths) == [2] * 3 + [num_samples - 1] * 6


GAUGE_CONFIG = (
    "system = quadrupole\ntheta = tycko\nphi0 = 0.0\nomega = 0.15707963267948966\n"
    "phi_final = 6.283185307179586\ngrid = 400\nmethod = magnus4\nseed = 5\n"
)


class TestSharedBaseEvaluation:
    """The gauge test evaluates -omega A2 once per node set and transforms those values for every gauge."""

    def test_base_generator_called_once_per_node_set(self, monkeypatch):
        calls = []
        original = qd.level2_holonomy_problem

        def counted(scenario, num_samples):
            problem = original(scenario, num_samples)

            def generator(ts):
                calls.append(len(ts))
                return problem.generator(ts)

            return dataclasses.replace(problem, generator=generator)

        monkeypatch.setattr(qd, "level2_holonomy_problem", counted)
        assert run_gauge_test(parse_config_text(GAUGE_CONFIG), count=3).passed
        assert calls == [1600, 1600]

    def test_holonomies_equal_propagate_final_of_the_transformed_problem(self, monkeypatch):
        finals = []
        original = runner._tree_product

        def recording(steps, initial):
            finals.append(original(steps, initial))
            return finals[-1]

        monkeypatch.setattr(runner, "_tree_product", recording)
        config = parse_config_text(GAUGE_CONFIG)
        result = run_gauge_test(config, count=3)
        problem = qd.level2_holonomy_problem(config.precession_scenario(), 1601)
        t1 = float(problem.times[-1])
        gauges = [random_smooth_gauge(2, 0.0, t1, seed=seq) for seq in np.random.SeedSequence(config.seed).spawn(3)]
        assert len(finals) == 4
        assert np.array_equal(finals[0], propagate_final(problem))
        for got, gauge in zip(finals[1:], gauges):
            assert np.array_equal(got, propagate_final(transform_problem(problem, gauge)))
        # the reported margin is the largest |K| h of the base and every gauge integration
        norms = [propagate(problem).max_step_norm] + [propagate(transform_problem(problem, g)).max_step_norm
                                                      for g in gauges]
        assert result.max_step_norm == max(norms) < STEP_NORM_LIMIT
        assert max(norms) > norms[0]  # here a gauge's -i v^dag dv/dt sets the margin


class TestRandomSmoothGauge:
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 5, np.random.SeedSequence(9).spawn(2)[1]], ids=["0", "5", "spawned"])
    def test_coefficients_equal_per_matrix_draws(self, size, seed):
        # the reference draws each matrix's real and imaginary part with its own rng.normal call
        rng = np.random.default_rng(seed)

        def hermitian(amplitude):
            m = rng.normal(scale=amplitude, size=(size, size)) + 1j * rng.normal(scale=amplitude, size=(size, size))
            return 0.5 * (m + m.conj().T)

        base = hermitian(GAUGE_AMPLITUDE)
        cos = np.array([hermitian(GAUGE_AMPLITUDE / (k + 1)) for k in range(GAUGE_ORDER)])
        sin = np.array([hermitian(GAUGE_AMPLITUDE / (k + 1)) for k in range(GAUGE_ORDER)])
        gauge = random_smooth_gauge(size, 0.0, 1.0, seed)
        assert np.array_equal(gauge.base, base)
        assert np.array_equal(gauge.cos_coeffs, cos)
        assert np.array_equal(gauge.sin_coeffs, sin)
