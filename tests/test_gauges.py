import numpy as np
import pytest
from scipy.linalg import expm

from holonomy.config import parse_config_text
from holonomy.errors import DomainError
from holonomy.frames import ConnectionSamples
from holonomy.gauges import SmoothGauge, _exp_i_and_frechet_many, random_smooth_gauge, transform_connection
from holonomy.linalg import unitarity_defects
from holonomy.propagate import holonomy
from holonomy.runner import run_gauge_test
from holonomy import quadrupole as qd

TYCKO = qd.TYCKO_THETA


def tycko_connection(num=1601, cycles=1.0):
    scenario = qd.PrecessionScenario(theta=TYCKO, omega=2 * np.pi / 40, phi_final=2 * np.pi * cycles)
    return scenario, qd.level2_connection_samples(scenario, num)


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


class TestTransformConnection:
    def test_transformed_connection_hermitian(self):
        _, conn = tycko_connection(num=101)
        gauge = random_smooth_gauge(2, 0.0, float(conn.times[-1]), seed=2)
        a_tilde = transform_connection(conn, gauge).evaluator_a(conn.times)
        for k in range(0, 101, 10):
            a = a_tilde[k]
            assert np.max(np.abs(a - a.conj().T)) <= 1e-12

    def test_holonomy_covariance(self):
        _, conn = tycko_connection()
        base = holonomy(conn).final
        t1 = float(conn.times[-1])
        for seed in range(5):
            gauge = random_smooth_gauge(2, 0.0, t1, seed=seed)
            got = holonomy(transform_connection(conn, gauge)).final
            expected = gauge(t1).conj().T @ base @ gauge(0.0)
            assert np.max(np.abs(got - expected)) <= 1e-9

    def test_trace_invariance(self):
        scenario, conn = tycko_connection()
        base = holonomy(conn).final
        t1 = float(conn.times[-1])
        w = qd.w2_closed(scenario.theta, scenario.phi0, scenario.phi_at(t1))
        pi_base = np.trace(w @ base)
        for seed in range(5):
            gauge = random_smooth_gauge(2, 0.0, t1, seed=100 + seed)
            got = holonomy(transform_connection(conn, gauge)).final
            w_t = gauge(0.0).conj().T @ w @ gauge(t1)
            assert abs(np.trace(w_t @ got) - pi_base) <= 1e-9

    def test_connection_without_energy_stays_without(self):
        _, conn = tycko_connection(num=101)
        bare = ConnectionSamples(level_index=1, times=conn.times, evaluator_a=conn.evaluator_a, multiplicity=2)
        gauge = random_smooth_gauge(2, 0.0, float(conn.times[-1]), seed=7)
        assert transform_connection(bare, gauge).evaluator_e is None


def _smooth_connection(size: int, t1: float, seed: int) -> ConnectionSamples:
    """Evaluator-only connection whose A and E are smooth Hermitian functions of t."""
    rng = np.random.default_rng(seed)
    m0, m1, e0 = (rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)) for _ in range(3))
    m0, m1, e0 = (0.5 * (m + m.conj().T) for m in (m0, m1, e0))

    def eval_a(ts):
        return m0 + np.multiply.outer(np.sin(2 * np.pi * np.asarray(ts) / t1), m1)

    return ConnectionSamples(
        level_index=0, times=np.linspace(0.0, t1, 11), evaluator_a=eval_a,
        evaluator_e=lambda ts: np.broadcast_to(e0, (len(ts), size, size)), multiplicity=size,
    )


def _degenerate_gauge(size: int, t1: float) -> SmoothGauge:
    """G(t) = (0.3 + 0.8 cos(2 pi t/t1) - 0.5 sin(4 pi t/t1)) * P with P = diag(1, 1, 2, ...): an exactly degenerate pair."""
    p = np.diag([1.0, 1.0] + [2.0] * (size - 2)).astype(complex)
    return SmoothGauge(size=size, t0=0.0, t1=t1, base=0.3 * p,
                       cos_coeffs=np.array([0.8 * p, 0 * p]), sin_coeffs=np.array([0 * p, -0.5 * p]))


class TestSinglePassLaw:
    @pytest.mark.parametrize("size, degenerate", [(2, False), (3, False), (2, True), (3, True)])
    def test_matches_two_step_law(self, size, degenerate):
        t1 = 3.0
        conn = _smooth_connection(size, t1, seed=size)
        gauge = _degenerate_gauge(size, t1) if degenerate else random_smooth_gauge(size, 0.0, t1, seed=11)
        ts = np.linspace(0.0, t1, 37)
        v, dv = gauge.value_and_derivative(ts)
        vh = np.conj(np.swapaxes(v, 1, 2))
        law = vh @ conn.evaluator_a(ts) @ v + 1j * (vh @ dv)
        law = 0.5 * (law + np.conj(np.swapaxes(law, 1, 2)))
        transformed = transform_connection(conn, gauge)
        assert transformed.multiplicity == size
        assert np.max(np.abs(transformed.evaluator_a(ts) - law)) <= 1e-13
        assert np.max(np.abs(transformed.evaluator_e(ts) - vh @ conn.evaluator_e(ts) @ v)) <= 1e-13

    def test_connection_needs_samples_or_evaluators(self):
        with pytest.raises(DomainError):
            ConnectionSamples(level_index=0, times=np.linspace(0.0, 1.0, 5), evaluator_a=lambda ts: ts)


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
