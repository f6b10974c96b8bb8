import numpy as np

from holonomy.gauges import random_smooth_gauge, transform_connection
from holonomy.linalg import unitarity_defect
from holonomy.propagate import holonomy
from holonomy import quadrupole as qd

TYCKO = qd.TYCKO_THETA


def tycko_connection(num=1601, cycles=1.0):
    scenario = qd.PrecessionScenario(theta=TYCKO, omega=2 * np.pi / 40, phi_final=2 * np.pi * cycles)
    return scenario, qd.level2_connection_samples(scenario, num)


class TestSmoothGauge:
    def test_unitary_along_path(self):
        gauge = random_smooth_gauge(3, 0.0, 2.0, seed=1)
        for t in np.linspace(0.0, 2.0, 17):
            assert unitarity_defect(gauge(t)) <= 1e-12

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

    def test_periodic_over_interval(self):
        # Fourier construction: v(t1) = v(t0)
        gauge = random_smooth_gauge(2, 0.0, 5.0, seed=3)
        assert np.max(np.abs(gauge(5.0) - gauge(0.0))) <= 1e-12


class TestTransformConnection:
    def test_transformed_connection_hermitian(self):
        _, conn = tycko_connection(num=101)
        gauge = random_smooth_gauge(2, 0.0, float(conn.times[-1]), seed=2)
        transformed = transform_connection(conn, gauge)
        for k in range(0, 101, 10):
            a = transformed.a[k]
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

    def test_sampled_connection_fallback(self):
        # no evaluators: the transform interpolates the samples
        from holonomy.frames import ConnectionSamples

        _, conn = tycko_connection(num=801)
        stripped = ConnectionSamples(level_index=1, times=conn.times, a=conn.a, e=conn.e)
        gauge = random_smooth_gauge(2, 0.0, float(conn.times[-1]), seed=7)
        transformed = transform_connection(stripped, gauge)
        reference = transform_connection(conn, gauge)
        assert np.max(np.abs(transformed.a - reference.a)) <= 1e-12
