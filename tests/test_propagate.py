import dataclasses
import sys

import numpy as np
import pytest

from holonomy import linalg
from holonomy.adiabatic import full_propagator
from holonomy.config import parse_config_text
from holonomy.errors import DomainError, ResolutionError, StructuralError
from holonomy.frames import ConnectionSamples, Curve, transport_frames, transport_holonomy
from holonomy.gauges import random_smooth_gauge, transform_connection
from holonomy.linalg import expm_skew, unitarity_defects
from holonomy.propagate import (
    MatrixOdeProblem,
    PropagatorTrace,
    assemble_V,
    assemble_evolution,
    holonomy,
    lewis_riesenfeld_u,
    propagate,
)
from holonomy.runner import run_gauge_test
from holonomy import quadrupole as qd

TYCKO = qd.TYCKO_THETA


def tycko_scenario(cycles=1.0, period=40.0):
    return qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=2 * np.pi / period,
                                 phi_final=2 * np.pi * cycles)


class TestPropagate:
    def test_zero_generator(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u0 = expm_skew(0.5 * (g + g.conj().T), 1.0)
        problem = MatrixOdeProblem(
            generator=lambda ts: np.zeros((len(ts), 3, 3)), initial=u0, times=np.linspace(0, 2, 11)
        )
        trace = propagate(problem, "magnus4")
        for k in range(trace.num_samples):
            assert np.max(np.abs(trace.matrices[k] - u0)) <= 1e-14

    def test_constant_generator_closed_form(self):
        # constant rotating-frame generator: M(phi) = exp(-i h' dphi)
        hp, _ = qd.rotating_frame(TYCKO)
        times = np.linspace(0.0, 2 * np.pi, 101)
        problem = MatrixOdeProblem(generator=lambda ts: np.broadcast_to(hp, (len(ts), 2, 2)), initial=np.eye(2, dtype=complex), times=times)
        for method in ("midpoint_exp", "magnus4"):
            trace = propagate(problem, method)
            for k in (25, 50, 100):
                expected = expm_skew(hp, times[k])
                assert np.max(np.abs(trace.matrices[k] - expected)) <= 1e-10

    def test_unitarity_along_trace(self):
        scenario = tycko_scenario()
        conn = qd.level2_connection_samples(scenario, 401)
        for method in ("midpoint_exp", "magnus4"):
            trace = holonomy(conn, method=method)
            assert max(unitarity_defects(m)[0] for m in trace.matrices) <= 1e-10

    def test_order_of_convergence(self):
        scenario = tycko_scenario()
        conn = qd.level2_connection_samples(scenario, 2)
        bands = {"midpoint_exp": (2.5, 6.0), "magnus4": (8.0, 32.0)}
        for method, (lo, hi) in bands.items():
            ref = holonomy(conn, method=method, times=np.linspace(0, scenario.duration, 4001)).final
            errs = []
            for steps in (50, 100, 200):
                got = holonomy(conn, method=method, times=np.linspace(0, scenario.duration, steps + 1)).final
                errs.append(np.max(np.abs(got - ref)))
            for a, b in zip(errs, errs[1:]):
                assert lo <= a / b <= hi

    def test_generator_called_once_per_node_set(self):
        calls = []

        def generator(ts):
            calls.append(len(ts))
            return np.zeros((len(ts), 2, 2))

        problem = MatrixOdeProblem(generator=generator, initial=np.eye(2, dtype=complex), times=np.linspace(0, 1, 41))
        for method, expected in (("midpoint_exp", [40]), ("magnus4", [40, 40])):
            calls.clear()
            propagate(problem, method)
            assert calls == expected

    def test_step_size_violation(self):
        problem = MatrixOdeProblem(
            generator=lambda ts: np.broadcast_to(10.0 * np.diag([1.0, -1.0]), (len(ts), 2, 2)),
            initial=np.eye(2, dtype=complex),
            times=np.linspace(0, 1, 5),
        )
        with pytest.raises(ResolutionError):
            propagate(problem, "midpoint_exp")

    def test_non_hermitian_generator_rejected(self):
        problem = MatrixOdeProblem(
            generator=lambda ts: np.broadcast_to(np.array([[0, 1], [0, 0]], dtype=complex), (len(ts), 2, 2)),
            initial=np.eye(2, dtype=complex),
            times=np.linspace(0, 1, 9),
        )
        with pytest.raises(StructuralError):
            propagate(problem, "magnus4")

    def test_unknown_method_rejected(self):
        problem = MatrixOdeProblem(
            generator=lambda ts: np.zeros((len(ts), 2, 2)), initial=np.eye(2, dtype=complex),
            times=np.linspace(0, 1, 5),
        )
        with pytest.raises(DomainError):
            propagate(problem, "rk4")

    def test_non_unitary_initial_rejected(self):
        with pytest.raises(StructuralError):
            MatrixOdeProblem(
                generator=lambda ts: np.zeros((len(ts), 2, 2)), initial=2 * np.eye(2, dtype=complex),
                times=np.linspace(0, 1, 5),
            )


class TestFinalOnlyRoutes:
    def test_full_propagator_and_gauge_test_form_no_prefix_stack(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a final-only route formed every prefix")

        bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "holonomy"
                 and getattr(m, "_ordered_products", None) is linalg._ordered_products]
        for module in bound:
            monkeypatch.setattr(module, "_ordered_products", forbidden)
        scenario = tycko_scenario()
        with pytest.raises(AssertionError, match="final-only"):  # the patch reaches the scan's callers
            holonomy(qd.level2_connection_samples(scenario, 65))

        u = full_propagator(dataclasses.replace(qd.adiabatic_scenario(scenario), propagator_fn=None),
                            steps_per_time=10.0)
        assert np.max(np.abs(u - qd.exact_propagator(scenario, scenario.duration))) <= 1e-6
        config = parse_config_text(
            "system = quadrupole\ntheta = tycko\nphi0 = 0.0\nomega = 0.15707963267948966\n"
            "phi_final = 6.283185307179586\ngrid = 400\nmethod = magnus4\nseed = 5\n"
        )
        assert run_gauge_test(config, count=2).passed


class TestHolonomy:
    def test_abelian_full_circle_is_unity(self):
        scenario = tycko_scenario()
        conn = qd.level1_connection_samples(scenario, 257)
        trace = holonomy(conn, method="magnus4")
        assert abs(trace.final[0, 0] - 1.0) <= 1e-10

    def test_zero_connection_identity(self):
        ts = np.linspace(0, 1, 33)
        conn = ConnectionSamples(
            level_index=0, times=ts, evaluator_a=lambda nodes: np.zeros((len(nodes), 2, 2)), multiplicity=2
        )
        trace = holonomy(conn)
        for m in trace.matrices:
            assert np.max(np.abs(m - np.eye(2))) <= 1e-14

    def test_equatorial_diagonal_holonomy(self):
        # nu = 0 decouples the level: Gamma = diag(1, exp(-3i dphi / 2))
        scenario = qd.PrecessionScenario(theta=np.pi / 2, omega=0.2, phi_final=np.pi)
        conn = qd.level2_connection_samples(scenario, 401)
        trace = holonomy(conn)
        for k in (100, 250, 400):
            dphi = scenario.omega * trace.times[k]
            expected = np.diag([1.0, np.exp(-1.5j * dphi)])
            assert np.max(np.abs(trace.matrices[k] - expected)) <= 1e-10

    def test_matches_closed_form(self):
        scenario = tycko_scenario()
        conn = qd.level2_connection_samples(scenario, 401)
        trace = holonomy(conn, method="magnus4")
        for k in (0, 133, 400):
            ref = qd.gamma2_closed(TYCKO, 0.0, scenario.phi_at(trace.times[k]))
            assert np.max(np.abs(trace.matrices[k] - ref)) <= 1e-8

    def test_reparameterization_invariance(self):
        # same azimuth samples traversed at a different speed
        scenario_slow = qd.PrecessionScenario(theta=TYCKO, omega=0.1, phi_final=2 * np.pi)
        scenario_fast = qd.PrecessionScenario(theta=TYCKO, omega=0.7, phi_final=2 * np.pi)
        a = holonomy(qd.level2_connection_samples(scenario_slow, 401)).final
        b = holonomy(qd.level2_connection_samples(scenario_fast, 401)).final
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_gauge_covariance_open_curve(self):
        scenario = tycko_scenario(cycles=0.7)
        conn = qd.level2_connection_samples(scenario, 1601)
        base = holonomy(conn).final
        t1 = float(conn.times[-1])
        for seed in (3, 4):
            gauge = random_smooth_gauge(2, 0.0, t1, seed=seed)
            transformed = holonomy(transform_connection(conn, gauge)).final
            expected = gauge(t1).conj().T @ base @ gauge(0.0)
            assert np.max(np.abs(transformed - expected)) <= 1e-9

    def test_cyclic_gauge_covariance_invariants(self):
        # over a closed loop with a loop-periodic gauge: similarity at the start point,
        # so trace and eigenvalues are gauge-invariant
        scenario = tycko_scenario()
        conn = qd.level2_connection_samples(scenario, 1601)
        base = holonomy(conn).final
        t1 = float(conn.times[-1])
        gauge = random_smooth_gauge(2, 0.0, t1, seed=11)  # Fourier series: v(t1) = v(0)
        assert np.max(np.abs(gauge(t1) - gauge(0.0))) <= 1e-12
        transformed = holonomy(transform_connection(conn, gauge)).final
        v0 = gauge(0.0)
        assert np.max(np.abs(transformed - v0.conj().T @ base @ v0)) <= 1e-9
        assert abs(np.trace(transformed) - np.trace(base)) <= 1e-9
        ev_a = np.sort_complex(np.linalg.eigvals(base))
        ev_b = np.sort_complex(np.linalg.eigvals(transformed))
        assert np.max(np.abs(ev_a - ev_b)) <= 1e-9


class TestLewisRiesenfeldU:
    def test_abelian_phase_factorization(self):
        # u(t) = exp(i delta(t)) exp(i gamma(t)) u0 with both angles from quadrature
        ts = np.linspace(0.0, 3.0, 201)
        e_of_t = lambda t: 1.3 + 0.4 * np.sin(t)
        a_of_t = lambda t: 0.2 + 0.1 * np.cos(2 * t)

        class _Eval:
            def __init__(self, f):
                self.f = f

            def __call__(self, ts):
                return np.asarray(self.f(ts), dtype=complex)[:, None, None]

        conn = ConnectionSamples(
            level_index=0, times=ts, evaluator_a=_Eval(a_of_t), evaluator_e=_Eval(e_of_t), multiplicity=1
        )
        trace = lewis_riesenfeld_u(conn, method="magnus4")
        from scipy.integrate import quad

        for k in (60, 200):
            t = ts[k]
            delta = -quad(e_of_t, 0, t, epsabs=1e-13)[0]
            gamma = quad(a_of_t, 0, t, epsabs=1e-13)[0]
            expected = np.exp(1j * (delta + gamma))
            assert abs(trace.matrices[k][0, 0] - expected) <= 1e-9

    def test_zero_energy_reduces_to_holonomy(self):
        scenario = tycko_scenario()
        base = qd.level2_connection_samples(scenario, 201)
        conn = ConnectionSamples(
            level_index=1, times=base.times, evaluator_a=base.evaluator_a,
            evaluator_e=lambda ts: np.zeros((len(ts), 2, 2), dtype=complex), multiplicity=2,
        )
        u = lewis_riesenfeld_u(conn).final
        g = holonomy(base).final
        assert np.max(np.abs(u - g)) <= 1e-12

    def test_commuting_case_factorizes(self):
        # equatorial point: E and A are both diagonal, so the ordered
        # exponentials factorize exactly
        scenario = qd.PrecessionScenario(theta=np.pi / 2, omega=0.3, phi_final=np.pi)
        conn = qd.level2_connection_samples(scenario, 401)
        u = lewis_riesenfeld_u(conn).final
        g = holonomy(conn).final
        e2 = scenario.field_at(0.0).energy_split
        t1 = conn.times[-1]
        factorized = np.exp(-1j * e2 * t1) * g
        assert np.max(np.abs(u - factorized)) <= 1e-9

    def test_analytic_connection_keeps_energy_smooth(self):
        # A = 0 and E = diag(1 + 3t^2, -2t): a diagonal quadratic that magnus4 integrates exactly
        ts = np.linspace(0.0, 1.0, 21)

        def energy(nodes):
            e = np.zeros((len(nodes), 2, 2), dtype=complex)
            e[:, 0, 0] = 1 + 3 * nodes**2
            e[:, 1, 1] = -2 * nodes
            return e

        conn = ConnectionSamples(
            level_index=0, times=ts, evaluator_a=lambda nodes: np.zeros((len(nodes), 2, 2)),
            evaluator_e=energy, multiplicity=2,
        )
        trace = lewis_riesenfeld_u(conn, method="magnus4")
        exact = np.zeros((21, 2, 2), dtype=complex)
        exact[:, 0, 0] = np.exp(-1j * (ts + ts**3))
        exact[:, 1, 1] = np.exp(1j * ts**2)
        assert np.max(np.abs(trace.matrices - exact)) <= 1e-12

    def test_initial_value_respected(self):
        scenario = tycko_scenario()
        conn = qd.level2_connection_samples(scenario, 101)
        u0 = expm_skew(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.7)
        trace = lewis_riesenfeld_u(conn, u0=u0)
        assert np.max(np.abs(trace.matrices[0] - u0)) == 0.0

    def test_energy_evaluator_required(self):
        scenario = tycko_scenario()
        base = qd.level2_connection_samples(scenario, 101)
        conn = ConnectionSamples(level_index=1, times=base.times, evaluator_a=base.evaluator_a, multiplicity=2)
        with pytest.raises(DomainError, match="energy evaluator"):
            lewis_riesenfeld_u(conn)


class TestAssembly:
    def _tycko_pieces(self, num=201):
        scenario = tycko_scenario()
        f1 = qd.level_frame_field(scenario, 0, num)
        f2 = qd.level_frame_field(scenario, 1, num)
        c1 = qd.level1_connection_samples(scenario, num)
        c2 = qd.level2_connection_samples(scenario, num)
        return scenario, (f1, f2), (c1, c2)

    def test_initial_value_is_identity(self):
        _, frames, conns = self._tycko_pieces()
        traces = [lewis_riesenfeld_u(c) for c in conns]
        u = assemble_evolution(frames, traces)
        assert np.max(np.abs(u.matrices[0] - np.eye(3))) <= 1e-12

    def test_assembled_evolution_is_unitary(self):
        _, frames, conns = self._tycko_pieces()
        traces = [lewis_riesenfeld_u(c) for c in conns]
        u = assemble_evolution(frames, traces)
        assert max(unitarity_defects(m)[0] for m in u.matrices) <= 1e-10

    def test_v_at_start_is_projector(self):
        _, frames, conns = self._tycko_pieces()
        traces = [holonomy(c) for c in conns]
        vs = assemble_V(frames, traces)
        for f, v in zip(frames, vs):
            proj = f.frames[0] @ f.frames[0].conj().T
            assert np.max(np.abs(v[0] - proj)) <= 1e-12

    def test_v_gauge_invariant(self):
        scenario, frames, conns = self._tycko_pieces(num=1601)
        base = assemble_V([frames[1]], [holonomy(conns[1])])[0]
        t1 = float(conns[1].times[-1])
        gauge = random_smooth_gauge(2, 0.0, t1, seed=23)
        conn_t = transform_connection(conns[1], gauge)
        gamma_t = holonomy(conn_t)
        from holonomy.frames import apply_gauge

        frames_t = apply_gauge(frames[1], gauge)
        v_t = assemble_V([frames_t], [gamma_t])[0]
        assert np.max(np.abs(v_t[-1] - base[-1])) <= 1e-9

    def test_cyclic_trace_of_v_equals_trace_of_holonomy(self):
        _, frames, conns = self._tycko_pieces(num=401)
        gamma = holonomy(conns[1])
        v = assemble_V([frames[1]], [gamma])[0]
        # frames are periodic over the cycle, so trace V(T) = trace Gamma(T)
        assert abs(np.trace(v[-1]) - np.trace(gamma.final)) <= 1e-10

    def test_incomplete_cover_rejected(self):
        _, frames, conns = self._tycko_pieces(num=201)
        with pytest.raises(DomainError):
            assemble_evolution([frames[1]], [lewis_riesenfeld_u(conns[1])])

    def test_mismatched_grids_rejected(self):
        _, frames, conns = self._tycko_pieces(num=201)
        short = lewis_riesenfeld_u(conns[1], times=np.linspace(0, 1, 21))
        with pytest.raises(DomainError):
            assemble_evolution(list(frames), [lewis_riesenfeld_u(conns[0]), short])


def transported_invariant_evolution(family, curve, ham):
    """U(t) on the transported frames of an invariant with simple levels: u^n = Gamma^n exp(-i int E^n dt).

    Gamma^n is the discrete Wilson line of the frames; E^n = F^dag H F per
    sample, integrated by the trapezoid rule.
    """
    fields = transport_frames(family, curve)
    assert all(f.multiplicity == 1 for f in fields)
    traces = []
    for f in fields:
        g = f.frames[:, :, 0]
        e = np.real(np.einsum("ki,kij,kj->k", g.conj(), ham(f.times), g))
        delta = np.concatenate([[0.0], np.cumsum(0.5 * (e[1:] + e[:-1]) * np.diff(f.times))])
        u = transport_holonomy(f) * np.exp(-1j * delta)[:, None, None]
        traces.append(PropagatorTrace(times=f.times, matrices=u, method="transport", max_step_norm=0.0))
    return assemble_evolution(fields, traces)


class TestSchroedingerResidual:
    def test_assembled_states_solve_schroedinger(self):
        # the exact-invariant frames, transported: the assembled evolution must
        # track the exact propagator and satisfy the equation pointwise
        scenario = tycko_scenario(period=20.0)
        family = qd.exact_invariant_family(scenario)
        num = 601
        ts = scenario.times(num)
        curve = Curve(times=ts, points=ts[:, None], evaluator=lambda s: s[:, None])
        ham = lambda t: qd.hamiltonian(scenario.field_at(t))
        u = transported_invariant_evolution(family, curve, ham)

        exact = qd.exact_propagator(scenario, float(ts[-1]))
        assert np.max(np.abs(u.final - exact)) <= 2e-3

        h = ts[1] - ts[0]
        psis = u.matrices  # columns are evolving states
        rhs = np.array([-1j * ham(t) @ psis[k] for k, t in enumerate(ts)])
        worst_ratio = 0.0
        for k in range(2, num - 2, 11):
            lhs = (psis[k + 1] - psis[k - 1]) / (2 * h)
            residual = np.max(np.abs(lhs - rhs[k]))
            third = (rhs[k + 1] - 2 * rhs[k] + rhs[k - 1]) / h**2
            estimate = (h**2 / 6) * np.max(np.abs(third))
            worst_ratio = max(worst_ratio, residual / max(estimate, 1e-15))
        assert worst_ratio <= 10.0

    def test_second_order_in_the_sample_spacing(self):
        # the trapezoid rule and the Wilson line both err at O(h^2): halving h quarters the deviation
        scenario = tycko_scenario(period=20.0)
        family = qd.exact_invariant_family(scenario)
        ham = lambda t: qd.hamiltonian(scenario.field_at(t))
        devs = []
        for num in (101, 201, 401):
            ts = scenario.times(num)
            u = transported_invariant_evolution(family, Curve(times=ts, points=ts[:, None]), ham)
            devs.append(np.max(np.abs(u.final - qd.exact_propagator(scenario, float(ts[-1])))))
        for coarse, fine in zip(devs, devs[1:]):
            assert 3.5 <= coarse / fine <= 4.5
