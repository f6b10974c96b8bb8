import dataclasses
import sys

import numpy as np
import pytest

from holonomy import linalg
from holonomy.adiabatic import full_propagator
from holonomy.config import parse_config_text
from holonomy.errors import DomainError, ResolutionError, StructuralError
from holonomy.frames import Curve, transport_frames, transport_holonomy
from holonomy.gauges import random_smooth_gauge, transform_problem
from holonomy.linalg import _stack_last, _stack_matmul, eigh_many, expm_skew, expm_skew_many, unitarity_defects
from holonomy.propagate import (
    METHODS,
    MatrixOdeProblem,
    PropagatorTrace,
    _doublet_steps,
    _pauli_components,
    _steps_at_nodes,
    assemble_V,
    assemble_evolution,
    lewis_riesenfeld_u,
    propagate,
    propagate_final,
)
from holonomy.runner import run_gauge_test
from holonomy import quadrupole as qd

TYCKO = qd.TYCKO_THETA


def tycko_scenario(cycles=1.0, period=40.0):
    return qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=2 * np.pi / period,
                                 phi_final=2 * np.pi * cycles)


def constant(value):
    """Batched evaluator ts (m,) -> m copies of a constant matrix."""
    value = np.asarray(value, dtype=complex)
    return lambda ts: np.repeat(value[None], len(ts), axis=0)


def level_evaluators(scenario):
    """The oracle (A, E) evaluators of the quadrupole's nondegenerate and degenerate level.

    Level 1 carries the pure-gauge A = omega and E = 0; the doublet carries
    A = omega A2(phi(t)) and E = E2 (its Hamiltonian block is scalar in any frame).
    """
    a2 = qd.level2_connection(scenario.theta)
    e2 = scenario.field_at(0.0).energy_split
    return (
        (constant(scenario.omega * np.eye(1)), constant(np.zeros((1, 1)))),
        (lambda ts: scenario.omega * a2(scenario.phi_at(ts)), constant(e2 * np.eye(2))),
    )


def level1_holonomy_problem(scenario, num_samples):
    """i dG/dt = -omega G, G(0) = 1: the nondegenerate level's holonomy along the precession."""
    return MatrixOdeProblem(generator=constant(-scenario.omega * np.eye(1)), initial=np.eye(1, dtype=complex),
                            times=scenario.times(num_samples))


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
        problem = qd.level2_holonomy_problem(scenario, 401)
        for method in ("midpoint_exp", "magnus4"):
            trace = propagate(problem, method)
            assert max(unitarity_defects(m)[0] for m in trace.matrices) <= 1e-10

    def test_order_of_convergence(self):
        scenario = tycko_scenario()
        bands = {"midpoint_exp": (2.5, 6.0), "magnus4": (8.0, 32.0)}
        for method, (lo, hi) in bands.items():
            ref = propagate_final(qd.level2_holonomy_problem(scenario, 4001), method)
            errs = []
            for steps in (50, 100, 200):
                got = propagate_final(qd.level2_holonomy_problem(scenario, steps + 1), method)
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


def hermitian_stack(rng, m, scale):
    a = rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2))
    return scale * 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))


def doublet_steps(heff):
    """The closed-form step exponentials of an (m, 2, 2) stack, back in that layout, and max |K| h."""
    steps, norm = _doublet_steps(*_pauli_components(heff))
    return np.moveaxis(steps, -1, 0), norm


class TestDoubletSteps:
    """exp(-i heff) of 2x2 steps from the Pauli components, against the eigendecomposition route."""

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 0.05, 0.2])
    def test_random_stacks_match_eigenbasis_exponential(self, scale):
        heff = hermitian_stack(np.random.default_rng(3), 2000, scale)
        steps, norm = doublet_steps(heff)
        assert np.max(np.abs(steps - expm_skew_many(*eigh_many(heff)))) <= 1e-15
        assert norm == np.max(np.abs(eigh_many(heff)[0]))

    def test_scalar_step_is_a_phase(self):
        # heff = a0 * 1: r = 0, so exp(-i heff) = e^{-i a0} 1 exactly
        a0 = np.array([0.0, 0.3, -0.7, 1e-300])
        steps, _ = doublet_steps(a0[:, None, None] * np.eye(2))
        assert np.array_equal(steps, np.exp(-1j * a0)[:, None, None] * np.eye(2))

    def test_diagonal_step_stays_diagonal(self):
        rng = np.random.default_rng(4)
        diag = rng.uniform(-0.4, 0.4, size=(200, 2))
        steps, _ = doublet_steps(diag[:, :, None] * np.eye(2))
        assert np.all(steps[:, 0, 1] == 0) and np.all(steps[:, 1, 0] == 0)
        assert np.max(np.abs(np.diagonal(steps, axis1=1, axis2=2) - np.exp(-1j * diag))) <= 1e-15

    @pytest.mark.parametrize("lower", [5e-324, 3e-310 - 2e-310j, 1e-160j])
    def test_tiny_lower_entry(self, lower):
        heff = np.array([[[0.2, np.conj(lower)], [lower, 0.2]], [[0.1, np.conj(lower)], [lower, -0.3]]])
        steps, _ = doublet_steps(heff)
        assert np.all(np.isfinite(steps))
        assert np.max(np.abs(steps - expm_skew_many(*eigh_many(heff)))) <= 1e-15
        assert np.max(unitarity_defects(steps)) <= 1e-15

    def test_resolution_error_names_the_worst_step(self):
        # |K| h = |a0| + r, the largest |eigenvalue|, reported as the eigendecomposition route reports it
        times = np.linspace(0.0, 1.0, 9)
        gen = lambda ts: (0.2 + 10.0 * ts)[:, None, None] * np.array([[0.3, 1.0 - 1j], [1.0 + 1j, -0.5]])
        problem = MatrixOdeProblem(generator=gen, initial=np.eye(2, dtype=complex), times=times)
        mids = 0.5 * (times[1:] + times[:-1])
        norms = np.max(np.abs(np.linalg.eigvalsh(gen(mids) * np.diff(times)[:, None, None])), axis=1)
        worst = int(np.argmax(norms))
        assert worst == len(mids) - 1 and norms[worst] >= 1.0
        with pytest.raises(ResolutionError) as err:
            propagate(problem, "midpoint_exp")
        assert str(err.value) == f"step {worst} violates |K| h < 1.0: got {norms[worst]:.3f}; refine the grid"

    def test_composition(self):
        # propagating [t0, t1] and then [t1, t2] gives [t0, t2]
        pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        gen = lambda ts: (0.3 * np.cos(ts)[:, None, None] * pauli[0] + np.sin(2 * ts)[:, None, None] * pauli[2]
                          + (0.2 * ts)[:, None, None] * pauli[1] + 0.1 * np.eye(2))
        times = np.linspace(0.0, 6.0, 601)
        for method in METHODS:
            whole = propagate(MatrixOdeProblem(gen, np.eye(2, dtype=complex), times), method)
            first = propagate(MatrixOdeProblem(gen, np.eye(2, dtype=complex), times[:251]), method)
            second = propagate(MatrixOdeProblem(gen, first.final, times[250:]), method)
            assert np.max(np.abs(second.final - whole.final)) <= 1e-13
            assert np.max(np.abs(np.concatenate([first.matrices, second.matrices[1:]]) - whole.matrices)) <= 1e-13


def matrix_commutator_steps(ks, hs):
    """The reference route: heff from matrix commutators (``_stack_matmul``), exp and |K| h from ``eigh_many``."""
    if len(ks) == 1:
        heff = _stack_last(ks[0]) * hs
    else:
        k1, k2 = _stack_last(ks[0]), _stack_last(ks[1])
        comm = _stack_matmul(k2, k1) - _stack_matmul(k1, k2)
        heff = 0.5 * (k1 + k2) * hs - 1j * (np.sqrt(3.0) / 12.0) * hs**2 * comm
    eigs, vecs = eigh_many(np.moveaxis(heff, -1, 0))
    return expm_skew_many(eigs, vecs), np.max(np.abs(eigs), axis=1)


class TestPauliMagnusStep:
    """2x2 steps built from Pauli components, [k2.sigma, k1.sigma] = 2i (k2 x k1).sigma, against matrix commutators."""

    @staticmethod
    def nodes(scale, nodes, m=2000, seed=5):
        # |K| h about ``scale``; the magnus4 commutator term is about scale^2, a share of about scale
        rng = np.random.default_rng(seed)
        hs = 0.01 * rng.uniform(0.5, 1.5, size=m)
        ks = [hermitian_stack(rng, m, scale / 0.01) for _ in range(nodes)]
        problem = MatrixOdeProblem(generator=None, initial=np.eye(2, dtype=complex),
                                   times=np.concatenate([[0.0], np.cumsum(hs)]))
        return problem, ks, hs

    @pytest.mark.parametrize("nodes", [1, 2], ids=["midpoint_exp", "magnus4"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 0.05, 0.15])
    def test_matches_matrix_commutator_route(self, scale, nodes):
        problem, ks, hs = self.nodes(scale, nodes)
        steps, norm = _steps_at_nodes(problem, ks, hs)
        ref_steps, ref_norms = matrix_commutator_steps(ks, hs)
        assert np.max(np.abs(np.moveaxis(steps, -1, 0) - ref_steps)) <= 1e-15
        # heff's components are rounded in another order, so |K| h may differ by a few ulp
        assert abs(norm - np.max(ref_norms)) <= 4 * np.spacing(np.max(ref_norms))

    @pytest.mark.parametrize("nodes", [1, 2], ids=["midpoint_exp", "magnus4"])
    def test_resolution_error_matches_matrix_commutator_route(self, nodes):
        problem, ks, hs = self.nodes(0.2, nodes, m=64)
        for k in ks:
            k[37] *= 8.0
        _, ref_norms = matrix_commutator_steps(ks, hs)
        worst = int(np.argmax(ref_norms))
        assert worst == 37 and ref_norms[worst] >= 1.0
        with pytest.raises(ResolutionError) as err:
            _steps_at_nodes(problem, ks, hs)
        assert str(err.value) == f"step {worst} violates |K| h < 1.0: got {ref_norms[worst]:.3f}; refine the grid"


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
            propagate(qd.level2_holonomy_problem(scenario, 65))

        u = full_propagator(dataclasses.replace(qd.adiabatic_scenario(scenario), drive_generator=None),
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
        trace = propagate(level1_holonomy_problem(scenario, 257), "magnus4")
        assert abs(trace.final[0, 0] - 1.0) <= 1e-10

    def test_zero_connection_identity(self):
        problem = MatrixOdeProblem(generator=constant(np.zeros((2, 2))), initial=np.eye(2, dtype=complex),
                                   times=np.linspace(0, 1, 33))
        trace = propagate(problem)
        for m in trace.matrices:
            assert np.max(np.abs(m - np.eye(2))) <= 1e-14

    def test_equatorial_diagonal_holonomy(self):
        # nu = 0 decouples the level: Gamma = diag(1, exp(-3i dphi / 2))
        scenario = qd.PrecessionScenario(theta=np.pi / 2, omega=0.2, phi_final=np.pi)
        trace = propagate(qd.level2_holonomy_problem(scenario, 401))
        for k in (100, 250, 400):
            dphi = scenario.omega * trace.times[k]
            expected = np.diag([1.0, np.exp(-1.5j * dphi)])
            assert np.max(np.abs(trace.matrices[k] - expected)) <= 1e-10

    def test_matches_closed_form(self):
        scenario = tycko_scenario()
        trace = propagate(qd.level2_holonomy_problem(scenario, 401), "magnus4")
        for k in (0, 133, 400):
            ref = qd.gamma2_closed(TYCKO, 0.0, scenario.phi_at(trace.times[k]))
            assert np.max(np.abs(trace.matrices[k] - ref)) <= 1e-8

    def test_reparameterization_invariance(self):
        # same azimuth samples traversed at a different speed
        scenario_slow = qd.PrecessionScenario(theta=TYCKO, omega=0.1, phi_final=2 * np.pi)
        scenario_fast = qd.PrecessionScenario(theta=TYCKO, omega=0.7, phi_final=2 * np.pi)
        a = propagate_final(qd.level2_holonomy_problem(scenario_slow, 401))
        b = propagate_final(qd.level2_holonomy_problem(scenario_fast, 401))
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_gauge_covariance_open_curve(self):
        scenario = tycko_scenario(cycles=0.7)
        problem = qd.level2_holonomy_problem(scenario, 1601)
        base = propagate_final(problem)
        t1 = float(problem.times[-1])
        for seed in (3, 4):
            gauge = random_smooth_gauge(2, 0.0, t1, seed=seed)
            transformed = propagate_final(transform_problem(problem, gauge))
            expected = gauge(t1).conj().T @ base @ gauge(0.0)
            assert np.max(np.abs(transformed - expected)) <= 1e-9

    def test_cyclic_gauge_covariance_invariants(self):
        # over a closed loop with a loop-periodic gauge: similarity at the start point,
        # so trace and eigenvalues are gauge-invariant
        scenario = tycko_scenario()
        problem = qd.level2_holonomy_problem(scenario, 1601)
        base = propagate_final(problem)
        t1 = float(problem.times[-1])
        gauge = random_smooth_gauge(2, 0.0, t1, seed=11)  # Fourier series: v(t1) = v(0)
        assert np.max(np.abs(gauge(t1) - gauge(0.0))) <= 1e-12
        transformed = propagate_final(transform_problem(problem, gauge))
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

        trace = lewis_riesenfeld_u(_Eval(a_of_t), _Eval(e_of_t), np.eye(1), ts, method="magnus4")
        from scipy.integrate import quad

        for k in (60, 200):
            t = ts[k]
            delta = -quad(e_of_t, 0, t, epsabs=1e-13)[0]
            gamma = quad(a_of_t, 0, t, epsabs=1e-13)[0]
            expected = np.exp(1j * (delta + gamma))
            assert abs(trace.matrices[k][0, 0] - expected) <= 1e-9

    def test_zero_energy_reduces_to_holonomy(self):
        scenario = tycko_scenario()
        _, (a, _) = level_evaluators(scenario)
        u = lewis_riesenfeld_u(a, constant(np.zeros((2, 2))), np.eye(2), scenario.times(201)).final
        g = propagate_final(qd.level2_holonomy_problem(scenario, 201))
        assert np.max(np.abs(u - g)) <= 1e-12

    def test_commuting_case_factorizes(self):
        # equatorial point: E and A are both diagonal, so the ordered
        # exponentials factorize exactly
        scenario = qd.PrecessionScenario(theta=np.pi / 2, omega=0.3, phi_final=np.pi)
        _, (a, e) = level_evaluators(scenario)
        ts = scenario.times(401)
        u = lewis_riesenfeld_u(a, e, np.eye(2), ts).final
        g = propagate_final(qd.level2_holonomy_problem(scenario, 401))
        e2 = scenario.field_at(0.0).energy_split
        t1 = ts[-1]
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

        trace = lewis_riesenfeld_u(constant(np.zeros((2, 2))), energy, np.eye(2), ts, method="magnus4")
        exact = np.zeros((21, 2, 2), dtype=complex)
        exact[:, 0, 0] = np.exp(-1j * (ts + ts**3))
        exact[:, 1, 1] = np.exp(1j * ts**2)
        assert np.max(np.abs(trace.matrices - exact)) <= 1e-12

    def test_initial_value_respected(self):
        scenario = tycko_scenario()
        _, (a, e) = level_evaluators(scenario)
        u0 = expm_skew(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.7)
        trace = lewis_riesenfeld_u(a, e, u0, scenario.times(101))
        assert np.max(np.abs(trace.matrices[0] - u0)) == 0.0


class TestAssembly:
    def _tycko_pieces(self, num=201):
        scenario = tycko_scenario()
        f1 = qd.level_frame_field(scenario, 0, num)
        f2 = qd.level_frame_field(scenario, 1, num)
        return scenario, (f1, f2)

    def _u_traces(self, scenario, num):
        ts = scenario.times(num)
        return [lewis_riesenfeld_u(a, e, np.eye(l), ts) for l, (a, e) in zip((1, 2), level_evaluators(scenario))]

    def test_initial_value_is_identity(self):
        scenario, frames = self._tycko_pieces()
        u = assemble_evolution(frames, self._u_traces(scenario, 201))
        assert np.max(np.abs(u.matrices[0] - np.eye(3))) <= 1e-12

    def test_assembled_evolution_is_unitary(self):
        scenario, frames = self._tycko_pieces()
        u = assemble_evolution(frames, self._u_traces(scenario, 201))
        assert max(unitarity_defects(m)[0] for m in u.matrices) <= 1e-10

    def test_v_at_start_is_projector(self):
        scenario, frames = self._tycko_pieces()
        problems = (level1_holonomy_problem(scenario, 201), qd.level2_holonomy_problem(scenario, 201))
        traces = [propagate(problem) for problem in problems]
        vs = assemble_V(frames, traces)
        for f, v in zip(frames, vs):
            proj = f.frames[0] @ f.frames[0].conj().T
            assert np.max(np.abs(v[0] - proj)) <= 1e-12

    def test_v_gauge_invariant(self):
        scenario, frames = self._tycko_pieces(num=1601)
        problem = qd.level2_holonomy_problem(scenario, 1601)
        base = assemble_V([frames[1]], [propagate(problem)])[0]
        t1 = float(problem.times[-1])
        gauge = random_smooth_gauge(2, 0.0, t1, seed=23)
        gamma_t = propagate(transform_problem(problem, gauge))
        from holonomy.frames import apply_gauge

        frames_t = apply_gauge(frames[1], gauge)
        v_t = assemble_V([frames_t], [gamma_t])[0]
        assert np.max(np.abs(v_t[-1] - base[-1])) <= 1e-9

    def test_cyclic_trace_of_v_equals_trace_of_holonomy(self):
        scenario, frames = self._tycko_pieces(num=401)
        gamma = propagate(qd.level2_holonomy_problem(scenario, 401))
        v = assemble_V([frames[1]], [gamma])[0]
        # frames are periodic over the cycle, so trace V(T) = trace Gamma(T)
        assert abs(np.trace(v[-1]) - np.trace(gamma.final)) <= 1e-10

    def test_incomplete_cover_rejected(self):
        scenario, frames = self._tycko_pieces(num=201)
        with pytest.raises(DomainError):
            assemble_evolution([frames[1]], self._u_traces(scenario, 201)[1:])

    def test_mismatched_grids_rejected(self):
        scenario, frames = self._tycko_pieces(num=201)
        (a1, e1), (a2, e2) = level_evaluators(scenario)
        short = lewis_riesenfeld_u(a2, e2, np.eye(2), np.linspace(0, 1, 21))
        with pytest.raises(DomainError):
            assemble_evolution(list(frames), [lewis_riesenfeld_u(a1, e1, np.eye(1), scenario.times(201)), short])


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
