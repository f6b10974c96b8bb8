import numpy as np
import pytest

from holonomy.adiabatic import _level_holonomies
from holonomy.errors import AxisSingularityError, DomainError
from holonomy.linalg import eigh_many, expm_skew, level_bounds, unitarity_defects
from holonomy.propagate import MatrixOdeProblem, propagate
from holonomy import quadrupole as qd
from test_propagate import constant, level1_holonomy_problem

TYCKO = qd.TYCKO_THETA
SQRT3 = np.sqrt(3.0)


def zeta_of(theta):
    return np.cos(theta) / np.sin(theta)


class TestFieldPoint:
    def test_axis_rejected(self):
        with pytest.raises(AxisSingularityError):
            qd.FieldPoint(rho=0.0, phi=0.0, zeta=0.0)
        with pytest.raises(AxisSingularityError):
            qd.FieldPoint.from_spherical(r=1.0, theta=0.0, phi=0.0)

    def test_spherical_consistency(self):
        p = qd.FieldPoint.from_spherical(r=2.0, theta=0.7, phi=0.3)
        assert p.radius == pytest.approx(2.0, abs=1e-12)
        assert p.cos_theta == pytest.approx(np.cos(0.7), abs=1e-12)
        assert p.rho**2 * (1 + p.zeta**2) == pytest.approx(4.0, abs=1e-12)


class TestHamiltonian:
    def test_explicit_equatorial_matrix(self):
        h = qd.hamiltonian(qd.FieldPoint(rho=1.0, phi=0.0, zeta=0.0, coupling=1.0))
        expected = np.array([[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]])
        assert np.max(np.abs(h - expected)) <= 1e-15

    def test_is_squared_field_angular_momentum(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho, phi, zeta, lam = rng.uniform(0.5, 2), rng.uniform(0, 7), rng.uniform(-2, 2), rng.uniform(0.3, 3)
            jr = rho * (np.cos(phi) * qd.J1 + np.sin(phi) * qd.J2 + zeta * qd.J3)
            assert np.max(np.abs(qd.hamiltonian(qd.FieldPoint(rho, phi, zeta, lam)) - lam * jr @ jr)) <= 1e-12

    def test_spectrum(self):
        # nondegenerate 0 and doubly degenerate coupling * rho^2 * (1 + zeta^2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = qd.FieldPoint(rng.uniform(0.5, 2), rng.uniform(0, 7), rng.uniform(-2, 2), rng.uniform(0.3, 3))
            vals = eigh_many(qd.hamiltonian(p))[0]
            assert level_bounds(vals[None]) == ((0, 1), (1, 3))
            assert vals[0] == pytest.approx(0.0, abs=1e-12)
            assert vals[1:] == pytest.approx([p.energy_split] * 2, rel=1e-12)

    def test_trace_is_twice_degenerate_eigenvalue(self):
        p = qd.FieldPoint(1.3, 0.7, 0.9, 1.1)
        assert np.trace(qd.hamiltonian(p)).real == pytest.approx(2 * p.energy_split, rel=1e-12)


class TestEigenframe:
    def test_equatorial_vectors(self):
        p = qd.FieldPoint(1.0, 0.0, 0.0)
        v1 = qd.level_frame(p, 0)[:, 0]
        assert np.allclose(v1, np.array([-1, 0, 1]) / np.sqrt(2), atol=1e-15)
        f2 = qd.level_frame(p, 1)
        assert np.allclose(f2[:, 0], [0, 1, 0], atol=1e-15)
        assert np.allclose(f2[:, 1], np.array([-1, 0, -1]) / np.sqrt(2), atol=1e-15)

    def test_eigen_equation_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = qd.FieldPoint(rng.uniform(0.5, 2), rng.uniform(0, 7), rng.uniform(-2, 2), rng.uniform(0.3, 3))
            h = qd.hamiltonian(p)
            assert np.max(np.abs(h @ qd.level_frame(p, 0))) <= 1e-10 * p.energy_split
            f2 = qd.level_frame(p, 1)
            assert np.max(np.abs(h @ f2 - p.energy_split * f2)) <= 1e-10 * p.energy_split

    def test_orthonormal(self):
        p = qd.FieldPoint(1.0, 1.3, -0.8)
        full = np.column_stack([qd.level_frame(p, 0), qd.level_frame(p, 1)])
        assert np.max(np.abs(full.conj().T @ full - np.eye(3))) <= 1e-12

    def test_matches_generic_eigensolver_subspaces(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = qd.FieldPoint(rng.uniform(0.5, 2), rng.uniform(0, 7), rng.uniform(-2, 2))
            vals, vecs = eigh_many(qd.hamiltonian(p))
            for level, (start, stop) in enumerate(level_bounds(vals[None])):
                a, b = qd.level_frame(p, level), vecs[:, start:stop]
                assert np.max(np.abs(a @ a.conj().T - b @ b.conj().T)) <= 1e-9


class TestConnectionCoeffs:
    def test_tycko_splitting(self):
        k = qd.connection_coeffs(TYCKO)
        assert k.delta == pytest.approx(np.sqrt(889) / 24, abs=1e-12)

    def test_tycko_values(self):
        k = qd.connection_coeffs(TYCKO)
        assert k.mu == pytest.approx(0.5, abs=1e-12)
        assert k.sigma == pytest.approx(-41 / 24, abs=1e-12)
        assert k.nu == pytest.approx(-1 / (2 * SQRT3), abs=1e-12)

    def test_equatorial_values(self):
        k = qd.connection_coeffs(np.pi / 2)
        assert k.mu == pytest.approx(0.0, abs=1e-30)
        assert k.nu == pytest.approx(0.0, abs=1e-16)
        assert k.sigma == pytest.approx(-1.5, abs=1e-15)
        assert k.delta == pytest.approx(0.5, abs=1e-15)

    def test_axis_rejected(self):
        for theta in (0.0, np.pi):
            with pytest.raises(AxisSingularityError):
                qd.connection_coeffs(theta)

    def test_coefficient_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            k = qd.connection_coeffs(rng.uniform(0.01, np.pi - 0.01))
            c = k.cos_theta
            assert abs(k.sigma + 0.75 * k.mu + 0.5 + (1 + c**4) / (1 + c**2)) <= 1e-12

    def test_delta_polynomial_form(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            k = qd.connection_coeffs(rng.uniform(0.01, np.pi - 0.01))
            c = k.cos_theta
            poly = np.sqrt(1 + 4 * c**2 * (4 + 8 * c**2 + 7 * c**4 + c**6)) / (2 * (1 + c**2))
            assert abs(k.delta - poly) <= 1e-12

    def test_zeta_parameterization(self):
        # same coefficients in the slope variable zeta = cot(theta), with the
        # corrected numerator of the diagonal coefficient
        rng = np.random.default_rng(7)
        for _ in range(1000):
            theta = rng.uniform(0.05, np.pi - 0.05)
            z = zeta_of(theta)
            k = qd.connection_coeffs(theta)
            assert abs(k.mu - 2 * z**2 / (1 + 2 * z**2)) <= 1e-12
            assert abs(k.nu + z / ((1 + 2 * z**2) * np.sqrt(1 + z**2))) <= 1e-12
            sigma_z = -((1 + z**2) ** 2 + 2 * (1 + 2 * z**2) ** 2) / (2 * (1 + 2 * z**2) * (1 + z**2))
            assert abs(k.sigma - sigma_z) <= 1e-12


class TestGamma2Closed:
    def test_identity_at_start(self):
        for theta in (TYCKO, 0.4, 2.6):
            g = qd.gamma2_closed(theta, 1.2, 1.2)
            assert np.max(np.abs(g - np.eye(2))) <= 1e-14

    def test_unitary(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = qd.gamma2_closed(rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 7), rng.uniform(-10, 10))
            assert unitarity_defects(g)[0] <= 1e-12

    def test_equatorial_diagonal(self):
        for dphi in (0.5, np.pi, 4.0):
            g = qd.gamma2_closed(np.pi / 2, 0.7, 0.7 + dphi)
            expected = np.diag([1.0, np.exp(-1.5j * dphi)])
            assert np.max(np.abs(g - expected)) <= 1e-14

    def test_cyclic_eigenphases(self):
        g = qd.gamma2_closed(TYCKO, 0.0, 2 * np.pi)
        k = qd.connection_coeffs(TYCKO)
        got = np.sort(np.angle(np.linalg.eigvals(g)))
        expected = np.sort([np.angle(np.exp(1j * p)) for p in qd.cyclic_eigenphases(TYCKO)])
        assert np.max(np.abs(got - expected)) <= 1e-12
        # removing the determinant phase leaves the symmetric pair +-pi(Delta+1)
        normalized = g * np.exp(-1j * np.pi * (k.mu + k.sigma))
        got_n = np.sort(np.angle(np.linalg.eigvals(normalized)))
        target = np.angle(np.exp(1j * np.pi * (k.delta + 1)))
        assert got_n == pytest.approx([-target, target], abs=1e-12)

    def test_start_independence_of_cyclic_trace(self):
        for phi0 in (0.0, 1.0, -2.5):
            g = qd.gamma2_closed(TYCKO, phi0, phi0 + 2 * np.pi)
            assert np.trace(g) == pytest.approx(qd.pi2_cyclic(TYCKO), abs=1e-12)


class TestRotatingFrame:
    def test_equatorial_diagonal_generator(self):
        hp, reconstruct = qd.rotating_frame(np.pi / 2)
        assert np.max(np.abs(hp - np.diag(np.diag(hp)))) <= 1e-15
        g = reconstruct(0.2, 0.2 + 1.3)
        assert np.max(np.abs(g - np.diag([1.0, np.exp(-1.5j * 1.3)]))) <= 1e-13

    def test_generator_eigenvalues(self):
        k = qd.connection_coeffs(TYCKO)
        hp, _ = qd.rotating_frame(TYCKO)
        got = np.sort(np.linalg.eigvalsh(hp))
        expected = np.sort([(-(k.mu + k.sigma) - k.delta) / 2, (-(k.mu + k.sigma) + k.delta) / 2])
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_reconstruct_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi0 = rng.uniform(-5, 5)
            phi = phi0 + rng.uniform(-10, 10)
            _, reconstruct = qd.rotating_frame(theta)
            assert np.max(np.abs(reconstruct(phi0, phi) - qd.gamma2_closed(theta, phi0, phi))) <= 1e-10


class TestW2Closed:
    def test_identity_at_start(self):
        assert np.max(np.abs(qd.w2_closed(TYCKO, 0.9, 0.9) - np.eye(2))) <= 1e-14

    def test_dual_forms_of_last_entry(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            theta = rng.uniform(0.05, np.pi - 0.05)
            dphi = rng.uniform(-10, 10)
            k = qd.connection_coeffs(theta)
            w = qd.w2_closed(theta, 0.0, dphi)
            alt = 1 + (k.sigma + 0.75 * k.mu + 0.5) * (1 - np.cos(dphi)) + 1j * k.mu * np.sin(dphi)
            assert abs(w[1, 1] - alt) <= 1e-12

    def test_brute_force_overlaps(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi0 = rng.uniform(-2 * np.pi, 2 * np.pi)
            phi = phi0 + rng.uniform(-4 * np.pi, 4 * np.pi)
            z = zeta_of(theta)
            fa = qd.level_frame(qd.FieldPoint(1.0, phi0, z), 1)
            fb = qd.level_frame(qd.FieldPoint(1.0, phi, z), 1)
            assert np.max(np.abs(fa.conj().T @ fb - qd.w2_closed(theta, phi0, phi))) <= 1e-10

    def test_level1_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi0 = rng.uniform(-5, 5)
            phi = phi0 + rng.uniform(-7, 7)
            z = zeta_of(theta)
            va = qd.level_frame(qd.FieldPoint(1.0, phi0, z), 0)[:, 0]
            vb = qd.level_frame(qd.FieldPoint(1.0, phi, z), 0)[:, 0]
            assert abs(np.vdot(va, vb) - qd.w1_closed(theta, phi0, phi)) <= 1e-12


class TestPi2Closed:
    def test_endpoint_identity(self):
        for theta in (TYCKO, 0.6, 2.2):
            assert qd.pi2_closed(theta, 0.4, 0.4) == pytest.approx(2.0, abs=1e-12)

    def test_cyclic_value(self):
        for theta in (TYCKO, 0.9):
            for phi0 in (0.0, 1.7):
                got = qd.pi2_closed(theta, phi0, phi0 + 2 * np.pi)
                assert got == pytest.approx(qd.pi2_cyclic(theta), abs=1e-12)

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi0 = rng.uniform(-2 * np.pi, 2 * np.pi)
            phi = phi0 + rng.uniform(-4 * np.pi, 4 * np.pi)
            lhs = qd.pi2_closed(theta, phi0, phi)
            rhs = np.trace(qd.w2_closed(theta, phi0, phi) @ qd.gamma2_closed(theta, phi0, phi))
            assert abs(lhs - rhs) <= 1e-9

    def test_compact_two_decimal_display_is_not_exact(self):
        # a compact two-decimal rendering of the trace at this configuration
        # does not evaluate to the exact formula; only the exact form is asserted
        def compact(phi):
            return (1 / 3) * np.exp(0.10j * phi) * (
                (2 + 4 * np.cos(phi) + 3j * np.sin(phi)) * np.cos(0.62 * phi)
                + 0.81 * (np.cos(phi / 2) + 2.42j * np.sin(phi / 2)) * np.sin(phi / 2) * np.sin(0.62 * phi)
            )

        devs = [abs(qd.pi2_closed(TYCKO, 0.0, p) - compact(p)) for p in np.linspace(0.3, 2 * np.pi, 24)]
        assert max(devs) > 0.1


class TestStackedClosedForms:
    @pytest.mark.parametrize(
        "form", [qd.gamma2_closed, qd.w2_closed, qd.w1_closed, qd.pi2_closed], ids=lambda f: f.__name__
    )
    def test_stack_equals_per_point_calls(self, form):
        rng = np.random.default_rng(23)
        for theta in rng.uniform(0.05, np.pi - 0.05, 5):
            phi0 = rng.uniform(-2 * np.pi, 2 * np.pi)
            phis = phi0 + rng.uniform(-8 * np.pi, 8 * np.pi, 257)  # several turns either way
            stack = form(theta, phi0, phis)
            assert np.array_equal(stack, np.array([form(theta, phi0, p) for p in phis]))

    def test_scalar_azimuth_keeps_result_types(self):
        for matrix in (qd.gamma2_closed(TYCKO, 0.2, 1.3), qd.w2_closed(TYCKO, 0.2, 1.3)):
            assert matrix.shape == (2, 2) and matrix.dtype == complex
        assert type(qd.pi2_closed(TYCKO, 0.2, 1.3)) is complex
        assert type(qd.w1_closed(TYCKO, 0.2, 1.3)) is float
        assert type(qd.gamma1_closed(0.2, 1.3)) is complex

    def test_gamma1_stack_equals_per_point_calls(self):
        phis = 0.4 + np.random.default_rng(29).uniform(-8 * np.pi, 8 * np.pi, 257)
        assert np.array_equal(qd.gamma1_closed(0.4, phis), np.array([qd.gamma1_closed(0.4, p) for p in phis]))

    def test_coefficients_computed_once_per_stack(self, monkeypatch):
        thetas = []
        original = qd.connection_coeffs
        monkeypatch.setattr(qd, "connection_coeffs", lambda theta: thetas.append(theta) or original(theta))
        phis = np.linspace(0.0, 4 * np.pi, 101)
        for form in (qd.gamma2_closed, qd.w2_closed, qd.pi2_closed):
            assert len(form(TYCKO, 0.0, phis)) == len(phis)
        assert thetas == [TYCKO] * 3


class TestOracleConnection:
    def test_ode_reproduces_closed_form(self):
        scenario = qd.PrecessionScenario(theta=TYCKO, omega=2 * np.pi / 40, phi_final=4 * np.pi)
        trace = propagate(qd.level2_holonomy_problem(scenario, 801), "magnus4")
        dev = 0.0
        for k, t in enumerate(trace.times):
            ref = qd.gamma2_closed(TYCKO, 0.0, scenario.phi_at(t))
            dev = max(dev, float(np.max(np.abs(trace.matrices[k] - ref))))
        assert dev <= 1e-8
        assert max(unitarity_defects(m)[0] for m in trace.matrices) <= 1e-10

    def test_equatorial_connection_is_diagonal(self):
        a2 = qd.level2_connection(np.pi / 2)
        for phi in (0.0, 1.0, 4.0):
            assert np.max(np.abs(a2(phi) - np.diag([0.0, -1.5]))) <= 1e-15

    def test_level1_holonomy_is_the_closed_form(self):
        # the run reports the closed form; integrating the constant connection agrees to roundoff
        scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.3, omega=0.31, phi_final=0.3 + 5 * np.pi)
        trace = propagate(level1_holonomy_problem(scenario, 801))
        closed = qd.gamma1_closed(scenario.phi0, scenario.phi_at(trace.times))
        assert np.max(np.abs(trace.matrices[:, 0, 0] - closed)) <= 1e-12

    def test_level1_cycle_is_pure_gauge(self):
        scenario = qd.PrecessionScenario(theta=TYCKO, omega=0.31, phi_final=2 * np.pi)
        trace = propagate(level1_holonomy_problem(scenario, 257))
        assert abs(trace.final[0, 0] - 1.0) <= 1e-10

    def test_frame_consistent_connection_from_finite_differences(self):
        scenario = qd.PrecessionScenario(theta=TYCKO, omega=0.2, phi_final=2 * np.pi)
        frames = qd.level_frame_field(scenario, 1, 1201)
        # i F^dag dF/dt by central differences at the interior samples, hermitized
        f, ts = frames.frames, frames.times
        fdot = (f[2:] - f[:-2]) / (ts[2:] - ts[:-2])[:, None, None]
        a = 1j * np.conj(np.swapaxes(f[1:-1], 1, 2)) @ fdot
        a = 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))
        expected = scenario.omega * qd.frame_consistent_level2(TYCKO)
        assert np.max(np.abs(a - expected)) <= 1e-5

    @pytest.mark.parametrize("fraction", [1.0, 0.37])
    def test_adiabatic_hook_gamma0_is_the_integrated_constant_connection(self, fraction):
        # the closed-form Gamma0 of the drive generator G = dphi J3 against the integrator on the
        # constant connection A = F0^dag G F0 of its own frames e^{-isG} F0, per unit s: 0 for level 0,
        # and for the doublet eigenvalues +-dphi cos(theta), since mu^2 + nu^2 = cos^2(theta)
        scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.3, omega=2 * np.pi / 50, duration=50.0 * fraction)
        adiabatic = qd.adiabatic_scenario(scenario)
        ss = adiabatic.s_grid(801)
        dphi = scenario.omega * scenario.duration
        g = adiabatic.drive_generator
        fields = _level_holonomies(adiabatic, None, 801)
        assert [frames.multiplicity for frames, _ in fields] == [1, 2]
        for frames, gamma in fields:
            f = frames.frames
            connection = f[0].conj().T @ g @ f[0]
            assert np.max(np.abs(np.conj(np.swapaxes(f, 1, 2)) @ g @ f - connection)) <= 1e-12  # constant in s
            expected = [0.0] if frames.multiplicity == 1 else [-dphi * np.cos(TYCKO), dphi * np.cos(TYCKO)]
            assert np.max(np.abs(np.linalg.eigvalsh(connection) - expected)) <= 1e-12
            problem = MatrixOdeProblem(generator=constant(-connection), initial=np.eye(frames.multiplicity), times=ss)
            assert gamma.shape == (len(ss), frames.multiplicity, frames.multiplicity)
            assert np.max(np.abs(gamma - propagate(problem).matrices)) <= 1e-12


class TestPauliIdentity:
    def test_conjugation_identity(self):
        # exp(-i phi s_i / 2) s_j exp(+i phi s_i / 2)
        #   = cos(phi) s_j + sin(phi) sum_k eps_ijk s_k, for i != j
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[i, j, k] = 1.0
            eps[k, j, i] = -1.0
        paulis = (qd.S1, qd.S2, qd.S3)
        rng = np.random.default_rng(14)
        for _ in range(50):
            i, j = rng.choice(3, size=2, replace=False)
            phi = rng.uniform(-7, 7)
            u = expm_skew(np.asarray(paulis[i]), phi / 2)
            lhs = u @ paulis[j] @ u.conj().T
            rhs = np.cos(phi) * paulis[j] + np.sin(phi) * sum(
                eps[i, j, k] * paulis[k] for k in range(3)
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestExactPropagator:
    def test_matches_integrated_evolution(self):
        scenario = qd.PrecessionScenario(theta=TYCKO, omega=2 * np.pi / 30, phi_final=2 * np.pi)
        from holonomy.propagate import MatrixOdeProblem, propagate

        ts = np.linspace(0.0, scenario.duration, 3001)
        problem = MatrixOdeProblem(
            generator=lambda t: qd.hamiltonian(scenario.field_at(t)),
            initial=np.eye(3, dtype=complex),
            times=ts,
        )
        trace = propagate(problem, "magnus4")
        for k in (1000, 3000):
            exact = qd.exact_propagator(scenario, float(ts[k]))
            assert np.max(np.abs(trace.matrices[k] - exact)) <= 1e-8

    def test_invariant_family_is_periodic(self):
        scenario = qd.PrecessionScenario(theta=TYCKO, omega=2 * np.pi / 25, phi_final=2 * np.pi)
        family = qd.exact_invariant_family(scenario)
        i0, iT = family(np.array([[0.0], [scenario.duration]]))
        assert np.max(np.abs(i0 - iT)) <= 1e-12


class TestScenario:
    def test_duration_or_phi_final_exclusive(self):
        with pytest.raises(DomainError):
            qd.PrecessionScenario(theta=1.0, omega=1.0)
        with pytest.raises(DomainError):
            qd.PrecessionScenario(theta=1.0, omega=1.0, duration=1.0, phi_final=2.0)

    def test_axis_rejected(self):
        with pytest.raises(AxisSingularityError):
            qd.PrecessionScenario(theta=0.0, omega=1.0, duration=1.0)

    def test_zero_omega_rejected(self):
        with pytest.raises(DomainError):
            qd.PrecessionScenario(theta=1.0, omega=0.0, duration=1.0)

    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_field_on_the_axis_rejected(self, rho):
        # the scenario builds its field, so every route rejects rho <= 0, not only those that evaluate H
        with pytest.raises(AxisSingularityError, match="rho must be > 0"):
            qd.PrecessionScenario(theta=1.0, omega=1.0, duration=1.0, rho=rho)

    def test_zero_coupling_rejected(self):
        # H = 0 has one threefold level, not the quadrupole's two
        with pytest.raises(DomainError, match="coupling must be nonzero"):
            qd.PrecessionScenario(theta=1.0, omega=1.0, duration=1.0, coupling=0.0)
