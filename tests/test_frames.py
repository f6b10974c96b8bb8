import warnings

import numpy as np
import pytest

from holonomy.errors import DomainError, LevelCrossingError, ResolutionError, StructuralError
from holonomy.frames import (
    Curve,
    OperatorFamily,
    apply_gauge,
    curve_from_function,
    family_from_generators,
    transport_frames,
    verify_invariant,
)
from holonomy.linalg import expm_skew, polar_many
from holonomy import quadrupole as qd

TYCKO = qd.TYCKO_THETA


def precessing_setup(num=101, omega=2 * np.pi / 40, cycles=1.0, theta=TYCKO):
    scenario = qd.PrecessionScenario(theta=theta, phi0=0.0, omega=omega, phi_final=2 * np.pi * cycles)
    family = scenario.hamiltonian_family()
    curve = scenario.curve(num)
    return scenario, family, curve


def random_smooth_family(rng, dim=4):
    """Smooth one-parameter Hermitian family with well-separated levels."""
    base = np.diag(np.arange(dim, dtype=float))
    p1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    p1 = 0.05 * (p1 + p1.conj().T)
    p2 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    p2 = 0.05 * (p2 + p2.conj().T)

    def evaluate(theta):
        t = theta[:, 0, None, None]
        return base + np.cos(t) * p1 + np.sin(t) * p2

    return OperatorFamily(dim=dim, evaluator=evaluate)


class TestCurve:
    def test_strictly_increasing_times_required(self):
        with pytest.raises(DomainError):
            Curve(times=np.array([0.0, 0.0, 1.0]), points=np.zeros((3, 1)))

    def test_cyclic_endpoint_check(self):
        with pytest.raises(DomainError):
            Curve(times=np.array([0.0, 1.0]), points=np.array([[0.0], [0.5]]), cyclic=True)

    def test_from_function(self):
        curve = curve_from_function(lambda t: np.column_stack([np.cos(t), np.sin(t)]), 0.0, 2 * np.pi, 33, cyclic=True)
        assert curve.cyclic and curve.num_parameters == 2


class TestOperatorFamily:
    def test_generator_expansion_consistency(self):
        gens = [np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]], dtype=complex)]
        family = family_from_generators(gens)
        value = family(np.array([[0.3, 0.7]]))[0]
        assert np.allclose(value, 0.3 * gens[0] + 0.7 * gens[1])

    def test_non_hermitian_rejected(self):
        family = OperatorFamily(dim=2, evaluator=lambda th: np.broadcast_to(np.array([[0, 1], [0, 0]], dtype=complex), (len(th), 2, 2)))
        with pytest.raises(StructuralError):
            family(np.array([[0.0]]))

    @pytest.mark.parametrize("thetas", [np.array([0.3, 0.7]), np.array(0.3), np.zeros((2, 1, 2))])
    def test_parameters_not_a_stack_rejected(self, thetas):
        family = family_from_generators([np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]], dtype=complex)])
        with pytest.raises(DomainError, match=r"stack \(m, N\)"):
            family(thetas)


class TestBatchedFamily:
    def test_generator_family_stack_matches_points(self):
        rng = np.random.default_rng(21)
        gens = []
        for _ in range(3):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            gens.append(g + g.conj().T)
        family = family_from_generators(gens)
        thetas = rng.normal(size=(50, 3))
        stacked = np.array([family(theta[None])[0] for theta in thetas])
        assert np.max(np.abs(family(thetas) - stacked)) <= 1e-14

    def test_hamiltonian_family_stack_matches_points(self):
        _, family, curve = precessing_setup(num=73)
        stacked = np.array([family(theta[None])[0] for theta in curve.points])
        assert np.max(np.abs(family(curve.points) - stacked)) <= 1e-14

    def test_one_non_hermitian_member_rejected(self):
        # each matrix is held to its own scale: a 1e-9 defect in a unit-size
        # member fails even next to a member of size 1e6
        def evaluate(th):
            out = np.repeat(np.diag([1.0, -1.0]).astype(complex)[None], len(th), axis=0)
            out[0] *= 1e6
            out[-1, 0, 1] += 1e-9
            return out

        family = OperatorFamily(dim=2, evaluator=evaluate)
        with pytest.raises(StructuralError):
            family(np.zeros((5, 1)))


class TestTransportFrame:
    def test_quadrupole_subspace_matches_analytic(self):
        scenario, family, curve = precessing_setup(num=81)
        frames = transport_frames(family, curve, (1,))[0]
        for k, t in enumerate(curve.times):
            ref = qd.level_frame(scenario.field_at(t), 1)
            projector = frames.frames[k] @ frames.frames[k].conj().T
            assert np.max(np.abs(projector - ref @ ref.conj().T)) <= 1e-9

    def test_constant_family_aligned_frames_constant(self):
        family = random_smooth_family(np.random.default_rng(5))
        const = OperatorFamily(dim=4, evaluator=lambda th: family(np.full((len(th), 1), 0.7)))
        curve = curve_from_function(lambda t: np.sin(3 * t)[:, None], 0.0, 1.0, 21)
        frames = transport_frames(const, curve, (2,))[0]
        for k in range(1, frames.num_samples):
            assert np.max(np.abs(frames.frames[k] - frames.frames[0])) <= 1e-12

    def test_aligned_overlaps_positive(self):
        family = random_smooth_family(np.random.default_rng(6))
        curve = curve_from_function(lambda t: t[:, None], 0.0, 2.0, 41)
        frames = transport_frames(family, curve, (1,))[0]
        for k in range(1, frames.num_samples):
            overlap = frames.frames[k - 1].conj().T @ frames.frames[k]
            herm = 0.5 * (overlap + overlap.conj().T)
            assert np.min(np.linalg.eigvalsh(herm)) > 0

    def test_orthonormality_preserved(self):
        _, family, curve = precessing_setup(num=61)
        frames = transport_frames(family, curve, (1,))[0]
        gram = np.conj(np.swapaxes(frames.frames, 1, 2)) @ frames.frames
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_constant_gauge_commutes_with_transport(self):
        # transporting from a rotated seed equals rotating the transported frames
        _, family, curve = precessing_setup(num=41)
        frames = transport_frames(family, curve, (1,))[0]
        rng = np.random.default_rng(7)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v = expm_skew(0.5 * (g + g.conj().T), 1.0)

        seeded = frames.frames.copy()
        seeded[0] = seeded[0] @ v
        for k in range(1, len(seeded)):
            raw = frames.frames[k]  # aligned output is a valid per-sample frame
            overlap = seeded[k - 1].conj().T @ raw
            seeded[k] = raw @ polar_many(overlap)[0].conj().T
        for k in range(len(seeded)):
            assert np.max(np.abs(seeded[k] - frames.frames[k] @ v)) <= 1e-9

    def test_cyclic_aligned_reports_misalignment(self):
        _, family, curve = precessing_setup(num=81)
        pts = curve.points.copy()
        pts[-1] = pts[0]
        closed = Curve(times=curve.times, points=pts, cyclic=True)
        frames = transport_frames(family, closed, (1,))[0]
        assert frames.cyclic_misalignment is not None
        assert frames.cyclic_misalignment > 1e-3  # the loop holonomy is nontrivial

    def test_level_crossing_rejected(self):
        family = family_from_generators([np.diag([1.0, -1.0])])
        curve = curve_from_function(lambda t: (1.0 - t)[:, None], 0.0, 2.0, 21)  # crosses zero
        with pytest.raises(LevelCrossingError):
            transport_frames(family, curve, (0,))

    def test_under_resolved_curve_rejected(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        family = family_from_generators([sx, sz])
        # two samples with nearly orthogonal ground states
        curve = Curve(times=np.array([0.0, 1.0]), points=np.array([[0.001, 1.0], [0.001, -1.0]]))
        with pytest.raises(ResolutionError):
            transport_frames(family, curve, (0,))

    @pytest.mark.parametrize(
        "generators, points",
        [
            # 1x1 overlaps: the ground state of sz, then that of -sz, is orthogonal to it
            ([[[0, 1], [1, 0]], [[1, 0], [0, -1]]], [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            # 2x2 overlaps: the zero level spans {e0, e1}, then {e0, e2}: a rank-1 overlap
            ([np.diag([0.0, 0.0, 1.0]), np.diag([0.0, 1.0, 0.0])], [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_singular_overlap_names_the_sample_pair(self, generators, points):
        family = family_from_generators([np.asarray(g, dtype=complex) for g in generators])
        curve = Curve(times=np.arange(3.0), points=np.array(points))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide or invalid RuntimeWarning on the way
            with pytest.raises(ResolutionError, match="between samples 1 and 2: min overlap singular value 0.000"):
                transport_frames(family, curve, (0,))


def finite_difference_connection(frames):
    """i F^dag dF/dt at the interior samples of a frame field, by central differences, hermitized."""
    f, ts = frames.frames, frames.times
    fdot = (f[2:] - f[:-2]) / (ts[2:] - ts[:-2])[:, None, None]
    a = 1j * np.conj(np.swapaxes(f[1:-1], 1, 2)) @ fdot
    return 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))


class TestConnectionMatrices:
    def test_quadrupole_level2_frame_consistent_value(self):
        # the analytic eigenframe generates omega * [[mu, nu], [nu, -mu]], up to the
        # central-difference truncation
        scenario, _, _ = precessing_setup(num=801)
        frames = qd.level_frame_field(scenario, level=1, num_samples=801)
        expected = scenario.omega * qd.frame_consistent_level2(scenario.theta)
        assert np.max(np.abs(finite_difference_connection(frames) - expected)) <= 5e-5
        hams = qd.hamiltonian(scenario.field_at(frames.times))
        e = np.conj(np.swapaxes(frames.frames, 1, 2)) @ hams @ frames.frames
        assert np.max(np.abs(e - scenario.field_at(0.0).energy_split * np.eye(2))) <= 1e-12

    def test_equatorial_connection_vanishes(self):
        # at theta = pi/2 the eigenframe is covariantly constant: A = 0
        scenario, _, _ = precessing_setup(num=401, theta=np.pi / 2)
        frames = qd.level_frame_field(scenario, level=1, num_samples=401)
        assert np.max(np.abs(finite_difference_connection(frames))) <= 1e-6


class TestApplyGauge:
    def test_identity_gauge(self):
        scenario, family, curve = precessing_setup(num=31)
        frames = transport_frames(family, curve, (1,))[0]
        same = apply_gauge(frames, lambda t: np.broadcast_to(np.eye(2), (len(t), 2, 2)))
        assert np.max(np.abs(same.frames - frames.frames)) == 0.0

    def test_constant_gauge_conjugates_connection(self):
        scenario, family, curve = precessing_setup(num=201)
        frames = qd.level_frame_field(scenario, level=1, num_samples=201)
        rng = np.random.default_rng(9)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v = expm_skew(0.5 * (g + g.conj().T), 1.0)
        transformed = apply_gauge(frames, lambda t: np.broadcast_to(v, (len(t), 2, 2)))
        a, a_t = finite_difference_connection(frames), finite_difference_connection(transformed)
        assert np.max(np.abs(a_t - v.conj().T @ a @ v)) <= 1e-8

    def test_smooth_gauge_transformation_law(self):
        # A~ = v^dag A v + i v^dag dv/dt within finite-difference truncation
        scenario, family, curve = precessing_setup(num=401)
        frames = qd.level_frame_field(scenario, level=1, num_samples=401)
        from holonomy.gauges import random_smooth_gauge

        gauge = random_smooth_gauge(2, 0.0, float(curve.times[-1]), seed=17)
        a, a_t = finite_difference_connection(frames), finite_difference_connection(apply_gauge(frames, gauge))
        h = float(curve.times[1] - curve.times[0])
        tol = 10 * h**2  # an order-h^2 bound on both differentiations
        for k in range(1, frames.num_samples - 1, 7):
            v, dv = gauge.value_and_derivative(float(frames.times[k]))
            law = v.conj().T @ a[k - 1] @ v + 1j * (v.conj().T @ dv)
            law = 0.5 * (law + law.conj().T)
            assert np.max(np.abs(a_t[k - 1] - law)) <= tol

    def test_non_unitary_gauge_rejected(self):
        scenario, family, curve = precessing_setup(num=21)
        frames = transport_frames(family, curve, (1,))[0]
        with pytest.raises(StructuralError):
            apply_gauge(frames, lambda t: np.broadcast_to(2.0 * np.eye(2), (len(t), 2, 2)))


class TestVerifyInvariant:
    def test_constant_hamiltonian_is_its_own_invariant(self):
        h = qd.hamiltonian(qd.FieldPoint(1.0, 0.4, 0.8))
        family = OperatorFamily(dim=3, evaluator=lambda th: np.broadcast_to(h, (len(th), 3, 3)))
        curve = curve_from_function(lambda t: t[:, None], 0.0, 1.0, 21)
        assert verify_invariant(family, curve, np.broadcast_to(h, (21, 3, 3))) <= 1e-12

    def test_precessing_hamiltonian_is_not_invariant(self):
        residuals = []
        for omega in (0.1, 0.2):
            scenario = qd.PrecessionScenario(theta=TYCKO, omega=omega, phi_final=2 * np.pi)
            family = scenario.hamiltonian_family()
            curve = scenario.curve(201)
            ham = lambda t: qd.hamiltonian(scenario.field_at(t))
            residuals.append(verify_invariant(family, curve, ham(curve.times)))
        assert residuals[0] > 1e-3
        # dI/dt scales linearly with omega while [H, H] stays zero
        assert residuals[1] / residuals[0] == pytest.approx(2.0, rel=0.05)

    def test_exact_invariant_has_small_residual(self):
        scenario = qd.PrecessionScenario(theta=TYCKO, omega=2 * np.pi / 20, phi_final=2 * np.pi)
        family = qd.exact_invariant_family(scenario)
        ts = scenario.times(401)
        curve = Curve(times=ts, points=ts[:, None], evaluator=lambda s: s[:, None])
        ham = lambda t: qd.hamiltonian(scenario.field_at(t))
        h = ts[1] - ts[0]
        assert verify_invariant(family, curve, ham(ts)) <= 10 * h**2

    def test_dimension_mismatch_rejected(self):
        family = OperatorFamily(dim=3, evaluator=lambda th: np.broadcast_to(np.eye(3), (len(th), 3, 3)))
        curve = curve_from_function(lambda t: t[:, None], 0.0, 1.0, 11)
        with pytest.raises(DomainError):
            verify_invariant(family, curve, np.broadcast_to(np.eye(2), (11, 2, 2)))
