import numpy as np
import pytest

from holonomy.errors import DomainError
from holonomy.frames import Curve, family_from_generators, transport_frames, transport_holonomy
from holonomy.linalg import expm_skew
from holonomy.propagate import propagate
from holonomy.phase import (
    VISIBILITY_FLOOR,
    _sorted_eigenvalues,
    diagonal_decomposition,
    level_trace,
    phase_angles,
    unwrap_nearest_branch,
    wrap_angle,
)
from holonomy import quadrupole as qd

TYCKO = qd.TYCKO_THETA
J = (qd.J1, qd.J2, qd.J3)
PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def tycko_arc_overlaps():
    """(w, Gamma) stacks of each level of (n.J)^2, transported along an open arc of the Tycko cone.

    The family is linear in the products n_i n_j, with generators (J_i J_j + J_j J_i)/2 and
    coefficient 2 n_i n_j for i != j; level 0 is nondegenerate and level 1 the doublet.
    """
    family = family_from_generators([(J[i] @ J[j] + J[j] @ J[i]) / 2 for i, j in PAIRS])
    ts = np.linspace(0.0, 1.0, 201)
    phis = 0.3 + 2.3 * ts
    n = np.stack([np.sin(TYCKO) * np.cos(phis), np.sin(TYCKO) * np.sin(phis), np.full_like(ts, np.cos(TYCKO))], 1)
    points = np.stack([n[:, i] * n[:, j] * (1.0 if i == j else 2.0) for i, j in PAIRS], axis=1)
    fields = transport_frames(family, Curve(times=ts, points=points))
    return [(f.frames[0].conj().T @ f.frames, transport_holonomy(f)) for f in fields]


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return expm_skew(0.5 * (g + g.conj().T), 1.0)


def random_frame(rng, dim, l):
    m = rng.normal(size=(dim, l)) + 1j * rng.normal(size=(dim, l))
    q, _ = np.linalg.qr(m)
    return q[:, :l]


def endpoint(w, gamma):
    """The rule on one-sample stacks: the trace of a single (w, Gamma) pair; a scalar is a 1x1 matrix."""
    w, gamma = (np.atleast_2d(np.asarray(m, dtype=complex))[None] for m in (w, gamma))
    return level_trace(1, np.zeros(1), w, gamma, None)


def record_pi(lv):
    return complex(lv.record["re_pi"], lv.record["im_pi"])


def record_eigenvalues(lv):
    l = lv.multiplicity
    return np.array([complex(lv.record[f"re_eig{i}"], lv.record[f"im_eig{i}"]) for i in range(1, l + 1)])


class TestOverlapMatrix:
    def test_identical_frames_identity(self):
        rng = np.random.default_rng(1)
        f = random_frame(rng, 5, 2)
        w = f.conj().T @ f
        assert np.max(np.abs(w - np.eye(2))) <= 1e-14
        assert record_pi(endpoint(w, np.eye(2))) == pytest.approx(2.0, abs=1e-14)

    def test_quadrupole_level2_closed_form(self):
        for theta, phi0, phi in [(TYCKO, 0.0, 2.1), (1.1, 0.4, 5.0), (2.0, -1.0, 1.0)]:
            zeta = np.cos(theta) / np.sin(theta)
            fa = qd.level_frame(qd.FieldPoint(1.0, phi0, zeta), 1)
            fb = qd.level_frame(qd.FieldPoint(1.0, phi, zeta), 1)
            w = fa.conj().T @ fb
            assert np.max(np.abs(w - qd.w2_closed(theta, phi0, phi))) <= 1e-12

    def test_quadrupole_level1_closed_form(self):
        for theta, phi0, phi in [(TYCKO, 0.0, 1.0), (0.8, 2.0, 2.5)]:
            zeta = np.cos(theta) / np.sin(theta)
            fa = qd.level_frame(qd.FieldPoint(1.0, phi0, zeta), 0)
            fb = qd.level_frame(qd.FieldPoint(1.0, phi, zeta), 0)
            w = fa.conj().T @ fb
            assert abs(w[0, 0] - qd.w1_closed(theta, phi0, phi)) <= 1e-12

    def test_singular_values_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = random_frame(rng, 6, 3).conj().T @ random_frame(rng, 6, 3)
            assert np.max(np.linalg.svd(w, compute_uv=False)) <= 1 + 1e-10
            endpoint(w, np.eye(3))  # the rule's contraction check accepts it

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DomainError, match="frame shapes differ"):
            diagonal_decomposition(np.eye(3), random_frame(rng, 4, 3), random_frame(rng, 4, 2))

    def test_expansion_rejected(self):
        with pytest.raises(DomainError, match="singular value 1.500000 > 1"):
            endpoint(1.5 * np.eye(2), np.eye(2))


class TestNoncyclicPhase:
    def test_cyclic_reduces_to_holonomy(self):
        gamma = qd.gamma2_closed(TYCKO, 0.0, 2 * np.pi)
        lv = endpoint(np.eye(2), gamma)
        assert np.array_equal(record_eigenvalues(lv), _sorted_eigenvalues(gamma))
        assert record_pi(lv) == pytest.approx(complex(np.trace(gamma)))

    def test_quadrupole_endpoint_identity(self):
        lv = endpoint(qd.w2_closed(TYCKO, 0.3, 0.3), qd.gamma2_closed(TYCKO, 0.3, 0.3))
        assert record_pi(lv) == pytest.approx(2.0, abs=1e-12)

    def test_quadrupole_cyclic_value(self):
        lv = endpoint(qd.w2_closed(TYCKO, 0.0, 2 * np.pi), qd.gamma2_closed(TYCKO, 0.0, 2 * np.pi))
        assert record_pi(lv) == pytest.approx(qd.pi2_cyclic(TYCKO), abs=1e-12)
        expected = sorted(wrap_angle(p) for p in qd.cyclic_eigenphases(TYCKO))
        got = sorted(np.angle(record_eigenvalues(lv)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_trace_bound(self):
        rng = np.random.default_rng(4)
        for l in (1, 2, 3):
            for _ in range(20):
                w = random_frame(rng, 5, l).conj().T @ random_frame(rng, 5, l)
                lv = endpoint(w, random_unitary(rng, l))
                assert lv.record["abs_pi"] <= l + 1e-10

    def test_eigenvalue_ordering_deterministic(self):
        rng = np.random.default_rng(5)
        w = random_frame(rng, 4, 2).conj().T @ random_frame(rng, 4, 2)
        g = random_unitary(rng, 2)
        a = record_eigenvalues(endpoint(w, g))
        b = record_eigenvalues(endpoint(w, g))
        assert np.array_equal(a, b)
        assert abs(a[0]) >= abs(a[1]) - 1e-15

    def test_unit_modulus_eigenvalues_ordered_by_argument(self):
        # a closed loop's w Gamma is unitary: moduli that differ by roundoff must not decide the order
        rng = np.random.default_rng(6)
        q = random_unitary(rng, 3)
        args = np.array([2.0, -0.998, 0.5])
        orders = []
        for sign in (1.0, -1.0):
            moduli = 1.0 + sign * np.array([1e-15, -1e-15, 0.0])
            gcheck = (q * (moduli * np.exp(1j * args))) @ q.conj().T
            orders.append(np.angle(record_eigenvalues(endpoint(gcheck, np.eye(3)))))
        assert orders[0] == pytest.approx(np.sort(args), abs=1e-12)
        assert orders[1] == pytest.approx(np.sort(args), abs=1e-12)

    def test_larger_modulus_comes_first(self):
        eigs = record_eigenvalues(endpoint(np.diag([0.5j, -0.9, 0.5]), np.eye(3)))
        assert np.array_equal(eigs, [-0.9, 0.5, 0.5j])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError, match="does not match"):
            level_trace(1, np.zeros(1), np.eye(2, dtype=complex)[None], np.eye(3, dtype=complex)[None], None)


class TestAbelianPhase:
    def test_unit_overlap(self):
        rec = endpoint(1.0, np.exp(1j * np.pi / 3)).record
        assert rec["phase_angle"] == pytest.approx(np.pi / 3, abs=1e-15)
        assert rec["visibility"] == 1.0

    def test_quadrupole_level1_quarter_turn(self):
        # zeta = 1, dphi = pi/2: overlap 1/2, holonomy angle pi/2
        theta = np.arccos(1 / np.sqrt(2))
        w = qd.w1_closed(theta, 0.0, np.pi / 2)
        rec = endpoint(w, qd.gamma1_closed(0.0, np.pi / 2)).record
        assert rec["visibility"] == pytest.approx(0.5, abs=1e-10)
        assert rec["phase_angle"] == pytest.approx(np.pi / 2, abs=1e-10)

    def test_orthogonal_endpoints_undefined(self):
        # a visibility at or below the floor leaves the phase and overlap angles out of the record
        for w in (0.0, VISIBILITY_FLOOR, 0.5 * VISIBILITY_FLOOR * np.exp(0.3j)):
            lv = endpoint(w, np.exp(0.7j))
            assert "phase_angle" not in lv.record and "overlap_angle" not in lv.record
            assert lv.record["visibility"] == abs(w) and lv.record["holonomy_angle"] == pytest.approx(0.7)
        assert "phase_angle" in endpoint(2 * VISIBILITY_FLOOR, 1.0).record

    def test_angle_sum_decomposition(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            w = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            g = np.exp(1j * rng.uniform(-np.pi, np.pi))
            angle = endpoint(w, g).record["phase_angle"]
            recombined = wrap_angle(np.angle(w) + np.angle(g))
            assert wrap_angle(angle - recombined) == pytest.approx(0.0, abs=1e-12)

    def test_report_visibility_is_overlap_modulus(self):
        rec = endpoint(0.6 * np.exp(0.4j), np.exp(1.1j)).record
        assert rec["visibility"] == pytest.approx(0.6)
        assert rec["overlap_angle"] == pytest.approx(0.4)
        assert rec["holonomy_angle"] == pytest.approx(1.1)
        assert rec["phase_angle"] == pytest.approx(1.5)


class TestDiagonalDecomposition:
    def test_diagonal_holonomy(self):
        gamma = np.diag([np.exp(0.3j), np.exp(-1.2j)])
        rng = np.random.default_rng(7)
        f0 = random_frame(rng, 4, 2)
        ft = random_frame(rng, 4, 2)
        pairs = diagonal_decomposition(gamma, ft, f0)
        angles = sorted(a for a, _ in pairs)
        assert angles == pytest.approx([-1.2, 0.3], abs=1e-12)

    def test_reconstructs_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            l = rng.integers(1, 4)
            f0 = random_frame(rng, 5, l)
            ft = random_frame(rng, 5, l)
            gamma = random_unitary(rng, l)
            pairs = diagonal_decomposition(gamma, ft, f0)
            total = sum(np.exp(1j * a) * wgt for a, wgt in pairs)
            direct = np.trace(f0.conj().T @ ft @ gamma)
            assert abs(total - direct) <= 1e-10

    def test_quadrupole_cyclic_unit_weights(self):
        zeta = np.cos(TYCKO) / np.sin(TYCKO)
        f = qd.level_frame(qd.FieldPoint(1.0, 0.0, zeta), 1)
        gamma = qd.gamma2_closed(TYCKO, 0.0, 2 * np.pi)
        pairs = diagonal_decomposition(gamma, f, f)
        expected = sorted(wrap_angle(p) for p in qd.cyclic_eigenphases(TYCKO))
        assert sorted(a for a, _ in pairs) == pytest.approx(expected, abs=1e-10)
        for _, weight in pairs:
            assert abs(weight - 1.0) <= 1e-10

    @pytest.mark.parametrize("split", [0.0, 1e-12])
    def test_degenerate_eigenspace_weights_sum_to_its_projected_overlap(self, split):
        # a weight inside a degenerate eigenspace depends on the basis chosen there; the sum
        # over the eigenspace is tr(P w) and needs an orthonormal basis of exactly that space
        rng = np.random.default_rng(61)
        for _ in range(50):
            q = random_unitary(rng, 3)
            alpha = rng.uniform(-np.pi, np.pi)
            beta = alpha + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
            gamma = (q * np.exp(1j * np.array([alpha, alpha + split, beta]))) @ q.conj().T
            f0, ft = random_frame(rng, 5, 3), random_frame(rng, 5, 3)
            w = f0.conj().T @ ft
            pairs = diagonal_decomposition(gamma, ft, f0)
            inside = sum(weight for angle, weight in pairs if abs(np.exp(1j * angle) - np.exp(1j * alpha)) < 1e-6)
            projector = q[:, :2] @ q[:, :2].conj().T
            assert abs(inside - np.trace(projector @ w)) <= 1e-12


class TestAngleHelpers:
    def test_wrap_angle_range(self):
        for a in np.linspace(-20, 20, 101):
            w = wrap_angle(a)
            assert -np.pi < w <= np.pi
            assert abs(np.exp(1j * a) - np.exp(1j * w)) <= 1e-12

    def test_unwrap_nearest_branch(self):
        truth = np.linspace(0.0, 6 * np.pi, 200)
        wrapped = np.array([wrap_angle(a) for a in truth])
        unwrapped = unwrap_nearest_branch(wrapped)
        assert np.max(np.abs(unwrapped - truth)) <= 1e-12

    def test_wrap_angle_array_equals_scalar_calls(self):
        angles = np.concatenate([[-np.pi, np.pi, -3 * np.pi, 3 * np.pi, 0.0], np.linspace(-20, 20, 101)])
        wrapped = wrap_angle(angles)
        assert np.array_equal(wrapped, [wrap_angle(float(a)) for a in angles])
        assert wrapped[0] == np.pi and wrapped[2] == np.pi
        assert np.all((wrapped > -np.pi) & (wrapped <= np.pi))

    def test_phase_angles_read_roundoff_of_a_real_trace_as_real(self):
        # negative real traces as small as 3e-4 with +-1e-16 imaginary roundoff: all read +pi
        rng = np.random.default_rng(43)
        moduli = np.geomspace(3e-4, 2.0, 64)
        noise = rng.choice([-1.0, 1.0], size=64) * 1e-16
        negative = phase_angles(-moduli + 1j * noise)
        assert np.all(negative == np.pi)
        assert np.all(phase_angles(moduli + 1j * noise) == 0.0)
        assert np.all(phase_angles(-moduli - 0.0j) == np.pi)
        # a resolved imaginary part is left alone
        assert phase_angles(np.array([-1.0 - 1.5e-15j]))[0] == pytest.approx(-np.pi + 1.5e-15, abs=1e-18)
        tilted = np.array([-3e-4 + 1e-8j, 1e-3 - 1e-9j])
        assert np.array_equal(phase_angles(tilted), wrap_angle(np.angle(tilted)))
        # the unwrapped series of a real trace that changes sign stays on one branch
        flips = phase_angles(np.array([1.0, -1.0 - 1e-16j, 1.0, -1.0 + 1e-16j, -1.0 - 1e-16j]))
        assert np.array_equal(unwrap_nearest_branch(flips), [0.0, np.pi, 0.0, np.pi, np.pi])

    def test_report_angles_follow_the_same_rule(self):
        # a negative real overlap and holonomy with roundoff of either sign: every angle reads +pi,
        # as the CSV columns of the runners do
        for w, g in [(-1.0 - 1e-16j, 1.0 + 1e-16j), (1.0 - 1e-16j, -1.0 - 1e-16j), (-0.5 + 1e-16j, -1.0 - 1e-16j)]:
            lv = endpoint(w, g)
            expected = [phase_angles(w * g), phase_angles(w), phase_angles(g)]
            assert [lv.record[k] for k in ("phase_angle", "overlap_angle", "holonomy_angle")] == expected
            assert all(a in (0.0, np.pi) for a in expected)
            assert lv.phase_angles[-1] == lv.record["phase_angle"]

    @staticmethod
    def sequential_unwrap(angles):
        """The step-by-step rule: each angle moved by whole turns next to its unwrapped predecessor."""
        out = np.array(angles, dtype=float)
        for k in range(1, len(out)):
            out[k] = angles[k] + 2 * np.pi * np.round((out[k - 1] - angles[k]) / (2 * np.pi))
        return out

    def test_unwrap_matches_sequential_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            walk = np.cumsum(rng.normal(scale=rng.uniform(0.1, 2.5), size=801))
            wrapped = wrap_angle(walk)
            assert np.array_equal(unwrap_nearest_branch(wrapped), self.sequential_unwrap(wrapped))

    def test_unwrap_matches_sequential_rule_near_half_turns(self):
        # jumps a hair either side of +-pi, over many accumulated turns
        rng = np.random.default_rng(43)
        for scale in (1e-6, 1e-9, 1e-12):
            jumps = rng.choice([-1.0, 1.0], size=801) * np.pi + rng.choice([-1.0, 1.0], size=801) * scale
            wrapped = wrap_angle(np.cumsum(jumps))
            assert np.array_equal(unwrap_nearest_branch(wrapped), self.sequential_unwrap(wrapped))


class TestReportOwnership:
    def test_report_copies_matrices_out_of_stacks(self):
        # a level trace keeps per-sample scalars and its endpoint record, not the run's whole stacks
        scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=1.0, duration=2.0)
        trace = propagate(qd.level2_holonomy_problem(scenario, 65))
        w2 = qd.w2_closed(TYCKO, 0.0, scenario.phi_at(trace.times))
        lv = level_trace(2, trace.times, w2, trace.matrices, None)
        for value in (lv.pi, lv.unitarity_defects):
            assert not np.shares_memory(value, trace.matrices) and not np.shares_memory(value, w2)
        assert record_pi(lv) == lv.pi[-1]
        assert np.max(np.abs(record_eigenvalues(lv) - _sorted_eigenvalues(w2[-1] @ trace.final))) <= 1e-14


class TestGaugeBehavior:
    def test_pi_gauge_invariant_and_gcheck_covariant(self):
        rng = np.random.default_rng(9)
        zeta = np.cos(TYCKO) / np.sin(TYCKO)
        f0 = qd.level_frame(qd.FieldPoint(1.0, 0.0, zeta), 1)
        ft = qd.level_frame(qd.FieldPoint(1.0, 2.2, zeta), 1)
        gamma = qd.gamma2_closed(TYCKO, 0.0, 2.2)
        w = f0.conj().T @ ft
        base = endpoint(w, gamma)
        for _ in range(20):
            v0 = random_unitary(rng, 2)
            vt = random_unitary(rng, 2)
            w_t = (f0 @ v0).conj().T @ (ft @ vt)
            gamma_t = vt.conj().T @ gamma @ v0
            assert abs(record_pi(endpoint(w_t, gamma_t)) - record_pi(base)) <= 1e-12
            expected = v0.conj().T @ w @ gamma @ v0
            assert np.max(np.abs(w_t @ gamma_t - expected)) <= 1e-12

    def test_spectrum_invariant_under_constant_frame_gauges(self):
        # a constant frame gauge F -> F V0 keeps parallel transport, so w -> V0^dag w V0 and
        # Gamma -> V0^dag Gamma V0: the whole spectrum of w Gamma, not only its trace Pi, is invariant
        rng = np.random.default_rng(13)
        scenario = qd.PrecessionScenario(theta=1.1, phi0=0.4, omega=0.3, phi_final=5.0)
        trace = propagate(qd.level2_holonomy_problem(scenario, 201))
        w2 = qd.w2_closed(scenario.theta, scenario.phi0, scenario.phi_at(trace.times))
        for w, gammas in ((w2, trace.matrices), tycko_arc_overlaps()[1]):
            samples = np.arange(len(w))
            base = level_trace(2, samples, w, gammas, None)
            for _ in range(20):
                v0 = random_unitary(rng, 2)
                gauged = level_trace(2, samples, v0.conj().T @ w @ v0, v0.conj().T @ gammas @ v0, None)
                assert np.max(np.abs(record_eigenvalues(gauged) - record_eigenvalues(base))) <= 1e-12
                assert abs(record_pi(gauged) - record_pi(base)) <= 1e-12

    def test_abelian_spectrum_is_pi(self):
        # a 1x1 w Gamma is its own eigenvalue: the record's eig1 is Pi
        scenario = qd.PrecessionScenario(theta=1.1, phi0=0.4, omega=0.3, phi_final=5.0)
        phis = scenario.phi_at(scenario.times(41))
        w1 = qd.w1_closed(scenario.theta, scenario.phi0, phis)[:, None, None].astype(complex)
        gamma1 = qd.gamma1_closed(scenario.phi0, phis)[:, None, None]
        for w, gammas in ((w1, gamma1), tycko_arc_overlaps()[0]):
            lv = level_trace(1, np.arange(len(w)), w, gammas, None)
            assert record_eigenvalues(lv)[0] == record_pi(lv)

    def test_visibility_depends_only_on_endpoints(self):
        # two different interior samplings of the same endpoints
        theta = 1.0
        w_a = qd.w1_closed(theta, 0.0, 2.0)
        scenario_a = qd.PrecessionScenario(theta=theta, omega=0.1, phi_final=2.0)
        scenario_b = qd.PrecessionScenario(theta=theta, omega=0.45, phi_final=2.0)
        za = np.cos(theta) / np.sin(theta)
        for scenario in (scenario_a, scenario_b):
            f0 = qd.level_frame(scenario.field_at(0.0), 0)
            ft = qd.level_frame(scenario.field_at(scenario.duration), 0)
            w = f0.conj().T @ ft
            assert abs(abs(w[0, 0]) - abs(w_a)) <= 1e-12
