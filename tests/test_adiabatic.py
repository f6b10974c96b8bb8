import dataclasses

import numpy as np
import pytest

from holonomy import adiabatic as adiabatic_module
from holonomy.adiabatic import (
    AdiabaticScenario,
    adiabatic_noncyclic_phase,
    adiabatic_propagator,
    adiabaticity_report,
    convergence_study,
    full_propagator,
)
from holonomy.errors import DomainError, LevelCrossingError
from holonomy.frames import Curve, OperatorFamily, family_from_generators, transport_frames
from holonomy.linalg import expm_skew, level_bounds, unitarity_defects
from holonomy.phase import _sorted_eigenvalues
from holonomy import quadrupole as qd

TYCKO = qd.TYCKO_THETA


def constant_scenario(tau=10.0):
    h = qd.hamiltonian(qd.FieldPoint(1.0, 0.4, 0.6))
    family = OperatorFamily(dim=3, evaluator=lambda th: np.broadcast_to(h, (len(th), 3, 3)))
    ss = np.linspace(0.0, 1.0, 33)
    curve = Curve(times=ss, points=ss[:, None], evaluator=lambda s: s[:, None])
    return AdiabaticScenario(family=family, curve=curve, tau=tau), h


def tycko_adiabatic(tau=50.0):
    scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=2 * np.pi / tau, duration=tau)
    return qd.adiabatic_scenario(scenario)


def spin_matrices(j):
    """J1, J2, J3 at spin j in the J3 eigenbasis, m = j, j - 1, ..., -j."""
    m = np.arange(j, -j - 1, -1)
    raising = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return (raising + raising.T) / 2, (raising - raising.T) / 2j, np.diag(m).astype(complex)


def quadrupole_drive(j, fraction, tau=60.0, theta=0.7, phi0=0.3):
    """H = (n.J)^2 at spin j, n at polar angle theta precessing over fraction of a loop from phi0, with G = dphi J3."""
    jj = np.stack(spin_matrices(j))
    dphi = 2 * np.pi * fraction

    def phi_of_s(ss):
        return (phi0 + dphi * np.asarray(ss, dtype=float))[:, None]

    def evaluate(phis):
        n = np.stack([np.sin(theta) * np.cos(phis[:, 0]), np.sin(theta) * np.sin(phis[:, 0]),
                      np.full(len(phis), np.cos(theta))], axis=1)
        nj = np.einsum("mi,ijk->mjk", n, jj)
        return nj @ nj

    ss = np.linspace(0.0, 1.0, 65)
    family = OperatorFamily(dim=jj.shape[1], evaluator=evaluate)
    curve = Curve(times=ss, points=phi_of_s(ss), evaluator=phi_of_s)
    return AdiabaticScenario(family=family, curve=curve, tau=tau, drive_generator=dphi * jj[2])


class TestAdiabaticPropagator:
    def test_constant_hamiltonian_exact(self):
        scen, h = constant_scenario(tau=7.0)
        trace = adiabatic_propagator(scen, num_samples=201)
        for k in (50, 200):
            t = trace.times[k]
            assert np.max(np.abs(trace.matrices[k] - expm_skew(h, t))) <= 1e-9

    def test_unitary(self):
        scen = tycko_adiabatic()
        trace = adiabatic_propagator(scen, num_samples=401)
        assert max(unitarity_defects(m)[0] for m in trace.matrices) <= 1e-10

    def test_analytic_and_transported_routes_agree(self):
        # the assembled operator is independent of the frame gauge, so the
        # closed-form route of the drive generator and the generic transported
        # route must agree up to the discrete transport error of the generic frames
        scen_closed = tycko_adiabatic(tau=30.0)
        scen_generic = AdiabaticScenario(
            family=scen_closed.family, curve=scen_closed.curve, tau=scen_closed.tau
        )
        a = adiabatic_propagator(scen_closed, num_samples=801).final
        b = adiabatic_propagator(scen_generic, num_samples=801).final
        assert np.max(np.abs(a - b)) <= 1e-4

    def test_transported_route_is_second_order(self):
        # the drive generator's closed-form frames and Gamma0 make that U0 the reference;
        # quadrupling the samples must cut the generic route's gap by O(h^2) ~ 16
        scen_closed = tycko_adiabatic(tau=30.0)
        scen_generic = AdiabaticScenario(family=scen_closed.family, curve=scen_closed.curve, tau=scen_closed.tau)
        gaps = []
        for num in (201, 801):
            a = adiabatic_propagator(scen_closed, num_samples=num).final
            b = adiabatic_propagator(scen_generic, num_samples=num).final
            gaps.append(np.max(np.abs(a - b)))
        assert gaps[0] >= 10 * gaps[1]

    def test_tau_required_positive(self):
        scen, _ = constant_scenario()
        with pytest.raises(DomainError):
            scen.with_tau(0.0)

    @pytest.mark.parametrize("tau", [np.inf, -np.inf, np.nan])
    def test_tau_required_finite(self, tau):
        with pytest.raises(DomainError, match="finite and positive"):
            constant_scenario(tau=tau)
        scen, _ = constant_scenario()
        with pytest.raises(DomainError, match="finite and positive"):
            scen.with_tau(tau)


class TestAdiabaticityReport:
    def test_constant_hamiltonian_zero_couplings(self):
        scen, _ = constant_scenario()
        report = adiabaticity_report(scen, num_samples=21)
        assert report.max_coupling <= 1e-12
        assert report.summary_ratio <= 1e-12

    def test_one_level_has_no_couplings(self):
        # H proportional to 1 at d = 3: a single threefold level, nothing to couple to and no gap
        family = family_from_generators([np.eye(3, dtype=complex)])
        ss = np.linspace(0.0, 1.0, 17)
        scen = AdiabaticScenario(family=family, curve=Curve(times=ss, points=1.0 + ss[:, None]), tau=5.0)
        report = adiabaticity_report(scen, num_samples=11)
        assert report.couplings == ({},) * 11
        assert np.array_equal(report.min_gaps, np.full(11, np.inf))
        assert report.max_coupling == 0.0 and report.summary_ratio == 0.0

    def test_coupling_linear_in_drive_rate(self):
        r1 = adiabaticity_report(tycko_adiabatic(tau=50.0), num_samples=101)
        r2 = adiabaticity_report(tycko_adiabatic(tau=25.0), num_samples=101)
        assert r2.max_coupling / r1.max_coupling == pytest.approx(2.0, rel=1e-6)

    def test_slow_drive_flags_adiabatic_regime(self):
        report = adiabaticity_report(tycko_adiabatic(tau=50.0), num_samples=101)
        assert report.summary_ratio < 0.1
        assert np.all(report.min_gaps > 0)

    def test_couplings_present_for_all_level_pairs(self):
        report = adiabaticity_report(tycko_adiabatic(), num_samples=11)
        assert set(report.couplings[0]) == {(0, 1), (1, 0)}

    def test_crossing_message_matches_transport(self):
        # H(s) = diag(-1, s - 1/2, 1/2 - s): the upper two levels meet at s = 1/2, sample 16 of 33
        family = family_from_generators([np.diag([-1.0, 0.0, 0.0]), np.diag([0.0, 1.0, -1.0])])
        ss = np.linspace(0.0, 1.0, 33)
        curve = Curve(times=ss, points=np.column_stack([np.ones(33), ss - 0.5]))
        scen = AdiabaticScenario(family=family, curve=curve, tau=10.0)
        messages = []
        for run in (lambda: transport_frames(family, scen.sampled_curve(33)), lambda: adiabaticity_report(scen, 33)):
            with pytest.raises(LevelCrossingError) as exc:
                run()
            messages.append(str(exc.value))
        assert messages == ["level structure changed at sample 16: (1, 1, 1) -> (1, 2)"] * 2

    def test_ratio_independent_of_degenerate_basis(self, monkeypatch):
        # rotate every eigh frame by its own random unitary: the spectral-norm
        # ratio stays, a ratio of largest entries moves
        def largest_entry_ratio(report):
            return max(
                max(float(np.max(np.abs(c))) for c in couplings.values()) / gap
                for couplings, gap in zip(report.couplings, report.min_gaps)
            )

        scen = tycko_adiabatic(tau=50.0)
        plain = adiabaticity_report(scen, num_samples=101)
        rng = np.random.default_rng(47)

        eigh = np.linalg.eigh

        def rotated_eigh(stack):
            vals, vecs = eigh(stack)
            for a, b in level_bounds(vals):
                g = rng.normal(size=(len(vals), b - a, b - a)) + 1j * rng.normal(size=(len(vals), b - a, b - a))
                vecs[:, :, a:b] = vecs[:, :, a:b] @ np.linalg.qr(g)[0]  # a unitary per sample and level
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", rotated_eigh)  # the report decomposes its samples in one call
        rotated = adiabaticity_report(scen, num_samples=101)
        assert abs(rotated.summary_ratio - plain.summary_ratio) <= 1e-13
        assert abs(rotated.max_coupling - plain.max_coupling) <= 1e-13
        assert abs(largest_entry_ratio(rotated) - largest_entry_ratio(plain)) > 1e-6


class TestConvergenceStudy:
    def test_constant_hamiltonian_defect_tiny(self):
        scen, _ = constant_scenario(tau=5.0)
        rows = convergence_study(scen, [5.0, 10.0, 20.0], num_samples=201)
        for _, defect in rows:
            assert defect <= 1e-9

    def test_quadrupole_ladder_decreases(self):
        scen = tycko_adiabatic()
        rows = convergence_study(scen, [50.0, 100.0, 200.0], num_samples=401)
        defects = [d for _, d in rows]
        assert defects[0] > defects[1] > defects[2]
        for a, b in zip(defects, defects[1:]):
            assert 1.3 <= a / b <= 3.0

    def test_requires_increasing_taus(self):
        scen, _ = constant_scenario()
        with pytest.raises(DomainError):
            convergence_study(scen, [10.0, 5.0])

    def test_rejects_infinite_tau_before_the_propagator(self):
        # the closed form would otherwise divide the drive generator by an infinite tau
        with pytest.raises(DomainError, match="tau must be finite and positive"):
            convergence_study(tycko_adiabatic(), [50.0, np.inf])

    @pytest.mark.parametrize("closed", [True, False], ids=["drive-generator", "transported"])
    def test_level_fields_built_once_per_ladder(self, closed, monkeypatch):
        # frames and Gamma0 do not depend on tau: the ladder builds them once, each tau adds its phases
        calls = []
        build = adiabatic_module._level_holonomies

        def counted(*args):
            calls.append(args[1:])
            return build(*args)

        monkeypatch.setattr(adiabatic_module, "_level_holonomies", counted)
        scen = tycko_adiabatic() if closed else dataclasses.replace(tycko_adiabatic(), drive_generator=None)
        convergence_study(scen, [50.0, 100.0, 200.0], num_samples=201)
        assert calls == [(None, 201)]

    @pytest.mark.parametrize("closed", [True, False], ids=["drive-generator", "transported"])
    def test_ladder_u0_is_the_adiabatic_propagator(self, closed, monkeypatch):
        finals = []
        assemble = adiabatic_module.assemble_evolution

        def recorded(*args):
            trace = assemble(*args)
            finals.append(trace.final)
            return trace

        monkeypatch.setattr(adiabatic_module, "assemble_evolution", recorded)
        scen = tycko_adiabatic() if closed else dataclasses.replace(tycko_adiabatic(), drive_generator=None)
        taus = [50.0, 100.0, 200.0]
        rows = convergence_study(scen, taus, num_samples=201)
        ladder = list(finals)
        for (tau, defect), u0 in zip(rows, ladder):
            expected = adiabatic_propagator(scen.with_tau(tau), num_samples=201).final
            assert np.array_equal(u0, expected)
            assert defect == float(np.max(np.abs(full_propagator(scen.with_tau(tau)) - expected)))
        assert len(ladder) == len(taus)

    def test_full_propagator_matches_exact(self):
        # without the drive generator, magnus4 integrates U(tau)
        scen = dataclasses.replace(tycko_adiabatic(tau=20.0), drive_generator=None)
        u = full_propagator(scen, steps_per_time=40.0)
        prec = qd.PrecessionScenario(theta=TYCKO, omega=2 * np.pi / 20.0, duration=20.0)
        assert np.max(np.abs(u - qd.exact_propagator(prec, 20.0))) <= 1e-8


class TestFullPropagatorHook:
    @pytest.mark.parametrize(
        "theta, phi0, dphi, tau",
        [(TYCKO, 0.0, 2 * np.pi, 50.0), (TYCKO, 0.0, 2 * np.pi, 200.0), (1.1, 0.4, 2.2, 44.0)],
    )
    def test_hook_is_the_exact_propagator_of_the_retimed_drive(self, theta, phi0, dphi, tau):
        # the scenario is built at duration 50; at any tau its closed form is the same sweep at omega = dphi / tau
        built = qd.PrecessionScenario(theta=theta, phi0=phi0, omega=dphi / 50.0, duration=50.0)
        scen = qd.adiabatic_scenario(built).with_tau(tau)
        u = full_propagator(scen)
        prec = qd.PrecessionScenario(theta=theta, phi0=phi0, omega=dphi / tau, duration=tau)
        assert np.max(np.abs(u - qd.exact_propagator(prec, tau))) <= 1e-12
        assert unitarity_defects(u)[0] <= 1e-13
        integrated = full_propagator(dataclasses.replace(scen, drive_generator=None))
        assert np.max(np.abs(u - integrated)) <= 1e-7


    @pytest.mark.parametrize(
        "theta, phi0, omega, duration, coupling, rho",
        [(TYCKO, 0.0, 2 * np.pi / 50, 50.0, 1.0, 1.0), (1.1, 0.4, -0.3, 7.0, 1.7, 0.8)],
    )
    def test_ladder_is_the_exact_propagator_bit_for_bit(self, theta, phi0, omega, duration, coupling, rho):
        # e^{-iG} e^{-i(tau H(0) - G)} with G / tau by real division rounds as exact_propagator does
        built = qd.PrecessionScenario(theta=theta, phi0=phi0, omega=omega, duration=duration,
                                      coupling=coupling, rho=rho)
        scen = qd.adiabatic_scenario(built)
        dphi = omega * duration
        for tau in (3.0, 17.5, 50.0, 100.0, 200.0, 400.0, 800.0, 1234.5):
            prec = dataclasses.replace(built, omega=dphi / tau, duration=tau, phi_final=None)
            assert np.array_equal(full_propagator(scen.with_tau(tau)), qd.exact_propagator(prec, tau))


class TestDriveGenerator:
    def test_wrong_sign_rejected(self):
        scen = tycko_adiabatic()
        wrong = dataclasses.replace(scen, drive_generator=-scen.drive_generator)
        with pytest.raises(DomainError, match="drive_generator misses the family"):
            adiabatic_propagator(wrong, num_samples=101)
        with pytest.raises(DomainError, match="drive_generator misses the family"):
            convergence_study(wrong, [50.0, 100.0], num_samples=101)

    def test_double_rate_on_a_loop_rejected_mid_curve(self):
        # e^{-2isG} matches H at s = 1 of a full loop (and at s = 1/2), but not in between
        scen = tycko_adiabatic()
        double = dataclasses.replace(scen, drive_generator=2 * scen.drive_generator)
        h = double.family(double.curve.points)
        rot = expm_skew(double.drive_generator, 1.0)
        assert np.max(np.abs(rot @ h[0] @ rot.conj().T - h[-1])) <= 1e-12
        with pytest.raises(DomainError, match=r"at s = 0\.015625"):
            adiabatic_noncyclic_phase(double, level=1, num_samples=101)

    @pytest.mark.parametrize("route", [adiabatic_propagator, lambda scen: convergence_study(scen, [50.0])])
    def test_non_hermitian_rejected(self, route):
        scen = tycko_adiabatic()
        g = scen.drive_generator + 1e-6 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(DomainError, match=r"drive_generator must be a finite Hermitian \(3, 3\) matrix"):
            route(dataclasses.replace(scen, drive_generator=g))

    @pytest.mark.parametrize("g", [np.zeros((2, 2)), np.zeros(3), np.zeros((1, 3, 3)), np.full((3, 3), np.nan)],
                             ids=["2x2", "vector", "stack", "nan"])
    def test_wrong_shape_or_non_finite_rejected(self, g):
        scen = dataclasses.replace(tycko_adiabatic(), drive_generator=g)
        with pytest.raises(DomainError, match=r"drive_generator must be a finite Hermitian \(3, 3\) matrix"):
            adiabatic_propagator(scen, num_samples=101)

    def test_level_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="level index 2 out of range; the family has 2 levels"):
            adiabatic_noncyclic_phase(tycko_adiabatic(), level=2, num_samples=101)


class TestPrecessingFamiliesAnySpin:
    # H = (n.J)^2 precessing about J3: levels (1, 2) at spin 1, two Kramers doublets at spin 3/2,
    # (1, 2, 2) at spin 2; the drive generator's closed forms are the known values
    @pytest.mark.parametrize("fraction", [0.37, 1.0])
    @pytest.mark.parametrize("j", [1.0, 1.5, 2.0])
    def test_transported_u0_converges_to_the_closed_form(self, j, fraction):
        closed = quadrupole_drive(j, fraction)
        generic = dataclasses.replace(closed, drive_generator=None)
        gaps = []
        for num in (201, 801):
            a = adiabatic_propagator(closed, num_samples=num).final
            b = adiabatic_propagator(generic, num_samples=num).final
            gaps.append(np.max(np.abs(a - b)))
        assert gaps[0] >= 10 * gaps[1]

    @pytest.mark.parametrize("fraction", [0.37, 1.0])
    @pytest.mark.parametrize("j", [1.0, 1.5, 2.0])
    def test_closed_form_u_tau_matches_magnus4(self, j, fraction):
        closed = quadrupole_drive(j, fraction)
        u = full_propagator(closed)
        integrated = full_propagator(dataclasses.replace(closed, drive_generator=None), steps_per_time=40.0)
        assert unitarity_defects(u)[0] <= 1e-13
        assert np.max(np.abs(u - integrated)) <= 1e-7


class TestAdiabaticNoncyclicPhase:
    def test_cyclic_reduces_to_holonomy(self):
        scen = tycko_adiabatic(tau=40.0)
        lv = adiabatic_noncyclic_phase(scen, level=1, num_samples=801)
        # closed loop: endpoint overlap is the identity, so w Gamma is Gamma
        [(frames, gamma)] = adiabatic_module._level_holonomies(scen, (1,), 801)
        assert np.max(np.abs(frames.frames[0].conj().T @ frames.frames[-1] - np.eye(2))) <= 1e-12
        eigenvalues = [complex(lv.record[f"re_eig{i}"], lv.record[f"im_eig{i}"]) for i in (1, 2)]
        assert np.max(np.abs(eigenvalues - _sorted_eigenvalues(gamma[-1]))) <= 1e-12
        assert abs(lv.pi[-1] - np.trace(gamma[-1])) <= 1e-12

    def test_gauge_invariant_scalar_for_quadrupole_frames(self):
        # the trace arising from the plain eigenframe pair (w, Gamma)
        scen = tycko_adiabatic(tau=40.0)
        k = qd.connection_coeffs(TYCKO)
        lv = adiabatic_noncyclic_phase(scen, level=1, num_samples=801)
        # frame-consistent cyclic holonomy has eigenphases +-2 pi cos(theta)
        expected = 2 * np.cos(2 * np.pi * k.cos_theta)
        assert complex(lv.record["re_pi"], lv.record["im_pi"]) == pytest.approx(expected, abs=1e-8)

    def test_partial_evolution_visibility(self):
        scen = tycko_adiabatic(tau=40.0)
        lv = adiabatic_noncyclic_phase(scen, level=0, t=10.0, num_samples=801)
        expected = abs(qd.w1_closed(TYCKO, 0.0, np.pi / 2))
        assert lv.record["visibility"] == pytest.approx(expected, abs=1e-9)
        assert lv.times[-1] == pytest.approx(10.0, abs=1e-12) and lv.visibilities[-1] == lv.record["visibility"]

    def test_level0_dynamical_phase_vanishes(self):
        scen = tycko_adiabatic(tau=40.0)
        lv = adiabatic_noncyclic_phase(scen, level=0, num_samples=401)
        assert lv.record["dynamical_phase"] == pytest.approx(0.0, abs=1e-12)

    def test_time_out_of_range_rejected(self):
        scen = tycko_adiabatic(tau=40.0)
        with pytest.raises(DomainError):
            adiabatic_noncyclic_phase(scen, level=0, t=41.0)


class TestScenarioValidation:
    def test_curve_must_be_normalized(self):
        h = np.eye(2)
        family = OperatorFamily(dim=2, evaluator=lambda th: np.broadcast_to(h, (len(th), 2, 2)))
        ss = np.linspace(0.0, 2.0, 11)
        curve = Curve(times=ss, points=ss[:, None])
        with pytest.raises(DomainError):
            AdiabaticScenario(family=family, curve=curve, tau=1.0)
