"""Property tests over random Hermitian families: batched frame transport.

``transport_frames`` aligns all samples of a level at once: one stacked
eigendecomposition, one stacked SVD of the raw overlaps, a cumulative product
of their polar factors and one stacked polar re-projection.  The reference
here is the per-sample loop it replaced: an eigendecomposition per sample,
then each frame aligned to its aligned predecessor in sequence.  The
cumulative product itself, a log-depth scan, is checked against the
sequential loop of step products it replaced, and so is the pairwise tree
that forms the last product alone; the final-only propagator equals the last
prefix of the full trace.  The traces Pi = tr(w Gamma)
of the transported frames are geometric: retiming the samples leaves them
unchanged, and reversing the curve conjugates them.  The transport operator
V(t_k, t_0) = sum_n F^n_k Gamma^n_k F^n_0^dag composes along a curve split at
a sample.  The closed-form 2x2 eigendecomposition that every stepper and
gauge uses gives the exponentials of scipy's ``expm``.  For a precessing drive
H(s) = e^{-isG} H(0) e^{isG}, the closed forms of a scenario's drive
generator are the known values of the transported route's U0 and of the
integrated U(tau).
"""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holonomy.adiabatic import AdiabaticScenario, adiabatic_propagator, full_propagator
from holonomy.errors import LevelCrossingError, ResolutionError
from holonomy.frames import MIN_OVERLAP_SINGULAR_VALUE, Curve, OperatorFamily, transport_frames, transport_holonomy
from holonomy import quadrupole as qd
from holonomy.linalg import (
    _ordered_products,
    _tree_product,
    eigh_many,
    expm_skew_many,
    level_bounds,
    polar_many,
)
from holonomy.propagate import (
    METHODS,
    MatrixOdeProblem,
    PropagatorTrace,
    assemble_V,
    propagate,
    propagate_final,
)

SETTINGS = dict(derandomize=True, deadline=None)


def sequential_transport(family, curve, level):
    """Aligned frames of one level, one sample at a time."""
    spectra = [eigh_many(h) for h in family(curve.points)]
    bounds = [level_bounds(vals[None]) for vals, _ in spectra]
    pattern = [tuple(b - a for a, b in row) for row in bounds]
    for k, row in enumerate(pattern):
        if row != pattern[0]:
            raise LevelCrossingError(f"level structure changed at sample {k}: {pattern[0]} -> {row}")
    a, b = bounds[0][level]
    frames = np.array([vecs[:, a:b] for _, vecs in spectra])
    for k in range(1, len(frames)):
        overlap = frames[k - 1].conj().T @ frames[k]
        svals = np.linalg.svd(overlap, compute_uv=False)
        if svals.min() < MIN_OVERLAP_SINGULAR_VALUE:
            raise ResolutionError(
                f"curve under-resolved between samples {k - 1} and {k}: min overlap singular value {svals.min():.3f}"
            )
        frames[k] = frames[k] @ polar_many(overlap)[0].conj().T
    return frames


def failing_sample(exc: Exception) -> int:
    """The sample index an error message names before its colon (the later one of a pair)."""
    return int(re.search(r"(\d+):", str(exc)).group(1))


def random_unitary(rng, d):
    return random_unitaries(rng, 1, d)[0]


def random_unitaries(rng, m, d):
    """A stack (m, d, d) of random unitaries."""
    q, r = np.linalg.qr(rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d)))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


@st.composite
def spectra(draw, min_levels=1):
    """(multiplicities, seed): d <= 5 with one degenerate level, in any position, and min_levels levels or more."""
    d = draw(st.integers(min_levels + 1, 5))
    degenerate = draw(st.integers(2, d - min_levels + 1))
    mults = draw(st.permutations([degenerate] + [1] * (d - degenerate)))
    return tuple(mults), draw(st.integers(0, 2**32 - 1))


def level_values(rng, mults):
    """Eigenvalues, each level repeated by its multiplicity, with gaps between 0.5 and 1.5."""
    return np.repeat(np.cumsum(rng.uniform(0.5, 1.5, len(mults))), mults)


def rotating_family(values, g, w):
    """H(theta) = U diag(values(theta)) U^dag, U = W exp(i theta G); theta is the curve's one parameter.

    ``values`` maps the parameter stack (m,) to the eigenvalues (m, d).
    """
    gw, gv = np.linalg.eigh(g)

    def evaluate(thetas):
        s = thetas[:, 0]
        u = w @ (gv * np.exp(1j * s[:, None, None] * gw)) @ gv.conj().T
        return (u * values(s)[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))

    return OperatorFamily(dim=len(w), evaluator=evaluate)


def constant(lam):
    return lambda s: np.broadcast_to(lam, (len(s), len(lam)))


@settings(max_examples=30, **SETTINGS)
@given(spectra(), st.integers(20, 1000), st.floats(0.2, 2.0), st.floats(0.5, 3.0))
def test_batched_transport_equals_sequential(spectrum, num_samples, rate, span):
    mults, seed = spectrum
    rng = np.random.default_rng(seed)
    d = sum(mults)
    g = rate * random_hermitian(rng, d) / np.sqrt(d)
    family = rotating_family(constant(level_values(rng, mults)), g, random_unitary(rng, d))
    curve = Curve(times=np.linspace(0.0, 1.0, num_samples), points=np.linspace(0.0, span, num_samples)[:, None])
    fields = transport_frames(family, curve)
    assert [f.multiplicity for f in fields] == list(mults)
    for level, field in enumerate(fields):
        reference = sequential_transport(family, curve, level)
        assert np.max(np.abs(field.frames - reference)) <= 1e-12


def transported_traces(family, curve):
    """Pi_k = tr(w_k Gamma_k) of every level, from its parallel-transported frames."""
    traces = []
    for field in transport_frames(family, curve):
        w = field.frames[0].conj().T @ field.frames
        traces.append(np.trace(w @ transport_holonomy(field), axis1=1, axis2=2))
    return traces


@settings(max_examples=30, **SETTINGS)
@given(spectra(), st.integers(20, 1000), st.floats(0.2, 2.0), st.floats(0.5, 3.0), st.floats(0.01, 100.0))
def test_traces_do_not_depend_on_the_sample_times(spectrum, num_samples, rate, span, speed):
    # the same points reached at other, strictly increasing times, with a random speed profile
    mults, seed = spectrum
    rng = np.random.default_rng(seed)
    d = sum(mults)
    g = rate * random_hermitian(rng, d) / np.sqrt(d)
    family = rotating_family(constant(level_values(rng, mults)), g, random_unitary(rng, d))
    points = np.linspace(0.0, span, num_samples)[:, None]
    retimed = speed * np.cumsum(rng.uniform(0.01, 1.0, num_samples))
    uniform = transported_traces(family, Curve(times=np.linspace(0.0, 1.0, num_samples), points=points))
    for pi, pi_retimed in zip(uniform, transported_traces(family, Curve(times=retimed, points=points)), strict=True):
        assert np.max(np.abs(pi - pi_retimed)) <= 1e-14


def random_rotating_family(mults, seed, rate):
    rng = np.random.default_rng(seed)
    d = sum(mults)
    g = rate * random_hermitian(rng, d) / np.sqrt(d)
    return rotating_family(constant(level_values(rng, mults)), g, random_unitary(rng, d))


@settings(max_examples=30, **SETTINGS)
@given(spectra(), st.integers(20, 1000), st.floats(0.2, 2.0), st.floats(0.5, 3.0))
def test_reversed_curve_conjugates_the_traces(spectrum, num_samples, rate, span):
    # transport back over the same points runs from the end frame to the start frame
    family = random_rotating_family(*spectrum, rate)
    times = np.linspace(0.0, 1.0, num_samples)
    points = np.linspace(0.0, span, num_samples)[:, None]
    forward = transported_traces(family, Curve(times=times, points=points))
    backward = transported_traces(family, Curve(times=times, points=points[::-1]))
    for pi, pi_back in zip(forward, backward, strict=True):
        assert abs(pi_back[-1] - np.conj(pi[-1])) <= 1e-12


def transport_operator(family, curve):
    """V(t_k, t_0) (m, d, d): assemble_V of every level's transported frames and their Wilson line."""
    fields = transport_frames(family, curve)
    gammas = [PropagatorTrace(times=f.times, matrices=transport_holonomy(f), method="transport", max_step_norm=0.0)
              for f in fields]
    return sum(assemble_V(fields, gammas))


@settings(max_examples=30, **SETTINGS)
@given(spectra(), st.integers(20, 1000), st.floats(0.2, 2.0), st.floats(0.5, 3.0), st.data())
def test_transport_operator_composes(spectrum, num_samples, rate, span, data):
    # V(t2, t0) = V(t2, t1) V(t1, t0); the second piece starts from the raw frame at t1,
    # which V does not see: it is gauge-invariant
    family = random_rotating_family(*spectrum, rate)
    times = np.linspace(0.0, 1.0, num_samples)
    points = np.linspace(0.0, span, num_samples)[:, None]
    split = data.draw(st.integers(1, num_samples - 2), label="split")
    whole = transport_operator(family, Curve(times=times, points=points))[-1]
    first = transport_operator(family, Curve(times=times[: split + 1], points=points[: split + 1]))[-1]
    second = transport_operator(family, Curve(times=times[split:], points=points[split:]))[-1]
    assert np.max(np.abs(whole - second @ first)) <= 1e-12


@settings(max_examples=4, **SETTINGS)
@given(spectra())
def test_long_loop_frames_stay_orthonormal(spectrum):
    # exp(i theta G) with integer eigenvalues of G closes after one turn of the angle theta,
    # so the curve (cos theta, sin theta) is a closed loop of the family
    mults, seed = spectrum
    rng = np.random.default_rng(seed)
    d = sum(mults)
    v = random_unitary(rng, d)
    g = (v * rng.integers(-2, 3, size=d)) @ v.conj().T
    inner = rotating_family(constant(level_values(rng, mults)), g, random_unitary(rng, d))
    family = OperatorFamily(dim=d, evaluator=lambda p: inner.evaluator(np.arctan2(p[:, 1], p[:, 0])[:, None]))
    angles = np.linspace(0.0, 2 * np.pi, 8001)
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    points[-1] = points[0]
    curve = Curve(times=angles, points=points, cyclic=True)
    for field in transport_frames(family, curve):
        gram = np.conj(np.swapaxes(field.frames, 1, 2)) @ field.frames
        assert np.max(np.abs(gram - np.eye(field.multiplicity))) <= 1e-14


@settings(max_examples=25, **SETTINGS)
@given(spectra(min_levels=2), st.integers(3, 60), st.data())
def test_under_resolved_step_found_at_the_same_sample(spectrum, num_samples, data):
    # a plane rotation carries a vector of one level into another level; one
    # step of the curve turns it by delta, so that overlap has singular value |cos delta| < 0.5
    mults, seed = spectrum
    rng = np.random.default_rng(seed)
    d = sum(mults)
    starts = np.cumsum((0,) + mults[:-1])
    level = data.draw(st.integers(0, len(mults) - 1), label="level")
    other = data.draw(st.integers(0, len(mults) - 2), label="other")
    other += other >= level
    a, b = starts[level], starts[other]
    g = np.zeros((d, d), dtype=complex)
    g[a, b], g[b, a] = -1j, 1j  # exp(i theta G) rotates e_a towards e_b
    family = rotating_family(constant(level_values(rng, mults)), g, random_unitary(rng, d))
    jump = data.draw(st.integers(1, num_samples - 1), label="jump")
    delta = data.draw(st.floats(1.3, 1.8), label="delta")
    thetas = 0.01 * np.arange(num_samples) + delta * (np.arange(num_samples) >= jump)
    curve = Curve(times=np.arange(num_samples, dtype=float), points=thetas[:, None])
    errors = []
    for transport in (lambda: transport_frames(family, curve, (level,)), lambda: sequential_transport(family, curve, level)):
        try:
            transport()
        except ResolutionError as exc:
            errors.append(failing_sample(exc))
    assert errors == [jump, jump]


@settings(max_examples=25, **SETTINGS)
@given(spectra(), st.integers(5, 200), st.floats(0.0, 1.0), st.floats(0.05, 0.95))
def test_forced_crossing_found_at_the_same_sample(spectrum, num_samples, rate, crossing):
    # an extra eigenvalue sweeps through the degenerate level, which it meets at s = crossing:
    # the multiplicity pattern changes there
    mults, seed = spectrum
    rng = np.random.default_rng(seed)
    d = sum(mults) + 1
    lam = level_values(rng, mults)
    target = lam[np.argmax(np.repeat(mults, mults))]

    def values(s):
        return np.column_stack([np.broadcast_to(lam, (len(s), d - 1)), target + 2.0 * (s - crossing)])

    family = rotating_family(values, rate * random_hermitian(rng, d) / np.sqrt(d), random_unitary(rng, d))
    curve = Curve(times=np.linspace(0.0, 1.0, num_samples), points=np.linspace(0.0, 1.0, num_samples)[:, None])
    errors = []
    for transport in (lambda: transport_frames(family, curve, (0,)), lambda: sequential_transport(family, curve, 0)):
        try:
            transport()
        except LevelCrossingError as exc:
            errors.append((failing_sample(exc), str(exc)))
    assert len(errors) == 2 and errors[0] == errors[1]
    assert curve.times[errors[0][0]] >= crossing - 1e-9


def sequential_products(steps, initial):
    """M_0 = initial, M_{k+1} = steps[k] @ M_k, one step at a time."""
    out = [initial]
    for step in steps:
        out.append(step @ out[-1])
    return np.array(out)


@settings(max_examples=40, **SETTINGS)
@given(st.integers(1, 5), st.integers(1, 3000), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(d=1, m=1, columns=1, seed=0)
@example(d=1, m=3000, columns=1, seed=1)
@example(d=2, m=2, columns=2, seed=2)
@example(d=3, m=1025, columns=2, seed=3)
def test_ordered_products_equal_sequential_loop(d, m, columns, seed):
    rng = np.random.default_rng(seed)
    l = min(columns, d)  # a square or a rectangular initial value with orthonormal columns
    steps = random_unitaries(rng, m, d)
    initial = random_unitary(rng, d)[:, :l]
    stack = np.ascontiguousarray(np.moveaxis(steps, 0, -1))  # (d, d, m), stack axis innermost
    before = stack.copy()
    products = _ordered_products(stack, initial)
    assert np.array_equal(stack, before)  # the scan's buffers must not alias its input
    assert products.shape == (m + 1, d, l) and np.array_equal(products[0], initial)
    assert np.max(np.abs(products - sequential_products(steps, initial))) <= 1e-12
    gram = np.conj(np.swapaxes(products, 1, 2)) @ products
    assert np.max(np.abs(gram - np.eye(l))) <= 1e-12


@settings(max_examples=40, **SETTINGS)
@given(st.integers(1, 5), st.integers(1, 3000), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(d=1, m=1, columns=1, seed=0)
@example(d=2, m=2, columns=2, seed=2)
@example(d=3, m=1025, columns=2, seed=3)
def test_tree_product_equals_last_sequential_product(d, m, columns, seed):
    rng = np.random.default_rng(seed)
    l = min(columns, d)
    steps = random_unitaries(rng, m, d)
    initial = random_unitary(rng, d)[:, :l]
    final = _tree_product(np.ascontiguousarray(np.moveaxis(steps, 0, -1)), initial)
    assert final.shape == (d, l)
    assert np.max(np.abs(final - sequential_products(steps, initial)[-1])) <= 1e-12


def quadrupole_problems():
    """The level-2 holonomy problem and the 3x3 full-propagator problem of one quadrupole precession."""
    scenario = qd.PrecessionScenario(theta=qd.TYCKO_THETA, omega=2 * np.pi / 40, phi_final=2 * np.pi)
    ts = np.linspace(0.0, scenario.duration, 2001)
    full = MatrixOdeProblem(
        generator=lambda t: qd.hamiltonian(scenario.field_at(t)), initial=np.eye(3, dtype=complex), times=ts
    )
    return qd.level2_holonomy_problem(scenario, 1601), full


@pytest.mark.parametrize("method", METHODS)
def test_final_only_propagator_equals_last_prefix(method):
    for problem in quadrupole_problems():
        assert np.max(np.abs(propagate_final(problem, method) - propagate(problem, method).final)) <= 1e-13


@settings(max_examples=60, **SETTINGS)
@given(arrays(np.float64, st.tuples(st.integers(1, 16), st.just(4)), elements=st.floats(-4.0, 4.0)))
def test_closed_form_2x2_exponentials_equal_scipy_expm(entries):
    # rows (a, c, Re b, Im b) of H = [[a, conj(b)], [b, c]]; hypothesis reaches b = 0 and a = c
    h = np.empty((len(entries), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = entries[:, 0], entries[:, 1]
    h[:, 1, 0] = entries[:, 2] + 1j * entries[:, 3]
    h[:, 0, 1] = np.conj(h[:, 1, 0])
    got = expm_skew_many(*eigh_many(h))
    assert np.max(np.abs(got - scipy.linalg.expm(-1j * h))) <= 1e-13


@st.composite
def precessing_drives(draw):
    """(multiplicities, seed, rate): d <= 4, one level of any multiplicity, largest |eigenvalue of G| = rate."""
    d = draw(st.integers(2, 4))
    repeated = draw(st.integers(1, d))
    mults = draw(st.permutations([repeated] + [1] * (d - repeated)))
    return tuple(mults), draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.3, 3.0))


@settings(max_examples=20, **SETTINGS)
@given(precessing_drives())
def test_drive_generator_closed_forms_are_the_known_values(drive):
    # H(s) = W e^{isK} D e^{-isK} W^dag = e^{-isG} H(0) e^{isG} with G = -W K W^dag
    mults, seed, rate = drive
    rng = np.random.default_rng(seed)
    values = level_values(rng, mults)
    w = random_unitary(rng, len(values))
    k = random_hermitian(rng, len(w))
    k *= rate / np.max(np.abs(np.linalg.eigvalsh(k)))
    ss = np.linspace(0.0, 1.0, 33)
    closed = AdiabaticScenario(
        family=rotating_family(constant(values), k, w),
        curve=Curve(times=ss, points=ss[:, None], evaluator=lambda s: s[:, None]),
        tau=5.0,
        drive_generator=-(w @ k @ w.conj().T),
    )
    generic = AdiabaticScenario(family=closed.family, curve=closed.curve, tau=closed.tau)
    # the transported U0 converges to the closed form at second order: 4x the samples, ~16x closer
    gaps = [
        np.max(np.abs(adiabatic_propagator(closed, num_samples=num).final
                      - adiabatic_propagator(generic, num_samples=num).final))
        for num in (101, 401)
    ]
    assert gaps[1] <= max(gaps[0] / 10, 1e-12)  # one level of multiplicity d agrees at roundoff
    integrated = full_propagator(generic, steps_per_time=80.0)
    assert np.max(np.abs(full_propagator(closed) - integrated)) <= 1e-7
