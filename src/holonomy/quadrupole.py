"""Closed-form ground truth for a spin-1 quadrupole in a precessing field.

The Hamiltonian is H = coupling * (J . R)^2 for the standard spin-1 angular
momentum matrices and a field R with cylindrical coordinates (rho, phi, z),
zeta = z / rho.  For rho > 0 it has a nondegenerate eigenvalue 0 and a doubly
degenerate eigenvalue E2 = coupling * rho^2 * (1 + zeta^2).

For a precessing field (theta constant, phi = phi0 + omega t) everything is
solvable in closed form: the degenerate-level connection

    A2(phi) = [[mu, (nu/2) e^{i phi}], [(nu/2) e^{-i phi}, sigma]]   (per dphi)

has a holonomy expressible through a constant rotating-frame generator
h' = (1/2) [-(mu+sigma) s0 - nu s1 + (1-mu+sigma) s3], splitting
Delta = sqrt((1+sigma-mu)^2 + nu^2); the endpoint overlaps w2 and the trace
Pi2 = trace(w2 Gamma2) follow in elementary functions.  The module also
provides the exact full propagator via the rotating-frame identity
U(t) = exp(-i omega t J3) exp(-i (H(phi0) - omega J3) t), which makes every
integrator in this package independently checkable.

Convention notes: the off-diagonal connection entries carry nu/2, the
unique normalization under which the closed-form holonomy below solves the
transport equation i dG/dphi = -A2 G with splitting Delta; the overlap
matrices are evaluated in the plain position-space eigenframe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AxisSingularityError, DomainError
from .frames import Curve, FrameField, OperatorFamily
from .linalg import expm_skew
from .propagate import MatrixOdeProblem

COEFF_IDENTITY_TOL = 1e-12

TYCKO_COS_THETA = 1.0 / np.sqrt(3.0)
TYCKO_THETA = float(np.arccos(TYCKO_COS_THETA))

# spin-1 angular momentum matrices in the J3 eigenbasis (m = +1, 0, -1)
J1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
J2 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
J3 = np.diag([1.0, 0.0, -1.0]).astype(complex)

S0 = np.eye(2, dtype=complex)
S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class FieldPoint:
    """Field configuration in cylindrical coordinates, with coupling.

    ``phi`` may be an array of azimuths: the point then stands for that many
    fields, and :func:`hamiltonian` and :func:`level_frame` return stacks.
    """

    rho: float
    phi: float | np.ndarray
    zeta: float
    coupling: float = 1.0

    def __post_init__(self):
        if not self.rho > 0:
            raise AxisSingularityError("field point on the symmetry axis (rho must be > 0)")

    @classmethod
    def from_spherical(cls, r: float, theta: float, phi: float, coupling: float = 1.0) -> "FieldPoint":
        rho = r * np.sin(theta)
        if not rho > 0:
            raise AxisSingularityError("theta in {0, pi} puts the field on the symmetry axis")
        return cls(rho=float(rho), phi=float(phi), zeta=float(np.cos(theta) / np.sin(theta)), coupling=coupling)

    @property
    def cos_theta(self) -> float:
        return self.zeta / np.sqrt(1.0 + self.zeta**2)

    @property
    def radius(self) -> float:
        return self.rho * np.sqrt(1.0 + self.zeta**2)

    @property
    def energy_split(self) -> float:
        """E2, the degenerate eigenvalue; the other eigenvalue is 0."""
        return self.coupling * self.rho**2 * (1.0 + self.zeta**2)


@dataclass(frozen=True)
class PrecessionScenario:
    """Precessing field: constant polar angle, phi = phi0 + omega t."""

    theta: float
    phi0: float = 0.0
    omega: float = 1.0
    duration: float | None = None
    phi_final: float | None = None
    coupling: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        for key in ("phi0", "omega", "duration", "phi_final", "coupling", "rho"):
            value = getattr(self, key)
            if value is not None and not np.isfinite(value):
                raise DomainError(f"{key} must be finite, got {value!r}")
        if self.omega == 0:
            raise DomainError("omega must be nonzero for a precessing field")
        if not 0 < self.theta < np.pi:
            raise AxisSingularityError("theta must lie strictly between 0 and pi")
        if (self.duration is None) == (self.phi_final is None):
            raise DomainError("specify exactly one of duration or phi_final")
        if self.duration is None:
            object.__setattr__(self, "duration", (self.phi_final - self.phi0) / self.omega)
        else:
            object.__setattr__(self, "phi_final", self.phi0 + self.omega * self.duration)
        if self.duration < 0:
            raise DomainError("scenario duration must be nonnegative")
        if self.coupling == 0:
            raise DomainError("coupling must be nonzero: at zero coupling H vanishes and has no quadrupole levels")
        self.field_at(0.0)  # FieldPoint rejects a field on the axis (rho <= 0)

    @property
    def zeta(self) -> float:
        return float(np.cos(self.theta) / np.sin(self.theta))

    @property
    def cos_theta(self) -> float:
        return float(np.cos(self.theta))

    def phi_at(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.phi0 + self.omega * t

    def field_at(self, t: float | np.ndarray) -> FieldPoint:
        return FieldPoint(rho=self.rho, phi=self.phi_at(t), zeta=self.zeta, coupling=self.coupling)

    def times(self, num_samples: int) -> np.ndarray:
        return np.linspace(0.0, self.duration, num_samples)

    def hamiltonian_family(self) -> OperatorFamily:
        """One-parameter family phi -> H(phi) at this scenario's theta."""
        def evaluate(phis: np.ndarray) -> np.ndarray:
            return hamiltonian(FieldPoint(self.rho, phis[:, 0], self.zeta, self.coupling))
        return OperatorFamily(dim=3, evaluator=evaluate)

    def curve(self, num_samples: int) -> Curve:
        # the azimuth coordinate is kept unreduced (single chart over any
        # number of cycles), so the endpoints differ by 2 pi k even for a
        # closed precession and the curve is not flagged cyclic
        ts = self.times(num_samples)
        phis = self.phi0 + self.omega * ts
        return Curve(times=ts, points=phis[:, None], cyclic=False, evaluator=lambda t: self.phi_at(t)[:, None])


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Dimensionless coefficients (mu, nu, sigma) and splitting Delta at fixed theta."""

    cos_theta: float
    mu: float
    nu: float
    sigma: float
    delta: float

    def validate(self) -> None:
        c = self.cos_theta
        ident = self.sigma + 0.75 * self.mu + 0.5 + (1 + c**4) / (1 + c**2)
        if abs(ident) > COEFF_IDENTITY_TOL:
            raise DomainError(f"coefficient identity violated: {ident:.3e}")
        d2 = (1 + self.sigma - self.mu) ** 2 + self.nu**2
        if abs(self.delta**2 - d2) > COEFF_IDENTITY_TOL:
            raise DomainError("delta does not match its defining quadrature")


def connection_coeffs(theta: float) -> ConnectionCoeffs:
    """Coefficients of the degenerate-level connection for polar angle theta."""
    if not 0 < theta < np.pi:
        raise AxisSingularityError("theta must lie strictly between 0 and pi")
    c = float(np.cos(theta))
    mu = 2 * c**2 / (1 + c**2)
    nu = -c * (1 - c**2) / (1 + c**2)
    sigma = -(1 + 2 * (1 + c**2) ** 2) / (2 * (1 + c**2))
    delta = float(np.sqrt((1 + sigma - mu) ** 2 + nu**2))
    coeffs = ConnectionCoeffs(cos_theta=c, mu=mu, nu=nu, sigma=sigma, delta=delta)
    coeffs.validate()
    return coeffs


def hamiltonian(p: FieldPoint) -> np.ndarray:
    """H = coupling * (J . R)^2 as an explicit Hermitian 3x3 matrix, or a stack over ``p.phi``."""
    e = np.exp(1j * np.asarray(p.phi, dtype=float))
    e2 = np.power(e, 2)  # not e**2: that squares arrays as e*e, which rounds differently from np.power
    z = p.zeta
    m = np.empty(e.shape + (3, 3), dtype=complex)
    m[..., 0, 0] = 1 + 2 * z**2
    m[..., 0, 1] = np.sqrt(2) * z / e
    m[..., 0, 2] = 1 / e2
    m[..., 1, 0] = np.sqrt(2) * z * e
    m[..., 1, 1] = 2
    m[..., 1, 2] = -np.sqrt(2) * z / e
    m[..., 2, 0] = e2
    m[..., 2, 1] = -np.sqrt(2) * z * e
    m[..., 2, 2] = 1 + 2 * z**2
    return 0.5 * p.coupling * p.rho**2 * m


def level_frame(p: FieldPoint, level: int) -> np.ndarray:
    """Orthonormal frame (3, l) of one level, or a stack (m, 3, l) over ``p.phi``.

    Level 0: eigenvalue 0, multiplicity 1; level 1: eigenvalue E2,
    multiplicity 2.  The frames are smooth in phi and zeta away from the axis.
    """
    if level not in (0, 1):
        raise DomainError("quadrupole levels are 0 (nondegenerate) and 1 (degenerate)")
    z = p.zeta
    e = np.exp(1j * np.asarray(p.phi, dtype=float))
    n1 = np.sqrt(2 * (1 + z**2))
    n2 = np.sqrt(1 + 2 * z**2)
    sz = np.full(e.shape, np.sqrt(2) * z, dtype=complex)
    if level == 0:
        return (np.stack([-1 / e, sz, e], axis=-1) / n1)[..., None]
    v21 = np.stack([sz / e, np.ones_like(e), np.zeros_like(e)], axis=-1) / n2
    v22 = np.stack([-1 / e, sz, -(1 + 2 * z**2) * e], axis=-1) / (n1 * n2)
    return np.stack([v21, v22], axis=-1)


def _matrix2(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]], or the stack (m, 2, 2) of them when the entries are arrays (m,)."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = c
    out[..., 1, 1] = d
    return out


def _cmul(a, b) -> np.ndarray:
    """Complex a * b, elementwise, with each real product rounded on its own.

    numpy's complex multiply loops fuse multiply-adds where the CPU has them,
    and scalar complex arithmetic does not; this product is the same for one
    azimuth and for a stack, so a stacked closed form equals its per-point
    values bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def level2_connection(theta: float) -> Callable[[np.ndarray], np.ndarray]:
    """phi -> A2(phi), the 2x2 connection of the degenerate level per unit dphi.

    A2 maps an array of azimuths to the stack of connections over it.
    """
    k = connection_coeffs(theta)
    def a2(phi: np.ndarray) -> np.ndarray:
        off = 0.5 * k.nu * np.exp(1j * np.asarray(phi, dtype=float))
        return _matrix2(k.mu, off, np.conj(off), k.sigma)
    return a2


def rotating_frame(theta: float) -> tuple[np.ndarray, Callable[[float, float], np.ndarray]]:
    """Constant rotating-frame generator h' and the holonomy it reconstructs.

    reconstruct(phi0, phi) = exp(i phi s3/2) exp(-i h' (phi-phi0)) exp(-i phi0 s3/2)
    agrees entrywise with :func:`gamma2_closed`.
    """
    k = connection_coeffs(theta)
    hp = 0.5 * (-(k.mu + k.sigma) * S0 - k.nu * S1 + (1 - k.mu + k.sigma) * S3)

    def reconstruct(phi0: float, phi: float) -> np.ndarray:
        u1 = np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)])
        u0 = np.diag([np.exp(-1j * phi0 / 2), np.exp(1j * phi0 / 2)])
        return u1 @ expm_skew(hp, phi - phi0) @ u0

    return hp, reconstruct


# gamma2_closed, w2_closed, w1_closed and pi2_closed take one azimuth phi or an
# array of them (m,); an array gives the stack over it from one connection_coeffs.

def gamma2_closed(theta: float, phi0: float, phi: float | np.ndarray) -> np.ndarray:
    """Closed-form holonomy (2, 2) of the degenerate level between azimuths phi0 and phi."""
    k = connection_coeffs(theta)
    phi = np.asarray(phi, dtype=float)
    dphi = phi - phi0
    cd = np.cos(0.5 * dphi * k.delta)
    sd = np.sin(0.5 * dphi * k.delta)
    kap = (k.mu - k.sigma - 1) / k.delta
    ems = np.exp(0.5j * (k.mu + k.sigma) * dphi)
    half_sum = np.exp(0.5j * (phi + phi0))
    g11 = _cmul(_cmul(ems, np.exp(0.5j * dphi)), cd + 1j * kap * sd)
    g22 = _cmul(_cmul(ems, np.exp(-0.5j * dphi)), cd - 1j * kap * sd)
    g12 = _cmul(_cmul(1j * (k.nu / k.delta), ems), half_sum) * sd
    g21 = _cmul(_cmul(1j * (k.nu / k.delta), ems), np.conj(half_sum)) * sd
    return _matrix2(g11, g12, g21, g22)


def gamma1_closed(phi0: float, phi: float | np.ndarray) -> complex | np.ndarray:
    """Abelian holonomy factor of the nondegenerate level, exp(i (phi - phi0)); an array of phi gives an array."""
    gamma = np.exp(1j * (np.asarray(phi, dtype=float) - phi0))
    return complex(gamma) if np.ndim(phi) == 0 else gamma


def _w2_entries(k: ConnectionCoeffs, dphi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries w11, w12 = w21 and w22 of the degenerate-level overlap matrix."""
    c = k.cos_theta
    w11 = 1 - k.mu * (1 - np.exp(-1j * dphi))
    w12 = -k.nu * (1 - np.exp(-1j * dphi))
    w22 = 1 - (1 + c**4) / (1 + c**2) * (1 - np.cos(dphi)) + 1j * k.mu * np.sin(dphi)
    return w11, w12, w22


def w2_closed(theta: float, phi0: float, phi: float | np.ndarray) -> np.ndarray:
    """Endpoint overlap matrix (2, 2) of the degenerate level, w_ba = <b;phi0|a;phi>."""
    w11, w12, w22 = _w2_entries(connection_coeffs(theta), np.asarray(phi, dtype=float) - phi0)
    return _matrix2(w11, w12, w12, w22)


def w1_closed(theta: float, phi0: float, phi: float | np.ndarray) -> float | np.ndarray:
    """Endpoint overlap of the nondegenerate level: cos^2(theta) + sin^2(theta) cos(dphi)."""
    c = float(np.cos(theta))
    w = c**2 + (1 - c**2) * np.cos(np.asarray(phi, dtype=float) - phi0)
    return float(w) if np.ndim(phi) == 0 else w


def pi2_closed(theta: float, phi0: float, phi: float | np.ndarray) -> complex | np.ndarray:
    """The oracle's scalar Pi2 = trace(w2 Gamma2) as one elementary expression.

    Both amplitudes are derived directly from trace(w2 Gamma2), so the
    identity with the matrix product holds at machine precision; the values
    reduce to Pi2 = 2 at dphi = 0 and to
    Pi2 = -2 exp(i pi (mu+sigma)) cos(pi Delta) at dphi = 2 pi.

    This is not the gauge-invariant Pi of one frame.  w2 is taken in the
    plain eigenframe, whose own connection is [[mu, nu], [nu, -mu]] dphi,
    while Gamma2 is the holonomy of A2, which is not that frame's
    connection.  At the Tycko angle the cyclic value is -1.1487+0.8814i,
    where the transported frames of a custom family give
    2 cos(2 pi cos theta) = -1.76841.
    """
    k = connection_coeffs(theta)
    phi = np.asarray(phi, dtype=float)
    dphi = phi - phi0
    ed = np.exp(0.5j * dphi)
    x_amp = _cmul(
        0.25 / ed,
        6 + 7 * k.mu + 4 * k.sigma
        + (2 - 7 * k.mu - 4 * k.sigma) * np.cos(dphi)
        + 4j * np.sin(dphi),
    )
    w11, w12, w22 = _w2_entries(k, dphi)
    y_amp = (
        _cmul(1j * ((k.mu - k.sigma - 1) / k.delta), _cmul(w11, ed) - w22 / ed)
        + _cmul(2j * (k.nu / k.delta) * np.cos(0.5 * (phi + phi0)), w12)
    )
    half = 0.5 * k.delta * dphi
    pi2 = _cmul(np.exp(0.5j * (k.mu + k.sigma) * dphi), x_amp * np.cos(half) + y_amp * np.sin(half))
    return complex(pi2) if np.ndim(phi) == 0 else pi2


def pi2_cyclic(theta: float) -> complex:
    """Pi2 after one full precession cycle: -2 exp(i pi (mu+sigma)) cos(pi Delta)."""
    k = connection_coeffs(theta)
    return complex(-2 * np.exp(1j * np.pi * (k.mu + k.sigma)) * np.cos(np.pi * k.delta))


def cyclic_eigenphases(theta: float) -> tuple[float, float]:
    """Eigenphases of the cyclic degenerate-level holonomy: pi (mu+sigma+1 +- Delta)."""
    k = connection_coeffs(theta)
    return (
        float(np.pi * (k.mu + k.sigma + 1 + k.delta)),
        float(np.pi * (k.mu + k.sigma + 1 - k.delta)),
    )


def level_frame_field(scenario: PrecessionScenario, level: int, num_samples: int) -> FrameField:
    """Analytic eigenframes of one level sampled along the precession."""
    ts = scenario.times(num_samples)
    frames = level_frame(scenario.field_at(ts), level)
    eigs = np.full(len(ts), 0.0 if level == 0 else scenario.field_at(0.0).energy_split)
    return FrameField(
        level_index=level,
        multiplicity=1 if level == 0 else 2,
        times=ts,
        frames=frames,
        eigenvalues=eigs,
    )


def level2_holonomy_problem(scenario: PrecessionScenario, num_samples: int) -> MatrixOdeProblem:
    """The oracle holonomy of the doublet: i dG/dt = -omega A2(phi(t)) G, G(0) = 1, on ``scenario.times``.

    A zero sweep (phi_final = phi0) has no holonomy to integrate: DomainError.
    """
    if scenario.duration == 0:
        raise DomainError("the doublet holonomy needs a nonzero sweep, got phi_final = phi0")
    a2 = level2_connection(scenario.theta)
    return MatrixOdeProblem(
        generator=lambda nodes: -(scenario.omega * a2(scenario.phi_at(nodes))),
        initial=np.eye(2, dtype=complex),
        times=scenario.times(num_samples),
    )


def frame_consistent_level2(theta: float) -> np.ndarray:
    """Connection of the degenerate level in the plain eigenframe, per unit dphi.

    The analytic frames of :func:`level_frame` generate the constant matrix
    [[mu, nu], [nu, -mu]]; its holonomy differs from :func:`gamma2_closed` by
    the change of gauge built into the closed-form convention.  The adiabatic
    propagator's doublet connection F0^dag G F0 (G = dphi J3, F0 in the eigh
    gauge) is dphi times this matrix up to a constant change of basis: both
    have eigenvalues +-dphi cos(theta), since mu^2 + nu^2 = cos^2(theta).
    """
    k = connection_coeffs(theta)
    return np.array([[k.mu, k.nu], [k.nu, -k.mu]], dtype=complex)


def adiabatic_scenario(scenario: PrecessionScenario):
    """Adiabatic scenario of the precession's sweep dphi over s in [0, 1], with drive generator dphi J3.

    H(phi0 + s dphi) = e^{-is dphi J3} H(phi0) e^{is dphi J3}, so U0 is
    closed-form and U(tau) equals :func:`exact_propagator` of the sweep
    traversed in duration tau (omega = dphi / tau): no transport or
    integration error.
    """
    from .adiabatic import AdiabaticScenario

    dphi_total = scenario.omega * scenario.duration

    def phi_of_s(ss: np.ndarray) -> np.ndarray:
        return (scenario.phi0 + dphi_total * np.asarray(ss, dtype=float))[:, None]

    ss = np.linspace(0.0, 1.0, 65)
    curve = Curve(times=ss, points=phi_of_s(ss), cyclic=False, evaluator=phi_of_s)
    return AdiabaticScenario(
        family=scenario.hamiltonian_family(),
        curve=curve,
        tau=scenario.duration,
        drive_generator=dphi_total * J3,
    )


def exact_propagator(scenario: PrecessionScenario, t: float) -> np.ndarray:
    """Exact full propagator U(t) = exp(-i omega t J3) exp(-i (H(phi0) - omega J3) t)."""
    hbar0 = hamiltonian(scenario.field_at(0.0))
    k = hbar0 - scenario.omega * J3
    return expm_skew(J3, scenario.omega * t) @ expm_skew(k, t)


def exact_invariant_family(scenario: PrecessionScenario) -> OperatorFamily:
    """An exact dynamical invariant: I(t) = e^{-i omega t J3} K e^{+i omega t J3}.

    K = H(phi0) - omega J3 commutes with the rotating-frame generator, so
    dI/dt = i [I, H(t)] holds identically and I(t) is periodic with the
    precession period.  The family is parameterized directly by time.
    """
    hbar0 = hamiltonian(scenario.field_at(0.0))
    k = hbar0 - scenario.omega * J3

    m_values = np.real(np.diag(J3))

    def evaluate(ts: np.ndarray) -> np.ndarray:
        r = np.exp(-1j * scenario.omega * ts[:, :1] * m_values)  # diagonal of exp(-i omega t J3)
        return r[:, :, None] * k * np.conj(r[:, None, :])

    return OperatorFamily(dim=3, evaluator=evaluate)
