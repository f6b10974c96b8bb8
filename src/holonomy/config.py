"""Flat key-value run configuration with a fail-fast schema.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Unknown keys are errors.  Example:

    system = quadrupole
    coupling = 1.0
    rho = 1.0
    theta = tycko          # or a numeric polar angle in radians
    phi0 = 0.0
    omega = 0.125663706143591730
    phi_final = 6.2831853071795865
    grid = 800
    method = magnus4
    levels = 1,2
    seed = 12345
    gauge_count = 100

``theta = tycko`` selects arccos(1/sqrt(3)).  Exactly one of ``phi_final``
or ``duration`` must be given for the quadrupole system; the values of the
quadrupole keys are checked by ``PrecessionScenario``, which every subcommand
builds before it does any work.  Custom families
replace the field keys with ``generators_file`` and ``curve_file`` (formats
documented in :mod:`holonomy.io`).  The ``workers`` key of older configs is
still accepted and must be >= 1; runs are sequential and it has no effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .quadrupole import TYCKO_THETA, PrecessionScenario

METHOD_ALIASES = {"midpoint": "midpoint_exp", "midpoint_exp": "midpoint_exp", "magnus4": "magnus4"}

_COMMON_KEYS = {"system", "grid", "method", "levels", "seed", "gauge_count", "workers"}
_QUADRUPOLE_KEYS = {"coupling", "rho", "theta", "phi0", "omega", "phi_final", "duration"}
_CUSTOM_KEYS = {"generators_file", "curve_file", "cyclic"}
_ALL_KEYS = _COMMON_KEYS | _QUADRUPOLE_KEYS | _CUSTOM_KEYS

MIN_GRID = 16
MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class ScenarioConfig:
    system: str
    grid: int = 800
    method: str = "magnus4"
    levels: tuple[int, ...] | None = None  # 1-based labels; None = all
    seed: int = 0
    gauge_count: int = 100
    # quadrupole fields
    coupling: float = 1.0
    rho: float = 1.0
    theta: float | None = None
    phi0: float = 0.0
    omega: float | None = None
    phi_final: float | None = None
    duration: float | None = None
    # custom-family fields
    generators_file: str | None = None
    curve_file: str | None = None
    cyclic: bool = False
    raw: dict = field(default_factory=dict)

    def precession_scenario(self) -> PrecessionScenario:
        if self.system != "quadrupole":
            raise ConfigError("not a quadrupole configuration")
        return PrecessionScenario(
            theta=self.theta,
            phi0=self.phi0,
            omega=self.omega,
            duration=self.duration,
            phi_final=self.phi_final,
            coupling=self.coupling,
            rho=self.rho,
        )


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = body.split("=", 1)
        key = key.strip().lower()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _as_float(pairs: dict[str, str], key: str, default: float | None = None) -> float | None:
    if key not in pairs:
        return default
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {pairs[key]!r}") from None


def _as_int(pairs: dict[str, str], key: str, default: int) -> int:
    if key not in pairs:
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {pairs[key]!r}") from None


def _checked_grid(grid: int) -> int:
    if grid < MIN_GRID:
        raise ConfigError(f"grid must be >= {MIN_GRID}, got {grid}")
    return grid


def _checked_method(method: str) -> str:
    if method not in METHOD_ALIASES:
        raise ConfigError(f"method must be one of {sorted(set(METHOD_ALIASES))}, got {method!r}")
    return METHOD_ALIASES[method]


def _checked_seed(seed: int) -> int:
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


_OVERRIDE_CHECKS = {"grid": _checked_grid, "method": _checked_method, "seed": _checked_seed}


def with_overrides(config: ScenarioConfig, **values) -> ScenarioConfig:
    """``config`` with the given grid, method or seed, each checked as its file key is; None keeps the file's.

    ``raw`` keeps the file's pairs.
    """
    return replace(config, **{key: _OVERRIDE_CHECKS[key](value) for key, value in values.items() if value is not None})


def parse_config_text(text: str) -> ScenarioConfig:
    pairs = _parse_pairs(text)
    unknown = set(pairs) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(sorted(unknown))}")

    system = pairs.get("system")
    if system not in ("quadrupole", "custom-family"):
        raise ConfigError("key 'system' must be 'quadrupole' or 'custom-family'")

    grid = _checked_grid(_as_int(pairs, "grid", 800))
    method = _checked_method(pairs.get("method", "magnus4"))

    levels: tuple[int, ...] | None
    levels_raw = pairs.get("levels", "all")
    if levels_raw == "all":
        levels = None
    else:
        try:
            levels = tuple(int(tok) for tok in levels_raw.split(","))
        except ValueError:
            raise ConfigError(f"levels must be 'all' or comma-separated integers, got {levels_raw!r}") from None
        if any(l < 1 for l in levels):
            raise ConfigError("level labels are 1-based")
        if len(set(levels)) != len(levels):
            raise ConfigError(f"levels must not repeat a label, got {levels_raw!r}")

    seed = _checked_seed(_as_int(pairs, "seed", 0))

    gauge_count = _as_int(pairs, "gauge_count", 100)
    if gauge_count < 1:
        raise ConfigError("gauge_count must be >= 1")
    if _as_int(pairs, "workers", 1) < 1:
        raise ConfigError("workers must be >= 1")

    common = dict(
        system=system, grid=grid, method=method, levels=levels,
        seed=seed, gauge_count=gauge_count, raw=dict(pairs),
    )

    if system == "quadrupole":
        missing = {"theta", "omega"} - set(pairs)
        if missing:
            raise ConfigError(f"quadrupole configuration is missing keys: {', '.join(sorted(missing))}")
        forbidden = _CUSTOM_KEYS & set(pairs)
        if forbidden:
            raise ConfigError(f"keys {sorted(forbidden)} are not valid for system=quadrupole")
        theta_raw = pairs["theta"].lower()
        theta = TYCKO_THETA if theta_raw == "tycko" else _as_float(pairs, "theta")
        phi_final = _as_float(pairs, "phi_final")
        duration = _as_float(pairs, "duration")
        if (phi_final is None) == (duration is None):
            raise ConfigError("specify exactly one of phi_final or duration")
        omega = _as_float(pairs, "omega")
        return ScenarioConfig(
            **common,
            coupling=_as_float(pairs, "coupling", 1.0),
            rho=_as_float(pairs, "rho", 1.0),
            theta=theta,
            phi0=_as_float(pairs, "phi0", 0.0),
            omega=omega,
            phi_final=phi_final,
            duration=duration,
        )

    missing = {"generators_file", "curve_file"} - set(pairs)
    if missing:
        raise ConfigError(f"custom-family configuration is missing keys: {', '.join(sorted(missing))}")
    forbidden = _QUADRUPOLE_KEYS & set(pairs)
    if forbidden:
        raise ConfigError(f"keys {sorted(forbidden)} are not valid for system=custom-family")
    cyclic_raw = pairs.get("cyclic", "false").lower()
    if cyclic_raw not in ("true", "false"):
        raise ConfigError("cyclic must be 'true' or 'false'")
    return ScenarioConfig(
        **common,
        generators_file=pairs["generators_file"],
        curve_file=pairs["curve_file"],
        cyclic=cyclic_raw == "true",
    )


def parse_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"))
