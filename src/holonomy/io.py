"""File formats: RFC-4180 CSV with 17-significant-digit floats, JSON, curves.

Curve samples are CSV records (t, theta1 ... thetaN), with or without a
header row.  Generator sets for custom operator families are JSON:

    {"dimension": d, "generators": [[[ [re, im], ... ]]]}

one d x d matrix per generator, complex entries as [re, im] pairs.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, compress, cycle, groupby, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .frames import Curve


def fmt(value) -> str:
    """Render a cell: floats at 17 significant digits, blanks for None."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


_BLOCK_ROWS = 2048
# the one printf conversion of each cell type whose bytes equal fmt's; blanks take none
_CONVERSION = {float: "%.17g", np.float64: "%.17g", int: "%d", type(None): ""}


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows; each cell as ``fmt`` renders it, quoted by the csv module where needed.

    ``rows`` is read once, a block of rows at a time.  Within a block, a run
    of consecutive rows of two or more cells whose types are each exactly
    ``float``, ``np.float64``, ``int`` or ``None`` is rendered by one ``%``
    call; such cells never need quoting.  Any other run goes through
    ``csv.writer`` cell by cell.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(list(header))
        while block := list(islice(rows, _BLOCK_ROWS)):
            for types, run in groupby(block, key=lambda row: tuple(map(type, row))):
                run = list(run)
                conversions = [_CONVERSION.get(t) for t in types]
                if len(types) == 1 or None in conversions:  # csv quotes a lone blank cell
                    writer.writerows([fmt(v) for v in row] for row in run)
                    continue
                cells = compress(chain.from_iterable(run), cycle(conversions))  # drops the blanks
                fh.write(((",".join(conversions) + "\r\n") * len(run)) % tuple(cells))


def write_json(path: str | Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_curve_csv(path: str | Path, cyclic: bool = False) -> Curve:
    """Read curve samples (t, theta1 ... thetaN) from CSV; lines without a non-blank cell are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.replace(",", "").strip()]
    if not lines:
        raise ConfigError(f"curve file {path} is empty")
    try:
        float(next(csv.reader(lines[:1]))[0])
    except ValueError:
        lines = lines[1:]  # header row
    if len(lines) < 2:
        raise ConfigError(f"curve file {path} needs at least two samples")
    try:
        data = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:  # a non-numeric cell or rows of different lengths
        raise ConfigError(f"curve file {path} is not a table of numbers: {exc}") from None
    if data.shape[1] < 2:
        raise ConfigError("curve records need a time column and at least one parameter column")
    return Curve(times=data[:, 0], points=data[:, 1:], cyclic=cyclic)


def read_generators_json(path: str | Path) -> list[np.ndarray]:
    """Read constant Hermitian generators for a custom operator family."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"generators file {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "generators" not in payload:
        raise ConfigError("generators file must be an object with a 'generators' list")
    dim = payload.get("dimension")
    gens = []
    for idx, raw in enumerate(payload["generators"]):
        arr = np.asarray(raw, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError(f"generator {idx} must be a square matrix of [re, im] pairs")
        mat = arr[..., 0] + 1j * arr[..., 1]
        if dim is not None and mat.shape != (dim, dim):
            raise ConfigError(f"generator {idx} has shape {mat.shape}, expected ({dim}, {dim})")
        gens.append(mat)
    if not gens:
        raise ConfigError("generators file lists no generators")
    return gens
