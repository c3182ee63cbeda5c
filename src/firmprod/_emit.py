"""Deterministic file emission for the CLI.

Every emitted file starts with a comment header recording the tool version,
a hash of the run configuration, and the row count, and is written
atomically (temp file + rename). Numeric cells are formatted at 15
significant digits so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Mapping, Sequence
from pathlib import Path

from . import __version__


def config_hash(payload: Mapping[str, object]) -> str:
    """Short stable hash of a run configuration."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have.
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def header_lines(cfg_hash: str, rows: int) -> list[str]:
    return [
        f"# firmprod {__version__}",
        f"# config: {cfg_hash}",
        f"# rows: {rows}",
    ]


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def _csv_line(cells: Sequence[str]) -> str:
    """Cells joined by commas, quoted as a CSV reader needs.

    A cell holding a comma, quote, CR or LF is quoted, and so is a first
    cell starting with ``#`` (after leading whitespace), which a reader
    would otherwise take for a comment line.
    """
    line = ",".join(cells)
    if (line.count(",") == len(cells) - 1 and '"' not in line and "\n" not in line
            and "\r" not in line and not line.lstrip().startswith("#")):
        return line
    quoted = [_quote(cell) if any(ch in cell for ch in ',"\r\n') else cell for cell in cells]
    if cells and cells[0].lstrip().startswith("#"):
        quoted[0] = _quote(cells[0])
    return ",".join(quoted)


def write_table_csv(
    path: str | Path,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    cfg_hash: str,
) -> None:
    lines = header_lines(cfg_hash, len(rows))
    lines.append(_csv_line(columns))
    for row in rows:
        lines.append(_csv_line([format_cell(cell) for cell in row]))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_table_json(
    path: str | Path,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    cfg_hash: str,
) -> None:
    def jsonable(value: object) -> object:
        if isinstance(value, float):
            return float(format_cell(value))
        return value

    doc = {
        "tool": f"firmprod {__version__}",
        "config": cfg_hash,
        "rows": len(rows),
        "data": [
            {col: jsonable(cell) for col, cell in zip(columns, row)} for row in rows
        ],
    }
    atomic_write_text(Path(path), json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_table(
    path: str | Path,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    cfg_hash: str,
    fmt: str = "csv",
) -> Path:
    path = Path(path)
    if fmt == "csv":
        target = path.with_suffix(".csv")
        write_table_csv(target, columns, rows, cfg_hash)
    elif fmt == "json":
        target = path.with_suffix(".json")
        write_table_json(target, columns, rows, cfg_hash)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return target
