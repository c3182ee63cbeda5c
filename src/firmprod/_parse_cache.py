"""Content-keyed cache of parsed input files, used by the CLI's parsing commands.

:func:`parse` is the one entry point: it gives the parse of an input file,
stored or fresh.

The parse of a regular file is stored in a ``.firmprod-cache/`` directory
beside the file (beside the file a symlink points to), one ``.npz`` file per
input name and parse settings. Its key covers the sha256 of the input bytes,
the parse settings of the schema (columns, delimiter, year range), the sha256
of the source of each module that decides a parse or its stored form, the
Python version and :data:`FORMAT`. A command whose key matches the stored
one rebuilds the :class:`~firmprod.ingest.ParseReport` from the stored
columns instead of parsing; on any other outcome it parses and replaces the
file. The parse reads the file's bytes through a reader that hashes them,
and is stored only if those bytes are the bytes of the key. Deleting the
directory is always safe.

A stored file is loaded without pickles and checked for structure before
use. A file that fails a check, or cannot be read or written, costs a parse
and nothing else: no error and no output.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat
import sys
import zipfile
from contextlib import suppress
from pathlib import Path

import numpy as np

from ._emit import atomic_open
from .errors import RowError
from .ingest import CsvSchema, ParseReport, RowIssue, parse_firm_records
from .records import KEY_FIELDS, MONEY_FIELDS, OPTIONAL_FIELDS, Columns, Dataset

#: Names the stored layout; part of every key.
FORMAT = "firmprod-parse-cache/1"
DIRECTORY = ".firmprod-cache"

#: The modules whose source decides what a parse gives and how it is stored.
_SOURCES = ("ingest.py", "records.py", "errors.py", "_parse_cache.py")

#: Stored array -> its dtype. Text is UTF-8 bytes plus int64 offsets, because a
#: fixed-width string array would drop a trailing NUL.
_LAYOUT = {
    "key": np.uint8,
    "firm_id": np.uint8,
    "firm_id_offsets": np.int64,
    "year": np.int64,
    "workers": np.int64,
    "money": np.float64,      # one row per MONEY_FIELDS entry
    "present": np.bool_,      # one row per OPTIONAL_FIELDS entry
    "codes": np.int32,        # one row per KEY_FIELDS entry, into names
    "names": np.uint8,
    "names_offsets": np.int64,
    "skipped_line": np.int64,
    "skipped_reason": np.uint8,
    "skipped_reason_offsets": np.int64,
}

#: What a damaged or foreign file can raise while it is read.
_UNREADABLE = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile,
               MemoryError)  # a damaged array header can ask for more than memory


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``texts``, joined, and the offsets that split them."""
    data = "".join(texts).encode("utf-8")
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    if lengths.sum() != len(data):  # not ASCII: count bytes, not characters
        lengths = np.array([len(text.encode("utf-8")) for text in texts], dtype=np.int64)
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return np.frombuffer(data, dtype=np.uint8), offsets


def _decode(buffer: np.ndarray, offsets: np.ndarray) -> list[str] | None:
    """The texts :func:`_encode` stored, or None if the offsets do not split ``buffer``."""
    if (buffer.ndim != 1 or offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0
            or offsets[-1] != len(buffer) or (np.diff(offsets) < 0).any()):
        return None
    data = buffer.tobytes()
    text = data.decode("utf-8")
    bounds = offsets.tolist()
    if len(text) == len(data):  # ASCII: byte offsets are character offsets
        return [text[a:b] for a, b in zip(bounds, bounds[1:])]
    return [data[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]


class _HashingReader(io.RawIOBase):
    """Reads a file's bytes and feeds each one read to a sha256; named by its path."""

    def __init__(self, path: str):
        self._file = open(path, "rb", buffering=0)
        self.name = path
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        n = self._file.readinto(buffer)
        if n:
            self.sha256.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def parse(input_path: str, schema: CsvSchema, strict: bool) -> ParseReport | None:
    """The parse of ``input_path`` under ``schema``, stored or fresh; None for an
    input that is not a readable regular file, which the caller parses itself.

    With ``strict``, a stored skipped row raises the :class:`RowError` that a
    strict parse raises: the one for the first row it skipped.
    """
    try:
        if not stat.S_ISREG(os.stat(input_path).st_mode):  # before open(): a FIFO blocks
            return None
        with _HashingReader(input_path) as reader:
            while reader.read(1 << 20):
                pass
        here = Path(__file__).parent
        sources = {name: _sha256((here / name).read_bytes()) for name in _SOURCES}
    except OSError:
        return None
    digest = reader.sha256.hexdigest()
    settings = {"columns": sorted(schema.columns.items()), "delimiter": schema.delimiter,
                "year_range": list(schema.year_range)}
    key = _sha256(json.dumps(
        {"format": FORMAT, "input": digest, "settings": settings, "sources": sources,
         "python": sys.version},
        sort_keys=True).encode("utf-8"))
    real = Path(os.path.realpath(input_path))
    name = f"{real.name}.{_sha256(json.dumps(settings).encode('utf-8'))[:16]}.npz"
    path = real.parent / DIRECTORY / name

    stored = _load(path, key)
    if stored is None:
        with _HashingReader(input_path) as reader:
            report = parse_firm_records(reader, schema, strict=strict)
        if reader.sha256.hexdigest() == digest:  # else the file changed since it was hashed
            _store(path, key, report)
        return report
    columns, skipped = stored
    if strict and skipped:
        raise RowError(skipped[0].line, skipped[0].reason)
    dataset = Dataset._of(columns, None, schema.currency_unit, (input_path,))
    return ParseReport(dataset=dataset, skipped=skipped)


def _load(path: Path, key: str) -> tuple[Columns, tuple[RowIssue, ...]] | None:
    """The columns and skipped rows stored at ``path``, or None (a miss) unless a
    valid file holds ``key``."""
    try:
        # Opened here, not by np.load, which leaks the file if the zip is damaged.
        with open(path, "rb") as fh:
            stored = np.load(fh, allow_pickle=False)
            if (not isinstance(stored, np.lib.npyio.NpzFile)
                    or sorted(stored.files) != sorted(_LAYOUT)):
                return None
            arrays = {name: stored[name] for name in _LAYOUT}
        if any(arrays[name].dtype != np.dtype(dtype) for name, dtype in _LAYOUT.items()):
            return None
        if arrays["key"].ndim != 1 or arrays["key"].tobytes() != key.encode("ascii"):
            return None
        year, skipped_line = arrays["year"], arrays["skipped_line"]
        if year.ndim != 1 or skipped_line.ndim != 1:
            return None
        n = len(year)
        shapes = {"workers": (n,), "money": (len(MONEY_FIELDS), n),
                  "present": (len(OPTIONAL_FIELDS), n), "codes": (len(KEY_FIELDS), n),
                  "firm_id_offsets": (n + 1,),
                  "skipped_reason_offsets": (len(skipped_line) + 1,)}
        if any(arrays[name].shape != shape for name, shape in shapes.items()):
            return None
        firm_id = _decode(arrays["firm_id"], arrays["firm_id_offsets"])
        names = _decode(arrays["names"], arrays["names_offsets"])
        reasons = _decode(arrays["skipped_reason"], arrays["skipped_reason_offsets"])
    except _UNREADABLE:  # UnicodeDecodeError is a ValueError
        return None
    codes = arrays["codes"]
    if (firm_id is None or names is None or reasons is None
            or (n and not (0 <= codes.min() and codes.max() < len(names)))):
        return None
    ids = np.empty(n, dtype=object)
    ids[:] = firm_id
    columns = Columns(ids, year, arrays["workers"], dict(zip(MONEY_FIELDS, arrays["money"])),
                      dict(zip(OPTIONAL_FIELDS, arrays["present"])),
                      dict(zip(KEY_FIELDS, codes)), names)
    return columns, tuple(map(RowIssue, skipped_line.tolist(), reasons))


def _store(path: Path, key: str, report: ParseReport) -> None:
    """Store ``report`` under ``key``; a directory that cannot be written is left as it was."""
    columns = report.dataset.columns  # a parse's dataset holds every row of its columns
    arrays = {"key": np.frombuffer(key.encode("ascii"), dtype=np.uint8)}
    arrays["firm_id"], arrays["firm_id_offsets"] = _encode(columns.firm_id.tolist())
    arrays["names"], arrays["names_offsets"] = _encode(columns.names.tolist())
    arrays["skipped_reason"], arrays["skipped_reason_offsets"] = _encode(
        [issue.reason for issue in report.skipped])
    arrays.update(
        year=columns.year, workers=columns.workers,
        money=np.stack([columns.money[name] for name in MONEY_FIELDS]),
        present=np.stack([columns.present[name] for name in OPTIONAL_FIELDS]),
        codes=np.stack([columns.codes[name] for name in KEY_FIELDS]),
        skipped_line=np.array([issue.line for issue in report.skipped], dtype=np.int64),
    )
    with suppress(OSError), atomic_open(path, binary=True) as fh:
        np.savez(fh, **arrays)
