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
from typing import IO

import numpy as np

from ._emit import atomic_open
from .errors import RowError
from .ingest import CsvSchema, ParseReport, RowIssue, parse_firm_records
from .records import KEY_FIELDS, MONEY_FIELDS, OPTIONAL_FIELDS, Columns, Dataset

#: Names the stored layout; part of every key.
FORMAT = "firmprod-parse-cache/2"
DIRECTORY = ".firmprod-cache"

#: The modules whose source decides what a parse gives and how it is stored.
_SOURCES = ("ingest.py", "records.py", "errors.py", "_parse_cache.py")

#: Stored array -> its dtype. ``text`` is the UTF-8 JSON document
#: ``{"firm_id": [...], "names": [...], "skipped": [[line, reason], ...]}``;
#: ``year`` to ``codes`` are the arrays of :class:`Columns`, stored as they are.
_LAYOUT = {
    "key": np.uint8,
    "text": np.uint8,
    "year": np.int64,
    "workers": np.int64,
    "money": np.float64,      # one row per MONEY_FIELDS entry
    "present": np.bool_,      # one row per OPTIONAL_FIELDS entry
    "codes": np.int32,        # one row per KEY_FIELDS entry, into names
}

#: What a damaged or foreign file can raise while it is read: a damaged array
#: header can ask for more than memory, a JSON value of the wrong type raises
#: TypeError, and bad UTF-8 or JSON raises ValueError.
_UNREADABLE = (OSError, ValueError, EOFError, KeyError, TypeError, zipfile.BadZipFile,
               MemoryError)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    valid file holds ``key``. The key is read first, so a stale file costs one array."""
    try:
        # Opened here, not by np.load, which leaks the file if the zip is damaged.
        with open(path, "rb") as fh:
            stored = np.load(fh, allow_pickle=False)
            if (not isinstance(stored, np.lib.npyio.NpzFile)
                    or sorted(stored.files) != sorted(_LAYOUT)):
                return None
            arrays = {"key": stored["key"]}
            if arrays["key"].tobytes() != key.encode("ascii"):
                return None
            arrays.update((name, stored[name]) for name in _LAYOUT if name != "key")
        if any(arrays[name].dtype != np.dtype(dtype) for name, dtype in _LAYOUT.items()):
            return None
        doc = json.loads(arrays["text"].tobytes().decode("utf-8"))
        firm_id, names, skipped = doc["firm_id"], doc["names"], doc["skipped"]
        if not all(type(texts) is list for texts in (firm_id, names, skipped)):
            return None
        issues = tuple(RowIssue(line, reason) for line, reason in skipped)
        "".join([*firm_id, *names, *(issue.reason for issue in issues)])  # each a str
    except _UNREADABLE:
        return None
    n = len(firm_id)
    shapes = {"year": (n,), "workers": (n,), "money": (len(MONEY_FIELDS), n),
              "present": (len(OPTIONAL_FIELDS), n), "codes": (len(KEY_FIELDS), n)}
    codes = arrays["codes"]
    if (any(arrays[name].shape != shape for name, shape in shapes.items())
            or any(type(issue.line) is not int for issue in issues)  # not a bool either
            or (n and not (0 <= codes.min() and codes.max() < len(names)))):
        return None
    ids = np.empty(n, dtype=object)
    ids[:] = firm_id
    columns = Columns(ids, arrays["year"], arrays["workers"], arrays["money"],
                      arrays["present"], codes, names)
    return columns, issues


def _store(path: Path, key: str, report: ParseReport) -> None:
    """Store ``report`` under ``key``; a directory that cannot be written is left as it was."""
    columns = report.dataset.columns  # a parse's dataset holds every row of its columns
    text = json.dumps({"firm_id": columns.firm_id.tolist(), "names": columns.names.tolist(),
                       "skipped": [[issue.line, issue.reason] for issue in report.skipped]},
                      separators=(",", ":")).encode("utf-8")
    with suppress(OSError), atomic_open(path, binary=True) as fh:
        _savez(fh, key=np.frombuffer(key.encode("ascii"), dtype=np.uint8),
               text=np.frombuffer(text, dtype=np.uint8), year=columns.year,
               workers=columns.workers, money=columns.money, present=columns.present,
               codes=columns.codes)


def _savez(file: IO[bytes], **arrays: np.ndarray) -> None:
    """Write the archive ``np.savez(file, **arrays)`` writes, with the bytes of
    each C- or F-ordered array handed to its zip member as a view, where
    np.savez copies them: a parse's ``money`` is F-ordered, 12.8 MB at 200k rows."""
    with zipfile.ZipFile(file, "w") as archive:
        for name, array in arrays.items():
            header = np.lib.format.header_data_from_array_1_0(array)
            # An F-ordered array is stored as np.savez stores it: its
            # transpose's bytes, with fortran_order in the header.
            data = np.ascontiguousarray(array.T if header["fortran_order"] else array)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(data.reshape(-1).view(np.uint8))
