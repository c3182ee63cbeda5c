"""The parse cache: a later command on the same bytes and schema loads the stored parse."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import firmprod
from conftest import SRC, child_env
from firmprod import _emit, _parse_cache, cli
from firmprod._parse_cache import DIRECTORY
from firmprod.cli import main
from firmprod.records import CANONICAL_COLUMNS, KEY_FIELDS, MONEY_FIELDS, OPTIONAL_FIELDS

HEADER = ",".join(CANONICAL_COLUMNS)

#: Mapped headers of the vendor layout, one per record field.
VENDOR_HEADERS = {field: f"Col_{field.title().replace('_', '')}" for field in CANONICAL_COLUMNS}
VENDOR_SCHEMA = {"columns": VENDOR_HEADERS, "delimiter": "\t", "currency_unit": "kEUR",
                 "year_range": [1995, 2005]}

MACRO = [{"country": country, "year": year, "labor_share": 0.5, "gdp": 1.0e6}
         for country in ("JP", "US") for year in (2001, 2002, 2003)]


def _cells(i: int) -> list[str]:
    """The canonical cells of a valid row; rows of one firm share a third of ``i``."""
    revenue = 100.0 + (i * 37) % 500 + i / 7
    cogs = revenue * (0.3 + (i % 5) / 10)
    return [f"F{i // 3:04d}", str(2001 + i % 3), "JP" if i % 3 else "US", f"s{i % 4}",
            "manufacturing" if i % 2 else "non_manufacturing", repr(revenue), repr(cogs),
            str(3 + (i * 7) % 90), repr((revenue - cogs) * 0.5), repr(10.0 + (i * 13) % 200),
            "" if i % 11 == 0 else repr((revenue - cogs) * 0.2), "1.5", "2.5", "3.5"]


#: Rows each of which the parser must skip or treat with care.
HOSTILE_ROWS = [
    "# a comment line", "", "   ", "  # an indented comment",
    '"Ünïcode, Co.",2001,JP,s1,manufacturing,500,100,12,100,50,,,,',
    '"multi\nline",2002,JP,s2,manufacturing,400,100,10,100,50,,,,',
    '"#hash",2003,US,s2,non_manufacturing,300,100,8,90,40,,,,',
    "BAD1,2001,JP,s1,manufacturing,100,100,approx 5,1,1,,,,",
    "BAD2,2001,JP,s1,manufacturing,100,-5,5,1,1,,,,",
    "BAD3,2001,JP,,manufacturing,100,5,5,1,1,,,,",
    "BAD4,1850,JP,s1,manufacturing,100,5,5,1,1,,,,",
    "BAD5,2001,JP,s1,mining,100,5,5,1,1,,,,",
    "SHORT,2002,US,s3,manufacturing,120,60,6",
    "PAD,2002,US,s3,manufacturing, 130 , 60 , 7 ,,,,,,",
    "EXTRA,2002,US,s3,manufacturing,140,60,8,,,,,,,extra,cells",
    "F0000,2001,US,s0,non_manufacturing,100,10,5,,,,,,",  # the key of the first row again
    "NAN,2001,US,s0,non_manufacturing,nan,10,5,,,,,,",
    "ZERO,2003,JP,s0,manufacturing,100,10,0,,,,,,",
]


def hostile_csv() -> str:
    """A canonical CSV with a BOM, comments, bad, short, padded and duplicate rows."""
    rows = [",".join(_cells(i)) for i in range(120)]
    rows[10:10] = HOSTILE_ROWS
    return "﻿" + HEADER + "\n" + "\n".join(rows) + "\n"


def vendor_tsv() -> str:
    """A tab-separated file in the vendor layout, with a comment and bad rows."""
    rows = ["\t".join(VENDOR_HEADERS[f] for f in CANONICAL_COLUMNS)]
    rows += ["\t".join(_cells(i)) for i in range(90)]
    rows[40:40] = ["# checkpoint", "\t".join(_cells(200)[:5] + ["x", "1", "2"]),
                   "\t".join(_cells(201)[:1] + ["1850"] + _cells(201)[2:])]
    return "# vendor extract\n" + "\n".join(rows) + "\n"


INPUTS = {
    "hostile": ("in.csv", hostile_csv, []),
    "vendor": ("in.tsv", vendor_tsv, ["--schema", "schema.json"]),
}

COMMANDS = {
    "ingest": [],
    "measures": ["--basis", "av-share", "--macro", "macro.json"],
    "fit-production": [],
    "fit-pareto": ["--level", "sector"],
    "pareto-series": [],
    "prod-series": [],
    "size-sweep": ["--thresholds", "0,10,50"],
}


@pytest.fixture
def parses(monkeypatch) -> list:
    """The sources of the parses the CLI runs; a cache hit runs none."""
    calls = []
    parse = cli.parse_firm_records

    def counting(source, *args, **kwargs):
        calls.append(source)
        return parse(source, *args, **kwargs)

    monkeypatch.setattr(cli, "parse_firm_records", counting)
    monkeypatch.setattr(_parse_cache, "parse_firm_records", counting)
    return calls


@pytest.fixture
def workdir(tmp_path, monkeypatch) -> Path:
    monkeypatch.chdir(tmp_path)
    Path("macro.json").write_text(json.dumps(MACRO))
    Path("schema.json").write_text(json.dumps(VENDOR_SCHEMA))
    return tmp_path


def write_input(name: str) -> list[str]:
    """Write one of :data:`INPUTS`; the arguments that read it."""
    path, content, extra = INPUTS[name]
    Path(path).write_bytes(content().encode("utf-8"))
    return ["--input", path, *extra]


def invoke(*args: str) -> tuple:
    """Exit code, stdout, stderr and the bytes of every table of one in-process run."""
    out = Path("out")
    result = CliRunner().invoke(main, [*args, "--out", "out"])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    for p in out.iterdir() if out.exists() else ():
        p.unlink()
    return result.exit_code, result.stdout, result.stderr, files


def cache_files() -> list[Path]:
    return sorted(Path(DIRECTORY).iterdir()) if Path(DIRECTORY).exists() else []


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("source", list(INPUTS))
def test_a_hit_gives_the_bytes_of_a_parse(workdir, parses, source, command, fmt, strict):
    args = [command, *write_input(source), *COMMANDS[command], "--format", fmt]
    args += ["--strict"] * strict
    cold = invoke(*args)
    assert len(parses) == 1
    if not cache_files():  # a strict parse that failed stores nothing
        assert strict and cold[0] == 3
        invoke("ingest", *write_input(source))
    assert len(cache_files()) == 1
    parses.clear()
    warm = invoke(*args)
    assert parses == []
    assert warm == cold
    assert cold[0] == (3 if strict else 0), cold[2]  # both files hold bad rows


def _columns_of(report) -> dict:
    columns = report.dataset.columns
    fields = {name: columns.column(name).tolist() for name in CANONICAL_COLUMNS}
    fields.update({f"{name}?": columns.present_mask(name).tolist() for name in OPTIONAL_FIELDS})
    fields.update({f"{name}#": columns.column_codes(name).tolist() for name in KEY_FIELDS})
    fields["names"] = columns.names.tolist()
    fields["report"] = (report.skipped, report.dataset.currency_unit,
                        report.dataset.provenance, len(report.dataset))
    return fields


def test_firm_ids_round_trip_exactly(workdir, parses):
    ids = ["Ünïcode 株式会社", "comma, inc", "line\nbreak", "trailing nul\x00", "tab\tin",
           'quote "q"', "#hash", "\x00"]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CANONICAL_COLUMNS)
    for i, firm_id in enumerate(ids):
        writer.writerow([firm_id, *_cells(i)[1:]])
    Path("ids.csv").write_text(text.getvalue(), encoding="utf-8")

    cold = cli._load("ids.csv", None, strict=False)
    warm = cli._load("ids.csv", None, strict=False)
    assert len(parses) == 1
    assert warm.dataset.column("firm_id").tolist() == ids
    assert _columns_of(warm) == _columns_of(cold)


def test_the_cache_stores_and_loads_the_arrays_of_the_columns(workdir, parses, monkeypatch):
    """A miss hands np.savez the parse's own money, present and codes arrays,
    and a hit loads arrays of the same dtype, shape and values."""
    write_input("hostile")
    saved = {}
    savez = np.savez

    def recording(file, **arrays):
        saved.update(arrays)
        savez(file, **arrays)

    monkeypatch.setattr(np, "savez", recording)
    parsed = cli._load("in.csv", None, strict=False).dataset.columns
    loaded = cli._load("in.csv", None, strict=False).dataset.columns
    assert len(parses) == 1
    shapes = {"money": (len(MONEY_FIELDS), len(parsed)),
              "present": (len(OPTIONAL_FIELDS), len(parsed)),
              "codes": (len(KEY_FIELDS), len(parsed))}
    for name, shape in shapes.items():
        stored, back = getattr(parsed, name), getattr(loaded, name)
        assert saved[name] is stored
        assert stored.dtype == back.dtype == _parse_cache._LAYOUT[name]
        assert stored.shape == back.shape == shape
        assert np.array_equal(stored, back)


def test_a_strict_hit_exits_3_with_the_line_of_a_strict_parse(tmp_path):
    (tmp_path / "in.csv").write_text(hostile_csv(), encoding="utf-8")

    def run(*args: str) -> subprocess.CompletedProcess:
        return _run_process(tmp_path, "measures", "--input", "in.csv", "--out", "out", *args)

    parse = run("--strict")
    assert not (tmp_path / DIRECTORY).exists()
    assert run().returncode == 0  # stores the lenient parse, its skipped rows included
    hit = run("--strict")
    assert (hit.returncode, hit.stdout, hit.stderr) == (parse.returncode, parse.stdout,
                                                         parse.stderr)
    assert hit.returncode == 3
    assert hit.stderr.startswith(b"error (data): line 20: workers: ")  # the first bad row


def _damage_truncated(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _damage_flipped(path: Path) -> None:
    data = bytearray(path.read_bytes())
    for i in range(len(data) // 3, len(data) // 3 + 64):
        data[i] ^= 0x5A
    path.write_bytes(bytes(data))


def _write(path: Path, save, *args, **arrays) -> None:
    buffer = io.BytesIO()
    save(buffer, *args, **arrays)
    path.write_bytes(buffer.getvalue())


def _resave(path: Path, change) -> None:
    """Store the arrays of a valid file again after ``change`` edits them; the key stays."""
    with np.load(path) as stored:
        arrays = {name: stored[name] for name in stored.files}
    change(arrays)
    _write(path, np.savez, **arrays)


def _resave_text(path: Path, change) -> None:
    """Store a valid file again after ``change`` edits its JSON document."""
    def edit(arrays: dict) -> None:
        doc = json.loads(arrays["text"].tobytes())
        change(doc)
        arrays["text"] = np.frombuffer(json.dumps(doc).encode("utf-8"), dtype=np.uint8)
    _resave(path, edit)


def _names_in(arrays: dict) -> int:
    return len(json.loads(arrays["text"].tobytes())["names"])


def _set_in_text(*at, value):
    """A damage that sets the value found by the keys and indices ``at`` in the
    JSON document of a valid file."""
    *parents, last = at

    def change(doc: dict) -> None:
        for step in parents:
            doc = doc[step]
        doc[last] = value
    return lambda path: _resave_text(path, change)


DAMAGE = {
    "empty": lambda path: path.write_bytes(b""),
    "truncated": _damage_truncated,
    "flipped": _damage_flipped,
    "foreign-npy": lambda path: _write(path, np.save, np.arange(10)),
    "foreign-npz": lambda path: _write(path, np.savez, year=np.arange(3)),
    "pickled": lambda path: _resave(path, lambda a: a.update(
        text=np.array([{"not": "data"}], dtype=object))),
    "extra-array": lambda path: _resave(path, lambda a: a.update(extra=np.zeros(1))),
    "wrong-dtype": lambda path: _resave(path, lambda a: a.update(
        year=a["year"].astype(np.int32))),
    "big-endian": lambda path: _resave(path, lambda a: a.update(
        year=a["year"].astype(">i8"))),
    "short-column": lambda path: _resave(path, lambda a: a.update(workers=a["workers"][1:])),
    "code-out-of-range": lambda path: _resave(path, lambda a: a.update(
        codes=a["codes"] + _names_in(a))),
    "not-utf8": lambda path: _resave(path, lambda a: a.update(
        text=np.full_like(a["text"], 0xFF))),
    "not-json": lambda path: _resave(path, lambda a: a.update(
        text=np.frombuffer(b"not json", dtype=np.uint8))),
    "not-an-object": lambda path: _resave(path, lambda a: a.update(
        text=np.frombuffer(b"[[], [], []]", dtype=np.uint8))),
    "short-id-list": lambda path: _resave_text(path, lambda doc: doc["firm_id"].pop()),
    "id-not-text": _set_in_text("firm_id", 0, value=7),
    "name-not-text": _set_in_text("names", 0, value=None),
    "ids-not-a-list": lambda path: _resave_text(path, lambda doc: doc.update(
        firm_id="x" * len(doc["firm_id"]))),
    "names-not-a-list": lambda path: _resave_text(path, lambda doc: doc.update(
        names="".join(doc["names"]))),
    "skips-not-a-list": _set_in_text("skipped", value=""),
    "reason-not-text": _set_in_text("skipped", 0, 1, value=["why"]),
    "line-is-text": _set_in_text("skipped", 0, 0, value="20"),
    "line-is-bool": _set_in_text("skipped", 0, 0, value=True),
    "skip-not-a-pair": _set_in_text("skipped", 0, value=[20]),
    "directory": lambda path: (path.unlink(), path.mkdir()),
}
# Each stored array missing, and each with a dtype it is never stored with.
for _name in _parse_cache._LAYOUT:
    DAMAGE[f"missing-{_name}"] = lambda path, name=_name: _resave(
        path, lambda a: a.pop(name))
    DAMAGE[f"float32-{_name}"] = lambda path, name=_name: _resave(
        path, lambda a: a.update({name: a[name].astype(np.float32)}))


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_a_damaged_or_foreign_cache_file_is_a_miss(workdir, parses, damage):
    args = ["measures", *write_input("hostile")]
    clean = invoke(*args)
    (path,) = cache_files()
    DAMAGE[damage](path)
    parses.clear()
    assert invoke(*args) == clean
    assert len(parses) == 1
    if path.is_file():  # the miss wrote a good file, which the next command loads
        parses.clear()
        assert invoke(*args) == clean
        assert parses == []


def test_a_file_stored_again_unchanged_is_a_hit(workdir, parses):
    """The damage helpers change a file only where a case asks them to."""
    args = ["measures", *write_input("hostile")]
    clean = invoke(*args)
    (path,) = cache_files()
    _resave_text(path, lambda doc: None)
    parses.clear()
    assert invoke(*args) == clean
    assert parses == []


def test_a_stale_file_is_a_miss_after_reading_only_its_key(workdir, parses, monkeypatch):
    write_input("hostile")
    cli._load("in.csv", None, strict=False)
    Path("in.csv").write_text(hostile_csv().replace("F0000", "G0000"), encoding="utf-8")
    reads = []
    getitem = np.lib.npyio.NpzFile.__getitem__

    def counting(self, name):
        reads.append(name)
        return getitem(self, name)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
    parses.clear()
    cli._load("in.csv", None, strict=False)
    assert (reads, len(parses)) == (["key"], 1)
    reads.clear()
    parses.clear()
    cli._load("in.csv", None, strict=False)  # a hit reads every array
    assert (sorted(reads), parses) == (sorted(_parse_cache._LAYOUT), [])


def _first_layout(arrays: dict) -> None:
    """Turn the arrays of a valid file into the 13 arrays of firmprod-parse-cache/1,
    whose texts were UTF-8 bytes plus int64 offsets; the key stays."""
    doc = json.loads(arrays.pop("text").tobytes())
    texts = {"firm_id": doc["firm_id"], "names": doc["names"],
             "skipped_reason": [reason for _, reason in doc["skipped"]]}
    for name, strings in texts.items():
        data = [text.encode("utf-8") for text in strings]
        arrays[name] = np.frombuffer(b"".join(data), dtype=np.uint8)
        arrays[f"{name}_offsets"] = np.cumsum([0, *map(len, data)], dtype=np.int64)
    arrays["skipped_line"] = np.array([line for line, _ in doc["skipped"]], dtype=np.int64)


def test_a_file_of_the_first_layout_is_a_miss_and_is_replaced(workdir, parses):
    args = ["measures", *write_input("hostile")]
    clean = invoke(*args)
    (path,) = cache_files()
    _resave(path, _first_layout)
    with np.load(path) as stored:
        assert len(stored.files) == 13
    parses.clear()
    assert invoke(*args) == clean
    assert len(parses) == 1
    with np.load(path) as stored:
        assert sorted(stored.files) == sorted(_parse_cache._LAYOUT)
    parses.clear()
    assert invoke(*args) == clean
    assert parses == []


def test_a_file_that_changes_while_it_is_parsed_is_not_stored(workdir, monkeypatch):
    args = ["ingest", *write_input("hostile")]
    parse = _parse_cache.parse_firm_records

    def edit_then_parse(source, *args, **kwargs):
        Path("in.csv").write_text(hostile_csv().replace("\nF0000,2001,", "\nF0000,2004,", 1),
                                  encoding="utf-8")
        return parse(source, *args, **kwargs)

    monkeypatch.setattr(_parse_cache, "parse_firm_records", edit_then_parse)
    changed = invoke(*args)
    assert changed[0] == 0
    assert b"year_max,2004" in changed[3]["summary.csv"]  # the parse read the new bytes
    assert cache_files() == []  # and they are not the bytes that were hashed


def test_changed_content_with_the_same_size_and_mtime_is_a_miss(workdir, parses):
    args = ["ingest", *write_input("hostile")]
    before = invoke(*args)
    path = Path("in.csv")
    stamp = path.stat()
    data = path.read_bytes()
    edited = data.replace(b"\nF0000,2001,US,s0,", b"\nF0000,2004,US,s0,", 1)
    assert len(edited) == len(data) and edited != data
    path.write_bytes(edited)
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert path.stat().st_mtime_ns == stamp.st_mtime_ns
    parses.clear()
    after = invoke(*args)
    assert len(parses) == 1
    assert after != before  # the duplicate key is gone, and 2004 is a new year
    assert b"year_max,2004" in after[3]["summary.csv"]


def test_a_changed_schema_is_a_miss_and_the_currency_unit_is_not_in_the_key(workdir, parses):
    args = ["ingest", *write_input("vendor")]
    invoke(*args)
    assert len(parses) == 1
    Path("schema.json").write_text(json.dumps({**VENDOR_SCHEMA, "year_range": [1995, 2002]}))
    narrower = invoke(*args)
    assert len(parses) == 2
    assert b"year_max,2002" in narrower[3]["summary.csv"]
    assert len(cache_files()) == 2  # one file per schema

    Path("schema.json").write_text(json.dumps({**VENDOR_SCHEMA, "currency_unit": "kUSD"}))
    relabelled = invoke(*args)
    assert len(parses) == 2  # a hit
    assert b"currency_unit,kUSD" in relabelled[3]["summary.csv"]


def _run_process(cwd: Path, *args: str, src: Path = SRC):
    return subprocess.run([sys.executable, "-m", "firmprod.cli", *args], cwd=cwd,
                          env=child_env(src), capture_output=True, timeout=60)


def test_a_cache_directory_that_cannot_be_created_changes_nothing(tmp_path):
    runs = []
    for name in ("plain", "squatted"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "in.csv").write_text(hostile_csv(), encoding="utf-8")
        if name == "squatted":
            (tmp_path / name / DIRECTORY).write_text("a file where the directory would be")
        runs.append(_run_process(tmp_path / name, "ingest", "--input", "in.csv", "--out", "out"))
    assert (tmp_path / "plain" / DIRECTORY).is_dir()
    assert (tmp_path / "squatted" / DIRECTORY).is_file()
    plain, squatted = runs
    assert (squatted.returncode, squatted.stdout, squatted.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    assert plain.returncode == 0


def test_an_unwritable_cache_directory_changes_nothing(workdir, parses, monkeypatch):
    args = ["ingest", *write_input("hostile")]
    expected = invoke(*args)
    Path(DIRECTORY, cache_files()[0].name).unlink()
    mkstemp = _emit.tempfile.mkstemp

    def refuse_in_cache(*a, dir=None, **kw):
        if Path(dir).name == DIRECTORY:
            raise PermissionError(13, "Permission denied", dir)
        return mkstemp(*a, dir=dir, **kw)

    monkeypatch.setattr(_emit.tempfile, "mkstemp", refuse_in_cache)
    for _ in range(2):
        assert invoke(*args) == expected
    assert len(parses) == 3
    assert cache_files() == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_the_cache_file_follows_the_umask(workdir, umask, mode):
    write_input("hostile")
    previous = os.umask(umask)
    try:
        cli._load("in.csv", None, strict=False)
    finally:
        os.umask(previous)
    (path,) = cache_files()
    assert path.stat().st_mode & 0o777 == mode
    assert [p.name for p in Path(DIRECTORY).iterdir()] == [path.name]  # no temporary left


def test_a_fifo_is_parsed_as_before_and_not_cached(tmp_path):
    fifo = tmp_path / "in.csv"
    os.mkfifo(fifo)
    proc = subprocess.Popen([sys.executable, "-m", "firmprod.cli", "ingest", "--input",
                             "in.csv", "--out", "out"], cwd=tmp_path, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while True:  # opening for writing fails until the command opens the FIFO to read
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError:
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.01)
        os.set_blocking(fd, True)
        with os.fdopen(fd, "wb") as fh:
            fh.write(hostile_csv().encode("utf-8"))
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    assert b"skipped line" in err
    assert not (tmp_path / DIRECTORY).exists()


def test_an_edit_to_the_parser_source_is_a_miss(tmp_path):
    src = tmp_path / "src"
    package = Path(firmprod.__file__).parent
    (src / "firmprod").mkdir(parents=True)
    for module in package.glob("*.py"):
        (src / "firmprod" / module.name).write_bytes(module.read_bytes())
    (tmp_path / "in.csv").write_text(hostile_csv(), encoding="utf-8")

    def stored() -> tuple[int, int]:
        (path,) = (tmp_path / DIRECTORY).iterdir()
        return path.stat().st_ino, path.stat().st_mtime_ns

    runs = [_run_process(tmp_path, "ingest", "--input", "in.csv", "--out", "out", src=src)]
    first = stored()
    runs.append(_run_process(tmp_path, "ingest", "--input", "in.csv", "--out", "out", src=src))
    assert stored() == first  # a hit leaves the file alone
    with open(src / "firmprod" / "ingest.py", "a", encoding="utf-8") as fh:
        fh.write("# an edit\n")
    runs.append(_run_process(tmp_path, "ingest", "--input", "in.csv", "--out", "out", src=src))
    assert stored() != first  # the key changed, so the parse was stored again
    assert len({(run.returncode, run.stdout, run.stderr) for run in runs}) == 1
