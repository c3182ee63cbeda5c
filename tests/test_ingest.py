from __future__ import annotations

import csv
import io
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import firmprod.ingest
from firmprod import (
    CsvSchema,
    Dataset,
    FirmRecord,
    ParseReport,
    SynthSpec,
    filter_dataset,
    gen_cobb_douglas_firms,
    parse_firm_records,
    write_firm_records,
)
from firmprod.errors import (
    FirmprodError,
    RowError,
    SchemaError,
    ValidationError,
)
from firmprod.ingest import (
    CANONICAL_COLUMNS,
    MANDATORY_FIELDS,
    OPTIONAL_FIELDS,
    SECTOR_CLASSES,
    RowIssue,
    _LineFilter,
    _record_from_row,
)
from firmprod.records import Columns

HEADER = (
    "firm_id,year,country,sector,sector_class,revenue,cogs,workers,"
    "total_labor_cost,capital,ordinary_income,financial_expense,"
    "tax_public_charge,depreciation"
)


def parse(text: str, schema: CsvSchema | None = None, **kwargs):
    return parse_firm_records(io.StringIO(text), schema, **kwargs)


def roundtrip(dataset: Dataset, delimiter: str = ",") -> Dataset:
    schema = CsvSchema(delimiter=delimiter, currency_unit=dataset.currency_unit)
    buffer = io.StringIO()
    write_firm_records(dataset, buffer, schema)
    report = parse(buffer.getvalue(), schema)
    assert report.n_skipped == 0
    return report.dataset


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_header_only_gives_empty_dataset():
    report = parse(HEADER + "\n")
    assert len(report.dataset) == 0
    assert report.n_skipped == 0


def test_single_row_passes_through():
    report = parse(HEADER + "\nF1,2003,JP,steel,manufacturing,100,40,10,30,50,,,,\n")
    (record,) = report.dataset.records
    assert record.revenue == 100.0
    assert record.cogs == 40.0
    assert record.workers == 10
    assert record.total_labor_cost == 30.0
    assert record.capital == 50.0
    assert record.year == 2003
    assert record.ordinary_income is None
    assert record.depreciation is None


def test_row_order_preserved():
    rows = "\n".join(
        f"F{i},2003,JP,steel,manufacturing,{100 + i},40,10,,,,,," for i in range(5)
    )
    report = parse(HEADER + "\n" + rows + "\n")
    assert [r.firm_id for r in report.dataset.records] == [f"F{i}" for i in range(5)]


def test_missing_mandatory_column_names_the_column():
    header = HEADER.replace("workers,", "")
    with pytest.raises(SchemaError, match="workers"):
        parse(header + "\nF1,2003,JP,steel,manufacturing,100,40,30,50,,,,\n")


@pytest.mark.parametrize("column, schema", [
    ("revenue", None),
    ("capital", None),
    ("Sales", CsvSchema(columns={"revenue": "Sales"})),
])
def test_repeated_mapped_column_is_a_schema_error(column, schema):
    header = HEADER.replace("revenue", "Sales") if schema else HEADER
    row = "F1,2003,JP,steel,manufacturing,100,40,10,30,50,,,,"
    for strict in (False, True):
        with pytest.raises(SchemaError, match=f"{column!r}.*more than once"):
            parse(f"{header},{column}\n{row},5\n", schema, strict=strict)


def test_repeated_unmapped_column_is_ignored():
    report = parse(f"{HEADER},note,note\nF1,2003,JP,steel,manufacturing,100,40,10,,,,,,,a,b\n")
    (record,) = report.dataset.records
    assert record.revenue == 100.0


def test_optional_columns_may_be_entirely_absent():
    header = "firm_id,year,country,sector,sector_class,revenue,cogs,workers"
    report = parse(header + "\nF1,2003,JP,steel,manufacturing,100,40,10\n")
    (record,) = report.dataset.records
    assert record.total_labor_cost is None
    assert record.capital is None


def test_unparseable_cell_is_skipped_with_line_number():
    text = HEADER + "\nF1,2003,JP,steel,manufacturing,abc,40,10,,,,,,\n"
    report = parse(text)
    assert len(report.dataset) == 0
    (issue,) = report.skipped
    assert issue.line == 2
    assert "revenue" in issue.reason


def test_strict_mode_raises_on_first_bad_row():
    text = HEADER + "\nF1,2003,JP,steel,manufacturing,abc,40,10,,,,,,\n"
    with pytest.raises(RowError, match="line 2"):
        parse(text, strict=True)


def test_negative_mandatory_money_is_a_row_error():
    text = HEADER + "\nF1,2003,JP,steel,manufacturing,-5,40,10,,,,,,\n"
    report = parse(text)
    assert report.n_skipped == 1
    assert "revenue" in report.skipped[0].reason


def test_negative_ordinary_income_is_allowed():
    text = HEADER + "\nF1,2003,JP,steel,manufacturing,100,40,10,,,-25,,,\n"
    report = parse(text)
    assert report.dataset.records[0].ordinary_income == -25.0


def test_year_outside_configured_range_is_a_row_error():
    text = HEADER + "\nF1,1905,JP,steel,manufacturing,100,40,10,,,,,,\n"
    report = parse(text)
    assert report.n_skipped == 1
    assert "year" in report.skipped[0].reason

    wide = CsvSchema(year_range=(1900, 2030))
    assert len(parse(text, wide).dataset) == 1


def test_duplicate_key_within_file_is_a_row_error():
    text = (
        HEADER
        + "\nF1,2003,JP,steel,manufacturing,100,40,10,,,,,,"
        + "\nF1,2003,JP,steel,manufacturing,200,40,10,,,,,,\n"
    )
    report = parse(text)
    assert len(report.dataset) == 1
    assert report.dataset.records[0].revenue == 100.0
    assert report.n_skipped == 1


def test_comment_and_blank_lines_are_skipped():
    text = (
        "# generated file\n\n"
        + HEADER
        + "\n# mid comment\nF1,2003,JP,steel,manufacturing,100,40,10,,,,,,\n"
    )
    report = parse(text)
    assert len(report.dataset) == 1


def test_custom_column_mapping_and_tab_delimiter():
    schema = CsvSchema(
        columns={"firm_id": "ID", "revenue": "Sales"},
        delimiter="\t",
        currency_unit="kUSD",
    )
    header = HEADER.replace(",", "\t").replace("firm_id", "ID").replace("revenue", "Sales")
    text = header + "\nF9\t2003\tUS\tretail\tnon_manufacturing\t77\t40\t10\t\t\t\t\t\t\n"
    report = parse(text, schema)
    (record,) = report.dataset.records
    assert record.firm_id == "F9"
    assert record.revenue == 77.0
    assert report.dataset.currency_unit == "kUSD"


def test_unknown_schema_field_rejected():
    with pytest.raises(SchemaError, match="unknown"):
        CsvSchema(columns={"nonexistent": "X"})


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------


def test_roundtrip_of_synthetic_population():
    spec = SynthSpec(n=1000, noise_sigma=0.1, labor_share=0.4, seed=11)
    dataset = gen_cobb_douglas_firms(spec)
    assert roundtrip(dataset).records == dataset.records


def test_parse_serialize_parse_is_identity(make_record, make_dataset):
    dataset = make_dataset(
        make_record(firm_id="a", ordinary_income=-3.5, depreciation=None),
        make_record(firm_id="b", total_labor_cost=None, capital=None),
        make_record(firm_id="c", revenue=0.1 + 0.2),  # non-terminating binary float
    )
    once = roundtrip(dataset)
    assert once.records == dataset.records
    assert roundtrip(once).records == once.records


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def test_empty_predicate_is_identity(make_record, make_dataset):
    d = make_dataset(make_record(firm_id="a"), make_record(firm_id="b"))
    filtered = filter_dataset(d)
    assert filtered.records == d.records
    assert filtered.records[0] is d.records[0]  # records never copied or altered


def test_min_workers_threshold_is_inclusive(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="a", workers=5),
        make_record(firm_id="b", workers=10),
        make_record(firm_id="c", workers=20),
    )
    kept = filter_dataset(d, min_workers=10)
    assert [r.workers for r in kept.records] == [10, 20]


def test_require_positive_drops_absent_and_nonpositive(make_record, make_dataset):
    d = make_dataset(
        make_record(firm_id="a", capital=None),
        make_record(firm_id="b", capital=0.0),
        make_record(firm_id="c", capital=2.0, ordinary_income=3.0),
        make_record(firm_id="d", ordinary_income=-1.0),
    )
    kept = filter_dataset(d, require_positive=("capital",))
    assert [r.firm_id for r in kept.records] == ["c", "d"]
    kept2 = filter_dataset(d, require_positive=("capital", "ordinary_income"))
    assert [r.firm_id for r in kept2.records] == ["c"]


def test_require_positive_unknown_field():
    with pytest.raises(ValueError, match="unknown field"):
        filter_dataset(Dataset(records=()), require_positive=("nope",))


def test_composed_filters_commute(make_record, make_dataset):
    rng = random.Random(101)
    records = [
        make_record(
            firm_id=f"f{i}",
            year=rng.choice([2002, 2003]),
            country=rng.choice(["JP", "US"]),
            sector_class=rng.choice(["manufacturing", "non_manufacturing"]),
            workers=rng.randint(0, 30),
            capital=rng.choice([None, 0.0, 5.0]),
        )
        for i in range(100)
    ]
    d = make_dataset(*records)
    one = filter_dataset(
        filter_dataset(d, year=2003, min_workers=5), country="JP", require_positive=("capital",)
    )
    other = filter_dataset(
        filter_dataset(d, require_positive=("capital",), country="JP"), min_workers=5, year=2003
    )
    combined = filter_dataset(
        d, year=2003, country="JP", min_workers=5, require_positive=("capital",)
    )
    assert one.records == other.records == combined.records
    # brute-force oracle
    expected = tuple(
        r
        for r in records
        if r.year == 2003 and r.country == "JP" and r.workers >= 5
        and r.capital is not None and r.capital > 0
    )
    assert combined.records == expected


# ---------------------------------------------------------------------------
# record and dataset invariants
# ---------------------------------------------------------------------------


def test_record_rejects_negative_money(make_record):
    with pytest.raises(ValidationError):
        make_record(revenue=-1.0)
    with pytest.raises(ValidationError):
        make_record(depreciation=-0.5)


_MONEY_FIELDS = ("revenue", "cogs", "total_labor_cost", "capital", "ordinary_income",
                 "financial_expense", "tax_public_charge", "depreciation")


@given(st.fixed_dictionaries({
    name: st.none() | st.floats() | st.sampled_from([-0.0, -1e-300, 0, -2])
    for name in _MONEY_FIELDS
}))
def test_record_sign_check_matches_the_field_loop(money):
    negative = [name for name in _MONEY_FIELDS if name != "ordinary_income"
                and money[name] is not None and money[name] < 0]
    build = lambda: FirmRecord("F1", 2003, "JP", "s", "manufacturing", workers=1, **money)
    if negative:
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert str(excinfo.value) == f"{negative[0]} must be >= 0, got {money[negative[0]]}"
    else:
        assert build().cogs is money["cogs"]


def test_record_rejects_bad_workers(make_record):
    with pytest.raises(ValidationError):
        make_record(workers=-1)
    with pytest.raises(ValidationError):
        make_record(workers=2.5)


def test_record_rejects_unknown_sector_class(make_record):
    with pytest.raises(ValidationError):
        make_record(sector_class="services")


def test_dataset_rejects_duplicate_keys(make_record):
    with pytest.raises(ValidationError, match="duplicate"):
        Dataset(records=(make_record(), make_record(revenue=1.0)))


def test_parse_accepts_byte_streams():
    raw = (HEADER + "\nF1,2003,JP,steel,manufacturing,100,40,10,,,,,,\n").encode("utf-8")
    report = parse_firm_records(io.BytesIO(raw))
    assert len(report.dataset) == 1
    assert report.dataset.records[0].firm_id == "F1"



_TWO_ROWS = [HEADER, "F1,2003,JP,steel,manufacturing,100,40,10,,,,,,",
             "F2,2003,JP,steel,manufacturing,oops,40,10,,,,,,"]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_one_input_gives_one_parse_from_text_bytes_or_a_path(ending, tmp_path):
    text = ending.join(_TWO_ROWS) + ending
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    stream = io.BytesIO(text.encode("utf-8"))
    # newline="" makes a StringIO split lines as a file opened for the csv module does;
    # a default StringIO splits only at LF, so the parser splits at a lone CR itself
    reports = {"text": parse_firm_records(io.StringIO(text, newline="")),
               "text-lf": parse_firm_records(io.StringIO(text)),
               "bytes": parse_firm_records(stream),
               "path": parse_firm_records(path)}
    for kind, report in reports.items():
        assert report.dataset.records == reports["text"].dataset.records, kind
        assert report.skipped == (RowIssue(3, "revenue: cannot parse 'oops' as a number"),), kind
    assert [record.firm_id for record in reports["path"].dataset.records] == ["F1"]
    assert {kind: report.dataset.provenance for kind, report in reports.items()} == {
        "text": (), "text-lf": (), "bytes": (), "path": (str(path),)}
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == text.encode("utf-8")


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_a_quoted_cr_parses_from_a_text_stream_as_from_a_path(ending, tmp_path):
    rows = [HEADER, '"F\r1",2003,JP,steel,manufacturing,100,40,10,,,,,,',
            '"F\r\n2",2003,JP,steel,manufacturing,oops,40,10,,,,,,',
            "F3,2003,JP,steel,manufacturing,100,40,10,,,,,,"]
    text = ending.join(rows) + ending
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = parse_firm_records(path)
    assert [record.firm_id for record in expected.dataset.records] == ["F\r1", "F3"]
    for stream in (io.StringIO(text), io.StringIO(text, newline="")):
        report = parse_firm_records(stream)
        assert (report.dataset.records, report.skipped) == (
            expected.dataset.records, expected.skipped)


def test_a_strict_parse_of_bytes_raises_the_error_of_a_path(tmp_path):
    data = "\n".join(_TWO_ROWS).encode("utf-8") + b"\nF3,2003,JP,st\xffel,manufacturing,1,1,1\n"
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    errors = []
    for source in (io.BytesIO(data), path):
        with pytest.raises(FirmprodError) as caught:
            parse_firm_records(source, strict=True)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert "not UTF-8" in errors[0][1]


ROW = "F1,2003,JP,steel,manufacturing,100,40,10,,,,,,\n"
BOM = "\ufeff"


@pytest.mark.parametrize("kind", ["text", "bytes", "path"])
def test_byte_order_mark_before_header_is_dropped(kind, tmp_path):
    text = BOM + HEADER + "\n" + ROW
    if kind == "text":
        source = io.StringIO(text)
    elif kind == "bytes":
        source = io.BytesIO(text.encode("utf-8"))
    else:
        source = tmp_path / "bom.csv"
        source.write_text(text, encoding="utf-8")
    report = parse_firm_records(source)
    assert report.n_skipped == 0
    assert report.dataset.records[0].firm_id == "F1"


def test_byte_order_mark_before_comment_line_is_dropped():
    report = parse(BOM + "# exported by a vendor tool\n" + HEADER + "\n" + ROW)
    assert len(report.dataset) == 1
    assert report.n_skipped == 0


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------


def _outcome(source, strict: bool) -> tuple:
    """The records and skipped rows of a parse, or the type and text of its package error."""
    try:
        report = parse_firm_records(source, strict=strict)
    except FirmprodError as exc:
        return type(exc), str(exc)
    assert isinstance(report, ParseReport)
    return report.dataset.records, report.skipped


@given(st.one_of(st.text(), st.binary()), st.booleans(), st.booleans())
def test_arbitrary_input_parses_or_raises_a_package_error(tmp_path_factory, body, with_header,
                                                          strict):
    if with_header:  # so that most examples reach the row parser
        body = (HEADER + "\n").encode() + body if isinstance(body, bytes) else HEADER + "\n" + body
    if isinstance(body, str):
        _outcome(io.StringIO(body), strict)
        return
    path = tmp_path_factory.mktemp("fuzz") / "in.csv"
    path.write_bytes(body)
    assert _outcome(io.BytesIO(body), strict) == _outcome(path, strict)


# Cells are stripped on parse, so names avoid outer whitespace. Inside a name
# any character goes, the ones the writer must quote drawn often: CR, LF, the
# quote and every delimiter under test. A leading '#' is allowed: the writer
# quotes such a cell so that its line is not read as a comment.
_names = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from('\r\n",\t; #'),
    min_size=1, max_size=8,
).map(str.strip).filter(bool)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def firm_records(draw) -> FirmRecord:
    return FirmRecord(
        firm_id=draw(_names),
        year=draw(st.integers(1980, 2030)),
        country=draw(_names),
        sector=draw(_names),
        sector_class=draw(st.sampled_from(SECTOR_CLASSES)),
        revenue=draw(_nonnegative),
        cogs=draw(_nonnegative),
        workers=draw(st.integers(0, 10**12)),
        total_labor_cost=draw(st.none() | _nonnegative),
        capital=draw(st.none() | _nonnegative),
        ordinary_income=draw(st.none() | _finite),
        financial_expense=draw(st.none() | _nonnegative),
        tax_public_charge=draw(st.none() | _nonnegative),
        depreciation=draw(st.none() | _nonnegative),
    )


_hostile = [FirmRecord(firm_id, 2003, country, sector, "manufacturing", 2.0, 1.0, 3)
            for firm_id, country, sector in [
                ("#7", "JP", "s"), ("a\rb", "J\rP", "s\rx"), ("x\ny", 'J"P', "s,x"),
                ("t\tu", "J P", "s;x"), ("crlf\r\nid", "JP", "s")]]


@given(records=st.lists(firm_records(), max_size=8, unique_by=lambda r: r.key))
@example(records=_hostile)
def test_write_then_parse_gives_every_record_back(records):
    dataset = Dataset(records=tuple(records))
    assert roundtrip(dataset).records == dataset.records


@pytest.mark.parametrize("delimiter", ["\t", ";", " "], ids=["tab", "semicolon", "space"])
@given(records=st.lists(firm_records(), max_size=8, unique_by=lambda r: r.key))
@example(records=_hostile)
def test_write_then_parse_gives_every_record_back_under_other_delimiters(delimiter, records):
    dataset = Dataset(records=tuple(records))
    assert roundtrip(dataset, delimiter).records == dataset.records


@given(parts=st.lists(st.lists(firm_records(), max_size=5), max_size=4))
@example(parts=[_hostile[:2], [], _hostile[2:]])
def test_concat_of_whole_parts_holds_every_record_in_order(parts):
    columns = Columns.concat([Columns.from_records(part) for part in parts])
    joined = [record for part in parts for record in part]
    assert len(columns) == len(joined)
    assert columns._build_views() == tuple(joined)
    assert columns.keys() == [record.key for record in joined]


def test_concat_of_no_parts_is_empty():
    columns = Columns.concat([])
    assert len(columns) == 0
    assert columns.keys() == []
    assert columns.records() == ()


def test_dataset_duplicate_error_lists_each_repeat_in_order(make_record):
    records = [make_record(firm_id=firm_id) for firm_id in "ABABA"]
    with pytest.raises(ValidationError) as error:
        Dataset(records=records)
    assert str(error.value) == (
        "duplicate (firm_id, year) keys: (A, 2003), (B, 2003), (A, 2003)")


def test_dataset_duplicate_error_shows_at_most_five_keys(make_record):
    records = [make_record(firm_id=f"F{i}") for i in range(7)] * 2
    with pytest.raises(ValidationError) as error:
        Dataset(records=records)
    assert str(error.value) == "duplicate (firm_id, year) keys: " + ", ".join(
        f"(F{i}, 2003)" for i in range(5))


def test_firm_id_starting_with_hash_round_trips():
    records = [FirmRecord("#7", 2003, "JP", "s", "manufacturing", 2.0, 1.0, 3),
               FirmRecord("F8", 2003, "JP", "#s", "manufacturing", 2.0, 1.0, 3)]
    buffer = io.StringIO()
    write_firm_records(Dataset(records=tuple(records)), buffer)
    assert buffer.getvalue().splitlines()[1].startswith('"#7"')
    report = parse(buffer.getvalue())
    assert report.dataset.records == tuple(records)
    assert report.n_skipped == 0


def test_oversized_cell_is_a_skipped_row():
    text = HEADER + "\n" + "F0," + "9" * 200_000 + ",JP,s,manufacturing,1,1,1\n" + ROW
    report = parse(text)
    assert [issue.line for issue in report.skipped] == [2]
    assert "field larger than field limit" in report.skipped[0].reason
    assert [r.firm_id for r in report.dataset.records] == ["F1"]
    with pytest.raises(RowError, match="line 2"):
        parse(text, strict=True)


# ---------------------------------------------------------------------------
# the row parser against the per-field reference loop
# ---------------------------------------------------------------------------


class _ReferenceLineFilter:
    """Non-blank, non-comment lines with their line numbers, one call per line;
    a line whose leading whitespace holds the delimiter is never skipped."""

    def __init__(self, lines, delimiter):
        self._lines = iter(lines)
        self._delimiter = delimiter
        self.lineno = 0

    def __iter__(self):
        return self

    def __next__(self):
        for line in self._lines:
            self.lineno += 1
            if self.lineno == 1:
                line = line.removeprefix("\ufeff")
            stripped = line.strip()
            lead = re.match(r"\s*", line).group()
            if (not stripped or stripped.startswith("#")) and self._delimiter not in lead:
                continue
            return line
        raise StopIteration


_REFERENCE_NONNEGATIVE = ("revenue", "cogs", "total_labor_cost", "capital",
                          "financial_expense", "tax_public_charge", "depreciation")


def _reference_money(text, field):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{field}: cannot parse {text!r} as a number") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{field}: non-finite value {text!r}")
    return value


def _reference_record(row, header_index, year_range):
    """Ordered per-field checks, then the record's own checks, one field at a time."""

    def cell(field):
        idx = header_index.get(field)
        if idx is None or idx >= len(row):
            return None
        text = row[idx].strip()
        return text if text else None

    values = {}
    for field in MANDATORY_FIELDS:
        text = cell(field)
        if text is None:
            raise ValueError(f"{field}: mandatory cell is empty")
        if field in ("firm_id", "country", "sector", "sector_class"):
            values[field] = text
        elif field in ("year", "workers"):
            try:
                values[field] = int(text)
            except ValueError:
                raise ValueError(f"{field}: cannot parse {text!r} as an integer") from None
        else:
            money = _reference_money(text, field)
            if money < 0:
                raise ValueError(f"{field}: negative value {money}")
            values[field] = money
    lo, hi = year_range
    if not lo <= values["year"] <= hi:
        raise ValueError(f"year: {values['year']} outside configured range {lo}..{hi}")
    for field in OPTIONAL_FIELDS:
        text = cell(field)
        values[field] = None if text is None else _reference_money(text, field)

    if values["sector_class"] not in SECTOR_CLASSES:
        raise ValidationError(
            f"sector_class must be one of {SECTOR_CLASSES}, got {values['sector_class']!r}")
    if values["workers"] < 0:
        raise ValidationError(f"workers must be >= 0, got {values['workers']}")
    for name in _REFERENCE_NONNEGATIVE:
        if values[name] is not None and values[name] < 0:
            raise ValidationError(f"{name} must be >= 0, got {values[name]}")
    return FirmRecord(**values)


def _reference_parse(text, schema, strict):
    """(records, skipped (line, reason) pairs, strict (line, reason) or None)."""
    line_filter = _ReferenceLineFilter(io.StringIO(text), schema.delimiter)
    reader = csv.reader(line_filter, delimiter=schema.delimiter)
    positions = {name.strip(): idx for idx, name in enumerate(next(reader))}
    header_index = {field: positions[schema.columns[field]] for field in CANONICAL_COLUMNS
                    if schema.columns[field] in positions}
    records, skipped, seen = [], [], set()
    for row in reader:
        line = line_filter.lineno
        try:
            record = _reference_record(row, header_index, schema.year_range)
        except (ValueError, ValidationError) as exc:
            issue = (line, str(exc))
        else:
            if record.key not in seen:
                seen.add(record.key)
                records.append(record)
                continue
            issue = (line, f"duplicate (firm_id, year) key ({record.firm_id}, {record.year})")
        if strict:
            return records, [], issue
        skipped.append(issue)
    return records, skipped, None


# "\x1f" and "\u3000" are whitespace to str.strip() (float() and int() take only the latter)
_MONEY_GOOD = ["1", "2.5", " 3e2 ", "0", "-0.0", "1_000", "7.25 ", "\x1f4", "\u30005"]
_MONEY_BAD = ["-4", "-0.5", "abc", "nan", "inf", " -inf", "1e400", "", " "]
_OPTIONAL_BAD = ["-4", "-1e-300", "abc", "nan", "inf", "1e400"]
_GOOD = {
    "firm_id": ["F1", " F2", "F3 ", "#F4"],
    "year": ["2003", " 2004 ", "2005", "2004\x1f", "\u30002003"],
    "country": ["JP", " US"],
    "sector": ["s", "t "],
    "sector_class": ["manufacturing", " non_manufacturing "],
    "workers": ["1", " 7 ", "0", "12", "\x1f3", "\u30009"],
}
_BAD = {
    "firm_id": ["", "  "],
    "year": ["", "1850", "2200", "20x3", "2003.0", "-5"],
    "country": ["", " "],
    "sector": ["", " "],
    "sector_class": ["", "services", "Manufacturing"],
    "workers": ["", "-3", "x", "2.5"],
}


def _cell(field, bad):
    optional = field in OPTIONAL_FIELDS
    if bad:
        return st.sampled_from(_BAD.get(field, _OPTIONAL_BAD if optional else _MONEY_BAD))
    return st.sampled_from(_GOOD.get(field, _MONEY_GOOD + ["", " "] * optional))


@st.composite
def _row_files(draw):
    """(text, schema): canonical CSV or a renamed tab-separated layout."""
    canonical = draw(st.booleans())
    delimiter = "," if canonical else "\t"
    columns = {field: field if canonical else f"Vendor{field.title()}"
               for field in CANONICAL_COLUMNS}
    present = [field for field in OPTIONAL_FIELDS if draw(st.booleans())]
    extra = ["note"] if draw(st.booleans()) else []
    fields = draw(st.permutations(list(MANDATORY_FIELDS) + present + extra))
    schema = CsvSchema(columns=None if canonical else columns, delimiter=delimiter,
                       year_range=draw(st.sampled_from([(1980, 2030), (2003, 2004)])))
    lines = [delimiter.join(columns.get(field, field) for field in fields)]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["# comment", "  # indented", "#F1,2003"])))
        elif kind == 1:
            # blank, or (under a tab delimiter) rows of empty first cells
            lines.append(draw(st.sampled_from(["", "   ", delimiter * 3, delimiter + "#F1"])))
        else:
            # up to three bad cells, so that the order of the checks shows
            bad = draw(st.sets(st.sampled_from(fields), max_size=3))
            cells = [draw(_cell(field if field != "note" else "revenue", field in bad))
                     for field in fields]
            change = draw(st.integers(-3, 6))
            if change < 0:  # a short row
                cells = cells[:change]
            elif change > 3:  # a row with extra trailing cells
                cells += [draw(st.sampled_from(_MONEY_GOOD)) for _ in range(change - 3)]
            lines.append(delimiter.join(cells))
    return "\n".join(lines) + "\n", schema


def _fields(record):
    return tuple(repr(getattr(record, field)) for field in CANONICAL_COLUMNS)


@settings(max_examples=300, deadline=None)
@given(_row_files(), st.booleans())
def test_parser_matches_the_reference_row_loop(row_file, strict):
    text, schema = row_file
    records, skipped, row_error = _reference_parse(text, schema, strict)
    try:
        report = parse_firm_records(io.StringIO(text), schema, strict=strict)
    except RowError as exc:
        assert (exc.line, exc.reason) == row_error
        return
    assert row_error is None
    assert [_fields(r) for r in report.dataset.records] == [_fields(r) for r in records]
    assert [(issue.line, issue.reason) for issue in report.skipped] == skipped


# ---------------------------------------------------------------------------
# the block-wise parser against a row-by-row loop over _record_from_row
# ---------------------------------------------------------------------------


def _row_by_row(text, schema, strict):
    """(field tuples, skipped (line, reason) pairs, strict (line, reason) or None):
    each row through ``_record_from_row`` alone, keys claimed first-wins."""
    line_filter = _LineFilter(io.StringIO(text), schema.delimiter)
    reader = csv.reader(line_filter, delimiter=schema.delimiter)
    header = next(reader)
    line_filter.record_start = True
    positions = {name.strip(): idx for idx, name in enumerate(header)}
    header_index = {field: positions[schema.columns[field]] for field in CANONICAL_COLUMNS
                    if schema.columns[field] in positions}
    records, skipped, seen = [], [], set()
    for row in reader:
        line_filter.record_start = True
        line = line_filter.lineno
        try:
            values = _record_from_row(row, header_index, schema)
        except (ValueError, ValidationError) as exc:
            issue = (line, str(exc))
        else:
            key = (values["firm_id"], values["year"])
            if key not in seen:
                seen.add(key)
                records.append(tuple(repr(values[field]) for field in CANONICAL_COLUMNS))
                continue
            issue = (line, f"duplicate (firm_id, year) key ({key[0]}, {key[1]})")
        if strict:
            return records, [], issue
        skipped.append(issue)
    return records, skipped, None


def _quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _hostile_files(draw):
    """(text, schema) with the rows of ``_row_files`` plus quoted cells holding
    newlines, comment-like and blank lines, escaped quotes and delimiters, and
    sometimes a byte-order mark."""
    text, schema = draw(_row_files())
    header, *lines = text.splitlines()
    out = [header]
    d = schema.delimiter
    for line in lines:
        kind = draw(st.integers(0, 5))
        if kind == 0 and line and not line.lstrip().startswith("#"):
            cells = line.split(d)
            cells[0] = _quoted(draw(st.sampled_from(
                ["F\n#x", "F\n\nG", 'a"b', f"x{d}y", "#7", "F1\n  # not a comment", "F2\n"])))
            out.append(d.join(cells))
        else:
            out.append(line)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join(out) + "\n", schema


@settings(max_examples=300, deadline=None)
@given(_hostile_files(), st.booleans(), st.integers(1, 4))
def test_block_parser_matches_the_row_by_row_loop(hostile_file, strict, block_rows):
    text, schema = hostile_file
    records, skipped, row_error = _row_by_row(text.removeprefix("\ufeff"), schema, strict)
    with mock.patch("firmprod.ingest._BLOCK_ROWS", block_rows):  # most inputs span blocks
        try:
            report = parse_firm_records(io.StringIO(text), schema, strict=strict)
        except RowError as exc:
            assert (exc.line, exc.reason) == row_error
            return
    assert row_error is None
    assert [_fields(r) for r in report.dataset.records] == records
    assert [(issue.line, issue.reason) for issue in report.skipped] == skipped


def test_bad_rows_in_a_later_block_cost_only_their_own_rows():
    block = firmprod.ingest._BLOCK_ROWS
    good = [f"F{i},2003,JP,s,manufacturing,{i + 1},1,{i % 50}" for i in range(2 * block + 300)]
    lines = list(good)
    lines[block + 7] = f"F{block + 7},2003,JP,s,manufacturing,abc,1,3"  # second block
    lines[block + 8] = "F0,2003,JP,s,manufacturing,9,1,3"  # a key from the first block
    lines[2 * block + 5] = f"F{2 * block + 5},2003,JP,s,services,9,1,3"  # third block
    # a quoted newline: one row on two lines, so later line numbers shift by one
    lines[2 * block + 6] = f'F{2 * block + 6},2003,JP,s,manufacturing,9,1,"3\n"'
    lines[2 * block + 7] = f"F{2 * block + 7},2003,JP,s,manufacturing,9,1,-3"
    text = "firm_id,year,country,sector,sector_class,revenue,cogs,workers\n" + "\n".join(lines) + "\n"
    report = parse(text)
    records, skipped, _ = _row_by_row(text, CsvSchema(), strict=False)
    assert [_fields(r) for r in report.dataset.records] == records
    assert [(issue.line, issue.reason) for issue in report.skipped] == skipped == [
        (block + 9, "revenue: cannot parse 'abc' as a number"),
        (block + 10, "duplicate (firm_id, year) key (F0, 2003)"),
        (2 * block + 7, "sector_class must be one of ('manufacturing', 'non_manufacturing'), "
                        "got 'services'"),
        (2 * block + 10, "workers must be >= 0, got -3"),
    ]
    assert len(report.dataset) == len(good) - 4
    with pytest.raises(RowError) as excinfo:
        parse(text, strict=True)
    assert (excinfo.value.line, excinfo.value.reason) == skipped[0]


def test_a_comment_line_inside_a_quoted_cell_is_data():
    text = ("firm_id,year,country,sector,sector_class,revenue,cogs,workers\n"
            '"F\n#x",2003,JP,s,manufacturing,100,40,10\n'
            "F2,2003,JP,s,manufacturing,abc,40,10\n")
    report = parse(text)
    assert [r.firm_id for r in report.dataset.records] == ["F\n#x"]
    assert [(issue.line, issue.reason) for issue in report.skipped] == [
        (4, "revenue: cannot parse 'abc' as a number")]


def test_two_fields_can_not_read_one_column():
    with pytest.raises(SchemaError, match="'X' is mapped to more than one field: revenue, cogs"):
        CsvSchema(columns={"revenue": "X", "cogs": "X"})
    with pytest.raises(SchemaError, match="'cogs' is mapped to more than one field"):
        CsvSchema(columns={"revenue": "cogs"})  # cogs keeps its canonical column
    assert CsvSchema(columns={"revenue": "cogs", "cogs": "Costs"}).columns["cogs"] == "Costs"


def test_a_hash_delimiter_is_refused():
    # A row whose first cell is empty would start with '#' and be dropped as a comment.
    with pytest.raises(SchemaError, match="delimiter can not be '#'"):
        CsvSchema(delimiter="#")


@pytest.mark.parametrize("delimiter", ["\t", " ", ","], ids=["tab", "space", "comma"])
def test_a_row_whose_first_cell_is_empty_is_reported_under_any_delimiter(delimiter):
    # Under a whitespace delimiter such a row starts blank, and may look blank or a comment.
    cells = ["", "#2003", "JP", "s", "manufacturing", "1", "1", "1", *[""] * 6]
    text = ("# a comment\n" + HEADER.replace(",", delimiter) + "\n"
            + delimiter.join(cells) + "\n\n" + delimiter * 13 + "\n")
    report = parse(text, CsvSchema(delimiter=delimiter))
    assert len(report.dataset) == 0
    assert [(issue.line, issue.reason) for issue in report.skipped] == [
        (3, "firm_id: mandatory cell is empty"), (5, "firm_id: mandatory cell is empty")]


def test_records_of_a_parsed_dataset_are_views_shared_with_its_filters():
    text = HEADER + "\n" + "".join(
        f"F{i},2003,JP,s,manufacturing,{100 + i},40,{i},,{i},,,,\n" for i in range(6))
    dataset = parse(text).dataset
    kept = filter_dataset(dataset, min_workers=2, require_positive=("capital",))
    assert [r.firm_id for r in kept.records] == ["F2", "F3", "F4", "F5"]
    assert kept.records[0] is dataset.records[2]
    assert dataset.records is dataset.records
    assert [r.capital for r in dataset.records] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert dataset.records[0].total_labor_cost is None


def test_workers_beyond_64_bits_are_a_row_error():
    report = parse(HEADER + "\nF1,2003,JP,s,manufacturing,1,1,100000000000000000000,,,,,,\n")
    assert len(report.dataset) == 0
    assert report.skipped[0].reason == (
        "workers must be <= 9223372036854775807, got 100000000000000000000")
