import decimal
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from concgraph import (
    DataError,
    DomainError,
    PrecisionSpec,
    SymmetricMatrix,
    TestConfig,
    estimate_size,
    sample_gaussian,
    select_graph,
)
from concgraph import cli, distributions, independence, selection
from concgraph.cli import json_dumps, main, read_dataset_csv


def write_csv(path, names, rows):
    lines = [",".join(names)]
    lines.extend(",".join(repr(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def chain_data(dim, n, seed, rho=-0.3):
    """n draws from a chain model: unit-diagonal precision with rho on
    every (i, i + 1)."""
    k = np.eye(dim)
    idx = np.arange(dim - 1)
    k[idx, idx + 1] = k[idx + 1, idx] = rho
    return sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), n, seed=seed)


@pytest.fixture
def sample_csv(tmp_path):
    spec = PrecisionSpec.single_edge(3, 0, 1, 0.8)
    data = sample_gaussian(spec, 30, seed=5)
    path = tmp_path / "data.csv"
    write_csv(path, data.names, data.values.tolist())
    return path, data


class TestJsonDumps:
    def test_seventeen_significant_digits(self):
        assert json_dumps({"x": 0.05}) == '{"x": 0.050000000000000003}'

    def test_types(self):
        assert (
            json_dumps({"a": [1, 2.5], "b": True, "c": None, "d": "q\"uote"})
            == '{"a": [1, 2.5], "b": true, "c": null, "d": "q\\"uote"}'
        )

    def test_round_trips_through_json(self):
        doc = {"v": [0.1, 1e-300, 123456.789, -4.0], "n": 7}
        parsed = json.loads(json_dumps(doc))
        assert parsed["v"] == doc["v"]


# Control characters other than newline, CR and tab, which the writer
# before the exact-type dispatch left unescaped.
_BARE_CONTROLS = [chr(k) for k in range(32) if chr(k) not in "\n\r\t"]

_json_text = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters=_BARE_CONTROLS),
    max_size=12,
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.05]),
    _json_text,
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
)
json_documents = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(_json_text, st.integers()), inner, max_size=5),
    ),
    max_leaves=40,
)
_UNWRITABLE = [
    float("nan"),
    float("inf"),
    float("-inf"),
    np.float64("inf"),
    np.float32("nan"),
    {1, 2},
    b"bytes",
    object(),
    np.zeros(2),
]


class TestJsonWriterAgainstOracle:
    @given(doc=json_documents)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_the_isinstance_writer(self, doc):
        assert json_dumps(doc) == oracles.json_dumps(doc)

    @given(doc=json_documents, bad=st.sampled_from(_UNWRITABLE), where=st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_same_error_text(self, doc, bad, where):
        wrapped = ([doc, bad], {"k": doc, "x": [bad]}, bad)[where]
        with pytest.raises(DomainError) as expected:
            oracles.json_dumps(wrapped)
        with pytest.raises(DomainError) as got:
            json_dumps(wrapped)
        assert str(got.value) == str(expected.value)

    def test_every_control_character_round_trips(self):
        names = ["".join(chr(k) for k in range(32)), "a\x01b", "d\x0ce", 'q"\\']
        text = json_dumps({"names": names})
        assert json.loads(text) == {"names": names}
        assert "\\u0001" in text and "\\n" in text and "\\t" in text


_FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.05]),
)
_COLUMN_CELLS = (
    _FLOAT_CELLS,
    _FLOAT_CELLS.map(np.float64),
    st.integers(-(2**62), 2**62),
    st.booleans(),
)


_TABLE_KEYS = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
    st.sampled_from(["{}", "{0}", "a\x01}", 'q"\\', "\t\n", "{:.17g}"]),
)


@st.composite
def tables(draw):
    """Columns of one cell type each, equal in length, under distinct
    keys that may hold control characters, quotes and braces."""
    rows = draw(st.integers(0, 8))
    keys = draw(st.lists(_TABLE_KEYS, min_size=1, max_size=5, unique=True))
    columns = {}
    for key in keys:
        cell = draw(st.sampled_from(_COLUMN_CELLS))
        columns[key] = draw(st.lists(cell, min_size=rows, max_size=rows))
    return columns


class TestTableWriter:
    @given(columns=tables())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_emit_on_row_dicts(self, columns):
        rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
        assert cli._json_table(columns) == cli._emit(rows)
        # the table is written as it is inside a document
        assert json_dumps({"n": 1, "rows": cli._json_table(columns)}) == json_dumps(
            {"n": 1, "rows": rows}
        )
        # a tab-separated row from the same cells
        fields, cells = cli._column_cells(list(columns.values()))
        want = ["\t".join(cli._emit(v) for v in row) for row in zip(*columns.values())]
        assert list(map("\t".join(fields).format, *cells)) == want

    @pytest.mark.parametrize("count", [0, 1, cli._ROW_BLOCK, cli._ROW_BLOCK + 1, 2 * cli._ROW_BLOCK + 3])
    def test_rows_joined_across_blocks(self, count):
        rng = np.random.default_rng(count)
        columns = {"i": list(range(count)), "x": rng.standard_normal(count).tolist()}
        rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
        assert cli._json_table(columns) == cli._emit(rows)

    def test_columns_become_python_values_a_block_at_a_time(self):
        # the peak is the text and its joined blocks; the columns as whole
        # lists of Python values took 6 MB more at these 32,768 rows
        count = 8 * cli._ROW_BLOCK
        rng = np.random.default_rng(5)
        columns = {"i": np.arange(count), "reject": rng.random(count) < 0.5}
        columns |= {key: rng.standard_normal(count) for key in ("x", "y", "z")}
        cli._json_table(columns)
        tracemalloc.start()
        try:
            text = cli._json_table(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text) + 1.5e6

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    def test_non_finite_cell_is_a_domain_error(self, bad):
        columns = {"i": [0, 1, 2], "x": [0.5, bad, float("nan")]}
        rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
        with pytest.raises(DomainError) as expected:
            cli._emit(rows)
        with pytest.raises(DomainError) as got:
            cli._json_table(columns)
        assert str(got.value) == str(expected.value)


def read_outcome(read, path):
    """What a reader makes of a file: names, shape and array bits, or the
    text of its DataError."""
    try:
        data = read(path)
    except DataError as exc:
        return str(exc)
    return data.names, data.values.shape, data.values.tobytes()


def decimal_corpus(seed, count):
    """Decimal texts that rounding twice, to an extended double and then
    to a double, can misread: ``count`` values across 1e±30 in each of
    five formats; ``count // 4`` values in the subnormal range in two
    formats; and the exact midpoint after each normal and subnormal value
    drawn, in full, with the two decimals one unit away from it in its
    last digit."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(count) * 10.0 ** rng.uniform(-30, 30, count)
    formats = ("{!r}", "{:.17g}", "{:.20g}", "{:.25e}", "{:.6f}")
    texts = [fmt.format(v) for fmt in formats for v in x.tolist()]
    exact = decimal.Context(prec=2000)
    tiny = rng.uniform(-1, 1, count // 4) * 2.0**-1022
    lo = np.concatenate([rng.standard_normal(count) * 10.0 ** rng.uniform(-30, 30, count), tiny])
    for a, b in zip(lo.tolist(), np.nextafter(lo, np.inf).tolist()):
        mid = exact.divide(exact.add(decimal.Decimal(a), decimal.Decimal(b)), 2)
        unit = decimal.Decimal((0, (1,), mid.as_tuple().exponent))
        texts += [format(mid, "e"), format(exact.add(mid, unit), "e"), format(exact.subtract(mid, unit), "e")]
    return texts + [repr(v) for v in tiny.tolist()] + [f"{v:.25e}" for v in tiny.tolist()]


# Cells at the edges of the double range: half the least subnormal (which
# rounds to 0) and just above it, an underflow to -0, the largest
# subnormal and the least normal, and the largest double.  Between the
# largest subnormal and the least normal, strtold rounds the decimals
# just below their midpoint to the midpoint itself, which is a normal
# extended value whose rounding to double ties up to the least normal.
EDGE_TEXTS = [
    format(decimal.Decimal(5e-324) / 2, "e"), "2.4703282292062328e-324", "-1e-400",
    "2.2250738585072009e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
    "2.22507385850720113605740979670913e-308", "2.22507385850720113605740979670914e-308",
    "-2.22507385850720113605740979670913e-308", "-2.22507385850720113605740979670914e-308",
    "-0", "0.0", "+.5", "7.",
]


@pytest.fixture(params=["native", "float64"])
def bulk_parse(request, monkeypatch):
    """The bulk route as this platform runs it, and parsing doubles
    directly, as it does where np.longdouble is not an x87 extended double."""
    if request.param == "float64":
        monkeypatch.setattr(cli, "_EXTENDED", False)


NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)
# Cells numpy parses, cells only Python's float parses, and cells neither
# parses or that parse to a non-finite value.
ODD_TEXTS = st.sampled_from(
    [
        '"1.5"', '" -2e3 "', " 4 ", "\t5", "6\x0b", "\xa07", "1_0",
        "\u0661\u0662", "\u0663.5", "nan", "-Infinity", "1e400", "inf",
        "", " ", "x", "#1", "2#3", '"9,1"', "0x10", "1 2",
    ]
)


@st.composite
def csv_texts(draw):
    """A CSV file of one to three columns: quoted or padded header names,
    zero to four data rows of numbers mixed with odd cells, and now and
    then a ragged row, a trailing comma or a blank line (before the
    header too), with LF or CRLF line endings."""
    dim = draw(st.integers(1, 3))
    cell = st.one_of(NUMBER_TEXTS, NUMBER_TEXTS, NUMBER_TEXTS, ODD_TEXTS)
    rare = st.integers(0, 9).map(lambda k: k == 0)
    lines = [""] if draw(rare) else []
    names = [f"v{k}" for k in range(dim)]
    lines.append(",".join(draw(st.sampled_from([v, f'"{v}"', f" {v}\t"])) for v in names))
    for _ in range(draw(st.integers(0, 4))):
        if draw(rare):
            lines.append("")
        width = dim + draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
        line = ",".join(draw(cell) for _ in range(width))
        lines.append(line + "," if draw(rare) else line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


class TestReadCsv:
    def test_reads_header_and_rows(self, tmp_path):
        p = tmp_path / "ok.csv"
        write_csv(p, ("a", "b"), [[1.0, 2.0], [3.0, 4.5]])
        d = read_dataset_csv(str(p))
        assert d.names == ("a", "b")
        assert d.values.tolist() == [[1.0, 2.0], [3.0, 4.5]]

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
        with pytest.raises(Exception, match=r"row 3, column 'b'"):
            read_dataset_csv(str(p))

    def test_missing_value_is_an_error(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("a,b\n1.0,\n3.0,4.0\n", encoding="utf-8")
        with pytest.raises(Exception, match="row 2"):
            read_dataset_csv(str(p))

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1.0,2.0,9.0\n3.0,4.0\n", encoding="utf-8")
        with pytest.raises(Exception, match="expected 2 fields"):
            read_dataset_csv(str(p))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_exit_2_names_row_and_column(self, tmp_path, capsys, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"a,b,c\n1.0,2.0,3.0\n4.0,{cell},6.0\n7.0,8.0,9.5\n", encoding="utf-8")
        assert main(["select", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert "row 3, column 'b'" in err
        assert "non-finite" in err and repr(cell) in err

    def test_duplicate_names(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("a,a\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        with pytest.raises(Exception, match="duplicate"):
            read_dataset_csv(str(p))

    def test_header_only_file_exit_2_without_a_warning(self, tmp_path, capsys):
        p = tmp_path / "header.csv"
        p.write_text("a,b\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["select", "--input", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: need at least two observation rows\n"

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        (" ,b\n1.0,2.0\n3.0,4.0\n", "header contains an empty variable name"),
    ], ids=["empty file", "empty name"])
    def test_unusable_header_exit_2(self, tmp_path, capsys, text, message):
        p = tmp_path / "header.csv"
        p.write_text(text, encoding="utf-8")
        assert main(["select", "--input", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: {message}\n"

    def test_blank_line_before_header(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\na,b\n1.0,2.0\n\n3.0,4.5\n", encoding="utf-8")
        d = read_dataset_csv(str(p))
        assert d.names == ("a", "b")
        assert d.values.tolist() == [[1.0, 2.0], [3.0, 4.5]]

    def test_quoted_numeric_cell(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_text('"a",b\n"1.5",2.0\n3.0," 4e1 "\n', encoding="utf-8")
        d = read_dataset_csv(str(p))
        assert d.names == ("a", "b")
        assert d.values.tolist() == [[1.5, 2.0], [3.0, 40.0]]

    @pytest.mark.parametrize("scale", [1.0, 1e-7, 1e9])
    def test_plain_numeric_file_takes_the_bulk_route(self, tmp_path, monkeypatch, scale):
        # files as scripts/make_dataset.py and the benchmark write them must
        # never need the per-cell route, or the bulk parse gains nothing
        data = chain_data(8, 500, seed=6)
        values = data.values * scale + 3.0 * scale
        p = tmp_path / "plain.csv"
        write_csv(p, data.names, values.tolist())
        expected = oracles.read_dataset_cells(str(p))

        def refuse(path):
            raise AssertionError(f"{path} was read cell by cell")

        monkeypatch.setattr(cli, "_read_dataset_cells", refuse)
        d = read_dataset_csv(str(p))
        assert d.names == expected.names
        assert d.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("ends", [0, 1, 3], ids=["no last end", "last end", "blank end"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("dim, n", [(8, 500), (4000, 3)], ids=["tall", "line over a block"])
    def test_crlf_blank_and_long_lines_take_the_bulk_route(
        self, tmp_path, monkeypatch, ends, end, dim, n
    ):
        values = np.random.default_rng(dim).standard_normal((n, dim))
        lines = [",".join(f"x{k}" for k in range(dim)), ""]
        for k, row in enumerate(values.tolist()):
            lines += [",".join(map(repr, row))] + [""] * (k % 7 == 6)
        p = tmp_path / "plain.csv"
        p.write_bytes((end.join(lines) + end * ends).encode())
        if dim > 8:
            assert min(map(len, lines[2:])) > cli._BLOCK_CHARS
        expected = oracles.read_dataset_cells(str(p))

        def refuse(path):
            raise AssertionError(f"{path} was read cell by cell")

        monkeypatch.setattr(cli, "_read_dataset_cells", refuse)
        d = read_dataset_csv(str(p))
        assert d.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("seed", [11, 12])
    def test_bulk_route_reads_every_cell_as_float_does(self, tmp_path, monkeypatch, seed, bulk_parse):
        texts = decimal_corpus(seed, 4000) + EDGE_TEXTS
        texts += ["1"] * (-len(texts) % 5)
        p = tmp_path / "corpus.csv"
        p.write_text("a,b,c,d,e\n" + "".join(
            ",".join(texts[k:k + 5]) + "\n" for k in range(0, len(texts), 5)
        ), encoding="utf-8")

        def refuse(path):
            raise AssertionError(f"{path} was read cell by cell")

        monkeypatch.setattr(cli, "_read_dataset_cells", refuse)
        got = read_dataset_csv(str(p)).values.ravel()
        want = np.array([float(text) for text in texts])
        assert got.tobytes() == want.tobytes()
        if cli._EXTENDED:
            # rounding strtold's extended values once more gets some of
            # these cells wrong, so the repair ran and mattered
            with np.errstate(all="ignore"):
                twice = np.fromstring(",".join(texts), dtype=np.longdouble, sep=",").astype(np.float64)
            assert np.count_nonzero(twice.view(np.uint64) != want.view(np.uint64)) > 100

    @pytest.mark.parametrize("text", [
        "a,b,c\n1,2, \n4,5,6\n",
        "a,b,c\r\n1,2,\r\n4,5,6\r\n",
        "a,b,c\n1,2,\r4,5,6\n",
        "a,b\n0x1p3,2\n3,4\n",
        "a,b\n1,2,\n3,4,\n",
        "a,b,c\n1,,2\n3,4,5\n",
        "a,b\n1,2\n3,1e\n",
        "a,b\n1,2\n3,4e-5-6\n",
    ], ids=["trailing space", "empty cell before CRLF", "lone CR", "hex float",
            "trailing comma", "empty cell", "bare exponent", "two numbers"])
    @pytest.mark.parametrize("parser", ["numpy", "numpy 1.x", "empty as 0"])
    def test_what_fromstring_misreads_takes_the_per_cell_route(
        self, tmp_path, monkeypatch, text, parser, bulk_parse
    ):
        # np.fromstring reads "1,2, " and "1,2,\r" with a trailing 0, and
        # accepts a hex float and a trailing separator.  numpy 1.24-1.26
        # warn and return the values read so far where 2.x raises, and the
        # route's own checks refuse an empty cell that a parser reads as 0.
        p = tmp_path / "hazard.csv"
        p.write_bytes(text.encode())
        fromstring = np.fromstring

        def warns(string, dtype, sep):
            try:
                return fromstring(string, dtype=dtype, sep=sep)
            except ValueError:
                warnings.warn("string or file could not be read to its end", DeprecationWarning)
                return np.zeros(1, dtype)

        def empty_as_0(string, dtype, sep):
            # a trailing separator ends the text, as numpy reads it
            cells = string.removesuffix(sep.encode()).split(sep.encode())
            return np.array([float(cell or 0) for cell in cells], dtype)

        if parser != "numpy":
            monkeypatch.setattr(np, "fromstring", warns if parser == "numpy 1.x" else empty_as_0)
        cells, calls = cli._read_dataset_cells, []
        monkeypatch.setattr(cli, "_read_dataset_cells", lambda path: calls.append(path) or cells(path))
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            mine = read_outcome(read_dataset_csv, str(p))
        assert leaked == []
        assert calls == [str(p)]
        assert mine == read_outcome(oracles.read_dataset_cells, str(p))

    def test_a_parse_short_of_the_cells_takes_the_per_cell_route(self, tmp_path, monkeypatch):
        p = tmp_path / "plain.csv"
        write_csv(p, ("a", "b"), [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]])
        fromstring = np.fromstring
        monkeypatch.setattr(np, "fromstring", lambda *a, **k: fromstring(*a, **k)[:-1])
        cells, calls = cli._read_dataset_cells, []
        monkeypatch.setattr(cli, "_read_dataset_cells", lambda path: calls.append(path) or cells(path))
        assert read_dataset_csv(str(p)).values.tolist() == [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]]
        assert calls == [str(p)]

    def test_bulk_route_peaks_below_the_loadtxt_read(self, tmp_path):
        values = np.random.default_rng(3).standard_normal((20_000, 8))
        p = tmp_path / "tall.csv"
        write_csv(p, [f"x{k}" for k in range(8)], values.tolist())
        read_dataset_csv(str(p))
        tracemalloc.start()
        try:
            d = read_dataset_csv(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.values.tobytes() == values.tobytes()
        # np.loadtxt peaked at 2.59 MiB for this 1.22 MiB result
        assert peak <= (2.59 + 0.25) * 2**20

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, capsys):
        # spreadsheets write UTF-8 CSV with a leading U+FEFF
        data = chain_data(3, 30, seed=2)
        outputs = []
        for mark in ("", "\ufeff"):
            path = tmp_path / f"mark{len(mark)}.csv"
            write_csv(path, [mark + "a", "b", "c"], data.values.tolist())
            for read in (read_dataset_csv, cli._read_dataset_cells):
                assert read(str(path)).names == ("a", "b", "c")
            assert main(["select", "--input", str(path), "--format", "tsv"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @given(text=csv_texts())
    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_per_cell_reader(self, tmp_path, text):
        p = tmp_path / "fuzz.csv"
        with open(p, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine = read_outcome(read_dataset_csv, str(p))
        assert mine == read_outcome(oracles.read_dataset_cells, str(p))


class TestSelectCommand:
    def test_json_output_schema(self, sample_csv, capsys):
        path, data = sample_csv
        code = main(["select", "--input", str(path), "--alpha", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "n", "N", "alpha", "method", "correction", "p_value_kind",
            "names", "edges", "decisions",
        }
        assert doc["n"] == 30
        assert doc["N"] == 3
        assert doc["p_value_kind"] == "exact"
        assert [0, 1] in doc["edges"]
        for decision in doc["decisions"]:
            assert set(decision) == {"i", "j", "statistic", "p_value", "reject"}

    def test_matches_library(self, sample_csv, capsys):
        path, data = sample_csv
        main(["select", "--input", str(path), "--alpha", "0.05", "--method", "umpu"])
        doc = json.loads(capsys.readouterr().out)
        graph = select_graph(data, TestConfig(alpha=0.05, method="umpu"))
        assert doc["edges"] == [list(e) for e in graph.edge_list()]
        for emitted, decision in zip(doc["decisions"], graph.decisions):
            assert emitted["statistic"] == decision.statistic
            assert emitted["reject"] == decision.reject

    def test_round_trip_byte_identical(self, sample_csv, capsys):
        path, _ = sample_csv
        main(["select", "--input", str(path)])
        first = capsys.readouterr().out
        main(["select", "--input", str(path)])
        second = capsys.readouterr().out
        assert first == second

    def test_dot_format(self, sample_csv, capsys):
        path, _ = sample_csv
        code = main(["select", "--input", str(path), "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("graph {")
        assert '"x1" -- "x2";' in out

    def test_tsv_format(self, sample_csv, capsys):
        path, _ = sample_csv
        code = main(["select", "--input", str(path), "--format", "tsv"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "i\tj\tname_i\tname_j\tstatistic\tp_value\treject"
        assert len(out) == 4  # header + 3 pairs

    def test_control_characters_in_names_give_valid_json(self, tmp_path, capsys):
        data = chain_data(3, 30, seed=1)
        path = tmp_path / "ctrl.csv"
        write_csv(path, ["a\x01b", "c", "d\x0ce"], data.values.tolist())
        code = main(["select", "--input", str(path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["names"] == ["a\x01b", "c", "d\x0ce"]

    def test_tsv_rows_keep_seven_fields(self, tmp_path, capsys):
        data = chain_data(3, 30, seed=1)
        path = tmp_path / "tab.csv"
        write_csv(path, ['"a\tb"', '"c\nd"', '"e\\f\rg"'], data.values.tolist())
        code = main(["select", "--input", str(path), "--format", "tsv"])
        rows = capsys.readouterr().out.rstrip("\n").split("\n")
        assert code == 0
        assert len(rows) == 4
        assert all(len(row.split("\t")) == 7 for row in rows)
        assert rows[1].split("\t")[2:4] == ["a\\tb", "c\\nd"]
        assert rows[2].split("\t")[3] == "e\\\\f\\rg"

    @pytest.mark.parametrize("correction", ["none", "bonferroni"])
    def test_dot_computes_no_pvalue(self, sample_csv, capsys, monkeypatch, correction):
        def refuse(*args):
            raise AssertionError("p-value computed")

        monkeypatch.setattr(independence, "_exact_p_value", refuse)
        monkeypatch.setattr(selection, "null_corr_pvalues", refuse)
        path, _ = sample_csv
        code = main(
            ["select", "--input", str(path), "--format", "dot", "--correction", correction]
        )
        assert code == 0
        assert '"x1" -- "x2";' in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["json", "tsv", "dot"])
    @pytest.mark.parametrize("correction", ["none", "bonferroni", "holm"])
    @pytest.mark.parametrize("method", ["umpu", "partial-corr", "fisher"])
    def test_one_pvalue_pass_per_graph(
        self, tmp_path, capsys, monkeypatch, method, correction, fmt
    ):
        scalar, bulk = [], []
        exact = independence._exact_p_value
        monkeypatch.setattr(
            independence, "_exact_p_value", lambda *a: scalar.append(a) or exact(*a)
        )
        pvalues_of = selection.null_corr_pvalues
        monkeypatch.setattr(
            selection, "null_corr_pvalues", lambda *a: bulk.append(a) or pvalues_of(*a)
        )
        data = chain_data(12, 60, seed=4)
        path = tmp_path / "chain.csv"
        write_csv(path, data.names, data.values.tolist())
        flags = ["--method", method, "--correction", correction, "--format", fmt]
        assert main(["select", "--input", str(path), *flags]) == 0
        assert capsys.readouterr().out
        # the exact p-values of the 66 pairs are one array pass, which a dot
        # graph needs only for Holm's levels
        passes = method != "fisher" and (fmt != "dot" or correction == "holm")
        assert [len(a[0]) for a in bulk] == [66] * passes
        assert scalar == []

    # m = (n - N) / 2 near 10^4, where the continued fraction takes the most
    # steps, and a half-integer m; the id names a correction other than none
    WRITTEN_PVALUE_CASES = [
        pytest.param(correction, method, dim, n,
                     id=f"{method}-{dim}-{n}" + ("" if correction == "none" else f"-{correction}"))
        for correction in ("none", "holm")
        for dim, n in [(8, 20000), (6, 41)]
        for method in ["umpu", "partial-corr", "fisher"]
    ]

    @pytest.mark.parametrize("correction, method, dim, n", WRITTEN_PVALUE_CASES)
    def test_written_pvalues_equal_the_scalar_ones(
        self, tmp_path, capsys, correction, method, dim, n
    ):
        data = chain_data(dim, n, seed=7)
        path = tmp_path / "chain.csv"
        write_csv(path, data.names, data.values.tolist())
        flags = ["--method", method, "--correction", correction]
        assert main(["select", "--input", str(path), *flags]) == 0
        written = [d["p_value"] for d in json.loads(capsys.readouterr().out)["decisions"]]
        config = TestConfig(0.05, cli._METHOD_FLAGS[method])
        graph = select_graph(read_dataset_csv(str(path)), config, correction)
        assert written == [d.p_value for d in graph.decisions]

    def test_out_file(self, sample_csv, tmp_path, capsys):
        path, _ = sample_csv
        target = tmp_path / "graph.json"
        code = main(["select", "--input", str(path), "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["n"] == 30

    def test_insufficient_sample_exit_2(self, tmp_path, capsys):
        p = tmp_path / "square.csv"
        rows = np.random.default_rng(0).standard_normal((3, 3)).tolist()
        write_csv(p, ("a", "b", "c"), rows)
        code = main(["select", "--input", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "insufficient sample" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0,x\n2.0,3.0\n", encoding="utf-8")
        code = main(["select", "--input", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "row 2" in err and "'b'" in err

    def test_singular_covariance_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 2))
        rows = np.column_stack([x, x[:, 0]]).tolist()
        p = tmp_path / "singular.csv"
        write_csv(p, ("a", "b", "c"), rows)
        code = main(["select", "--input", str(p)])
        assert code == 2
        assert "positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["partial-corr", "umpu"])
    def test_raw_unit_csv_gives_the_same_edges(self, tmp_path, capsys, method):
        # half the columns x 1e5 and half x 1e-5, each shifted: once a false
        # NotPositiveDefinite under a trace-relative pivot floor, and a
        # different graph from umpu's determinant quadratic on raw units
        k = np.eye(40)
        idx = np.arange(39)
        k[idx, idx + 1] = k[idx + 1, idx] = -0.3
        data = sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), 160, seed=4)
        scales = np.repeat([1e5, 1e-5], 20)
        shifts = scales * np.linspace(-50.0, 50.0, 40)
        docs = []
        for name, values in (("std", data.values), ("raw", data.values * scales + shifts)):
            path = tmp_path / f"{name}.csv"
            write_csv(path, data.names, values.tolist())
            assert main(["select", "--input", str(path), "--method", method]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        std, raw = docs
        assert std["edges"]
        assert raw["edges"] == std["edges"]
        assert [d["reject"] for d in raw["decisions"]] == [d["reject"] for d in std["decisions"]]

    @pytest.mark.parametrize("command", ["select", "verify"])
    def test_duplicated_column_exit_2_names_the_variable(self, tmp_path, capsys, command):
        x = np.random.default_rng(2).standard_normal((20, 3))
        rows = np.column_stack([x, x[:, 1]]).tolist()
        p = tmp_path / "dup.csv"
        write_csv(p, ("a", "b", "c", "d"), rows)
        assert main([command, "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert "positive definite" in err
        assert "variable 'd'" in err

    @pytest.mark.parametrize("command", ["select", "verify"])
    @pytest.mark.parametrize("where", ["body", "header"])
    def test_cell_over_csv_field_limit_exit_2(self, tmp_path, capsys, command, where):
        # csv refuses a field over 131,072 characters; once a traceback
        long = "x" * 140_000
        p = tmp_path / "long.csv"
        if where == "body":
            p.write_text(f"a,b,c\n1,2,3\n4,{long},6\n7,8,9\n", encoding="utf-8")
        else:
            p.write_text(f"a,{long},c\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        assert main([command, "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = 3 if where == "body" else 1
        assert captured.err == (
            f"error: {p}: line {line}: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("command", ["select", "verify"])
    @pytest.mark.parametrize(
        "where, byte", [("header", 0xE9), ("body", 0xFF), ("after the last row", 0xE9)]
    )
    def test_byte_that_is_not_utf8_exit_2(self, tmp_path, capsys, command, where, byte):
        # once a UnicodeDecodeError traceback, wherever the byte was
        lines = [b"a,b,c", b"1,2,3", b"4,5,7", b"7,8,8"]
        bad = bytes([byte])
        if where == "header":
            lines[0] = b"a" + bad + b",b,c"
        elif where == "body":
            lines[2] = b"4," + bad + b"5,7"
        else:
            lines.append(bad)
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"\n".join(lines) + b"\n")
        assert main([command, "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: not UTF-8 text: cannot decode byte 0x{byte:02x}\n"

    def test_non_convergence_exit_2(self, sample_csv, capsys, monkeypatch):
        path, _ = sample_csv
        distributions.beta_sym_quantile.cache_clear()
        monkeypatch.setattr(distributions, "_cf_max_iter", lambda a, b: 1)
        code = main(["select", "--input", str(path), "--alpha", "0.0321"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: incomplete beta continued fraction did not converge "
            "for shapes (13.5, 13.5) (n = 30, N = 3)\n"
        )

    @pytest.mark.parametrize("method", ["umpu", "partial-corr", "fisher"])
    def test_power_of_two_units_write_the_same_bytes(self, tmp_path, capsys, method):
        # in the data's units S would overflow on the odd columns and
        # underflow on the even ones
        data = chain_data(8, 40, seed=2)
        scale = np.where(np.arange(8) % 2 == 1, 2.0**600, 2.0**-600)
        outputs = []
        for name, values in (("unit", data.values), ("scaled", data.values * scale)):
            path = tmp_path / f"{name}.csv"
            write_csv(path, data.names, values.tolist())
            for flags in (["--format", "tsv"], ["--correction", "holm"]):
                assert main(["select", "--input", str(path), "--method", method, *flags]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]

    def test_column_spanning_the_double_range(self, tmp_path, capsys):
        # max - min of the first column overflows in the data's units
        values = np.array(chain_data(3, 30, seed=2).values)
        values[:, 0] *= 1.5e308 / np.abs(values[:, 0]).max()
        values[:2, 0] = [1.5e308, -1.5e308]
        path = tmp_path / "wide.csv"
        write_csv(path, ("a", "b", "c"), values.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["select", "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("alpha", ["1e-17", "1e-300"])
    def test_fisher_at_a_tiny_level(self, sample_csv, capsys, alpha):
        path, _ = sample_csv
        argv = ["select", "--input", str(path), "--method", "fisher", "--alpha", alpha]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["alpha"] == float(alpha)

    @pytest.mark.parametrize("correction", ["bonferroni", "holm"])
    @pytest.mark.parametrize("alpha", ["1e-321", "3e-321"])
    def test_corrected_level_at_the_smallest_double_exit_2(
        self, tmp_path, capsys, correction, alpha
    ):
        # each alpha is admissible, but alpha / 435 rounds to 0 (1e-321) or
        # to 5e-324 (3e-321), which has no critical value; the error names
        # the correction, the given alpha and the divisor, never the level
        data = chain_data(30, 100, seed=1)
        path = tmp_path / "wide.csv"
        write_csv(path, data.names, data.values.tolist())
        argv = ["select", "--input", str(path), "--correction", correction, "--alpha", alpha]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            f"error: significance level {alpha} is too small for the {correction} "
            "correction: alpha / 435 is at most 5e-324\n"
        ))

    def test_missing_input_flag_exit_1(self, capsys):
        assert main(["select"]) == 1

    def test_bad_alpha_exit_1(self, sample_csv, capsys):
        path, _ = sample_csv
        assert main(["select", "--input", str(path), "--alpha", "1.5"]) == 1


class TestVerifyCommand:
    def test_random_instances_pass(self, capsys):
        code = main(["verify", "--reps", "300", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["instances"] == 300
        assert doc["disagreements"] == 0
        assert doc["max_statistic_gap"] <= 1e-9
        assert doc["equivalent"] is True

    def test_sign_flip_flag_is_unknown(self, capsys):
        assert main(["verify", "--reps", "50", "--inject-sign-flip"]) == 1
        assert "unrecognized arguments: --inject-sign-flip" in capsys.readouterr().err

    def test_wrong_conditional_route_fails(self, monkeypatch, capsys):
        route = independence._roots_and_statistic

        def flipped(a, b, c, x):
            x1, x2, t = route(a, b, c, x)
            return x1, x2, -t

        monkeypatch.setattr(independence, "_roots_and_statistic", flipped)
        assert main(["verify", "--reps", "200"]) == 3
        assert json.loads(capsys.readouterr().out)["equivalent"] is False

    @pytest.mark.parametrize("mode", ["reps", "input"])
    def test_threshold_gap_above_its_limit_fails(self, tmp_path, monkeypatch, capsys, mode):
        # the route's q off by a relative 1e-9 moves 1 - 2q by about 1e-9:
        # above the 1e-10 limit on |(1 - 2q) - c|, and moving no decision
        quantile = independence.beta_sym_quantile
        monkeypatch.setattr(
            independence, "beta_sym_quantile", lambda p, m: quantile(p, m) * (1.0 + 1e-9)
        )
        argv = ["verify", "--reps", "200", "--seed", "3"]
        if mode == "input":
            data = chain_data(40, 160, seed=4)
            path = tmp_path / "chain.csv"
            write_csv(path, data.names, data.values.tolist())
            argv = ["verify", "--input", str(path)]
        assert main(argv) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["disagreements"] == doc["raw_scale_disagreements"] == 0
        assert doc["max_statistic_gap"] <= 1e-9
        assert doc["max_threshold_gap"] > 1e-10
        assert doc["equivalent"] is False

    def test_input_with_perturbed_lemma_inverse_fails(self, tmp_path, monkeypatch, capsys):
        # G_ij of R^-1 off by a relative 1e-6 at one pair fails the check
        data = chain_data(40, 160, seed=4)
        path = tmp_path / "chain.csv"
        write_csv(path, data.names, data.values.tolist())
        inv = np.linalg.inv

        def perturbed(a):
            g = inv(a)
            g[0, 1] *= 1.0 + 1e-6
            g[1, 0] *= 1.0 + 1e-6
            return g

        monkeypatch.setattr(np.linalg, "inv", perturbed)
        assert main(["verify", "--input", str(path)]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["equivalent"] is False
        assert doc["max_statistic_gap"] > 1e-9

    def test_input_with_singular_lemma_inverse_exits_2(self, sample_csv, monkeypatch, capsys):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        path, _ = sample_csv
        monkeypatch.setattr(np.linalg, "inv", singular)
        assert main(["verify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the correlation matrix is numerically singular")

    def test_single_instance_mode(self, sample_csv, capsys):
        path, _ = sample_csv
        code = main(["verify", "--input", str(path), "--alpha", "0.05"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["instances"] == 3
        assert len(doc["edges"]) == 3
        row = doc["edges"][0]
        assert {"i", "j", "t", "r", "lower", "upper", "reject", "gap"} <= set(row)

    def test_input_with_one_variable_writes_an_empty_edge_table(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        write_csv(path, ("a",), [[1.0], [2.5], [3.0]])
        assert main(["verify", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instances"] == 0
        assert doc["equivalent"] is True
        assert doc["edges"] == []

    def test_input_makes_one_public_test_per_pair(self, sample_csv, capsys, edge_test_calls):
        path, _ = sample_csv
        assert main(["verify", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["instances"] == 3
        assert edge_test_calls == [("partial_corr", i, j) for i, j in ((0, 1), (0, 2), (1, 2))]

    def test_input_keeps_no_decision_while_writing(self, sample_csv, capsys, monkeypatch):
        # each decision is read into the columns as it is made, so none is
        # alive while the table, the peak of the command's memory, is written
        path, _ = sample_csv
        table = cli._json_table
        alive = []

        def counted(columns):
            alive.append(sum(type(o) is independence.EdgeDecision for o in gc.get_objects()))
            return table(columns)

        monkeypatch.setattr(cli, "_json_table", counted)
        assert main(["verify", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["instances"] == 3
        assert alive == [0]

    def test_input_at_twenty_variables_matches_select(self, tmp_path, capsys):
        # every pair of an N = 20 file through the determinant quadratic:
        # t meets r to rounding and the decisions are select's
        k = np.eye(20)
        idx = np.arange(19)
        k[idx, idx + 1] = k[idx + 1, idx] = -0.35
        data = sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), 80, seed=9)
        path = tmp_path / "n20.csv"
        write_csv(path, data.names, data.values.tolist())
        assert main(["verify", "--input", str(path)]) == 0
        verify = json.loads(capsys.readouterr().out)
        assert main(["select", "--input", str(path)]) == 0
        select = json.loads(capsys.readouterr().out)
        assert verify["instances"] == 190
        assert verify["equivalent"] is True
        assert verify["max_statistic_gap"] <= 1e-14
        rejects = [(e["i"], e["j"], e["reject"]) for e in verify["edges"]]
        assert rejects == [(d["i"], d["j"], d["reject"]) for d in select["decisions"]]
        assert any(reject for _, _, reject in rejects)

    @pytest.mark.parametrize("scale", [1e4, 1e8, 1e-4])
    def test_input_in_large_or_small_units_passes(self, tmp_path, capsys, scale):
        # the raw-scale thresholds once came from det S, which overflowed
        # or underflowed at these scales
        data = chain_data(40, 160, seed=4)
        path = tmp_path / "scaled.csv"
        write_csv(path, data.names, (data.values * scale).tolist())
        assert main(["verify", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instances"] == 780
        assert doc["raw_scale_disagreements"] == 0
        assert doc["equivalent"] is True

    def test_input_in_mixed_units_passes(self, tmp_path, capsys):
        # half the columns x1e5 and half x1e-5: the raw thresholds once
        # came from S / g, which removed only the common scale
        data = chain_data(40, 160, seed=4)
        scale = np.where(np.arange(40) < 20, 1e5, 1e-5)
        path = tmp_path / "mixed.csv"
        write_csv(path, data.names, (data.values * scale).tolist())
        assert main(["verify", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instances"] == 780
        assert doc["raw_scale_disagreements"] == 0
        assert doc["equivalent"] is True

    def test_single_instance_data_error(self, tmp_path, capsys):
        p = tmp_path / "square.csv"
        write_csv(p, ("a", "b"), [[1.0, 2.0], [2.0, 1.0]])
        code = main(["verify", "--input", str(p)])
        assert code == 2

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_exit_1(self, capsys, reps):
        code = main(["verify", f"--reps={reps}", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: instance count must be a positive integer, got {reps}\n"
        )

    def test_input_ignores_reps(self, sample_csv, capsys):
        path, _ = sample_csv
        assert main(["verify", "--input", str(path), "--reps=0"]) == 0
        assert json.loads(capsys.readouterr().out)["instances"] == 3


class TestMonteCarloCommand:
    def test_size_report_deterministic(self, capsys):
        argv = [
            "montecarlo", "--dim", "3", "--n", "10", "--reps", "1000",
            "--seed", "7", "--alpha", "0.05",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["replications"] == 1000
        assert doc["rho"] == 0.0
        assert doc["ks_statistic"] is not None
        assert doc["per_method"]["partial_corr"]["rate"] == pytest.approx(
            0.05, abs=0.03
        )

    def test_fisher_at_a_tiny_level(self, capsys):
        argv = ["montecarlo", "--dim", "3", "--n", "25", "--reps", "1000",
                "--method", "fisher", "--alpha", "1e-17"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["per_method"]["fisher"]["rejections"] == 0

    def test_size_report_prints_rho_zero(self, capsys):
        argv = ["montecarlo", "--dim", "3", "--n", "10", "--reps", "1000", "--rho", "0"]
        assert main(argv) == 0
        assert '"rho": 0,' in capsys.readouterr().out

    def test_matches_library_report(self, capsys):
        main([
            "montecarlo", "--dim", "3", "--n", "12", "--reps", "1000",
            "--seed", "3", "--alpha", "0.1", "--method", "umpu",
        ])
        doc = json.loads(capsys.readouterr().out)
        report = estimate_size(
            PrecisionSpec.identity(3), 12, 0.1, "umpu", reps=1000, seed=3
        )
        assert doc["per_method"]["umpu"]["rate"] == report.rejection_rate
        assert doc["ks_statistic"] == report.ks_statistic

    def test_power_run_includes_null_rate(self, capsys):
        code = main([
            "montecarlo", "--dim", "3", "--n", "25", "--reps", "1000",
            "--seed", "2", "--rho", "0.5",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["rho"] == 0.5
        assert doc["null_rate"] is not None
        assert doc["per_method"]["partial_corr"]["rate"] > doc["null_rate"]

    def test_too_few_replications_exit_1(self, capsys):
        code = main([
            "montecarlo", "--dim", "3", "--n", "10", "--reps", "500", "--seed", "0",
        ])
        assert code == 1
        assert "1000" in capsys.readouterr().err

    def test_n_not_above_dim_exit_1(self, capsys):
        code = main([
            "montecarlo", "--dim", "5", "--n", "5", "--reps", "1000", "--seed", "0",
        ])
        assert code == 1

    @pytest.mark.parametrize("rho", ["0", "0.3"])
    @pytest.mark.parametrize("dim", ["-1", "0", "1"])
    def test_dim_below_two_exit_1(self, capsys, dim, rho):
        code = main([
            "montecarlo", "--dim", dim, "--n", "25", "--reps", "1000",
            "--seed", "0", "--rho", rho,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: dimension must be an integer >= 2, got {dim}\n"


SRC = Path(__file__).resolve().parents[1] / "src"

# Reports recorded before replications ran in chunks: a size call and a
# power call, 2000 replications each.  name -> (flags, stdout)
PINNED_REPORTS = {
    "size-umpu": (
        ("--n", "25", "--method", "umpu"),
        '{"replications": 2000, "seed": 3, "dim": 5, "n": 25, '
        '"alpha": 0.050000000000000003, "edge": [0, 1], "rho": 0, '
        '"methods": ["umpu"], "per_method": {"umpu": {"rejections": 100, '
        '"rate": 0.050000000000000003, "std_error": 0.004873397172404482}}, '
        '"agreement": {}, "ks_statistic": 0.023832466157363119, '
        '"null_rate": null, "null_std_error": null}\n',
    ),
    "power-fisher": (
        ("--n", "50", "--rho", "0.3", "--method", "fisher"),
        '{"replications": 2000, "seed": 3, "dim": 5, "n": 50, '
        '"alpha": 0.050000000000000003, "edge": [0, 1], '
        '"rho": 0.29999999999999999, "methods": ["fisher"], '
        '"per_method": {"fisher": {"rejections": 1167, '
        '"rate": 0.58350000000000002, "std_error": 0.011023333207337969}}, '
        '"agreement": {}, "ks_statistic": null, '
        '"null_rate": 0.069500000000000006, '
        '"null_std_error": 0.0056863762626122452}\n',
    ),
}


class TestMonteCarloBytes:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("call", list(PINNED_REPORTS))
    def test_report_bytes_pinned(self, call, threads):
        flags, expected = PINNED_REPORTS[call]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["montecarlo", "--dim", "5", "--reps", "2000", "--seed", "3", *flags]
        done = subprocess.run(
            [sys.executable, "-m", "concgraph", *argv],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == expected


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random and statistics cost memory and start-up time; only
    # commands that draw random numbers, or run a Fisher test, import them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, concgraph.cli; "
        "print('numpy.random' in sys.modules, 'statistics' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=False,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False\n", "")


def test_closed_stdout_exits_quietly(tmp_path):
    # a reader that stops early, as `select ... | head -c 100` does: the
    # report is larger than a pipe's buffer, so the write meets the closed
    # pipe
    data = chain_data(60, 240, seed=3)
    path = tmp_path / "wide.csv"
    write_csv(path, data.names, data.values.tolist())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "concgraph", "select", "--input", str(path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), stderr) == (0, b"")


class TestSlicedWrites:
    """A report is written a slice at a time, with the bytes of one write."""

    def test_stdout_and_out_keep_their_bytes(self, tmp_path, monkeypatch, capsys):
        data = chain_data(12, 60, seed=5)
        path = tmp_path / "chain.csv"
        write_csv(path, data.names, data.values.tolist())
        runs = {
            "select": ["select", "--input", str(path), "--correction", "holm"],
            "dot": ["select", "--input", str(path), "--format", "dot"],
            "verify": ["verify", "--input", str(path)],
        }
        want = {}
        for name, args in runs.items():
            assert main(args) == 0
            want[name] = capsys.readouterr().out
            assert main(args + ["--out", str(tmp_path / f"{name}.whole")]) == 0
        writes = []
        monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
        write = cli._write_text
        monkeypatch.setattr(cli, "_write_text", lambda h, t: writes.append(len(t)) or write(h, t))
        for name, args in runs.items():
            assert main(args) == 0
            assert capsys.readouterr().out == want[name]
            assert main(args + ["--out", str(tmp_path / f"{name}.sliced")]) == 0
            whole = (tmp_path / f"{name}.whole").read_bytes()
            assert (tmp_path / f"{name}.sliced").read_bytes() == whole == want[name].encode()
        assert min(writes) > 7 * 40  # every report spans many slices

    def test_slices_end_with_one_newline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_WRITE_SLICE", 3)
        for text in ("", "ab", "abc", "abcd", "abc\n", "abcdef\n"):
            cli._write_output(text, None)
            cli._write_output(text, str(tmp_path / "out"))
            want = text if text.endswith("\n") else text + "\n"
            assert capsys.readouterr().out == want
            assert (tmp_path / "out").read_text(encoding="utf-8") == want

    def test_closed_stdout_mid_slices_exits_quietly(self, tmp_path):
        data = chain_data(60, 240, seed=3)
        path = tmp_path / "wide.csv"
        write_csv(path, data.names, data.values.tolist())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        script = (
            "import sys; from concgraph import cli; cli._WRITE_SLICE = 4096; "
            f"sys.exit(cli.main(['select', '--input', {str(path)!r}]))"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), stderr) == (0, b"")


class TestQuantileCommand:
    def test_null_corr_quantile_at_millions_of_observations(self, capsys):
        code = main(["quantile", "--alpha", "0.05", "--n", "2000000", "--dim", "8"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["value"] == pytest.approx(1.959963984540054 / math.sqrt(1999992), rel=1e-3)

    def test_non_convergence_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(distributions, "_cf_max_iter", lambda a, b: 1)
        code = main(["quantile", "--alpha", "0.0321", "--n", "29", "--dim", "8"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: incomplete beta continued fraction did not converge "
            "for shapes (10.5, 10.5) (n = 29, N = 8)\n"
        )

    def test_beta_quantile(self, capsys):
        code = main(["quantile", "--prob", "0.025", "--m", "2.0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kind"] == "beta_sym_quantile"
        assert doc["value"] == pytest.approx(0.09429932405024609, abs=1e-10)

    def test_null_corr_quantile(self, capsys):
        code = main(["quantile", "--alpha", "0.05", "--n", "7", "--dim", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kind"] == "null_corr_quantile"
        assert doc["value"] == pytest.approx(0.95, abs=1e-12)

    def test_mixed_flags_exit_1(self, capsys):
        assert main(["quantile", "--prob", "0.1", "--m", "2", "--n", "9", "--dim", "3"]) == 1

    def test_no_flags_exit_1(self, capsys):
        assert main(["quantile"]) == 1

    def test_insufficient_sample_exit_1(self, capsys):
        assert main(["quantile", "--alpha", "0.05", "--n", "3", "--dim", "5"]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--prob", "0.3"], "--prob and --m must be given together"),
        (["--n", "10"], "--n and --dim must both be positive"),
    ], ids=["prob without m", "n without dim"])
    def test_half_a_flag_pair_exit_1(self, capsys, flags, message):
        assert main(["quantile", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--prob", "0.3", "--m", "1e14"),
            ("--prob", "0.3", "--m", "1e18"),
            ("--prob", "0.3", "--m", "1e30"),
            ("--prob", "0.3", "--m", "1e100"),
            ("--alpha", "0.05", "--n", str(10**32), "--dim", "3"),
        ],
        ids=["m=1e14", "m=1e18", "m=1e30", "m=1e100", "n=1e32"],
    )
    def test_huge_shape_exits_2(self, flags):
        # once wrong (m = 1e14), an OverflowError traceback (1e30) or no
        # answer within 20 s (the rest): the prefactor is refused instead
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "concgraph", "quantile", *flags],
            env=env, capture_output=True, text=True, timeout=20, check=False,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: incomplete beta prefactor")
        assert done.stderr.count("\n") == 1


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["select", "--input", "x.csv", "--bogus"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_negative_seed(self, capsys):
        assert main(["verify", "--reps", "50", "--seed", "-3"]) == 1

    @pytest.mark.parametrize("argv", [
        ["select", "--input", "missing.csv"],
        ["verify", "--input", "missing.csv"],
        ["montecarlo", "--dim", "3", "--n", "10"],
        ["quantile", "--n", "10", "--dim", "3"],
    ], ids=["select", "verify", "montecarlo", "quantile"])
    def test_level_whose_half_rounds_to_zero_exit_1(self, capsys, argv):
        # 5e-324 lies in (0, 1), but no critical value exists at it; select
        # and verify refuse it before they read their input
        assert main([*argv, "--alpha", "5e-324"]) == 1
        assert capsys.readouterr() == (
            "", "error: significance level 5e-324 is too small: alpha / 2 rounds to 0\n"
        )

    def test_one_parser_serves_every_call(self, sample_csv, capsys):
        # main builds the parser once per process; no flag, default or
        # usage error of one call reaches the next
        path = str(sample_csv[0])
        calls = [
            ["select", "--input", path, "--method", "fisher", "--correction", "holm"],
            ["select", "--input", path],
            ["quantile", "--alpha", "0.1", "--n", "30", "--dim", "3"],
            ["select", "--input", path, "--bogus"],
            ["montecarlo", "--dim", "3", "--n", "10", "--reps", "1000"],
        ]

        def run(argv):
            code = main(argv)
            return code, *capsys.readouterr()

        together = [run(argv) for argv in calls]
        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(run(argv))
        assert together == alone


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["select", "--input", "{csv}"],
        ["verify", "--reps", "20", "--seed", "1"],
        ["montecarlo", "--dim", "3", "--n", "10", "--reps", "1000", "--seed", "1"],
        ["quantile", "--prob", "0.025", "--m", "3.5"],
    ], ids=["select", "verify", "montecarlo", "quantile"])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_exit_2_with_one_error_line(self, sample_csv, tmp_path, capsys, argv, target):
        path, _ = sample_csv
        out = tmp_path / "no" / "such" / "x.json" if target == "missing directory" else tmp_path
        assert main([a.format(csv=path) for a in argv] + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err
