"""Command-line interface.

Subcommands:

* ``select``     - read a CSV dataset, test every pair, emit the graph
* ``verify``     - check agreement of the umpu and partial-correlation
                   tests on random instances (or one user dataset)
* ``montecarlo`` - size/power estimation from a synthetic model
* ``quantile``   - expose the beta and correlation quantiles for scripting

Exit codes: 0 success, 1 usage error, 2 data error, 3 equivalence check
failed.  A reader that closes stdout early, such as ``head``, is not an
error: the rest of the output is dropped without a traceback and the
exit code is the command's own, 0 for a successful run.  Numbers are
serialized with 17 significant digits so outputs can be diffed across
implementations; reports are byte-identical for a fixed seed.  Reports
are written as they are formatted, after every check that can fail, so a
failing command leaves an existing ``--out`` file as it was.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import re
import sys
import warnings
from dataclasses import asdict
from operator import attrgetter

import numpy as np

from .errors import (
    ConcgraphError,
    DataError,
    DomainError,
    InsufficientSample,
    NotPositiveDefinite,
)
from .estimators import Dataset
from .distributions import _level_error, beta_sym_quantile, null_corr_quantile
from .independence import TestConfig, _equivalence_checks, run_edge_test, verify_equivalence
from .selection import CORRECTIONS, _validated_covariance, select_graph
from .simulate import (
    PrecisionSpec,
    _check_instance_count,
    estimate_power,
    estimate_size,
    random_covariance_instances,
)

__all__ = ["main", "read_dataset_csv", "json_dumps"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EQUIVALENCE = 3

STATISTIC_GAP_LIMIT = 1e-9
THRESHOLD_GAP_LIMIT = 1e-10

# Exit 2 with one error line: a library error that no command maps to
# another code, or an input that cannot be read or an --out that cannot be
# written.
_DATA_ERRORS = (ConcgraphError, OSError)

_METHOD_FLAGS = {"umpu": "umpu", "partial-corr": "partial_corr", "fisher": "fisher"}
_P_VALUE_KIND = {"umpu": "exact", "partial_corr": "exact", "fisher": "asymptotic"}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


# \u00XX for each control character that has no short form.
_JSON_ESCAPES = str.maketrans(
    {chr(k): f"\\u{k:04x}" for k in range(32)}
    | {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')


def _quote(text: str) -> str:
    # Most names and keys need no escape; the regex finds that faster than
    # str.translate walks the string.
    if _NEEDS_ESCAPE.search(text):
        text = text.translate(_JSON_ESCAPES)
    return f'"{text}"'


def json_dumps(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Keys keep insertion order; only the types the reports use are
    supported (dict, list/tuple, str, bool, int, float, None).
    """
    return _emit(obj)


# Rows of a table formatted and written at a time.
_ROW_BLOCK = 4096


def _emit(obj) -> str:
    if type(obj) is float:
        return _format_float(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{_quote(str(k))}: {_emit(v)}" for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_emit(v) for v in obj]) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def _column_cells(columns) -> tuple[list[str], list]:
    """The format field of each column of a table, a list or a 1-d array,
    and an iterator over its cells, for ``str.format`` to write every row
    from one template.

    A float column is checked for finiteness once and written at 17
    significant digits, as ``_format_float`` writes one float, with the
    same error for a non-finite value; a bool column is written as
    true/false, an integer column as its digits, and a column of strings
    as they are (the caller escapes them).  A numeric or bool column
    becomes Python values ``_ROW_BLOCK`` rows at a time, so that no list
    holds a whole column's: at N = 1000 the eight columns of ``verify
    --input`` took about 140 MB as lists.
    """
    fields, cells = [], []
    for column in columns:
        if len(column) and type(column[0]) is str:
            # not through numpy, whose strings drop trailing NULs
            fields.append("{}")
            cells.append(column)
            continue
        array = np.asarray(column)
        if array.dtype.kind == "f":
            bad = np.flatnonzero(~np.isfinite(array))
            if bad.size:
                raise DomainError(
                    f"cannot serialize non-finite number {float(array[bad[0]])!r}"
                )
            fields.append("{:.17g}")
        else:
            fields.append("{}")
        cells.append(_python_cells(array))
    return fields, cells


def _python_cells(array: np.ndarray):
    """The cells of a 1-d array as Python values, true/false for bools,
    converted ``_ROW_BLOCK`` at a time as they are read."""
    blocks = (array[k:k + _ROW_BLOCK] for k in range(0, len(array), _ROW_BLOCK))
    if array.dtype.kind == "b":
        blocks = (np.where(block, "true", "false") for block in blocks)
    return itertools.chain.from_iterable(block.tolist() for block in blocks)


def _joined_rows(rows, sep: str):
    """``sep.join(rows)`` in pieces of ``_ROW_BLOCK`` rows, so that no
    string holds every row: at N = 1000 a JSON table takes 51 MiB."""
    lead = ""
    while block := sep.join(itertools.islice(rows, _ROW_BLOCK)):
        yield lead + block
        lead = sep


def _json_document(doc: dict, key: str, columns: dict):
    """The pieces of the JSON text of ``doc`` with a last key, ``key``,
    whose value is a table: the bytes ``_emit`` writes for the list of row
    dicts, row k holding element k of every column under its key, from one
    row template.  Every check runs here, before the first piece is read."""
    fields, cells = _column_cells(columns.values())
    template = "{{" + ", ".join(
        _quote(str(name)).replace("{", "{{").replace("}", "}}") + ": " + field
        for name, field in zip(columns, fields)
    ) + "}}"
    head = json_dumps(doc)[:-1] + f", {_quote(key)}: ["
    rows = map(template.format, *cells)
    return itertools.chain([head], _joined_rows(rows, ", "), ["]}"])


def read_dataset_csv(path: str) -> Dataset:
    """Read a dataset: header row of unique variable names, then one row
    of decimal values per observation.  Missing, non-numeric or non-finite
    cells are errors that name the offending row and column.

    The file is read as bytes.  The header is read with ``csv`` from the
    file's first lines, pulled one at a time, so the body starts right
    after the header row, a quoted name that spans lines included.  The
    body is parsed in bulk, in blocks of whole lines, when it is a plain
    table: ASCII digits, points, signs and exponents, the same number of
    non-empty cells on every line, LF or CRLF line ends and blank lines
    between rows.  Any other file, one whose header is not UTF-8, not CSV
    or holds a CR that ends no line, or one whose values are not a finite
    table of at least two rows, goes through the per-cell route, which
    names the bad cell, or returns the values when every cell is one
    Python's ``float`` accepts (a quoted number, spaces around a cell,
    ``1_0``, non-ASCII digits).  The two routes convert text with
    different C routines, and both give each cell's correctly rounded
    double, so a file both accept gives the same array.  A leading UTF-8
    byte-order mark, as spreadsheets write one, is not part of the header.
    """
    with open(path, "rb") as handle:
        names = _header(handle)
        values = None
        if names and all(names) and len(set(names)) == len(names):
            values = _read_body(handle, len(names))
    if values is None or len(values) < 2 or not np.isfinite(values).all():
        return _read_dataset_cells(path)
    return Dataset(values=values, names=names)


def _header(handle) -> tuple[str, ...] | None:
    """The stripped names of the first non-blank CSV row of a binary
    handle, read from lines pulled one at a time, or None when the file
    has no row or its header cannot be read as the per-cell route reads
    it: a byte that is not UTF-8, a line ``csv`` refuses, or a CR that
    ends no line, which that route's text reader would take as a line
    end."""
    try:
        row = next(filter(None, csv.reader(_header_lines(handle))), None)
    except (csv.Error, ValueError):  # Unicode errors are ValueErrors
        return None
    return None if row is None else tuple(cell.strip() for cell in row)


def _header_lines(handle):
    """The lines of a binary handle as text: the first decoded as
    ``utf-8-sig``, which drops a byte-order mark, the rest as ``utf-8``."""
    encoding = "utf-8-sig"
    while line := handle.readline():
        if line.count(b"\r") != line.count(b"\r\n"):
            raise ValueError("a lone CR")
        yield line.decode(encoding)
        encoding = "utf-8"


# Bytes read from the body at a time, each block being these and the rest
# of the line they end in.  Blocks of 256 KiB read more slowly and raise
# the peak memory of a select at N = 8, n = 20,000 by 4 MB.
_BLOCK_BYTES = 1 << 16
# The bytes of a cell that the bulk route reads.
_NUMBER_BYTES = b"0123456789.+-eE"
# An x87 extended double, a 64-bit significand in the low 8 of 16
# little-endian bytes: the bulk route parses with libc's strtold and
# rounds to double, repairing the cells where that can differ from
# rounding the decimal once.  Elsewhere it parses doubles directly.
_EXTENDED = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
)
_TINY = np.finfo(np.float64).tiny


def _read_body(handle, dim: int) -> np.ndarray | None:
    """The rest of a binary handle as an (n, dim) array of doubles,
    parsed a block at a time by :func:`_parse_block`, or None when a block
    is not a plain table or there is no row.

    The blocks are copied into one array grown in place, which a large
    ``realloc`` does without a copy, so the values are never held twice."""
    row_seps = b"," * (dim - 1) + b"\n"
    values, count = np.empty(0), 0
    try:
        with warnings.catch_warnings():
            # numpy 1.x warns where 2.x raises; either is a refusal
            warnings.simplefilter("error")
            for text in _body_blocks(handle):
                block = _parse_block(text, row_seps)
                if block is None:
                    return None
                if count + len(block) > len(values):
                    values.resize(max(count + len(block), 2 * len(values)), refcheck=False)
                values[count:count + len(block)] = block
                count += len(block)
    except (ValueError, Warning):
        return None
    if not count:
        return None
    values.resize(count, refcheck=False)
    return values.reshape(-1, dim)


def _body_blocks(handle):
    """The rest of a binary handle in blocks of whole lines:
    ``_BLOCK_BYTES`` bytes and the rest of the line they end in, the last
    block ended by a newline.  ``readline`` joins the pieces of a long line
    once."""
    while block := handle.read(_BLOCK_BYTES):
        block += handle.readline()
        yield block if block.endswith(b"\n") else block + b"\n"


def _parse_block(raw: bytes, row_seps: bytes) -> np.ndarray | None:
    """The doubles of a block of whole lines, row after row, each the
    correctly rounded value of its cell, or None unless each of its lines,
    blank ones aside, holds the separators ``row_seps`` between non-empty
    cells of ``_NUMBER_BYTES``: any other byte, one that is not ASCII
    included, refuses the block."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    values = _parse_lines(raw, row_seps)
    # a blank line fails the checks, and searching every block for one
    # would add about 12 % to each block's parse, so only a block that
    # fails is searched
    if values is None and (b"\n\n" in raw or raw.startswith(b"\n")):
        values = _parse_lines(re.sub(rb"\n\n+", b"\n", raw).lstrip(b"\n"), row_seps)
    return values


def _parse_lines(raw: bytes, row_seps: bytes) -> np.ndarray | None:
    """:func:`_parse_block` of lines with LF ends and no blank line.

    ``np.fromstring`` also reads what this refuses, such as a hex float, a
    trailing separator, or a trailing space as a 0, so the text is checked
    first and the count of values after.
    """
    # every byte that is not part of a number, in order: the separators
    seps = raw.translate(None, _NUMBER_BYTES)
    rows = len(seps) // len(row_seps)
    if seps != row_seps * rows:
        return None
    # one separator after each cell; fromstring takes the last as a trailing one
    flat = raw.replace(b"\n", b",")
    # numpy finds two commas in a row six times faster than ``b",," in flat``
    commas = np.frombuffer(flat, dtype=np.uint8) == ord(",")
    if flat.startswith(b",") or (commas[1:] & commas[:-1]).any():
        return None  # an empty cell
    values = np.fromstring(flat, dtype=np.longdouble if _EXTENDED else np.float64, sep=",")
    if values.size != len(seps):
        return None
    if not _EXTENDED:
        return values
    # Rounding the correctly rounded extended value to double rounds the
    # decimal correctly, unless that value is a midpoint between two
    # normal doubles (its low 11 significand bits 0b10000000000) or lies
    # below the least normal double, where the doubles are further apart:
    # those cells are read again with float.  Such a value rounds to a
    # double no larger than the least normal, and testing the doubles is
    # faster than testing the extended values.
    doubles = values.astype(np.float64)
    redo = (values.view(np.uint64)[::2] & 0x7FF) == 0x400
    redo |= (np.abs(doubles) <= _TINY) & (values != 0)
    redo = np.flatnonzero(redo)
    if redo.size:
        cells = flat.split(b",")
        for k in redo.tolist():
            doubles[k] = float(cells[k])
    return doubles


def _csv_rows(handle, path: str):
    """The non-blank rows of a CSV file.  A line ``csv`` cannot read, such
    as one with a cell over its field-size limit, is a DataError naming
    the file and line; so is a byte that is not UTF-8, naming the file."""
    reader = csv.reader(handle)
    try:
        for row in reader:
            if row:
                yield row
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DataError(f"{path}: not UTF-8 text: cannot decode byte 0x{byte:02x}") from None


def _read_dataset_cells(path: str) -> Dataset:
    """Read a dataset one cell at a time with ``float``, naming the first
    bad cell (or row, or header) in the error."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(_csv_rows(handle, path))
    if not rows:
        raise DataError(f"{path}: empty input")
    names = tuple(cell.strip() for cell in rows[0])
    if any(not name for name in names):
        raise DataError(f"{path}: header contains an empty variable name")
    if len(set(names)) != len(names):
        raise DataError(f"{path}: duplicate variable names in header")
    values = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(names):
            raise DataError(
                f"{path}: row {line_no}: expected {len(names)} fields, got {len(row)}"
            )
        parsed = []
        for col, cell in enumerate(row):
            try:
                parsed.append(float(cell.strip()))
            except ValueError:
                raise DataError(
                    f"{path}: row {line_no}, column {names[col]!r}: "
                    f"non-numeric value {cell!r}"
                ) from None
        values.append(parsed)
    array = np.array(values)
    bad = np.argwhere(~np.isfinite(array))
    if len(bad):
        obs, col = bad[0]
        raise DataError(
            f"{path}: row {obs + 2}, column {names[col]!r}: "
            f"non-finite value {rows[obs + 1][col]!r}"
        )
    if len(values) < 2:
        raise DataError(f"{path}: need at least two observation rows")
    return Dataset(values=array, names=names)


def _write_pieces(handle, pieces) -> None:
    last = ""
    for piece in pieces:
        handle.write(piece)
        last = piece or last
    if not last.endswith("\n"):
        handle.write("\n")


def _write_output(pieces, out: str | None) -> None:
    """Write the text pieces of a report to stdout or the file ``out``,
    with a newline after them unless they end with one."""
    if out is None:
        try:
            _write_pieces(sys.stdout, pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader is gone.  Point stdout at the null device so that
            # the interpreter's final flush of what is left cannot fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            _write_pieces(handle, pieces)


def _decision_columns(graph) -> dict[str, list]:
    decisions = graph.decisions
    return {
        "i": [d.i for d in decisions],
        "j": [d.j for d in decisions],
        "statistic": [d.statistic for d in decisions],
        "p_value": graph._pvalue_column(),
        "reject": [d.reject for d in decisions],
    }


def _graph_json(graph, data, args: argparse.Namespace):
    doc = {
        "n": data.n,
        "N": data.dim,
        "alpha": args.alpha,
        "method": args.method,
        "correction": args.correction,
        "p_value_kind": _P_VALUE_KIND[args.method],
        "names": list(graph.names),
        "edges": [[i, j] for i, j in graph.edge_list()],
    }
    return _json_document(doc, "decisions", _decision_columns(graph))


def _quote_dot(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _graph_dot(graph) -> str:
    lines = ["graph {"]
    for name in graph.names:
        lines.append(f"  {_quote_dot(name)};")
    for i, j in graph.edge_list():
        lines.append(f"  {_quote_dot(graph.names[i])} -- {_quote_dot(graph.names[j])};")
    lines.append("}")
    return "\n".join(lines)


def _graph_tsv(graph):
    # Escapes as in JSON, so that a name cannot split a row.
    escapes = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
    names = [name.translate(escapes) for name in graph.names]
    c = _decision_columns(graph)
    fields, cells = _column_cells([
        c["i"], c["j"], [names[i] for i in c["i"]], [names[j] for j in c["j"]],
        c["statistic"], c["p_value"], c["reject"],
    ])
    rows = map("\t".join(fields).format, *cells)
    header = "i\tj\tname_i\tname_j\tstatistic\tp_value\treject"
    return _joined_rows(itertools.chain([header], rows), "\n")


def _cmd_select(args: argparse.Namespace) -> int:
    data = read_dataset_csv(args.input)
    graph = select_graph(data, TestConfig(alpha=args.alpha, method=args.method), args.correction)
    if args.fmt == "json":
        pieces = _graph_json(graph, data, args)
    elif args.fmt == "dot":
        pieces = [_graph_dot(graph)]
    else:
        pieces = _graph_tsv(graph)
    _write_output(pieces, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.input is not None:
        data = read_dataset_csv(args.input)
        s = _validated_covariance(data)
        # One public test decides each pair, and its r, upper and reject
        # are read into the columns as it is made, so no decision outlives
        # its pair; one pass of umpu's route checks them all.
        i, j = np.triu_indices(data.dim, 1)
        r, upper, pc_reject = np.empty(len(i)), np.empty(len(i)), np.empty(len(i), dtype=bool)
        read = attrgetter("statistic", "upper", "reject")
        for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            r[k], upper[k], pc_reject[k] = read(
                run_edge_test("partial_corr", s, a, b, data.n, args.alpha)
            )
        t, same, raw_agrees, gap, threshold_gap = _equivalence_checks(
            s, i, j, data.n, args.alpha, r, upper, pc_reject
        )
    else:
        # Checked before the first instance is drawn, so that a bad count
        # is a usage error and not a failure of the generator.
        try:
            _check_instance_count(args.reps)
        except DomainError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_USAGE
        # each report is reduced to its four checks as it is made
        instances = random_covariance_instances(args.reps, args.seed)
        reports = (verify_equivalence(*instance) for instance in instances)
        same, raw_agrees, gap, threshold_gap = map(np.array, zip(*[
            (rep.same_decision, rep.raw_scale_agrees, rep.statistic_gap, rep.threshold_gap)
            for rep in reports
        ]))

    disagreements = int(np.count_nonzero(~same))
    raw_disagreements = int(np.count_nonzero(~raw_agrees))
    max_gap = float(gap.max(initial=0.0))
    max_threshold_gap = float(threshold_gap.max(initial=0.0))
    ok = (
        disagreements == 0
        and raw_disagreements == 0
        and max_gap <= STATISTIC_GAP_LIMIT
        and max_threshold_gap <= THRESHOLD_GAP_LIMIT
    )
    doc = {
        "instances": len(gap),
        "disagreements": disagreements,
        "raw_scale_disagreements": raw_disagreements,
        "max_statistic_gap": max_gap,
        "max_threshold_gap": max_threshold_gap,
        "gap_limit": STATISTIC_GAP_LIMIT,
        "seed": args.seed,
        "equivalent": ok,
    }
    if args.input is None:
        pieces = [json_dumps(doc)]
    else:
        keys = ("i", "j", "t", "r", "lower", "upper", "reject", "gap")
        columns = (i, j, t, r, -upper, upper, pc_reject, gap)
        pieces = _json_document(doc, "edges", dict(zip(keys, columns)))
    _write_output(pieces, args.out)
    return EXIT_OK if ok else EXIT_EQUIVALENCE


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    try:
        if args.rho == 0.0:
            spec = PrecisionSpec.identity(args.dim)
            report = estimate_size(
                spec, args.n, args.alpha, args.method, args.reps, args.seed
            )
        else:
            spec = PrecisionSpec.single_edge(args.dim, 0, 1, args.rho)
            report = estimate_power(
                spec, args.n, args.alpha, args.method, args.reps, args.seed
            )
    except (DomainError, InsufficientSample, NotPositiveDefinite) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    _write_output([json_dumps(asdict(report))], args.out)
    return EXIT_OK


def _cmd_quantile(args: argparse.Namespace) -> int:
    beta_args = args.prob is not None or args.m is not None
    corr_args = args.n > 0 or args.dim > 0
    if beta_args == corr_args:
        sys.stderr.write(
            "error: give either --prob with --m, or --alpha with --n and --dim\n"
        )
        return EXIT_USAGE
    try:
        if beta_args:
            if args.prob is None or args.m is None:
                raise DomainError("--prob and --m must be given together")
            doc = {
                "kind": "beta_sym_quantile",
                "prob": args.prob,
                "m": args.m,
                "value": beta_sym_quantile(args.prob, args.m),
            }
        else:
            if args.n <= 0 or args.dim <= 0:
                raise DomainError("--n and --dim must both be positive")
            doc = {
                "kind": "null_corr_quantile",
                "alpha": args.alpha,
                "n": args.n,
                "dim": args.dim,
                "value": null_corr_quantile(args.alpha, args.n, args.dim),
            }
    except (DomainError, InsufficientSample) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    _write_output([json_dumps(doc)], args.out)
    return EXIT_OK


@functools.cache  # parsing leaves the parser unchanged; build it once per process
def build_parser() -> _Parser:
    parser = _Parser(prog="concgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: _Parser, with_method=True) -> None:
        p.add_argument("--alpha", type=float, default=0.05, help="significance level")
        if with_method:
            p.add_argument(
                "--method",
                choices=sorted(_METHOD_FLAGS),
                default="partial-corr",
                help="per-edge test",
            )
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    p_select = sub.add_parser("select", help="estimate a concentration graph from CSV")
    p_select.add_argument("--input", required=True, help="CSV dataset path")
    p_select.add_argument(
        "--correction", choices=CORRECTIONS, default="none", help="multiplicity correction"
    )
    p_select.add_argument(
        "--format", dest="fmt", choices=("json", "dot", "tsv"), default="json"
    )
    common(p_select)

    p_verify = sub.add_parser(
        "verify", help="check the umpu/partial-correlation equivalence numerically"
    )
    p_verify.add_argument("--input", default=None, help="optional CSV dataset path")
    p_verify.add_argument(
        "--reps", type=int, default=10000, help="random instances to check"
    )
    common(p_verify, with_method=False)

    p_mc = sub.add_parser("montecarlo", help="Monte Carlo size/power estimation")
    p_mc.add_argument("--dim", type=int, required=True, help="number of variables")
    p_mc.add_argument("--n", type=int, required=True, help="observations per replication")
    p_mc.add_argument("--reps", type=int, default=10000, help="replications")
    p_mc.add_argument(
        "--rho",
        type=float,
        default=0.0,
        help="true partial correlation on edge (0, 1); 0 runs a size study",
    )
    common(p_mc)

    p_q = sub.add_parser("quantile", help="evaluate the quantile functions")
    p_q.add_argument("--prob", type=float, default=None, help="beta probability")
    p_q.add_argument("--m", type=float, default=None, help="beta shape m")
    p_q.add_argument("--n", type=int, default=0, help="sample size")
    p_q.add_argument("--dim", type=int, default=0, help="variable count")
    common(p_q, with_method=False)

    return parser


_COMMANDS = {
    "select": _cmd_select,
    "verify": _cmd_verify,
    "montecarlo": _cmd_montecarlo,
    "quantile": _cmd_quantile,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "method"):
        args.method = _METHOD_FLAGS[args.method]
    if not 0.0 < args.alpha < 1.0 and args.subcommand != "quantile":
        sys.stderr.write(f"error: --alpha must lie in (0, 1), got {args.alpha}\n")
        return EXIT_USAGE
    if args.alpha == 5e-324:  # in (0, 1), but refused by every command
        sys.stderr.write(f"error: {_level_error(args.alpha, '(0, 1)')}\n")
        return EXIT_USAGE
    if args.seed < 0:
        sys.stderr.write("error: --seed must be non-negative\n")
        return EXIT_USAGE
    try:
        return _COMMANDS[args.subcommand](args)
    except _DATA_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
