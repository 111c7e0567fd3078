"""Command-line front end.

Subcommands
-----------
classify    read states (JSON/JSONL), report physicality / separability /
            P-representability with margins
invariants  report the four local-symplectic invariants per state
transform   apply a local symplectic; with --reduce, attempt the
            invariant-form reduction
sample      run a random-state campaign and cross-validate both methods
sweep       emit a CSV of n2 lower-bound folds over a parameter grid
            (columns: axis1[,axis2],n2_min_physical,n2_min_separable,
            n2_min_prep,prep_below_sep_flag,degenerate).  The physicality
            and separability folds are the oracle-consistent closed forms;
            the P-fold column is the literal published bound, whose dips
            below the S-fold (``core.prep_below_sep``, which ignores
            rounding-level ties) mark operators that are not physical states.

An argv that starts with a subcommand is parsed once, by that
subcommand's parser (``_parse``); any other, and one that parser leaves
tokens of, goes to the full parser, whose help and errors it then gets.
Every subcommand parses its arguments and input, evaluates its states and
hands its output to one writer (``_write_output``), the only code that
opens and closes an output, as a stream of strings: the whole output as
one string, or one per batch of a ``sample`` run.  The writer builds the
first string before it opens the output, then writes each with one call,
to stdout's text stream or as UTF-8 bytes by ``os.write`` on the file's
descriptor, in place, and cuts the file after it where the file opened is
a regular one.
``load_states`` reads an input file into columns: the ids, each as the
JSON text it is echoed as, and the states as one ``core._ParamArrays``.
It checks each record's layout, id and numbers as it reads it
(``record_to_params``), then the finiteness and occupations of all of them
on their (N, 10) array and the structural rule in one pass over the stack
of their matrices (``core._ParamArrays.from_records``); a failing file
reports its first failing record, named by its location, with the error of
its own columns.  Every command evaluates the states of its
first output string before it opens its output, which for every command but
a ``sample`` run of more than one batch is all of them, so an evaluation
error there, like a parse error, exits before the output is opened:
``classify`` classifies by each route on one ``core._Batch`` of the file,
whose covariance stack both routes share, and ``sweep`` checks its grid's
point count against ``SWEEP_MAX_POINTS`` from the axis specs alone, then
builds the grid as one ``core._ParamArrays`` (``_sweep_grid``; the first
invalid point raises the error of its own ``GaussianParams``) and takes
its folds from one ``core._Batch`` of it (``core._n2_folds``).
``invariants`` makes one ``symplectic.invariants`` call over the stack of
the file's covariance matrices, and ``transform`` one transform and read of
that stack (``symplectic._transform_stack``) and, with ``--reduce``, one
array pass of the reduction, out of which
``symplectic.reduce_to_invariant_form`` reads each record's state.  A
failing file reports the error of its first failing record, in the order
of one record's checks: the transform, the read of its parameters, the
reduction.  The transform pass returns the first record whose transformed
matrix fails, with its error; the records before it are reduced first, so
that their errors come first.  ``sample`` draws (one
``symplectic._random_states`` call, whose ``core._Batch`` it classifies,
with the covariance stack and, in reject mode, the physicality oracle
margins the sampler built), classifies (both routes on that batch) and
formats its states per batch of ``SAMPLE_BATCH`` (1024), one output string
each, the summary line at the end of the last, so its memory does not grow
with ``--count``.

The text layer makes Python calls per record, not per value.  A JSONL line,
which ends at "\\n" only, is decoded by the ``json`` module's C scanner,
called directly (``_jsonl_records``); a line it does not read to its end,
such as one with whitespace around its value or one that is not JSON, goes
through ``json.loads`` (``_parse_json``), whose value or error it is.
``record_to_params`` reads a record's values in one pass with direct type
tests, into a tuple of floats (a matrix's 32, which ``load_states`` stacks
with the file's other matrices in one array call), and encodes its id once;
a location is built only for the error it names.  The JSON records are
formatted from columns, with the bytes ``json.dumps`` would write for the
same values as a dict: each record by one ``%`` call on its kind's
template, built from shared fragments (``_P``, ``_V``).  A float column
goes in as floats (``%s`` of a float is its ``float.__repr__``), or as
``_floats`` strings if it holds a value that is not finite (a NaN margin
is null); an id as the text ``record_to_params`` encoded it to; answers,
methods and fallback tuples by lookup.  Verdicts are read as columns
(``_columns``), which also give ``methods_agree`` and ``sample``'s
``agree`` and summary.  ``sweep`` formats each
fold column in one ``float.__repr__`` pass (an infinite fold is ``inf``,
not JSON's ``Infinity``), each axis's values once (``_axis_columns``) and
its flags by lookup; each line is one ``",".join`` of its fields, and the
output, the header and those lines each ended by "\\r\\n", one join.

Exit codes: 0 success, else the ``exit_code`` of the package error raised
(``errors``): 2 unreadable, malformed or unwritable input or output
(``ParseError``), 3 invalid parameters (a non-finite ``transform`` angle
among them), 4 domain error, 5 internal assertion.  An input number
beyond float range is an invalid parameter (exit 3) however it is
spelled: a float reads as inf and fails finiteness, and a JSON int fails
its read, which names the value's location.  Any other numeric
``OverflowError`` exits 4, as a domain error.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import operator
import os
import stat
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import core, symplectic
from .core import GaussianParams, Verdict
from .errors import (
    DomainError,
    GaussSepError,
    InvalidParameterError,
    ParseError,
    PrescriptionInapplicableError,
)

EXIT_OK = 0
EXIT_INTERNAL = GaussSepError.exit_code


# ---------------------------------------------------------------------------
# Input handling


_FIELDS = ("n1", "n2", "m1", "m1", "m2", "m2", "ms", "ms", "mc", "mc")  # of each of the ten values
_MATRIX_ENDS = [8, 16, 24, 32]  # where each row of a 4x4 matrix ends among its 32 values


def _to_floats(values: list) -> int:
    """Make the JSON numbers of ``values`` floats, in place and in order, up
    to the first value that is not one or is an int beyond float range;
    return its index, or -1.  ``json`` parses a number to an int or a float
    (a bool is neither here)."""
    for k, v in enumerate(values):
        if type(v) is not float:
            if type(v) is not int:
                return k
            try:
                values[k] = float(v)
            except OverflowError:
                return k
    return -1


def _value_error(where: str, v) -> Exception:
    """The error of the value ``v`` at which ``_to_floats`` stopped, located
    at ``where``: InvalidParameterError for an int beyond float range, as
    for a non-finite value, else ParseError."""
    if type(v) is int:
        return InvalidParameterError(f"{where}: int too large to convert to float")
    return ParseError(f"{where}: expected a number, got {v!r}")


def record_to_params(record: dict, where: str):
    """(id, values) of one record.  The id is the JSON text it is echoed as,
    the bytes ``json.dumps`` writes for it ("null" if it is absent); an id
    that is not JSON, such as one holding NaN, is a ParseError.  The values
    are a tuple of floats: the ten of a "params" record in the order of
    ``core._ParamArrays.columns``, or the 32 of a "matrix" record, re and
    im of its 16 cells row by row.  Only what the record shows by itself is
    checked here: its layout, id and numbers, and a matrix's shape, which is
    reported from its row lengths: "rows of 4, 3, 4, 4 cells" for ragged
    rows, else "must be 4x4, got shape (r, c)".  ``load_states`` checks
    finiteness, occupations and matrix structure on the file's columns.

    The values are read in one pass and checked in order: the first one
    that is not a JSON number (a ParseError) or is an int beyond float
    range (an InvalidParameterError) is reported, by its location, which
    is built only then.  A value is a number, or for the complex parameters
    and the matrix cells an [re, im] pair of numbers."""
    if not isinstance(record, dict):
        raise ParseError(f"{where}: expected an object")
    rec_id = record.get("id")
    try:  # a string by the encoder json.dumps calls for one; NaN is not JSON
        rec_id = (encode_basestring_ascii(rec_id) if type(rec_id) is str
                  else json.dumps(rec_id, allow_nan=False))
    except ValueError as exc:
        raise ParseError(f"{where}: bad id: {exc}") from exc
    has_params = "params" in record
    has_matrix = "matrix" in record
    if has_params == has_matrix:
        raise ParseError(f"{where}: exactly one of 'params'/'matrix' must be present")
    if has_params:
        raw = record["params"]
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: 'params' must be an object")
        values = [raw.get("n1"), raw.get("n2")]
        known = 2
        for name in ("m1", "m2", "ms", "mc"):
            if name not in raw:
                values += (0.0, 0.0)
                continue
            known += 1
            z = raw[name]
            if type(z) is list and len(z) == 2:
                values += z
            else:
                values += (z, 0.0)
        bad = _to_floats(values)
        if bad >= 0:
            raise _value_error(f"{where}.{_FIELDS[bad]}", values[bad])
        if len(raw) > known:  # n1 and n2 are required: any other key is unknown
            unknown = raw.keys() - {"n1", "n2", "m1", "m2", "ms", "mc"}
            raise ParseError(f"{where}: unknown key(s) in 'params': "
                             + ", ".join(map(repr, sorted(unknown))))
        return rec_id, tuple(values)
    values, ends = [], []  # re and im of each cell, row by row; where each row ends
    not_iterable = None
    try:
        for row in record["matrix"]:
            for cell in row:
                if type(cell) is list and len(cell) == 2:
                    values += cell
                else:
                    values += (cell, 0.0)
            ends.append(len(values))
    except TypeError as exc:  # the matrix or a row is not a sequence
        not_iterable = exc
    bad = _to_floats(values)  # the cells before a row that is not a sequence come first
    if bad >= 0:
        i = bisect.bisect_right(ends, bad)
        j = (bad - (ends[i - 1] if i else 0)) // 2
        raise _value_error(f"{where}[{i}][{j}]", values[bad])
    if not_iterable is not None:
        raise ParseError(f"{where}: bad matrix: {not_iterable}") from not_iterable
    if ends != _MATRIX_ENDS:  # not 4 rows of 4 cells
        cells = [(b - a) // 2 for a, b in zip([0, *ends], ends)]
        if len(set(cells)) > 1:
            raise ParseError(f"{where}: bad matrix: rows of {', '.join(map(str, cells))} cells")
        raise ParseError(f"{where}: matrix must be 4x4, got shape {(len(cells), *cells[:1])}")
    return rec_id, tuple(values)


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an int, too deep a nesting
        raise ParseError(f"{where}: invalid JSON: {exc}") from exc


_scan_once = json.JSONDecoder().scan_once  # the C scanner json.loads ends in


def _jsonl_records(text: str, path: str):
    """(where, value) of each non-blank line of ``text``, as ``json.loads``
    parses the line: by the ``json`` module's scanner, called directly,
    when the line is one JSON value and nothing else; any other line (a
    value with whitespace around it, or no value) goes through
    ``_parse_json``, for its value or for ``json.loads``'s error.  Lines end
    at "\\n" only, as in JSON Lines: U+2028, U+2029 and U+0085 are valid
    inside a JSON string, and a form feed or other separator between two
    values leaves them one line that is not JSON."""
    for n, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            where = f"{path}:{n}"
            try:
                value, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            yield where, value if end == len(line) else _parse_json(line, where)


def load_states(path: str, fmt: str) -> tuple[list, core._ParamArrays]:
    """The ids, each as the JSON text it is echoed as, and the parameters, as
    columns, of every record of ``path`` in ``fmt`` ("json" or "jsonl").

    Each record is read by ``record_to_params``; JSONL lines are parsed
    lazily, each just before its record is read.  The first record that
    fails to parse or read (a ParseError, or an InvalidParameterError for an
    int beyond float range) ends the reading.
    Finiteness and occupations are then checked on the (N, 10) array of the
    records read, and the structural rule in one pass over the stack of
    their matrices (``core._ParamArrays.from_records``).  The earliest
    record that fails anything is the one reported: a column check's error
    comes from that record's own columns (``first_error``), the error its
    constructor (``GaussianParams`` or ``params_from_covariance``) would
    raise, prefixed with its location."""
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input {path}: {exc}") from exc
    if "\r" in text:  # universal newlines, as text mode reads them, keep JSON error positions
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if fmt == "json":
        doc = _parse_json(text, path)
        if not isinstance(doc, dict) or not isinstance(doc.get("states"), list):
            raise ParseError(f"{path}: expected an object with a 'states' array")
        records = ((f"{path} states[{i}]", record) for i, record in enumerate(doc["states"]))
    else:
        records = _jsonl_records(text, path)
    ids, wheres, values = [], [], []
    held = None
    try:
        for where, record in records:
            rec_id, v = record_to_params(record, where)
            ids.append(rec_id)
            wheres.append(where)
            values.append(v)
    except (ParseError, InvalidParameterError) as exc:
        held = exc
    q, failure = core._ParamArrays.from_records(values)
    if failure is not None:
        k, exc = failure
        raise type(exc)(f"{wheres[k]}: {exc}")
    if held is not None:
        raise held
    return ids, q


class _Descriptor:
    """A file output: strings written to its descriptor as UTF-8 bytes, each
    by ``os.write`` calls until all of its bytes are written, with no buffer
    in between, so there is nothing to flush."""

    def __init__(self, fd: int):
        self._fd = fd

    def fileno(self) -> int:
        return self._fd

    def write(self, text: str) -> None:
        data = memoryview(text.encode("utf-8"))
        while data:  # a write may take fewer bytes than it was given
            data = data[os.write(self._fd, data):]

    def flush(self) -> None:
        pass

    def close(self) -> None:
        os.close(self._fd)


def _open_output(path: str | None):
    """(stream, close) of the output ``path``: stdout for None or '-', which
    is not closed; else the file, as a ``_Descriptor``, opened without
    truncating it: its old bytes stay until the writer cuts them."""
    if path is None or path == "-":
        return sys.stdout, False
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        return _Descriptor(os.open(path, flags, 0o666)), True
    except OSError as exc:
        raise ParseError(f"cannot open output {path}: {exc}") from exc


def _write_output(path: str | None, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` (stdout for None or '-'):
    the one place an output is opened and closed.  ``chunks`` is an iterable
    of at least one string: a one-element list of a whole output, or the
    batches of a ``sample`` run, each built as it is drawn.  The first
    string is built before the output is opened, so an error that ends a
    run before then, like a parse error, neither opens nor creates it.

    Each string is written with one ``write`` call and flushed: to stdout
    through its text stream, to a file as its UTF-8 bytes, by ``os.write``
    on its descriptor until every byte is written (``_Descriptor``), in
    place from the start of the file, which is opened without truncating it.
    Where ``os.fstat`` says that file is a regular one, it is cut at the
    bytes that reached it after every string, also one whose write failed,
    so from its first write on it holds no tail of its old contents, and a
    run that fails before that leaves it as it was.  Stdout is never cut.
    A failed write, flush or close (a full disk, a closed pipe) is a
    ParseError."""
    chunks = iter(chunks)
    first = next(chunks)
    out, close = _open_output(path)
    try:
        try:
            cut = close and stat.S_ISREG(os.fstat(out.fileno()).st_mode)
            for chunk in chain((first,), chunks):
                try:
                    out.write(chunk)
                    out.flush()
                finally:
                    if cut:
                        fd = out.fileno()  # its offset: the bytes that reached the file
                        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            if close:
                out.close()
    except OSError as exc:
        if out is sys.__stdout__:  # not an in-process stream, which may have no fileno()
            # what stdout still buffers goes to os.devnull at exit, not to an
            # "Exception ignored" line from the interpreter's final flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        raise ParseError(f"cannot write output {path or '-'}: {exc}") from exc


# ---------------------------------------------------------------------------
# Output records, formatted as ``json.dumps`` writes them


_BOOL = {True: "true", False: "false", None: "null"}
_NUMBER = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float.__repr__ -> json.dumps
_MARGIN = {**_NUMBER, "nan": "null"}  # a NaN margin is not applicable


def _floats(xs, fix=_NUMBER) -> list[str]:
    """``json.dumps`` of every float of ``xs``, with the non-finite strings
    of ``fix`` (``_NUMBER``, or ``_MARGIN`` for margins): one
    ``float.__repr__`` pass over them, then one lookup pass."""
    out = list(map(float.__repr__, xs))
    return list(map(fix.get, out, out))


def _column(xs, fix=_NUMBER):
    """The floats ``xs`` as ``%s`` arguments that write ``json.dumps``'s
    bytes: ``xs`` itself if every value is finite, else its ``_floats``."""
    return xs if all(map(math.isfinite, xs)) else _floats(xs, fix)


# ``json.dumps`` of every method, fallback tuple and invariant form a record can carry
_CONSTANT = {value: json.dumps(value) for value in (
    core.METHOD_CLOSED, core.METHOD_EIG, *core._FALLBACKS, symplectic.FORM1, symplectic.FORM2)}

# Record template fragments: a parameter set's object, from the ten columns
# of ``_param_args``, and a Verdict's members, from the eight of ``_verdict_args``
_P = '{"n1": %s, "n2": %s, "m1": [%s, %s], "m2": [%s, %s], "ms": [%s, %s], "mc": [%s, %s]}'
_V = ('"physical": %s, "separable": %s, "p_representable": %s, "margin_physical": %s, '
      '"margin_separable": %s, "margin_prep": %s, "method": %s, "fallbacks": %s')
_CLASSIFY = '{"id": %s, ' + _V + '}\n'
_CLASSIFY_BOTH = '{"id": %s, ' + _V + ', "eig": {' + _V + '}, "methods_agree": %s}\n'
_SAMPLE = ('{"index": %s, "params": ' + _P + ', "closed": {' + _V + '}, "eig": {' + _V
           + '}, "agree": %s}\n')


def _columns(verdicts: list[Verdict]) -> list[tuple]:
    """The eight field columns of a list of verdicts, in the order of
    ``Verdict._fields``."""
    return list(zip(*verdicts)) or [()] * len(Verdict._fields)


def _verdict_args(columns: list[tuple]) -> list:
    """The eight ``_V`` argument columns of verdicts given as ``_columns``."""
    physical, separable, prep, *margins, method, fallbacks = columns
    return [*(map(_BOOL.__getitem__, x) for x in (physical, separable, prep)),
            *(_column(x, _MARGIN) for x in margins),
            map(_CONSTANT.__getitem__, method), map(_CONSTANT.__getitem__, fallbacks)]


def _param_args(q: core._ParamArrays) -> list:
    """The ten ``_P`` argument columns of the parameter sets of ``q``."""
    return [_column(x.tolist()) for x in q.columns()]


def _agree(a: list[tuple], b: list[tuple]) -> list[bool]:
    """Per state, whether two routes' verdicts, given as ``_columns``, give
    the same three answers."""
    return list(map(operator.eq, zip(*a[:3]), zip(*b[:3])))


def _classify_lines(ids: list, verdicts: list[Verdict], eig: list[Verdict] | None = None) -> list[str]:
    """``classify``'s line for each record; with ``eig``, that of
    ``--method both``, whose closed-form verdicts are ``verdicts``."""
    closed = _columns(verdicts)
    if eig is None:
        return list(map(_CLASSIFY.__mod__, zip(ids, *_verdict_args(closed))))
    eig = _columns(eig)
    return list(map(_CLASSIFY_BOTH.__mod__, zip(
        ids, *_verdict_args(closed), *_verdict_args(eig),
        map(_BOOL.__getitem__, _agree(closed, eig)))))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args) -> int:
    core._check_tol_psd(args.tol_psd, "--tol-psd")
    ids, q = load_states(args.input, args.format)
    batch = core._Batch(q)
    method = core.METHOD_EIG if args.method == "eig" else core.METHOD_CLOSED
    verdicts = core._classified(batch, method, args.tol_psd)
    eig = core._classified(batch, core.METHOD_EIG, args.tol_psd) if args.method == "both" else None
    _write_output(args.output, ["".join(_classify_lines(ids, verdicts, eig))])
    return EXIT_OK


def cmd_invariants(args) -> int:
    ids, q = load_states(args.input, args.format)
    inv = symplectic.invariants(q.covariance())
    lines = map('{"id": %s, "i1": %s, "i2": %s, "i3": %s, "i4": %s}\n'.__mod__, zip(
        ids, *(_column(x.tolist()) for x in (inv.i1, inv.i2, inv.i3, inv.i4))))
    _write_output(args.output, ["".join(lines)])
    return EXIT_OK


def _reduction(row: core._Row) -> tuple:
    """(form, nu1, nu2, re mu, im mu, residual) of the reduction of ``row``;
    form None, and zeros, where the prescription is inapplicable."""
    try:
        res = symplectic.reduce_to_invariant_form(row)
    except PrescriptionInapplicableError as exc:
        return None, 0.0, 0.0, 0.0, 0.0, exc.residual
    return res.form, res.nu1, res.nu2, res.mu.real, res.mu.imag, res.residual


def _reductions_json(reductions: list[tuple]) -> list[str]:
    """The "reduction" object of each ``_reduction`` tuple."""
    forms, *cols = zip(*reductions) if reductions else ((),) * 6
    return [
        f'{{"applicable": true, "form": {_CONSTANT[form]}, "nu1": {nu1}, "nu2": {nu2}, '
        f'"mu": [{re}, {im}], "residual": {residual}}}' if form is not None
        else f'{{"applicable": false, "residual": {residual}}}'
        for form, nu1, nu2, re, im, residual in zip(forms, *map(_column, cols))
    ]


def cmd_transform(args) -> int:
    ids, q = load_states(args.input, args.format)
    S = symplectic.make_local_symplectic(
        args.theta1, args.phi1, args.vphi1, args.theta2, args.phi2, args.vphi2
    )
    batch = core._Batch(q)
    t, failure = symplectic._transform_stack(S, batch.covariance)
    k = len(ids) if failure is None else failure[0]
    reductions = [_reduction(row) for row in batch.rows()[:k]] if args.reduce else []
    if failure is not None:  # after the errors of the records before it
        raise failure[1]
    columns = [ids, *_param_args(t)]
    if args.reduce:
        columns.append(_reductions_json(reductions))
    line = ('{"id": %s, "transformed_params": ' + _P
            + (', "reduction": %s}\n' if args.reduce else '}\n'))
    _write_output(args.output, ["".join(map(line.__mod__, zip(*columns)))])
    return EXIT_OK


SAMPLE_BATCH = 1024  # states drawn and classified per batch, so memory does not grow with --count


def _seed(seed: int | None) -> int:
    """``--seed``, else ``GAUSSSEP_SEED``, else 0; numpy seeds are non-negative."""
    if seed is None:
        env = os.environ.get("GAUSSSEP_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError as exc:
            raise ParseError(f"GAUSSSEP_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ParseError(f"the seed (--seed or GAUSSSEP_SEED) must be >= 0, got {seed}")
    return seed


def _tally(summary: dict, q: core._ParamArrays, closed: list[tuple], eig: list[tuple],
           agree: list[bool]) -> None:
    """Add one batch, the states ``q``, to the ``sample`` summary: the counts
    from the oracle's answers, the first separable state that is not
    P-representable as the witness (its params object, from its ten
    columns), and the disagreements off the boundary band.  A state lies on
    the band if any oracle margin that is not NaN has |m| <= BOUNDARY_BAND;
    one whose closed route fell back does not count."""
    _, separable, prep, *margins, _, _ = eig
    pairs = list(zip(separable, prep))
    summary["separable"] += separable.count(True)
    summary["entangled"] += separable.count(False)
    summary["p_representable"] += prep.count(True)
    summary["separable_not_prep"] += pairs.count((True, False))
    summary["prep_and_entangled"] += pairs.count((False, True))
    if summary["separable_not_prep_witness"] is None and (True, False) in pairs:
        k = pairs.index((True, False))
        n1, n2, *m = (float(x[k]) for x in q.columns())
        summary["separable_not_prep_witness"] = {"n1": n1, "n2": n2, "m1": m[0:2], "m2": m[2:4],
                                                 "ms": m[4:6], "mc": m[6:8]}
    margins = np.nan_to_num(np.array(margins), nan=np.inf)  # a NaN margin is off the band
    on_band = (np.abs(margins) <= core.BOUNDARY_BAND).any(axis=0)
    fell_back = np.fromiter(map(len, closed[-1]), dtype=np.intp, count=len(agree)) > 0
    summary["method_disagreements_off_boundary"] += int(np.count_nonzero(
        ~on_band & ~np.array(agree, dtype=bool) & ~fell_back))


def cmd_sample(args) -> int:
    """Draw ``--count`` states, classify each by both routes and write one
    record per state, then the summary line.  Each batch of ``SAMPLE_BATCH``
    is drawn in one array pass (the states of one-at-a-time draws), classified
    on the ``core._Batch`` the sampler returns, tallied (``_tally``) and
    formatted with one format call per line.  Each batch is one string of the output, written with one
    call before the next batch is drawn; the summary line ends the last one.
    Exit 5 after the summary when the oracle finds a P-representable
    entangled state or the routes disagree off the boundary band."""
    if args.count < 1:
        raise InvalidParameterError("--count must be >= 1")
    core._check_tol_psd(args.tol_psd, "--tol-psd")
    seed = _seed(args.seed)
    rng = np.random.default_rng(seed)
    summary = {
        "count": args.count, "seed": seed, "mode": args.mode,
        "separable": 0, "entangled": 0, "p_representable": 0,
        "separable_not_prep": 0, "prep_and_entangled": 0,
        "method_disagreements_off_boundary": 0, "separable_not_prep_witness": None,
    }

    def batches():
        """Each batch's record lines as one string, the last batch's with the
        summary line after them."""
        for start in range(0, args.count, SAMPLE_BATCH):
            batch = symplectic._random_states(rng, min(SAMPLE_BATCH, args.count - start), args.mode)
            q = batch.q
            closed, eig = (_columns(core._classified(batch, method, args.tol_psd))
                           for method in (core.METHOD_CLOSED, core.METHOD_EIG))
            agree = _agree(closed, eig)
            _tally(summary, q, closed, eig, agree)
            yield "".join([*map(_SAMPLE.__mod__, zip(
                range(start, start + len(agree)), *_param_args(q), *_verdict_args(closed),
                *_verdict_args(eig), map(_BOOL.__getitem__, agree))),
                "" if start + SAMPLE_BATCH < args.count else json.dumps({"summary": summary}) + "\n"])

    _write_output(args.output, batches())
    if summary["prep_and_entangled"] or summary["method_disagreements_off_boundary"]:
        return EXIT_INTERNAL
    return EXIT_OK


SWEEPABLE = ("n1", "m1", "m2", "ms", "mc")
# Most grid points one sweep evaluates: the product of its axes' steps.  A
# 1000 x 1000 sweep (an 83 MB CSV, joined into one string before it is
# written) peaks at about 490 MB RSS, so this keeps it below a gigabyte.
SWEEP_MAX_POINTS = 10**6


def _parse_axis(spec: str) -> tuple[str, float, float, int]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ParseError(f"axis spec must be name:min:max:steps, got {spec!r}")
    try:
        name, lo, hi, steps = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ParseError(f"axis spec {spec!r}: {exc}") from exc
    if name not in SWEEPABLE:
        raise ParseError(f"cannot sweep {name!r}; choose one of {SWEEPABLE}")
    if steps < 2 or not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParseError(f"axis spec needs steps >= 2 and finite min < max, got {spec!r}")
    if not math.isfinite(hi - lo):  # linspace's steps would be inf or nan
        raise ParseError(f"axis spec {spec!r}: max - min overflows")
    return name, lo, hi, steps


_SWEEP_COLUMNS = ("n2_min_physical", "n2_min_separable", "n2_min_prep", "prep_below_sep_flag",
                  "degenerate")
_FLAG = ("0", "1")


def _sweep_grid(axes, assignment: dict[str, float]) -> core._ParamArrays:
    """The parameters of the grid: the points of ``itertools.product`` over
    the axes (axis 1 outer), with every other parameter taken from
    ``assignment`` (0 if it is not there); no imaginary parts.  An axis's
    column is its values laid along its own dimension of the grid, broadcast
    over the other axes and copied out once, in C order.  Every parameter
    set is checked as ``GaussianParams`` checks it: the first invalid one
    raises its error."""
    sizes = [grid.size for _, grid in axes]
    n = math.prod(sizes)
    columns = {name: np.broadcast_to(grid.reshape(-1, *[1] * (len(axes) - k - 1)), sizes).ravel()
               for k, (name, grid) in enumerate(axes)}
    zero = np.zeros(n)

    def column(name):
        return columns[name] if name in columns else np.full(n, assignment.get(name, 0.0))

    q = core._ParamArrays(column("n1"), column("n2"),
                          *((column(name), zero) for name in ("m1", "m2", "ms", "mc")))
    return q.validated()


def _axis_columns(axes) -> list[list[str]]:
    """Each axis's CSV column over the grid, in the point order of
    ``_sweep_grid``: the axis's values, each formatted once
    (``float.__repr__``), each repeated for every point of the later axes,
    and that repeated for every point of the earlier ones."""
    labels = [list(map(float.__repr__, grid.tolist())) for _, grid in axes]
    sizes = list(map(len, labels))
    columns = []
    for k, strings in enumerate(labels):
        later = range(math.prod(sizes[k + 1:]))
        columns.append([s for s in strings for _ in later] * math.prod(sizes[:k]))
    return columns


def cmd_sweep(args) -> int:
    names: list[str] = [] if args.n1 is None else ["n1"]  # every parameter given, in order
    assignment: dict[str, float] = {"n1": 1.0 if args.n1 is None else args.n1, "n2": 1.0}
    for item in args.fixed or []:
        if "=" not in item:
            raise ParseError(f"--fixed expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in SWEEPABLE:
            raise ParseError(f"cannot fix {name!r}; choose one of {SWEEPABLE}")
        try:
            assignment[name] = float(value)
        except ValueError as exc:
            raise ParseError(f"--fixed {item!r}: {exc}") from exc
        names.append(name)
    axis1 = args.axis1 or ("n1:0.75:4.0:40" if args.fig1 else None)
    if axis1 is None:
        raise ParseError("--axis1 is required (or use --fig1)")
    specs = [_parse_axis(spec) for spec in (axis1, args.axis2) if spec is not None]
    size = math.prod(steps for *_, steps in specs)
    if size > SWEEP_MAX_POINTS:
        raise ParseError(f"sweep grid has {size} points, more than {SWEEP_MAX_POINTS}")
    axis_names = [name for name, *_ in specs]
    names += axis_names
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        raise ParseError(f"{', '.join(twice)} named twice across --n1, --fixed, --axis1 and --axis2")
    if args.fig1:
        # Fold comparison of the published figure: m1 = 0.5, m2 = 1, no cross
        # correlations, swept over the mode-1 occupation.
        assignment = {"m1": 0.5, "m2": 1.0, **assignment}

    with np.errstate(over="ignore"):  # a last step beyond float range is set to max
        axes = [(name, np.linspace(lo, hi, steps)) for name, lo, hi, steps in specs]
    phys, sep, prep, degenerate = core._n2_folds(core._Batch(_sweep_grid(axes, assignment)))
    flag = core.prep_below_sep(prep, sep)
    # the lines as ``csv.writer`` writes fields that need no quoting, the
    # header first; the empty last item ends the last line in the join,
    # where a "\r\n" added after it would copy the whole text once more
    lines = map(",".join, zip(*_axis_columns(axes),
                              *(map(float.__repr__, x.tolist()) for x in (phys, sep, prep)),
                              *(map(_FLAG.__getitem__, x.tolist()) for x in (flag, degenerate))))
    header = ",".join([*axis_names, *_SWEEP_COLUMNS])
    _write_output(args.output, ["\r\n".join(chain((header,), lines, ("",)))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausssep",
        description="Physicality, separability and P-representability of "
        "bipartite Gaussian states from their 4x4 covariance matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="input file ('-' for stdin)")
            sp.add_argument("--format", choices=("jsonl", "json"), default="jsonl")
        sp.add_argument("--output", default=None, help="output file (default stdout)")

    sp = sub.add_parser("classify", help="classify states from a file")
    add_io(sp)
    sp.add_argument("--method", choices=("closed", "eig", "both"), default="closed")
    sp.add_argument("--tol-psd", type=float, default=core.TOL_PSD)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("invariants", help="print the four local-symplectic invariants")
    add_io(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("transform", help="apply a local symplectic transform")
    add_io(sp)
    for name in ("theta1", "phi1", "vphi1", "theta2", "phi2", "vphi2"):
        sp.add_argument(f"--{name}", type=float, default=0.0)
    sp.add_argument("--reduce", action="store_true",
                    help="also attempt the invariant-form reduction")
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("sample", help="random-state campaign with method cross-check")
    add_io(sp, needs_input=False)
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--mode", choices=("construct", "reject"), default="construct")
    sp.add_argument("--tol-psd", type=float, default=core.TOL_PSD)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser(
        "sweep",
        help="emit CSV n2-fold table over a parameter grid",
        description="CSV columns: axis1[,axis2],n2_min_physical,"
        "n2_min_separable,n2_min_prep,prep_below_sep_flag,degenerate. "
        "Header row is always present.",
    )
    add_io(sp, needs_input=False)
    sp.add_argument("--fixed", action="append", metavar="NAME=VALUE",
                    help="fix a parameter (repeatable)")
    sp.add_argument("--axis1", metavar="NAME:MIN:MAX:STEPS")
    sp.add_argument("--axis2", metavar="NAME:MIN:MAX:STEPS")
    sp.add_argument("--n1", type=float,
                    help="mode-1 occupation (default 1), unless --fixed or an axis sets it")
    sp.add_argument("--fig1", action="store_true",
                    help="preset: m1=0.5, m2=1, sweep n1 (S/P fold comparison)")
    sp.set_defaults(func=cmd_sweep)

    return parser


# Every option that takes a float, by each prefix argparse matches it by
# (``--tol`` for ``--tol-psd``); ``_joined`` joins a negative value to it
_FLOAT_OPTIONS = frozenset(name[:k] for name in (
    "--tol-psd", "--theta1", "--phi1", "--vphi1", "--theta2", "--phi2", "--vphi2", "--n1")
    for k in range(3, len(name) + 1))


def _joined(argv) -> list[str]:
    """``argv`` with each value that reads as a negative float joined to the
    float option before it, as in ``--theta1=-1e-3``, so it reads as its
    ``=`` spelling does.  argparse takes a token that starts with a dash for
    a value only in plain decimal notation (``-1``, ``-.5``), and for an
    option otherwise: ``-1e-3``, ``-inf``, ``-nan``."""
    out = []
    for arg in argv:
        if arg[:1] == "-" and out and out[-1] in _FLOAT_OPTIONS:
            try:
                float(arg)
            except ValueError:  # not a number: an option, as argparse reads it
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it as it was."""
    return build_parser()


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by its name: the ``choices`` of the
    subparsers action of ``_parser()``, the parsers it hands its tokens to."""
    return next(action.choices for action in _parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace ``_parser().parse_args(argv)`` returns, in one parse
    where ``argv`` starts with a subcommand: that subcommand's parser reads
    the rest of it, as the full parser would hand it on after a scan of
    every token, and ``command`` is set to the subcommand.  Any other argv,
    and one that the subcommand's parser leaves tokens of, goes to the full
    parser, so help, usage and every error keep its bytes."""
    command = _commands().get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    """Run the command of ``argv`` (``sys.argv[1:]`` for None), parsed by
    ``_parse`` once its negative float values are joined to their options
    (``_joined``), and return its exit code; a usage error or help exits
    through argparse's ``SystemExit``."""
    args = _parse(_joined(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return DomainError.exit_code
    except GaussSepError as exc:
        label = "internal error" if exc.exit_code == EXIT_INTERNAL else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
