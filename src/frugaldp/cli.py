"""Command-line front end: CSV ingestion, parameter validation, release, JSON report.

Usage:
    frugaldp --mode approx --epsilon 1 --delta 0.25 --input data.csv --seed 7
    frugaldp --mode pure --epsilon 0.5 --s 8 --input data.csv --output out.json

The input is a UTF-8 CSV with a header row naming d binary predicates and
one row of 0/1 cells per dataset member. It is read once, in binary mode,
with O(d) memory: each row of the canonical form ``0,1,...,1\\n`` (or
``\\r\\n``) is checked and summed as one little-endian integer, and from the
first row of any other form on, the rest is decoded and goes through
``csv.reader`` cell by cell (see ``load_dataset``). The output is a single
JSON object with the released values, every derived parameter (enclosure
endpoints included), and n, d and mode, public under replace-one neighbours.
Epsilon and delta are parsed as decimal strings into exact rationals; no
float touches the parameter path.

The command makes one release and nothing else. Audits rerun the mechanism
on the same data, queries outside the privacy budget, so they are library
calls in ``frugaldp.audit_harness``: ``oracle_joint_dist`` with
``chi_square`` and ``tv_distance``, and a summary of a batch's bits.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction
from operator import add

from .approx_mech import derive_approx_params, mech_approx_efficient
from .bit_tape import BitTape
from .errors import DatasetFormatError, FrugalDPError, InternalError, ParameterDomainError
from .pure_mech import derive_pure_params, mech_pure_efficient
from .release import CountVector

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class RunConfig(namedtuple("RunConfig", "mode epsilon delta s seed input_path output_path")):
    """One validated CLI invocation."""

    __slots__ = ()

    def __new__(
        cls,
        mode: str,
        epsilon: Fraction,
        delta: Fraction | None,
        s: int | None,
        seed: int | None,
        input_path: str,
        output_path: str | None,
    ):
        if mode not in ("approx", "pure"):
            raise ParameterDomainError("mode must be approx or pure")
        if mode == "approx" and delta is None:
            raise ParameterDomainError("approx mode requires --delta")
        if mode == "pure" and delta is not None:
            raise ParameterDomainError("pure mode forbids --delta")
        if s is not None and not (isinstance(s, int) and s >= 1):
            raise ParameterDomainError("s must be a positive integer")
        if seed is not None and not (isinstance(seed, int) and 0 <= seed < 1 << 64):
            raise ParameterDomainError("seed must be an unsigned 64-bit integer")
        return tuple.__new__(cls, (mode, epsilon, delta, s, seed, input_path, output_path))


# Rows per flush: at most 255, so each column's count fits its byte of the
# accumulator once the rows' zero rows are taken out.
_FLUSH_ROWS = 255
# Binary readline makes a read call per buffer's worth of a line, so the
# buffer holds a few rows: 4 at d = 4096.
_READ_BUFFER = 1 << 15


def _is_one_record(line: bytes) -> bool:
    """Whether ``line`` is one whole CSV record: one physical line ending in LF or CRLF.

    A quoted field that runs on past the line fails a strict parse of the line alone.
    """
    if not line.endswith(b"\n") or b"\r" in line[:-2]:
        return False
    if b'"' in line:
        try:
            next(csv.reader((line.decode(),), strict=True))
        except csv.Error:
            return False
    return True


def _text_lines(line: bytes, fh=None):
    """``line``, then the rest of ``fh`` if given, as the text lines ``csv.reader`` reads from a file.

    Without ``fh``, ``line`` must be one physical line.
    """
    if fh is None:
        return (line.decode(),)
    return itertools.chain(io.StringIO(line.decode(), newline=""), io.TextIOWrapper(fh, encoding="utf-8", newline=""))


def load_dataset(path: str) -> CountVector:
    """Stream a binary-predicate CSV into column sums using O(d) memory.

    The file is read in binary mode, one physical line at a time. A header
    that is one whole record on one line ending in LF or CRLF, with no
    other CR, is parsed by ``csv.reader``. Each following line of 2d or
    2d + 1 bytes is read as one little-endian integer X, to be compared
    with the integer Z of the all-zero row ``0,0,...,0`` of that length
    (LF or CRLF ending). The line
    is a canonical row, ``c,c,...,c\\n`` or ``c,c,...,c\\r\\n`` with every
    cell ``0`` or ``1``, exactly when X and Z agree on every bit but the low
    bit of each cell's byte; X - Z then holds column i's cell at bit 16 i.
    The rows are added as integers, and every 255 rows the sum, less their
    zero rows, is flushed into the column sums by reading every other byte.
    From the first line of any other form on (padded or quoted cells, lone
    CR, blank lines, ragged rows, bad cells, no final newline), or from the
    header on when it is not one such line, the file is decoded and goes
    through ``csv.reader`` cell by cell, so every CSV the cell-by-cell reader
    accepts gives the same sums. The file is read once, so a pipe works as
    input.

    Malformed input raises ``DatasetFormatError``. Its ``row`` is the
    record number (header = 1), or for CSV syntax errors such as an
    oversize field the physical line; input that is not UTF-8 has no row.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        line = fh.readline()
        lines_before = 0  # physical lines read before `reader` started
        try:
            fast = _is_one_record(line)
            reader = csv.reader(_text_lines(line, None if fast else fh))
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError("empty file: missing header row")
            d = len(header)
            if d < 1 or any(not name.strip() for name in header):
                raise DatasetFormatError("header must name at least one predicate", row=1)
            del header  # only its width is used; d names would outweigh the read buffer
            sums = [0] * d
            n = 0
            if fast:
                n, rest = _sum_canonical_rows(fh, sums)
                if rest is not None:
                    lines_before = 1 + n
                    reader = csv.reader(_text_lines(rest, fh))
            for record, row in enumerate(reader, start=n + 2):
                if not row:
                    continue  # tolerate a trailing blank line
                if len(row) != d:
                    raise DatasetFormatError(
                        f"row {record} has {len(row)} cells, expected {d}", row=record
                    )
                for col, cell in enumerate(row):
                    value = cell.strip()
                    if value == "1":
                        sums[col] += 1
                    elif value != "0":
                        raise DatasetFormatError(
                            f"row {record}, column {col + 1}: non-binary cell {cell!r}",
                            row=record,
                            column=col + 1,
                        )
                n += 1
        except csv.Error as exc:
            line_no = lines_before + reader.line_num
            raise DatasetFormatError(f"line {line_no}: malformed CSV: {exc}", row=line_no) from exc
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"input is not UTF-8 text: {exc.reason}") from exc
    return CountVector(d=d, n=n, sums=tuple(sums))


def _sum_canonical_rows(fh, sums: list) -> tuple[int, bytes | None]:
    """Add the canonical rows at the head of ``fh`` into ``sums`` (see ``load_dataset``).

    Returns how many rows were added and the first line that is not a
    canonical row, or None at the end of the file.
    """
    d = len(sums)
    width = 2 * d
    zero_lf = int.from_bytes(b"0," * (d - 1) + b"0\n", "little")
    zero_crlf = int.from_bytes(b"0," * (d - 1) + b"0\r\n", "little")
    # Every bit but bit 16 i, the low bit of column i's byte.
    other = int.from_bytes(b"\xfe\xff" * d + b"\xff", "little")
    expected = {width: zero_lf & other, width + 1: zero_crlf & other}

    def flush(acc: int, rows: int, crlf: int) -> None:
        """Add in ``acc``, the sum of ``rows`` rows of which ``crlf`` end in CRLF."""
        lanes = acc - (rows - crlf) * zero_lf - crlf * zero_crlf
        sums[:] = map(add, sums, lanes.to_bytes(width, "little")[::2])

    n = acc = crlf = 0
    rest = None
    for line in fh:
        row = int.from_bytes(line, "little")
        if row & other != expected.get(len(line)):
            rest = line
            break
        acc += row
        crlf += len(line) - width
        n += 1
        if n % _FLUSH_ROWS == 0:
            flush(acc, _FLUSH_ROWS, crlf)
            acc = crlf = 0
    flush(acc, n % _FLUSH_ROWS, crlf)
    return n, rest


def _params_block(params, mode: str) -> dict:
    if mode == "approx":
        return {
            "epsilon": str(params.epsilon),
            "delta": str(params.delta),
            "s": params.s,
            "sigma_sq": list(map(float, params.sigma_sq_interval)),
            "sigma_sq_pinned": str(params.sigma_sq),
            "gamma": list(map(float, params.gamma)),
            "r": params.r,
            "grid": params.grid,
        }
    return {
        "epsilon": str(params.epsilon),
        "s": params.s,
        "m": params.m,
        "scale": str(params.scale),
        "p": list(map(float, params.p)),
        "grid": params.grid,
    }


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one release; returns (exit_code, json_report)."""
    try:
        counts = load_dataset(config.input_path)
    except DatasetFormatError as exc:
        return EXIT_IO, {"error": str(exc)}
    except OSError as exc:
        return EXIT_IO, {"error": f"cannot read {config.input_path}: {exc}"}
    s = config.s if config.s is not None else counts.d
    try:
        if config.mode == "approx":
            params = derive_approx_params(config.epsilon, config.delta, counts.d, s)
            result = mech_approx_efficient(counts, params, BitTape(seed=config.seed))
        else:
            params = derive_pure_params(config.epsilon, counts.d, s)
            result = mech_pure_efficient(counts, params, BitTape(seed=config.seed))[0]
    except InternalError as exc:
        return EXIT_INTERNAL, {"error": f"internal error: {exc}"}
    except FrugalDPError as exc:
        return EXIT_PARAMETER, {"error": str(exc)}
    report = {
        "values": list(result.values),
        "params": _params_block(params, config.mode),
        "meta": {"n": counts.n, "d": counts.d, "mode": config.mode},
    }
    return EXIT_OK, report


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact decimal or rational: {text!r}") from exc


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
        if 0 <= value < (1 << 64):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frugaldp",
        description="Differentially private counting-query release with metered random bits.",
    )
    parser.add_argument("--mode", required=True, choices=("approx", "pure"))
    parser.add_argument("--epsilon", required=True, type=_fraction_arg)
    parser.add_argument("--delta", type=_fraction_arg, default=None)
    parser.add_argument("--s", type=int, default=None, help="grid coarseness (default: d)")
    parser.add_argument("--seed", type=_seed_arg, default=None)
    parser.add_argument("--input", required=True, dest="input_path")
    parser.add_argument("--output", dest="output_path", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))  # every dest is a field name
    except ParameterDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    if config.seed is not None:
        print("note: --seed makes this release reproducible, so it is not private", file=sys.stderr)
    code, report = run(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    if config.output_path and code == EXIT_OK:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader left early (``| head``); the exit flush must not fail too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if code != EXIT_OK:
        print(f"error: {report.get('error', 'failed')}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
