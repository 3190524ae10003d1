"""Tests for dataset ingestion and the command-line front end."""

import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import frugaldp.cli as cli
from frugaldp.approx_mech import ApproxParams
from frugaldp.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARAMETER,
    RunConfig,
    load_dataset,
    main,
    run,
)
from frugaldp.errors import (
    DatasetFormatError,
    EnclosureContractError,
    EntropySourceError,
    InternalError,
    ParameterDomainError,
)
from frugaldp.release import CountVector, RandomnessReport


@pytest.fixture
def csv_file(tmp_path):
    def write(text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestLoadDataset:
    def test_column_sums(self, csv_file):
        path = csv_file("left,right\n1,0\n1,1\n0,0\n")
        counts = load_dataset(path)
        assert counts.d == 2
        assert counts.n == 3
        assert counts.sums == (2, 1)

    def test_empty_file_rejected(self, csv_file):
        with pytest.raises(DatasetFormatError):
            load_dataset(csv_file(""))

    def test_header_only_gives_zero_rows(self, csv_file):
        counts = load_dataset(csv_file("a,b,c\n"))
        assert counts.d == 3
        assert counts.n == 0
        assert counts.sums == (0, 0, 0)

    def test_ragged_row_reports_position(self, csv_file):
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(csv_file("a,b\n1,0\n1\n"))
        assert err.value.row == 3

    def test_non_binary_cell_reports_position(self, csv_file):
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(csv_file("a,b\n1,2\n"))
        assert err.value.row == 2
        assert err.value.column == 2

    def test_whitespace_tolerated(self, csv_file):
        counts = load_dataset(csv_file("a,b\n 1 ,0\n"))
        assert counts.sums == (1, 0)

    @pytest.mark.parametrize("rows", [254, 255, 256, 510, 511])
    def test_sums_across_accumulator_flushes(self, csv_file, rows):
        # One byte per column holds 255 ones; rows 255 and 510 are flushes.
        counts = load_dataset(csv_file("a,b,c\n" + "1,0,1\n" * rows))
        assert (counts.n, counts.sums) == (rows, (rows, 0, rows))

    @pytest.mark.parametrize("rows", [254, 255, 256, 510, 511])
    def test_crlf_rows_give_the_lf_sums_on_the_fast_path(self, csv_file, monkeypatch, rows):
        body = "".join(("1,0,1\n", "0,1,1\n", "1,1,0\n")[i % 3] for i in range(rows))
        lf = load_dataset(csv_file("a,b,c\n" + body, "lf.csv"))
        readers = []
        real = csv.reader
        monkeypatch.setattr(csv, "reader", lambda fh: readers.append(fh) or real(fh))
        crlf = load_dataset(csv_file("a,b,c\r\n" + body.replace("\n", "\r\n"), "crlf.csv"))
        assert (crlf.n, crlf.sums) == (lf.n, lf.sums) == (rows, lf.sums)
        assert len(readers) == 1  # the header's reader only: no row fell back

    def test_quoted_one_line_header_keeps_the_fast_path(self, csv_file, monkeypatch):
        decoded = []  # for each decode: whether the rest of the file came with it
        real = cli._text_lines
        monkeypatch.setattr(cli, "_text_lines", lambda line, fh=None: decoded.append(fh is not None) or real(line, fh))
        counts = load_dataset(csv_file('"a","b,c"\n1,0\n0,1\n1,1\n'))
        assert (counts.n, counts.sums, decoded) == (3, (2, 2), [False])

    def test_non_utf8_input_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n1,0\n\xff,1\n")
        with pytest.raises(DatasetFormatError, match="UTF-8"):
            load_dataset(str(path))
        argv = ["--mode", "approx", "--epsilon", "1", "--delta", "0.25", "--input", str(path)]
        assert main(argv) == EXIT_IO
        assert "UTF-8" in capsys.readouterr().err

    def test_oversize_field_is_a_format_error(self, csv_file):
        path = csv_file('a,b\n1,0\n"' + "1" * (csv.field_size_limit() + 1) + '",0\n')
        with pytest.raises(DatasetFormatError, match="field limit") as err:
            load_dataset(path)
        assert err.value.row == 3
        code, report = run(RunConfig("approx", Fraction(1), Fraction(1, 4), None, 1, path, None))
        assert code == EXIT_IO
        assert "line 3" in report["error"]

    def test_memory_stays_within_a_few_rows(self, csv_file):
        d, rows = 512, 2000
        row = ",".join("1" if j % 3 else "0" for j in range(d)) + "\n"
        path = csv_file(",".join(f"q{j}" for j in range(d)) + "\n" + row * rows)
        tracemalloc.start()
        try:
            counts = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.n == rows
        # The file is 2 MB. Allow the read buffers and a few rows in flight
        # plus the O(d) header and column sums, a few hundred bytes per column.
        assert peak < 16 * len(row) + 256 * d


def _load_cell_by_cell(path: str) -> CountVector:
    """Reference ingest: csv.reader and a per-cell check of every row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("empty file: missing header row") from None
        d = len(header)
        if d < 1 or any(not name.strip() for name in header):
            raise DatasetFormatError("header must name at least one predicate", row=1)
        sums = [0] * d
        n = 0
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d:
                raise DatasetFormatError(
                    f"row {line} has {len(row)} cells, expected {d}", row=line
                )
            for col, cell in enumerate(row):
                value = cell.strip()
                if value == "1":
                    sums[col] += 1
                elif value != "0":
                    raise DatasetFormatError(
                        f"row {line}, column {col + 1}: non-binary cell {cell!r}",
                        row=line,
                        column=col + 1,
                    )
            n += 1
    return CountVector(d=d, n=n, sums=tuple(sums))


def _outcome(load, path):
    try:
        counts = load(path)
    except DatasetFormatError as exc:
        return ("error", str(exc), exc.row, exc.column)
    return (counts.d, counts.n, counts.sums)


# Cells that leave the canonical form: padded, quoted (one spanning two
# lines), empty, non-binary and non-ASCII. Rows end in LF, CRLF or CR.
_MESSY_CELLS = ("0", "1", " 1", "0 ", '"1"', '"0"', '"1\n"', "", "00", "101", "2", "x", "\u00e9")


@st.composite
def _csv_texts(draw):
    d = draw(st.integers(1, 4))
    canonical = st.lists(st.sampled_from("01"), min_size=d, max_size=d).map(",".join)
    messy = st.lists(st.sampled_from(_MESSY_CELLS), max_size=d + 1).map(",".join)
    endings = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = ",".join(f"q{i}" for i in range(d)) + draw(endings)
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.one_of(canonical, canonical, messy))
        text += (row + draw(endings)) * draw(st.one_of(st.just(1), st.integers(1, 300)))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts())
@example(text="a,b\n1,0\n1,00")  # 2d characters, but the last is not a newline
@example(text="a,b,c\n1,0,1\n1,101\n")  # 2d characters, cells at odd positions
@example(text="a,b\r1,0\r0,1\n")  # lone CR line ends
@example(text="a,b\n1,0\n/,1\n")  # 0x2F, the neighbour of "0"
@example(text="a,b\n1,0\n0,2\n")  # 0x32, the neighbour of "1"
@example(text="a,b\n0,1\n1,0\r")  # 2d bytes at the end of the file, ending in a lone CR
@example(text="a,b\n1,0\n0,1\r1,1\n")  # a lone CR inside one binary line
@example(text="a,b\n1,01\n")  # 2d + 1 bytes, but no CRLF ending
@example(text="a,b\n1,0\r1")  # 2d + 1 bytes at the end of the file: CR, then no LF
@example(text="a,b\n\u00e9,\n")  # non-ASCII, 2d bytes in UTF-8
@example(text="a,b\n1,\u00e9\n")  # non-ASCII, 2d + 1 bytes in UTF-8
@example(text="a,b\r1,0\n0,1\n")  # a header with a lone CR ending, then LF rows
@example(text='"a\nb",c\n1,0\n0,1\n')  # a quoted header over two lines
@example(text='"a","b,c"\n1,0\n0,1\n')  # a quoted header on one line
@example(text='a"b,"c\n1,0\n",0\n')  # a mid-field quote, then a quoted field that runs on
@example(text="a,b\n" + "1,0\n" * 200 + "0,1\r\n" * 100 + "1,1\n")  # CRLF after LF, across a flush
def test_fast_and_cell_by_cell_ingest_agree(tmp_path, text):
    path = tmp_path / "mixed.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_dataset, str(path)) == _outcome(_load_cell_by_cell, str(path))


class TestRunConfig:
    def test_approx_requires_delta(self):
        with pytest.raises(ParameterDomainError):
            RunConfig("approx", Fraction(1), None, None, None, "x.csv", None)

    def test_pure_forbids_delta(self):
        with pytest.raises(ParameterDomainError):
            RunConfig("pure", Fraction(1), Fraction(1, 4), None, None, "x.csv", None)

    def test_valid_configs(self):
        RunConfig("approx", Fraction(1), Fraction(1, 4), 4, 7, "x.csv", None)
        RunConfig("pure", Fraction(1, 2), None, None, None, "x.csv", None)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5])
    def test_seed_outside_64_bits_is_a_parameter_error(self, seed):
        with pytest.raises(ParameterDomainError, match="seed must be an unsigned 64-bit integer"):
            RunConfig("approx", Fraction(1), Fraction(1, 4), None, seed, "x.csv", None)

    def test_non_integer_s_is_a_parameter_error(self):
        with pytest.raises(ParameterDomainError, match="s must be a positive integer"):
            RunConfig("pure", Fraction(1, 2), None, 1.5, None, "x.csv", None)


class TestRun:
    def _rows(self, d, n):
        header = ",".join(f"q{i}" for i in range(d))
        row = ",".join("1" for _ in range(d))
        return header + "\n" + "\n".join(row for _ in range(n)) + "\n"

    def test_pure_scale_requirement_exit_code(self, csv_file):
        path = csv_file(self._rows(4, 3))
        config = RunConfig("pure", Fraction(1), None, None, 1, path, None)
        code, report = run(config)  # d/eps = 4 <= 10
        assert code == EXIT_PARAMETER
        assert "d/epsilon > 10" in report["error"]

    def test_approx_delta_domain_exit_code(self, csv_file):
        path = csv_file(self._rows(2, 3))
        config = RunConfig("approx", Fraction(1), Fraction(7, 10), None, 1, path, None)
        code, report = run(config)  # delta > exp(-1/2)
        assert code == EXIT_PARAMETER
        assert "exp(-epsilon/2)" in report["error"]

    def test_missing_file_exit_code(self):
        config = RunConfig("approx", Fraction(1), Fraction(1, 4), None, 1, "/nonexistent.csv", None)
        code, report = run(config)
        assert code == EXIT_IO

    def test_seeded_run_is_reproducible(self, csv_file):
        path = csv_file(self._rows(3, 5))
        config = RunConfig("approx", Fraction(1), Fraction(1, 4), 3, 42, path, None)
        code1, rep1 = run(config)
        code2, rep2 = run(config)
        assert code1 == code2 == EXIT_OK
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_released_values_on_grid(self, csv_file):
        path = csv_file(self._rows(3, 9))
        config = RunConfig("approx", Fraction(1), Fraction(1, 4), 3, 11, path, None)
        code, report = run(config)
        assert code == EXIT_OK
        grid = report["params"]["grid"]
        assert all(v % grid == 0 for v in report["values"])
        assert report["params"]["r"] * report["params"]["s"] == grid
        assert report["meta"]["n"] == 9 and report["meta"]["d"] == 3

    def test_pure_run_reports_grid_and_no_tail_count(self, csv_file):
        # Pure releases draw no tail set, so the report has no tail count to leak.
        path = csv_file(self._rows(12, 4))
        config = RunConfig("pure", Fraction(1), None, 2, 13, path, None)
        code, report = run(config)
        assert code == EXIT_OK
        assert all(v % report["params"]["grid"] == 0 for v in report["values"])
        assert report["params"]["m"] * report["params"]["s"] == report["params"]["grid"]
        assert set(report) == {"values", "params", "meta"}

    def test_default_s_is_dimension(self, csv_file):
        path = csv_file(self._rows(2, 3))
        config = RunConfig("approx", Fraction(1), Fraction(1, 4), None, 1, path, None)
        code, report = run(config)
        assert code == EXIT_OK
        assert report["params"]["s"] == 2

    def test_parameter_roundtrip(self, csv_file):
        from frugaldp.approx_mech import derive_approx_params

        path = csv_file(self._rows(3, 5))
        config = RunConfig("approx", Fraction(1), Fraction(1, 4), 3, 42, path, None)
        _, report = run(config)
        params = derive_approx_params(Fraction(1), Fraction(1, 4), 3, 3)
        assert report["params"]["r"] == params.r
        assert report["params"]["sigma_sq_pinned"] == str(params.sigma_sq)
        assert Fraction(report["params"]["epsilon"]) == Fraction(1)


@pytest.mark.parametrize(
    "mode, epsilon, delta", [("approx", Fraction(1), Fraction(1, 4)), ("pure", Fraction(1, 4), None)]
)
def test_only_the_values_depend_on_the_data_or_the_seed(csv_file, mode, epsilon, delta):
    # Replace-one neighbours: the second file flips one cell of one row, so n is public.
    rows = ["1,0,1", "0,1,1", "1,1,0", "0,0,1", "1,0,0"]
    paths = [csv_file("a,b,c\n" + "\n".join(rows) + "\n", "x.csv")]
    rows[2] = "0,1,0"
    paths.append(csv_file("a,b,c\n" + "\n".join(rows) + "\n", "neighbour.csv"))
    published = []
    for path in paths:
        for seed in (1, 2, 3, None):
            code, report = run(RunConfig(mode, epsilon, delta, 2, seed, path, None))
            assert code == EXIT_OK
            assert set(report) == {"values", "params", "meta"}
            assert set(report["meta"]) == {"n", "d", "mode"}
            del report["values"]
            published.append(report)
    assert all(report == published[0] for report in published)


class TestMain:
    def test_writes_output_file(self, csv_file, tmp_path):
        data = csv_file("a,b\n1,0\n0,1\n1,1\n")
        out = tmp_path / "report.json"
        code = main(
            [
                "--mode",
                "approx",
                "--epsilon",
                "1",
                "--delta",
                "0.25",
                "--input",
                data,
                "--output",
                str(out),
                "--seed",
                "7",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert "seed" not in report["meta"]
        assert len(report["values"]) == 2

    @pytest.mark.parametrize("seed", [None, 7])
    def test_seeded_run_says_it_is_not_private(self, csv_file, tmp_path, capsys, seed):
        argv = ["--mode", "approx", "--epsilon", "1", "--delta", "0.25"]
        argv += ["--input", csv_file("a,b\n1,0\n"), "--output", str(tmp_path / "out.json")]
        assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == EXIT_OK
        err = capsys.readouterr().err
        if seed is None:
            assert err == ""
        else:
            assert len(err.splitlines()) == 1
            assert "reproducible" in err and "not private" in err

    @pytest.mark.parametrize("epsilon, delta", [("1", "1e-30"), ("0.1", "1e-29")])
    def test_delta_with_gamma_below_two_to_the_minus_96(self, csv_file, tmp_path, epsilon, delta):
        # Valid parameters (delta <= exp(-eps/2)) once exited 4, "gamma enclosure collapsed to zero".
        out = tmp_path / "out.json"
        argv = ["--mode", "approx", "--epsilon", epsilon, "--delta", delta, "--output", str(out)]
        assert main(argv + ["--input", csv_file("a,b,c\n1,0,1\n0,1,1\n")]) == EXIT_OK
        gamma = json.loads(out.read_text())["params"]["gamma"]
        assert 0 < gamma[0] <= gamma[1] < 2**-96

    def test_tiny_delta_is_released(self, csv_file, tmp_path):
        # The window radius's tail budget is then near 2**-8300, past the 8 192
        # bits a comparison once refined to from 64 bits: it exited 4.
        out = tmp_path / "out.json"
        argv = ["--mode", "approx", "--epsilon", "1", "--delta", "1e-2500", "--output", str(out)]
        assert main(argv + ["--input", csv_file("a,b,c\n1,0,1\n0,1,1\n")]) == EXIT_OK
        assert json.loads(out.read_text())["params"]["r"] == 28212

    def test_tiny_epsilon_exits_parameter(self, csv_file, capsys):
        # The window radius would be near 2**1331; deriving it once never returned.
        argv = ["--mode", "approx", "--epsilon", "1e-400", "--delta", "0.25", "--s", "2"]
        assert main(argv + ["--input", csv_file("a,b\n1,0\n0,1\n")]) == EXIT_PARAMETER
        assert "window radius" in capsys.readouterr().err

    def test_decimal_parsing_is_exact(self):
        from frugaldp.cli import _fraction_arg

        assert _fraction_arg("0.25") == Fraction(1, 4)
        assert _fraction_arg("1e-3") == Fraction(1, 1000)
        with pytest.raises(Exception):
            _fraction_arg("not-a-number")

    def test_pure_with_delta_exits_parameter(self, csv_file, capsys):
        data = csv_file("a\n1\n")
        code = main(
            ["--mode", "pure", "--epsilon", "1", "--delta", "0.1", "--input", data]
        )
        assert code == EXIT_PARAMETER

    def test_audit_option_is_gone(self, csv_file, capsys):
        # Audits rerun the mechanism on the data; they are library calls, not release output.
        argv = ["--mode", "approx", "--epsilon", "1", "--delta", "0.25", "--input", csv_file("a\n1\n")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--audit", "equivalence"])
        assert exc.value.code == EXIT_PARAMETER
        assert "--audit" in capsys.readouterr().err

    def test_seed_validation(self):
        from frugaldp.cli import _seed_arg

        for text in (str(1 << 64), "-1", "abc", "1.5", ""):
            with pytest.raises(argparse.ArgumentTypeError, match="^seed must be an unsigned 64-bit integer$"):
                _seed_arg(text)
        assert _seed_arg("0") == 0


class TestInternalFaults:
    @pytest.mark.parametrize("error", [EnclosureContractError, EntropySourceError])
    def test_internal_fault_exits_internal(self, csv_file, monkeypatch, error):
        assert issubclass(error, InternalError)

        def broken(*args, **kwargs):
            raise error("injected fault")

        monkeypatch.setattr(cli, "mech_pure_efficient", broken)
        data = csv_file("a\n1\n")
        code, report = run(RunConfig("pure", Fraction(1, 16), None, 2, 1, data, None))
        assert code == EXIT_INTERNAL == 4
        assert "injected fault" in report["error"]

    def test_broken_envelope_exits_internal(self, csv_file, monkeypatch):
        # A release outside its deterministic envelope is a fault of the package.
        monkeypatch.setattr(ApproxParams, "accuracy_bound", 0)
        data = csv_file("a,b,c\n1,0,1\n0,1,1\n")
        code, report = run(RunConfig("approx", Fraction(1), Fraction(1, 1 << 20), 2, 1, data, None))
        assert code == EXIT_INTERNAL == 4
        assert "envelope" in report["error"]

    def test_broken_ledger_is_internal(self):
        with pytest.raises(InternalError):
            RandomnessReport(1, {"shift": 2}, (), {})

    def test_parameter_errors_keep_their_code(self, csv_file):
        data = csv_file("a\n1\n")
        code, _ = run(RunConfig("pure", Fraction(1), None, 2, 1, data, None))
        assert code == EXIT_PARAMETER


def _run_python(probe, *args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env
    )


def test_cli_import_leaves_numpy_and_scipy_out():
    # The last load goes through the package's lazy names into the audit harness.
    loads = ("import frugaldp.cli", "import frugaldp", "import frugaldp.audit_harness",
             "import frugaldp; frugaldp.privacy_audit")
    for load in loads:
        probe = f"import sys; {load}; print(sorted({{'numpy', 'scipy'}} & set(sys.modules)))"
        proc = _run_python(probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
    import frugaldp

    assert len(frugaldp.__all__) <= 20
    for name in frugaldp.__all__:
        assert getattr(frugaldp, name) is not None


def test_cli_import_leaves_dataclasses_and_typing_out():
    # -S: site hooks may load typing before the probe runs. The audit
    # harness's records are namedtuples too, so it needs no dataclasses.
    probes = (
        ("frugaldp.cli", "'dataclasses', 'inspect', 'typing', 'contextlib'"),
        ("frugaldp.audit_harness", "'dataclasses', 'inspect'"),
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for module, names in probes:
        probe = f"import sys, {module}; print(sorted({{{names}}} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_module_entry_point_imports_the_cli_once():
    # runpy warns, an error here, when importing the package has already
    # loaded frugaldp.cli, which would then run a second time as __main__.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "frugaldp.cli", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == EXIT_OK, proc.stderr


def test_audits_run_without_numpy_or_scipy(csv_file):
    data = csv_file("a,b,c\n1,0,1\n0,1,1\n1,1,0\n0,0,1\n1,0,0\n")
    # None in sys.modules makes every import of a module fail as if it were absent.
    # Each mode: the randomness summary and the oracle equivalence check over the
    # same 2 000 seeded releases, then the certified privacy audit against the
    # desk data with a row of ones added.
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from collections import Counter\n"
        "from fractions import Fraction\n"
        "from frugaldp import BitTape, CountVector, derive_approx_params, derive_pure_params, load_dataset\n"
        "from frugaldp import mech_approx_efficient, mech_pure_efficient, privacy_audit, randomness_audit\n"
        "from frugaldp.audit_harness import chi_square, oracle_joint_dist, tv_distance\n"
        "counts = load_dataset(sys.argv[1])\n"
        "neighbor = CountVector(d=3, n=counts.n + 1, sums=tuple(x + 1 for x in counts.sums))\n"
        "words = BitTape(seed=1)\n"
        "seeds = [words.next_bits(64) for _ in range(2000)]\n"
        "modes = {\n"
        "    'approx': (Fraction(1), derive_approx_params(Fraction(1), Fraction(1, 4), 3, 2), Fraction(1, 4),\n"
        "               lambda params, tape: mech_approx_efficient(counts, params, tape)),\n"
        "    'pure': (Fraction(1, 4), derive_pure_params(Fraction(1, 4), 3, 2), Fraction(0),\n"
        "             lambda params, tape: mech_pure_efficient(counts, params, tape)[0]),\n"
        "}\n"
        "for mode, (epsilon, params, delta, release) in modes.items():\n"
        "    results = [release(params, BitTape(seed=seed)) for seed in seeds]\n"
        "    runs = randomness_audit(results)['runs']\n"
        "    oracle = oracle_joint_dist(counts, params)\n"
        "    histogram = Counter(result.values for result in results)\n"
        "    p, tv = chi_square(histogram, oracle), float(tv_distance(histogram, oracle))\n"
        "    passed = privacy_audit(counts, neighbor, params, epsilon, delta).passed\n"
        "    print(mode, runs, p >= 0.001 and tv <= 0.1, passed)\n"
    )
    proc = _run_python(probe, data)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["approx 2000 True True", "pure 2000 True True"], proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_piped_input_is_read_in_one_pass(tmp_path):
    # A pipe cannot be rewound or reopened: a second read would see no rows.
    rows = ["1,0,1,1,0,0,1,0\n", "0,1,1,0,0,1,0,1\n"] * 300
    rows[311] = " 1,0,1,1,0,0,1,0\n"  # falls back to csv.reader part way
    data = ("a,b,c,d,e,f,g,h\n" + "".join(rows)).encode()
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = [sys.executable, "-m", "frugaldp.cli", "--mode", "approx", "--epsilon", "1",
            "--delta", "0.25", "--seed", "9", "--input"]
    reports = []
    for source, stdin in ((str(path), None), ("/dev/stdin", data)):
        proc = subprocess.run(
            argv + [source], input=stdin, capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        reports.append(json.loads(proc.stdout))
    assert reports[0]["meta"]["n"] == reports[1]["meta"]["n"] == 600
    assert reports[0]["values"] == reports[1]["values"]


def test_reader_closing_the_pipe_early_exits_quietly(tmp_path):
    # The report of 20 000 columns is larger than a 64 KiB pipe buffer, so the
    # writer is still writing when the reader closes its end.
    d = 20_000
    path = tmp_path / "wide.csv"
    path.write_text(",".join(f"q{j}" for j in range(d)) + "\n" + ",".join("01"[j % 2] for j in range(d)) + "\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "frugaldp.cli", "--mode", "pure", "--epsilon", "1", "--s", "4",
         "--seed", "1", "--input", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait() == EXIT_OK, stderr
    assert "Traceback" not in stderr
