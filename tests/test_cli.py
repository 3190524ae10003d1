"""Tests for dataset ingestion and the command-line front end."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import frugaldp.cli as cli
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
    SampleBudgetError,
)


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


class TestRunConfig:
    def test_approx_requires_delta(self):
        with pytest.raises(ParameterDomainError):
            RunConfig("approx", Fraction(1), None, None, None, "x.csv", None)

    def test_pure_forbids_delta(self):
        with pytest.raises(ParameterDomainError):
            RunConfig("pure", Fraction(1), Fraction(1, 4), None, None, "x.csv", None)

    def test_valid_configs(self):
        RunConfig("approx", Fraction(1), Fraction(1, 4), 4, 7, "x.csv", None)
        RunConfig("pure", Fraction(1, 2), None, None, None, "x.csv", None, audit="randomness")


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
        assert json.dumps(rep1["values"]) == json.dumps(rep2["values"])
        assert json.dumps(rep1["randomness"], sort_keys=True) == json.dumps(
            rep2["randomness"], sort_keys=True
        )

    def test_released_values_on_grid(self, csv_file):
        path = csv_file(self._rows(3, 9))
        config = RunConfig("approx", Fraction(1), Fraction(1, 4), 3, 11, path, None)
        code, report = run(config)
        assert code == EXIT_OK
        grid = report["params"]["grid"]
        assert all(v % grid == 0 for v in report["values"])
        assert report["params"]["r"] * report["params"]["s"] == grid
        assert report["meta"]["n"] == 9 and report["meta"]["d"] == 3

    def test_pure_run_reports_tail_and_grid(self, csv_file):
        path = csv_file(self._rows(12, 4))
        config = RunConfig("pure", Fraction(1), None, 2, 13, path, None)
        code, report = run(config)
        assert code == EXIT_OK
        assert all(v % report["params"]["grid"] == 0 for v in report["values"])
        assert report["params"]["m"] * report["params"]["s"] == report["params"]["grid"]
        assert report["randomness"]["tail_count"] >= 0
        assert report["randomness"]["bits_total"] == sum(
            report["randomness"]["bits_by_category"].values()
        )

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

    def test_randomness_audit_block(self, csv_file, monkeypatch):
        import frugaldp.cli as cli_module

        monkeypatch.setattr(cli_module, "_AUDIT_TRIALS", 20)
        path = csv_file(self._rows(3, 5))
        config = RunConfig("approx", Fraction(1), Fraction(1, 4), 3, 42, path, None, audit="randomness")
        code, report = run(config)
        assert code == EXIT_OK
        assert report["audit"]["runs"] == 20
        assert "mean_bits_total" in report["audit"]

    def test_accuracy_audit_block(self, csv_file, monkeypatch):
        import frugaldp.cli as cli_module

        # The audit needs enough trials to resolve beta = 0.1.
        monkeypatch.setattr(cli_module, "_AUDIT_TRIALS", 100)
        path = csv_file(self._rows(12, 4))
        config = RunConfig("pure", Fraction(1), None, 2, 42, path, None, audit="accuracy")
        code, report = run(config)
        assert code == EXIT_OK
        assert report["audit"]["pass"] in (True, False)

    def test_equivalence_audit_guard(self, csv_file):
        path = csv_file(self._rows(16, 4))
        config = RunConfig("pure", Fraction(1), None, 2, 42, path, None, audit="equivalence")
        code, report = run(config)
        assert code == EXIT_PARAMETER
        assert "desk-scale" in report["error"]

    def test_equivalence_audit_runs_at_desk_scale(self, csv_file, monkeypatch):
        import frugaldp.cli as cli_module

        monkeypatch.setattr(cli_module, "_EQUIVALENCE_TRIALS", 2_000)
        path = csv_file(self._rows(2, 3))
        config = RunConfig(
            "approx", Fraction(1), Fraction(1, 4), 2, 42, path, None, audit="equivalence"
        )
        code, report = run(config)
        assert code == EXIT_OK
        assert report["audit"]["trials"] == 2_000
        assert report["audit"]["chi_square_p"] >= 0.001
        assert report["audit"]["tv_distance"] <= 0.1


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
        assert report["meta"]["seed"] == 7
        assert len(report["values"]) == 2

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

    def test_seed_validation(self):
        from frugaldp.cli import _seed_arg

        with pytest.raises(Exception):
            _seed_arg(str(1 << 64))
        assert _seed_arg("0") == 0


class TestInternalFaults:
    @pytest.mark.parametrize("error", [EnclosureContractError, SampleBudgetError, EntropySourceError])
    def test_internal_fault_exits_internal(self, csv_file, monkeypatch, error):
        assert issubclass(error, InternalError)

        def broken(*args, **kwargs):
            raise error("injected fault")

        monkeypatch.setattr(cli, "mech_pure_efficient", broken)
        data = csv_file("a\n1\n")
        code, report = run(RunConfig("pure", Fraction(1, 16), None, 2, 1, data, None))
        assert code == EXIT_INTERNAL == 4
        assert "injected fault" in report["error"]

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
    for module in ("frugaldp.cli", "frugaldp"):
        probe = f"import sys, {module}; print(sorted({{'numpy', 'scipy'}} & set(sys.modules)))"
        proc = _run_python(probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
    import frugaldp

    assert len(frugaldp.__all__) <= 20
    for name in frugaldp.__all__:
        assert getattr(frugaldp, name) is not None


def test_audit_without_numpy_names_the_extra(csv_file):
    data = csv_file("a,b\n1,0\n0,1\n1,1\n")
    # None in sys.modules makes every import of numpy fail as if it were absent.
    probe = (
        "import sys; sys.modules['numpy'] = None; from frugaldp.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    proc = _run_python(
        probe, "--mode", "approx", "--epsilon", "1", "--delta", "0.25",
        "--input", data, "--seed", "1", "--audit", "randomness",
    )
    assert proc.returncode == EXIT_PARAMETER == 2
    assert "frugaldp[audit]" in proc.stderr
    assert "Traceback" not in proc.stderr
