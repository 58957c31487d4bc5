"""Command-line interface: flags, exit codes, outputs, manifests."""

import csv
import hashlib
import json

import pytest

from perclab import cli
from perclab.cli import SUBCOMMANDS, run
from perclab.errors import InternalCheckError
from perclab.spectra import BlockSpectra


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_every_subcommand_has_help(capsys):
    for name in SUBCOMMANDS:
        assert run([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--out" in out


def test_usage_error_exit_2(capsys):
    assert run(["ids"]) == 2  # missing --L
    assert run(["nonsense"]) == 2


BAD_ARGS = {
    "workers_negative": ["ids", "--L", "4", "--p", "0.5", "--workers", "-3"],
    "workers_zero": ["ids", "--L", "4", "--p", "0.5", "--workers", "0"],
    "energy_zero_denominator": ["jumps", "--L", "4", "--p", "0.5", "--E", "1/0"],
    "minpoly_not_integer": ["loghoelder", "--L", "4", "--p", "0.5", "--minpoly", "1.5,1"],
    "dist_atom_not_a_number": ["ids", "--L", "4", "--dist", '{"atoms": [[0, "x"]]}'],
    "dist_atom_without_weight": ["ids", "--L", "4", "--dist", '{"atoms": [[0]]}'],
    "dist_atom_nan": ["ids", "--L", "4", "--dist", '{"atoms": [[NaN, 1.0]]}'],
    "approx_nan": ["loghoelder", "--L", "4", "--p", "0.5", "--minpoly", "-2,0,1",
                   "--approx", "nan"],
    "unknown_flag": ["ids", "--L", "4", "--p", "0.5", "--bogus"],
    "energy_nan": ["jumps", "--L", "4", "--p", "0.5", "--E", "nan"],
    "window_nan": ["jumps", "--L", "4", "--p", "0.5", "--E", "0", "--windows", "nan"],
    "kernel_offsets_not_a_list": ["ids", "--L", "4", "--p", "0.5", "--kernel", '{"offsets": 5}'],
    "kernel_without_offsets": ["ids", "--L", "4", "--p", "0.5", "--kernel", "{}"],
    "kernel_offset_with_three_parts": ["ids", "--L", "4", "--p", "0.5",
                                       "--kernel", '{"offsets": [[[1], 1, 2]]}'],
    "kernel_vector_not_a_list": ["ids", "--L", "4", "--p", "0.5",
                                 "--kernel", '{"offsets": [[1, 1]]}'],
    "kernel_coefficient_string": ["ids", "--L", "4", "--p", "0.5",
                                  "--kernel", '{"offsets": [[[1], "a"], [[-1], "a"]]}'],
    "kernel_coefficient_infinite": ["ids", "--L", "4", "--p", "0.5", "--kernel",
                                    '{"offsets": [[[1], Infinity], [[-1], Infinity]]}'],
    "kernel_offset_not_integer": ["ids", "--L", "4", "--p", "0.5",
                                  "--kernel", '{"offsets": [[[1.5], 1], [[-1.5], 1]]}'],
    "kernel_zero_dimensional": ["ids", "--L", "4", "--p", "0.5",
                                "--kernel", '{"offsets": [[[], 1]]}'],
    "catalog_kernel_of_other_dimension": ["catalog", "--maxsize", "2", "--kernel",
                                          '{"offsets": [[[1, 0], 1], [[-1, 0], 1]]}'],
    "grid_too_many_steps": ["ids", "--L", "4", "--p", "0.5", "--grid", "0:1:100000000000"],
    "grid_infinite_bound": ["ids", "--L", "4", "--p", "0.5", "--grid", "0:inf:5"],
}


@pytest.mark.filterwarnings("error")  # a warning would print lines of its own
@pytest.mark.parametrize("name", sorted(BAD_ARGS))
def test_bad_arguments_give_one_usage_line(name, tmp_path, capsys):
    assert run(BAD_ARGS[name] + ["--dim", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_distribution_exit_2(capsys):
    assert run(["ids", "--dim", "1", "--L", "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_wegner_hypothesis_violation_exit_3(tmp_path, capsys):
    dist = json.dumps({"atoms": [[0.0, 0.2]], "pieces": [[-1.0, 1.0, 0.5]],
                       "inactive": 0.3})
    code = run(["wegner", "--dim", "2", "--L", "6", "--dist", dist,
                "--a", "-6", "--b", "6", "--interval", "-0.5:0.5",
                "--realizations", "2", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: hypothesis-violation:") and err.count("\n") == 1


def test_resource_guard_exit_4(tmp_path, capsys):
    code = run(["catalog", "--dim", "2", "--maxsize", "8",
                "--atoms", "0,1,2,3", "--out", str(tmp_path)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: resource-guard:")


def test_internal_check_exit_5(tmp_path, capsys, monkeypatch):
    def breakdown(args, started):
        raise InternalCheckError("factorization breakdown on a block of dimension 9000")

    monkeypatch.setitem(cli._HANDLERS, "catalog", breakdown)
    code = run(["catalog", "--dim", "1", "--maxsize", "2", "--out", str(tmp_path)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: internal-check:") and err.count("\n") == 1


def test_ids_run_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "run1"
    code = run(["ids", "--dim", "1", "--L", "40", "--p", "1", "--grid",
                "-2.5:2.5:11", "--realizations", "1", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(open(out / "ids.csv")))
    assert rows[0] == ["E", "mean", "stderr", "M", "L", "restriction"]
    assert len(rows) == 12
    mid = rows[6]  # E = 0.0
    assert abs(float(mid[1]) - 0.5) < 0.01
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["command"] == "ids"
    assert manifest["outputs"] == ["ids.csv"]
    assert manifest["seed"] == 7
    assert (out / "ids.csv").exists()


def test_json_format(tmp_path):
    code = run(["gn", "--dim", "1", "--L", "20", "--p", "0.4", "--nmax", "3",
                "--realizations", "2", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    payload = json.loads((tmp_path / "gn.json").read_text())
    assert {"n", "G", "stderr"} <= set(payload[0])


def test_jumps_csv_schema_and_catalog_match(tmp_path):
    code = run(["jumps", "--dim", "1", "--L", "400", "--p", "0.5", "--E", "0",
                "--E", "1", "--windows", "1e-6", "--realizations", "3",
                "--seed", "2", "--catalog-maxsize", "4", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "jumps.csv")))
    assert rows[0] == ["E", "window", "jump", "stderr", "exact", "catalog_match"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[4] != ""  # exact path available for Bernoulli + rational E
        assert row[5] != ""  # 0 and 1 are catalog energies


def test_manifest_rerun_byte_identical(tmp_path):
    args = ["ids", "--dim", "2", "--L", "8", "--p", "0.6", "--grid", "-4:4:9",
            "--realizations", "3", "--seed", "11"]
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert run(args + ["--out", str(out1)]) == 0
    manifest = json.loads((out1 / "run.json").read_text())
    argv = manifest["argv"]
    k = argv.index("--out")
    rerun = argv[:k] + argv[k + 2:]
    assert run(rerun + ["--out", str(out2)]) == 0
    assert _read(out1 / "ids.csv") == _read(out2 / "ids.csv")
    # any worker count produces the same bytes
    assert run(rerun + ["--out", str(out3), "--workers", "4"]) == 0
    assert _read(out1 / "ids.csv") == _read(out3 / "ids.csv")


def test_loghoelder_cli_minpoly(tmp_path):
    code = run(["loghoelder", "--dim", "2", "--L", "8", "--p", "0.5",
                "--minpoly", "-2,0,1", "--approx", "1.414",
                "--eps", "1e-2,1e-4", "--realizations", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "loghoelder.csv")))
    assert rows[0] == ["E", "eps", "lhs_max", "bound"]
    assert len(rows) == 3


def test_continuity_cli(tmp_path):
    dist = json.dumps({"pieces": [[0.0, 1.0, 0.7]], "inactive": 0.3})
    code = run(["continuity", "--dim", "1", "--L", "200", "--dist", dist,
                "--E", "0", "--windows", "1e-1,1e-2", "--realizations", "2",
                "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "continuity.csv")))
    assert rows[0] == ["E", "window", "jump", "stderr"]


def test_convergence_cli_requires_two_L(tmp_path, capsys):
    assert run(["convergence", "--dim", "2", "--L", "6", "--p", "0.7",
                "--out", str(tmp_path)]) == 2


def test_catalog_cli(tmp_path):
    code = run(["catalog", "--dim", "1", "--maxsize", "3", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "catalog.csv")))
    assert rows[0] == ["energy", "multiplicity", "witness_size", "witness_sites"]
    assert len(rows) == 6  # 5 energies


def test_mirror_cli(tmp_path):
    code = run(["mirror", "--dim", "1", "--maxsize", "3", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "mirror.csv")))
    assert rows[0] == ["energy", "witness_size", "vector", "residual", "norm_ratio"]
    assert len(rows) == 1 + 1 + 2 + 3
    for row in rows[1:]:
        assert float(row[3]) <= 1e-12 * (1 + abs(float(row[0])))
        assert abs(float(row[4]) - 2.0) < 1e-12


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "perclab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "perclab" in proc.stdout


# sha256 of CSVs written by the code as it was before the jumps and Wegner
# drivers took all their energies and intervals in one pass over realizations
# (jumps, wegner, continuity), and before the projector estimator solved one
# block per class (projector_*; the d=2 box has blocks straddling the interior)
GOLDEN = {
    "jumps": (["jumps", "--dim", "2", "--L", "6", "--p", "0.7", "--E", "0", "--E", "1/2",
               "--E", "1", "--windows", "1e-2,1e-4,1e-6", "--realizations", "12",
               "--seed", "3", "--catalog-maxsize", "4"],
              "a3d7e9e6004af5da4e758248d40f2c2d05cbe31754b062aaafc19e33562382b5"),
    "wegner": (["wegner", "--dim", "2", "--L", "6",
                "--dist", '{"pieces": [[-1.0, 1.0, 0.7]], "inactive": 0.3}',
                "--a", "-6", "--b", "6", "--interval", "-0.5:0.5", "--interval", "-0.25:0.25",
                "--realizations", "12", "--seed", "4"],
               "deb8b02b095285e19319a6e6d083576d2946c87afdf1f5220e85369af96c64f5"),
    "continuity": (["continuity", "--dim", "1", "--L", "300",
                    "--dist", '{"pieces": [[0.0, 1.0, 0.7]], "inactive": 0.3}',
                    "--E", "0", "--E", "1/2", "--windows", "1e-1,1e-2,1e-3",
                    "--realizations", "12", "--seed", "5"],
                   "65d3e5b4bbcd4559818c2f16cf447156ee9deb40fdf9bd94072d6959de96e384"),
    "projector_d1": (["ids", "--dim", "1", "--L", "2000", "--p", "0.3",
                      "--estimator", "projector_diag", "--realizations", "4"],
                     "03093f68ef10a1c26c1ee4c3d5f24c73b8822c0c993d8fdd52cc76420e8bbf84"),
    "projector_d2": (["ids", "--dim", "2", "--L", "12", "--p", "0.7",
                      "--estimator", "projector_diag", "--realizations", "3"],
                     "d0820d9124be84ea8023c39b005b734f3444ac967440450fbec9d166bfff4d37"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_csv_bytes_match_golden_digest(command, tmp_path):
    argv, digest = GOLDEN[command]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256(_read(tmp_path / f"{argv[0]}.csv")).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["jumps", "--dim", "2", "--L", "5", "--p", "0.6", "--E", "0", "--E", "1"],
    ["wegner", "--dim", "2", "--L", "5", "--dist", '{"pieces": [[-1.0, 1.0, 0.7]], "inactive": 0.3}',
     "--a", "-6", "--b", "6", "--interval", "-0.5:0.5", "--interval", "-0.25:0.25"],
], ids=["jumps", "wegner"])
def test_one_engine_per_realization(argv, tmp_path, monkeypatch):
    built = []
    init = BlockSpectra.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockSpectra, "__init__", counting)
    assert run(argv + ["--realizations", "3", "--out", str(tmp_path)]) == 0
    assert len(built) == 3
