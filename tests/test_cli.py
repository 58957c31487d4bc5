"""Command-line interface: flags, exit codes, outputs, manifests."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perclab
from perclab import cli
from perclab.cli import SUBCOMMANDS, run
from perclab.errors import InternalCheckError
from perclab.spectra import CLUSTER_TOL, BlockSpectra


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


ATOMLESS = '{"pieces": [[0.0, 1.0, 0.7]], "inactive": 0.3}'
BAD_ARGS = {
    "workers_negative": ["ids", "--L", "4", "--p", "0.5", "--workers", "-3"],
    "workers_zero": ["ids", "--L", "4", "--p", "0.5", "--workers", "0"],
    "energy_zero_denominator": ["jumps", "--L", "4", "--p", "0.5", "--E", "1/0"],
    "catalog_maxsize_negative": ["jumps", "--L", "4", "--p", "0.5", "--E", "0",
                                 "--catalog-maxsize", "-2"],
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
    # a box in dim dimensions holds at least 3**dim sites, so dim stops at 14
    "dim_zero": ["ids", "--L", "4", "--p", "0.5", "--dim", "0"],
    "dim_beyond_box_guard": ["ids", "--L", "4", "--p", "0.5", "--dim", "15"],
    "dim_huge": ["catalog", "--maxsize", "2", "--dim", "100000"],
    "grid_too_many_steps": ["ids", "--L", "4", "--p", "0.5", "--grid", "0:1:100000000000"],
    "grid_infinite_bound": ["ids", "--L", "4", "--p", "0.5", "--grid", "0:inf:5"],
    "catalog_atom_inf": ["catalog", "--maxsize", "2", "--atoms", "inf"],
    "catalog_atom_nan": ["catalog", "--maxsize", "2", "--atoms", "nan"],
    "catalog_atoms_with_inf": ["catalog", "--maxsize", "2", "--atoms", "0,inf"],
    "energy_beyond_float": ["jumps", "--L", "5", "--p", "0.5", "--E", "1e400"],
    # only convergence studies several volumes; the others ran at the first --L
    "ids_second_L": ["ids", "--L", "3", "--L", "0", "--p", "0.5"],
    "jumps_second_L": ["jumps", "--L", "3", "--L", "4", "--p", "0.5", "--E", "0"],
    "gn_second_L": ["gn", "--L", "3", "--L", "4", "--p", "0.5", "--nmax", "2"],
    # gn labels the whole box and convergence runs both restrictions
    "gn_restriction": ["gn", "--L", "3", "--p", "0.5", "--nmax", "2", "--restriction", "box"],
    "convergence_restriction": ["convergence", "--L", "2", "--L", "3", "--p", "0.5",
                                "--restriction", "con"],
    "wegner_second_L": ["wegner", "--L", "3", "--L", "4", "--dist", ATOMLESS, "--a", "-6",
                        "--b", "6", "--interval", "0:0.5"],
    "continuity_second_L": ["continuity", "--L", "3", "--L", "4", "--dist", ATOMLESS,
                            "--E", "0"],
    "loghoelder_second_L": ["loghoelder", "--L", "3", "--L", "4", "--p", "0.5", "--E", "0"],
    "energy_beyond_float_negative": ["jumps", "--L", "5", "--p", "0.5", "--E", "-1e400"],
    "window_inf": ["jumps", "--L", "4", "--p", "0.5", "--E", "0", "--windows", "inf"],
    "window_beyond_float": ["jumps", "--L", "4", "--p", "0.5", "--E", "0", "--windows", "1e400"],
    "continuity_window_inf": ["continuity", "--L", "4", "--E", "0", "--windows", "1e-2,inf",
                              "--dist", '{"pieces": [[0.0, 1.0, 0.7]], "inactive": 0.3}'],
    # negative values after options that take them whole
    "halfwidth_negative": ["ids", "--L", "-3", "--p", "0.5"],
    "halfwidth_negative_range": ["ids", "--L", "-3:4", "--p", "0.5"],
    "seed_negative_fraction": ["ids", "--L", "2", "--p", "0.5", "--seed", "-1.5"],
    "denominator_negative": ["loghoelder", "--L", "2", "--p", "0.5", "--minpoly", "-2,0,1",
                             "--denom", "-2"],
    "denominator_negative_fraction": ["loghoelder", "--L", "2", "--p", "0.5",
                                      "--minpoly", "-2,0,1", "--denom", "-.5"],
    # non-finite Wegner bounds used to write C = nan or inf, or exit 3
    "wegner_bounds_infinite": ["wegner", "--L", "3", "--dist", ATOMLESS, "--a=-inf", "--b=inf",
                               "--interval", "-0.5:0.5"],
    "wegner_b_infinite": ["wegner", "--L", "3", "--dist", ATOMLESS, "--a", "-6", "--b", "inf",
                          "--interval", "-0.5:0.5"],
    "wegner_a_nan": ["wegner", "--L", "3", "--dist", ATOMLESS, "--a=nan", "--b", "6",
                     "--interval", "-0.5:0.5"],
    "wegner_interval_infinite": ["wegner", "--L", "3", "--dist", ATOMLESS, "--a", "-6",
                                 "--b", "6", "--interval=-inf:0.5"],
    # pieces that sampled NaN or inf potentials, closing every site
    "dist_piece_infinite": ["ids", "--L", "3", "--dist", '{"pieces": [[0.0, Infinity, 1.0]]}'],
    "dist_piece_overflowing_width": ["ids", "--L", "3",
                                     "--dist", '{"pieces": [[-1e308, 1e308, 1.0]]}'],
    "gn_nmax_beyond_rows": ["gn", "--L", "3", "--p", "0.5", "--nmax", "1000000000000"],
    # algebraic energies: a degree beyond the guard, and values beyond the float range
    "minpoly_degree_beyond_guard": ["loghoelder", "--L", "2", "--p", "0.5",
                                    "--minpoly", ",".join(["1"] + ["0"] * 99 + ["1"]),
                                    "--approx", "0.5"],
    "minpoly_coefficient_overflow": ["loghoelder", "--L", "2", "--p", "0.5",
                                     "--minpoly", f"{10 ** 400},1"],
    "denominator_overflow": ["loghoelder", "--L", "2", "--p", "0.5", "--minpoly", "-2,0,1",
                             "--approx", "1.414", "--denom", str(10 ** 400)],
    # both roots of t^2 - 2 lie 1e308 from 1e308 in floating point, and equally far from 0
    "approx_far_from_every_root": ["loghoelder", "--L", "2", "--p", "0.5", "--minpoly",
                                   "-2,0,1", "--approx", "1e308"],
    "approx_between_two_roots": ["loghoelder", "--L", "2", "--p", "0.5", "--minpoly", "-2,0,1",
                                 "--approx", "0"],
}
# every bad argument is a usage error (exit 2) but these
BAD_ARGS_EXIT = {"minpoly_degree_beyond_guard": (4, "resource-guard")}


@pytest.mark.filterwarnings("error")  # a warning would print lines of its own
@pytest.mark.parametrize("name", sorted(BAD_ARGS))
def test_bad_arguments_give_one_usage_line(name, tmp_path, capsys):
    code, kind = BAD_ARGS_EXIT.get(name, (2, "usage"))
    assert run(BAD_ARGS[name] + ["--dim", "1", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, dest, value", [
    (["ids", "--L", "2", "--seed", "-3"], "seed", -3),
    (["ids", "--L", "2", "--se", "-3"], "seed", -3),
    (["ids", "--L", "-3"], "L", [-3]),
    (["ids", "--L", "2", "--grid", "-1:1:3"], "grid", [-1.0, 0.0, 1.0]),
    (["jumps", "--L", "2", "--E", "-1/2"], "E", [Fraction(-1, 2)]),
    (["wegner", "--L", "2", "--a", "-6", "--b", "6", "--interval", "-.5:0.5"],
     "interval", [(-0.5, 0.5)]),
    (["loghoelder", "--L", "2", "--denom", "-2"], "denom", -2),
    (["loghoelder", "--L", "2", "--eps", "-.5"], "eps", (-0.5,)),
    (["loghoelder", "--L", "2"], "eps", (1e-2, 1e-4, 1e-8)),
    (["ids", "--L", "2"], "grid", list(np.linspace(-4.5, 4.5, 61))),
])
def test_every_option_takes_a_negative_value(argv, dest, value):
    args = cli._build_parser().parse_args(cli._glue_negative_values(argv))
    got = getattr(args, dest)
    assert (got.tolist() if isinstance(got, np.ndarray) else got) == value


def test_help_is_never_joined_with_a_negative_value(capsys):
    assert run(["ids", "--help", "-3"]) == 0
    assert run(["ids", "--he", "-3"]) == 0
    assert "--out" in capsys.readouterr().out


INF_ATOM = '{"atoms": [[0, 0.5], [Infinity, 0.5]]}'
INACTIVE = '{"atoms": [[0, 0.5]], "inactive": 0.5}'


@pytest.mark.parametrize("argv", [
    ["jumps", "--dim", "1", "--L", "4", "--E", "0", "--E", "1"],
    ["loghoelder", "--dim", "1", "--L", "4", "--E", "0"],
], ids=["jumps", "loghoelder"])
def test_an_atom_at_infinity_runs_like_the_inactive_weight(argv, tmp_path):
    # +inf atoms close sites: the catalog and the log-Holder bound take only
    # the finite atoms, so the law runs as its "inactive" spelling does
    tables = []
    for name, law in (("inf", INF_ATOM), ("inactive", INACTIVE)):
        assert run(argv + ["--dist", law, "--realizations", "2",
                           "--out", str(tmp_path / name)]) == 0
        tables.append(list(csv.reader(open(tmp_path / name / f"{argv[0]}.csv"))))
    assert tables[0] == tables[1]
    if argv[0] == "jumps":
        assert [row[-1] for row in tables[0]] == ["catalog_match", "0", "1"]


def test_an_atom_at_infinity_is_no_finite_atom(tmp_path):
    law = '{"atoms": [[Infinity, 0.4]], "pieces": [[0.0, 1.0, 0.6]]}'
    assert run(["continuity", "--dim", "1", "--L", "20", "--dist", law, "--E", "0",
                "--realizations", "2", "--out", str(tmp_path)]) == 0


def test_box_beyond_the_site_guard_exit_4(tmp_path, capsys):
    # the guard trips on the site count, before anything is allocated
    code = run(["ids", "--dim", "3", "--L", "100000000", "--p", "0.5", "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: resource-guard:") and err.count("\n") == 1


def test_jumps_beyond_the_norm_bound_eliminate_nothing(tmp_path, capsys, monkeypatch):
    # the L=40 giant block (5,211 sites) exceeds EXACT_DIM_GUARD, but no
    # eigenvalue lies beyond the norm bound 4, so E = 5 needs no elimination
    box = ["jumps", "--dim", "2", "--L", "40", "--p", "0.8", "--realizations", "1"]
    assert run([*box, "--E", "2", "--out", str(tmp_path / "inside")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: resource-guard:") and err.count("\n") == 1

    def refuse(rows):
        raise AssertionError("eliminated beyond the norm bound")

    monkeypatch.setattr("perclab.spectra._sparse_rank", refuse)
    assert run([*box, "--E", "5", "--out", str(tmp_path / "beyond")]) == 0
    with open(tmp_path / "beyond" / "jumps.csv", newline="") as fh:
        assert [r["exact"] for r in csv.DictReader(fh)] == ["0"]


def test_jumps_at_a_non_integer_energy_eliminate_nothing(tmp_path, monkeypatch):
    # no integer matrix has the eigenvalue 1/2, so the 5,211-site block is not eliminated
    def refuse(rows):
        raise AssertionError("eliminated at a non-integer energy")

    monkeypatch.setattr("perclab.spectra._sparse_rank", refuse)
    assert run(["jumps", "--dim", "2", "--L", "40", "--p", "0.8", "--E", "1/2",
                "--realizations", "1", "--windows", "1e-6", "--catalog-maxsize", "0",
                "--out", str(tmp_path)]) == 0
    with open(tmp_path / "jumps.csv", newline="") as fh:
        assert [r["exact"] for r in csv.DictReader(fh)] == ["0"]


def test_loghoelder_takes_integer_coefficients_a_float_cannot_hold(tmp_path):
    box = ["loghoelder", "--dim", "1", "--L", "2", "--p", "0.5", "--realizations", "1"]
    assert run([*box, "--minpoly=-9007199254740993,1", "--out", str(tmp_path / "a")]) == 0
    assert run([*box, f"--minpoly=-{10 ** 400},1", "--out", str(tmp_path / "b")]) == 2


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


def test_catalog_witness_site_guard_trips_before_diagonalizing(tmp_path, capsys, monkeypatch):
    # d=1 has one chain per size s, whose s eigenvalues could each list s sites
    def refuse(a):
        raise AssertionError("diagonalized before the guard")

    monkeypatch.setattr("numpy.linalg.eigvalsh", refuse)
    code = run(["catalog", "--dim", "1", "--maxsize", "800", "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: resource-guard:") and err.count("\n") == 1
    assert f"{sum(s * s for s in range(1, 801))} witness sites" in err


def test_internal_check_exit_5(tmp_path, capsys, monkeypatch):
    def breakdown(args, started):
        raise InternalCheckError("factorization breakdown on a block of dimension 9000")

    monkeypatch.setitem(cli._HANDLERS, "catalog", breakdown)
    code = run(["catalog", "--dim", "1", "--maxsize", "2", "--out", str(tmp_path)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: internal-check:") and err.count("\n") == 1


def test_loghoelder_violation_is_an_internal_check_exit_5(tmp_path, capsys, monkeypatch):
    # the bound is a theorem, so a violation is a failed postcondition
    real = cli.log_hoelder_check

    def one_violation(*args):
        rep = real(*args)
        rep.violations = 1
        return rep

    monkeypatch.setattr(cli, "log_hoelder_check", one_violation)
    code = run(["loghoelder", "--dim", "1", "--L", "2", "--p", "0.5", "--E", "0",
                "--realizations", "1", "--out", str(tmp_path)])
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
    # gn takes no --restriction, and its manifest records the box it labels
    assert json.loads((tmp_path / "run.json").read_text())["params"]["restriction"] == "box"


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
    proc = subprocess.run([sys.executable, "-m", "perclab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "perclab" in proc.stdout


ANISOTROPIC_RANGE_2 = json.dumps({"offsets": [
    [[1, 0], 1], [[-1, 0], 1], [[0, 1], 0.5], [[0, -1], 0.5], [[2, 0], 0.25], [[-2, 0], 0.25],
    [[1, 1], -0.75], [[-1, -1], -0.75], [[0, 0], 0.125]]})

# sha256 of CSVs written by the code as it was before the jumps and Wegner
# drivers took all their energies and intervals in one pass over realizations
# (jumps, wegner, continuity), and before the projector estimator solved one
# block per class (projector_*; the d=2 box has blocks straddling the interior).
# The projector estimator sums eigh eigenvectors, whose last bits depend on
# the number of BLAS threads, so every case runs in a fresh interpreter with
# OPENBLAS_NUM_THREADS=1, and the projector digests were recorded that way.
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
                     "98a6bda066e2264ee0b3e3f267f0a5f26e4dfec3a4e3422bcdb6136f9c1acf92"),
    # the default d=2 catalog (maxsize 8) on perfbench's d2_exact argv, recorded
    # before the catalog was grown as packed integers and diagonalized in stacks
    "jumps_default_catalog": (["jumps", "--dim", "2", "--L", "8", "--p", "0.8", "--E", "-2",
                               "--E", "-1", "--E", "0", "--E", "1", "--E", "2",
                               "--windows", "1e-6", "--realizations", "3", "--seed", "9"],
                              "1dd0569edfd88c754043b2ecdc0280885da6b24c5d06ad04206ccdee9bc2fe0f"),
    # the same box at non-integer rationals, recorded before kernel_dim skipped
    # the classes whose computed spectrum stays away from E
    "jumps_rational": (["jumps", "--dim", "2", "--L", "8", "--p", "0.8", "--E", "1/2",
                        "--E", "-3/2", "--E", "1/3", "--windows", "1e-6",
                        "--realizations", "3", "--seed", "9"],
                       "9cc5916337e1d9c3a98f4a026a2f2f2152d74990a23db952c00b7e5df7b142d8"),
    # recorded before neighbour lookup read an index table and clusters
    # were numbered from csgraph's component order
    "gn": (["gn", "--dim", "2", "--L", "40", "--p", "0.59", "--nmax", "10", "--realizations", "4"],
           "00bb956e11c039438ff3e16de542f53442c10cb4ac0cbd9e5a79436b33d6eead"),
    # recorded before blocks were grouped into classes by a 64-bit key per block:
    # ~10k d=1 blocks in 14 classes per realization, and a continuous law on
    # which every class is one block with a float diagonal
    "jumps_d1": (["jumps", "--dim", "1", "--L", "20000", "--p", "0.5", "--E", "0", "--E", "1",
                  "--windows", "1e-6", "--realizations", "3", "--seed", "7"],
                 "514c18b80f527bc214ee2ddf00b3a449c41c95505025d314ba614c5497ce297e"),
    "projector_d1_pieces": (["ids", "--dim", "1", "--L", "2000",
                             "--dist", '{"pieces": [[-1.0, 1.0, 0.6]], "inactive": 0.4}',
                             "--estimator", "projector_diag", "--realizations", "4",
                             "--seed", "11"],
                            "6d9e03fc17ad9af266573b9df2689e0b8b3ca7aa1aaa8ecfaac5c6017d36ae92"),
    # recorded before mirror_embed checked H f = E f on an assembled matrix
    # and the stencil halo had one helper; the residual column comes from
    # eigh eigenvectors
    "mirror_d1": (["mirror", "--dim", "1", "--maxsize", "6"],
                  "31774a3d583e1e31c4f1d223503d60f9413a3d1b56da9e3940eaafee70df3800"),
    "mirror_d2": (["mirror", "--dim", "2", "--maxsize", "5"],
                  "11c9c88f5254f1b5788298c0cdced8a68eb69d7d95d069304f699a8132645c80"),
    "mirror_d3": (["mirror", "--dim", "3", "--maxsize", "4"],
                  "640638d616aaae171551173512b55e798df8fe082f325c57b4abb95d3694ce98"),
    "mirror_d2_x_hops": (["mirror", "--dim", "2", "--maxsize", "5",
                          "--kernel", '{"offsets": [[[1,0],1],[[-1,0],1]]}'],
                         "2eefca0d2908385acb873c0c204279b6a1129c3b1708a60dbaeb23af298dcba0"),
    "mirror_d2_anisotropic": (["mirror", "--dim", "2", "--maxsize", "5", "--kernel",
                               '{"offsets": [[[1,0],1],[[-1,0],1],[[0,1],-2],[[0,-1],-2],'
                               '[[0,0],0.5]]}'],
                              "b2ea196b7612adceaefc93bf92f656f9b94b4bb7272a6d380282f140dec9b15d"),
    # recorded before mirror_embed took every state of a shape in one call
    "mirror_d2_maxsize_6": (["mirror", "--dim", "2", "--maxsize", "6"],
                            "deca051054840e3a0683eda21cf8deb4bdcdcf82b409b4baa574de52831b1f67"),
    # recorded before clusters, matrix edges and blocks came from one edge list
    # (LatticeRegion.edges) labelled by one components call: box and con
    # restrictions, a range-2 kernel with a diagonal term, a kernel with no
    # off-diagonal offset, and d=3
    "convergence": (["convergence", "--dim", "2", "--L", "4", "--L", "8", "--p", "0.7",
                     "--realizations", "3"],
                    "2aa7fafcb07806938087753572bd11bec4d6365ca0fd5d9ab7ef72f480527642"),
    "ids_con": (["ids", "--dim", "2", "--L", "8", "--p", "0.6", "--restriction", "con",
                 "--realizations", "3"],
                "834d6ea184a5033a952953d392818285080d3266fc82c7174a6f15fd46daca9a"),
    "gn_anisotropic": (["gn", "--dim", "2", "--L", "20", "--p", "0.5", "--nmax", "8",
                        "--realizations", "3", "--kernel", ANISOTROPIC_RANGE_2],
                       "4ad0f08dc2757684fa25d5ff33cdf99a69eba73d13fa23210cb8de1df35b7a83"),
    "ids_anisotropic": (["ids", "--dim", "2", "--L", "6", "--p", "0.6", "--realizations", "3",
                         "--kernel", ANISOTROPIC_RANGE_2],
                        "3c5efb0b23e95032fe6efa06e6986542eade0335dc64fdfae67c09be8c35fdce"),
    "ids_diagonal_kernel": (["ids", "--dim", "2", "--L", "4", "--p", "0.6", "--realizations", "2",
                             "--kernel", '{"offsets": [[[0, 0], 1]]}'],
                            "028142dc155c037a7c26a04905ec7a921968cd167845cef70b18304b56d5546d"),
    "jumps_d3": (["jumps", "--dim", "3", "--L", "4", "--p", "0.8", "--E", "0", "--E", "1",
                  "--windows", "1e-6", "--catalog-maxsize", "0", "--realizations", "3"],
                 "9c9cbff958bc3e4630cde950f57daf50ec52cf1fb62bb52c0c51163f751beaa2"),
    # recorded before the potential law sampled from one segment table: -0.0,
    # +inf and zero-weight atoms next to two pieces, and atoms at 0 and 1 whose
    # exact and numeric jump columns agree
    "ids_mixed_law": (["ids", "--dim", "2", "--L", "10", "--dist",
                       '{"atoms": [[-0.0, 0.2], [1.0, 0.15], [Infinity, 0.1], [3.0, 0.0]], '
                       '"pieces": [[-1.0, 0.5, 0.25], [2.0, 2.5, 0.1]], "inactive": 0.2}',
                       "--realizations", "3", "--seed", "12"],
                      "2767b2e7374d095303fe8b4c8ae667518daf70d5a7b6e2a8126afaf338cba2c4"),
    "jumps_two_atoms": (["jumps", "--dim", "2", "--L", "8", "--dist",
                         '{"atoms": [[0, 0.45], [1, 0.3]], "inactive": 0.25}',
                         "--E", "0", "--E", "1", "--windows", "1e-6", "--realizations", "3",
                         "--seed", "14", "--catalog-maxsize", "4"],
                        "4c4074304192e73f0120b2cde7431137ffdeb8c0802f5407413fbe163bb15191"),
}

# sha256 of catalog.csv and subgraphs.json written by the code as it was
# before subgraphs were grown as packed integers and the catalog
# diagonalized its matrices in stacks, recorded with OPENBLAS_NUM_THREADS=1.
CATALOG_GOLDEN = {
    "d2_maxsize_8": (["--dim", "2", "--maxsize", "8"],
                     "11bad41e45c52caf23ee663c525516b3f7a8f0e49274078b8ca43e7792f70d55",
                     "fbc0da2e4df2066ccacbbf453839d5399c182615f9b02cf7e4ba65b08707a6b0"),
    "d1_maxsize_12_atoms_0_1": (["--dim", "1", "--maxsize", "12", "--atoms", "0,1"],
                                "2b1002be76a0562f0dfeee868c78e9e67e365a5c597b0b5571709a34fc1eeef1",
                                "b7b9e7c5fdd3c64f6b54d0fbb1c6f3c11ac14204e609024dbbcf5a64c83a6dfa"),
    "d2_maxsize_6_atoms_0_1": (["--dim", "2", "--maxsize", "6", "--atoms", "0,1"],
                               "44d86dfd92197a2dd1b9ce423171778ce39b0ec79989ac80760ec949e47a61a6",
                               "5cdc399794813bf72e8f048a9f3b8add7a5fe3f81896d26aaa9b6edab79f8896"),
    "d3_maxsize_6": (["--dim", "3", "--maxsize", "6"],
                     "d8728a96f5e7bce8fc17458a9fe8950deb23eddbee174df7b43992c374c487c3",
                     "8f6f6914b4e031230fa24ccd82a26f73b0c0e7d19c9d3dac8f14919cdb193311"),
    "d2_maxsize_5_three_atoms": (["--dim", "2", "--maxsize", "5", "--atoms", "0,0.5,-1"],
                                 "b1ca53d2ae9ccad15379fe03a9cf448dcbf02b9b982b4d42a82df578f8a991a2",
                                 "f250fb88147882fa7d4a4852a5f96afb9282ba1950f0c0495098835c9c7150ad"),
    "anisotropic_range_2": (["--dim", "2", "--maxsize", "5", "--kernel", ANISOTROPIC_RANGE_2],
                            "4e69461dc797f3d40be1949a69f10e7ec63e64123bf11c6722a9b4980e563e5c",
                            "b190b2fa5b41eaebd9a9895ef1414f6032ceeaca4deabe9c8f717e7ebd03076d"),
}


def _run_pinned(argv, out):
    """Run the CLI in a fresh interpreter with one BLAS thread."""
    src = os.path.dirname(os.path.dirname(perclab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "perclab.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _sha256(path):
    return hashlib.sha256(_read(path)).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_csv_bytes_match_golden_digest(command, tmp_path):
    argv, digest = GOLDEN[command]
    _run_pinned(argv, tmp_path)
    assert _sha256(tmp_path / f"{argv[0]}.csv") == digest


@pytest.mark.parametrize("case", sorted(CATALOG_GOLDEN))
def test_catalog_bytes_match_golden_digest(case, tmp_path):
    argv, catalog_digest, subgraphs_digest = CATALOG_GOLDEN[case]
    _run_pinned(["catalog", *argv], tmp_path)
    assert _sha256(tmp_path / "catalog.csv") == catalog_digest
    assert _sha256(tmp_path / "subgraphs.json") == subgraphs_digest


def test_repeated_atoms_give_the_catalog_of_the_distinct_ones(tmp_path, capsys):
    # 191,991,972 assignments if every repeat counted; 3,792 distinct matrices
    for name, atoms in (("once", "0"), ("repeated", "0,0,-0.0,0")):
        assert run(["catalog", "--dim", "2", "--maxsize", "8", "--atoms", atoms,
                    "--out", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("catalog.csv", "subgraphs.json"):
        assert _read(tmp_path / "once" / name) == _read(tmp_path / "repeated" / name)


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


# Fuzzing the whole front end in-process: small boxes, degenerate and
# malformed laws, energies snapped around spectral points, non-finite and
# malformed values.  Whatever the input, the exit code is a documented one, a
# failure is one stderr line, and nothing escapes as a traceback.

GOOD_LAWS = (
    ["--p", "0"], ["--p", "1"], ["--p", "0.5"],
    ["--dist", INF_ATOM],
    ["--dist", '{"atoms": [[Infinity, 1.0]]}'],                         # only closed sites
    ["--dist", '{"atoms": [[1, 1.0]]}'],                                # one atom
    ["--dist", '{"atoms": [[0, 0.5], [1, 0.3]], "inactive": 0.2}'],
    ["--dist", '{"atoms": [[0, 0.5]], "pieces": [[0.0, 1.0, 0.5]]}'],   # atom on a piece end
    ["--dist", '{"pieces": [[-1.0, 1.0, 0.6]], "inactive": 0.4}'],
    ["--dist", '{"pieces": [[-1.0, 1.0, 0.6]], "atoms": [[Infinity, 0.4]]}'],
)
BAD_LAWS = (
    ["--dist", '{"atoms": [[0, 0.5]'], ["--dist", '{"atoms": 5}'], ["--dist", "[]"],
    ["--dist", '{"atoms": [[NaN, 1.0]]}'], ["--dist", '{"atoms": [[0, 0.7]]}'],
    ["--dist", '{"pieces": [[1.0, 0.0, 1.0]]}'], ["--p", "nan"], ["--p", "2"],
)
# eigenvalues of small clusters at potential 0, shifted by the atoms 0 and 1
SPECTRAL_POINTS = tuple(lam + a for lam in (0.0, 1.0, -1.0, 2.0, math.sqrt(2), math.sqrt(3),
                                            (1 + math.sqrt(5)) / 2) for a in (0.0, 1.0))
SNAPS = tuple(k * CLUSTER_TOL for k in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0))
ODD_VALUES = ("inf", "-inf", "nan", "1e400", "-1e400", "1/0", "x", "")


def mostly(good, bad):
    """Good values three times in four, so that most runs get past the parser."""
    return st.one_of(good, good, good, bad)


energy_text = mostly(
    st.builds(lambda lam, off: repr(lam + off), st.sampled_from(SPECTRAL_POINTS),
              st.sampled_from(SNAPS)) | st.sampled_from(("0", "1", "-2", "1/2", "-3/2")),
    st.sampled_from(ODD_VALUES))
windows_text = mostly(st.sampled_from(("1e-6", "1e-2,1e-4", "1e-9")),
                      st.sampled_from(("0", "-1e-3", "inf", "1e400", "nan", ",", "a")))
grid_text = mostly(
    st.builds(lambda lam, n: f"{lam - 2 * CLUSTER_TOL!r}:{lam + 2 * CLUSTER_TOL!r}:{n}",
              st.sampled_from(SPECTRAL_POINTS), st.integers(1, 9)) | st.just("-3:3:13"),
    st.sampled_from(("0:1", "a:b:3", "0:inf:5", "nan:1:3", "0:1:-3", "0:1:0", "1:0:5",
                     "0:1:100000000000")))


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(("ids", "jumps", "continuity", "loghoelder", "wegner",
                                    "catalog")))
    argv = [command, "--dim", str(draw(st.integers(1, 2)))]
    if command == "catalog":
        atoms = draw(st.lists(mostly(st.sampled_from(("0", "1", "-1.5")),
                                     st.sampled_from(ODD_VALUES[:5])), min_size=1, max_size=2))
        return argv + ["--maxsize", str(draw(st.integers(1, 3))), "--atoms", ",".join(atoms)]
    argv += ["--L", str(draw(st.integers(0, 6))), "--realizations",
             str(draw(st.integers(1, 2)))]
    argv += draw(mostly(st.sampled_from(GOOD_LAWS), st.sampled_from(BAD_LAWS)))
    if command == "ids":
        argv += ["--grid", draw(grid_text)]
    elif command in ("jumps", "continuity"):
        for e in draw(st.lists(energy_text, min_size=1, max_size=3)):
            argv += ["--E", e]
        if draw(st.booleans()):
            argv += ["--windows", draw(windows_text)]
        if command == "jumps":
            argv += ["--catalog-maxsize", str(draw(st.sampled_from((0, 2, 4))))]
    elif command == "loghoelder":
        argv += ["--E", draw(energy_text),
                 "--eps", draw(mostly(st.just("1e-2,1e-4"), st.sampled_from(("2", "nan"))))]
    else:
        lo, width = draw(st.sampled_from((-0.5, -0.25, -7.0))), draw(st.sampled_from((0.5, 0.0)))
        argv += ["--a", "-6", "--b", "6", "--interval", f"{lo}:{lo + width}"]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=fuzz_argv())
def test_fuzzed_command_lines_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")  # a warning prints lines of its own
        code = run(argv + ["--out", tmp])
    text = err.getvalue()
    assert code in (0, 2, 3, 4, 5), (argv, code, text)
    assert "Traceback" not in text
    if code:
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)
    else:
        assert text == "", (argv, text)
