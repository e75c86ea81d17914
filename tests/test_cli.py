"""End-to-end checks of the command-line driver.

Every invocation goes through cli.main() in-process with artifacts
written to pytest temporary directories, so exit codes, file lists,
and byte-level determinism are all observable without subprocesses.
"""

import filecmp
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nullwave
from nullwave import cli, gridio, solver
from test_solver import _reference_solve

SMALL_GRID = """\
[grid]
r_max = 8.0
n = 200
sponge_cells = 40
sponge_strength = 3.0
"""

NONLINEAR_INI = SMALL_GRID + """
[data]
eps = 1e-3

[run]
t_end = 4.0
stride = 5
tol = 1e-9
max_iter = 8

[fit]
model = power
window = 1 3
"""

# run-linear has its own grid overlay; only shrink what matters.
LINEAR_INI = """\
[grid]
r_max = 12.0
n = 300

[run]
t_end = 8.0

[fit]
window = 2 6
local_radius = 3.0
"""

SCAN_INI = SMALL_GRID + """
[run]
t_end = 4.0
stride = 5
tol = 1e-9
max_iter = 8

[scan]
eps = 5e-4 1e-3

[report]
time_stride = 5
deltas = 2.0 1.0 0.0
sup_window = 1 3
"""

# the paper's setting: a convex obstacle that is not a sphere, on a
# masked Cartesian grid kept small enough for a unit test; the fit
# window starts inside the short run, so run-linear and run-nonlinear
# get past the config checks and run
ELLIPSOID_INI = """\
[grid]
mode = cartesian
n = 24
sponge_cells = 8

[obstacle]
kind = ellipsoid
params = 1.4 1.0 0.8

[data]
center = 3.0

[run]
t_end = 1.0
stride = 2

[scan]
eps = 1e-3 2e-3

[fit]
window = 0.2 1.0
"""

GEOMETRY_INI = """\
[geometry]
samples = 2000
extent = 50.0
"""


def write_ini(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv, out):
    return cli.main(list(argv) + ["--out", str(out), "--quiet"])


def _non_finite(token):
    raise ValueError("non-finite JSON value %s" % token)


def load(out, name):
    """Parse an artifact as strict JSON: NaN and Infinity are refused."""
    with open(str(out / name)) as fh:
        return json.load(fh, parse_constant=_non_finite)


def load_every_json(out):
    for path in out.iterdir():
        if path.suffix == ".json":
            load(out, path.name)


def listing(out):
    return sorted(p.name for p in out.iterdir())


def test_verify_geometry_artifacts(tmp_path):
    ini = write_ini(tmp_path, GEOMETRY_INI)
    out = tmp_path / "out"
    assert run(["verify-geometry", "--config", ini], out) == 0
    assert listing(out) == ["geometry.json"]
    doc = load(out, "geometry.json")
    assert doc["schema_version"] == 1
    assert doc["subcommand"] == "verify-geometry"
    assert doc["seed"] == 0
    res = doc["results"]
    assert res["samples"] == 2000
    assert res["max_round_trip_rel"] < 1e-10
    assert res["max_conformal_dual_rel"] < 1e-10
    for case in res["intertwine"].values():
        r = case["residuals"]
        assert r[0] > r[1] > r[2] > 0
        for order in case["orders"]:
            assert 1.8 < order < 2.2


def test_run_linear_artifacts_and_overlay(tmp_path):
    ini = write_ini(tmp_path, LINEAR_INI)
    out = tmp_path / "out"
    assert run(["run-linear", "--config", ini], out) == 0
    assert listing(out) == ["linear.json", "linear_final.nwb",
                            "local_energy.csv"]
    doc = load(out, "linear.json")
    # subcommand overlay under the user's file: the experiment defaults
    # show through wherever the file is silent
    grid = doc["config"]["grid"]
    assert grid["angular_mode"] == 1
    assert grid["sponge_cells"] == 0
    assert grid["n"] == 300
    assert grid["r_max"] == 12.0
    assert doc["config"]["data"]["velocity"] == "zero"
    assert doc["config"]["nullform"]["kind"] == "linear"
    fit = doc["results"]["fit"]
    assert fit["model"] == "exponential"
    assert fit["rate"] > 0
    assert 2.0 <= fit["window"][0] < fit["window"][1] <= 6.0

    with open(str(out / "local_energy.csv")) as fh:
        assert fh.readline() == "t,local_energy\n"
        first = fh.readline().split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) > 0

    grid_back, t_final, fields = gridio.read_snapshot(
        str(out / "linear_final.nwb"))
    assert grid_back.n_nodes == 301
    assert t_final >= 8.0
    assert sorted(fields) == ["u", "v"]


def _column(path, name):
    with open(str(path)) as fh:
        header = fh.readline().strip().split(",")
        k = header.index(name)
        return np.array([float(line.split(",")[k]) for line in fh])


def test_run_linear_energies_match_a_stored_run(tmp_path):
    ini = write_ini(tmp_path, LINEAR_INI)
    out = tmp_path / "out"
    assert run(["run-linear", "--config", ini], out) == 0
    ec = cli.ExperimentConfig(cli.load_config(ini, "run-linear"), 0, 1)
    # the reference stores every step's u and v; run-linear streams them
    data = ec.data()
    grid = data.grid
    dt = solver.cfl_limit(grid)
    csv = out / "local_energy.csv"
    n_steps = ec.stride * (len(_column(csv, "t")) - 1)
    us, vs = _reference_solve(data, None, n_steps, dt)
    us, vs = us[::ec.stride], vs[::ec.stride]
    times = dt * ec.stride * np.arange(len(us))
    inside = grid.radii() < ec.local_radius
    energy = grid.energy_fn(inside)
    energies = np.array([energy(u, v) for u, v in zip(us, vs)])
    # the CSV holds each float in its shortest round-trip form
    assert _column(csv, "t").tobytes() == times.tobytes()
    assert _column(csv, "local_energy").tobytes() == energies.tobytes()
    _, t_final, fields = gridio.read_snapshot(str(out / "linear_final.nwb"))
    assert t_final == times[-1]
    assert fields["u"].tobytes() == us[-1].tobytes()
    assert fields["v"].tobytes() == vs[-1].tobytes()


def test_run_linear_ball_without_a_node_exits_3(tmp_path):
    # a local radius below r0 = 1 holds no node: every energy is zero,
    # and the fit refuses them with a message, not a traceback
    ini = write_ini(tmp_path, LINEAR_INI.replace("local_radius = 3.0",
                                                 "local_radius = 0.5"))
    out = tmp_path / "out"
    assert run(["run-linear", "--config", ini], out) == 3
    assert listing(out) == ["error.json"]
    err = load(out, "error.json")["error"]
    assert err["type"] == "FitError"
    assert "decay fit requires positive values" in err["message"]


# l = 0 and a run too short for the pulse to reach r0 = 1: r u is
# d'Alembert's (w0(r - t) + w0(r + t)) / 2 with w0 = r u0
PULSE_INI = """\
[grid]
r_max = 12.0
n = 1200
angular_mode = 0

[run]
t_end = 0.3
stride = 1

[fit]
window = 0.05 0.25
"""


def test_run_linear_snapshot_holds_the_physical_state(tmp_path):
    ini = write_ini(tmp_path, PULSE_INI)
    out = tmp_path / "out"
    assert run(["run-linear", "--config", ini], out) == 0
    ec = cli.ExperimentConfig(cli.load_config(ini, "run-linear"), 0)
    grid, data = ec.grid, ec.data()
    center, width = ec.raw["data"]["center"], ec.raw["data"]["width"]

    def bump(rho):
        # the bump profile p and its derivative dp of bump_data_family
        s = (rho - center) / width
        inside = np.abs(s) < 1.0
        p = np.zeros_like(s)
        p[inside] = np.e * np.exp(-1.0 / (1.0 - s[inside] ** 2))
        dp = np.zeros_like(s)
        dp[inside] = -2.0 * s[inside] / (1.0 - s[inside] ** 2) ** 2
        return p, p * dp / width

    # the amplitude, from the data at the bump's peak
    k = int(np.argmax(data.f))
    amp = data.f[k] / bump(grid.r[k:k + 1])[0][0]

    def w0(rho):
        p, dp = bump(rho)
        return amp * rho * p, amp * (p + rho * dp)

    _, t, fields = gridio.read_snapshot(str(out / "linear_final.nwb"))
    r = grid.r
    (wm, dwm), (wp, dwp) = w0(r - t), w0(r + t)
    u, v = (wm + wp) / (2.0 * r), (dwp - dwm) / (2.0 * r)
    assert np.max(np.abs(fields["u"] - u)) < 1e-3 * np.max(np.abs(u))
    assert np.max(np.abs(fields["v"] - v)) < 2e-2 * np.max(np.abs(v))


def test_run_linear_memory_does_not_grow_with_t_end(tmp_path):
    # storing every u and v snapshot would take about 30 MB on the
    # defaults and twice that at twice the length
    for t_end in (60.0, 120.0):
        cfg = cli.load_config(None, "run-linear")
        cfg["run"]["t_end"] = t_end
        ec = cli.ExperimentConfig(cfg, 0, 1)
        out = tmp_path / ("t%g" % t_end)
        out.mkdir()
        tracemalloc.start()
        try:
            cli.cmd_run_linear(ec, str(out), True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20, (t_end, peak)


def test_run_nonlinear_artifacts(tmp_path):
    ini = write_ini(tmp_path, NONLINEAR_INI)
    out = tmp_path / "out"
    assert run(["run-nonlinear", "--config", ini], out) == 0
    assert listing(out) == ["nonlinear.json", "nonlinear_final.nwb",
                            "residuals.csv", "sup_series.csv"]
    doc = load(out, "nonlinear.json")
    res = doc["results"]
    assert res["converged"] is True
    assert res["iterations"] >= 1
    assert len(res["residuals"]) == res["iterations"]
    assert res["boundary_max"] == 0.0
    assert res["sup_fit"]["model"] == "power"

    with open(str(out / "residuals.csv")) as fh:
        assert fh.readline() == "iteration,residual\n"
        assert fh.readline().startswith("1,")
    with open(str(out / "sup_series.csv")) as fh:
        assert fh.readline() == "t,sup\n"

    _, t_final, fields = gridio.read_snapshot(str(out / "nonlinear_final.nwb"))
    assert t_final >= 4.0
    assert sorted(fields) == ["u"]


def test_snapshot_toggle(tmp_path):
    ini = write_ini(tmp_path, NONLINEAR_INI
                    + "\n[output]\nsnapshots = false\n")
    out = tmp_path / "out"
    assert run(["run-nonlinear", "--config", ini], out) == 0
    assert listing(out) == ["nonlinear.json", "residuals.csv",
                            "sup_series.csv"]
    assert load(out, "nonlinear.json")["config"]["output"]["snapshots"] is False


def test_scan_smallness_artifacts(tmp_path):
    ini = write_ini(tmp_path, SCAN_INI)
    out = tmp_path / "out"
    assert run(["scan-smallness", "--config", ini], out) == 0
    assert listing(out) == ["scan.csv", "scan.json"]
    rows = load(out, "scan.json")["results"]["rows"]
    assert [r["eps"] for r in rows] == [5e-4, 1e-3]
    for row in rows:
        assert row["converged"] is True
        assert row["final_residual"] < 1e-8
        if row["iterations"] >= 2:
            assert row["final_ratio"] < 1e-3
        else:
            assert row["final_ratio"] is None
    with open(str(out / "scan.csv")) as fh:
        assert fh.readline() == \
            "eps,converged,iterations,final_residual,final_ratio\n"
        assert fh.readline().startswith("0.0005,true,")


def test_estimate_report_artifacts(tmp_path):
    ini = write_ini(tmp_path, SCAN_INI)
    out = tmp_path / "out"
    assert run(["estimate-report", "--config", ini], out) == 0
    assert listing(out) == ["delta_sweep.csv", "estimates.csv",
                            "estimates.json"]
    res = load(out, "estimates.json")["results"]
    spreads = res["ratio_spreads"]
    for name in ("ratio_local_linear", "ratio_null_cylinder",
                 "ratio_weighted_energy", "ratio_sup_decay"):
        assert spreads[name] > 0
    assert len(res["rows"]) == 2
    sweep = res["delta_sweep"]
    assert sweep["eps"] == 1e-3
    assert sweep["deltas"] == [2.0, 1.0, 0.0]
    vals = sweep["values"]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[0] > 0

    with open(str(out / "estimates.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "eps"
    for name in ("ratio_local_linear", "ratio_sup_decay", "pecher_l8"):
        assert name in header
    with open(str(out / "delta_sweep.csv")) as fh:
        assert fh.readline() == "delta,tip_norm\n"


def test_check_compat_clean_data(tmp_path):
    # bump supported away from the boundary: every trace vanishes
    ini = write_ini(tmp_path, NONLINEAR_INI)
    out = tmp_path / "out"
    assert run(["check-compat", "--config", ini], out) == 0
    assert listing(out) == ["compat.json"]
    res = load(out, "compat.json")["results"]
    assert res["order"] == 2
    assert len(res["boundary_residuals"]) == 3
    for r in res["boundary_residuals"]:
        assert abs(r) <= 1e-12


def test_rerun_is_byte_identical(tmp_path):
    ini = write_ini(tmp_path, NONLINEAR_INI)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["run-nonlinear", "--config", ini], out_a) == 0
    assert run(["run-nonlinear", "--config", ini], out_b) == 0
    names = listing(out_a)
    assert names == listing(out_b)
    for name in names:
        assert filecmp.cmp(str(out_a / name), str(out_b / name),
                           shallow=False), name


def test_seed_changes_geometry_samples(tmp_path):
    ini = write_ini(tmp_path, GEOMETRY_INI)
    out_0 = tmp_path / "s0"
    out_7 = tmp_path / "s7"
    assert run(["verify-geometry", "--config", ini], out_0) == 0
    assert cli.main(["verify-geometry", "--config", ini, "--seed", "7",
                     "--out", str(out_7), "--quiet"]) == 0
    doc_0 = load(out_0, "geometry.json")
    doc_7 = load(out_7, "geometry.json")
    assert doc_0["seed"] == 0
    assert doc_7["seed"] == 7
    assert doc_7["config"]["run"]["seed"] == 7
    assert (doc_0["results"]["max_round_trip_rel"]
            != doc_7["results"]["max_round_trip_rel"])


BAD_CONFIGS = [
    ("unknown_section", "[bogus]\nx = 1\n"),
    ("unknown_key", "[grid]\nnn = 3\n"),
    ("bad_value", "[grid]\nn = abc\n"),
    ("no_section_header", "not an ini [\n"),
    ("negative_t_end", "[run]\nt_end = -1.0\n"),
    ("zero_stride", "[run]\nstride = 0\n"),
    ("bad_obstacle", "[grid]\nmode = cartesian\nn = 16\nextent = 6.0\n"
                     "[obstacle]\nkind = cube\n"),
    ("bad_nullform", "[nullform]\nkind = cubic\n"),
    # the family is always the bump family: the key is unknown
    ("bad_data_family", "[data]\nfamily = plane\n"),
    ("zero_time_stride", "[report]\ntime_stride = 0\n"),
    ("negative_time_stride", "[report]\ntime_stride = -1\n"),
    ("zero_geometry_samples", "[geometry]\nsamples = 0\n"),
    ("decreasing_fit_window", "[fit]\nwindow = 3 1\n"),
    ("bad_fit_model", "[fit]\nmodel = cubic\n"),
    # a % is text, not an interpolation
    ("percent_fit_model", "[fit]\nmodel = 50%\n"),
    ("interpolated_scan_eps", "[scan]\neps = 1e-4 %(x)s\n"),
    ("one_value_sup_window", "[report]\nsup_window = 5\n"),
    ("empty_deltas", "[report]\ndeltas =\n"),
    ("bad_scan_eps", "[scan]\neps = 1e-4 abc\n"),
    ("nan_t_end", "[run]\nt_end = nan\n"),
    ("nan_sponge_strength", "[grid]\nsponge_strength = nan\n"),
    ("nan_eps", "[data]\neps = nan\n"),
    ("negative_scan_eps", "[scan]\neps = 1e-4 -1e-4\n"),
    ("compat_order_above_cap", "[compat]\norder = 5\n"),
    ("descending_scan_eps", "[scan]\neps = 2e-4 1e-4\n"),
    ("decreasing_sup_window", "[report]\nsup_window = 3 1\n"),
    ("negative_delta", "[report]\ndeltas = 1.0 -0.5\n"),
    ("nonfinite_deltas", "[report]\ndeltas = 1.0 nan inf\n"),
    # grid sizes whose spacing, or its square or cube, is not finite
    ("inf_r_max", "[grid]\nr_max = inf\n"),
    ("huge_r_max", "[grid]\nr_max = 1e200\n"),
    ("tiny_r_range", "[grid]\nr0 = 1e-200\nr_max = 2e-200\n"),
    # a finite spacing on which the bump data norm overflows
    ("large_r_max", "[grid]\nr_max = 1e100\n"),
    # a radial grid of 8 PiB, which cannot be allocated
    ("unallocatable_n", "[grid]\nn = 1000000000000000\n"),
] + [
    ("%s_extent" % label,
     "[grid]\nmode = cartesian\nn = 16\nsponge_cells = 8\nextent = %s\n"
     % extent)
    for label, extent in [("nan", "nan"), ("inf", "inf"), ("huge", "1e200"),
                          ("large", "1e90")]
] + [
    # a wrong count of obstacle params, or a non-finite one in any slot
    ("%s_params_%s" % (kind, params.replace(" ", "_")),
     "[grid]\nmode = cartesian\nn = 16\nextent = 6.0\n"
     "[obstacle]\nkind = %s\nparams = %s\n" % (kind, params))
    for kind, params in [("sphere", "1 2"), ("sphere", "1 2 3 4"),
                         ("sphere", "nan"), ("sphere", "inf"),
                         ("ellipsoid", "1 2"), ("ellipsoid", "1 2 1 1"),
                         ("ellipsoid", "nan 1 1"), ("ellipsoid", "1 nan 1"),
                         ("ellipsoid", "1 1 nan")]
]

# list-valued keys, each through a subcommand that reads it: a bad one must
# be refused before the output directory is made
LIST_KEY_CONFIGS = [
    ("run-linear", "[fit]\nwindow = 3 1\n"),
    ("run-nonlinear", "[fit]\nwindow = 5\n"),
    ("estimate-report", "[report]\nsup_window = 5\n"),
    ("estimate-report", "[report]\ndeltas = 1.0 x\n"),
    ("scan-smallness", "[scan]\neps = abc\n"),
    ("scan-smallness", "[scan]\neps = 2e-4 1e-4\n"),
    ("estimate-report", "[report]\nsup_window = 3 1\n"),
    ("estimate-report", "[report]\ndeltas = 1.0 -0.5\n"),
    ("estimate-report", "[report]\ndeltas = 1.0 nan inf\n"),
    ("run-linear", "[grid]\nmode = cartesian\nn = 16\nextent = 6.0\n"
                   "[obstacle]\nkind = ellipsoid\nparams = 1 1 nan\n"),
]


@pytest.mark.parametrize("label,text", BAD_CONFIGS,
                         ids=[c[0] for c in BAD_CONFIGS])
def test_config_errors_exit_2_and_write_nothing(tmp_path, label, text):
    ini = write_ini(tmp_path, text)
    out = tmp_path / "never"
    assert run(["check-compat", "--config", ini], out) == 2
    assert not out.exists()


@pytest.mark.parametrize("subcommand,text", LIST_KEY_CONFIGS,
                         ids=["%s-%d" % (c[0], k)
                              for k, c in enumerate(LIST_KEY_CONFIGS)])
def test_list_keys_exit_2_before_the_out_directory(tmp_path, subcommand,
                                                    text):
    ini = write_ini(tmp_path, text)
    out = tmp_path / "never"
    assert run([subcommand, "--config", ini], out) == 2
    assert not out.exists()


# the compatibility recursion runs a nonlinear form on a radial grid only
# for q0 terms at angular mode 0: every subcommand that runs it refuses
# the rest as a configuration error
RECURSION_CONFIGS = [
    ("angular_mode_1", "[grid]\nangular_mode = 1\n"),
    ("custom_q12", "[nullform]\nkind = custom\nterms = 0 0 0 1.0 q12\n"),
]


@pytest.mark.parametrize("label,text", RECURSION_CONFIGS,
                         ids=[c[0] for c in RECURSION_CONFIGS])
@pytest.mark.parametrize("subcommand", ["check-compat", "run-nonlinear",
                                        "scan-smallness", "estimate-report"])
def test_radially_irreducible_forms_exit_2(tmp_path, subcommand, label,
                                           text):
    ini = write_ini(tmp_path, text)
    out = tmp_path / "never"
    assert run([subcommand, "--config", ini], out) == 2
    assert not out.exists()


def test_boolean_spellings(tmp_path):
    for value, expected in (("yes", True), ("On", True), ("1", True),
                            ("TRUE", True), ("no", False), ("OFF", False),
                            ("0", False), ("false", False)):
        ini = write_ini(tmp_path, "[output]\nsnapshots = %s\n" % value)
        assert cli.load_config(ini, "run-linear")["output"]["snapshots"] \
            is expected
    ini = write_ini(tmp_path, "[output]\nsnapshots = maybe\n")
    out = tmp_path / "never"
    assert run(["run-linear", "--config", ini], out) == 2
    assert not out.exists()


# runs too large to allocate: numpy refuses a forcing of t_end = 1e15, or
# of 6e13 steps of dt = 1e-12, on any host (past 2**63 bytes), and 10**17
# geometry samples (710 PiB) lie past even a 57-bit address space;
# run-linear allocates nothing per snapshot, so it would simply run, but
# a step count t_end / dt that overflows it cannot take at all
@pytest.mark.parametrize("subcommand,text", [
    ("run-nonlinear", "[run]\nt_end = 1e15\n"),
    ("scan-smallness", "[run]\nt_end = 1e15\n"),
    ("estimate-report", "[run]\nt_end = 1e15\n"),
    ("estimate-report", "[run]\ndt = 1e-12\n"),
    ("verify-geometry", "[geometry]\nsamples = %d\n" % 10**17),
    ("run-linear", "[run]\nt_end = 1e308\n"),
    ("run-linear", "[run]\ndt = 1e-308\n")],
    ids=["run-nonlinear", "scan-smallness", "estimate-report",
         "estimate-report-tiny-dt", "verify-geometry",
         "run-linear-uncountable-t_end", "run-linear-uncountable-dt"])
def test_unallocatable_run_exit_3(tmp_path, subcommand, text):
    ini = write_ini(tmp_path, text)
    out = tmp_path / "out"
    assert run([subcommand, "--config", ini], out) == 3
    assert listing(out) == ["error.json"]
    load(out, "error.json")


def test_missing_config_file_exit_2(tmp_path):
    out = tmp_path / "never"
    rc = run(["check-compat", "--config", str(tmp_path / "absent.ini")], out)
    assert rc == 2
    assert not out.exists()


def test_bad_flags_exit_2(tmp_path, capsys):
    out = tmp_path / "never"
    assert cli.main(["verify-geometry", "--seed", "-2",
                     "--out", str(out), "--quiet"]) == 2
    # scan entries run one at a time: argparse knows no --threads
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan-smallness", "--threads", "2",
                  "--out", str(out), "--quiet"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert not out.exists()


def test_unknown_subcommand_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--out", str(tmp_path / "never")])
    assert exc.value.code == 2
    capsys.readouterr()
    assert not (tmp_path / "never").exists()


def test_no_convergence_writes_diagnostic(tmp_path):
    ini = write_ini(tmp_path, NONLINEAR_INI
                    .replace("max_iter = 8", "max_iter = 1")
                    .replace("tol = 1e-9", "tol = 1e-14"))
    out = tmp_path / "out"
    assert run(["run-nonlinear", "--config", ini], out) == 3
    assert listing(out) == ["error.json"]
    err = load(out, "error.json")["error"]
    assert err["type"] == "NoConvergence"
    assert err["iterations"] == 1
    assert len(err["residuals"]) == 1
    assert err["residuals"][0] > 1e-14
    assert "convergence" in err["message"]


def test_estimate_report_without_a_converged_entry_exit_3(tmp_path):
    # one sweep per entry cannot bring a residual to 1e-30: no scan row
    # converges, so there is no report to write
    ini = write_ini(tmp_path, SCAN_INI.replace("max_iter = 8", "max_iter = 1")
                    .replace("tol = 1e-9", "tol = 1e-30"))
    out = tmp_path / "out"
    assert run(["estimate-report", "--config", ini], out) == 3
    assert listing(out) == ["error.json"]
    err = load(out, "error.json")["error"]
    assert err["type"] == "FitError"
    assert "no converged scan entries with nonzero data" in err["message"]


def test_cartesian_mode_without_n_exit_2(tmp_path, capsys):
    # the radial default n = 2000 would ask for a 2001^3 masked grid;
    # it must be refused before anything is allocated or written
    ini = write_ini(tmp_path, "[grid]\nmode = cartesian\n")
    out = tmp_path / "never"
    assert run(["check-compat", "--config", ini], out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "n = 2000" in err
    assert not out.exists()


def test_smallness_guard_exit_3(tmp_path):
    ini = write_ini(tmp_path,
                    NONLINEAR_INI.replace("eps = 1e-3", "eps = 0.5"))
    out = tmp_path / "out"
    assert run(["run-nonlinear", "--config", ini], out) == 3
    err = load(out, "error.json")["error"]
    assert err["type"] == "ParamError"
    assert "smallness" in err["message"]


def test_forcing_past_float32_exit_3(tmp_path):
    # the scan admits any amplitude; at eps 1e22 the null form passes
    # float32's range, which is a numerical failure, not a warning
    ini = write_ini(tmp_path, SCAN_INI.replace("eps = 5e-4 1e-3",
                                               "eps = 1e22"))
    out = tmp_path / "out"
    assert run(["scan-smallness", "--config", ini], out) == 3
    assert listing(out) == ["error.json"]
    err = load(out, "error.json")["error"]
    assert err["type"] == "NaNError"
    assert "t=" in err["message"] and "float32" in err["message"]


# a grid so coarse that the solver step exceeds half a time unit
COARSE_INI = """\
[grid]
r_max = 10.6
n = 16
sponge_cells = 2

[data]
center = 4.0
width = 2.0

[run]
t_end = 8.0

[scan]
eps = 1e-3

[report]
time_stride = 1
sup_window = 2 6
"""

# the scalar bump data under a two-component system
TWO_COMPONENTS = "[nullform]\nkind = linear\ncomponents = 2\n"

# at h = 0.375 the staircase obstacle reaches |x| = 1.375, inside the
# default bump's support |x| > 1.2: the data miss order-1 compatibility
# at every amplitude
COARSE_CARTESIAN_INI = "[grid]\nmode = cartesian\nn = 32\nsponge_cells = 8\n"
COARSE_MESSAGE = ("the [data] center = 2, width = 0.8 bump does not suit the "
                  "grid of spacing h = 0.375: data violates order-1 "
                  "compatibility")

# configs that one subcommand cannot run: each is refused before the
# output directory is made, not after a full run
SUBCOMMAND_CONFIGS = [
    ("estimate-report", SCAN_INI.replace("sup_window = 1 3",
                                         "sup_window = 50 60"),
     "[report] sup_window"),
    ("run-linear", LINEAR_INI.replace("window = 2 6", "window = 50 60"),
     "[fit] window"),
    ("run-nonlinear", NONLINEAR_INI.replace("window = 1 3", "window = 50 60"),
     "[fit] window"),
    ("estimate-report", ELLIPSOID_INI, "radial grids"),
    ("run-nonlinear", NONLINEAR_INI + TWO_COMPONENTS, "[nullform] components"),
    ("scan-smallness", SCAN_INI + TWO_COMPONENTS, "[nullform] components"),
    ("estimate-report", SCAN_INI + TWO_COMPONENTS, "[nullform] components"),
    # the local-linear window is [0, 1]
    ("estimate-report", SCAN_INI.replace("t_end = 4.0", "t_end = 0.5")
     .replace("sup_window = 1 3", "sup_window = 0.1 0.4"), "[run] t_end"),
    # two of the default run's 2839 snapshots are sampled
    ("estimate-report", "[report]\ntime_stride = 2000\n",
     "[report] time_stride"),
    # a step of 0.54 puts 2 snapshots in the local-linear window [0, 1]
    ("estimate-report", COARSE_INI, "local-linear window"),
    # one step of 0.0315 reaches t_end: 2 snapshots, and the time stencil
    # of the Picard residual needs 3
    ("run-nonlinear", NONLINEAR_INI.replace("t_end = 4.0", "t_end = 0.01"),
     "[run] t_end = 0.01 is too short at step 0.0315"),
    ("scan-smallness", SCAN_INI.replace("t_end = 4.0", "t_end = 0.01"),
     "[run] t_end = 0.01 is too short at step 0.0315"),
    # zero data converge at once, but have no ratios
    ("estimate-report", SCAN_INI.replace("eps = 5e-4 1e-3", "eps = 0"),
     "[scan] eps"),
    ("run-nonlinear", COARSE_CARTESIAN_INI, COARSE_MESSAGE),
    ("scan-smallness", COARSE_CARTESIAN_INI, COARSE_MESSAGE),
    ("estimate-report", COARSE_CARTESIAN_INI, COARSE_MESSAGE),
]


@pytest.mark.parametrize("subcommand,text,message", SUBCOMMAND_CONFIGS,
                         ids=["window-estimate-report", "window-run-linear",
                              "window-run-nonlinear",
                              "cartesian-estimate-report",
                              "components-run-nonlinear",
                              "components-scan-smallness",
                              "components-estimate-report",
                              "short-run-estimate-report",
                              "sparse-samples-estimate-report",
                              "coarse-step-estimate-report",
                              "short-run-run-nonlinear",
                              "short-run-scan-smallness",
                              "zero-eps-estimate-report",
                              "coarse-grid-run-nonlinear",
                              "coarse-grid-scan-smallness",
                              "coarse-grid-estimate-report"])
def test_subcommand_config_exit_2_before_the_run(tmp_path, capsys,
                                                  subcommand, text, message):
    ini = write_ini(tmp_path, text)
    out = tmp_path / "never"
    assert run([subcommand, "--config", ini], out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand,text,key", [
    ("check-compat", "[data]\neps = nan\n", "[data] eps"),
    ("check-compat", "[data]\neps = -1e-3\n", "[data] eps"),
    ("scan-smallness", "[scan]\neps = 2e-4 1e-4\n", "[scan] eps"),
    ("scan-smallness", "[scan]\neps = 1e-4 inf\n", "[scan] eps")],
    ids=["nan-data-eps", "negative-data-eps", "descending-scan-eps",
         "inf-scan-eps"])
def test_amplitude_errors_name_their_key(tmp_path, capsys, subcommand, text,
                                         key):
    ini = write_ini(tmp_path, text)
    out = tmp_path / "never"
    assert run([subcommand, "--config", ini], out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: epsilon values must be" % key)
    assert not out.exists()


def test_time_stride_needs_three_samples(tmp_path, capsys):
    # the largest time_stride that samples 3 snapshots runs; one more
    # samples 2 and is refused before the output directory is made
    cfg = cli.load_config(write_ini(tmp_path, SCAN_INI), "estimate-report")
    ec = cli.ExperimentConfig(cfg, 0, 1)
    steps = solver.step_count(ec.t_end, solver.cfl_limit(ec.grid))
    for stride, code in ((steps // 2, 0), (steps // 2 + 1, 2)):
        ini = write_ini(tmp_path, SCAN_INI.replace(
            "time_stride = 5", "time_stride = %d" % stride))
        out = tmp_path / ("out%d" % stride)
        assert run(["estimate-report", "--config", ini], out) == code
        assert out.exists() == (code == 0)
    assert "[report] time_stride" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,text", [
    ("check-compat", NONLINEAR_INI), ("run-linear", LINEAR_INI)])
def test_two_components_run_where_no_system_is_solved(tmp_path, subcommand,
                                                      text):
    ini = write_ini(tmp_path, text + TWO_COMPONENTS)
    assert run([subcommand, "--config", ini], tmp_path / "out") == 0


@pytest.mark.parametrize("nullform", [
    "[nullform]\nkind = linear\n",
    "[nullform]\nkind = custom\nterms = 0 0 0 0.0 q0\n",
], ids=["linear", "zero-coefficient"])
def test_vanishing_null_form_spreads_are_null(tmp_path, nullform):
    # the null forms vanish, so two ratios are 0 on every row and have
    # no finite spread: strict JSON, with null in their place
    ini = write_ini(tmp_path, SCAN_INI + nullform)
    out = tmp_path / "out"
    assert run(["estimate-report", "--config", ini], out) == 0
    res = load(out, "estimates.json")["results"]
    assert all(row["ratio_local_linear"] == 0.0 for row in res["rows"])
    spreads = res["ratio_spreads"]
    assert spreads["ratio_local_linear"] is None
    assert spreads["ratio_null_cylinder"] is None
    assert spreads["ratio_weighted_energy"] > 0
    assert spreads["ratio_sup_decay"] > 0


def test_custom_terms_skip_blank_lines(tmp_path):
    # an indented INI continuation: the value starts with an empty line
    # and holds a blank one between its two terms
    ini = write_ini(tmp_path, "[nullform]\nkind = custom\nterms =\n"
                    "    0 0 0 1.0 q0\n\n    0 0 0 0.5 q0\n")
    ec = cli.ExperimentConfig(cli.load_config(ini, "check-compat"), 0)
    assert ec.spec.terms == ((0, 0, 0, 1.0, "q0"), (0, 0, 0, 0.5, "q0"))
    assert run(["check-compat", "--config", ini], tmp_path / "out") == 0


@pytest.mark.parametrize("terms", [
    "0 0 0 1.0", "0 0 x 1.0 q0", "0 0 0 big q0",
], ids=["four-tokens", "non-numeric-index", "non-numeric-coefficient"])
def test_bad_custom_terms_exit_2(tmp_path, capsys, terms):
    ini = write_ini(tmp_path, "[nullform]\nkind = custom\nterms = %s\n"
                    % terms)
    out = tmp_path / "never"
    assert run(["check-compat", "--config", ini], out) == 2
    assert "custom term" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", sorted(cli.COMMANDS))
def test_ellipsoid_config_never_ends_in_traceback(tmp_path, subcommand):
    ini = write_ini(tmp_path, ELLIPSOID_INI)
    out = tmp_path / "out"
    rc = run([subcommand, "--config", ini], out)
    assert rc in (0, 2, 3)
    if rc == 3:
        assert "error.json" in listing(out)
    if rc != 2:
        load_every_json(out)


def test_stride_beyond_run_exit_3(tmp_path):
    # padding the run up to the stride would take 100000 steps; the fit
    # window lies inside the run, so that only the stride is at fault
    ini = write_ini(tmp_path, LINEAR_INI.replace(
        "t_end = 8.0", "t_end = 0.5\nstride = 100000").replace(
        "window = 2 6", "window = 0.1 0.4"))
    out = tmp_path / "out"
    assert run(["run-linear", "--config", ini], out) == 3
    err = load(out, "error.json")["error"]
    assert err["type"] == "ParamError"
    assert "stride" in err["message"]


def test_explicit_dt_above_cfl_exit_3(tmp_path):
    ini = write_ini(tmp_path,
                    NONLINEAR_INI.replace("t_end = 4.0",
                                          "t_end = 4.0\ndt = 0.1"))
    out = tmp_path / "out"
    assert run(["run-nonlinear", "--config", ini], out) == 3
    err = load(out, "error.json")["error"]
    assert err["type"] == "CFLError"
    assert "CFL" in err["message"]


def test_quiet_flag_silences_progress(tmp_path, capsys):
    ini = write_ini(tmp_path, NONLINEAR_INI)
    assert cli.main(["check-compat", "--config", ini,
                     "--out", str(tmp_path / "loud")]) == 0
    assert "boundary residual" in capsys.readouterr().out
    assert cli.main(["check-compat", "--config", ini,
                     "--out", str(tmp_path / "still"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# every numeric key runs through a subcommand that reads it: run-nonlinear
# unless listed here by section or by (section, key)
READERS = {"fit": "run-linear", "report": "estimate-report",
           "compat": "check-compat", "geometry": "verify-geometry",
           ("run", "stride"): "run-linear",
           ("nullform", "components"): "run-linear",
           ("grid", "extent"): "check-compat"}
# values that are configuration problems: each must exit 2 with no
# output directory (dt = 0 picks the CFL step and runs)
MUST_EXIT_2 = {("run", "tol", 0), ("run", "tol", -1),
               ("run", "max_iter", 0), ("run", "max_iter", -1),
               ("run", "dt", -1), ("compat", "order", -1),
               ("fit", "local_radius", 0), ("fit", "local_radius", -1),
               ("grid", "sponge_strength", -1),
               ("grid", "n", 10**20), ("geometry", "samples", 10**20),
               ("geometry", "extent", 1e308), ("run", "t_end", 1e308),
               ("run", "dt", 1e-308), ("grid", "r0", 1e-308),
               ("data", "eps", 1e308)}
NUMERIC_KEYS = [(section, key)
                for section, entries in cli.DEFAULTS.items()
                for key, default in entries.items()
                if isinstance(default, (int, float))
                and not isinstance(default, bool)]


def tiny_ini(section, key, value):
    """A small radial config with one key set to value."""
    sections = {"grid": {"r_max": 8.0, "n": 200, "sponge_cells": 40,
                         "sponge_strength": 3.0},
                "run": {"t_end": 10.0},
                "scan": {"eps": "5e-4 1e-3"},
                "report": {"time_stride": 5, "sup_window": "2 8"}}
    if (section, key) == ("grid", "extent"):
        # only the Cartesian grid reads extent
        sections["grid"] = {"mode": "cartesian", "n": 16, "sponge_cells": 4}
    sections.setdefault(section, {})[key] = value
    return "".join("[%s]\n" % name
                   + "".join("%s = %s\n" % kv for kv in entries.items())
                   for name, entries in sections.items())


def _numeric_cases():
    """Each numeric key at 0 and -1, and at extremes that fail fast and
    allocate nothing: 1e308 and 1e-308 for a float, 10**20 for an int.

    An extreme may overflow inside numpy (a grid coefficient, the bump
    profile, a norm's square), which the command line prints as a
    RuntimeWarning and goes on; only a traceback fails these.
    """
    overflow = pytest.mark.filterwarnings("ignore::RuntimeWarning")
    for section, key in NUMERIC_KEYS:
        extremes = ([1e308, 1e-308]
                    if isinstance(cli.DEFAULTS[section][key], float)
                    else [10**20])
        for value in [0, -1] + extremes:
            yield pytest.param(section, key, value,
                               id="%s.%s-%s" % (section, key, value),
                               marks=() if value in (0, -1) else overflow)


@pytest.mark.parametrize("section,key,value", list(_numeric_cases()))
def test_numeric_keys_never_end_in_traceback(tmp_path, section, key, value):
    sub = READERS.get((section, key), READERS.get(section, "run-nonlinear"))
    ini = write_ini(tmp_path, tiny_ini(section, key, value))
    out = tmp_path / "out"
    rc = run([sub, "--config", ini], out)
    assert rc in (0, 2, 3)
    if (section, key, value) in MUST_EXIT_2:
        assert rc == 2
    if rc == 2:
        assert not out.exists()
    if rc == 3:
        assert "error.json" in listing(out)
    if rc != 2:
        load_every_json(out)


def _dispatch_targets(env):
    """The SIMD targets past its baseline that numpy dispatches to on this
    CPU, in a python started with env."""
    probe = """
try:
    from numpy._core import _multiarray_umath as m
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as m
print(' '.join(f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f)))
"""
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_geometry_and_compat_bytes_hold_under_restricted_dispatch(tmp_path):
    # the artifacts' byte identity holds per numpy build and SIMD dispatch
    # class (README): the data path's exp moves the run artifacts' bytes
    # when numpy's dispatch is held to its baseline, and these two, which
    # take no exp of the data, must keep theirs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(nullwave.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    targets = _dispatch_targets(env)
    if not targets:
        pytest.skip("numpy dispatches to no target past its baseline here")
    held = dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    assert _dispatch_targets(held) == []
    for sub, name in (("verify-geometry", "geometry.json"),
                      ("check-compat", "compat.json")):
        written = []
        for label, run_env in (("as-is", env), ("held", held)):
            out = tmp_path / sub / label
            subprocess.run([sys.executable, "-m", "nullwave.cli", sub,
                            "--out", str(out), "--quiet"], env=run_env,
                           check=True)
            written.append((out / name).read_bytes())
        assert written[0] == written[1]
