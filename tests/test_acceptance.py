"""Ten-point acceptance gate.

One test per criterion.  Each prints a single PASS/FAIL line (bypassing
capture, so the gate reads off any pytest run at a glance) carrying the
measured numbers, then asserts.  Runtime budgets are asserted where a
criterion states one.
"""

import filecmp
import json
import time

import numpy as np
import pytest

from nullwave import cli, exterior, norms, penrose, picard
from nullwave.exterior import InitialData, build_radial_grid
from nullwave.nullforms import FORM_IDS, NullFormSpec, eval_components
from nullwave.penrose import MinkowskiPoint
from nullwave.solver import cfl_limit, local_energy_fn, solve_linear


@pytest.fixture
def verdict(capsys):
    def _verdict(num, ok, detail):
        with capsys.disabled():
            print("criterion %2d %s  %s"
                  % (num, "PASS" if ok else "FAIL", detail))
        assert ok, "criterion %d failed: %s" % (num, detail)
    return _verdict


@pytest.fixture(scope="module")
def acceptance_grid():
    return build_radial_grid(1.0, 48.0, 2000, sponge_cells=170,
                             sponge_strength=4.0)


@pytest.fixture(scope="module")
def contraction_runs(acceptance_grid):
    """Shared by criteria 7 and 8: small-data runs at two amplitudes."""
    family = picard.bump_data_family(acceptance_grid, center=2.0, width=0.8)
    spec = NullFormSpec.scalar_q0()
    t0 = time.perf_counter()
    sol1, rep1 = picard.picard_solve(family(1e-2), spec, 60.0,
                                     tol=1e-8, max_iter=12)
    sol2, rep2 = picard.picard_solve(family(5e-3), spec, 60.0,
                                     tol=1e-8, max_iter=12)
    elapsed = time.perf_counter() - t0
    return sol1, rep1, sol2, rep2, elapsed


@pytest.fixture(scope="module")
def ratio_scan(acceptance_grid):
    """Shared scan for criterion 9: five amplitudes, ratio reports, sweep."""
    family = picard.bump_data_family(acceptance_grid, center=2.0, width=0.8)
    spec = NullFormSpec.scalar_q0()
    rows = picard.smallness_scan(family, spec,
                                 [1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3], 60.0,
                                 time_stride=20,
                                 deltas=[3.6, 3.2, 2.8, 2.0, 1.0, 0.3, 0.0])
    reports = norms.estimate_ratio_report(rows)
    # the largest amplitude's truncation sweep, as the CLI writes it
    sweep = reports[-1].metadata["delta_sweep"]
    return reports, sweep


def test_criterion_1_geometry_identities(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    n = 10_000
    t = rng.uniform(-100.0, 100.0, n)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.0, 100.0, size=(n, 1))

    p = MinkowskiPoint(t, x)
    q = penrose.to_einstein(p)
    back = penrose.from_einstein(q)
    scale = 1.0 + np.abs(p.t) + p.r
    round_trip = float(np.max(np.maximum(
        np.abs(back.t - p.t),
        np.max(np.abs(back.x - p.x), axis=-1)) / scale))

    om = penrose.conformal_factor(p)
    om_dual = penrose.conformal_factor_cylinder(q)
    dual = float(np.max(np.abs(om - om_dual) / om))
    elapsed = time.perf_counter() - t0

    ok = round_trip < 1e-12 and dual < 1e-12 and elapsed < 1.0
    verdict(1, ok, "round-trip %.2e, dual factor %.2e (tol 1e-12), %.2fs"
            % (round_trip, dual, elapsed))


def test_criterion_2_intertwining_order(verdict):
    # cylinder eigenfunctions cos(aT) Y_l: factor = 1 + l(l+2) - a^2
    cases = [
        (lambda T, X: np.cos(0.7 * T) * X[..., 0],
         lambda T, X: 3.51 * np.cos(0.7 * T) * X[..., 0]),
        (lambda T, X: np.sin(1.1 * T) * X[..., 1] * X[..., 2],
         lambda T, X: 7.79 * np.sin(1.1 * T) * X[..., 1] * X[..., 2]),
        (lambda T, X: np.cos(0.5 * T) * (X[..., 0] ** 2 - X[..., 3] ** 2),
         lambda T, X: 8.75 * np.cos(0.5 * T)
         * (X[..., 0] ** 2 - X[..., 3] ** 2)),
    ]
    t0 = time.perf_counter()
    x0 = np.array([1.1, -0.6, 1.4])
    orders = []
    for phi, phi_wave in cases:
        res = [abs(float(penrose.intertwine_residual(phi, phi_wave,
                                                     0.7, x0, h)))
               for h in (0.08, 0.04, 0.02)]
        orders.extend(np.log2(res[m] / res[m + 1]) for m in range(2))
    elapsed = time.perf_counter() - t0

    ok = all(1.7 < o < 2.3 for o in orders) and elapsed < 30.0
    verdict(2, ok, "observed orders %s in 2.0+/-0.3, %.2fs"
            % (["%.3f" % o for o in orders], elapsed))


def test_criterion_3_null_cancellation(verdict):
    rng = np.random.default_rng(31)
    n = 1000
    xi = rng.normal(size=(n, 3))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    xi *= rng.uniform(0.2, 3.0, size=(n, 1))
    c = rng.uniform(0.5, 2.0, n) * np.cos(rng.uniform(0, 2 * np.pi, n))
    du = np.empty((n, 4))
    du[:, 0] = -np.linalg.norm(xi, axis=1) * c
    du[:, 1:] = xi * c[:, None]

    q0_max = float(np.max(np.abs(eval_components("q0", du.T, du.T))))
    qjk_max = max(float(np.max(np.abs(eval_components(form, du.T, du.T))))
                  for form in FORM_IDS[1:])

    ok = q0_max < 1e-13 and qjk_max == 0.0
    verdict(3, ok, "plane waves: max|Q0| %.2e (tol 1e-13), max|Qjk| %.1f"
            % (q0_max, qjk_max))


def test_criterion_4_compatibility_recursion(verdict):
    # polynomial data keeps every stencil in its exact range
    grid = build_radial_grid(1.0, 6.0, 400)
    r = grid.r
    data = InitialData.from_physical(grid, lambda rr: rr**2 - 1.0,
                                     lambda rr: (rr - 1.0) * (6.0 - rr))
    g = (r - 1.0) * (6.0 - r)

    psis = exterior.compatibility_functions(data, NullFormSpec.scalar_q0(), 2)
    err_q0 = float(np.max(np.abs(psis[2][0] - (6.0 + g**2 - (2.0 * r) ** 2))))

    lin = exterior.compatibility_functions(data, NullFormSpec.linear(1), 3)
    err_l2 = float(np.max(np.abs(lin[2][0] - 6.0)))
    err_l3 = float(np.max(np.abs(lin[3][0] - (-6.0 + 14.0 / r))))

    ok = err_q0 < 1e-9 and err_l2 < 1e-9 and err_l3 < 1e-9
    verdict(4, ok, "trace identities on polynomials: quadratic %.2e, "
            "linear %.2e / %.2e" % (err_q0, err_l2, err_l3))


def test_criterion_5_linear_solver(verdict):
    # manufactured w = r u = sin(a(r-1)) cos(bt) with both ends pinned;
    # the error is measured in r u
    L = 8.0
    a = 3.0 * 2.0 * np.pi / L
    b = 1.3
    errs = []
    for n in (200, 400, 800):
        grid = build_radial_grid(1.0, 1.0 + L, n)
        w0 = np.sin(a * (grid.r - 1.0))
        data = InitialData(grid, w0 / grid.r, np.zeros_like(w0))

        def force(t, _grid=grid):
            return ((a**2 - b**2) * np.cos(b * t)
                    * np.sin(a * (_grid.r - 1.0)) / _grid.r)

        traj = solve_linear(data, force, 2.0, stride=1)
        exact = np.sin(a * (grid.r - 1.0)) * np.cos(b * traj.times[-1])
        errs.append(np.max(np.abs(grid.r * traj.u[-1] - exact)))
    orders = [float(np.log2(c / f)) for c, f in zip(errs, errs[1:])]

    grid = build_radial_grid(1.0, 9.0, 128)
    w0 = np.sin(2.0 * np.pi * (grid.r - 1.0))
    energy = local_energy_fn(grid, None)
    evals = []
    traj = solve_linear(InitialData(grid, w0 / grid.r, np.zeros_like(w0)),
                        None, 400.0, stride=4,
                        observe=lambda i, u, v: evals.append(energy(u, v)))
    evals = np.array(evals)
    times = traj.dt * 4 * np.arange(len(evals))
    drift = abs(float(np.polyfit(times, evals / evals[0], 1)[0]))

    grid = build_radial_grid(1.0, 40.0, 156)
    s = np.clip(((grid.r - 3.0) / 1.5) ** 2, 0.0, 1.0 - 1e-14)
    amp = np.where(np.abs(grid.r - 3.0) >= 1.5, 0.0, np.exp(-1.0 / (1.0 - s)))
    dt = cfl_limit(grid)
    traj = solve_linear(InitialData(grid, amp / grid.r, np.zeros_like(amp)),
                        None, 19 * dt, stride=19)
    outside = grid.r > 4.5 + traj.times[-1] + 2.0 * grid.h
    leak = float(np.max(np.abs(traj.u[-1][outside])))

    ok = (all(1.8 < o < 2.2 for o in orders) and drift < 1e-6
          and leak <= 1e-12)
    verdict(5, ok, "manufactured orders %s, energy drift %.1e/unit time, "
            "support leak %.1e" % (["%.2f" % o for o in orders], drift, leak))


def test_criterion_6_local_energy_decay(verdict, tmp_path):
    # driver defaults: unit sphere, bump supported inside r = 4, n = 2000,
    # reflecting edge at 36 so the return front misses the window
    t0 = time.perf_counter()
    out = tmp_path / "out"
    rc = cli.main(["run-linear", "--out", str(out), "--quiet"])
    elapsed = time.perf_counter() - t0
    with open(str(out / "linear.json")) as fh:
        fit = json.load(fh)["results"]["fit"]

    ok = (rc == 0 and fit["model"] == "exponential" and fit["rate"] > 0
          and fit["residual"] < 0.2 and elapsed < 60.0)
    verdict(6, ok, "local energy ~ exp(-ct): c = %.4f > 0, log-RMS %.4f "
            "(tol 0.2), %.1fs" % (fit["rate"], fit["residual"], elapsed))


def test_criterion_7_nonlinear_contraction(verdict, contraction_runs):
    _, rep1, _, rep2, elapsed = contraction_runs
    worst_ratio = max(rep1.ratios) if rep1.ratios else 0.0
    factor = rep1.residuals[0] / rep2.residuals[0]

    ok = (rep1.converged and rep2.converged
          and rep1.iterations <= 8 and rep2.iterations <= 8
          and worst_ratio < 0.5 and 3.5 < factor < 4.5
          and elapsed < 300.0)
    verdict(7, ok, "iterations %d/%d (<= 8), contraction ratio %.1e (< 0.5), "
            "amplitude-halving factor %.3f in [3.5, 4.5], %.1fs"
            % (rep1.iterations, rep2.iterations, worst_ratio, factor,
               elapsed))


def test_criterion_8_solution_decay(verdict, contraction_runs):
    sol1 = contraction_runs[0]
    fit = picard.measure_sup_decay(sol1, window=(5.0, 40.0))
    ok = fit.model == "power" and -1.15 < fit.rate < -0.85
    verdict(8, ok, "sup norm ~ (1+t)^p: p = %.3f in -1.0+/-0.15 "
            "(log-RMS %.3f)" % (fit.rate, fit.residual))


def test_criterion_9_estimate_diagnostics(verdict, ratio_scan):
    reports, sweep = ratio_scan
    spreads = norms.ratio_spreads(reports)
    finite = all(np.isfinite(r[name]) for r in reports
                 for name in norms.RATIO_NAMES)
    gaps = [abs(v - sweep[-1]) for v in sweep[:-1]]
    converging = (all(a > b for a, b in zip(gaps, gaps[1:]))
                  and all(a <= b * (1 + 1e-12)
                          for a, b in zip(sweep, sweep[1:])))

    ok = (len(reports) == 5 and finite
          and all(s < 10.0 for s in spreads.values()) and converging)
    verdict(9, ok, "ratio spreads %s all < 10; truncation gap %.1e -> %.1e"
            % ({k.replace("ratio_", ""): float("%.3g" % v)
                for k, v in spreads.items()}, gaps[0], gaps[-1]))


def test_criterion_10_reproducibility(verdict, tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[grid]\nr_max = 8.0\nn = 200\nsponge_cells = 40\n"
                   "sponge_strength = 3.0\n\n[data]\neps = 1e-3\n\n"
                   "[run]\nt_end = 4.0\nstride = 5\n\n[fit]\nwindow = 1 3\n"
                   "model = power\n")
    identical = True
    checked = 0
    for sub, args in (("run-nonlinear", ["--config", str(ini)]),
                      ("verify-geometry", [])):
        out_a = tmp_path / (sub + "-a")
        out_b = tmp_path / (sub + "-b")
        for out in (out_a, out_b):
            assert cli.main([sub] + args + ["--out", str(out),
                                           "--quiet"]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            checked += 1
            if not filecmp.cmp(str(out_a / name), str(out_b / name),
                               shallow=False):
                identical = False

    ok = identical and checked >= 5
    verdict(10, ok, "%d artifacts (JSON, CSV, binary) byte-identical "
            "across reruns" % checked)
