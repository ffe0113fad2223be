"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Expensive runs are shared through module-scoped fixtures; the criteria that
use them carry the `slow` marker, so `-m "not slow"` leaves them out. The
terminal summary hook in conftest.py prints one PASS/FAIL line per criterion.
"""

import json
import math
import statistics
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (
    assert_close_to_oracle,
    dense_helmholtz_matrix,
    o_c1,
    o_c_hat,
    o_c_star,
    o_c_tilde,
    o_cbar_total,
    o_eta,
    o_sigma,
    o_theta,
    random_tuple_stream,
)
from attrep import (
    DomainSpec,
    Field,
    ModelParams,
    Regime,
    classify_regime,
    compute_bounds,
    solve_helmholtz,
    solve_signals,
)
from attrep.bounds import (
    combine_bounds,
    ehrling_schedule,
    gn_absorption_constant,
    interpolation_exponent,
    sublinear_production_bound,
)
from attrep.cli import EXIT_BLOWUP, EXIT_OK, main
from attrep.diagnostics import (
    DiagnosticsConfig,
    check_absorptive_bound,
    check_energy_inequality,
)
from attrep.errors import EtaOutOfRange
from attrep.grid import integrate
from attrep.model import InitialData, build_initial_data
from attrep.stepper import StepperConfig, Status, initial_state, run, stable_dt, step

FOUR_PI = 4.0 * math.pi


def bump_initial(dom, width, mass):
    spec = InitialData(
        kind="gaussian-bump", amplitude=1.0, center=(0.5, 0.5), width=width, mass=mass
    )
    return build_initial_data(spec, dom)


@pytest.fixture(scope="module")
def criterion1_run():
    """10^4 explicit steps of a Gaussian bump on 128^2 with unit coefficients."""
    dom = DomainSpec((1.0, 1.0), (128, 128))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
    u0, _ = bump_initial(dom, width=0.12, mass=3.0)
    state = initial_state(u0, params)
    cfg = StepperConfig()
    m0 = integrate(state.u)
    max_drift = 0.0
    min_ratio = math.inf
    started = perf_counter()
    for _ in range(10_000):
        state = step(state, params, cfg)
        max_drift = max(max_drift, abs(integrate(state.u) - m0))
        uv = state.u.values
        u_max = float(uv.max())
        if u_max > 0.0:
            min_ratio = min(min_ratio, float(uv.min()) / u_max)
    wall = perf_counter() - started
    return SimpleNamespace(
        mass=m0,
        max_drift=max_drift,
        min_ratio=min_ratio,
        wall=wall,
        state=state,
        params=params,
        dom=dom,
    )


@pytest.fixture(scope="module")
def criterion4_run():
    """Attraction-heavy sublinear run on 128^2 under the imex scheme."""
    dom = DomainSpec((1.0, 1.0), (128, 128))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=5.0, xi=0.1, rho=0.5)
    u0, mass = bump_initial(dom, width=0.05, mass=100.0)
    cfg = StepperConfig(scheme="imex-diffusion", cfl_safety=0.25, dt_max=5e-4)
    t_end = 0.4
    result = run(
        initial_state(u0, params),
        params,
        cfg,
        t_end,
        diagnostics=DiagnosticsConfig(ps=(2.0, 1.5), every=25),
    )
    return SimpleNamespace(result=result, params=params, dom=dom, mass=mass, t_end=t_end)


@pytest.fixture(scope="module")
def criterion5_runs(tmp_path_factory):
    """Paired runs straddling the critical mass, plus the CLI exit code."""
    dom = DomainSpec((1.0, 1.0), (64, 64))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=2.0, xi=1.0, rho=1.0)
    cfg = StepperConfig()
    outcomes = {}
    for label, mass in (("sub", 0.5 * FOUR_PI), ("sup", 3.0 * FOUR_PI)):
        u0, _ = bump_initial(dom, width=0.08, mass=mass)
        outcomes[label] = run(
            initial_state(u0, params), params, cfg, 0.05, blowup_threshold=5000.0
        )

    tmp = tmp_path_factory.mktemp("critical_mass")
    config = {
        "domain": {"lengths": [1.0, 1.0], "cells": [64, 64]},
        "params": {
            "alpha": 1.0,
            "beta": 1.0,
            "gamma": 1.0,
            "delta": 1.0,
            "chi": 2.0,
            "xi": 1.0,
            "rho": 1.0,
            "dim": 2,
        },
        "initial": {
            "kind": "gaussian-bump",
            "amplitude": 1.0,
            "center": [0.5, 0.5],
            "width": 0.08,
            "mass": 3.0 * FOUR_PI,
        },
        "stepper": {"scheme": "explicit-upwind", "cfl_safety": 0.4, "dt_max": 0.01},
        "diagnostics": {"p": [2.0], "sample_every": 20},
        "t_end": 0.05,
        "blowup_threshold": 5000.0,
    }
    cfg_path = tmp / "supercritical.json"
    cfg_path.write_text(json.dumps(config))
    cli_exit = main(["simulate", str(cfg_path), "--out", str(tmp / "run")])

    return SimpleNamespace(
        sub=outcomes["sub"], sup=outcomes["sup"], params=params, cli_exit=cli_exit
    )


@pytest.fixture(scope="module")
def criterion9_runs(tmp_path_factory):
    """The criterion-1 configuration through the CLI, twice."""
    tmp = tmp_path_factory.mktemp("determinism")
    config = {
        "domain": {"lengths": [1.0, 1.0], "cells": [128, 128]},
        "params": {
            "alpha": 1.0,
            "beta": 1.0,
            "gamma": 1.0,
            "delta": 1.0,
            "chi": 1.0,
            "xi": 1.0,
            "rho": 0.5,
            "dim": 2,
        },
        "initial": {
            "kind": "gaussian-bump",
            "amplitude": 1.0,
            "center": [0.5, 0.5],
            "width": 0.12,
            "mass": 3.0,
        },
        "stepper": {"scheme": "explicit-upwind", "cfl_safety": 0.4, "dt_max": 0.01},
        "diagnostics": {"p": [2.0], "sample_every": 100},
        "bounds": {"p": 2.0},
        "t_end": 0.06103515625,
        "workers": 1,
    }
    cfg_path = tmp / "mass_conservation.json"
    cfg_path.write_text(json.dumps(config))
    dirs = (tmp / "first", tmp / "second")
    exits = [main(["simulate", str(cfg_path), "--out", str(d)]) for d in dirs]
    summaries = [json.loads((d / "summary.json").read_text()) for d in dirs]
    return SimpleNamespace(dirs=dirs, exits=exits, summaries=summaries)


@pytest.mark.slow
def test_criterion_1_mass_conservation(criterion1_run):
    r = criterion1_run
    assert r.max_drift / r.mass <= 1e-10
    assert r.wall < 60.0
    assert r.state.step == 10_000


def test_criterion_2_elliptic_accuracy():
    dom = DomainSpec((1.0, 1.0), (32, 32))
    h = dom.h
    x, y = dom.cell_centers()

    # discrete eigenmodes are solved to rounding
    for k, l in ((1, 0), (2, 3), (5, 5)):
        kappa = 0.7
        mode = np.cos(np.pi * k * x)[:, None] * np.cos(np.pi * l * y)[None, :]
        lam = (2.0 / h**2) * (2.0 - np.cos(np.pi * k / 32) - np.cos(np.pi * l / 32))
        f = Field((kappa + lam) * mode, dom)
        phi = solve_helmholtz(f, kappa)
        assert np.abs(phi.values - mode).max() <= 1e-12

    # agreement with a dense direct factorization of the same operator
    rng = np.random.default_rng(7)
    kappa = 1.3
    fvals = rng.uniform(-1.0, 1.0, size=dom.cells)
    exact = np.linalg.solve(dense_helmholtz_matrix(dom, kappa), fvals.ravel()).reshape(dom.cells)
    phi = solve_helmholtz(Field(fvals, dom), kappa)
    assert np.abs(phi.values - exact).max() / np.abs(exact).max() <= 1e-9

    # the integral identities the signal equations must satisfy
    params = ModelParams(alpha=2.0, beta=4.0, gamma=3.0, delta=6.0, chi=1.0, xi=1.0, rho=0.5)
    for _ in range(100):
        u = Field(rng.uniform(0.0, 5.0, size=dom.cells), dom)
        v, w = solve_signals(u, params)
        int_u_rho = integrate(Field(np.sqrt(u.values), dom))
        assert integrate(v) == pytest.approx(
            params.alpha / params.beta * int_u_rho, rel=1e-12
        )
        assert integrate(w) == pytest.approx(
            params.gamma / params.delta * integrate(u), rel=1e-12
        )


def test_criterion_3_heat_reduction():
    dom = DomainSpec((1.0, 1.0), (128, 128))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=0.0, xi=0.0, rho=0.5)
    x, _ = dom.cell_centers()
    mode = np.repeat(np.cos(3.0 * np.pi * x)[:, None], 128, axis=1)
    state = initial_state(Field(1.0 + 0.5 * mode, dom), params)
    cfg = StepperConfig()
    dt = stable_dt(state, params, cfg)
    lam = (2.0 / dom.h**2) * (1.0 - np.cos(3.0 * np.pi / 128.0))

    weight = float((mode * mode).sum())
    proj0 = float((state.u.values * mode).sum()) / weight
    for _ in range(100):
        state = step(state, params, cfg, dt)
    proj100 = float((state.u.values * mode).sum()) / weight

    observed = (proj100 / proj0) ** (1.0 / 100.0)
    expected = 1.0 - dt * lam
    assert abs(observed - expected) / expected <= 1e-6


@pytest.mark.slow
def test_criterion_4_sublinear_boundedness(criterion4_run):
    result = criterion4_run.result
    assert result.state.status is Status.COMPLETED
    assert result.state.status is not Status.BLOWUP_SUSPECTED

    tail = [rec for rec in result.records if rec.t >= 0.5 * criterion4_run.t_end]
    assert len(tail) >= 10
    e2 = [rec.energies[2.0] for rec in tail]
    umax = [rec.u_max for rec in tail]
    assert max(e2) <= 1.05 * statistics.median(e2)
    assert max(umax) <= 1.05 * statistics.median(umax)


@pytest.mark.slow
def test_criterion_5_critical_mass_dichotomy(criterion5_runs):
    r = criterion5_runs
    assert r.sub.state.status is not Status.BLOWUP_SUSPECTED
    assert r.sub.state.status is Status.COMPLETED
    assert r.sup.state.status is Status.BLOWUP_SUSPECTED
    assert r.sup.state.t < 0.05
    assert r.cli_exit == EXIT_BLOWUP == 2

    sub_regime = classify_regime(r.params, 0.5 * FOUR_PI)
    sup_regime = classify_regime(r.params, 3.0 * FOUR_PI)
    assert sub_regime.regime is Regime.SUBCRITICAL_MASS
    assert sup_regime.regime is Regime.SUPERCRITICAL_MASS


def test_criterion_6_constants_oracle():
    # worked values first
    assert interpolation_exponent(2.0, 2) == pytest.approx(0.5, rel=1e-12)
    assert sublinear_production_bound(2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
        16.276041666666668, rel=1e-12
    )
    assert gn_absorption_constant(2.0, 2, 1.0, 1.0) == pytest.approx(2.5, rel=1e-12)

    skipped = 0
    count = 1000
    for spec in random_tuple_stream(seed=77, count=count):
        p, n, rho = spec["p"], spec["n"], spec["rho"]
        al, ch, ga, xi, de = (
            spec["alpha"],
            spec["chi"],
            spec["gamma"],
            spec["xi"],
            spec["delta"],
        )
        m, vol, c_gn, c_e = spec["m"], spec["volume"], spec["c_gn"], spec["c_e"]

        assert_close_to_oracle(interpolation_exponent(p, n), o_theta(p, n), 1e-12, "theta")
        c1 = sublinear_production_bound(p, rho, al, ch, ga, xi, vol)
        assert_close_to_oracle(c1, o_c1(p, rho, al, ch, ga, xi, vol), 1e-12, "c1")
        try:
            eta = ehrling_schedule(p, ga, xi, de, 1.0).eta
        except EtaOutOfRange:
            skipped += 1
            continue
        assert_close_to_oracle(eta, o_eta(p, ga, xi, de), 1e-12, "eta")
        sched = ehrling_schedule(p, ga, xi, de, c_e)
        assert_close_to_oracle(sched.sigma, o_sigma(p, ga, xi), 1e-12, "sigma")
        assert_close_to_oracle(sched.c_hat, o_c_hat(p, ga, xi, de), 1e-12, "c_hat")
        assert_close_to_oracle(sched.c_tilde, o_c_tilde(p, ga, xi, de, c_e), 1e-12, "c_tilde")
        c_star = gn_absorption_constant(p, n, m, c_gn)
        assert_close_to_oracle(c_star, o_c_star(p, n, m, c_gn), 1e-12, "c_star")
        cbar, total = combine_bounds(c1, sched.c_tilde, m, p, c_star)
        ob, ot = o_cbar_total(c1, sched.c_tilde, m, p, c_star)
        assert_close_to_oracle(cbar, ob, 1e-12, "cbar")
        assert_close_to_oracle(total, ot, 1e-12, "c_star_total")
    assert skipped <= count * 0.05


@pytest.mark.slow
def test_criterion_7_absorptive_consistency(criterion4_run):
    params = criterion4_run.params
    p = 0.75 * params.dim
    report = compute_bounds(params, criterion4_run.mass, p, dom=criterion4_run.dom)
    records = criterion4_run.result.records

    ineq = check_energy_inequality(records, p, report.cbar)
    assert ineq.fraction_ok >= 0.95

    absorb = check_absorptive_bound(
        records, p, records[0].energies[p], report.c_star_total
    )
    assert absorb.max_ratio <= 1.0

    # the report must flag which constants are estimates, not proofs
    assert report.provenance["c_star_total"] == "estimated-constant"
    assert report.provenance["theta"] == "exact-formula"
    assert report.cgn >= 1.0
    assert report.ce > 0.0


@pytest.mark.slow
def test_criterion_8_positivity(criterion1_run, criterion4_run, criterion5_runs, criterion9_runs):
    ratios = {
        "mass-conservation run": criterion1_run.min_ratio,
        "sublinear run": criterion4_run.result.min_density_ratio,
        "subcritical run": criterion5_runs.sub.min_density_ratio,
        "cli run 1": criterion9_runs.summaries[0]["min_density_ratio"],
        "cli run 2": criterion9_runs.summaries[1]["min_density_ratio"],
    }
    for label, ratio in ratios.items():
        assert ratio >= -1e-13, label


@pytest.mark.slow
def test_criterion_9_cli_determinism(criterion9_runs):
    r = criterion9_runs
    assert r.exits == [EXIT_OK, EXIT_OK]
    first, second = r.dirs
    assert (first / "diagnostics.csv").read_bytes() == (second / "diagnostics.csv").read_bytes()
    assert (first / "u_final.csv").read_bytes() == (second / "u_final.csv").read_bytes()
    assert r.summaries[0]["status"] == "Completed"
    assert r.summaries[0]["conservation_drift"] <= 1e-10
