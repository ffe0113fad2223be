"""Upwind transport, CFL control, and the outer run loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrep import DomainSpec, Field, ModelParams
from attrep.diagnostics import DiagnosticsConfig, backfill_rate_estimates, sample
from attrep.elliptic import implicit_diffusion_step
from attrep.errors import NonFiniteState
from attrep.grid import integrate
from attrep.stepper import (
    BLOWUP_FACTOR,
    SCHEMES,
    FaceFluxes,
    SimState,
    Status,
    StepperConfig,
    _flux_divergence,
    drift_potential,
    face_fluxes,
    initial_state,
    run,
    stable_dt,
    step,
)


def cosine_mode(dom, k, l, amplitude=1.0):
    x, y = dom.cell_centers()
    lx, ly = dom.lengths
    return Field(
        amplitude * np.cos(np.pi * k * x / lx)[:, None] * np.cos(np.pi * l * y / ly)[None, :],
        dom,
    )


def mode_eigenvalue(dom, k, l):
    h = dom.h
    nx, ny = dom.cells
    return (2.0 / h**2) * (2.0 - np.cos(np.pi * k / nx) - np.cos(np.pi * l / ny))


def bump_field(dom, width=0.1, floor=1e-3):
    x, y = dom.cell_centers()
    r2 = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2
    return Field(floor + np.exp(-r2 / (2 * width**2)), dom)


def no_drift_params(rho=0.5):
    return ModelParams(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, chi=0.0, xi=0.0, rho=rho)


def where_face_fluxes(u, phi, diffusion=True):
    """The np.where formulation of face_fluxes, kept as its bitwise oracle."""
    h = u.domain.h
    uv = u.values
    pv = phi.values
    vx = (pv[1:, :] - pv[:-1, :]) / h
    fx = -np.where(vx > 0.0, uv[:-1, :], uv[1:, :]) * vx
    vy = (pv[:, 1:] - pv[:, :-1]) / h
    fy = -np.where(vy > 0.0, uv[:, :-1], uv[:, 1:]) * vy
    if diffusion:
        fx = fx + (uv[1:, :] - uv[:-1, :]) / h
        fy = fy + (uv[:, 1:] - uv[:, :-1]) / h
    return FaceFluxes(fx, fy)


def zeros_flux_divergence(fluxes, u):
    """The np.zeros formulation of _flux_divergence, kept as its bitwise oracle."""
    div = np.zeros(u.domain.cells)
    div[:-1, :] += fluxes.fx
    div[1:, :] -= fluxes.fx
    div[:, :-1] += fluxes.fy
    div[:, 1:] -= fluxes.fy
    div /= u.domain.h
    return div


def assert_same_bits(actual, expected):
    """Equal to the last bit, signed zeros and NaN payloads included."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


# Grids for the bitwise oracle checks, degenerate strips included.
ORACLE_GRIDS = [((1.0, 1.0), (16, 16)), ((1.0, 0.6), (5, 3)), ((1.0, 0.5), (2, 1)), ((0.25, 1.0), (1, 4))]


def oracle_inputs(dom, rng):
    """A density with zeros and ties and a potential on three levels, so that
    many faces have exactly zero drift (and zero diffusive flux)."""
    u = rng.uniform(0.0, 2.0, size=dom.cells)
    u[rng.random(dom.cells) < 0.2] = 0.0
    u[rng.random(dom.cells) < 0.2] = 1.0
    phi = rng.integers(0, 3, size=dom.cells) * 0.7
    return Field(u, dom), Field(phi, dom)


class TestStepperConfig:
    def test_defaults(self):
        cfg = StepperConfig()
        assert cfg.scheme == "explicit-upwind"
        assert cfg.cfl_safety == 0.4

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            StepperConfig(scheme="crank-nicolson")

    @pytest.mark.parametrize("cfl", [0.0, -0.1, 1.5])
    def test_cfl_out_of_range(self, cfl):
        with pytest.raises(ValueError, match="cfl_safety"):
            StepperConfig(cfl_safety=cfl)

    def test_dt_window_must_be_ordered(self):
        with pytest.raises(ValueError, match="dt_min"):
            StepperConfig(dt_max=1e-6, dt_min=1e-3)


class TestFaceFluxes:
    def test_two_cell_worked_example(self):
        # u = (1, 0), phi = (0, 1): drift velocity +1/h selects the left
        # donor, advective flux -1/h; diffusion adds (0 - 1)/h. Total -2/h.
        dom = DomainSpec((1.0, 0.5), (2, 1))
        h = dom.h
        u = Field(np.array([[1.0], [0.0]]), dom)
        phi = Field(np.array([[0.0], [1.0]]), dom)
        fluxes = face_fluxes(u, phi)
        assert fluxes.fx.shape == (1, 1)
        assert fluxes.fx[0, 0] == pytest.approx(-2.0 / h, rel=1e-14)

    def test_uniform_state_has_zero_fluxes(self, unit_square_16):
        u = Field.full(unit_square_16, 3.0)
        phi = Field.full(unit_square_16, 1.0)
        fluxes = face_fluxes(u, phi)
        assert (fluxes.fx == 0.0).all()
        assert (fluxes.fy == 0.0).all()

    def test_constant_potential_leaves_pure_diffusion(self, unit_square_16, rng):
        u = Field(rng.uniform(0.5, 1.5, size=unit_square_16.cells), unit_square_16)
        phi = Field.full(unit_square_16, 7.0)
        h = unit_square_16.h
        fluxes = face_fluxes(u, phi)
        np.testing.assert_allclose(fluxes.fx, np.diff(u.values, axis=0) / h, rtol=0, atol=0)

    def test_donor_switches_with_drift_sign(self):
        dom = DomainSpec((1.0, 0.5), (2, 1))
        h = dom.h
        u = Field(np.array([[1.0], [0.0]]), dom)
        phi_down = Field(np.array([[1.0], [0.0]]), dom)
        fluxes = face_fluxes(u, phi_down, diffusion=False)
        # drift velocity -1/h points left, donor is the right cell (u = 0)
        assert fluxes.fx[0, 0] == 0.0

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_bits_match_where_formulation(self, rng, lengths, cells, diffusion):
        dom = DomainSpec(lengths, cells)
        for _ in range(5):
            u, phi = oracle_inputs(dom, rng)
            got = face_fluxes(u, phi, diffusion=diffusion)
            want = where_face_fluxes(u, phi, diffusion=diffusion)
            assert_same_bits(got.fx, want.fx)
            assert_same_bits(got.fy, want.fy)

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_divergence_bits_match_zeros_formulation(self, rng, lengths, cells, diffusion):
        dom = DomainSpec(lengths, cells)
        for _ in range(5):
            u, phi = oracle_inputs(dom, rng)
            fluxes = where_face_fluxes(u, phi, diffusion=diffusion)
            assert_same_bits(_flux_divergence(fluxes, u), zeros_flux_divergence(fluxes, u))


class TestDriftPotential:
    def test_equal_weights_cancel(self, unit_square_16, rng):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        sig = Field(rng.uniform(0.0, 1.0, size=unit_square_16.cells), unit_square_16)
        state = SimState(sig, sig, sig, t=0.0, step=0, status=Status.RUNNING)
        assert (drift_potential(state, params).values == 0.0).all()

    def test_constant_signals(self, unit_square_16):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=2.0, xi=1.0, rho=0.5)
        one = Field.full(unit_square_16, 1.0)
        state = SimState(one, one, one, t=0.0, step=0, status=Status.RUNNING)
        np.testing.assert_array_equal(drift_potential(state, params).values, 1.0)


class TestStableDt:
    def test_diffusive_bound_on_uniform_state(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        state = initial_state(Field.full(dom, 1.0), no_drift_params())
        cfg = StepperConfig(dt_max=1.0, cfl_safety=0.4)
        assert stable_dt(state, no_drift_params(), cfg) == pytest.approx(
            2.44140625e-5, rel=1e-14
        )

    def test_advective_bound_under_imex(self):
        # with the diffusive restriction lifted, a face speed of 10 leaves
        # dt = 0.4 * h / 10
        dom = DomainSpec((1.0, 1.0), (64, 64))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.0, rho=1.0)
        x, _ = dom.cell_centers()
        u = Field.full(dom, 1.0)
        v = Field(np.repeat(10.0 * x[:, None], 64, axis=1), dom)
        state = SimState(u, v, Field.full(dom, 0.0), t=0.0, step=0, status=Status.RUNNING)
        cfg = StepperConfig(dt_max=1.0, cfl_safety=0.4, scheme="imex-diffusion")
        assert stable_dt(state, params, cfg) == pytest.approx(0.4 / 64.0 / 10.0, rel=1e-13)

    def test_imex_uniform_hits_dt_max(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        state = initial_state(Field.full(dom, 1.0), no_drift_params())
        cfg = StepperConfig(dt_max=5e-3, scheme="imex-diffusion")
        assert stable_dt(state, no_drift_params(), cfg) == 5e-3

    def test_clamped_below_by_dt_min(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        state = initial_state(Field.full(dom, 1.0), no_drift_params())
        cfg = StepperConfig(dt_max=1.0, dt_min=1e-3)
        assert stable_dt(state, no_drift_params(), cfg) == 1e-3


class TestStep:
    def test_uniform_is_fixed_point_explicit(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.5, xi=0.5, rho=0.5)
        state = initial_state(Field.full(dom, 2.0), params)
        cfg = StepperConfig()
        for _ in range(1000):
            state = step(state, params, cfg)
        np.testing.assert_array_equal(state.u.values, 2.0)

    def test_uniform_is_fixed_point_imex(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.5, xi=0.5, rho=0.5)
        state = initial_state(Field.full(dom, 2.0), params)
        cfg = StepperConfig(scheme="imex-diffusion", dt_max=1e-3)
        for _ in range(100):
            state = step(state, params, cfg)
        np.testing.assert_allclose(state.u.values, 2.0, rtol=1e-13)

    def test_explicit_heat_mode_decay(self):
        # with both drift weights zero the scheme is the five-point heat
        # stencil; a Neumann eigenmode decays by (1 - dt lambda) per step
        dom = DomainSpec((1.0, 1.0), (64, 64))
        params = no_drift_params()
        mode = cosine_mode(dom, 3, 0, amplitude=0.5)
        state = initial_state(Field(1.0 + mode.values, dom), params)
        cfg = StepperConfig(dt_max=1.0)
        dt = stable_dt(state, params, cfg)
        lam = mode_eigenvalue(dom, 3, 0)
        nsteps = 50
        for _ in range(nsteps):
            state = step(state, params, cfg, dt)
        expected = 1.0 + (1.0 - dt * lam) ** nsteps * mode.values
        np.testing.assert_allclose(state.u.values, expected, rtol=0, atol=1e-12)
        assert state.t == pytest.approx(nsteps * dt, rel=1e-14)
        assert state.step == nsteps

    def test_imex_heat_mode_decay(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        params = no_drift_params()
        mode = cosine_mode(dom, 3, 0, amplitude=0.5)
        state = initial_state(Field(1.0 + mode.values, dom), params)
        cfg = StepperConfig(scheme="imex-diffusion", dt_max=1e-3)
        dt = 1e-3
        lam = mode_eigenvalue(dom, 3, 0)
        nsteps = 50
        for _ in range(nsteps):
            state = step(state, params, cfg, dt)
        expected = 1.0 + (1.0 + dt * lam) ** (-nsteps) * mode.values
        np.testing.assert_allclose(state.u.values, expected, rtol=0, atol=1e-10)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_step_raises(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.0, rho=0.5)
        state = initial_state(bump_field(dom), params)
        with pytest.raises(NonFiniteState):
            step(state, params, StepperConfig(), dt=1e308)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        scheme=st.sampled_from(SCHEMES),
        chi=st.floats(min_value=0.0, max_value=3.0),
        xi=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_mass_conserved_per_step(self, seed, scheme, chi, xi):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=chi, xi=xi, rho=0.5)
        u0 = Field(np.random.default_rng(seed).uniform(0.1, 2.0, size=dom.cells), dom)
        state = initial_state(u0, params)
        cfg = StepperConfig(scheme=scheme, dt_max=1e-3)
        new = step(state, params, cfg)
        mass = integrate(state.u)
        assert abs(integrate(new.u) - mass) <= 1e-13 * mass

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_cfl_step_preserves_positivity(self, seed):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=2.0, xi=0.5, rho=0.5)
        values = np.random.default_rng(seed).uniform(0.0, 2.0, size=dom.cells)
        values[0, 0] = 0.0
        state = initial_state(Field(values, dom), params)
        new = step(state, params, StepperConfig())
        assert float(new.u.values.min()) >= -1e-13 * float(new.u.values.max())

    def test_signals_recomputed_for_new_density(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=0.5)
        state = initial_state(bump_field(dom), params)
        new = step(state, params, StepperConfig())
        from attrep import solve_signals

        v, w = solve_signals(new.u, params)
        np.testing.assert_array_equal(new.v.values, v.values)
        np.testing.assert_array_equal(new.w.values, w.values)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bits_match_fresh_array_update(self, scheme):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params)
        dt = stable_dt(state, params, cfg)
        phi = Field(params.chi * state.v.values - params.xi * state.w.values, dom)
        explicit = scheme == "explicit-upwind"
        fluxes = where_face_fluxes(state.u, phi, diffusion=explicit)
        want = state.u.values + dt * zeros_flux_divergence(fluxes, state.u)
        if not explicit:
            want = implicit_diffusion_step(Field(want, dom), dt).values
        assert_same_bits(drift_potential(state, params).values, phi.values)
        assert_same_bits(step(state, params, cfg, dt).u.values, want)


class TestRun:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bits_match_manual_step_loop(self, scheme):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        diag = DiagnosticsConfig(every=3)
        state = initial_state(bump_field(dom, width=0.08), params)
        t_end = 12.5 * stable_dt(state, params, cfg)
        result = run(state, params, cfg, t_end, diagnostics=diag)
        # The density ratio, final-sample guard and final mass in the form
        # they had before run() took one min and one max per state.
        min_ratio, records, last_sampled = math.inf, [], -1
        while True:
            u_max = float(state.u.values.max())
            if u_max > 0.0:
                min_ratio = min(min_ratio, float(state.u.values.min()) / u_max)
            if state.t >= t_end:
                break
            if state.step % diag.every == 0:
                records.append(sample(state, diag.ps))
                last_sampled = state.step
            state = step(state, params, cfg, stable_dt(state, params, cfg))
        uv = state.u.values
        if (
            state.step != last_sampled
            and np.isfinite(uv).all()
            and np.isfinite(state.v.values).all()
            and np.isfinite(state.w.values).all()
            and float(uv.min()) >= -1e-13 * max(float(uv.max()), 0.0)
        ):
            records.append(sample(state, diag.ps))
        records = backfill_rate_estimates(records, diag.ps[0])
        mass_final = integrate(state.u) if np.isfinite(uv).all() else math.nan
        assert result.state.status is Status.COMPLETED
        assert result.steps == state.step
        assert result.state.t == state.t
        for name in ("u", "v", "w"):
            assert_same_bits(getattr(result.state, name).values, getattr(state, name).values)
        assert len(records) == 6
        assert repr(result.records) == repr(records)
        assert result.min_density_ratio.hex() == min_ratio.hex()
        assert result.mass_final.hex() == mass_final.hex()

    def test_uniform_reaches_steady_immediately(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        result = run(initial_state(Field.full(dom, 1.0), params), params, StepperConfig(), 1.0)
        assert result.state.status is Status.STEADY_DETECTED
        assert result.steps == 1
        assert result.mass_drift == 0.0

    def test_zero_horizon_completes_with_empty_series(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        result = run(
            initial_state(Field.full(dom, 1.0), params),
            params,
            StepperConfig(),
            0.0,
            diagnostics=DiagnosticsConfig(),
        )
        assert result.state.status is Status.COMPLETED
        assert result.records == []
        assert result.steps == 0

    def test_short_run_samples_initial_and_final(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        cfg = StepperConfig()
        dt = stable_dt(state, params, cfg)
        result = run(state, params, cfg, 7.5 * dt, diagnostics=DiagnosticsConfig(every=100))
        assert result.state.status is Status.COMPLETED
        assert result.steps == 8
        assert [rec.t for rec in result.records] == pytest.approx([0.0, 8 * dt])

    def test_threshold_crossing_flags_blowup(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        result = run(state, params, StepperConfig(), 1.0, blowup_threshold=0.5)
        assert result.state.status is Status.BLOWUP_SUSPECTED
        assert result.steps == 0

    def test_overflowing_source_flags_blowup(self):
        # gamma u overflows although u is finite. The signal solve's own check
        # catches it, so the run stops as BlowupSuspected instead of raising.
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = no_drift_params()
        state = initial_state(Field.full(dom, 1e299), params)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run(state, replace(params, gamma=1e10), StepperConfig(), 1.0)
        assert result.state.status is Status.BLOWUP_SUSPECTED
        assert result.steps == 0

    def test_default_threshold_scales_with_mean_density(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(Field.full(dom, 2.0), params)
        # mean density 2, so the default threshold is 2e6; no uniform run
        # can cross it
        result = run(state, params, StepperConfig(), 0.1)
        assert result.state.status is not Status.BLOWUP_SUSPECTED
        assert BLOWUP_FACTOR == 1e6

    def test_dt_floor_reports_blowup_suspected(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        cfg = StepperConfig(dt_min=1e-2, dt_max=2e-2)
        result = run(state, params, cfg, 1.0)
        assert result.state.status is Status.BLOWUP_SUSPECTED
        assert result.steps == 0

    def test_on_state_sees_every_accepted_state(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        cfg = StepperConfig()
        dt = stable_dt(state, params, cfg)
        seen = []
        result = run(state, params, cfg, 4.5 * dt, on_state=lambda s: seen.append(s.step))
        assert seen == list(range(result.steps + 1))

    def test_callbacks_fire_per_sample(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        cfg = StepperConfig()
        dt = stable_dt(state, params, cfg)
        got = []
        result = run(
            state,
            params,
            cfg,
            9.5 * dt,
            diagnostics=DiagnosticsConfig(every=5),
            callbacks=(lambda s, rec: got.append((s.step, rec.t)),),
        )
        assert len(got) == len(result.records)
        assert [g[0] for g in got] == [0, 5, 10]

    def test_mass_conserved_over_run(self):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=0.5)
        state = initial_state(bump_field(dom), params)
        result = run(state, params, StepperConfig(), 0.01)
        assert result.state.status is Status.COMPLETED
        assert result.mass_drift <= 1e-12
        assert result.min_density_ratio >= -1e-13

    def test_rate_estimates_backfilled(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        cfg = StepperConfig()
        dt = stable_dt(state, params, cfg)
        result = run(state, params, cfg, 20.5 * dt, diagnostics=DiagnosticsConfig(every=5))
        rates = [rec.dedt_estimate for rec in result.records]
        assert all(math.isfinite(r) for r in rates[:-1])
        assert math.isnan(rates[-1])
        # pure diffusion dissipates the p = 2 energy
        assert all(r < 0.0 for r in rates[:-1])
