"""Upwind transport, CFL control, and the outer run loop."""

import copy
import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attrep.elliptic as elliptic
import attrep.stepper as stepper
from _oracles import hand_state, real_space_drift
from attrep import DomainSpec, Field, InitialData, ModelParams, build_initial_data
from attrep.diagnostics import DiagnosticsConfig, backfill_rate_estimates, sample
from attrep.elliptic import _implicit_solve, solve_signals
from attrep.errors import NegativeDensity, NonFiniteState, SolverDiverged
from attrep.grid import integrate
from attrep.stepper import (
    BLOWUP_FACTOR,
    SCHEMES,
    SimState,
    Status,
    StepperConfig,
    _face_speeds,
    _flux_divergence,
    _fluxes,
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


def kernel_fluxes(u, phi, h, diffusion=True):
    """The flux kernel on the face speeds of the raw potential phi."""
    return _fluxes(u, _face_speeds(phi, h), h, diffusion, np.empty(u.shape))


def where_face_fluxes(uv, pv, h, diffusion=True):
    """The np.where formulation of the flux kernel, kept as its bitwise oracle."""
    vx = (pv[1:, :] - pv[:-1, :]) / h
    fx = -np.where(vx > 0.0, uv[:-1, :], uv[1:, :]) * vx
    vy = (pv[:, 1:] - pv[:, :-1]) / h
    fy = -np.where(vy > 0.0, uv[:, :-1], uv[:, 1:]) * vy
    if diffusion:
        fx = fx + (uv[1:, :] - uv[:-1, :]) / h
        fy = fy + (uv[:, 1:] - uv[:, :-1]) / h
    return fx, fy


def zeros_flux_divergence(fx, fy, dom):
    """The np.zeros formulation of _flux_divergence, kept as its bitwise oracle."""
    div = np.zeros(dom.cells)
    div[:-1, :] += fx
    div[1:, :] -= fx
    div[:, :-1] += fy
    div[:, 1:] -= fy
    div /= dom.h
    return div


def assert_same_bits(actual, expected):
    """Equal to the last bit, signed zeros and NaN payloads included."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def assert_same_state(actual, expected):
    """The density and the drift of two states, to the last bit."""
    assert_same_bits(actual.u.values, expected.u.values)
    assert_same_bits(actual.phi, expected.phi)


def assert_drift_of(state, params, rtol=1e-13):
    """The state's phi is chi v - xi w of its density, to rtol of max|phi|."""
    want = real_space_drift(state.u, params)
    np.testing.assert_allclose(state.phi, want, rtol=0.0, atol=rtol * np.abs(want).max())


# Grids for the bitwise oracle checks, degenerate strips included.
ORACLE_GRIDS = [((1.0, 1.0), (16, 16)), ((1.0, 0.6), (5, 3)), ((1.0, 0.5), (2, 1)), ((0.25, 1.0), (1, 4))]


def oracle_inputs(dom, rng):
    """A density with zeros and ties and a potential on three levels, so that
    many faces have exactly zero drift (and zero diffusive flux)."""
    u = rng.uniform(0.0, 2.0, size=dom.cells)
    u[rng.random(dom.cells) < 0.2] = 0.0
    u[rng.random(dom.cells) < 0.2] = 1.0
    phi = rng.integers(0, 3, size=dom.cells) * 0.7
    return u, phi


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
        u = np.array([[1.0], [0.0]])
        phi = np.array([[0.0], [1.0]])
        fx, _ = kernel_fluxes(u, phi, h)
        assert fx.shape == (1, 1)
        assert fx[0, 0] == pytest.approx(-2.0 / h, rel=1e-14)

    def test_uniform_state_has_zero_fluxes(self, unit_square_16):
        u = np.full(unit_square_16.cells, 3.0)
        phi = np.full(unit_square_16.cells, 1.0)
        fx, fy = kernel_fluxes(u, phi, unit_square_16.h)
        assert (fx == 0.0).all()
        assert (fy == 0.0).all()

    def test_constant_potential_leaves_pure_diffusion(self, unit_square_16, rng):
        u = rng.uniform(0.5, 1.5, size=unit_square_16.cells)
        phi = np.full(unit_square_16.cells, 7.0)
        h = unit_square_16.h
        fx, _ = kernel_fluxes(u, phi, h)
        np.testing.assert_allclose(fx, np.diff(u, axis=0) / h, rtol=0, atol=0)

    def test_donor_switches_with_drift_sign(self):
        dom = DomainSpec((1.0, 0.5), (2, 1))
        u = np.array([[1.0], [0.0]])
        phi_down = np.array([[1.0], [0.0]])
        fx, _ = kernel_fluxes(u, phi_down, dom.h, diffusion=False)
        # drift velocity -1/h points left, donor is the right cell (u = 0)
        assert fx[0, 0] == 0.0

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_bits_match_where_formulation(self, rng, lengths, cells, diffusion):
        dom = DomainSpec(lengths, cells)
        for _ in range(5):
            u, phi = oracle_inputs(dom, rng)
            got = kernel_fluxes(u, phi, dom.h, diffusion=diffusion)
            want = where_face_fluxes(u, phi, dom.h, diffusion=diffusion)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_divergence_bits_match_zeros_formulation(self, rng, lengths, cells, diffusion):
        dom = DomainSpec(lengths, cells)
        for _ in range(5):
            u, phi = oracle_inputs(dom, rng)
            fluxes = where_face_fluxes(u, phi, dom.h, diffusion=diffusion)
            got = _flux_divergence(*fluxes, dom, np.empty(dom.cells))
            assert_same_bits(got, zeros_flux_divergence(*fluxes, dom))


class TestDriftPotential:
    def test_equal_weights_cancel(self, unit_square_16, rng):
        # chi alpha = xi gamma and beta = delta: at rho = 1 the per-mode factor
        # is zero, below it the single source is chi alpha (u^rho - u).
        u = Field(rng.uniform(0.0, 1.0, size=unit_square_16.cells), unit_square_16)
        for rho in (1.0, 0.5):
            params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=rho)
            state = initial_state(u, params)
            assert_drift_of(state, params)
        assert (initial_state(u, replace(params, rho=1.0)).phi == 0.0).all()

    def test_constant_signals(self, unit_square_16):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=2.0, xi=1.0, rho=0.5)
        state = initial_state(Field.full(unit_square_16, 1.0), params)
        # phi comes back from cosine space: 1 up to the transforms' rounding.
        np.testing.assert_allclose(state.phi, 1.0, rtol=1e-15, atol=0.0)


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
        state = hand_state(u, v, params)
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

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_non_finite_drift_raises(self, scheme, bad):
        # A NaN face speed fails every comparison, so the advective bound
        # would silently drop out and leave dt_max.
        state = nan_signal_state(DomainSpec((1.0, 1.0), (8, 8)), bad)
        cfg = StepperConfig(scheme=scheme)
        with pytest.raises(NonFiniteState, match="drift lost finiteness at t = 0.0"):
            stable_dt(state, PARITY_PARAMS, cfg)


class TestStep:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan, math.inf])
    def test_requires_positive_dt(self, scheme, dt):
        # Checked once, before any work, for both schemes.
        state, params, cfg = drift_case(scheme)
        with pytest.raises(ValueError, match="dt must satisfy 0 < dt < inf"):
            step(state, params, cfg, dt)

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
        assert not np.array_equal(new.phi, state.phi)
        assert_drift_of(new, params)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bits_match_fresh_array_update(self, scheme):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params)
        dt = stable_dt(state, params, cfg)
        phi = state.phi
        assert_drift_of(state, params)
        explicit = scheme == "explicit-upwind"
        fluxes = where_face_fluxes(state.u.values, phi, dom.h, diffusion=explicit)
        want = state.u.values + dt * zeros_flux_divergence(*fluxes, dom)
        if not explicit:
            want, _ = _implicit_solve(want, dt, dom)
        assert_same_bits(step(state, params, cfg, dt).u.values, want)

    def test_imex_signals_from_implicit_coefficients(self):
        # w's source gamma u (and at rho = 1 v's, alpha u) is scaled from the
        # implicit solve's cosine coefficients: phi equals the real-space
        # chi v - xi w of the new density up to rounding.
        dom = DomainSpec((1.0, 1.0), (24, 24))
        cfg = StepperConfig(scheme="imex-diffusion")
        for rho in (0.5, 1.0):
            params = ModelParams(1.0, 1.0, 1.3, 0.7, chi=4.0, xi=0.5, rho=rho)
            new = step(initial_state(bump_field(dom, width=0.08), params), params, cfg)
            assert_drift_of(new, params)


def spike_state(dom, amplitude):
    """All density in the centre cell, at the bottom of a steep cone of v, so
    that it drifts out through all four faces at the largest face speed."""
    u = np.zeros(dom.cells)
    u[4, 4] = amplitude
    i = np.abs(np.arange(dom.cells[0]) - 4)
    cone = 100.0 * (i[:, None] + i[None, :]).astype(float)
    return hand_state(Field(u, dom), Field(cone, dom), PARITY_PARAMS)


def nan_signal_state(dom, bad=np.nan):
    v = np.ones(dom.cells)
    v[3, 3] = bad
    return hand_state(bump_field(dom), Field(v, dom), PARITY_PARAMS)


def uniform_state(dom, value, params):
    return hand_state(Field.full(dom, value), Field.full(dom, 0.0), params)


PARITY_PARAMS = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.0, rho=0.5)
OVERFLOWING_SOURCE_PARAMS = replace(PARITY_PARAMS, chi=0.0, gamma=1e10)

# Hand-built states that fail a step at its own stable dt (cfl_safety = 1):
# (state maker, params, exception, message).
PARITY_CASES = {
    "nan-update": (nan_signal_state, PARITY_PARAMS, NonFiniteState, "density lost finiteness"),
    "inf-update": (lambda dom: spike_state(dom, 1e308), PARITY_PARAMS, NonFiniteState, "density lost finiteness"),
    "negative-dip": (lambda dom: spike_state(dom, 1.0), PARITY_PARAMS, NegativeDensity, "below tolerance"),
    "overflowing-source": (
        lambda dom: uniform_state(dom, 1e299, OVERFLOWING_SOURCE_PARAMS),
        OVERFLOWING_SOURCE_PARAMS,
        SolverDiverged,
        "cosine-transform solve would overflow",
    ),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestCheckParity:
    """One minimum and one maximum of each new field carry every check of the
    step: the same states fail with the same exception and message."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_step_raises(self, scheme, case):
        make, params, exc, message = PARITY_CASES[case]
        dom = DomainSpec((1.0, 1.0), (8, 8))
        cfg = StepperConfig(scheme=scheme, cfl_safety=1.0)
        state = make(dom)
        # stable_dt already rejects the NaN drift, so step gets its own dt.
        dt = 1e-3 if case == "nan-update" else stable_dt(state, params, cfg)
        with pytest.raises(exc, match=message):
            step(state, params, cfg, dt)

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_reports_blowup_suspected(self, scheme, case):
        make, params, _, _ = PARITY_CASES[case]
        dom = DomainSpec((1.0, 1.0), (8, 8))
        cfg = StepperConfig(scheme=scheme, cfl_safety=1.0)
        result = run(make(dom), params, cfg, 1.0, blowup_threshold=math.inf)
        assert result.state.status is Status.BLOWUP_SUSPECTED
        assert result.steps == 0

    @pytest.mark.parametrize(
        "scheme, message",
        [
            ("explicit-upwind", "cosine-transform solve would overflow"),
            ("imex-diffusion", "implicit diffusion step produced non-finite values"),
        ],
    )
    def test_overflowing_transform_is_solver_diverged(self, scheme, message):
        # The update is finite; its cosine transform overflows, in the signal
        # solve (explicit) or already in the implicit diffusion solve (IMEX).
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = replace(PARITY_PARAMS, chi=0.0)
        with pytest.raises(SolverDiverged, match=message):
            step(uniform_state(dom, 1e308, params), params, StepperConfig(scheme=scheme), 1e-3)


def drift_case(scheme):
    dom = DomainSpec((1.0, 1.0), (24, 24))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
    return initial_state(bump_field(dom, width=0.08), params), params, StepperConfig(scheme=scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestDriftMemo:
    """No state carries face speeds: each step uses those of its own state
    under its own params, built for it or handed over by its caller."""

    def test_step_uses_its_own_params(self, scheme):
        # A state built under params_a steps and runs under params_b as the
        # state built under params_b does: phi is formed anew from u.
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params_a = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params_a)
        for other in ({"chi": 1.0, "xi": 2.0}, {"alpha": 2.0, "delta": 0.7}):
            params_b = replace(params_a, **other)
            fresh = initial_state(bump_field(dom, width=0.08), params_b)
            assert state.params == params_a and fresh.params == params_b
            dt = stable_dt(state, params_b, cfg)
            assert dt == stable_dt(fresh, params_b, cfg)
            got = step(state, params_b, cfg, dt)
            assert got.params == params_b
            assert not np.array_equal(got.u.values, step(state, params_a, cfg, dt).u.values)
            assert_same_state(got, step(fresh, params_b, cfg, dt))
            diagnostics = DiagnosticsConfig(ps=(2.0, 1.5), every=1)
            got_run = run(state, params_b, cfg, 2.5 * dt, diagnostics=diagnostics)
            want_run = run(fresh, params_b, cfg, 2.5 * dt, diagnostics=diagnostics)
            assert got_run.steps == want_run.steps == 3
            assert_same_state(got_run.state, want_run.state)
            for a, b in zip(got_run.records, want_run.records, strict=True):
                assert (a.t, a.energies, a.grad_energies, a.v_max, a.w_max) == (
                    b.t, b.energies, b.grad_energies, b.v_max, b.w_max)

    def test_stepping_twice_gives_same_bits(self, scheme):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params)
        dt = stable_dt(state, params, cfg)
        first = step(state, params, cfg, dt)
        second = step(state, params, cfg, dt)
        assert_same_state(first, second)

    def test_handed_speeds_are_consumed(self, scheme):
        # run builds the speeds once and hands them to stable_dt, then to
        # step, which writes its fluxes into them and empties the list.
        state, params, cfg = drift_case(scheme)
        speeds = _face_speeds(state.phi, state.u.h)
        dt = stable_dt(state, params, cfg, speeds=speeds)
        assert dt == stable_dt(state, params, cfg)
        got = step(state, params, cfg, dt, speeds=speeds)
        assert speeds == []
        want = step(state, params, cfg, dt)
        assert_same_state(got, want)

    def test_copy_builds_its_own_speeds(self, scheme):
        # Stepping the original first leaves what its copy steps to unchanged.
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params)
        fresh = initial_state(bump_field(dom, width=0.08), params)
        dt = stable_dt(state, params, cfg)
        twin = copy.copy(state)
        step(state, params, cfg, dt)
        got = step(twin, params, cfg, dt)
        want = step(fresh, params, cfg, dt)
        assert_same_state(got, want)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestStateIsData:
    """A state holds only the fields SimState declares, so a deep copy or a
    replace of it steps exactly as the state itself does (a copy.copy:
    TestDriftMemo)."""

    def test_only_declared_fields(self, scheme):
        state, params, cfg = drift_case(scheme)
        declared = {f.name for f in dataclasses.fields(SimState)}
        dt = stable_dt(state, params, cfg)
        new = step(state, params, cfg, dt)
        seen = []
        result = run(new, params, cfg, new.t + 3.5 * dt, on_state=seen.append)
        assert result.steps > new.step
        for s in [state, new, result.state, *seen]:
            assert set(vars(s)) <= declared

    @pytest.mark.parametrize("twin", [copy.deepcopy, replace], ids=["deepcopy", "replace"])
    def test_twin_steps_to_same_bits(self, scheme, twin):
        state, params, cfg = drift_case(scheme)
        dt = stable_dt(state, params, cfg)
        other = twin(state)
        want = step(state, params, cfg, dt)
        got = step(other, params, cfg, dt)
        assert stable_dt(other, params, cfg) == dt
        assert_same_state(got, want)
        assert (got.u_min, got.u_max, got.t) == (want.u_min, want.u_max, want.t)

    def test_replace_takes_extrema_from_u(self, scheme):
        state, params, cfg = drift_case(scheme)
        new = step(state, params, cfg)
        moved = replace(new, u=state.u)
        assert (moved.u_min, moved.u_max) == (state.u_min, state.u_max)
        assert (new.u_min, new.u_max) == (float(new.u.values.min()), float(new.u.values.max()))

    def test_run_builds_face_speeds_once_per_step(self, scheme, monkeypatch):
        state, params, cfg = drift_case(scheme)
        t_end = 6.5 * stable_dt(state, params, cfg)
        calls = []

        def counted(*args, _original=stepper._face_speeds):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(stepper, "_face_speeds", counted)
        result = run(state, params, cfg, t_end)
        assert result.steps > 0
        assert len(calls) == result.steps

    def test_run_builds_one_field_per_step(self, scheme, monkeypatch):
        # The new density's Field; v and w are not built unless read.
        state, params, cfg = drift_case(scheme)
        t_end = 6.5 * stable_dt(state, params, cfg)
        built = []
        post_init = Field.__post_init__

        def counted(field_self):
            built.append(1)
            post_init(field_self)

        monkeypatch.setattr(Field, "__post_init__", counted)
        result = run(state, params, cfg, t_end)
        assert result.steps == 7
        assert len(built) <= result.steps


def overflowing_read_state():
    """A state past every check whose density is finite, but whose w source
    gamma u overflows under OVERFLOWING_READ_PARAMS."""
    dom = DomainSpec((1.0, 1.0), (8, 8))
    return hand_state(Field.full(dom, 2.0), Field.full(dom, 0.0), OVERFLOWING_READ_PARAMS)


OVERFLOWING_READ_PARAMS = replace(PARITY_PARAMS, gamma=1e308)


def negative_signal_state():
    """A density that initial_state accepts under NEGATIVE_READ_PARAMS: one
    spike, and a dip at the rounding tolerance over a block far from it. v's
    source is clamped, but w = solve(gamma u) is about dip/delta inside the
    block, while the spike's w is damped by diffusion, delta h^2 = 1/4, to
    about u/(5 delta): w dips 5 times below -NEGATIVE_TOL max w there."""
    dom = DomainSpec((1.0, 1.0), (64, 64))
    u = np.zeros(dom.cells)
    u[0, 0] = 1.0
    u[32:, 32:] = -elliptic.NEGATIVE_TOL
    return initial_state(Field(u, dom), NEGATIVE_READ_PARAMS)


NEGATIVE_READ_PARAMS = replace(PARITY_PARAMS, delta=1024.0)

# States whose signals fail their check where they are read: (state maker,
# params, message).
UNREADABLE = {
    # w = gamma u / delta = 2e308 is not finite; the bound on the sources
    # refuses the read before any transform.
    "nan-signal": (overflowing_read_state, OVERFLOWING_READ_PARAMS, "cosine-transform solve would overflow"),
    "negative-signal": (negative_signal_state, NEGATIVE_READ_PARAMS, "signal w violates the maximum principle"),
}

# One grid for each transform backend: matrix products up to 64 a side, the
# rfft pair above.
BUDGET_GRIDS = (16, 72)

# (beta, delta, rho, dip): each way _drift_potential forms phi's coefficients,
# shared rate or both signals', at rho = 1 from u's too.
DRIFT_CASES = {
    "shared-rate": (1.0, 1.0, 0.5, False),
    "two-rates": (1.0, 0.7, 0.5, False),
    "linear": (1.0, 0.7, 1.0, False),
    "linear-shared-rate": (1.0, 1.0, 1.0, False),
    "linear-dip": (1.0, 1.0, 1.0, True),
}


class TestSignalsOnRead:
    """A state carries the drift phi; v and w are read from its density
    (solve_signals, sample) and checked each time."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_initial_state_reads_back_solve_signals(self, scheme, rho):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.3, 0.7, chi=4.0, xi=0.5, rho=rho)
        state = initial_state(bump_field(dom, width=0.08), params)
        new = step(state, params, StepperConfig(scheme=scheme))
        for s in (state, new):
            assert_drift_of(s, params)
            assert (s.u_min, s.u_max) == (float(s.u.values.min()), float(s.u.values.max()))
            assert s.phi.shape == dom.cells
            assert not s.phi.flags.writeable

    @pytest.mark.parametrize("n", BUDGET_GRIDS)
    @pytest.mark.parametrize("case", sorted(DRIFT_CASES))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_phi_is_drift_of_solved_signals(self, scheme, case, n):
        beta, delta, rho, dip = DRIFT_CASES[case]
        dom = DomainSpec((1.0, 1.0), (n, n))
        params = ModelParams(1.0, beta, 1.3, delta, chi=4.0, xi=0.5, rho=rho)
        u = bump_field(dom, width=0.08).values.copy()
        if dip:
            u[3, 7] = -1e-14
        state = initial_state(Field(u, dom), params)
        assert (state.u_min < 0.0) == dip
        assert_drift_of(state, params)
        assert_drift_of(step(state, params, StepperConfig(scheme=scheme)), params)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_read_raises(self, case):
        make, params, message = UNREADABLE[case]
        state = make()
        with pytest.raises(SolverDiverged, match=message):
            sample(state, params, (2.0,))
        with pytest.raises(SolverDiverged, match=message):
            solve_signals(state.u, params)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_reports_failed_read_as_blowup(self, scheme, case):
        make, params, _ = UNREADABLE[case]
        state = make()
        cfg = StepperConfig(scheme=scheme)
        result = run(state, params, cfg, 1.0, diagnostics=DiagnosticsConfig(every=1))
        assert result.state.status is Status.BLOWUP_SUSPECTED
        assert result.steps == 0
        assert result.records == []

    def test_failed_final_sample_is_blowup(self, monkeypatch):
        # The final state is sampled after the loop; a failed read there is
        # reported like one inside it.
        def failing(state, *args, _original=stepper.sample, **kwargs):
            if state.step > 0:
                raise SolverDiverged("cosine-transform solve produced non-finite values")
            return _original(state, *args, **kwargs)

        state, params, cfg = drift_case("explicit-upwind")
        monkeypatch.setattr(stepper, "sample", failing)
        t_end = 2.5 * stable_dt(state, params, cfg)
        result = run(state, params, cfg, t_end, diagnostics=DiagnosticsConfig(every=100))
        assert result.state.status is Status.BLOWUP_SUSPECTED
        assert result.steps == 3
        assert [rec.t for rec in result.records] == [0.0]


def positivity_case(chi, mass):
    """A bump at (0.3, 0.6) on a 64^2 unit square that the explicit scheme
    must carry to t = 0.01 with a nonnegative density."""
    dom = DomainSpec((1.0, 1.0), (64, 64))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=chi, xi=0.1, rho=0.5)
    bump = InitialData(kind="gaussian-bump", amplitude=1.0, center=(0.3, 0.6), width=0.08, mass=mass)
    return initial_state(build_initial_data(bump, dom)[0], params), params


# stable_dt bounds the diffusive and the advective CFL terms separately, so at
# cfl_safety = 1 a cell with several outflow faces can go negative: run then
# ends BlowupSuspected with max u far below its threshold (ROADMAP item 2).
CFL_ONE_DIPS = pytest.mark.xfail(reason="cfl_safety = 1 does not keep the explicit update monotone")


class TestCflPositivity:
    @pytest.mark.parametrize(
        "safety", [pytest.param(1.0, marks=CFL_ONE_DIPS), 0.7, 0.4], ids=["safety-1.0", "safety-0.7", "safety-0.4"]
    )
    @pytest.mark.parametrize("chi, mass", [(20.0, 5.0), (50.0, 3.0)], ids=["chi-20", "chi-50"])
    def test_bump_completes(self, chi, mass, safety):
        state, params = positivity_case(chi, mass)
        result = run(state, params, StepperConfig(cfl_safety=safety), 0.01)
        assert result.state.status is Status.COMPLETED
        assert result.min_density_ratio >= -1e-13


class TestTransformBudget:
    """Cosine transforms per step of run: one forward transform of phi's one
    source, or of both signals' sources as one stack, none when the IMEX
    step's u coefficients serve at rho = 1, and one inverse for phi; reading
    v and w takes one forward and one inverse of their stack."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        for name in ("_forward", "_inverse"):
            original = getattr(elliptic, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(elliptic, name, counted)
        return calls

    @staticmethod
    def check_run(count, params, scheme, transforms, every):
        # With a sample every step, the final state is sampled too.
        cfg = StepperConfig(scheme=scheme)
        diagnostics = None if every is None else DiagnosticsConfig(every=every)
        for n in BUDGET_GRIDS:
            state = initial_state(bump_field(DomainSpec((1.0, 1.0), (n, n))), params)
            t_end = 4.5 * stable_dt(state, params, cfg)
            count.clear()
            result = run(state, params, cfg, t_end, diagnostics=diagnostics)
            assert result.steps == 5
            samples = len(result.records)
            assert samples == (0 if every is None else 6)
            assert len(count) == transforms * result.steps + 2 * samples

    @pytest.mark.parametrize(
        "scheme, rho, transforms",
        [
            ("explicit-upwind", 0.5, 2),
            ("explicit-upwind", 1.0, 2),
            ("imex-diffusion", 0.5, 4),
            ("imex-diffusion", 1.0, 3),
        ],
    )
    @pytest.mark.parametrize("every", [None, 1], ids=["no-diagnostics", "sample-every-step"])
    def test_run(self, count, scheme, rho, transforms, every):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=rho)
        self.check_run(count, params, scheme, transforms, every)

    @pytest.mark.parametrize("every", [None, 1], ids=["no-diagnostics", "sample-every-step"])
    def test_run_with_two_rates(self, count, every):
        # beta != delta: both sources transformed as one stack.
        params = ModelParams(1.0, 1.0, 1.0, 0.7, chi=1.0, xi=0.5, rho=0.5)
        self.check_run(count, params, "explicit-upwind", 2, every)

    @pytest.mark.parametrize("rho, transforms", [(0.5, 2), (1.0, 2)])
    def test_solve_signals(self, count, rho, transforms):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=rho)
        for n in BUDGET_GRIDS:
            count.clear()
            solve_signals(bump_field(DomainSpec((1.0, 1.0), (n, n))), params)
            assert len(count) == transforms


def work_memory_case(n, scheme, delta):
    dom = DomainSpec((1.0, 1.0), (n, n))
    params = ModelParams(1.0, 1.0, 1.0, delta, chi=4.0, xi=0.5, rho=0.5)
    return initial_state(bump_field(dom, width=0.08), params), params, StepperConfig(scheme=scheme)


class TestStepWorkMemory:
    """The per-thread store (elliptic._workspace) owns every reusable buffer
    of the step, so a warm run allocates only the states it makes, and no
    store array is live across on_state."""

    @pytest.mark.parametrize("n", [48, 128, 256])
    @pytest.mark.parametrize(
        "scheme, delta, fields",
        [
            # Two states' u and phi, donor masks, and at 48^2 the matrix
            # product's temporary.
            ("explicit-upwind", 1.0, 6),
            # The same, plus the (2, N, N) coefficient stack.
            ("explicit-upwind", 0.7, 8),
            ("imex-diffusion", 1.0, 8),
            ("imex-diffusion", 0.7, 8),
        ],
    )
    def test_warm_run_allocates_its_states(self, n, scheme, delta, fields):
        state, params, cfg = work_memory_case(n, scheme, delta)
        t_end = 2.5 * stable_dt(state, params, cfg)
        run(state, params, cfg, t_end)
        tracemalloc.start()
        try:
            result = run(state, params, cfg, t_end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.steps == 3
        assert peak <= fields * state.u.values.nbytes

    @pytest.mark.parametrize("n", [48, 96], ids=["matmul", "rfft"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_on_state_may_use_the_grid(self, n, scheme):
        # Between every two steps the callback steps another state of the
        # grid under both schemes, runs it, samples it and reads its signals,
        # then zeroes every store array, which no run may be holding.
        state, params, cfg = work_memory_case(n, scheme, 0.7)
        other = initial_state(bump_field(state.u.domain, width=0.2), params)
        diagnostics = DiagnosticsConfig(ps=(2.0, 1.5), every=2)
        t_end = 5.5 * stable_dt(state, params, cfg)

        def busy(_):
            for other_scheme in SCHEMES:
                step(other, params, StepperConfig(scheme=other_scheme))
            run(other, params, cfg, other.t + 1.5 * stable_dt(other, params, cfg))
            sample(other, params, diagnostics.ps)
            solve_signals(other.u, params)
            for arrays in elliptic._WORKSPACES.arrays.values():
                for array in arrays if isinstance(arrays, tuple) else (arrays,):
                    array.fill(0.0)

        want = run(state, params, cfg, t_end, diagnostics=diagnostics)
        got = run(state, params, cfg, t_end, diagnostics=diagnostics, on_state=busy)
        assert got.steps == want.steps == 6
        assert_same_state(got.state, want.state)
        assert repr(got.records) == repr(want.records)


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
                records.append(sample(state, params, diag.ps))
                last_sampled = state.step
            state = step(state, params, cfg, stable_dt(state, params, cfg))
        uv = state.u.values
        if (
            state.step != last_sampled
            and np.isfinite(uv).all()
            and float(uv.min()) >= -1e-13 * max(float(uv.max()), 0.0)
        ):
            records.append(sample(state, params, diag.ps))
        records = backfill_rate_estimates(records, diag.ps[0])
        mass_final = integrate(state.u) if np.isfinite(uv).all() else math.nan
        assert result.state.status is Status.COMPLETED
        assert result.steps == state.step
        assert result.state.t == state.t
        assert_same_state(result.state, state)
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

    def test_mass_drift_of_zero_mass_is_absolute(self):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=0.5)
        result = run(initial_state(Field.full(dom, 0.0), params), params, StepperConfig(), 0.01)
        assert result.state.status is Status.COMPLETED
        assert result.mass_initial == result.mass_final == 0.0
        assert result.mass_drift == 0.0
        assert replace(result, mass_final=1e-12).mass_drift == 1e-12

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

    def test_nan_t_end_rejected(self):
        # No t reaches NaN: the run would end only at a steady state.
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = no_drift_params()
        with pytest.raises(ValueError, match="t_end"):
            run(initial_state(bump_field(dom), params), params, StepperConfig(), math.nan)

    def test_nan_threshold_rejected(self):
        # No u_max exceeds NaN: the blow-up check would be off.
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        with pytest.raises(ValueError, match="blowup_threshold"):
            run(state, params, StepperConfig(), 1.0, blowup_threshold=math.nan)

    def test_nan_steady_tol_rejected(self):
        # No change falls below NaN: a uniform state would never be steady.
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = no_drift_params()
        state = initial_state(Field.full(dom, 1.0), params)
        with pytest.raises(ValueError, match="steady_tol"):
            run(state, params, StepperConfig(), 0.05, steady_tol=math.nan)

    def test_infinite_t_end_runs_to_steady_state(self):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = no_drift_params()
        state = initial_state(Field.full(dom, 2.0), params)
        result = run(state, params, StepperConfig(), math.inf)
        assert result.state.status is Status.STEADY_DETECTED

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
        # A sample every 5 steps and one for the final state, at step 10.
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        cfg = StepperConfig()
        dt = stable_dt(state, params, cfg)
        times = []
        result = run(
            state,
            params,
            cfg,
            9.5 * dt,
            diagnostics=DiagnosticsConfig(every=5),
            on_state=lambda s: times.append(s.t),
        )
        assert result.steps == 10
        assert [rec.t for rec in result.records] == [times[0], times[5], times[10]]

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
