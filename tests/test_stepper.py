"""Upwind transport, CFL control, and the outer run loop."""

import copy
import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import idctn

import attrep.elliptic as elliptic
import attrep.stepper as stepper
from _oracles import hand_state
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
    _drift,
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
    return _fluxes(u, _face_speeds(phi, h), h, diffusion)


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
            assert_same_bits(_flux_divergence(*fluxes, dom), zeros_flux_divergence(*fluxes, dom))


class TestDriftPotential:
    def test_equal_weights_cancel(self, unit_square_16, rng):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        sig = Field(rng.uniform(0.0, 1.0, size=unit_square_16.cells), unit_square_16)
        state = hand_state(sig, sig, sig)
        assert (_drift(state.signal_coeffs, params) == 0.0).all()

    def test_constant_signals(self, unit_square_16):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=2.0, xi=1.0, rho=0.5)
        one = Field.full(unit_square_16, 1.0)
        state = hand_state(one, one, one)
        # phi comes back from cosine space: 1 up to the transforms' rounding.
        np.testing.assert_allclose(_drift(state.signal_coeffs, params), 1.0, rtol=1e-15, atol=0.0)


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
        state = hand_state(u, v, Field.full(dom, 0.0))
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
        v_hat, w_hat = state.signal_coeffs
        phi = idctn(params.chi * v_hat - params.xi * w_hat, type=2, norm="ortho")
        real_space = params.chi * state.v.values - params.xi * state.w.values
        np.testing.assert_allclose(phi, real_space, rtol=0.0, atol=1e-12 * np.abs(real_space).max())
        explicit = scheme == "explicit-upwind"
        fluxes = where_face_fluxes(state.u.values, phi, dom.h, diffusion=explicit)
        want = state.u.values + dt * zeros_flux_divergence(*fluxes, dom)
        if not explicit:
            want, _ = _implicit_solve(want, dt, dom)
        assert_same_bits(_drift(state.signal_coeffs, params), phi)
        assert_same_bits(step(state, params, cfg, dt).u.values, want)

    def test_imex_signals_from_implicit_coefficients(self):
        # v is solved from the new density as solve_signals does; w is taken
        # from the implicit solve's cosine coefficients, equal up to rounding.
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.3, 0.7, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme="imex-diffusion")
        new = step(initial_state(bump_field(dom, width=0.08), params), params, cfg)
        v, w = solve_signals(new.u, params)
        assert_same_bits(new.v.values, v.values)
        np.testing.assert_allclose(new.w.values, w.values, rtol=1e-13, atol=0.0)


def spike_state(dom, amplitude):
    """All density in the centre cell, at the bottom of a steep cone of v, so
    that it drifts out through all four faces at the largest face speed."""
    u = np.zeros(dom.cells)
    u[4, 4] = amplitude
    i = np.abs(np.arange(dom.cells[0]) - 4)
    cone = 100.0 * (i[:, None] + i[None, :]).astype(float)
    return hand_state(Field(u, dom), Field(cone, dom), Field.full(dom, 0.0))


def nan_signal_state(dom, bad=np.nan):
    v = np.ones(dom.cells)
    v[3, 3] = bad
    return hand_state(bump_field(dom), Field(v, dom), Field.full(dom, 0.0))


def uniform_state(dom, value):
    zero = Field.full(dom, 0.0)
    return hand_state(Field.full(dom, value), zero, zero)


PARITY_PARAMS = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.0, rho=0.5)

# Hand-built states that fail a step at its own stable dt (cfl_safety = 1):
# (state maker, params, exception, message).
PARITY_CASES = {
    "nan-update": (nan_signal_state, PARITY_PARAMS, NonFiniteState, "density lost finiteness"),
    "inf-update": (lambda dom: spike_state(dom, 1e308), PARITY_PARAMS, NonFiniteState, "density lost finiteness"),
    "negative-dip": (lambda dom: spike_state(dom, 1.0), PARITY_PARAMS, NegativeDensity, "below tolerance"),
    "overflowing-source": (
        lambda dom: uniform_state(dom, 1e299),
        replace(PARITY_PARAMS, chi=0.0, gamma=1e10),
        SolverDiverged,
        "cosine-transform solve produced non-finite values",
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
            ("explicit-upwind", "cosine-transform solve produced non-finite values"),
            ("imex-diffusion", "implicit diffusion step produced non-finite values"),
        ],
    )
    def test_overflowing_transform_is_solver_diverged(self, scheme, message):
        # The update is finite; its cosine transform overflows, in the signal
        # solve (explicit) or already in the implicit diffusion solve (IMEX).
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = replace(PARITY_PARAMS, chi=0.0)
        with pytest.raises(SolverDiverged, match=message):
            step(uniform_state(dom, 1e308), params, StepperConfig(scheme=scheme), 1e-3)


def drift_case(scheme):
    dom = DomainSpec((1.0, 1.0), (24, 24))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
    return initial_state(bump_field(dom, width=0.08), params), params, StepperConfig(scheme=scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestDriftMemo:
    """No state carries face speeds: each step uses those of its own state
    under its own params, built for it or handed over by its caller."""

    def test_step_uses_its_own_params(self, scheme):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params_a = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        params_b = replace(params_a, chi=1.0, xi=2.0)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params_a)
        fresh = initial_state(bump_field(dom, width=0.08), params_a)
        dt = stable_dt(state, params_a, cfg)
        got = step(state, params_b, cfg, dt)
        want = step(fresh, params_b, cfg, dt)
        for name in ("u", "v", "w"):
            assert_same_bits(getattr(got, name).values, getattr(want, name).values)

    def test_stepping_twice_gives_same_bits(self, scheme):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params)
        dt = stable_dt(state, params, cfg)
        first = step(state, params, cfg, dt)
        second = step(state, params, cfg, dt)
        for name in ("u", "v", "w"):
            assert_same_bits(getattr(first, name).values, getattr(second, name).values)

    def test_handed_speeds_are_consumed(self, scheme):
        # run builds the speeds once and hands them to stable_dt, then to
        # step, which writes its fluxes into them and empties the list.
        state, params, cfg = drift_case(scheme)
        speeds = _face_speeds(_drift(state.signal_coeffs, params), state.u.h)
        dt = stable_dt(state, params, cfg, speeds=speeds)
        assert dt == stable_dt(state, params, cfg)
        got = step(state, params, cfg, dt, speeds=speeds)
        assert speeds == []
        want = step(state, params, cfg, dt)
        for name in ("u", "v", "w"):
            assert_same_bits(getattr(got, name).values, getattr(want, name).values)

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
        for name in ("u", "v", "w"):
            assert_same_bits(getattr(got, name).values, getattr(want, name).values)


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
        for name in ("u", "v", "w"):
            assert_same_bits(getattr(got, name).values, getattr(want, name).values)
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


def negative_signal_state(dom):
    w = np.ones(dom.cells)
    w[2, 5] = -1.0
    return hand_state(bump_field(dom), Field.full(dom, 1.0), Field(w, dom))


# Hand-built states whose signals fail their check where they are read.
UNREADABLE = {
    "nan-signal": (nan_signal_state, "cosine-transform solve produced non-finite values"),
    "negative-signal": (negative_signal_state, "signal w violates the maximum principle"),
}


class TestSignalsOnRead:
    """A state carries the signals' cosine coefficients; v and w are built,
    and checked, each time they are read."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_initial_state_reads_back_solve_signals(self, scheme, rho):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.3, 0.7, chi=4.0, xi=0.5, rho=rho)
        state = initial_state(bump_field(dom, width=0.08), params)
        v, w = solve_signals(state.u, params)
        assert_same_bits(state.v.values, v.values)
        assert_same_bits(state.w.values, w.values)
        assert (state.u_min, state.u_max) == (float(state.u.values.min()), float(state.u.values.max()))
        assert state.signal_coeffs.shape == (2, *dom.cells)
        assert not state.signal_coeffs.flags.writeable

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_read_raises(self, case):
        make, message = UNREADABLE[case]
        state = make(DomainSpec((1.0, 1.0), (8, 8)))
        with pytest.raises(SolverDiverged, match=message):
            sample(state, (2.0,))
        name = "v" if case == "nan-signal" else "w"
        with pytest.raises(SolverDiverged, match=message):
            getattr(state, name)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_reports_failed_read_as_blowup(self, scheme, case):
        make, _ = UNREADABLE[case]
        state = make(DomainSpec((1.0, 1.0), (8, 8)))
        cfg = StepperConfig(scheme=scheme)
        result = run(state, PARITY_PARAMS, cfg, 1.0, diagnostics=DiagnosticsConfig(every=1))
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
    """Cosine transforms per step of run: one forward transform per distinct
    source and one inverse for phi; v and w only when read."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        for name in ("dctn", "idctn"):
            original = getattr(elliptic, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(elliptic, name, counted)
        return calls

    @pytest.mark.parametrize(
        "scheme, rho, transforms",
        [
            ("explicit-upwind", 0.5, 3),
            ("explicit-upwind", 1.0, 2),
            ("imex-diffusion", 0.5, 4),
            ("imex-diffusion", 1.0, 3),
        ],
    )
    @pytest.mark.parametrize("every", [None, 1], ids=["no-diagnostics", "sample-every-step"])
    def test_run(self, count, scheme, rho, transforms, every):
        # A sample reads v and w with one inverse transform of the stack; with
        # one every step, the final state is sampled too.
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=rho)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom), params)
        t_end = 4.5 * stable_dt(state, params, cfg)
        diagnostics = None if every is None else DiagnosticsConfig(every=every)
        count.clear()
        result = run(state, params, cfg, t_end, diagnostics=diagnostics)
        assert result.steps == 5
        samples = len(result.records)
        assert samples == (0 if every is None else 6)
        assert len(count) == transforms * result.steps + samples

    @pytest.mark.parametrize("rho, transforms", [(0.5, 3), (1.0, 2)])
    def test_solve_signals(self, count, rho, transforms):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        solve_signals(bump_field(dom), ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=rho))
        assert len(count) == transforms


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
