"""Upwind transport, CFL control, and the outer run loop."""

import copy
import dataclasses
import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attrep.elliptic as elliptic
import attrep.stepper as stepper
from _oracles import hand_state, real_space_drift, speed_form_update
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
    _face_drops,
    _flux_divergence,
    _fluxes,
    _transport,
    initial_state,
    run,
    stable_dt,
    step,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


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


def kernel_fluxes(u, phi, diffusion=True):
    """The h-scaled flux kernel on the face drops of the raw potential phi, on
    the interior faces of each axis; its boundary faces hold 0."""
    fx, fy = _fluxes(u, _face_drops(phi), diffusion, np.empty(u.shape))
    assert not fy[:, -1].any()
    return fx, fy[:, :-1]


def where_face_fluxes(uv, pv, diffusion=True):
    """The np.where formulation of the h-scaled flux kernel, kept as its
    bitwise oracle: (u_R - u_L) - u_up D with diffusion, else u_up D."""
    dx = pv[1:, :] - pv[:-1, :]
    fx = np.where(dx > 0.0, uv[:-1, :], uv[1:, :]) * dx
    dy = pv[:, 1:] - pv[:, :-1]
    fy = np.where(dy > 0.0, uv[:, :-1], uv[:, 1:]) * dy
    if diffusion:
        fx = (uv[1:, :] - uv[:-1, :]) - fx
        fy = (uv[:, 1:] - uv[:, :-1]) - fy
    return fx, fy


def padded_y_faces(fy, dom):
    """The interior y-face fluxes written onto zeros of the grid's shape, as
    the kernel keeps them: the boundary faces last, at 0."""
    py = np.zeros(dom.cells)
    py[:, :-1] = fy
    return py


def zeros_flux_divergence(fx, fy, dom):
    """The np.zeros formulation of _flux_divergence, kept as its bitwise
    oracle: each cell's faces to the next cells, with the boundary y faces'
    zeros, less its faces from the previous ones."""
    div = padded_y_faces(fy, dom)
    div[:-1, :] = fx + div[:-1, :]
    div[1:, :] -= fx
    div[:, 1:] -= fy
    return div


def transport_scale(dt, h, diffusion):
    """The step's one scale of the h-scaled divergence: (dt/h)/h, negated for
    the drift-only flux u_up D = -hF."""
    scale = (dt / h) / h
    return scale if diffusion else -scale


def transport_tolerance(u, phi, dt, h, diffusion):
    """How far the h-scaled transport and the speed form may lie apart, per
    cell: 24 eps (|u| + s M), with s = (dt/h)/h and M the sum over the cell's
    faces of |u_R - u_L| (with diffusion) + |u_up D|. Both forms take the
    same rounded drops D and differences u_R - u_L. From there the h-scaled
    form rounds each face's product and difference (2 eps of the face's
    |u_R - u_L| + |u_up D|), the cell's sum of four faces (3 eps of M), the
    scale (dt/h)/h and its product with the sum (3 eps), and the final
    addition (eps of the result): within 9 eps (|u| + s M) of the exact
    update. The speed form rounds each face's two divisions by h, product
    and sum (4 eps), the cell's sum (3 eps), its division by h and product
    with dt (2 eps) and the addition: within 10 eps. So they lie within
    19 eps, and 24 covers the second-order terms."""
    mag = np.zeros(u.shape)
    dx, dy = (np.abs(f) for f in where_face_fluxes(u, phi, False))
    if diffusion:
        dx = dx + np.abs(np.diff(u, axis=0))
        dy = dy + np.abs(np.diff(u, axis=1))
    mag[:-1, :] += dx
    mag[1:, :] += dx
    mag[:, :-1] += dy
    mag[:, 1:] += dy
    return 24.0 * np.finfo(float).eps * (np.abs(u) + (dt / h) / h * mag)


def assert_same_bits(actual, expected):
    """Equal to the last bit, signed zeros and NaN payloads included."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def assert_same_state(actual, expected):
    """The density and its extrema of two states, to the last bit."""
    assert_same_bits(actual.u.values, expected.u.values)
    assert [x.hex() for x in actual.u.extrema] == [x.hex() for x in expected.u.extrema]


def drift_of(state, params):
    """The drift phi = chi v - xi w that stable_dt and step form from the
    state's density under params."""
    return elliptic._drift_potential(state.u, params)


def assert_drift_of(state, params, rtol=1e-13):
    """The drift formed from the state's density is chi v - xi w of it, to
    rtol of max|phi|."""
    want = real_space_drift(state.u, params)
    np.testing.assert_allclose(drift_of(state, params), want, rtol=0.0, atol=rtol * np.abs(want).max())


def hand_drift(monkeypatch, phi):
    """Make stepper take the face drops of the potential phi (NaN and Inf
    included) as the drift of every state, wherever it forms one."""
    monkeypatch.setattr(stepper, "_drops", lambda state, params: _face_drops(phi))


def count_calls(monkeypatch, *names):
    """Wrap the stepper functions `names` in counters, read from the returned
    dict; run finds them as module globals, as a tracer does."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(stepper, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stepper, name, counted)
    return calls


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

    @pytest.mark.parametrize("value", [True, "0.4"])
    @pytest.mark.parametrize("name", ["dt_max", "cfl_safety", "dt_min"])
    def test_step_sizes_are_real_numbers(self, name, value):
        # a bool would pass for 1 and a string fail in a comparison
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            StepperConfig(**{name: value})

    def test_infinite_dt_max_rejected(self):
        # stable_dt is inf where the drift vanishes, so dt_max is the only cap
        with pytest.raises(ValueError, match="dt_max < inf"):
            StepperConfig(dt_max=math.inf)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_vanishing_drift_imex_run_ends_with_a_status(self, unit_square_16, uniform):
        # chi = xi = 0, or a uniform density: no drift bound, so dt = dt_max
        params = replace(no_drift_params(), chi=1.0) if uniform else no_drift_params()
        values = np.ones(unit_square_16.cells) if uniform else bump_field(unit_square_16).values
        state = initial_state(Field(values, unit_square_16), params)
        cfg = StepperConfig(dt_max=1e-2, scheme="imex-diffusion")
        assert stable_dt(state, params, replace(cfg, dt_max=1.0)) == 1.0
        result = run(state, params, cfg, 1.0)
        assert result.state.status in (Status.COMPLETED, Status.STEADY_DETECTED)
        assert result.state.t > 0.0


class TestFaceFluxes:
    def test_two_cell_worked_example(self):
        # u = (1, 0), phi = (0, 1): the drop +1 selects the left donor,
        # advective flux -1; diffusion adds 0 - 1. In h-units the total is -2
        # (the flux -2/h).
        u = np.array([[1.0], [0.0]])
        phi = np.array([[0.0], [1.0]])
        fx, _ = kernel_fluxes(u, phi)
        assert fx.shape == (1, 1)
        assert fx[0, 0] == -2.0

    def test_uniform_state_has_zero_fluxes(self, unit_square_16):
        u = np.full(unit_square_16.cells, 3.0)
        phi = np.full(unit_square_16.cells, 1.0)
        fx, fy = kernel_fluxes(u, phi)
        assert (fx == 0.0).all()
        assert (fy == 0.0).all()

    def test_constant_potential_leaves_pure_diffusion(self, unit_square_16, rng):
        u = rng.uniform(0.5, 1.5, size=unit_square_16.cells)
        phi = np.full(unit_square_16.cells, 7.0)
        fx, _ = kernel_fluxes(u, phi)
        np.testing.assert_allclose(fx, np.diff(u, axis=0), rtol=0, atol=0)

    def test_donor_switches_with_drift_sign(self):
        u = np.array([[1.0], [0.0]])
        phi_down = np.array([[1.0], [0.0]])
        fx, _ = kernel_fluxes(u, phi_down, diffusion=False)
        # the drop -1 points left, donor is the right cell (u = 0)
        assert fx[0, 0] == 0.0

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_bits_match_where_formulation(self, rng, lengths, cells, diffusion):
        dom = DomainSpec(lengths, cells)
        for _ in range(5):
            u, phi = oracle_inputs(dom, rng)
            got = kernel_fluxes(u, phi, diffusion=diffusion)
            want = where_face_fluxes(u, phi, diffusion=diffusion)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_divergence_bits_match_zeros_formulation(self, rng, lengths, cells, diffusion):
        dom = DomainSpec(lengths, cells)
        for _ in range(5):
            u, phi = oracle_inputs(dom, rng)
            fx, fy = where_face_fluxes(u, phi, diffusion=diffusion)
            got = _flux_divergence(fx, padded_y_faces(fy, dom), np.empty(dom.cells))
            assert_same_bits(got, zeros_flux_divergence(fx, fy, dom))

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_transport_matches_speed_form(self, rng, lengths, cells, diffusion):
        # The h-scaled transport is the speed form up to rounding, at the
        # CFL dt and far beyond it.
        dom = DomainSpec(lengths, cells)
        for dt in (1e-4, 1e-2, 10.0):
            u, phi = oracle_inputs(dom, rng)
            got = _transport(u, _face_drops(phi), dt, dom.h, diffusion, np.empty(dom.cells))
            want = speed_form_update(u, phi, dt, dom.h, diffusion)
            assert (np.abs(got - want) <= transport_tolerance(u, phi, dt, dom.h, diffusion)).all()


class TestDriftPotential:
    def test_equal_weights_cancel(self, unit_square_16, rng):
        # chi alpha = xi gamma and beta = delta: at rho = 1 the per-mode factor
        # is zero, below it the single source is chi alpha (u^rho - u).
        u = Field(rng.uniform(0.0, 1.0, size=unit_square_16.cells), unit_square_16)
        for rho in (1.0, 0.5):
            params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=rho)
            state = initial_state(u, params)
            assert_drift_of(state, params)
        linear = replace(params, rho=1.0)
        assert (drift_of(initial_state(u, linear), linear) == 0.0).all()

    def test_constant_signals(self, unit_square_16):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=2.0, xi=1.0, rho=0.5)
        state = initial_state(Field.full(unit_square_16, 1.0), params)
        # phi comes back from cosine space: 1 up to the transforms' rounding.
        np.testing.assert_allclose(drift_of(state, params), 1.0, rtol=1e-15, atol=0.0)


class TestStableDt:
    def test_diffusive_bound_on_uniform_state(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        state = initial_state(Field.full(dom, 1.0), no_drift_params())
        cfg = StepperConfig(dt_max=1.0, cfl_safety=0.4)
        assert stable_dt(state, no_drift_params(), cfg) == pytest.approx(
            2.44140625e-5, rel=1e-14
        )

    def test_advective_bound_under_imex(self, monkeypatch):
        # with the diffusive restriction lifted, a face speed of 10 leaves
        # dt = 0.4 * h / 10
        dom = DomainSpec((1.0, 1.0), (64, 64))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.0, rho=1.0)
        x, _ = dom.cell_centers()
        u = Field.full(dom, 1.0)
        v = Field(np.repeat(10.0 * x[:, None], 64, axis=1), dom)
        cfg = StepperConfig(dt_max=1.0, cfl_safety=0.4, scheme="imex-diffusion")
        hand_drift(monkeypatch, v.values)
        dt = stable_dt(hand_state(u), params, cfg)
        assert dt == pytest.approx(0.4 / 64.0 / 10.0, rel=1e-13)

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
    def test_non_finite_drift_raises(self, scheme, bad, monkeypatch):
        # A NaN face speed fails every comparison, so the advective bound
        # would silently drop out and leave dt_max.
        state, phi = nan_signal_state(DomainSpec((1.0, 1.0), (8, 8)), bad)
        cfg = StepperConfig(scheme=scheme)
        hand_drift(monkeypatch, phi)
        with pytest.raises(NonFiniteState, match="drift lost finiteness at t = 0.0"):
            stable_dt(state, PARITY_PARAMS, cfg)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_overflowing_face_speed_raises(self, scheme, monkeypatch):
        # Every drop is finite, but the face speed max|D|/h is not.
        dom = DomainSpec((1e-100, 1e-100), (4, 4))
        phi = np.zeros(dom.cells)
        phi[2, 2] = 1e210
        state = hand_state(Field.full(dom, 1.0))
        assert all(np.isfinite(d).all() for d in _face_drops(phi))
        cfg = StepperConfig(scheme=scheme)
        hand_drift(monkeypatch, phi)
        with pytest.raises(NonFiniteState, match="drift lost finiteness at t = 0.0"):
            stable_dt(state, PARITY_PARAMS, cfg)
        assert run(state, PARITY_PARAMS, cfg, 1.0).state.status is Status.BLOWUP_SUSPECTED


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

    def test_zero_fluxes_past_the_float_range(self):
        # dt/h^2 = 1e310 overflows, but a state with no flux stays as it is.
        dom = DomainSpec((8e-150, 8e-150), (8, 8))
        state = initial_state(Field.full(dom, 2.0), no_drift_params())
        new = step(state, no_drift_params(), StepperConfig(), dt=1e10)
        np.testing.assert_array_equal(new.u.values, 2.0)

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
        assert not np.array_equal(drift_of(new, params), drift_of(state, params))
        assert_drift_of(new, params)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bits_match_fresh_array_update(self, scheme):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params)
        dt = stable_dt(state, params, cfg)
        phi = drift_of(state, params)
        assert_drift_of(state, params)
        explicit = scheme == "explicit-upwind"
        fluxes = where_face_fluxes(state.u.values, phi, diffusion=explicit)
        want = state.u.values + transport_scale(dt, dom.h, explicit) * zeros_flux_divergence(*fluxes, dom)
        if not explicit:
            want = _implicit_solve(want, dt, dom)
        assert_same_bits(step(state, params, cfg, dt).u.values, want)

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_speed_form(self, rng, lengths, cells, scheme, monkeypatch):
        # The explicit step is the transport update, within its per-cell
        # tolerance of the speed form. The IMEX step solves the heat step on
        # it: that solve is linear with a nonnegative inverse of unit row
        # sums, so it moves no value by more than the largest difference of
        # its inputs, and each computed solve rounds within (Nx + Ny) eps of
        # the largest input (7 eps at 16^2 against a dense direct solve).
        dom = DomainSpec(lengths, cells)
        explicit = scheme == "explicit-upwind"
        cfg = StepperConfig(scheme=scheme, cfl_safety=0.1)
        for _ in range(5):
            u, phi = oracle_inputs(dom, rng)
            state = hand_state(Field(u, dom))
            hand_drift(monkeypatch, phi)
            dt = stable_dt(state, PARITY_PARAMS, cfg)
            new = step(state, PARITY_PARAMS, cfg)
            assert new.dt == dt
            got = new.u.values
            want = speed_form_update(u, phi, dt, dom.h, explicit)
            tol = transport_tolerance(u, phi, dt, dom.h, explicit)
            if explicit:
                assert (np.abs(got - want) <= tol).all()
            else:
                eps = np.finfo(float).eps
                solve_tol = 2 * sum(cells) * eps * np.abs(want).max()
                want = _implicit_solve(want, dt, dom)
                assert np.abs(got - want).max() <= tol.max() + solve_tol

    def test_imex_signals_from_implicit_coefficients(self):
        # The drift of the density that the implicit solve returns: phi
        # equals the real-space chi v - xi w of the new density up to
        # rounding, at sublinear and linear production.
        dom = DomainSpec((1.0, 1.0), (24, 24))
        cfg = StepperConfig(scheme="imex-diffusion")
        for rho in (0.5, 1.0):
            params = ModelParams(1.0, 1.0, 1.3, 0.7, chi=4.0, xi=0.5, rho=rho)
            new = step(initial_state(bump_field(dom, width=0.08), params), params, cfg)
            assert_drift_of(new, params)


class TestDropForm:
    """The transport in h-scaled units over random densities with zero cells,
    random potentials, strips and cells from 1e-100 to 1e100 wide."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cells=st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)),
        log_h=st.sampled_from([-100.0, 0.0, 100.0]) | st.floats(min_value=-100.0, max_value=100.0),
        log_phi=st.floats(min_value=-3.0, max_value=3.0),
        log_stretch=st.floats(min_value=0.0, max_value=12.0),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=150, deadline=None)
    def test_mass_sign_and_speed_form(self, seed, cells, log_h, log_phi, log_stretch, scheme):
        width = 10.0**log_h
        dom = DomainSpec((cells[0] * width, cells[1] * width), cells)
        h = dom.h
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 2.0, size=cells)
        u[rng.random(cells) < 0.3] = 0.0
        phi = rng.standard_normal(cells) * 10.0**log_phi
        explicit = scheme == "explicit-upwind"
        state = hand_state(Field(u, dom))
        cfg = StepperConfig(scheme=scheme, cfl_safety=0.1, dt_min=1e-300, dt_max=1.0)

        # The CFL dt is the speed form's, max|D/h|, to the bit.
        speeds = [np.abs(np.diff(phi, axis=axis) / h) for axis in (0, 1) if cells[axis] > 1]
        vmax = max((float(v.max()) for v in speeds), default=0.0)
        bounds = ([h * h / 4.0] if explicit else []) + ([h / vmax] if vmax > 0.0 else [])
        with pytest.MonkeyPatch.context() as patch:
            hand_drift(patch, phi)
            dt = stable_dt(state, PARITY_PARAMS, cfg)
            assert dt == max(min(0.1 * min(bounds) if bounds else math.inf, 1.0), 1e-300)

            # Mass is conserved by the step, and its transport is the speed form's.
            new = step(state, PARITY_PARAMS, cfg)
        assert new.dt == dt
        mass = integrate(state.u)
        assert abs(integrate(new.u) - mass) <= 1e-13 * mass
        got = _transport(u, _face_drops(phi), dt, h, explicit, np.empty(cells))
        want = speed_form_update(u, phi, dt, h, explicit)
        assert (np.abs(got - want) <= transport_tolerance(u, phi, dt, h, explicit)).all()

        # A cell at exactly 0 takes no outflow, at any dt.
        big = _transport(u, _face_drops(phi), dt * 10.0**log_stretch, h, explicit, np.empty(cells))
        assert (big[u == 0.0] >= 0.0).all()


# Hand-built states and the drift potentials they are stepped with:
# (state, phi).


def spike_state(dom, amplitude):
    """All density in the centre cell, at the bottom of a steep cone of v, so
    that it drifts out through all four faces at the largest face speed."""
    u = np.zeros(dom.cells)
    u[4, 4] = amplitude
    i = np.abs(np.arange(dom.cells[0]) - 4)
    cone = 100.0 * (i[:, None] + i[None, :]).astype(float)
    return hand_state(Field(u, dom)), cone


def nan_signal_state(dom, bad=np.nan):
    v = np.ones(dom.cells)
    v[3, 3] = bad
    return hand_state(bump_field(dom)), v


def uniform_state(dom, value):
    return hand_state(Field.full(dom, value)), np.zeros(dom.cells)


PARITY_PARAMS = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.0, rho=0.5)
OVERFLOWING_SOURCE_PARAMS = replace(PARITY_PARAMS, chi=0.0, gamma=1e10)

# Hand-built states that fail a step at its own stable dt (cfl_safety = 1):
# (state maker, params, exception, message).
PARITY_CASES = {
    "nan-update": (nan_signal_state, PARITY_PARAMS, NonFiniteState, "density lost finiteness"),
    "inf-update": (lambda dom: spike_state(dom, 1e308), PARITY_PARAMS, NonFiniteState, "density lost finiteness"),
    "negative-dip": (lambda dom: spike_state(dom, 1.0), PARITY_PARAMS, NegativeDensity, "below tolerance"),
    "overflowing-source": (
        lambda dom: uniform_state(dom, 1e299),
        OVERFLOWING_SOURCE_PARAMS,
        SolverDiverged,
        "cosine-transform solve would overflow",
    ),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestCheckParity:
    """One minimum and one maximum of each new field carry every check of the
    step: the same states fail with the same exception and message. Each
    state is stepped with its hand-built drift (hand_drift), which the
    step's rebuild after a failure forms again."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_step_raises(self, scheme, case, monkeypatch):
        make, params, exc, message = PARITY_CASES[case]
        dom = DomainSpec((1.0, 1.0), (8, 8))
        cfg = StepperConfig(scheme=scheme, cfl_safety=1.0)
        state, phi = make(dom)
        hand_drift(monkeypatch, phi)
        # stable_dt already rejects the NaN drift, so step gets its own dt.
        dt = 1e-3 if case == "nan-update" else stable_dt(state, params, cfg)
        with pytest.raises(exc, match=message):
            step(state, params, cfg, dt)

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_reports_blowup_suspected(self, scheme, case, monkeypatch):
        make, params, _, _ = PARITY_CASES[case]
        dom = DomainSpec((1.0, 1.0), (8, 8))
        cfg = StepperConfig(scheme=scheme, cfl_safety=1.0)
        state, phi = make(dom)
        hand_drift(monkeypatch, phi)
        result = run(state, params, cfg, 1.0, blowup_threshold=math.inf)
        assert result.state.status is Status.BLOWUP_SUSPECTED
        assert result.steps == 0

    @pytest.mark.parametrize(
        "scheme, message",
        [
            ("explicit-upwind", "cosine-transform solve would overflow"),
            ("imex-diffusion", "implicit diffusion step produced non-finite values"),
        ],
    )
    def test_overflowing_transform_is_solver_diverged(self, scheme, message, monkeypatch):
        # The update is finite; its cosine transform overflows, in the signal
        # solve (explicit) or already in the implicit diffusion solve (IMEX).
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = replace(PARITY_PARAMS, chi=0.0)
        state, phi = uniform_state(dom, 1e308)
        hand_drift(monkeypatch, phi)
        with pytest.raises(SolverDiverged, match=message):
            step(state, params, StepperConfig(scheme=scheme), 1e-3)


def test_simulation_refuses_other_dimensions():
    # The grid is two dimensional: every density whose signals or drift are
    # formed under params.dim != 2 raises, as DomainSpec does for a 3D domain.
    dom = DomainSpec((1.0, 1.0), (8, 8))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=0.5)
    spatial = replace(params, dim=3)
    u0 = bump_field(dom)
    state = initial_state(u0, params)
    calls = [
        lambda: initial_state(u0, spatial),
        lambda: step(state, spatial, StepperConfig()),
        lambda: run(state, spatial, StepperConfig(), 1.0),
        lambda: sample(state, spatial, DiagnosticsConfig()),
        lambda: solve_signals(u0, spatial),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="params.dim must be 2 to solve on a 2D grid, got 3"):
            call()


def drift_case(scheme):
    dom = DomainSpec((1.0, 1.0), (24, 24))
    params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
    return initial_state(bump_field(dom, width=0.08), params), params, StepperConfig(scheme=scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestDriftMemo:
    """No state carries face drops: each step builds those of its own state
    under its own params."""

    def test_step_uses_its_own_params(self, scheme):
        # A state built under params_a steps and runs under params_b as the
        # state built under params_b does: the drift is formed from u.
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params_a = ModelParams(1.0, 1.0, 1.0, 1.0, chi=4.0, xi=0.5, rho=0.5)
        cfg = StepperConfig(scheme=scheme)
        state = initial_state(bump_field(dom, width=0.08), params_a)
        for other in ({"chi": 1.0, "xi": 2.0}, {"alpha": 2.0, "delta": 0.7}):
            params_b = replace(params_a, **other)
            fresh = initial_state(bump_field(dom, width=0.08), params_b)
            dt = stable_dt(state, params_b, cfg)
            assert dt == stable_dt(fresh, params_b, cfg)
            got = step(state, params_b, cfg, dt)
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
        assert (got.u.extrema, got.t, got.dt) == (want.u.extrema, want.t, want.dt)

    def test_replace_takes_extrema_from_u(self, scheme):
        state, params, cfg = drift_case(scheme)
        new = step(state, params, cfg)
        moved = replace(new, u=state.u)
        assert moved.u.extrema == state.u.extrema
        assert new.u.extrema == (float(new.u.values.min()), float(new.u.values.max()))

    def test_state_records_its_dt(self, scheme):
        # dt of the step that made the state: the bound when step takes none
        state, params, cfg = drift_case(scheme)
        assert state.dt == 0.0
        dt = stable_dt(state, params, cfg)
        new = step(state, params, cfg)
        assert new.dt == dt and new.t == state.t + dt
        assert step(new, params, cfg, 0.5 * dt).dt == 0.5 * dt

    def test_run_steps_through_step_alone(self, scheme, monkeypatch):
        # run takes each dt from step, through the module's step, and never
        # calls stable_dt.
        state, params, cfg = drift_case(scheme)
        t_end = 6.5 * stable_dt(state, params, cfg)
        calls = count_calls(monkeypatch, "step", "stable_dt")
        result = run(state, params, cfg, t_end)
        assert result.steps == 7
        assert calls == {"step": result.steps, "stable_dt": 0}

    def test_run_builds_face_speeds_once_per_step(self, scheme, monkeypatch):
        state, params, cfg = drift_case(scheme)
        t_end = 6.5 * stable_dt(state, params, cfg)
        calls = []

        def counted(*args, _original=stepper._face_drops):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(stepper, "_face_drops", counted)
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
    return hand_state(Field.full(dom, 2.0))


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

# (beta, delta, rho, dip): both ways _drift_potential forms phi's
# coefficients, one source at a shared rate and both signals' as a stack, at
# sublinear and linear production, the latter also with a dip to clamp.
DRIFT_CASES = {
    "shared-rate": (1.0, 1.0, 0.5, False),
    "two-rates": (1.0, 0.7, 0.5, False),
    "linear": (1.0, 0.7, 1.0, False),
    "linear-shared-rate": (1.0, 1.0, 1.0, False),
    "linear-dip": (1.0, 1.0, 1.0, True),
}


class TestSignalsOnRead:
    """A state carries its density alone; the drift is formed from it where
    the step reads it, and v and w where they are read (solve_signals,
    sample), checked each time."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_initial_state_reads_back_solve_signals(self, scheme, rho):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        params = ModelParams(1.0, 1.0, 1.3, 0.7, chi=4.0, xi=0.5, rho=rho)
        state = initial_state(bump_field(dom, width=0.08), params)
        new = step(state, params, StepperConfig(scheme=scheme))
        for s in (state, new):
            assert_drift_of(s, params)
            assert s.u.extrema == (float(s.u.values.min()), float(s.u.values.max()))

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
        assert (state.u.extrema[0] < 0.0) == dip
        assert_drift_of(state, params)
        cfg = StepperConfig(scheme=scheme)
        new = step(state, params, cfg)
        assert_drift_of(new, params)
        # The step reads the density alone, whichever scheme made it.
        assert_same_state(step(new, params, cfg), step(initial_state(new.u, params), params, cfg))

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_read_raises(self, case):
        make, params, message = UNREADABLE[case]
        state = make()
        with pytest.raises(SolverDiverged, match=message):
            sample(state, params, DiagnosticsConfig())
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


# (scheme, rho, transforms a step of run) at beta = delta.
RUN_BUDGETS = [
    ("explicit-upwind", 0.5, 2),
    ("explicit-upwind", 1.0, 2),
    ("imex-diffusion", 0.5, 4),
    ("imex-diffusion", 1.0, 4),
]
# Transforms a step of run at beta != delta, by scheme, at either rho.
TWO_RATE_BUDGETS = {"explicit-upwind": 3, "imex-diffusion": 5}
# Transforms of one read of v and w.
SIGNAL_READ = 4


class TestTransformBudget:
    """Cosine transforms per step of run, each of one field: one forward
    transform of phi's one source, or one of each signal's source, and one
    inverse for phi, plus the forward and inverse of the IMEX step's heat
    solve; reading v and w takes one forward and one inverse of each."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        for name in ("_forward", "_inverse"):
            original = getattr(elliptic, name)

            def counted(buf, _original=original):
                assert buf.ndim == 2
                calls.append(1)
                return _original(buf)

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
            assert len(count) == transforms * result.steps + SIGNAL_READ * samples

    @pytest.mark.parametrize("scheme, rho, transforms", RUN_BUDGETS)
    @pytest.mark.parametrize("every", [None, 1], ids=["no-diagnostics", "sample-every-step"])
    def test_run(self, count, scheme, rho, transforms, every):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=0.5, rho=rho)
        self.check_run(count, params, scheme, transforms, every)

    @pytest.mark.parametrize("every", [None, 1], ids=["no-diagnostics", "sample-every-step"])
    def test_run_with_two_rates(self, count, every):
        # beta != delta: each signal's source transformed on its own.
        for scheme, rho, _ in RUN_BUDGETS:
            params = ModelParams(1.0, 1.0, 1.0, 0.7, chi=1.0, xi=0.5, rho=rho)
            self.check_run(count, params, scheme, TWO_RATE_BUDGETS[scheme], every)

    def test_readme_table_matches_budgets(self):
        # the README's transforms-per-step table: one row per scheme, one
        # column per production regime at beta = delta, rho < 1 (counted at
        # 0.5) and rho = 1, and one for beta != delta
        lines = (REPO_ROOT / "README.md").read_text().splitlines()
        start = lines.index("| scheme | `rho < 1` | `rho = 1` | `beta != delta` |") + 2
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        cells = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in rows]
        table = [(scheme, rho, int(n)) for scheme, *counts, _ in cells for rho, n in zip((0.5, 1.0), counts)]
        assert table == RUN_BUDGETS
        assert {scheme: int(n) for scheme, *_, n in cells} == TWO_RATE_BUDGETS

    @pytest.mark.parametrize("rho, transforms", [(0.5, SIGNAL_READ), (1.0, SIGNAL_READ)])
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


# The store's keys (elliptic._workspace), as the README lists them.
STORE_KEYS = {"fft", "face-drops", "scratch", "implicit-denominators"}
# numpy allocates, for a ufunc call over a strided or broadcast operand, an
# iteration buffer of up to np.getbufsize() items of it: 128 KiB for the
# complex twiddle products of the rfft pair, one field at 128^2.
ITER_BUFFER = np.getbufsize() * 16


class TestStepWorkMemory:
    """The per-thread store (elliptic._workspace) owns every reusable buffer
    of the step and of a sample, so a warm run allocates only the states it
    makes, a warm sample no field, and no store array is live across
    on_state."""

    @staticmethod
    def traced_peak(call):
        # the peak of a warm call: call() once untraced, then once traced
        call()
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    @pytest.mark.parametrize("n", [48, 128, 256])
    @pytest.mark.parametrize(
        "scheme, delta, fields",
        [
            # Two states' u, the drift, donor masks, and at 48^2 the matrix
            # product's temporary, whether or not beta = delta: the drift's
            # v_hat is formed in phi_hat, its w_hat in the store. Each id
            # names the budget of the case when a state also held its drift,
            # two fields more, so that the cases keep their names.
            pytest.param("explicit-upwind", 1.0, 4, id="explicit-upwind-1.0-6"),
            pytest.param("imex-diffusion", 1.0, 4, id="imex-diffusion-1.0-6"),
            pytest.param("explicit-upwind", 0.7, 4, id="explicit-upwind-0.7-8"),
            pytest.param("imex-diffusion", 0.7, 4, id="imex-diffusion-0.7-8"),
        ],
    )
    def test_warm_run_allocates_its_states(self, n, scheme, delta, fields):
        state, params, cfg = work_memory_case(n, scheme, delta)
        t_end = 2.5 * stable_dt(state, params, cfg)
        result, peak = self.traced_peak(lambda: run(state, params, cfg, t_end))
        assert result.steps == 3
        assert peak <= fields * state.u.values.nbytes

    def test_warm_sample_allocates_no_field(self):
        # E_2, the gradient term and both signals go through the store's
        # work field, so what a warm sample allocates beyond numpy's
        # iteration buffer is under a quarter field. A (2, N, N) signal
        # stack and fresh squares read three fields.
        state, params, _ = work_memory_case(128, "explicit-upwind", 0.7)
        diagnostics = DiagnosticsConfig()
        _, peak = self.traced_peak(lambda: sample(state, params, diagnostics))
        assert peak - ITER_BUFFER < state.u.values.nbytes / 4

    @pytest.mark.parametrize("n", [48, 128], ids=["matmul", "rfft"])
    def test_solve_signals_allocates_its_outputs(self, n):
        # v and w are formed in the two arrays returned, each its own, with
        # no (2, N, N) stack behind them; beyond them a transform's
        # temporary: the matrix product's field, or numpy's buffer.
        state, params, _ = work_memory_case(n, "explicit-upwind", 0.7)
        (v, w), peak = self.traced_peak(lambda: solve_signals(state.u, params))
        assert v.values.base is None and w.values.base is None
        field = state.u.values.nbytes
        temporary = field if n <= elliptic._MATMUL_MAX_CELLS else ITER_BUFFER
        assert peak < 2 * field + temporary + field / 4

    @pytest.mark.parametrize("n", [48, 72], ids=["matmul", "rfft"])
    def test_store_holds_each_buffer_once(self, n):
        # Warm runs of both schemes, sampled every step, leave at most five
        # store arrays for the grid (four without the rfft buffers), under
        # the README's keys, and no (2, N, N) stack among them.
        elliptic._WORKSPACES.arrays.clear()
        diagnostics = DiagnosticsConfig(ps=(2.0, 1.5), every=1)
        for scheme in SCHEMES:
            state, params, cfg = work_memory_case(n, scheme, 1.0)
            t_end = 2.5 * stable_dt(state, params, cfg)
            for _ in range(2):
                run(state, params, cfg, t_end, diagnostics=diagnostics)
        store = elliptic._WORKSPACES.arrays
        assert len(store) <= (4 if n <= elliptic._MATMUL_MAX_CELLS else 5)
        assert {name for name, _ in store} == STORE_KEYS - ({"fft"} if n <= elliptic._MATMUL_MAX_CELLS else set())
        for arrays in store.values():
            for array in arrays if isinstance(arrays, tuple) else (arrays,):
                assert array.ndim == 2

    def test_readme_lists_store_keys(self):
        # the README's list of the store's keys, one bullet each, up to the
        # next blank line
        lines = (REPO_ROOT / "README.md").read_text().splitlines()
        start = lines.index("One grid takes at most five arrays, under four keys:") + 2
        block = itertools.takewhile(str.strip, lines[start:])
        keys = [line.split("`")[1] for line in block if line.startswith("- `")]
        assert len(keys) == len(STORE_KEYS) and set(keys) == STORE_KEYS

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
            sample(other, params, diagnostics)
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
                records.append(sample(state, params, diag))
                last_sampled = state.step
            state = step(state, params, cfg, stable_dt(state, params, cfg))
        uv = state.u.values
        if (
            state.step != last_sampled
            and np.isfinite(uv).all()
            and float(uv.min()) >= -1e-13 * max(float(uv.max()), 0.0)
        ):
            records.append(sample(state, params, diag))
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

    def test_dt_floor_reports_blowup_suspected(self, monkeypatch):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = no_drift_params()
        state = initial_state(bump_field(dom), params)
        cfg = StepperConfig(dt_min=1e-2, dt_max=2e-2)
        calls = count_calls(monkeypatch, "step", "stable_dt")
        seen = []
        result = run(state, params, cfg, 1.0, on_state=seen.append)
        assert result.state.status is Status.BLOWUP_SUSPECTED
        assert result.steps == 0
        # The step at the floor is made, then discarded.
        assert calls == {"step": result.steps + 1, "stable_dt": 0}
        assert seen == [state] and result.state.u is state.u and result.state.t == 0.0

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
