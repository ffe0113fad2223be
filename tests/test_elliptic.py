"""Spectral Helmholtz solves, implicit diffusion, and signal production."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn, idctn

from _oracles import dense_helmholtz_matrix
from attrep import DomainSpec, Field, solve_helmholtz, solve_signals
from attrep.elliptic import _mode_eigenvalues, chemical_sources, implicit_diffusion_step
from attrep.errors import NegativeDensity, NonFiniteField, NonPositiveKappa, SolverDiverged
from attrep.grid import integrate, neumann_laplacian_apply


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


def fresh_array_solve(values, dom, kappa):
    """The transform solve with a fresh array per operation, kept as the
    bitwise oracle for solve_helmholtz."""
    coeffs = dctn(values, type=2, norm="ortho")
    return idctn(coeffs / (kappa + _mode_eigenvalues(dom)), type=2, norm="ortho")


ORACLE_GRIDS = [((1.0, 1.0), (16, 16)), ((1.0, 0.6), (5, 3)), ((1.0, 0.5), (2, 1)), ((0.25, 1.0), (1, 4))]


class TestSolveHelmholtz:
    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("kappa", [0.1, 1.0, 7.5])
    def test_bits_match_fresh_array_solve(self, rng, lengths, cells, kappa):
        dom = DomainSpec(lengths, cells)
        for _ in range(3):
            source = Field(rng.uniform(0.0, 2.0, size=cells), dom)
            phi = solve_helmholtz(source, kappa)
            assert phi.values.tobytes() == fresh_array_solve(source.values, dom, kappa).tobytes()

    def test_constant_source(self, unit_square_32):
        # kappa*phi - Lap(phi) = f with f constant has the constant solution f/kappa
        f = Field.full(unit_square_32, 2.0)
        phi = solve_helmholtz(f, 0.5)
        np.testing.assert_allclose(phi.values, 4.0, rtol=1e-13)

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 3), (0, 5)])
    def test_cosine_modes_solved_exactly(self, k, l):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        kappa = 0.7
        mode = cosine_mode(dom, k, l)
        lam = mode_eigenvalue(dom, k, l)
        f = Field((kappa + lam) * mode.values, dom)
        phi = solve_helmholtz(f, kappa)
        np.testing.assert_allclose(phi.values, mode.values, rtol=0, atol=1e-12)

    def test_against_dense_factorization(self, rng):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        kappa = 1.3
        fvals = rng.uniform(-1.0, 1.0, size=dom.cells)
        matrix = dense_helmholtz_matrix(dom, kappa)
        exact = np.linalg.solve(matrix, fvals.ravel()).reshape(dom.cells)
        phi = solve_helmholtz(Field(fvals, dom), kappa)
        err = np.abs(phi.values - exact).max() / np.abs(exact).max()
        assert err <= 1e-9

    def test_integral_identity(self, rng):
        # integrating the equation over the domain kills the Laplacian,
        # leaving kappa * int(phi) = int(f)
        dom = DomainSpec((1.0, 1.0), (32, 32))
        for trial in range(100):
            kappa = float(rng.uniform(0.1, 10.0))
            f = Field(rng.uniform(-1.0, 2.0, size=dom.cells), dom)
            phi = solve_helmholtz(f, kappa)
            assert kappa * integrate(phi) == pytest.approx(integrate(f), rel=1e-12, abs=1e-13)

    def test_residual_postcondition(self, rng):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        kappa = 2.0
        f = Field(rng.uniform(0.0, 5.0, size=dom.cells), dom)
        phi = solve_helmholtz(f, kappa)
        residual = kappa * phi.values - neumann_laplacian_apply(phi).values - f.values
        tol = 1e-10 * (np.abs(f.values).max() + kappa * np.abs(phi.values).max())
        assert np.abs(residual).max() <= tol

    def test_linearity(self, rng):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        kappa = 0.9
        f1 = rng.uniform(-1.0, 1.0, size=dom.cells)
        f2 = rng.uniform(-1.0, 1.0, size=dom.cells)
        phi1 = solve_helmholtz(Field(f1, dom), kappa)
        phi2 = solve_helmholtz(Field(f2, dom), kappa)
        combined = solve_helmholtz(Field(2.0 * f1 - 3.0 * f2, dom), kappa)
        np.testing.assert_allclose(
            combined.values, 2.0 * phi1.values - 3.0 * phi2.values, rtol=0, atol=1e-12
        )

    def test_max_principle_for_nonnegative_source(self, rng):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        f = Field(rng.uniform(0.0, 3.0, size=dom.cells), dom)
        phi = solve_helmholtz(f, 0.4)
        assert phi.values.min() >= -1e-13 * phi.values.max()
        assert 0.4 * phi.values.max() <= f.values.max() * (1.0 + 1e-12)

    def test_kappa_must_be_positive(self, unit_square_16):
        f = Field.full(unit_square_16, 1.0)
        for kappa in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(NonPositiveKappa):
                solve_helmholtz(f, kappa)

    @pytest.mark.parametrize("name", ["beta", "delta"])
    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
    def test_signal_kappas_must_be_positive(self, unit_square_16, unit_params, name, kappa):
        params = replace(unit_params, **{name: kappa})
        with pytest.raises(NonPositiveKappa):
            solve_signals(Field.full(unit_square_16, 1.0), params)

    def test_nonfinite_source_rejected(self, unit_square_16):
        values = np.ones(unit_square_16.cells)
        values[5, 5] = np.nan
        with pytest.raises(NonFiniteField):
            solve_helmholtz(Field(values, unit_square_16), 1.0)


class TestImplicitDiffusion:
    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    def test_bits_match_fresh_array_step(self, rng, lengths, cells):
        dom = DomainSpec(lengths, cells)
        for dt in (1e-4, 3.3e-3, 0.2):
            field = Field(rng.uniform(0.0, 2.0, size=cells), dom)
            eig = _mode_eigenvalues(dom)
            coeffs = dctn(field.values, type=2, norm="ortho")
            want = idctn(coeffs / (1.0 + dt * eig), type=2, norm="ortho")
            assert implicit_diffusion_step(field, dt).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 2)])
    def test_mode_damped_by_resolvent(self, k, l):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        dt = 1e-3
        mode = cosine_mode(dom, k, l)
        lam = mode_eigenvalue(dom, k, l)
        stepped = implicit_diffusion_step(mode, dt)
        np.testing.assert_allclose(
            stepped.values, mode.values / (1.0 + dt * lam), rtol=0, atol=1e-13
        )

    def test_mean_preserved(self, rng):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        field = Field(rng.uniform(0.0, 2.0, size=dom.cells), dom)
        stepped = implicit_diffusion_step(field, 5e-3)
        assert integrate(stepped) == pytest.approx(integrate(field), rel=1e-13)

    def test_requires_positive_dt(self, unit_square_16):
        field = Field.full(unit_square_16, 1.0)
        with pytest.raises(ValueError):
            implicit_diffusion_step(field, 0.0)


class TestChemicalSources:
    def test_constant_density_sublinear(self, unit_square_16, unit_params):
        params = replace(unit_params, alpha=2.0, gamma=3.0, rho=0.5)
        u = Field.full(unit_square_16, 1.0)
        sv, sw = chemical_sources(u, params)
        np.testing.assert_allclose(sv.values, 2.0, rtol=1e-15)
        np.testing.assert_allclose(sw.values, 3.0, rtol=1e-15)

    def test_sqrt_branch(self, unit_square_16, unit_params):
        params = replace(unit_params, rho=0.5)
        u = Field.full(unit_square_16, 4.0)
        sv, _ = chemical_sources(u, params)
        np.testing.assert_allclose(sv.values, 2.0, rtol=1e-15)

    def test_linear_branch_is_identity_scaling(self, unit_square_16, unit_params, rng):
        params = replace(unit_params, rho=1.0, alpha=1.7)
        values = rng.uniform(0.0, 3.0, size=unit_square_16.cells)
        sv, _ = chemical_sources(Field(values, unit_square_16), params)
        np.testing.assert_array_equal(sv.values, 1.7 * values)

    def test_general_power_branch(self, unit_square_16, unit_params):
        params = replace(unit_params, rho=0.25)
        u = Field.full(unit_square_16, 16.0)
        sv, _ = chemical_sources(u, params)
        np.testing.assert_allclose(sv.values, 2.0, rtol=1e-14)

    def test_small_negative_dip_clamped_before_power(self, unit_square_16, unit_params):
        # the clamp protects the fractional power only; the linear source
        # carries the raw value through
        values = np.ones(unit_square_16.cells)
        values[0, 0] = -1e-14
        sv, sw = chemical_sources(Field(values, unit_square_16), unit_params)
        assert sv.values[0, 0] == 0.0
        assert sw.values[0, 0] == -1e-14

    def test_large_negative_rejected(self, unit_square_16, unit_params):
        values = np.ones(unit_square_16.cells)
        values[0, 0] = -1e-3
        with pytest.raises(NegativeDensity):
            chemical_sources(Field(values, unit_square_16), unit_params)


class TestSolveSignals:
    def test_constant_density_fixed_points(self, unit_square_32, unit_params):
        # constant u solves both signal equations with constant v, w
        params = replace(unit_params, alpha=2.0, beta=4.0, gamma=3.0, delta=6.0, rho=0.5)
        c = 9.0
        u = Field.full(unit_square_32, c)
        v, w = solve_signals(u, params)
        np.testing.assert_allclose(v.values, 2.0 * c**0.5 / 4.0, rtol=1e-12)
        np.testing.assert_allclose(w.values, 3.0 * c / 6.0, rtol=1e-12)

    def test_second_signal_mass_identity(self, unit_square_32, unit_params, rng):
        params = replace(unit_params, gamma=2.5, delta=0.8)
        u = Field(rng.uniform(0.0, 4.0, size=unit_square_32.cells), unit_square_32)
        _, w = solve_signals(u, params)
        expected = params.gamma / params.delta * integrate(u)
        assert integrate(w) == pytest.approx(expected, rel=1e-12)

    def test_signal_peaks_over_density_bump(self, unit_params):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        x, y = dom.cell_centers()
        r2 = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2
        u = Field(1e-3 + np.exp(-r2 / (2 * 0.05**2)), dom)
        v, w = solve_signals(u, unit_params)
        for sig in (v, w):
            ix, iy = np.unravel_index(np.argmax(sig.values), sig.values.shape)
            assert abs(x[ix] - 0.5) < 0.05
            assert abs(y[iy] - 0.5) < 0.05

    def test_overflowing_source_is_solver_diverged(self, unit_params):
        # gamma * u overflows to inf although u itself is finite.
        u = Field.full(DomainSpec((1.0, 1.0), (8, 8)), 1e299)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverDiverged):
            solve_signals(u, replace(unit_params, gamma=1e10))

    @given(c=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_constant_identity_property(self, c):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        from attrep import validate_params, ModelParams

        params = ModelParams(
            alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, chi=1.0, xi=1.0, rho=1.0, dim=2
        )
        validate_params(params)
        v, w = solve_signals(Field.full(dom, c), params)
        np.testing.assert_allclose(v.values, c, rtol=1e-11)
        np.testing.assert_allclose(w.values, c, rtol=1e-11)
