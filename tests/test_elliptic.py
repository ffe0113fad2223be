"""Spectral Helmholtz solves, implicit diffusion, and signal production."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn, idctn

from _oracles import dense_helmholtz_matrix, neumann_laplacian_apply, real_space_drift
from attrep import DomainSpec, Field, ModelParams, solve_helmholtz, solve_signals
from attrep.elliptic import (
    NEGATIVE_TOL,
    _drift_potential,
    _forward,
    _implicit_solve,
    _inverse,
    _mode_eigenvalues,
    _production,
)
from attrep.errors import (
    NegativeDensity,
    NonFiniteField,
    NonPositiveCoefficient,
    NonPositiveKappa,
    SolverDiverged,
)
from attrep.grid import integrate


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
    coeffs = _forward(np.array(values))
    return _inverse(coeffs / (kappa + _mode_eigenvalues(dom)))


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

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        nx=st.integers(min_value=4, max_value=24),
        ny=st.integers(min_value=4, max_value=24),
        kappa=st.floats(min_value=1e-3, max_value=1e3),
        zeros=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_maximum_principle(self, seed, nx, ny, kappa, zeros):
        # -Lap_h + kappa is an M-matrix, so a nonnegative source gives a
        # nonnegative solution up to rounding. The step checks this on v and
        # w every step; sparse sources (isolated spikes) are the hard case.
        dom = DomainSpec((1.0, ny / nx), (nx, ny))
        rng = np.random.default_rng(seed)
        source = rng.uniform(0.0, 1.0, size=dom.cells) * 10.0 ** rng.uniform(-3.0, 3.0)
        source[rng.random(dom.cells) < zeros] = 0.0
        phi = solve_helmholtz(Field(source, dom), kappa).values
        assert phi.min() >= -NEGATIVE_TOL * phi.max()

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
    def test_signal_kappas_must_be_positive(self, unit_params, name, kappa):
        # The signal solves take their kappas from ModelParams, which admits
        # only finite beta, delta > 0.
        with pytest.raises(NonPositiveCoefficient) as err:
            replace(unit_params, **{name: kappa})
        assert err.value.name == name

    def test_nonfinite_source_rejected(self, unit_square_16):
        values = np.ones(unit_square_16.cells)
        values[5, 5] = np.nan
        with pytest.raises(NonFiniteField):
            solve_helmholtz(Field(values, unit_square_16), 1.0)


# Grids on both sides of the matrix-product cutoff of 64 cells an axis; past
# it, even and odd axes for the rfft pair.
TRANSFORM_GRIDS = [(16, 16), (48, 24), (64, 64), (65, 64), (128, 16), (100, 73), (129, 130), (257, 66)]


def shape_id(shape):
    return "x".join(map(str, shape))


def transform_tol(*sides):
    """1e-14 of the largest magnitude on either side of a transform. The
    input's maximum alone is too tight: the zero mode of a constant 64^2
    field is 64 max|x|, and one ulp of it is 1.4e-14 max|x|."""
    return 1e-14 * max(float(np.abs(side).max()) for side in sides)


class TestTransformPair:
    """_forward and _inverse, the module's one cosine-transform pair, against
    scipy.fft with norm="ortho" (a test-only oracle)."""

    @pytest.mark.parametrize("cells", [*TRANSFORM_GRIDS, (2, 130, 129)], ids=shape_id)
    def test_matches_scipy_and_round_trips(self, rng, cells):
        for x in (rng.uniform(0.0, 2.0, cells), rng.uniform(-1.0, 1.0, cells), np.full(cells, 0.7)):
            for transform, reference in ((_forward, dctn), (_inverse, idctn)):
                want = reference(x, type=2, norm="ortho", axes=(-2, -1))
                buf = x.copy()
                assert transform(buf) is buf
                np.testing.assert_allclose(buf, want, rtol=0.0, atol=transform_tol(x, want))
            coeffs = _forward(x.copy())
            np.testing.assert_allclose(_inverse(coeffs.copy()), x, rtol=0.0, atol=transform_tol(x, coeffs))
            signal = _inverse(x.copy())
            np.testing.assert_allclose(_forward(signal.copy()), x, rtol=0.0, atol=transform_tol(x, signal))

    @pytest.mark.parametrize("cells", TRANSFORM_GRIDS, ids=shape_id)
    def test_stack_slices_match_single_fields(self, rng, cells):
        # v's and w's sources are transformed as one stack: each slice must
        # have the bits of its own transform.
        stack = rng.uniform(0.0, 2.0, size=(2, *cells))
        for transform in (_forward, _inverse):
            want = [transform(field.copy()).tobytes() for field in stack]
            got = transform(stack.copy())
            assert [field.tobytes() for field in got] == want
            assert transform(stack[:1].copy())[0].tobytes() == want[0]

    def test_other_shapes_between_leave_bits(self, rng):
        # The rfft pair keeps its work arrays per shape: transforms of other
        # shapes in between, the stack of the same grid among them, change no
        # bit of a result.
        field = rng.uniform(-1.0, 1.0, (97, 71))
        others = [rng.uniform(-1.0, 1.0, shape) for shape in ((2, 97, 71), (71, 97), (130, 66))]
        for transform in (_forward, _inverse):
            want = transform(field.copy()).tobytes()
            for other in others:
                transform(other)
            assert transform(field.copy()).tobytes() == want

    def test_threads_match_serial_bits(self, rng):
        # Each thread has its own work arrays: more threads than cores, with
        # a short switch interval, each transforming same-shape fields, give
        # the bits of the serial transforms.
        fields = [rng.uniform(-1.0, 1.0, (100, 73)) for _ in range(4)]
        want = [(_forward(f.copy()).tobytes(), _inverse(f.copy()).tobytes()) for f in fields]
        got = [[] for _ in fields]

        def work(i):
            for _ in range(20):
                got[i].append((_forward(fields[i].copy()).tobytes(), _inverse(fields[i].copy()).tobytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[pair] * 20 for pair in want]

    def test_warm_pair_allocates_no_field(self, rng):
        # Once its work arrays exist, the rfft pair writes through them.
        field = rng.uniform(-1.0, 1.0, (256, 256))
        _inverse(_forward(field))
        tracemalloc.start()
        try:
            _inverse(_forward(field))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field.nbytes


class TestImplicitDiffusion:
    """The backward-Euler heat step (I - dt Lap) u' = u of the IMEX scheme."""

    @pytest.mark.parametrize("lengths, cells", ORACLE_GRIDS)
    def test_bits_match_fresh_array_step(self, rng, lengths, cells):
        dom = DomainSpec(lengths, cells)
        for dt in (1e-4, 3.3e-3, 0.2):
            values = rng.uniform(0.0, 2.0, size=cells)
            eig = _mode_eigenvalues(dom)
            coeffs = _forward(np.array(values))
            want = _inverse(coeffs / (1.0 + dt * eig))
            assert _implicit_solve(values, dt, dom)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 2)])
    def test_mode_damped_by_resolvent(self, k, l):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        dt = 1e-3
        mode = cosine_mode(dom, k, l)
        lam = mode_eigenvalue(dom, k, l)
        stepped, _ = _implicit_solve(mode.values, dt, dom)
        np.testing.assert_allclose(stepped, mode.values / (1.0 + dt * lam), rtol=0, atol=1e-13)

    def test_mean_preserved(self, rng):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        field = Field(rng.uniform(0.0, 2.0, size=dom.cells), dom)
        stepped, _ = _implicit_solve(field.values, 5e-3, dom)
        assert integrate(Field(stepped, dom)) == pytest.approx(integrate(field), rel=1e-13)


class TestChemicalSources:
    """v's source alpha u^rho (the production kernel, given u's minimum) and
    the density checks of solve_signals."""

    def test_constant_density_sublinear(self, unit_square_16, unit_params):
        params = replace(unit_params, alpha=2.0, gamma=3.0, rho=0.5)
        sv = _production(np.ones(unit_square_16.cells), 1.0, params.rho, params.alpha, np.empty(unit_square_16.cells))
        np.testing.assert_allclose(sv, 2.0, rtol=1e-15)

    def test_sqrt_branch(self, unit_square_16, unit_params):
        params = replace(unit_params, rho=0.5)
        sv = _production(np.full(unit_square_16.cells, 4.0), 4.0, params.rho, params.alpha, np.empty(unit_square_16.cells))
        np.testing.assert_allclose(sv, 2.0, rtol=1e-15)

    def test_linear_branch_is_identity_scaling(self, unit_square_16, unit_params, rng):
        params = replace(unit_params, rho=1.0, alpha=1.7)
        values = rng.uniform(0.0, 3.0, size=unit_square_16.cells)
        sv = _production(values, float(values.min()), params.rho, params.alpha, np.empty(unit_square_16.cells))
        np.testing.assert_array_equal(sv, 1.7 * values)

    def test_general_power_branch(self, unit_square_16, unit_params):
        params = replace(unit_params, rho=0.25)
        sv = _production(np.full(unit_square_16.cells, 16.0), 16.0, params.rho, params.alpha, np.empty(unit_square_16.cells))
        np.testing.assert_allclose(sv, 2.0, rtol=1e-14)

    def test_small_negative_dip_clamped_before_power(self, unit_square_16, unit_params):
        # the clamp protects the fractional power only; the linear source
        # carries the raw value through
        values = np.ones(unit_square_16.cells)
        values[0, 0] = -1e-14
        sv = _production(values, -1e-14, unit_params.rho, unit_params.alpha, np.empty(unit_square_16.cells))
        assert sv[0, 0] == 0.0
        u = Field(values, unit_square_16)
        _, w = solve_signals(u, unit_params)
        want = solve_helmholtz(Field(unit_params.gamma * values, unit_square_16), unit_params.delta)
        assert w.values.tobytes() == want.values.tobytes()

    def test_sources_transformed_in_their_slots(self, rng):
        # Each source is transformed where it lies in the coefficient stack,
        # on both sides of the matrix-product cutoff; the result is the slot
        # itself, with the bits of a transform of a fresh copy.
        for n in (16, 72):
            stack = rng.uniform(0.0, 3.0, size=(2, n, n))
            want = [_forward(slot.copy()).tobytes() for slot in stack]
            for slot, expected in zip(stack, want):
                assert _forward(slot) is slot
                assert slot.tobytes() == expected

    def test_large_negative_rejected(self, unit_square_16, unit_params):
        values = np.ones(unit_square_16.cells)
        values[0, 0] = -1e-3
        with pytest.raises(NegativeDensity):
            solve_signals(Field(values, unit_square_16), unit_params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_density_rejected(self, unit_square_16, unit_params, bad):
        values = np.ones(unit_square_16.cells)
        values[2, 3] = bad
        with pytest.raises(NonFiniteField, match="density"):
            solve_signals(Field(values, unit_square_16), unit_params)


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

    @pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (1.7, 0.6)])
    @pytest.mark.parametrize("dip", [False, True])
    def test_linear_production_shares_one_transform(self, unit_params, rng, alpha, gamma, dip):
        # At rho = 1 both sources are multiples of u, scaled in cosine space:
        # to the bit with unit alpha and gamma, to rounding otherwise. A
        # rounding-level dip is clamped in v's source, so each source then
        # takes its own transform, as a separate solve does.
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = replace(unit_params, rho=1.0, alpha=alpha, gamma=gamma, beta=2.0, delta=0.5)
        values = rng.uniform(0.0, 3.0, size=dom.cells)
        if dip:
            values[3, 7] = -1e-14
        v, w = solve_signals(Field(values, dom), params)
        want_v = fresh_array_solve(alpha * np.maximum(values, 0.0), dom, params.beta)
        want_w = fresh_array_solve(gamma * values, dom, params.delta)
        for got, want in ((v.values, want_v), (w.values, want_w)):
            if dip or alpha == gamma == 1.0:
                assert got.tobytes() == want.tobytes()
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @given(c=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_constant_identity_property(self, c):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        params = ModelParams(
            alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, chi=1.0, xi=1.0, rho=1.0, dim=2
        )
        v, w = solve_signals(Field.full(dom, c), params)
        np.testing.assert_allclose(v.values, c, rtol=1e-11)
        np.testing.assert_allclose(w.values, c, rtol=1e-11)


class TestDriftInCosineSpace:
    """phi = chi v - xi w, formed from the density with one inverse
    transform, against the real-space combination of the two solves."""

    @given(
        chi=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=50.0)),
        xi=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=50.0)),
        rho=st.sampled_from([0.25, 0.5, 0.7, 1.0]),
        delta=st.sampled_from([1.0, 0.7]),
        cells=st.sampled_from([(1, 4), (5, 3), (8, 8), (16, 16), (24, 24)]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_real_space_drift(self, chi, xi, rho, delta, cells, seed):
        dom = DomainSpec((1.0, cells[1] / cells[0]), cells)
        params = ModelParams(1.0, 1.0, 1.3, delta, chi=chi, xi=xi, rho=rho)
        values = np.random.default_rng(seed).uniform(0.0, 3.0, size=cells)
        phi = _drift_potential(values, float(values.min()), float(values.max()), params, dom)
        want = real_space_drift(Field(values, dom), params)
        np.testing.assert_allclose(phi, want, rtol=0.0, atol=1e-12 * max(np.abs(want).max(), 0.0))

    def test_leaves_handed_coefficients(self, unit_square_16, unit_params, rng):
        # The IMEX step hands over u's cosine coefficients; they are read,
        # not written, and serve as a forward transform of u would.
        values = rng.uniform(0.0, 3.0, size=unit_square_16.cells)
        extrema = float(values.min()), float(values.max())
        coeffs = _forward(values.copy())
        kept = coeffs.copy()
        for rho in (0.5, 1.0):
            params = replace(unit_params, rho=rho, chi=2.0, xi=0.5, delta=0.7)
            phi = _drift_potential(values, *extrema, params, unit_square_16, coeffs)
            assert coeffs.tobytes() == kept.tobytes()
            want = _drift_potential(values, *extrema, params, unit_square_16)
            np.testing.assert_allclose(phi, want, rtol=0.0, atol=1e-13 * np.abs(want).max())
