"""Quadrature, the Lp and gradient-energy kernels, and the zero-flux Laplacian
stencil that the elliptic tests use as their oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    NegativeFieldWithFractionalPower,
    assert_close_to_oracle,
    fsum_integrate,
    lp_norm_p,
    mp_energy,
    neumann_laplacian_apply,
)
from attrep import DomainSpec, Field
from attrep.errors import NonFiniteField
from attrep.grid import _grad_sum, _lp_integral, integrate, read_field_csv, require_finite, write_field_csv


def random_field(dom, rng, lo=0.0, hi=1.0):
    return Field(rng.uniform(lo, hi, size=dom.cells), dom)


def cosine_mode(dom, k, l, amplitude=1.0):
    x, y = dom.cell_centers()
    lx, ly = dom.lengths
    return Field(
        amplitude * np.cos(np.pi * k * x / lx)[:, None] * np.cos(np.pi * l * y / ly)[None, :],
        dom,
    )


def savetxt_field_csv(field, path):
    """The np.savetxt formulation of write_field_csv, kept as its byte oracle."""
    x, y = field.domain.cell_centers()
    xx, yy = np.meshgrid(x, y, indexing="ij")
    table = np.column_stack([xx.ravel(), yy.ravel(), field.values.ravel()])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="x,y,value", comments="")


SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300, 5e-324, -1.7976931348623157e308]


def mode_eigenvalue(dom, k, l):
    h = dom.h
    nx, ny = dom.cells
    return (2.0 / h**2) * (2.0 - np.cos(np.pi * k / nx) - np.cos(np.pi * l / ny))


class TestField:
    def test_shape_mismatch_rejected(self, unit_square_16):
        with pytest.raises(ValueError):
            Field(np.zeros((8, 8)), unit_square_16)

    def test_values_frozen(self, unit_square_16):
        field = Field.full(unit_square_16, 1.0)
        with pytest.raises(ValueError):
            field.values[0, 0] = 2.0

    def test_require_finite(self, unit_square_16):
        values = np.ones(unit_square_16.cells)
        values[3, 3] = np.nan
        with pytest.raises(NonFiniteField):
            require_finite(Field(values, unit_square_16))

    def test_extrema_are_min_and_max(self, rng):
        dom = DomainSpec((1.0, 0.6), (5, 3))
        values = rng.uniform(-1.0, 1.0, size=dom.cells)
        field = Field(values, dom)
        assert [x.hex() for x in field.extrema] == [float(values.min()).hex(), float(values.max()).hex()]
        assert field.extrema is field.extrema

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_field_has_nonfinite_extrema(self, unit_square_16, bad):
        values = np.ones(unit_square_16.cells)
        values[3, 3] = bad
        field = Field(values, unit_square_16)
        assert not all(map(math.isfinite, field.extrema))
        with pytest.raises(NonFiniteField, match=r"^density contains NaN or Inf$"):
            require_finite(field, "density")

    def test_require_finite_allocates_no_mask(self):
        # It reads the field's extrema, taken by two reductions that each
        # allocate a transient 1 KiB in numpy 2.4; a NaN/Inf mask is a 64 KiB
        # bool array. A second read takes the cached pair.
        field = Field.full(DomainSpec((1.0, 1.0), (256, 256)), 1.0)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                require_finite(field)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[0] < 2048 and peaks[1] < 1024


class TestIntegrate:
    def test_unit_constant(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        assert integrate(Field.full(dom, 1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_constant_on_rectangle(self):
        dom = DomainSpec((2.0, 0.5), (64, 16))
        assert integrate(Field.full(dom, 3.0)) == pytest.approx(3.0, rel=1e-14)

    def test_matches_compensated_summation(self, rng):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        field = random_field(dom, rng, -1.0, 1.0)
        oracle = fsum_integrate(field.values, dom.h)
        assert integrate(field) == pytest.approx(oracle, rel=1e-14, abs=1e-16)

    def test_rejects_nan(self, unit_square_16):
        values = np.ones(unit_square_16.cells)
        values[0, 0] = np.inf
        with pytest.raises(NonFiniteField):
            integrate(Field(values, unit_square_16))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_sum_rejected(self):
        # Every cell is finite; their sum is not.
        dom = DomainSpec((16.0, 16.0), (16, 16))
        with pytest.raises(NonFiniteField, match="integral"):
            integrate(Field.full(dom, 1e307))


class TestLpNorm:
    def test_unit_constant_p2(self):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        assert _lp_integral(np.ones(dom.cells), 2.0, dom.h) == pytest.approx(1.0, rel=1e-14)

    def test_constant_two_cubed(self):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        assert _lp_integral(np.full(dom.cells, 2.0), 3.0, dom.h) == pytest.approx(8.0, rel=1e-14)

    def test_fractional_p_against_precision_oracle(self, rng):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        field = random_field(dom, rng, 0.0, 2.0)
        value = _lp_integral(field.values, 2.5, dom.h)
        assert_close_to_oracle(value, mp_energy(field.values, dom.h, 2.5), 1e-12, "E_2.5")

    def test_fractional_p_rejects_negative_values(self, unit_square_16):
        # The checked wrapper's guard; diagnostics.sample clamps u itself.
        values = np.ones(unit_square_16.cells)
        values[2, 2] = -0.5
        with pytest.raises(NegativeFieldWithFractionalPower):
            lp_norm_p(Field(values, unit_square_16), 1.5)

    def test_integer_p_accepts_signed_values(self, unit_square_16):
        values = np.ones(unit_square_16.cells)
        values[2, 2] = -0.5
        result = _lp_integral(values, 2.0, unit_square_16.h)
        assert result > 0.0

    def test_nonpositive_p_rejected(self, unit_square_16):
        for p in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="needs p > 0"):
                _lp_integral(np.ones(unit_square_16.cells), p, unit_square_16.h)

    def test_p_below_one_is_the_quasi_norm_integral(self, unit_square_16):
        # the bounds estimators take (integral |f|^q)^(1/q) at q = 2/(p+1) < 1
        dom = unit_square_16
        assert _lp_integral(np.full(dom.cells, 4.0), 0.5, dom.h) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    def test_overflowing_sum_rejected(self, unit_square_16, p):
        # The field is finite; 1e200^p and the sum of it are not.
        values = np.ones(unit_square_16.cells)
        values[5, 5] = 1e200
        with pytest.raises(NonFiniteField):
            _lp_integral(values, p, unit_square_16.h)

    @given(c=st.floats(min_value=0.0, max_value=50.0), p=st.sampled_from([1.0, 2.0, 2.5, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, p):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        rng = np.random.default_rng(7)
        base = rng.uniform(0.1, 1.0, size=dom.cells)
        lhs = _lp_integral(c * base, p, dom.h)
        rhs = c**p * _lp_integral(base, p, dom.h)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestGradEnergy:
    def test_constant_is_zero(self, unit_square_32):
        assert _grad_sum(np.full(unit_square_32.cells, 4.2)) == 0.0

    def test_zero_only_for_constants(self, rng):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        field = random_field(dom, rng)
        assert _grad_sum(field.values) > 0.0

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_linear_ramp_exact_law(self, n):
        # f = x on cell centers: every interior face difference is exactly h,
        # boundary faces carry nothing, so the energy is (N-1)/N, approaching
        # the continuum value 1 at first order
        dom = DomainSpec((1.0, 1.0), (n, n))
        x, _ = dom.cell_centers()
        assert _grad_sum(np.repeat(x[:, None], n, axis=1)) == pytest.approx((n - 1) / n, rel=1e-12)

    def test_linear_ramp_refines_toward_one(self):
        errors = []
        for n in (64, 128, 256):
            dom = DomainSpec((1.0, 1.0), (n, n))
            x, _ = dom.cell_centers()
            errors.append(abs(_grad_sum(np.repeat(x[:, None], n, axis=1)) - 1.0))
        assert errors[0] > errors[1] > errors[2]

    def test_cosine_mode_matches_continuum(self):
        dom = DomainSpec((1.0, 1.0), (256, 256))
        field = cosine_mode(dom, 1, 0)
        assert _grad_sum(field.values) == pytest.approx(math.pi**2 / 2.0, rel=1e-2)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("top", [1e200, 1e154])
    def test_overflowing_sum_rejected(self, unit_square_16, top):
        # A finite field whose squared face differences (1e400), or the sum
        # of its four finite ones (4 * 1e308), leave the float range.
        values = np.ones(unit_square_16.cells)
        values[5, 5] = top
        with pytest.raises(NonFiniteField):
            _grad_sum(values)

    def test_cosine_mode_matches_discrete_eigenvalue(self):
        # the gradient energy of f is <-Lap f, f> h^2 = lambda_h ||f||_2^2 exactly
        dom = DomainSpec((1.0, 1.0), (64, 64))
        field = cosine_mode(dom, 3, 0)
        lam = mode_eigenvalue(dom, 3, 0)
        l2sq = _lp_integral(field.values, 2.0, dom.h)
        assert _grad_sum(field.values) == pytest.approx(lam * l2sq, rel=1e-12)


class TestNeumannLaplacian:
    def test_constant_maps_to_zero(self, unit_square_32):
        result = neumann_laplacian_apply(Field.full(unit_square_32, 5.0))
        assert (result.values == 0.0).all()

    def test_integral_vanishes(self, rng):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        field = random_field(dom, rng, -1.0, 1.0)
        total = integrate(neumann_laplacian_apply(field))
        bound = 1e-12 * float(np.abs(field.values).max()) * dom.volume
        assert abs(total) <= max(bound, 1e-15)

    @pytest.mark.parametrize("k,l", [(1, 0), (0, 2), (3, 5)])
    def test_cosine_modes_are_eigenvectors(self, k, l):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        field = cosine_mode(dom, k, l)
        applied = neumann_laplacian_apply(field)
        lam = mode_eigenvalue(dom, k, l)
        np.testing.assert_allclose(applied.values, -lam * field.values, rtol=0, atol=1e-12 * lam)

    def test_symmetric(self, rng):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        f = random_field(dom, rng, -1.0, 1.0)
        g = random_field(dom, rng, -1.0, 1.0)
        lhs = float((neumann_laplacian_apply(f).values * g.values).sum())
        rhs = float((f.values * neumann_laplacian_apply(g).values).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestFieldCsv:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        field = random_field(dom, rng)
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        loaded = read_field_csv(path, dom)
        np.testing.assert_array_equal(loaded.values, field.values)

    def test_header_and_shape(self, tmp_path):
        dom = DomainSpec((1.0, 1.0), (4, 4))
        path = tmp_path / "field.csv"
        write_field_csv(Field.full(dom, 1.0), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 16

    @pytest.mark.parametrize(
        "lengths, cells",
        [((0.6, 1.0), (3, 5)), ((2.0, 1.0), (2, 1)), ((0.25, 1.0), (1, 4)), ((1.0, 1.0), (64, 64))],
    )
    def test_bytes_match_savetxt(self, tmp_path, rng, lengths, cells):
        dom = DomainSpec(lengths, cells)
        values = rng.standard_normal(cells) * 10.0 ** rng.integers(-300, 300, size=cells)
        flat = values.reshape(-1)
        n = min(flat.size, len(SPECIAL_VALUES))
        flat[rng.permutation(flat.size)[:n]] = SPECIAL_VALUES[:n]
        field = Field(values, dom)
        write_field_csv(field, tmp_path / "streamed.csv")
        savetxt_field_csv(field, tmp_path / "savetxt.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_wrong_domain_rejected(self, tmp_path):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        other = DomainSpec((2.0, 2.0), (8, 8))
        path = tmp_path / "field.csv"
        write_field_csv(Field.full(dom, 1.0), path)
        with pytest.raises(ValueError):
            read_field_csv(path, other)

    def test_column_major_file_rejected(self, tmp_path):
        # Same corners as the row-major file of this domain, rows in another order.
        dom = DomainSpec((2.0, 1.0), (4, 2))
        x, y = dom.cell_centers()
        rows = [f"{xi:.17g},{yj:.17g},{2 * i + j}" for j, yj in enumerate(y) for i, xi in enumerate(x)]
        path = tmp_path / "field.csv"
        path.write_text("x,y,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="coordinates"):
            read_field_csv(path, dom)

    def test_nan_corner_coordinates_rejected(self, tmp_path):
        dom = DomainSpec((1.0, 1.0), (4, 4))
        path = tmp_path / "field.csv"
        write_field_csv(Field.full(dom, 1.0), path)
        lines = path.read_text().splitlines()
        for i in (1, -1):
            lines[i] = "nan,nan,1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="coordinates"):
            read_field_csv(path, dom)

    def test_wrong_cell_count_rejected(self, tmp_path):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        other = DomainSpec((1.0, 1.0), (16, 16))
        path = tmp_path / "field.csv"
        write_field_csv(Field.full(dom, 1.0), path)
        with pytest.raises(ValueError):
            read_field_csv(path, other)
