"""Admissible parameters, domain geometry, initial data, regime taxonomy."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from attrep import (
    BumpSpec,
    DiagnosticsConfig,
    DomainSpec,
    InitialData,
    ModelParams,
    Regime,
    StepperConfig,
    build_initial_data,
    classify_regime,
    compute_bounds,
    critical_mass,
)
from attrep.errors import (
    DomainError,
    NegativeAmplitude,
    NonPositiveCoefficient,
    RhoOutOfRange,
    SimulationError,
    ZeroField,
)
from attrep.grid import integrate, write_field_csv

FOUR_PI = 4.0 * math.pi


def params_with(**overrides):
    base = dict(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, chi=1.0, xi=1.0, rho=0.5)
    base.update(overrides)
    return ModelParams(**base)


class TestValidateParams:
    """ModelParams admits only the admissible set: building it is the check."""

    def test_all_ones_ok(self):
        params_with()

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "delta"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_production_coefficients_strictly_positive(self, name, bad):
        with pytest.raises(NonPositiveCoefficient) as err:
            params_with(**{name: bad})
        assert err.value.name == name
        assert str(err.value) == f"coefficient {name!r} must be strictly positive, got {float(bad)}"

    @pytest.mark.parametrize("name", ["chi", "xi"])
    def test_negative_sensitivity_rejected(self, name):
        with pytest.raises(NonPositiveCoefficient) as err:
            params_with(**{name: -1.0})
        assert err.value.name == name
        assert str(err.value) == f"coefficient {name!r} must be nonnegative, got -1.0"

    @pytest.mark.parametrize("name", ["chi", "xi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sensitivity_rejected(self, name, bad):
        # a NaN chi once reached stable_dt and failed there as a lost drift
        with pytest.raises(NonPositiveCoefficient) as err:
            params_with(**{name: bad})
        assert err.value.name == name

    def test_zero_sensitivities_admitted(self):
        # chi = xi = 0 switches drift off; the heat reduction depends on it.
        params_with(chi=0.0, xi=0.0)

    @pytest.mark.parametrize("rho", [1.2, 0.0, -0.5, math.nan, 2.0])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(RhoOutOfRange) as err:
            params_with(rho=rho)
        assert str(err.value).endswith(f"got {rho}")

    def test_rho_one_admitted(self):
        params_with(rho=1.0)

    def test_dim_below_two_rejected(self):
        with pytest.raises(NonPositiveCoefficient) as err:
            params_with(dim=1)
        assert str(err.value) == "coefficient 'dim' must be strictly positive, got 1"

    @pytest.mark.parametrize("name", ["alpha", "chi", "rho"])
    @pytest.mark.parametrize("bad", ["1.0", True, b"1"])
    def test_bool_or_string_coefficient_rejected(self, name, bad):
        with pytest.raises(NonPositiveCoefficient) as err:
            params_with(**{name: bad})
        assert err.value.name == name
        assert "must be a real number" in str(err.value)

    @pytest.mark.parametrize("dim", [2.7, "2", 2.0, True])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(NonPositiveCoefficient) as err:
            params_with(dim=dim)
        assert err.value.name == "dim"

    def test_numpy_scalars_admitted_and_kept(self):
        params = params_with(alpha=np.float64(2.0), dim=np.int64(3))
        assert type(params.alpha) is np.float64 and params.dim == 3


class TestDomainSpec:
    def test_unit_square(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        assert dom.h == 1.0 / 64
        assert dom.volume == 1.0

    def test_rectangle_with_square_cells(self):
        dom = DomainSpec((2.0, 0.5), (64, 16))
        assert dom.h == pytest.approx(1.0 / 32, rel=1e-15)
        assert dom.volume == 1.0

    def test_non_square_cells_rejected(self):
        with pytest.raises(ValueError):
            DomainSpec((1.0, 1.0), (64, 32))

    @pytest.mark.parametrize("lengths", [(0.0, 1.0), (-1.0, 1.0)])
    def test_bad_lengths_rejected(self, lengths):
        with pytest.raises(ValueError):
            DomainSpec(lengths, (8, 8))

    @pytest.mark.parametrize(
        "lengths, cells",
        [
            ((1.0, 1.0), (16.7, 16.2)),
            ((1.0, 1.0), (16.0, 16.0)),
            ((1.0, 1.0), ("16", "16")),
            ((1.0, 1.0), (True, True)),
            (("1", "1"), (16, 16)),
            ((True, True), (16, 16)),
            (("1", "1"), (True, True)),
        ],
    )
    def test_non_numeric_lengths_or_cells_rejected(self, lengths, cells):
        with pytest.raises(ValueError, match="real lengths and integer cell counts"):
            DomainSpec(lengths, cells)

    def test_numbers_stored_as_float_lengths_and_int_cells(self):
        dom = DomainSpec((1, np.float32(1.0)), (np.int64(16), 16))
        assert dom.lengths == (1.0, 1.0) and dom.cells == (16, 16)
        assert [type(v) for v in dom.lengths + dom.cells] == [float, float, int, int]

    def test_cell_centers_are_midpoints(self):
        dom = DomainSpec((1.0, 1.0), (4, 4))
        x, y = dom.cell_centers()
        np.testing.assert_allclose(x, [0.125, 0.375, 0.625, 0.875], rtol=0, atol=1e-15)
        np.testing.assert_allclose(y, x, rtol=0, atol=0)


class TestBuildInitialData:
    def test_uniform_unit(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        field, mass = build_initial_data(InitialData(kind="uniform", amplitude=1.0), dom)
        assert (field.values == 1.0).all()
        assert mass == pytest.approx(1.0, rel=1e-14)

    def test_zero_amplitude_bump_raises(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        with pytest.raises(ZeroField):
            build_initial_data(InitialData(kind="gaussian-bump", amplitude=0.0, width=0.1), dom)

    def test_negative_amplitude_raises(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        with pytest.raises(NegativeAmplitude):
            build_initial_data(InitialData(kind="gaussian-bump", amplitude=-1.0, width=0.1), dom)

    def test_gaussian_mass_matches_quadrature_oracle(self):
        dom = DomainSpec((1.0, 1.0), (256, 256))
        width = 0.06
        spec = InitialData(kind="gaussian-bump", amplitude=1.0, width=width)
        _, mass = build_initial_data(spec, dom)
        oracle, _ = dblquad(
            lambda y, x: math.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2 * width**2)),
            0.0,
            1.0,
            0.0,
            1.0,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert mass == pytest.approx(oracle, rel=1e-3)
        # the bump sits far from the boundary, so the planar closed form
        # 2 pi a w^2 is equally valid here
        assert mass == pytest.approx(2 * math.pi * width**2, rel=1e-3)

    def test_mass_rescaling_hits_target(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        spec = InitialData(kind="gaussian-bump", amplitude=1.0, width=0.1, mass=3.5)
        field, mass = build_initial_data(spec, dom)
        assert mass == pytest.approx(3.5, rel=1e-13)
        assert integrate(field) == pytest.approx(3.5, rel=1e-13)

    def test_multi_bump_superposes(self):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        b1 = BumpSpec(center=(0.3, 0.3), width=0.05, amplitude=1.0)
        b2 = BumpSpec(center=(0.7, 0.6), width=0.08, amplitude=2.0)
        multi, _ = build_initial_data(InitialData(kind="multi-bump", bumps=(b1, b2)), dom)
        single1, _ = build_initial_data(
            InitialData(kind="gaussian-bump", center=b1.center, width=b1.width, amplitude=1.0), dom
        )
        single2, _ = build_initial_data(
            InitialData(kind="gaussian-bump", center=b2.center, width=b2.width, amplitude=2.0), dom
        )
        np.testing.assert_allclose(multi.values, single1.values + single2.values, rtol=1e-14)

    def test_from_file_roundtrip(self, tmp_path):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        original, _ = build_initial_data(
            InitialData(kind="gaussian-bump", amplitude=2.0, width=0.2), dom
        )
        path = tmp_path / "u0.csv"
        write_field_csv(original, path)
        loaded, mass = build_initial_data(InitialData(kind="from-file", path=str(path)), dom)
        np.testing.assert_array_equal(loaded.values, original.values)
        assert mass == pytest.approx(integrate(original), rel=1e-15)

    def test_unknown_kind_rejected(self):
        dom = DomainSpec((1.0, 1.0), (8, 8))
        with pytest.raises(ValueError):
            build_initial_data(InitialData(kind="plane-wave"), dom)

    @pytest.mark.parametrize(
        "build, error, text",
        [
            (lambda: InitialData("gaussain-bump"), ValueError, "unknown initial data kind 'gaussain-bump'"),
            (lambda: BumpSpec((0.5, 0.5), -0.1, 1.0), ValueError, "bump width must be positive, got -0.1"),
            (lambda: BumpSpec((0.5, 0.5), 0.1, -1.0), NegativeAmplitude, "bump amplitude must be >= 0, got -1.0"),
            (lambda: InitialData("gaussian-bump", width=0.0), ValueError, "bump width must be positive, got 0.0"),
            (lambda: InitialData("uniform", amplitude=-1.0), NegativeAmplitude, "uniform level must be >= 0, got -1.0"),
            (lambda: InitialData("gaussian-bump", width=0.1, mass=-1.0), ZeroField, "target mass must be positive"),
            (lambda: InitialData("multi-bump"), ZeroField, "multi-bump initial data needs at least one bump"),
            (lambda: InitialData("from-file"), ValueError, "from-file initial data needs a path"),
        ],
        ids=["kind", "bump-width", "bump-amplitude", "width", "uniform-level", "mass", "no-bumps", "no-path"],
    )
    def test_rejected_when_built(self, build, error, text):
        # the check runs when the spec is built, before any domain is known
        with pytest.raises(error, match=re.escape(text)):
            build()

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: BumpSpec((0.5, 0.5, 0.5), 0.1, 1.0), "center"),
            (lambda: BumpSpec((0.5, "0.5"), 0.1, 1.0), "center"),
            (lambda: BumpSpec([0.5, 0.5], 0.1, 1.0), "center"),
            (lambda: BumpSpec((0.5, 0.5), "0.1", 1.0), "width"),
            (lambda: BumpSpec((0.5, 0.5), 0.1, True), "amplitude"),
            (lambda: InitialData("multi-bump", bumps=((0.5, 0.5),)), "bumps"),
            (lambda: InitialData("uniform", amplitude="1"), "amplitude"),
            (lambda: InitialData("gaussian-bump", width="0.1"), "width"),
            (lambda: InitialData("gaussian-bump", center=(0.5, None)), "center"),
            (lambda: InitialData("uniform", mass=True), "mass"),
        ],
        ids=[
            "bump-center-triple",
            "bump-center-string",
            "bump-center-list",
            "bump-width-string",
            "bump-amplitude-bool",
            "bumps-not-bumpspecs",
            "uniform-amplitude-string",
            "width-string",
            "center-none-entry",
            "mass-bool",
        ],
    )
    def test_ill_typed_field_rejected_when_built(self, build, field):
        # a string or bool would otherwise build, or fail later in a bare TypeError
        with pytest.raises(ValueError, match=field):
            build()

    def test_unread_fields_not_checked(self):
        # the union rule: a field the kind never reads may hold anything
        assert InitialData("uniform", width=-1.0, center=(math.nan, 0.0)).width == -1.0
        assert InitialData("from-file", path="u0.csv", amplitude=-1.0, bumps=[]).amplitude == -1.0

    def test_output_nonnegative_with_positive_mass(self):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        field, mass = build_initial_data(
            InitialData(kind="gaussian-bump", amplitude=0.5, width=0.03), dom
        )
        assert field.values.min() >= 0.0
        assert mass > 0.0


class TestClassifyRegime:
    def test_sublinear_any_coefficients(self):
        result = classify_regime(params_with(rho=0.7, chi=9.0), mass=5.0)
        assert result.regime is Regime.SUBLINEAR_GLOBAL
        assert result.theorem_applies
        assert result.critical_mass is None

    def test_sublinear_without_repulsion_is_outside_the_theorem(self):
        # The regime stands, but the proof's constants need xi > 0.
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=5.0, xi=0.0, rho=0.5)
        result = classify_regime(params, 10.0)
        assert result.regime is Regime.SUBLINEAR_GLOBAL
        assert not result.theorem_applies
        with pytest.raises(DomainError):
            compute_bounds(params, 10.0, 1.5, dom=DomainSpec((1.0, 1.0), (8, 8)))

    def test_repulsion_dominant(self):
        result = classify_regime(params_with(rho=1.0, chi=1.0, alpha=1.0, xi=2.0, gamma=1.0), 5.0)
        assert result.regime is Regime.REPULSION_DOMINANT
        assert not result.theorem_applies

    def test_supercritical_mass(self):
        result = classify_regime(params_with(rho=1.0, chi=2.0, xi=1.0), mass=20.0)
        assert result.regime is Regime.SUPERCRITICAL_MASS
        assert result.critical_mass == pytest.approx(FOUR_PI, rel=1e-15)

    def test_subcritical_mass(self):
        result = classify_regime(params_with(rho=1.0, chi=2.0, xi=1.0), mass=1.0)
        assert result.regime is Regime.SUBCRITICAL_MASS

    def test_critical_mass_knife_edge(self):
        params = params_with(rho=1.0, chi=2.0, xi=1.0)
        assert classify_regime(params, FOUR_PI).regime is Regime.CRITICAL_MASS
        assert classify_regime(params, FOUR_PI * (1 + 1e-10)).regime is Regime.CRITICAL_MASS
        assert classify_regime(params, FOUR_PI * (1 + 1e-8)).regime is Regime.SUPERCRITICAL_MASS
        assert classify_regime(params, FOUR_PI * (1 - 1e-8)).regime is Regime.SUBCRITICAL_MASS

    def test_no_repulsion_takes_critical_mass(self):
        # xi = 0: the threshold is 4 pi / (chi alpha), as critical_mass gives.
        params = params_with(rho=1.0, chi=2.0, xi=0.0)
        assert classify_regime(params, 1.0).critical_mass == critical_mass(2.0, 1.0, 0.0, 1.0) == 2.0 * math.pi
        assert classify_regime(params, 6.0).regime is Regime.SUBCRITICAL_MASS
        assert classify_regime(params, 2.0 * math.pi).regime is Regime.CRITICAL_MASS
        assert classify_regime(params, 7.0).regime is Regime.SUPERCRITICAL_MASS

    def test_no_attraction(self):
        # chi = 0: repulsion alone dominates, and with xi = 0 too nothing
        # drifts, which sits outside the taxonomy.
        assert classify_regime(params_with(rho=1.0, chi=0.0), 1.0).regime is Regime.REPULSION_DOMINANT
        result = classify_regime(params_with(rho=1.0, chi=0.0, xi=0.0), 1.0)
        assert result.regime is Regime.INDETERMINATE
        assert result.critical_mass is None

    def test_balanced_coefficients_indeterminate(self):
        result = classify_regime(params_with(rho=1.0), mass=2.0)
        assert result.regime is Regime.INDETERMINATE

    def test_higher_dimension_indeterminate(self):
        result = classify_regime(params_with(rho=1.0, chi=2.0, xi=1.0, dim=3), mass=2.0)
        assert result.regime is Regime.INDETERMINATE

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ZeroField):
            classify_regime(params_with(), mass=0.0)

    @given(
        scale=st.floats(min_value=0.01, max_value=100.0),
        mass=st.floats(min_value=0.1, max_value=100.0),
        chi=st.floats(min_value=0.1, max_value=10.0),
        xi=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rescaling_invariance(self, scale, mass, chi, xi):
        """Only the products chi*alpha and xi*gamma enter the taxonomy."""
        # keep clear of the exact-balance and critical-mass knife edges, where
        # one ulp of rounding in chi*scale/scale legitimately flips the class
        assume(abs(chi - xi) > 1e-6 * max(chi, xi))
        assume(abs(mass * (chi - xi) - FOUR_PI) > 1e-6 * FOUR_PI)
        base = params_with(rho=1.0, chi=chi, xi=xi)
        scaled = params_with(rho=1.0, chi=chi * scale, alpha=1.0 / scale, xi=xi, gamma=1.0)
        a = classify_regime(base, mass)
        b = classify_regime(scaled, mass)
        assert a.regime is b.regime


# A valid instance of each frozen value object attrep exports, with the names
# of its float fields; a tuple of floats counts once per entry. InitialData
# lists, per kind, only the fields that kind reads.
_BUMP = BumpSpec((0.5, 0.5), 0.1, 1.0)
VALUE_OBJECTS = [
    (params_with(), ("alpha", "beta", "gamma", "delta", "chi", "xi", "rho")),
    (DomainSpec((1.0, 1.0), (8, 8)), ("lengths",)),
    (StepperConfig(), ("dt_max", "cfl_safety", "dt_min")),
    (DiagnosticsConfig(ps=(2.0, 3.0)), ("ps",)),
    (_BUMP, ("center", "width", "amplitude")),
    (InitialData("uniform", amplitude=1.0, mass=1.0), ("amplitude", "mass")),
    (InitialData("gaussian-bump", center=(0.5, 0.5), mass=1.0), ("amplitude", "center", "width", "mass")),
    (InitialData("multi-bump", bumps=(_BUMP,), mass=1.0), ("mass",)),
    (InitialData("from-file", path="u0.csv", mass=1.0), ("mass",)),
]


def _non_finite_cases():
    for obj, names in VALUE_OBJECTS:
        label = type(obj).__name__ + (f"-{obj.kind}" if isinstance(obj, InitialData) else "")
        for name in names:
            value = getattr(obj, name)
            for index in range(len(value)) if isinstance(value, tuple) else (None,):
                for bad in (math.nan, math.inf, -math.inf):
                    leaf = name if index is None else f"{name}[{index}]"
                    yield pytest.param(obj, name, index, bad, id=f"{label}.{leaf}={bad}")


class TestNonFiniteRejected:
    def test_every_float_field_listed(self):
        listed = {}
        for obj, names in VALUE_OBJECTS:
            listed.setdefault(type(obj), set()).update(names)
        for cls, names in listed.items():
            assert names == {f.name for f in fields(cls) if "float" in str(f.type)}, cls.__name__

    @pytest.mark.parametrize("obj, name, index, bad", _non_finite_cases())
    def test_rejected_when_built(self, obj, name, index, bad):
        value = bad if index is None else getattr(obj, name)[:index] + (bad,) + getattr(obj, name)[index + 1 :]
        with pytest.raises((ValueError, SimulationError)):
            replace(obj, **{name: value})
