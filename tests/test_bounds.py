"""Closed-form constants of the energy inequality, their saturation behavior,
and the grid estimators for the two constants without closed forms.

Every closed-form value is checked against an independent high-precision
evaluation in tests/_oracles.py, frozen before this module was written.
"""

import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    assert_close_to_oracle,
    o_c1,
    o_c_hat,
    o_c_star,
    o_c_tilde,
    o_cbar_total,
    o_critical_mass,
    o_eta,
    o_sigma,
    list_ehrling_over_family,
    list_gn_over_family,
    list_test_family,
    o_theta,
    random_tuple_stream,
)
from attrep import DomainSpec, ModelParams, compute_bounds
from attrep import bounds as bounds_module
from attrep.bounds import (
    EhrlingSchedule,
    combine_bounds,
    critical_mass,
    ehrling_eta,
    ehrling_schedule,
    estimate_ehrling_constant,
    estimate_gn_constant,
    gn_absorption_constant,
    interpolation_exponent,
    sublinear_production_bound,
)
from attrep.errors import DomainError, EtaOutOfRange, RhoNotSublinear

# A unit square: compute_bounds reads |Omega| = 1 from it.
UNIT_SQUARE = DomainSpec((1.0, 1.0), (16, 16))


class TestInterpolationExponent:
    def test_p2_n2(self):
        assert interpolation_exponent(2.0, 2) == pytest.approx(0.5, rel=1e-15)

    def test_p3_n3(self):
        assert interpolation_exponent(3.0, 3) == pytest.approx(0.75, rel=1e-15)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(DomainError):
            interpolation_exponent(2.0, 1)

    def test_p_at_one_rejected(self):
        with pytest.raises(DomainError):
            interpolation_exponent(1.0, 2)

    @given(
        p=st.floats(min_value=1.001, max_value=50.0),
        n=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_strictly_inside_unit_interval(self, p, n):
        theta = interpolation_exponent(p, n)
        assert 0.0 < theta < 1.0
        assert_close_to_oracle(theta, o_theta(p, n), 1e-13, "theta")


class TestSublinearProductionBound:
    def test_unit_worked_value(self):
        # p = 2, rho = 1/2, all coefficients 1, unit volume:
        # prefactor 1/6, base 0.4, exponent -5
        value = sublinear_production_bound(2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert value == pytest.approx(16.276041666666668, rel=1e-13)

    def test_volume_linearity(self):
        one = sublinear_production_bound(2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0)
        two = sublinear_production_bound(2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-13)

    def test_vanishes_in_linear_production_limit(self):
        # base > 1 here, so the exponent -> -inf sends c1 to zero
        value = sublinear_production_bound(2.0, 1.0 - 1e-9, 1.0, 1.0, 3.0, 3.0, 1.0)
        assert value == 0.0

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.5])
    def test_needs_strictly_sublinear_rho(self, rho):
        with pytest.raises(RhoNotSublinear):
            sublinear_production_bound(2.0, rho, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_blows_up_toward_rho_one_when_base_small(self):
        # base < 1 flips the limit: the bound grows without control
        near = sublinear_production_bound(2.0, 0.999, 1.0, 1.0, 0.1, 0.1, 1.0)
        far = sublinear_production_bound(2.0, 0.5, 1.0, 1.0, 0.1, 0.1, 1.0)
        assert near > far

    def test_saturates_to_inf_not_overflow(self):
        value = sublinear_production_bound(2.0, 1.0 - 1e-12, 1.0, 1.0, 0.01, 0.01, 1.0)
        assert value == math.inf


class TestEhrlingSchedule:
    def test_unit_sigma(self):
        sched = ehrling_schedule(2.0, 1.0, 1.0, 1.0, 1.0)
        assert sched.sigma == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_unit_c_hat(self):
        sched = ehrling_schedule(2.0, 1.0, 1.0, 1.0, 1.0)
        assert sched.c_hat == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_unit_eta(self):
        # K = 27 * (4/3) / (64 * 2) = 9/32, eta = (1/3)/(9/32 + 2/3) = 32/91
        assert ehrling_eta(2.0, 1.0, 1.0, 1.0) == pytest.approx(32.0 / 91.0, rel=1e-13)

    def test_unit_c_tilde(self):
        sched = ehrling_schedule(2.0, 1.0, 1.0, 1.0, 1.0)
        assert sched.c_tilde == pytest.approx(100.0 / 27.0, rel=1e-13)

    def test_c_tilde_linear_in_ehrling_estimate(self):
        base = ehrling_schedule(2.0, 1.0, 1.0, 1.0, 1.0)
        scaled = ehrling_schedule(2.0, 1.0, 1.0, 1.0, 2.5)
        assert scaled.c_tilde == pytest.approx(2.5 * base.c_tilde, rel=1e-14)
        assert scaled.eta == base.eta

    def test_eta_always_below_half(self):
        for spec in random_tuple_stream(seed=5, count=50):
            try:
                eta = ehrling_eta(spec["p"], spec["gamma"], spec["xi"], spec["delta"])
            except EtaOutOfRange:
                continue
            assert 0.0 < eta < 0.5

    def test_is_plain_dataclass(self):
        sched = ehrling_schedule(2.0, 1.0, 1.0, 1.0, 1.0)
        assert isinstance(sched, EhrlingSchedule)
        assert set(sched.__dataclass_fields__) == {"sigma", "c_hat", "eta", "c_tilde"}


class TestGnAbsorption:
    def test_unit_worked_value(self):
        # theta = 1/2, inner term 1/2: 2 * (0.5 * 0.5 + 1) = 2.5
        assert gn_absorption_constant(2.0, 2, 1.0, 1.0) == pytest.approx(2.5, rel=1e-13)

    def test_vanishes_with_mass(self):
        assert gn_absorption_constant(2.0, 2, 1e-200, 1.0) < 1e-300

    def test_monotone_in_mass(self):
        small = gn_absorption_constant(2.0, 2, 0.5, 1.0)
        large = gn_absorption_constant(2.0, 2, 2.0, 1.0)
        assert 0.0 < small < large

    def test_mass_must_be_positive(self):
        with pytest.raises(DomainError):
            gn_absorption_constant(2.0, 2, 0.0, 1.0)


class TestCombineBounds:
    def test_trivial_assembly(self):
        cbar, total = combine_bounds(1.0, 2.0, 1.0, 2.0, 2.5)
        assert cbar == pytest.approx(3.0, rel=1e-15)
        assert total == pytest.approx(5.5, rel=1e-15)

    def test_mass_power(self):
        cbar, _ = combine_bounds(0.0, 1.0, 2.0, 2.0, 0.0)
        assert cbar == pytest.approx(8.0, rel=1e-14)


class TestCriticalMass:
    def test_attraction_dominant_value(self):
        assert critical_mass(2.0, 1.0, 1.0, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_balance_gives_none(self):
        assert critical_mass(1.0, 1.0, 1.0, 1.0) is None

    def test_repulsion_dominant_gives_none(self):
        assert critical_mass(1.0, 1.0, 2.0, 3.0) is None

    def test_scales_inversely_with_net_attraction(self):
        base = critical_mass(2.0, 1.0, 1.0, 1.0)
        doubled = critical_mass(3.0, 1.0, 1.0, 1.0)
        assert doubled == pytest.approx(base / 2.0, rel=1e-14)

    def test_depends_only_on_products(self):
        a = critical_mass(2.0, 3.0, 1.0, 1.0)
        b = critical_mass(3.0, 2.0, 1.0, 1.0)
        assert a == b


class TestCriticalMassSensitivities:
    """chi and xi range as in ModelParams: zero switches a drift off."""

    def test_no_repulsion(self):
        assert critical_mass(2.0, 1.0, 0.0, 1.0) == 2.0 * math.pi

    def test_no_attraction_gives_none(self):
        assert critical_mass(0.0, 1.0, 1.0, 1.0) is None
        assert critical_mass(0.0, 1.0, 0.0, 1.0) is None

    @pytest.mark.parametrize(
        "chi, alpha, xi, gamma",
        [
            (-1.0, 1.0, 0.0, 1.0),
            (1.0, 1.0, -1e-300, 1.0),
            (math.inf, 1.0, 0.0, 1.0),
            (1.0, 1.0, math.nan, 1.0),
            (1.0, 0.0, 0.0, 1.0),
            (1.0, 1.0, 0.0, -1.0),
            (1.0, math.inf, 0.0, 1.0),
        ],
    )
    def test_out_of_range_rejected(self, chi, alpha, xi, gamma):
        with pytest.raises(DomainError):
            critical_mass(chi, alpha, xi, gamma)


class TestAgainstOracle:
    """Random parameter tuples against the frozen high-precision oracle."""

    def test_constant_pipeline(self):
        skipped = 0
        for spec in random_tuple_stream(seed=99, count=150):
            p, n, rho = spec["p"], spec["n"], spec["rho"]
            al, ch, ga, xi, de = (
                spec["alpha"],
                spec["chi"],
                spec["gamma"],
                spec["xi"],
                spec["delta"],
            )
            m, vol = spec["m"], spec["volume"]
            c_gn, c_e = spec["c_gn"], spec["c_e"]

            theta = interpolation_exponent(p, n)
            assert_close_to_oracle(theta, o_theta(p, n), 1e-12, "theta")

            c1 = sublinear_production_bound(p, rho, al, ch, ga, xi, vol)
            assert_close_to_oracle(c1, o_c1(p, rho, al, ch, ga, xi, vol), 1e-12, "c1")

            try:
                eta = ehrling_eta(p, ga, xi, de)
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

            crit = critical_mass(ch, al, xi, ga)
            ocrit = o_critical_mass(ch, al, xi, ga)
            if ocrit is None:
                assert crit is None
            else:
                assert_close_to_oracle(crit, ocrit, 1e-12, "critical_mass")
        assert skipped < 15


class TestEstimators:
    def test_gn_at_least_constant_field_ratio(self, unit_square_64=None):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        assert estimate_gn_constant(dom, 2.0) >= 1.0

    def test_gn_sees_small_domain_scaling(self):
        # on a volume-1/4 domain the constant field alone forces C >= 2
        dom = DomainSpec((0.5, 0.5), (64, 64))
        assert estimate_gn_constant(dom, 2.0) >= 2.0

    def test_gn_deterministic(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        assert estimate_gn_constant(dom, 2.0) == estimate_gn_constant(dom, 2.0)

    def test_ehrling_at_least_constant_field_requirement(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        eta = 0.3
        assert estimate_ehrling_constant(dom, eta, 2.0) >= 1.0 - eta

    def test_ehrling_grows_as_eta_shrinks(self):
        dom = DomainSpec((1.0, 1.0), (64, 64))
        tight = estimate_ehrling_constant(dom, 0.05, 2.0)
        loose = estimate_ehrling_constant(dom, 0.3, 2.0)
        assert tight > loose

    def test_estimates_stable_under_refinement(self):
        values = [
            estimate_ehrling_constant(DomainSpec((1.0, 1.0), (n, n)), 0.05, 2.0)
            for n in (64, 128, 256)
        ]
        for a, b in zip(values[:-1], values[1:]):
            assert abs(a - b) / b < 1e-2
        gn = [estimate_gn_constant(DomainSpec((1.0, 1.0), (n, n)), 2.0) for n in (64, 128)]
        assert abs(gn[0] - gn[1]) / gn[1] < 1e-2

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.6, -0.1])
    def test_ehrling_eta_range_enforced(self, eta):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        with pytest.raises(EtaOutOfRange):
            estimate_ehrling_constant(dom, eta, 2.0)


class TestComputeBounds:
    def test_unit_report(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        report = compute_bounds(params, 1.0, 2.0, dom=UNIT_SQUARE, cgn=1.0, ce=1.0)
        assert report.theta == pytest.approx(0.5, rel=1e-14)
        assert report.c1 == pytest.approx(16.276041666666668, rel=1e-13)
        assert report.sigma == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert report.c_hat == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert report.eta == pytest.approx(32.0 / 91.0, rel=1e-13)
        assert report.c_tilde == pytest.approx(100.0 / 27.0, rel=1e-13)
        assert report.c_star == pytest.approx(2.5, rel=1e-13)
        assert report.cbar == pytest.approx(report.c1 + report.c_tilde, rel=1e-13)
        assert report.c_star_total == pytest.approx(report.c_star + report.cbar, rel=1e-13)
        assert report.critical_mass is None

    def test_attraction_dominant_carries_threshold(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=2.0, xi=1.0, rho=0.5)
        report = compute_bounds(params, 1.0, 2.0, dom=UNIT_SQUARE, cgn=1.0, ce=1.0)
        assert report.critical_mass == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_estimates_filled_from_domain(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        dom = DomainSpec((1.0, 1.0), (64, 64))
        report = compute_bounds(params, 1.0, 2.0, dom=dom)
        assert report.cgn >= 1.0
        assert report.ce >= 1.0 - report.eta
        assert report.cgn == estimate_gn_constant(dom, 2.0)
        assert report.ce == estimate_ehrling_constant(dom, report.eta, 2.0)

    def test_test_family_built_once(self, monkeypatch):
        built = []
        original = bounds_module._test_family

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(bounds_module, "_test_family", counting)
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        compute_bounds(params, 1.0, 2.0, dom=DomainSpec((1.0, 1.0), (16, 16)))
        assert len(built) == 1

    def test_linear_production_has_no_c1(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=1.0)
        with pytest.raises(RhoNotSublinear):
            compute_bounds(params, 1.0, 2.0, dom=UNIT_SQUARE, cgn=1.0, ce=1.0)

    def test_needs_domain_or_volume(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        with pytest.raises(DomainError):
            compute_bounds(params, 1.0, 2.0)

    def test_overflowing_domain_area_rejected(self):
        # (width * scale) ** 2 of the family's bumps would overflow a float
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=5.0, xi=0.1, rho=0.5)
        dom = DomainSpec((1e160, 1e160), (16, 16))
        with pytest.raises(DomainError, match="domain volume"):
            compute_bounds(params, 100.0, 1.5, dom=dom)

    def test_higher_dimension_needs_explicit_estimates(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5, dim=3)
        with pytest.raises(DomainError):
            compute_bounds(params, 1.0, 2.0, dom=UNIT_SQUARE)
        report = compute_bounds(params, 1.0, 2.0, dom=UNIT_SQUARE, cgn=1.2, ce=0.9)
        assert report.n == 3
        assert report.theta == pytest.approx(o_theta(2.0, 3), rel=1e-13)

    def test_provenance_labels(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        report = compute_bounds(params, 1.0, 2.0, dom=UNIT_SQUARE, cgn=1.0, ce=1.0)
        assert report.provenance == {
            "theta": "exact-formula",
            "c1": "exact-formula",
            "sigma": "exact-formula",
            "c_hat": "exact-formula",
            "eta": "exact-formula",
            "c_tilde": "estimated-constant",
            "cbar": "estimated-constant",
            "c_star": "estimated-constant",
            "c_star_total": "estimated-constant",
            "critical_mass": "exact-formula",
        }

    def test_to_dict_keys(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        report = compute_bounds(params, 1.0, 2.0, dom=UNIT_SQUARE, cgn=1.0, ce=1.0)
        d = report.to_dict()
        assert list(d) == [
            "p",
            "n",
            "m",
            "theta",
            "c1",
            "sigma",
            "c_hat",
            "eta",
            "c_tilde",
            "cbar",
            "c_star",
            "c_star_total",
            "critical_mass",
            "cgn_estimate",
            "ce_estimate",
            "provenance",
        ]
        assert d["cgn_estimate"] == 1.0

    @given(m=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=30, deadline=None)
    def test_total_monotone_in_mass(self, m):
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        small = compute_bounds(params, m, 2.0, dom=UNIT_SQUARE, cgn=1.0, ce=1.0)
        large = compute_bounds(params, 2.0 * m, 2.0, dom=UNIT_SQUARE, cgn=1.0, ce=1.0)
        assert large.c_star_total > small.c_star_total


# (lengths, cells, p, eta), eta None for TestStreamedFamily.PARAMS' own. In
# the last three the Ehrling estimate is set by a member that is neither the
# constant nor a corner bump: family member 4 (cos(pi x / lx)), member 1
# (cos(pi y / ly)) and member 23, the widest quarter-point bump.
STREAMED_CASES = [
    pytest.param((1.0, 1.0), (64, 64), 1.5, None, id="unit-64-p1.5"),
    pytest.param((2.0, 1.0), (48, 24), 1.5, None, id="2x1-48x24-p1.5"),
    pytest.param((1.0, 1.0), (64, 64), 3.0, None, id="unit-64-p3"),
    pytest.param((2.0, 1.0), (48, 24), 3.0, None, id="2x1-48x24-p3"),
    pytest.param((0.4, 0.05), (128, 16), 3.0, 0.005, id="cosine-4-wins"),
    pytest.param((0.3, 1.2), (16, 64), 6.0, 0.05, id="cosine-1-wins"),
    pytest.param((12.0, 3.0), (64, 16), 2.0, 0.49, id="bump-23-wins"),
]


class TestStreamedFamily:
    """The single streamed pass over the 28 structured members against the
    list-based, one-estimator-per-constant reference in _oracles, run on the
    52-member family with 24 seeded random fields (seed 2024) that the
    estimators used to draw: same arithmetic per member, same order of the
    max, and no random member sets a maximum, so every constant must match
    exactly."""

    PARAMS = ModelParams(1.0, 1.0, 1.0, 1.0, chi=5.0, xi=0.1, rho=0.5)
    M = 100.0

    @staticmethod
    def reference(dom, eta, p):
        family = list_test_family(dom, seed=2024, n_random=24)
        return list_gn_over_family(family, dom, p), list_ehrling_over_family(family, dom, eta, p)

    @classmethod
    def params_at(cls, p, eta):
        """PARAMS, with delta set when eta is given so that their eta at p is
        eta to rounding: eta = 1 / (2 + (3 delta / 4)^{p+1} p^{p-1})."""
        if eta is None:
            return cls.PARAMS
        delta = 4.0 / 3.0 * ((1.0 / eta - 2.0) / p ** (p - 1.0)) ** (1.0 / (p + 1.0))
        return replace(cls.PARAMS, delta=delta)

    @pytest.mark.parametrize("lengths, cells, p, eta", STREAMED_CASES)
    def test_compute_bounds_matches_reference(self, lengths, cells, p, eta):
        dom = DomainSpec(lengths, cells)
        params = self.params_at(p, eta)
        report = compute_bounds(params, self.M, p, dom=dom)
        if eta is not None:
            assert report.eta == pytest.approx(eta, rel=1e-12)
        cgn, ce = self.reference(dom, report.eta, p)
        assert (report.cgn, report.ce) == (cgn, ce)
        assert report == compute_bounds(params, self.M, p, dom=dom, cgn=cgn, ce=ce)

        ce_only = compute_bounds(params, self.M, p, dom=dom, cgn=1.3)
        assert ce_only.ce == ce
        assert ce_only == compute_bounds(params, self.M, p, dom=dom, cgn=1.3, ce=ce)
        cgn_only = compute_bounds(params, self.M, p, dom=dom, ce=0.7)
        assert cgn_only.cgn == cgn
        assert cgn_only == compute_bounds(params, self.M, p, dom=dom, cgn=cgn, ce=0.7)

    @pytest.mark.parametrize("lengths, cells, p, eta", STREAMED_CASES)
    def test_public_estimators_match_reference(self, lengths, cells, p, eta):
        dom = DomainSpec(lengths, cells)
        if eta is None:
            eta = ehrling_eta(p, self.PARAMS.gamma, self.PARAMS.xi, self.PARAMS.delta)
        cgn, ce = self.reference(dom, eta, p)
        assert estimate_gn_constant(dom, p) == cgn
        assert estimate_ehrling_constant(dom, eta, p) == ce

    def test_holds_a_few_fields_at_a_time(self):
        dom = DomainSpec((1.0, 1.0), (128, 128))
        compute_bounds(self.PARAMS, self.M, 1.5, dom=dom)  # warm
        tracemalloc.start()
        try:
            compute_bounds(self.PARAMS, self.M, 1.5, dom=dom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field_bytes = 128 * 128 * 8
        # A list-based family of 28 members held at once would be ~33 fields.
        assert peak < 12 * field_bytes, f"peak {peak / field_bytes:.1f} fields"
