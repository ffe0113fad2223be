"""Sampling, rate backfill, CSV layout, and the two bound-consistency checks."""

import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from _oracles import assert_close_to_oracle, grad_energy, hand_state, lp_norm_p, mp_energy
from attrep import DomainSpec, Field, ModelParams
from attrep.diagnostics import (
    AbsorptiveReport,
    DiagnosticsConfig,
    DiagnosticsRecord,
    backfill_rate_estimates,
    check_absorptive_bound,
    check_energy_inequality,
    diagnostics_header,
    sample,
    write_diagnostics_csv,
)
from attrep.errors import InsufficientSamples, MismatchedP, NonFiniteField
from attrep.grid import integrate
from attrep.stepper import StepperConfig, initial_state, run, stable_dt, step


PARAMS = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)


def make_state(u, params=PARAMS):
    return initial_state(u, params)


def exponent_checks():
    """The one place that takes energy exponents, as a function of ps:
    DiagnosticsConfig (sample reads them from one)."""
    return (lambda ps: DiagnosticsConfig(ps=ps),)


def synthetic_record(t, e, g, p=2.0):
    return DiagnosticsRecord(
        t=t,
        mass=1.0,
        u_min=0.0,
        u_max=1.0,
        energies={p: e},
        grad_energies={p: g},
        v_max=1.0,
        w_max=1.0,
        dedt_estimate=math.nan,
        rhs_bound=math.nan,
    )


class TestDiagnosticsConfig:
    def test_defaults(self):
        cfg = DiagnosticsConfig()
        assert cfg.ps == (2.0,)
        assert cfg.every == 10

    def test_p_must_exceed_one(self):
        # NaN fails every comparison, so p <= 1 alone would let it through,
        # and integral |u|^inf overflows in a sample of a non-uniform density.
        for check in exponent_checks():
            for ps in ((1.0,), (2.0, 1.0), (math.nan,), (math.inf,), (2.0, math.nan)):
                with pytest.raises(ValueError, match="p > 1") as err:
                    check(ps)
                assert str(tuple(ps)) in str(err.value)

    def test_needs_an_exponent(self):
        for check in exponent_checks():
            with pytest.raises(ValueError):
                check(())

    def test_interval_at_least_one(self):
        # 2.5 would sample at steps 0, 5, 10, ... and True at every step.
        for every in (0, -1, 2.5, 2.0, True, False, "2", None):
            with pytest.raises(ValueError, match="sample interval"):
                DiagnosticsConfig(every=every)
        assert DiagnosticsConfig(every=np.int64(3)).every == 3

    def test_exponents_are_real_numbers(self):
        # a string would be iterated and each character read as an exponent
        for check in exponent_checks():
            for ps in ("23", ("3",), (2.0, True), (2.0, None)):
                with pytest.raises(ValueError, match="real number"):
                    check(ps)

    def test_ints_coerced_to_floats(self):
        assert DiagnosticsConfig(ps=(2,)).ps == (2.0,)

    @pytest.mark.parametrize("ps", [2.0, 2, None])
    def test_bare_exponent_rejected(self, ps):
        # ps is a collection; a bare number is not read as one exponent
        with pytest.raises(ValueError, match=r"^ps must be a collection of real numbers"):
            DiagnosticsConfig(ps=ps)

    @pytest.mark.parametrize("ps", [(2.0, 2.0), (2.0, 2), (3.0, 2.0, 3)])
    def test_repeated_exponent_rejected(self, ps):
        for check in exponent_checks():
            with pytest.raises(ValueError, match="each exponent must appear once") as err:
                check(ps)
            assert str(tuple(float(p) for p in ps)) in str(err.value)


class TestSample:
    def test_uniform_one(self, unit_square_16):
        state = make_state(Field.full(unit_square_16, 1.0))
        rec = sample(state, PARAMS, DiagnosticsConfig(ps=(2.0,)))
        assert rec.t == 0.0
        assert rec.mass == pytest.approx(1.0, rel=1e-14)
        assert rec.u_min == 1.0
        assert rec.u_max == 1.0
        assert rec.energies[2.0] == pytest.approx(1.0, rel=1e-14)
        assert rec.grad_energies[2.0] == 0.0
        assert math.isnan(rec.dedt_estimate)
        assert math.isnan(rec.rhs_bound)

    def test_uniform_two_cubed(self, unit_square_16):
        state = make_state(Field.full(unit_square_16, 2.0))
        rec = sample(state, PARAMS, DiagnosticsConfig(ps=(3.0,)))
        assert rec.energies[3.0] == pytest.approx(8.0, rel=1e-14)

    def test_energy_against_precision_oracle(self, rng):
        dom = DomainSpec((1.0, 1.0), (24, 24))
        values = rng.uniform(0.0, 2.0, size=dom.cells)
        state = make_state(Field(values, dom))
        rec = sample(state, PARAMS, DiagnosticsConfig(ps=(2.0, 1.5)))
        for p in (2.0, 1.5):
            assert_close_to_oracle(rec.energies[p], mp_energy(values, dom.h, p), 1e-12, f"E_{p}")

    def test_true_min_reported_but_powers_clamped(self, unit_square_16):
        values = np.ones(unit_square_16.cells)
        values[0, 0] = -1e-14
        state = hand_state(Field(values, unit_square_16))
        rec = sample(state, PARAMS, DiagnosticsConfig(ps=(1.5,)))
        assert rec.u_min == -1e-14
        assert math.isfinite(rec.energies[1.5])

    def test_pure_function_of_state(self, unit_square_16, rng):
        state = make_state(Field(rng.uniform(0.1, 1.0, size=unit_square_16.cells), unit_square_16))
        a = sample(state, PARAMS, DiagnosticsConfig(ps=(2.0,)))
        b = sample(state, PARAMS, DiagnosticsConfig(ps=(2.0,)))
        assert a == b

    def test_bits_match_public_functions(self, unit_square_16, rng):
        # sample sums through the kernels that the checked wrappers (the test
        # oracles lp_norm_p and grad_energy, and integrate) call after their
        # scans; the values are the same bits.
        values = rng.uniform(0.0, 2.0, size=unit_square_16.cells)
        values[2, 3] = -1e-14
        state = make_state(Field(values, unit_square_16))
        ps = (2.0, 1.5, 3.0)
        rec = sample(state, PARAMS, DiagnosticsConfig(ps=ps))
        clamped = Field(np.maximum(values, 0.0), unit_square_16)
        for p in ps:
            assert rec.energies[p].hex() == lp_norm_p(clamped, p).hex()
            root = Field(np.power(clamped.values, p / 2.0), unit_square_16)
            assert rec.grad_energies[p].hex() == grad_energy(root).hex()
        assert rec.mass.hex() == integrate(state.u).hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_density_rejected(self, unit_square_16, bad):
        values = np.ones(unit_square_16.cells)
        values[5, 5] = bad
        state = hand_state(Field(values, unit_square_16))
        with pytest.raises(NonFiniteField):
            sample(state, PARAMS, DiagnosticsConfig(ps=(2.0,)))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_power_rejected(self, unit_square_16):
        # u^{p/2} = 1e400 overflows at p = 4; at p = 3 it is 1e300 and finite,
        # but u^3 and the squared face differences of u^{3/2} overflow.
        values = np.ones(unit_square_16.cells)
        values[5, 5] = 1e200
        state = hand_state(Field(values, unit_square_16))
        with pytest.raises(NonFiniteField):
            sample(state, PARAMS, DiagnosticsConfig(ps=(3.0,)))
        with pytest.raises(NonFiniteField):
            sample(state, PARAMS, DiagnosticsConfig(ps=(4.0,)))

    def test_signal_maxima_recorded(self, unit_square_16):
        state = make_state(Field.full(unit_square_16, 4.0))
        rec = sample(state, PARAMS, DiagnosticsConfig(ps=(2.0,)))
        # constant density 4: v = sqrt(4) = 2, w = 4 for unit coefficients
        assert rec.v_max == pytest.approx(2.0, rel=1e-12)
        assert rec.w_max == pytest.approx(4.0, rel=1e-12)


class TestBackfill:
    def test_forward_differences(self):
        records = [
            synthetic_record(0.0, 4.0, 1.0),
            synthetic_record(0.5, 3.0, 1.0),
            synthetic_record(1.0, 2.5, 1.0),
        ]
        out = backfill_rate_estimates(records, 2.0)
        assert out[0].dedt_estimate == pytest.approx(-2.0)
        assert out[1].dedt_estimate == pytest.approx(-1.0)
        assert math.isnan(out[2].dedt_estimate)

    def test_input_list_not_mutated(self):
        records = [synthetic_record(0.0, 4.0, 1.0), synthetic_record(1.0, 2.0, 1.0)]
        backfill_rate_estimates(records, 2.0)
        assert math.isnan(records[0].dedt_estimate)

    def test_empty_ok(self):
        assert backfill_rate_estimates([], 2.0) == []


class TestEnergyInequality:
    def test_decaying_series_passes(self):
        # lhs = -2 each pair; rhs = -2*G + cbar = -2 + 1 = -1; -2 <= -1 + tol
        records = [synthetic_record(float(i), 4.0 - 2.0 * i, 1.0) for i in range(4)]
        report = check_energy_inequality(records, 2.0, cbar=1.0)
        assert report.n_pairs == 3
        assert report.n_ok == 3
        assert report.fraction_ok == 1.0

    def test_growth_beyond_bound_fails(self):
        records = [synthetic_record(0.0, 1.0, 1.0), synthetic_record(1.0, 100.0, 1.0)]
        report = check_energy_inequality(records, 2.0, cbar=1.0)
        assert report.n_ok == 0

    def test_midpoint_gradient_sampling(self):
        # rhs uses the mean of the two gradient terms: with G = (0, 4) the
        # midpoint is 2, rhs = -2*2 + 0 = -4, tol = 0.2; lhs = -4.1 passes
        # while the endpoint value G = 4 alone would give rhs = -8 and fail
        records = [synthetic_record(0.0, 4.1, 0.0), synthetic_record(1.0, 0.0, 4.0)]
        report = check_energy_inequality(records, 2.0, cbar=0.0)
        assert report.n_ok == 1

    def test_uniform_steady_run_saturates(self):
        dom = DomainSpec((1.0, 1.0), (16, 16))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        result = run(
            make_state(Field.full(dom, 1.0), params),
            params,
            StepperConfig(),
            1.0,
            diagnostics=DiagnosticsConfig(every=1),
        )
        report = check_energy_inequality(result.records, 2.0, cbar=1.0)
        assert report.fraction_ok == 1.0

    def test_needs_two_samples(self):
        with pytest.raises(InsufficientSamples):
            check_energy_inequality([synthetic_record(0.0, 1.0, 1.0)], 2.0, cbar=1.0)

    def test_needs_positive_dt_pair(self):
        records = [synthetic_record(1.0, 1.0, 1.0), synthetic_record(1.0, 1.0, 1.0)]
        with pytest.raises(InsufficientSamples):
            check_energy_inequality(records, 2.0, cbar=1.0)

    def test_missing_exponent_rejected(self):
        records = [synthetic_record(0.0, 1.0, 1.0), synthetic_record(1.0, 1.0, 1.0)]
        with pytest.raises(MismatchedP):
            check_energy_inequality(records, 3.0, cbar=1.0)


class TestAbsorptiveBound:
    def test_ratio_arithmetic(self):
        records = [synthetic_record(0.0, 2.0, 1.0), synthetic_record(1.0, 6.0, 1.0)]
        report = check_absorptive_bound(records, 2.0, e0=2.0, c_star_total=12.0)
        assert report.max_energy == 6.0
        assert report.bound == 12.0
        assert report.max_ratio == 0.5

    def test_initial_energy_can_dominate(self):
        records = [synthetic_record(0.0, 5.0, 1.0)]
        report = check_absorptive_bound(records, 2.0, e0=5.0, c_star_total=1.0)
        assert report.bound == 5.0
        assert report.max_ratio == 1.0

    def test_empty_series_rejected(self):
        with pytest.raises(InsufficientSamples):
            check_absorptive_bound([], 2.0, e0=1.0, c_star_total=1.0)

    def test_report_is_plain_data(self):
        report = AbsorptiveReport(max_energy=1.0, bound=4.0)
        assert report.max_ratio == 0.25


class TestPureDiffusionDissipation:
    def test_e2_monotone_under_zero_drift(self):
        # with chi = xi = 0 the density follows the heat stencil, so E_2
        # cannot increase by more than rounding per step
        dom = DomainSpec((1.0, 1.0), (32, 32))
        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=0.0, xi=0.0, rho=0.5)
        x, y = dom.cell_centers()
        r2 = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2
        state = make_state(Field(1e-3 + np.exp(-r2 / (2 * 0.1**2)), dom), params)
        cfg = StepperConfig()
        dt = stable_dt(state, params, cfg)
        energies = [sample(state, params, DiagnosticsConfig(ps=(2.0,))).energies[2.0]]
        for _ in range(200):
            state = step(state, params, cfg, dt)
            energies.append(sample(state, params, DiagnosticsConfig(ps=(2.0,))).energies[2.0])
        diffs = np.diff(energies)
        assert (diffs <= 1e-12 * max(energies)).all()


class TestCsvLayout:
    def test_header_for_two_exponents(self):
        assert (
            diagnostics_header((2.0, 1.5))
            == "t,mass,u_min,u_max,E_2,E_1.5,gradE_2,gradE_1.5,v_max,w_max,dEdt,rhs_bound"
        )

    def test_header_written_even_without_records(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_diagnostics_csv([], (2.0,), path)
        assert path.read_text() == "t,mass,u_min,u_max,E_2,gradE_2,v_max,w_max,dEdt,rhs_bound\n"

    def test_values_roundtrip_at_17_digits(self, tmp_path):
        rec = synthetic_record(1.0 / 3.0, math.pi, 2.0 / 7.0)
        rec = dc_replace(rec, dedt_estimate=-1.25)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv([rec], (2.0,), path)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        assert float(fields[0]) == 1.0 / 3.0
        assert float(fields[4]) == math.pi
        assert float(fields[5]) == 2.0 / 7.0
        assert float(fields[8]) == -1.25
        assert fields[9] == "nan"

    def test_trailing_newline_and_determinism(self, tmp_path):
        records = [synthetic_record(0.0, 1.0, 0.5), synthetic_record(0.25, 0.9, 0.4)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_diagnostics_csv(records, (2.0,), p1)
        write_diagnostics_csv(records, (2.0,), p2)
        text = p1.read_text()
        assert text.endswith("\n")
        assert not text.endswith("\n\n")
        assert text == p2.read_text()

    def test_row_per_record(self, tmp_path):
        records = [synthetic_record(float(i), 1.0, 0.0) for i in range(5)]
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(records, (2.0,), path)
        assert len(path.read_text().splitlines()) == 6


class TestBoundsWiring:
    def test_rhs_bound_formula(self, unit_square_16):
        from attrep import compute_bounds

        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        report = compute_bounds(params, 1.0, 2.0, dom=unit_square_16, cgn=1.0, ce=1.0)
        state = make_state(Field.full(unit_square_16, 1.0))
        rec = sample(state, PARAMS, DiagnosticsConfig(ps=(2.0,), bounds=report))
        # uniform state has zero gradient term, so the bound is just cbar
        assert rec.rhs_bound == pytest.approx(report.cbar, rel=1e-12)

    def test_config_rejects_foreign_bounds(self, unit_square_16):
        from attrep import compute_bounds

        params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
        report = compute_bounds(params, 1.0, 3.0, dom=unit_square_16, cgn=1.0, ce=1.0)
        with pytest.raises(MismatchedP):
            DiagnosticsConfig(ps=(2.0,), bounds=report)
