"""End-to-end tests of the command-line interface and its exit-code contract."""

import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credbond import (BondSpec, MarketState, ModelParams, OptionSpec, analytics,
                      cli, options, oracles)
from credbond.cli import load_config, main
from credbond.errors import (
    ConfigError,
    CredBondError,
    DegenerateVariance,
    InvalidExercise,
    NoBracket,
    NoConvergence,
)
from credbond.model import zcb_price

BENCH_DOC = {
    "model": {"theta": 1.0, "mu": 0.05, "s_r": 0.01, "s_V": 0.2, "rho": -0.3,
              "barrier_b": 0.6, "recovery_r": 0.4},
    "bond": {"maturity_T": 2.0},
    "option": {"expiry_T1": 1.0, "exercise_e": 0.9},
    "state": {"r": 0.05, "v": 1.0, "t": 0.0},
    "verify": {"paths": 20000, "steps_per_year": 100, "seed": 7,
               "grid_nx": 200, "grid_nt": 200},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BENCH_DOC))
    return str(path)


def make_config(tmp_path, mutate):
    doc = json.loads(json.dumps(BENCH_DOC))
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    return str(path)


runner = CliRunner()
# every field of the four parameter records, as (section, key)
RECORD_FIELDS = [(section, key)
                 for section in ("model", "bond", "state", "option")
                 for key in BENCH_DOC[section]]


class TestLoadConfig:
    def test_roundtrip(self, config_path):
        cfg = load_config(config_path)
        assert cfg.model.theta == 1.0
        assert cfg.bond.maturity_T == 2.0
        assert cfg.option.exercise_e == 0.9
        assert cfg.verify.paths == 20000

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.json")

    @pytest.mark.parametrize("section,key", RECORD_FIELDS)
    def test_missing_field_named(self, tmp_path, section, key):
        path = make_config(tmp_path, lambda d: d[section].pop(key))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{section}.{key}: missing required field"

    @pytest.mark.parametrize("section,key", RECORD_FIELDS)
    def test_non_numeric_field(self, tmp_path, section, key):
        path = make_config(tmp_path,
                           lambda d: d[section].update({key: "five percent"}))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (
            f"{section}.{key}: expected a number, got 'five percent'")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_option_section_optional(self, tmp_path):
        path = make_config(tmp_path, lambda d: d.pop("option"))
        assert load_config(path).option is None

    @pytest.mark.parametrize("section,key,value", [
        ("model", "mu", float("nan")),
        ("model", "s_r", float("inf")),
        ("state", "r", float("-inf")),
    ])
    def test_non_finite_field_named(self, tmp_path, section, key, value):
        path = make_config(tmp_path, lambda d: d[section].update({key: value}))
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(path)
        result = runner.invoke(main, ["price", "bond", "--config", path])
        assert result.exit_code == 2, result.output
        assert f"{section}.{key}" in result.output

    @pytest.mark.parametrize("key,value", [
        ("grid_nx", 2), ("grid_nt", 0), ("paths", 0), ("steps_per_year", 10),
        ("workers", 0),
    ])
    def test_verify_settings_below_engine_minimum(self, tmp_path, key, value):
        path = make_config(tmp_path, lambda d: d["verify"].update({key: value}))
        with pytest.raises(ConfigError, match=f"verify.{key}"):
            load_config(path)

    @pytest.mark.parametrize("doc,message", [
        ({k: v for k, v in BENCH_DOC.items() if k != "model"},
         "model: missing required section"),
        ({**BENCH_DOC, "bond": [2.0]}, "bond: expected an object"),
        ([BENCH_DOC], "top-level config must be a JSON object"),
        ({**BENCH_DOC, "model": {**BENCH_DOC["model"], "theta": 0}},
         "model: theta must be positive, got 0.0"),
    ], ids=["missing-section", "section-not-object", "top-level-array",
            "record-value-error"])
    def test_document_errors_named(self, tmp_path, doc, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == message
        result = runner.invoke(main, ["price", "bond", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == f"config error: {message}\n"


class TestPrice:
    def test_bond_price_json(self, config_path):
        result = runner.invoke(main, ["price", "bond", "--config", config_path])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["instrument"] == "bond"
        assert doc["price"] == pytest.approx(0.883315383594219, abs=1e-12)
        assert doc["diagnostics"]["z"] == pytest.approx(0.9048718709532549,
                                                        abs=1e-12)
        assert doc["config_echo"]["model"]["rho"] == -0.3

    @pytest.mark.parametrize("with_option", [True, False])
    def test_config_echo_is_the_parsed_records(self, tmp_path, with_option):
        path = make_config(
            tmp_path, lambda d: None if with_option else d.pop("option"))
        result = runner.invoke(main, ["price", "bond", "--config", path])
        assert result.exit_code == 0, result.output
        echo = json.loads(result.output)["config_echo"]
        cfg = load_config(path)
        sections = ["model", "bond", "state"] + ["option"] * with_option
        assert echo == {section: dataclasses.asdict(getattr(cfg, section))
                        for section in sections}
        assert echo == {section: BENCH_DOC[section] for section in sections}

    def test_all_instruments_price(self, config_path):
        for name in ("zcb", "bond", "put-option", "call-option",
                     "puttable", "callable"):
            result = runner.invoke(main, ["price", name, "--config", config_path])
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["price"] > 0.0

    def test_option_requires_section(self, tmp_path):
        path = make_config(tmp_path, lambda d: d.pop("option"))
        result = runner.invoke(main, ["price", "put-option", "--config", path])
        assert result.exit_code == 2

    def test_config_error_exit_2(self, tmp_path):
        path = make_config(tmp_path, lambda d: d["model"].pop("theta"))
        result = runner.invoke(main, ["price", "bond", "--config", path])
        assert result.exit_code == 2

    def test_domain_error_exit_3(self, tmp_path):
        path = make_config(tmp_path, lambda d: d["state"].update(v=0.1))
        result = runner.invoke(main, ["price", "bond", "--config", path])
        assert result.exit_code == 3
        assert "BelowBarrier" in result.output

    @pytest.mark.parametrize("error", [DegenerateVariance, NoBracket,
                                       NoConvergence])
    @pytest.mark.parametrize("command", ["price", "verify"])
    def test_other_library_error_exit_3(self, config_path, monkeypatch,
                                        error, command):
        import credbond.cli as cli_mod

        def failing(*args):
            raise error("forced")

        monkeypatch.setattr(cli_mod, "price_instrument", failing)
        monkeypatch.setattr(cli_mod, "run_verify", failing)
        args = ["bond"] if command == "price" else []
        result = runner.invoke(main, [command, *args, "--config", config_path])
        assert result.exit_code == 3, result.output
        assert error.__name__ in result.output

    def test_zero_remaining_variance_prices(self, tmp_path):
        def mutate(d):
            d["model"]["s_V"] = 0.0
            d["option"]["expiry_T1"] = 2.0 * (1.0 - 1e-6)
        path = make_config(tmp_path, mutate)
        for name in ("put-option", "call-option", "puttable", "callable"):
            result = runner.invoke(main, ["price", name, "--config", path])
            assert result.exit_code == 0, result.output
            doc = json.loads(result.output)
            # 2.7e-22 of variance remains after T1, through the rate factor
            assert 0.6 < doc["diagnostics"]["L"] < 0.6 * (1.0 + 1e-9)
            if name == "put-option":
                assert 0.0 <= doc["price"] <= 1e-50 * doc["diagnostics"]["z"]

    def test_zero_variance_straight_bond_prices(self, tmp_path):
        def mutate(d):
            d["model"]["s_V"] = 0.0
            d["state"]["t"] = 1.999999998
        path = make_config(tmp_path, mutate)
        for name in ("bond", "puttable", "callable"):
            result = runner.invoke(main, ["price", name, "--config", path])
            assert result.exit_code == 0, result.output
            doc = json.loads(result.output)
            assert doc["price"] == doc["diagnostics"]["z"]

    @pytest.mark.parametrize("name", ["put-option", "call-option",
                                      "puttable", "callable"])
    def test_roundoff_before_expiry_prices_as_at_expiry(self, tmp_path, name):
        prices = []
        for t in (math.nextafter(1.0, 0.0), 1.0):
            path = make_config(tmp_path, lambda d: d["state"].update(t=t))
            result = runner.invoke(main, ["price", name, "--config", path])
            assert result.exit_code == 0, result.output
            doc = json.loads(result.output)
            prices.append((doc["price"], doc["diagnostics"]["z"]))
        (price, z), (at_expiry, _) = prices
        assert abs(price - at_expiry) <= 1e-15 * z

    def test_unknown_instrument_rejected(self, config_path):
        result = runner.invoke(main, ["price", "swap", "--config", config_path])
        assert result.exit_code != 0


class TestSweep:
    def test_csv_shape(self, config_path):
        result = runner.invoke(main, ["sweep", "bond", "--config", config_path,
                                      "--axis", "V", "--lo", "0.7",
                                      "--hi", "1.3", "--n", "5"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "V,price,z,x,w,note"
        assert len(lines) == 6
        prices = [float(row.split(",")[1]) for row in lines[1:]]
        assert prices == sorted(prices)

    def test_defaulted_points_noted_not_fatal(self, config_path):
        result = runner.invoke(main, ["sweep", "bond", "--config", config_path,
                                      "--axis", "V", "--lo", "0.1",
                                      "--hi", "1.0", "--n", "4"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()[1:]
        notes = [row.split(",")[-1] for row in lines]
        assert "BelowBarrier" in notes
        assert notes[-1] == ""

    def test_exercise_axis(self, config_path):
        result = runner.invoke(main, ["sweep", "put-option",
                                      "--config", config_path,
                                      "--axis", "E", "--lo", "0.5",
                                      "--hi", "0.95", "--n", "4"])
        assert result.exit_code == 0
        prices = [float(r.split(",")[1])
                  for r in result.output.strip().splitlines()[1:]]
        assert prices == sorted(prices)

    def test_bad_n(self, config_path):
        result = runner.invoke(main, ["sweep", "bond", "--config", config_path,
                                      "--axis", "V", "--lo", "0.7",
                                      "--hi", "1.3", "--n", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("lo,hi", [("inf", "1"), ("0.7", "nan"),
                                       ("1e308", "-1e308")])
    def test_bounds_not_finite_exit_2(self, config_path, lo, hi):
        result = runner.invoke(main, ["sweep", "put-option",
                                      "--config", config_path, "--axis", "V",
                                      "--lo", lo, "--hi", hi, "--n", "5"])
        assert result.exit_code == 2, result.output
        assert "sweep bounds" in result.output

    @pytest.mark.parametrize("instrument", cli.INSTRUMENTS)
    def test_rates_beyond_the_float_range_noted(self, config_path, instrument):
        # Z overflows below r ~ -800 and underflows above r ~ 860
        result = runner.invoke(main, ["sweep", instrument,
                                      "--config", config_path, "--axis", "r",
                                      "--lo", "-1e10", "--hi", "1e10",
                                      "--n", "25"])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert len(rows) == 25
        for row in rows:
            assert row[5] == "DomainError" or (
                row[5] == "" and math.isfinite(float(row[1]))), row
        assert sum(row[5] == "DomainError" for row in rows) == 24

    @pytest.mark.parametrize("instrument", cli.INSTRUMENTS)
    def test_firm_values_near_the_float_limit(self, config_path, instrument):
        # at V = 1e308, x = V/Z is a float but x/B is not: W = 1; at
        # V = 1.7e308, V/Z is not a float
        result = runner.invoke(main, ["sweep", instrument,
                                      "--config", config_path, "--axis", "V",
                                      "--lo", "1e308", "--hi", "1.7e308",
                                      "--n", "2"])
        assert result.exit_code == 0, result.output
        near, beyond = (line.split(",")
                        for line in result.output.splitlines()[1:])
        assert near[5] == "" and math.isfinite(float(near[1]))
        if instrument in ("bond", "puttable", "callable"):
            assert float(near[4]) == 1.0
        assert beyond[5] == ("" if instrument == "zcb" else "DomainError")


def _per_point_rows(cfg, instrument, axis, lo, hi, n):
    """A sweep as price_instrument prices it, one point at a time."""
    rows = []
    for value in np.linspace(lo, hi, n).tolist():
        try:
            doc = cli.price_instrument(cli._with_axis(cfg, axis, value),
                                       instrument)
        except (CredBondError, ValueError) as exc:
            rows.append([repr(value), "", "", "", "", type(exc).__name__])
            continue
        diag = doc["diagnostics"]
        rows.append([repr(value), repr(doc["price"])]
                    + [repr(diag[k]) if k in diag else "" for k in "zxw"]
                    + [""])
    return rows


# Sweep ranges at the BENCH_DOC config (B = 0.6, R = 0.4, E = 0.9, T1 = 1,
# T = 2, v = 1): each crosses the barrier, T1 and T, E outside (R, 1),
# |rho| > 1, s_V = 0 or R >= 1, and its edges can fall on those points.
SWEEP_RANGES = {
    "r": (-0.5, 0.5, [0.0]),
    "V": (0.01, 3.0, [0.6 * 0.9048718709532549]),
    "t": (0.0, 2.5, [1.0, math.nextafter(1.0, 0.0), 2.0]),
    "E": (0.0, 1.5, [0.4, 1.0]),
    "B": (0.05, 1.5, [1.0]),
    "R": (-0.5, 1.5, [0.0, 1.0]),
    "rho": (-1.5, 1.5, [-1.0, 1.0]),
    "s_V": (-0.2, 0.8, [0.0]),
}


@st.composite
def _sweeps(draw):
    axis = draw(st.sampled_from(cli.SWEEP_AXES))
    lo, hi, points = SWEEP_RANGES[axis]
    end = st.one_of(st.floats(lo, hi), st.sampled_from(points))
    return (draw(st.sampled_from(cli.INSTRUMENTS)), axis, draw(end),
            draw(end), draw(st.integers(2, 13)))


def _bench_config():
    # built directly: Hypothesis runs a test many times per fixture
    return cli.RunConfig(model=ModelParams(**BENCH_DOC["model"]),
                         bond=BondSpec(**BENCH_DOC["bond"]),
                         state=MarketState(**BENCH_DOC["state"]),
                         option=OptionSpec(**BENCH_DOC["option"]))


def _assert_sweep_matches(sweep, cfg=None):
    """Same values, notes, z and x; price and w within 1e-15 Z."""
    cfg = cfg or _bench_config()
    got = cli.sweep_rows(cfg, *sweep)
    ref = _per_point_rows(cfg, *sweep)
    assert len(got) == len(ref)
    for row, want in zip(got, ref):
        assert [row[i] for i in (0, 2, 3, 5)] == [want[i] for i in (0, 2, 3, 5)]
        scale = 1e-15 * (float(want[2]) if want[2] else 1.0)
        for i in (1, 4):  # price, w
            assert (row[i] == "") == (want[i] == ""), (sweep, row, want)
            if want[i]:
                assert abs(float(row[i]) - float(want[i])) <= scale, (
                    sweep, row, want)


# the config field each sweep axis sets, as the README documents it
AXIS_FIELDS = {"r": ("state", "r"), "V": ("state", "v"), "t": ("state", "t"),
               "E": ("option", "exercise_e"), "B": ("model", "barrier_b"),
               "R": ("model", "recovery_r"), "rho": ("model", "rho"),
               "s_V": ("model", "s_V")}


@pytest.mark.parametrize("axis", cli.SWEEP_AXES)
def test_axis_sets_its_field_and_shares_the_rest(axis):
    # a sweep point rebuilds only the record its axis sets and takes every
    # other record from the config as it is
    cfg = _bench_config()
    section, key = AXIS_FIELDS[axis]
    point = cli._with_axis(cfg, axis, 0.123)
    for name in ("model", "bond", "state", "option", "verify"):
        if name == section:
            want = dataclasses.replace(getattr(cfg, name), **{key: 0.123})
            assert getattr(point, name) == want
        else:
            assert getattr(point, name) is getattr(cfg, name)
    assert tuple(AXIS_FIELDS) == cli.SWEEP_AXES


@pytest.mark.parametrize("axis,lo,hi,solves", [
    ("V", 0.7, 1.3, 1), ("r", -0.02, 0.12, 1), ("t", 0.0, 0.9, 1),
    ("E", 0.5, 0.95, 25)])
def test_boundary_solved_once_along_state_axes(monkeypatch, axis, lo, hi,
                                               solves):
    # L depends on no state variable: along r, V and t one solve serves every
    # point; along E each point has its own L
    calls = []
    solve = options.find_boundary_l

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(options, "find_boundary_l", counted)
    rows = cli.sweep_rows(_bench_config(), "put-option", axis, lo, hi, 25)
    assert [row[5] for row in rows] == [""] * 25
    assert len(calls) == solves


class TestSweepMatchesPerPoint:
    """sweep_rows prices in one array pass what price_instrument prices."""

    @given(_sweeps())
    @settings(max_examples=300, deadline=None)
    def test_drawn_sweeps(self, sweep):
        _assert_sweep_matches(sweep)

    @pytest.mark.parametrize("instrument", cli.INSTRUMENTS)
    @pytest.mark.parametrize("axis", cli.SWEEP_AXES)
    def test_every_instrument_and_axis(self, instrument, axis):
        lo, hi, _ = SWEEP_RANGES[axis]
        _assert_sweep_matches((instrument, axis, lo, hi, 21))

    @pytest.mark.parametrize("instrument", ["put-option", "puttable"])
    @pytest.mark.parametrize("axis", ["V", "rho"])
    def test_high_correlation(self, monkeypatch, instrument, axis):
        # at T1 = 1.9 of T = 2, delta_bar >= 0.925: the array form hands those
        # elements to the scalar binorm_cdf
        cfg = _bench_config()
        cfg = dataclasses.replace(
            cfg, option=dataclasses.replace(cfg.option, expiry_T1=1.9))
        rhos = []
        array_form = analytics.binorm_cdf_array

        def recorded(a, b, rho):
            rhos.append(np.abs(rho).max())
            return array_form(a, b, rho)

        monkeypatch.setattr(analytics, "binorm_cdf_array", recorded)
        lo, hi, _ = SWEEP_RANGES[axis]
        _assert_sweep_matches((instrument, axis, lo, hi, 21), cfg)
        assert max(rhos) >= 0.925


# One field of the README config set where Z, V/Z or the boundary L leaves
# the float range, or where e^u overflows on the way to L
FLOAT_RANGE_CASES = [
    ("state", "r", -1e4), ("model", "s_r", 1e3), ("model", "s_r", 1e150),
    ("model", "mu", -1e300), ("state", "t", -1e6), ("model", "mu", 1e300),
    ("bond", "maturity_T", 1e6), ("bond", "maturity_T", 1e300),
    *(("model", "s_V", s_v) for s_v in (18.0, 25.0, 40.0, 100.0, 1e3, 1e150)),
    ("state", "v", 1e308), ("state", "v", 1.7e308)]


# A volatility whose square overflows, for each instrument that squares it,
# and a remaining variance that puts L past ln(max float), for each
# instrument that needs L
SQUARE_AND_BRACKET_CASES = [
    *(("s_r", 1e160, name) for name in cli.INSTRUMENTS),
    *(("s_V", 1e160, name) for name in cli.INSTRUMENTS if name != "zcb"),
    *(("s_V", s_v, name) for s_v in (1e3, 1e150)
      for name in ("put-option", "call-option", "puttable", "callable"))]


class TestFloatRange:
    @pytest.mark.parametrize("key,value,instrument", SQUARE_AND_BRACKET_CASES)
    def test_domain_error_exit_3(self, tmp_path, key, value, instrument):
        path = make_config(tmp_path, lambda d: d["model"].update({key: value}))
        result = runner.invoke(main, ["price", instrument, "--config", path])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "DomainError" in result.output

    def test_variance_beyond_the_float_range_exit_3(self, tmp_path):
        # s_V ** 2 is finite but the variance to T, 2 s_V ** 2, is not; it
        # used to surface as a NaN norm_cdf argument
        path = make_config(tmp_path, lambda d: d["model"].update(s_V=1.2e154))
        result = runner.invoke(main, ["price", "bond", "--config", path])
        assert result.exit_code == 3, result.output
        assert "DomainError" in result.output
        assert "not finite" in result.output and "NaN" not in result.output

    @pytest.mark.parametrize("instrument", cli.INSTRUMENTS)
    @pytest.mark.parametrize("section,key,value", FLOAT_RANGE_CASES)
    def test_price_exits_0_or_3(self, tmp_path, section, key, value,
                                instrument):
        path = make_config(tmp_path, lambda d: d[section].update({key: value}))
        result = runner.invoke(main, ["price", instrument, "--config", path])
        assert result.exit_code in (0, 3), (result.output, result.exception)
        if result.exit_code == 0:
            assert math.isfinite(json.loads(result.output)["price"])

    @pytest.mark.parametrize("section,key,value", [
        ("state", "r", -1e4), ("model", "mu", 1e300)])
    def test_discount_bond_beyond_the_float_range_exit_3(self, tmp_path,
                                                         section, key, value):
        # Z would overflow, or underflow to 0
        path = make_config(tmp_path, lambda d: d[section].update({key: value}))
        result = runner.invoke(main, ["price", "zcb", "--config", path])
        assert result.exit_code == 3, result.output
        assert "DomainError" in result.output

    def test_bond_far_above_barrier_survives(self, tmp_path):
        # x/B overflows at V = 1e308: the firm cannot reach the barrier
        path = make_config(tmp_path, lambda d: d["state"].update(v=1e308))
        result = runner.invoke(main, ["price", "bond", "--config", path])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["diagnostics"]["w"] == 1.0
        assert doc["price"] == doc["diagnostics"]["z"]


# README configs where a ratio of the closed forms leaves the float range:
# V/B (the option's image term is inf * 0), x/B on the T1-payoff path, and
# (B/L)(B/x), which underflows to 0 under a log
RATIO_RANGE_CASES = {
    "v_over_b": {"model": {"barrier_b": 1e-10}, "state": {"v": 1e300}},
    "x_over_b": {"model": {"barrier_b": 1e-300, "s_V": 0.0, "s_r": 1e-300},
                 "state": {"r": 1000.0, "t": 0.9}},
    "image_ratio_underflows": {"model": {"s_V": 10.0}, "state": {"v": 1e300}},
}


def _ratio_range_config(tmp_path, case):
    def mutate(doc):
        for section, values in RATIO_RANGE_CASES[case].items():
            doc[section].update(values)
    return make_config(tmp_path, mutate)


class TestRatiosBeyondTheFloatRange:
    @pytest.mark.parametrize("case", RATIO_RANGE_CASES)
    def test_every_instrument_prices_within_bounds(self, tmp_path, case):
        path = _ratio_range_config(tmp_path, case)
        price = {}
        for instrument in cli.INSTRUMENTS:
            result = runner.invoke(main, ["price", instrument,
                                          "--config", path])
            assert result.exit_code == 0, (instrument, result.output)
            price[instrument] = json.loads(result.output)["price"]
            assert math.isfinite(price[instrument]), instrument
        cfg = load_config(path)
        z, e, recovery = (price["zcb"], cfg.option.exercise_e,
                          cfg.model.recovery_r)
        slack = 1.0 + 1e-12
        assert recovery * z <= price["bond"] <= z * slack
        assert 0.0 <= price["put-option"] <= (e - recovery) * z * slack
        assert 0.0 <= price["call-option"] <= (1.0 - e) * z * slack
        assert price["puttable"] == price["bond"] + price["put-option"]
        assert price["callable"] == price["bond"] - price["call-option"]

    @pytest.mark.parametrize("case", RATIO_RANGE_CASES)
    def test_parity_suite_passes(self, tmp_path, case):
        path = _ratio_range_config(tmp_path, case)
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "parity"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("instrument", cli.INSTRUMENTS)
    def test_sweep_matches_price_where_the_image_ratio_underflows(
            self, tmp_path, instrument):
        cfg = load_config(_ratio_range_config(tmp_path,
                                              "image_ratio_underflows"))
        _assert_sweep_matches((instrument, "V", 1e299, 1e300, 3), cfg)


@st.composite
def _box_docs(draw):
    """A config over the parameter box, its limits drawn on purpose:
    theta -> 0, |rho| = 1, s_V = 0, T1 -> T, x -> B+ (and below B),
    maturities down to 1e-12 and v up to 1.7e308."""
    def pick(limits, lo, hi):
        return draw(st.one_of(st.sampled_from(limits), st.floats(lo, hi)))

    model = {"theta": pick([1e-12, 1e-300], 1e-3, 5.0),
             "mu": draw(st.floats(-0.05, 0.1)),
             "s_r": pick([0.0], 0.0, 0.05), "s_V": pick([0.0], 0.0, 0.8),
             "rho": pick([-1.0, 1.0], -1.0, 1.0),
             "barrier_b": draw(st.floats(0.1, 0.95)),
             "recovery_r": draw(st.floats(0.0, 0.9))}
    maturity = pick([1e-12, 1e-9], 0.1, 10.0)
    expiry = maturity * pick([1.0 - 1e-12, 1e-12], 0.05, 0.95)
    recovery = model["recovery_r"]
    exercise = recovery + (1.0 - recovery) * pick([1e-12, 1.0 - 1e-12],
                                                  0.01, 0.99)
    t = expiry * pick([1.0, 0.0], 0.0, 1.0)
    r = draw(st.floats(-0.02, 0.15))
    try:
        z = zcb_price(r, t, maturity, ModelParams(**model))
    except (CredBondError, ValueError):  # the CLI reports these itself
        z = 1.0
    # x = V/Z a multiple of B, from below it to far above it, or V at the
    # float maximum
    ratio = pick([1.0 + 1e-15, 1.0 + 1e-9, 0.3], 0.3, 3.0)
    v = draw(st.one_of(st.just(min(model["barrier_b"] * ratio * z, 1.7e308)),
                       st.sampled_from([1.5e308, 1.7e308])))
    return {"model": model, "bond": {"maturity_T": maturity},
            "option": {"expiry_T1": expiry, "exercise_e": exercise},
            "state": {"r": r, "v": v, "t": t}}


class TestWholeBox:
    """The CLI's exit-code contract over the parameter box and its limits."""

    @given(_box_docs(), st.sampled_from(cli.INSTRUMENTS),
           st.sampled_from(cli.SWEEP_AXES))
    @settings(max_examples=100, deadline=None)
    # every scaled state below the barrier, and 1.1 v beyond the float range
    @example({**BENCH_DOC, "state": {"r": 0.05, "v": 0.3, "t": 0.0}},
             "bond", "V")
    @example({**BENCH_DOC, "state": {"r": 0.05, "v": 1.5e308, "t": 0.0}},
             "bond", "V")
    def test_price_sweep_and_parity(self, tmp_path_factory, doc, instrument,
                                    axis):
        path = tmp_path_factory.mktemp("box") / "run.json"
        path.write_text(json.dumps(doc))
        path = str(path)
        for name in cli.INSTRUMENTS:
            result = runner.invoke(main, ["price", name, "--config", path])
            assert result.exit_code in (0, 2, 3), (name, result.output)
            if result.exit_code == 0:
                assert math.isfinite(json.loads(result.output)["price"]), name
        section, key = AXIS_FIELDS[axis]
        value = doc[section][key]
        result = runner.invoke(main, [
            "sweep", instrument, "--config", path, "--axis", axis,
            "--lo", repr(0.9 * value), "--hi", repr(value), "--n", "3"])
        assert result.exit_code in (0, 2, 3), result.output
        if result.exit_code == 0:
            prices = [row.split(",")[1]
                      for row in result.output.splitlines()[1:]]
            assert all(math.isfinite(float(p)) for p in prices if p), prices
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "parity"])
        assert result.exit_code in (0, 2, 3, 4), result.output
        if result.exit_code == 0:
            assert json.loads(result.output)["checks"], result.output


# R = 0 and sqrt(I) = 5.7e-16: the bond's check points round onto the
# barrier, where the closed form is 0, and at 40 x 40 the ln x step is one
# ulp, so the nodes lie one or two ulps apart
ROUNDOFF_GRID_DOC = {
    "model": {"theta": 1e-12, "mu": 0.0, "s_r": 0.03125, "s_V": 0.0,
              "rho": -1.0, "barrier_b": 0.5, "recovery_r": 0.0},
    "bond": {"maturity_T": 1e-09},
    "option": {"expiry_T1": 9.99999999999e-10, "exercise_e": 1e-12},
    "state": {"r": 0.0, "v": 0.5000000000000006, "t": 0.0}}


class TestWholeBoxFd:
    """The fd suite's exit-code contract over the parameter box."""

    @given(_box_docs())
    @settings(max_examples=100, deadline=None)
    @example(ROUNDOFF_GRID_DOC)
    def test_fd_suite(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("box") / "run.json"
        path.write_text(json.dumps(
            {**doc, "verify": {"grid_nx": 40, "grid_nt": 40}}))
        result = runner.invoke(main, ["verify", "--config", str(path),
                                      "--suite", "fd"])
        assert result.exit_code in (0, 2, 3, 4), (result.output,
                                                  result.exception)
        if result.exit_code == 0:
            assert json.loads(result.output)["checks"], result.output


class TestCheckOrder:
    """A puttable or callable bond is checked in its option's order."""

    @pytest.mark.parametrize("instrument", cli.INSTRUMENTS[2:])
    def test_option_terms_before_the_bond(self, instrument):
        # E = R is an option fault, V below the barrier a bond fault
        cfg = dataclasses.replace(
            _bench_config(), state=MarketState(0.05, 0.1, 0.0),
            option=OptionSpec(expiry_T1=1.0, exercise_e=0.4))
        with pytest.raises(InvalidExercise):
            cli.price_instrument(cfg, instrument)
        rows = cli.sweep_rows(cfg, instrument, "V", 0.05, 0.5, 4)
        assert [row[5] for row in rows] == ["InvalidExercise"] * 4
        # the bond alone reports its own fault
        rows = cli.sweep_rows(cfg, "bond", "V", 0.05, 0.5, 4)
        assert [row[5] for row in rows] == ["BelowBarrier"] * 4


class TestVerify:
    def test_parity_suite_passes(self, config_path):
        result = runner.invoke(main, ["verify", "--config", config_path,
                                      "--suite", "parity"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["pass"] is True
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("t", [1.0, math.nextafter(1.0, 0.0)])
    def test_parity_suite_at_expiry(self, tmp_path, t):
        path = make_config(tmp_path, lambda d: d["state"].update(t=t))
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "parity"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        z = zcb_price(0.05, t, 2.0, ModelParams(**BENCH_DOC["model"]))
        assert len(report["checks"]) == 5
        for check in report["checks"]:
            assert check["pass"] and abs(check["oracle"]) <= 1e-9 * z

    def test_parity_suite_below_the_barrier_exit_3(self, tmp_path):
        # every scaled state is below the barrier too: the configured one
        # fails as price does, instead of a pass with no checks
        path = make_config(tmp_path, lambda d: d["state"].update(v=0.3))
        for args in (["price", "bond"], ["verify", "--suite", "parity"]):
            result = runner.invoke(main, [*args, "--config", path])
            assert result.exit_code == 3, result.output
            assert "BelowBarrier" in result.output

    def test_parity_suite_near_the_float_maximum(self, tmp_path):
        # 1.1 v and 1.25 v are inf: those two states are skipped
        path = make_config(tmp_path, lambda d: d["state"].update(v=1.5e308))
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "parity"])
        assert result.exit_code == 0, (result.output, result.exception)
        report = json.loads(result.output)
        assert [c["name"] for c in report["checks"]] == [
            f"parity gap at v={v}" for v in (1.5e308, 0.9 * 1.5e308,
                                              0.8 * 1.5e308)]
        assert report["pass"] is True

    def test_fd_suite_within_roundoff_of_expiry(self, tmp_path):
        # one ulp before T1 the FD window has no room for a step: only the
        # straight bond is checked against the FD oracle
        def mutate(d):
            d["state"]["t"] = math.nextafter(1.0, 0.0)
            d["verify"].update(grid_nx=800, grid_nt=800)
        path = make_config(tmp_path, mutate)
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "fd"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert [c["name"] for c in report["checks"]] == [
            "fd straight bond max relative error"]
        assert report["pass"] is True

    def test_fd_suite_with_steps_of_zero_length_exit_3(self, tmp_path):
        # 800 steps over the 1e-13 before T1 include steps of zero length
        def mutate(d):
            d["state"]["t"] = 0.9999999999999
            d["verify"].update(grid_nx=800, grid_nt=800)
        path = make_config(tmp_path, mutate)
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "fd"])
        assert result.exit_code == 3, result.output
        assert "ResolutionError" in result.output

    def test_mc_forward_suite(self, config_path):
        result = runner.invoke(main, ["verify", "--config", config_path,
                                      "--suite", "mc-forward"])
        assert result.exit_code == 0

    # x = B (1 + 1e-7): W = 2.4e-7.  In both engines every path scores its
    # bridge survival, positive on each, so the samples spread and the check
    # has power
    @pytest.mark.parametrize("suite,paths", [
        pytest.param("mc-forward", 16384, id="16384"),
        pytest.param("mc-forward", 100000, id="100000"),
        pytest.param("mc-spot", 16384, id="mc-spot-16384"),
    ])
    def test_mc_forward_suite_where_default_is_near_certain(self, tmp_path,
                                                            suite, paths):
        def mutate(d):
            d["state"]["v"] = 0.5429231768642653
            d["verify"].update(paths=paths, seed=1)
        path = make_config(tmp_path, mutate)
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", suite])
        assert result.exit_code == 0, result.output
        (check,) = json.loads(result.output)["checks"]
        assert check["pass"] and check["tolerance"] > 0.0

    def test_deterministic_output(self, config_path):
        args = ["verify", "--config", config_path, "--suite", "mc-forward",
                "--seed", "42"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_workers_do_not_change_output(self, config_path):
        # mc-spot's chunks each step in buffers of their own, here from 4
        # threads at once
        for suite in (["mc-forward"],
                      ["mc-spot", "--paths", "20000", "--steps-per-year", "50"]):
            base = ["verify", "--config", config_path, "--suite", *suite,
                    "--seed", "42"]
            one = runner.invoke(main, base + ["--workers", "1"])
            four = runner.invoke(main, base + ["--workers", "4"])
            assert one.exit_code == 0, one.output
            assert one.output == four.output

    @pytest.mark.parametrize("key,value", [
        ("grid_nx", 2), ("paths", 0), ("steps_per_year", 10),
    ])
    def test_engine_minimum_exit_2(self, tmp_path, key, value):
        path = make_config(tmp_path, lambda d: d["verify"].update({key: value}))
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "all"])
        assert result.exit_code == 2, result.output
        assert f"verify.{key}" in result.output

    @pytest.mark.parametrize("flag,value", [
        ("--paths", "0"), ("--steps-per-year", "10"), ("--workers", "0"),
    ])
    def test_override_below_engine_minimum_exit_2(self, config_path, flag,
                                                   value):
        result = runner.invoke(main, ["verify", "--config", config_path,
                                      "--suite", "mc-spot", flag, value])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("suite,state,model,error", [
        ("fd", {"t": 2.0}, {}, "InvalidTenor"),
        ("mc-spot", {"t": 2.0}, {}, "InvalidTenor"),
        ("mc-forward", {"t": 2.0, "v": 0.5}, {}, "BelowBarrier"),
        ("fd", {"t": 1.999999998}, {"s_V": 0.0}, "DegenerateVariance"),
    ])
    def test_oracle_domain_error_exit_3(self, tmp_path, suite, state, model,
                                        error):
        def mutate(d):
            d["state"].update(state)
            d["model"].update(model)
        path = make_config(tmp_path, mutate)
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", suite])
        assert result.exit_code == 3, result.output
        assert error in result.output

    def test_fd_suite_beyond_the_grid_exit_3(self, tmp_path):
        # ln(x/B) = 0.61 but the grid's 8 sqrt(I) is 1.1e-3 wide: the FD
        # option value at x would be the spline's extrapolation
        path = make_config(tmp_path, lambda d: d["model"].update(s_r=0.0,
                                                                 s_V=1e-4))
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "fd"])
        assert result.exit_code == 3, result.output
        assert "ResolutionError" in result.output
        assert "beyond the grid's reach" in result.output

    def test_fd_suite_far_node_beyond_float_range_exit_3(self, tmp_path):
        # s_V = 120: the grid's far node B e^{8 sqrt(I)} is B e^1358.  It is
        # refused before any exponential overflows, where pytest's
        # error::RuntimeWarning filter would make the run exit 1
        path = make_config(tmp_path, lambda d: d["model"].update(s_V=120.0))
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "fd"])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "DomainError" in result.output
        assert "far node" in result.output

    def test_fd_suite_grid_spacing_at_roundoff_exit_3(self, tmp_path):
        # the nodes' spacing is roundoff, not the step the solve takes: a
        # degenerate variance, where the checks used to read up to 1.0
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {**ROUNDOFF_GRID_DOC, "verify": {"grid_nx": 40, "grid_nt": 40}}))
        result = runner.invoke(main, ["verify", "--config", str(path),
                                      "--suite", "fd"])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "DegenerateVariance" in result.output

    def test_fd_suite_with_grid_start_below_barrier(self, tmp_path):
        # exp(ln B) rounds to just below B = 0.3025, the grid's first node
        def mutate(d):
            d["model"]["barrier_b"] = 0.3025
            d["verify"].update(grid_nx=800, grid_nt=800)
        path = make_config(tmp_path, mutate)
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "fd"])
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["checks"]) == 3

    def test_fd_options_equal_their_own_solves(self):
        # the put and call march as one two-payoff solve; each equals the
        # single-payoff solve it replaces, to the bit
        cfg = _bench_config()
        cfg.verify.grid_nx = cfg.verify.grid_nt = 60
        checks = {c["name"]: c for c in cli._verify_fd(cfg)}
        params, state, spec = cfg.model, cfg.state, cfg.option
        grid = oracles.GridConfig(nx=60, nt=60)
        bond = oracles.cn_solve(np.ones_like, 0.0, 2.0, 2.0, params, grid=grid)

        def fd_units(x, t):
            return (params.recovery_r + (1.0 - params.recovery_r)
                    * np.asarray(bond.interpolate(x, t)))

        for name, pricer in (("put", options.put_price),
                             ("call", options.call_price)):
            res = pricer(state, spec, cfg.bond, params)
            sol = oracles.cn_solve(
                lambda x: options._expiry_payoff(fd_units(x, 1.0), spec,
                                                 name == "call"),
                0.0, 1.0, 2.0, params, grid=grid)
            fd = float(sol.interpolate(state.v / res.z, 0.0)) * res.z
            assert checks[f"fd {name} option relative error"]["oracle"] == fd

    def test_fd_suite_fails_a_wrong_boundary(self, tmp_path, monkeypatch):
        # the FD payoffs come from the FD bond, not from L: an L 5% off
        # fails both option checks
        solve = options.find_boundary_l
        monkeypatch.setattr(options, "find_boundary_l",
                            lambda *args: 1.05 * solve(*args))
        path = make_config(
            tmp_path, lambda d: d["verify"].update(grid_nx=800, grid_nt=800))
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "fd"])
        assert result.exit_code == 4, result.output
        passed = {c["name"]: c["pass"]
                  for c in json.loads(result.output)["checks"]}
        assert passed == {"fd straight bond max relative error": True,
                          "fd put option relative error": False,
                          "fd call option relative error": False}

    def test_failure_exit_4(self, tmp_path, monkeypatch):
        # force a failing check to exercise the exit-code path
        import credbond.cli as cli_mod
        path = make_config(tmp_path, lambda d: None)

        def failing_suite(cfg):
            return [{"name": "forced", "closed_form": 0.0, "oracle": 1.0,
                     "tolerance": 0.0, "error": 1.0, "pass": False}]

        monkeypatch.setattr(cli_mod, "_verify_parity", failing_suite)
        result = runner.invoke(main, ["verify", "--config", path,
                                      "--suite", "parity"])
        assert result.exit_code == 4
