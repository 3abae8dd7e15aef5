"""End-to-end tests of the command-line interface and its exit-code contract."""

import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from credbond import BondSpec, MarketState, ModelParams, OptionSpec, cli
from credbond.cli import load_config, main
from credbond.errors import (
    ConfigError,
    CredBondError,
    DegenerateVariance,
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
            assert doc["diagnostics"]["L"] == 0.6
            if name == "put-option":
                assert doc["price"] == 0.0

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


def _assert_sweep_matches(sweep):
    """Same values, notes, z and x; price and w within 1e-15 Z."""
    cfg = _bench_config()
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
    # the sweep memo tells inputs apart by identity, so a point must share
    # every record it does not change with the config
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

    def test_fd_suite_within_roundoff_of_expiry(self, tmp_path):
        # no variance remains before T1: the options are their payoffs and
        # only the straight bond is checked against the FD oracle
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

    def test_deterministic_output(self, config_path):
        args = ["verify", "--config", config_path, "--suite", "mc-forward",
                "--seed", "42"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_workers_do_not_change_output(self, config_path):
        base = ["verify", "--config", config_path, "--suite", "mc-forward",
                "--seed", "42"]
        one = runner.invoke(main, base + ["--workers", "1"])
        four = runner.invoke(main, base + ["--workers", "4"])
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
