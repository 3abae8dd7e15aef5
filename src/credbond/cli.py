"""Command-line interface: JSON-configured pricing, CSV sweeps, verification.

Exit codes: 0 ok, 2 config error, 3 domain error, 4 verification failure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Optional

import click
import numpy as np

from . import bond as bond_mod
from . import model, options
from .errors import (
    BelowBarrier,
    ConfigError,
    CredBondError,
    DomainError,
    InvalidExercise,
    InvalidTenor,
)

# instrument -> (holds the straight bond, its option leg: None, "put" or
# "call"); a bond that holds a call is short it
_LEGS = {"zcb": (False, None), "bond": (True, None),
         "put-option": (False, "put"), "call-option": (False, "call"),
         "puttable": (True, "put"), "callable": (True, "call")}
INSTRUMENTS = tuple(_LEGS)
_DOMAIN_ERRORS = (BelowBarrier, InvalidExercise, InvalidTenor, DomainError)


@dataclass
class VerifySettings:
    paths: int = 100_000
    steps_per_year: int = 500
    seed: int = 0
    grid_nx: int = 800
    grid_nt: int = 800
    workers: int = 1


@dataclass
class RunConfig:
    model: model.ModelParams
    bond: bond_mod.BondSpec
    state: model.MarketState
    option: Optional[options.OptionSpec] = None
    verify: VerifySettings = field(default_factory=VerifySettings)


# config section -> (record class, its field names), in RunConfig order;
# only the option section may be absent
_RECORDS = {section: (cls, tuple(f.name for f in fields(cls)))
            for section, cls in (("model", model.ModelParams),
                                 ("bond", bond_mod.BondSpec),
                                 ("state", model.MarketState),
                                 ("option", options.OptionSpec))}
# sweep axis -> (section, field) that it sets
_AXES = {"r": ("state", "r"), "V": ("state", "v"), "t": ("state", "t"),
         "E": ("option", "exercise_e"), "B": ("model", "barrier_b"),
         "R": ("model", "recovery_r"), "rho": ("model", "rho"),
         "s_V": ("model", "s_V")}
SWEEP_AXES = tuple(_AXES)
# What _with_axis rebuilds a point from: the config's records as a tuple,
# and per axis (the swept record's place in that tuple, a reader of its field
# values, the index of the field the axis sets)
_CONFIG_PARTS = attrgetter(*(f.name for f in fields(RunConfig)))
_SWEPT = {axis: (list(_RECORDS).index(section),
                 attrgetter(*_RECORDS[section][1]),
                 _RECORDS[section][1].index(key))
          for axis, (section, key) in _AXES.items()}

# The engines' own minimums, checked at load so that a bad setting is a
# config error naming its field.
_VERIFY_MINIMUMS = {"paths": 1, "steps_per_year": 50, "grid_nx": 4,
                    "grid_nt": 1, "workers": 1}


def _require(section: dict, path: str, key: str, kind=float):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = section[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
    return kind(value)


def _check_verify(settings: VerifySettings) -> None:
    for key, least in _VERIFY_MINIMUMS.items():
        value = getattr(settings, key)
        if value < least:
            raise ConfigError(
                f"verify.{key}: must be at least {least}, got {value}")


def _section(doc: dict, name: str, required: bool = True) -> Optional[dict]:
    if name not in doc:
        if required:
            raise ConfigError(f"{name}: missing required section")
        return None
    if not isinstance(doc[name], dict):
        raise ConfigError(f"{name}: expected an object")
    return doc[name]


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be a JSON object")

    records = {}
    for name, (cls, keys) in _RECORDS.items():
        section = _section(doc, name, required=name != "option")
        if section is None:
            continue
        try:
            records[name] = cls(*[_require(section, name, key) for key in keys])
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}")

    v = _section(doc, "verify", required=False) or {}
    verify = VerifySettings(**{f.name: _require(v, "verify", f.name, int)
                               for f in fields(VerifySettings) if f.name in v})
    _check_verify(verify)
    return RunConfig(**records, verify=verify)


def _need_option(cfg: RunConfig, instrument: str) -> options.OptionSpec:
    if cfg.option is None:
        raise ConfigError(
            f"option: section is required for instrument {instrument!r}")
    return cfg.option


def price_instrument(cfg: RunConfig, instrument: str) -> dict:
    """Price one instrument, returning its price and diagnostics."""
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    holds_bond, leg = _LEGS[instrument]
    spec = None if leg is None else _need_option(cfg, instrument)
    diagnostics = {}
    if not (holds_bond or leg):  # the zero-coupon bond
        price = model.zcb_price(state.r, state.t, bond_spec.maturity_T, params)
        diagnostics["z"] = price
    if holds_bond:
        res = bond_mod.bond_price(state, bond_spec, params)
        price = res.price
        diagnostics.update(z=res.z, x=res.x, w=res.w,
                           total_variance=res.total_variance)
    if leg and not (holds_bond and state.t > spec.expiry_T1):
        pricer = options.call_price if leg == "call" else options.put_price
        res = pricer(state, spec, bond_spec, params)
        if holds_bond:
            price += -res.price if leg == "call" else res.price
        else:
            price = res.price
            diagnostics.update(z=res.z, x=state.v / res.z,
                               d_values=res.dvalues)
        diagnostics["L"] = res.boundary_l
    return {"instrument": instrument, "price": price,
            "diagnostics": diagnostics}


def _echo(cfg: RunConfig) -> dict:
    """The config's records, section by section, as price reports them."""
    return {name: {key: getattr(record, key) for key in keys}
            for name, (_, keys) in _RECORDS.items()
            if (record := getattr(cfg, name)) is not None}


def _with_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """cfg with the field that a sweep axis sets replaced by value.

    Only the swept record is rebuilt, from the same field values: the point
    shares every other record, and every other value, with cfg.
    """
    if axis not in _SWEPT:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    slot, read, index = _SWEPT[axis]
    parts = list(_CONFIG_PARTS(cfg))
    record = parts[slot]
    if record is None:
        raise ConfigError(f"{_AXES[axis][0]}: section required to sweep {axis}")
    values = list(read(record))
    values[index] = value
    parts[slot] = type(record)(*values)
    return RunConfig(*parts)


class _Memo(dict):
    """fn(*args) evaluated once per distinct (fn, args), over one sweep.

    Arguments are told apart by identity, which costs less than hashing the
    parameter records: _with_axis rebuilds only the record an axis changes,
    so the points of a sweep share every unchanged input object.  Each entry
    keeps its arguments alive, so no id is reused while the memo lives.
    """

    def __call__(self, fn, *args):
        key = (fn, *map(id, args))
        entry = self.get(key)
        if entry is None:
            entry = self[key] = (fn(*args), args)
        return entry[0]


def _sweep_job(cfg: RunConfig, instrument: str, memo: _Memo):
    """The checked scalar inputs of one sweep point, for the array pass.

    (z, x, straight, option): straight = (B, R, variance over [t, T]) for the
    straight bond in bond/puttable/callable; option = (v, B, R, E, L, total,
    first) for an option priced by its closed form; each None where the
    point has no such part.  None for a point that price_instrument prices
    alone: a zero-coupon bond, a bond at maturity, or an option at its
    expiry payoff.  Raises what price_instrument raises, in the same order.
    """
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    holds_bond, leg = _LEGS[instrument]
    if not (holds_bond or leg):  # the zero-coupon bond
        return None
    spec = None if leg is None else _need_option(cfg, instrument)
    straight = None
    if holds_bond:
        inputs = bond_mod._bond_inputs(state, bond_spec, params, memo)
        if inputs is None:
            return None
        z, x, variance = inputs
        straight = (params.barrier_b, params.recovery_r, variance)
        if leg is None or state.t > spec.expiry_T1:
            return z, x, straight, None
    z, x, boundary_l, variances = options._option_inputs(
        state, spec, bond_spec, params, memo)
    if variances is None:
        return None
    return z, x, straight, (state.v, params.barrier_b, params.recovery_r,
                            spec.exercise_e, boundary_l, *variances)


def _sweep_prices(instrument: str, jobs: list) -> tuple[list, list]:
    """Price and straight-bond W of each _sweep_job job, in one array pass."""
    holds_bond, leg = _LEGS[instrument]
    z, x = np.array([job[:2] for job in jobs]).T
    price, w = np.zeros(len(jobs)), [None] * len(jobs)
    if holds_bond:
        b, recovery, variance = np.array([job[2] for job in jobs]).T
        units, w = bond_mod._bond_units(x, b, recovery, variance)
        price, w = units * z, w.tolist()
    priced = [i for i, job in enumerate(jobs) if job[3] is not None]
    if priced:
        v, b, recovery, e, boundary_l, total, first = np.array(
            [jobs[i][3] for i in priced]).T
        d = options._d_arguments(x[priced], boundary_l, b, total, first,
                                 options._Array)
        option = options._option_value(leg == "call", z[priced], v, b, e,
                                       recovery, d, options._Array)
        price[priced] += -option if holds_bond and leg == "call" else option
    return price.tolist(), w


def _row(value: float, price: float, z=None, x=None, w=None) -> list[str]:
    return [repr(value), repr(price), "" if z is None else repr(z),
            "" if x is None else repr(x), "" if w is None else repr(w), ""]


def sweep_rows(cfg: RunConfig, instrument: str, axis: str,
               lo: float, hi: float, n: int) -> list[list[str]]:
    """CSV rows (axis_value, price, z, x, w, note) for a parameter sweep.

    Each point is checked, and its z, variances and boundary L found, on the
    scalar path, each once per distinct input; then all the points are priced
    in one array pass.  Rows and notes are those of price_instrument point by
    point, prices and w to 1e-15 Z.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if n < 2:
        raise ConfigError("sweep needs n >= 2 points")
    memo = _Memo()
    rows, jobs, slots = [], [], []
    for value in np.linspace(lo, hi, n).tolist():
        try:
            point = _with_axis(cfg, axis, value)
            job = _sweep_job(point, instrument, memo)
            if job is None:
                doc = price_instrument(point, instrument)
                diag = doc["diagnostics"]
                rows.append(_row(value, doc["price"], diag.get("z"),
                                 diag.get("x"), diag.get("w")))
            else:
                jobs.append(job)
                slots.append((len(rows), value))
                rows.append(None)
        except (CredBondError, ValueError) as exc:
            rows.append([repr(value), "", "", "", "", type(exc).__name__])
    if jobs:
        for (i, value), job, price, w in zip(slots, jobs,
                                             *_sweep_prices(instrument, jobs)):
            rows[i] = _row(value, price, job[0], job[1], w)
    return rows


def _verify_fd(cfg: RunConfig) -> list[dict]:
    from . import oracles
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    grid = oracles.GridConfig(nx=cfg.verify.grid_nx, nt=cfg.verify.grid_nt)
    T = bond_spec.maturity_T
    checks = []

    sol = oracles.cn_solve(np.ones_like, state.t, T, T, params, grid=grid)
    total_var = model.cum_variance(state.t, T, T, params)
    xs = params.barrier_b * np.exp(
        np.linspace(0.15, 5.0, 12) * math.sqrt(total_var))
    recovery = params.recovery_r
    worst = 0.0
    for tt in np.linspace(state.t, state.t + 0.9 * (T - state.t), 8):
        closed = bond_mod._unit_value(xs, tt, T, params)
        fd = recovery + (1.0 - recovery) * np.asarray(sol.interpolate(xs, tt))
        worst = max(worst, float(np.max(np.abs(fd - closed) / closed)))
    checks.append(_check("fd straight bond max relative error", 0.0, worst, 1e-4))

    if cfg.option is not None:
        spec = cfg.option
        T1 = spec.expiry_T1
        # where no variance remains before T1 the options are their payoffs,
        # as the pricers take them, and the FD window is too narrow to step
        if (state.t < T1 and model.cum_variance(state.t, T1, T, params)
                > model._MIN_VARIANCE):
            pres = options.put_price(state, spec, bond_spec, params)
            cres = options.call_price(state, spec, bond_spec, params)

            def payoff(call):
                return lambda x: options._expiry_payoff(
                    x, pres.boundary_l, spec, bond_spec, params, call)

            psol = oracles.cn_solve(payoff(False), state.t, T1, T, params,
                                    grid=grid)
            csol = oracles.cn_solve(payoff(True), state.t, T1, T, params,
                                    grid=grid)
            x0 = state.v / pres.z
            fd_put = float(psol.interpolate(x0, state.t)) * pres.z
            fd_call = float(csol.interpolate(x0, state.t)) * cres.z
            scale = max(abs(pres.price), 1e-3 * pres.z)
            checks.append(_check("fd put option relative error", pres.price,
                                 fd_put, 1e-3, scale=scale))
            scale = max(abs(cres.price), 1e-3 * cres.z)
            checks.append(_check("fd call option relative error", cres.price,
                                 fd_call, 1e-3, scale=scale))
    return checks


def _check(name: str, closed: float, oracle: float, tol: float,
           scale: float = 1.0) -> dict:
    err = abs(oracle - closed) / scale
    return {"name": name, "closed_form": closed, "oracle": oracle,
            "tolerance": tol, "error": err, "pass": bool(err <= tol)}


def _verify_mc_forward(cfg: RunConfig) -> list[dict]:
    from . import oracles
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    v = cfg.verify
    res = bond_mod.bond_price(state, bond_spec, params)
    est = oracles.mc_forward(res.x, state.t, bond_spec.maturity_T, params,
                             v.paths, seed=v.seed, workers=v.workers)
    return [_check("mc-forward straight bond |diff| <= 3 se", res.price,
                   est.mean * res.z, 3.0 * est.std_error * res.z)]


def _verify_mc_spot(cfg: RunConfig) -> list[dict]:
    from . import oracles
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    v = cfg.verify
    res = bond_mod.bond_price(state, bond_spec, params)
    est = oracles.mc_spot(state, bond_spec, None, params, v.paths,
                          steps_per_year=v.steps_per_year, seed=v.seed,
                          workers=v.workers)
    return [_check("mc-spot straight bond |diff| <= 3 se", res.price,
                   est.mean, 3.0 * est.std_error)]


def _verify_parity(cfg: RunConfig) -> list[dict]:
    if cfg.option is None:
        raise ConfigError("option: section required for the parity suite")
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    checks = []
    for bump in (1.0, 0.9, 1.1, 0.8, 1.25):
        st = model.MarketState(r=state.r, v=state.v * bump, t=state.t)
        try:
            gap = options.put_call_parity_gap(st, cfg.option, bond_spec, params)
            z = model.zcb_price(st.r, st.t, bond_spec.maturity_T, params)
        except _DOMAIN_ERRORS:
            continue
        checks.append(_check(f"parity gap at v={st.v}", 0.0, gap, 1e-9 * z))
    return checks


def run_verify(cfg: RunConfig, suite: str) -> dict:
    suites = {"fd": _verify_fd, "mc-forward": _verify_mc_forward,
              "mc-spot": _verify_mc_spot, "parity": _verify_parity}
    if suite == "all":
        selected = list(suites)
    elif suite in suites:
        selected = [suite]
    else:
        raise ConfigError(f"unknown verify suite {suite!r}")
    checks = []
    for name in selected:
        checks.extend(suites[name](cfg))
    return {"suite": suite, "checks": checks,
            "pass": bool(all(c["pass"] for c in checks))}


def _fail(exc: CredBondError) -> None:
    """Exit 2 on a config error and 3 on any other, naming it on stderr."""
    if isinstance(exc, ConfigError):
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
               err=True)
    sys.exit(3)


@click.group()
def main() -> None:
    """Two-factor structural pricing of credit-risky bonds and bond options."""


@main.command("price")
@click.argument("instrument", type=click.Choice(INSTRUMENTS))
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="JSON run configuration.")
def cmd_price(instrument: str, config_path: str) -> None:
    """Price one instrument at the configured market state."""
    try:
        cfg = load_config(config_path)
        doc = price_instrument(cfg, instrument)
        doc["config_echo"] = _echo(cfg)
    except CredBondError as exc:
        _fail(exc)
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


@main.command("sweep")
@click.argument("instrument", type=click.Choice(INSTRUMENTS))
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--axis", required=True, type=click.Choice(SWEEP_AXES))
@click.option("--lo", required=True, type=float)
@click.option("--hi", required=True, type=float)
@click.option("--n", required=True, type=int)
def cmd_sweep(instrument: str, config_path: str, axis: str,
              lo: float, hi: float, n: int) -> None:
    """Sweep one variable, emitting CSV on standard output."""
    try:
        cfg = load_config(config_path)
        rows = sweep_rows(cfg, instrument, axis, lo, hi, n)
    except CredBondError as exc:
        _fail(exc)
    click.echo(f"{axis},price,z,x,w,note")
    for row in rows:
        click.echo(",".join(row))


@main.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--suite", default="all", show_default=True,
              type=click.Choice(("fd", "mc-forward", "mc-spot", "parity", "all")))
@click.option("--seed", default=None, type=int,
              help="Override the config seed.")
@click.option("--paths", default=None, type=int,
              help="Override the config path count.")
@click.option("--steps-per-year", default=None, type=int,
              help="Override the config step density.")
@click.option("--workers", default=None, type=int,
              help="Monte-Carlo worker threads (results are independent of this).")
def cmd_verify(config_path: str, suite: str,
               **overrides: Optional[int]) -> None:
    """Run oracle comparisons against the closed forms; exit 4 on failure."""
    try:
        cfg = load_config(config_path)
        for key, value in overrides.items():  # seed, paths, steps_per_year, workers
            if value is not None:
                setattr(cfg.verify, key, value)
        _check_verify(cfg.verify)
        report = run_verify(cfg, suite)
    except CredBondError as exc:
        _fail(exc)
    click.echo(json.dumps(report, indent=2, sort_keys=True))
    if not report["pass"]:
        sys.exit(4)


if __name__ == "__main__":
    main()
