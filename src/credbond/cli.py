"""Command-line interface: JSON-configured pricing, CSV sweeps, verification.

Exit codes: 0 ok, 2 config error, 3 domain error, 4 verification failure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import NamedTuple, Optional

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

# instrument -> (holds the straight bond, its option leg: None, or whether
# it is the call rather than the put); a bond that holds a call is short it
_LEGS = {"zcb": (False, None), "bond": (True, None),
         "put-option": (False, False), "call-option": (False, True),
         "puttable": (True, False), "callable": (True, True)}
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
    if kind is int and value != int(value):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return kind(value)


def _check_verify(settings: VerifySettings) -> None:
    for key, least in _VERIFY_MINIMUMS.items():
        value = getattr(settings, key)
        if value < least:
            raise ConfigError(
                f"verify.{key}: must be at least {least}, got {value}")


def _section(doc: dict, name: str, keys: tuple, required: bool = True):
    if name not in doc:
        if required:
            raise ConfigError(f"{name}: missing required section")
        return None
    if not isinstance(doc[name], dict):
        raise ConfigError(f"{name}: expected an object")
    if unknown := [key for key in doc[name] if key not in keys]:
        raise ConfigError(f"{name}.{unknown[0]}: unknown field")
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
    if unknown := [name for name in doc if name not in (*_RECORDS, "verify")]:
        raise ConfigError(f"{unknown[0]}: unknown section")

    records = {}
    for name, (cls, keys) in _RECORDS.items():
        section = _section(doc, name, keys, required=name != "option")
        if section is None:
            continue
        try:
            records[name] = cls(*[_require(section, name, key) for key in keys])
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}")

    keys = tuple(f.name for f in fields(VerifySettings))
    v = _section(doc, "verify", keys, required=False) or {}
    verify = VerifySettings(**{key: _require(v, "verify", key, int)
                               for key in keys if key in v})
    _check_verify(verify)
    return RunConfig(**records, verify=verify)


def _need_option(cfg: RunConfig, use: str) -> options.OptionSpec:
    if cfg.option is None:
        raise ConfigError(f"option: section required for {use}")
    return cfg.option


def price_instrument(cfg: RunConfig, instrument: str) -> dict:
    """Price one instrument, returning its price and diagnostics.

    An option is options._option_price, as put_price and call_price are.
    A puttable or callable bond is options._bond_with_option: up to T1 it is
    checked in its option's order, and its straight bond is priced from the
    z, x and variance that its option carries.
    """
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    holds_bond, call = _LEGS[instrument]
    leg = call is not None
    spec = _need_option(cfg, f"instrument {instrument!r}") if leg else None
    diagnostics = {}
    straight = option = None
    if holds_bond and leg:
        price, straight, option = options._bond_with_option(
            state, spec, bond_spec, params, call)
    elif holds_bond:
        straight = bond_mod.bond_price(state, bond_spec, params)
        price = straight.price
    elif leg:
        option = options._option_price(state, spec, bond_spec, params, call)
        price = option.price
    else:  # the zero-coupon bond
        price = model.zcb_price(state.r, state.t, bond_spec.maturity_T, params)
        diagnostics["z"] = price
    if straight is not None:
        diagnostics.update(z=straight.z, x=straight.x, w=straight.w,
                           total_variance=straight.total_variance)
    elif option is not None:
        diagnostics.update(z=option.z, x=option.x, d_values=option.dvalues)
    if option is not None:
        diagnostics["L"] = option.boundary_l
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
    slot, read, index = _SWEPT[axis]
    parts = list(_CONFIG_PARTS(cfg))
    record = parts[slot]
    values = list(read(record))
    values[index] = value
    parts[slot] = type(record)(*values)
    return RunConfig(*parts)


class _Alone(NamedTuple):
    """A sweep point that price_instrument prices: its row's price, z, x
    and w, and L = 0."""

    price: float
    z: Optional[float]
    x: Optional[float]
    w: Optional[float]
    boundary_l: float


def _row(value: float, price: float, z=None, x=None, w=None) -> list[str]:
    return [repr(value), repr(price), "" if z is None else repr(z),
            "" if x is None else repr(x), "" if w is None else repr(w), ""]


def sweep_rows(cfg: RunConfig, instrument: str, axis: str,
               lo: float, hi: float, n: int) -> list[list[str]]:
    """CSV rows (axis_value, price, z, x, w, note) for a parameter sweep.

    The sweep's arguments, and the option section that an option leg or the
    E axis needs, are checked once, before any point: a fault there is a
    ConfigError, as price raises it.  Each point is then
    options._sweep_point of its config, checked, and its z, variances and
    boundary L found, on the scalar path in price's order: a record for the
    array pass, which prices every point with a closed form at once, or a
    point priced on its own, (price, z, x, w, L).  That is a point at its
    expiry payoff, priced by options as price prices it, or an _Alone that
    price_instrument prices (a zero-coupon bond, or a bond at maturity).
    Either ends in its L, 0 with no live option leg.  L depends on no state
    variable, so along r, V and t it is solved at the first point that
    needs it and shared with the rest; along the other axes each point
    solves its own.  Rows and notes are those of price_instrument point by
    point, prices and w to 1e-15 Z.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if n < 2:
        raise ConfigError("sweep needs n >= 2 points")
    if not math.isfinite(hi - lo):  # also rejects a non-finite lo or hi
        raise ConfigError(
            f"sweep bounds must be finite and a finite span apart, got "
            f"lo={lo!r}, hi={hi!r}")
    section = _AXES[axis][0]
    holds_bond, call = _LEGS[instrument]
    if call is not None or section == "option":
        _need_option(cfg, f"a sweep of {instrument!r} along {axis}")
    shares_l = section == "state"
    boundary_l = None
    rows, jobs, slots = [], [], []
    for value in np.linspace(lo, hi, n).tolist():
        try:
            point = _with_axis(cfg, axis, value)
            job = options._sweep_point(point.state, point.option, point.bond,
                                       point.model, holds_bond, call,
                                       boundary_l)
            if job is None:
                doc = price_instrument(point, instrument)
                get = doc["diagnostics"].get
                job = _Alone(doc["price"], get("z"), get("x"), get("w"), 0.0)
            if shares_l and job[-1]:  # L, 0 with no live option leg
                boundary_l = job[-1]
            if len(job) == len(_Alone._fields):  # priced on its own
                rows.append(_row(value, *job[:4]))
            else:
                jobs.append(job)
                slots.append((len(rows), value))
                rows.append(None)
        except (CredBondError, ValueError) as exc:
            rows.append([repr(value), "", "", "", "", type(exc).__name__])
    if jobs:
        for (i, value), (z, x, *_), price, w in zip(
                slots, jobs, *options._sweep_prices(jobs, holds_bond, call)):
            rows[i] = _row(value, price, z, x, w)
    return rows


def _verify_fd(cfg: RunConfig) -> list[dict]:
    from . import oracles
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    grid = oracles.GridConfig(nx=cfg.verify.grid_nx, nt=cfg.verify.grid_nt)
    T = bond_spec.maturity_T
    checks = []

    sol = oracles.cn_solve(np.ones_like, state.t, T, T, params, grid=grid)
    recovery = params.recovery_r

    def fd_units(solved, x, tt):
        # the straight bond's FD value at (x, tt) in units of Z
        return (recovery
                + (1.0 - recovery) * np.asarray(solved.interpolate(x, tt)))

    # 8 read times, each with a solve of its own over [tt, T], whose grid
    # spans 8 sqrt(I(tt, T)), and read on its first slice at 12 points 0.15
    # to 5 sqrt(I(tt, T)) from the barrier in ln x
    times = np.linspace(state.t, state.t + 0.9 * (T - state.t), 8)
    variances = np.array([model.cum_variance(tt, T, T, params)
                          for tt in times])
    xs = params.barrier_b * np.exp(
        np.linspace(0.15, 5.0, 12) * np.sqrt(variances)[:, None])
    fd = np.empty_like(xs)
    for i, tt in enumerate(times):
        read = sol if tt == state.t else oracles.cn_solve(
            np.ones_like, tt, T, T, params, grid=grid)
        fd[i] = fd_units(read, xs[i], tt)
    closed = bond_mod._bond_units(xs, params.barrier_b, recovery,
                                  variances[:, None])[0]
    err = np.abs(fd - closed)
    # at R = 0 the bond is worth 0 where the points round onto the
    # barrier: there only an FD value of 0 has no relative error
    rel = np.divide(err, closed, out=np.where(err > 0.0, np.inf, 0.0),
                    where=closed > 0.0)
    worst = float(np.max(rel))
    checks.append(_check("fd straight bond max relative error", 0.0, worst, 1e-4))

    spec = cfg.option
    # from T1 on the option is its payoff or gone, and with no variance left
    # before T1 the closed forms price it as its payoff: nothing to check
    if (spec is not None and state.t < spec.expiry_T1
            and model.cum_variance(state.t, spec.expiry_T1, T, params) > 0.0):
        T1 = spec.expiry_T1

        def payoffs(x):
            # the put's and call's payoffs take the bond's value at T1 from
            # its FD solve, on the same ln x grid, so that the oracle shares
            # neither L nor the bond's closed form with the prices it checks
            units = fd_units(sol, x, T1)
            return np.array([options._expiry_payoff(units, spec, call)
                             for call in (False, True)])

        put = options.put_price(state, spec, bond_spec, params)
        osol = oracles.cn_solve(payoffs, state.t, T1, T, params, grid=grid)
        call = options.call_price(state, spec, bond_spec, params)
        fds = osol.interpolate(state.v / put.z, state.t)
        for name, res, fd in (("put", put, fds[0]), ("call", call, fds[1])):
            scale = max(abs(res.price), 1e-3 * res.z)
            checks.append(_check(f"fd {name} option relative error",
                                 res.price, float(fd) * res.z, 1e-3,
                                 scale=scale))
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
                          workers=v.workers)["bond"]
    return [_check("mc-spot straight bond |diff| <= 3 se", res.price,
                   est.mean, 3.0 * est.std_error)]


def _verify_parity(cfg: RunConfig) -> list[dict]:
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    checks = []
    for bump in (1.0, 0.9, 1.1, 0.8, 1.25):
        if not math.isfinite(v := state.v * bump):
            continue
        st = model.MarketState(r=state.r, v=v, t=state.t)
        try:
            gap = options.put_call_parity_gap(st, cfg.option, bond_spec, params)
            z = model.zcb_price(st.r, st.t, bond_spec.maturity_T, params)
        except _DOMAIN_ERRORS:
            if bump == 1.0:  # the configured state fails as price does
                raise
            continue
        checks.append(_check(f"parity gap at v={st.v}", 0.0, gap, 1e-9 * z))
    return checks


# verify suite -> the name of the function that makes its checks, looked up
# in the module when the suite runs; --suite all runs them in this order
_SUITES = {"fd": "_verify_fd", "mc-forward": "_verify_mc_forward",
           "mc-spot": "_verify_mc_spot", "parity": "_verify_parity"}


def run_verify(cfg: RunConfig, suite: str) -> dict:
    if suite not in (*_SUITES, "all"):
        raise ConfigError(f"unknown verify suite {suite!r}")
    selected = list(_SUITES) if suite == "all" else [suite]
    # before any suite runs, so that --suite all fails without the oracles
    if "parity" in selected:
        _need_option(cfg, "the parity suite")
    checks = []
    for name in selected:
        checks.extend(globals()[_SUITES[name]](cfg))
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
              type=click.Choice((*_SUITES, "all")))
@click.option("--seed", default=None, type=int,
              help="Override the config seed.")
@click.option("--paths", default=None, type=int,
              help="Override the config path count.")
@click.option("--steps-per-year", default=None, type=int,
              help="Override the config step density.")
@click.option("--workers", default=None, type=int,
              help="Monte-Carlo worker threads; each chunk draws its "
                   "normals on the thread that steps it (results are "
                   "independent of this).")
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
