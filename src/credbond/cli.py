"""Command-line interface: JSON-configured pricing, CSV sweeps, verification.

Exit codes: 0 ok, 2 config error, 3 domain error, 4 verification failure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

import click
import numpy as np

from . import bond as bond_mod
from . import model, options, oracles
from .errors import (
    BelowBarrier,
    ConfigError,
    CredBondError,
    DomainError,
    InvalidExercise,
    InvalidTenor,
)

INSTRUMENTS = ("zcb", "bond", "put-option", "call-option", "puttable", "callable")
SWEEP_AXES = ("r", "V", "t", "E", "B", "R", "rho", "s_V")
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
    verify: VerifySettings = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.verify is None:
            self.verify = VerifySettings()


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

    m = _section(doc, "model")
    try:
        params = model.ModelParams(
            theta=_require(m, "model", "theta"),
            mu=_require(m, "model", "mu"),
            s_r=_require(m, "model", "s_r"),
            s_V=_require(m, "model", "s_V"),
            rho=_require(m, "model", "rho"),
            barrier_b=_require(m, "model", "barrier_b"),
            recovery_r=_require(m, "model", "recovery_r"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}")

    b = _section(doc, "bond")
    try:
        bond_spec = bond_mod.BondSpec(maturity_T=_require(b, "bond", "maturity_T"))
    except ValueError as exc:
        raise ConfigError(f"bond: {exc}")

    s = _section(doc, "state")
    try:
        state = model.MarketState(
            r=_require(s, "state", "r"),
            v=_require(s, "state", "v"),
            t=_require(s, "state", "t"),
        )
    except ValueError as exc:
        raise ConfigError(f"state: {exc}")

    option_spec = None
    o = _section(doc, "option", required=False)
    if o is not None:
        try:
            option_spec = options.OptionSpec(
                expiry_T1=_require(o, "option", "expiry_T1"),
                exercise_e=_require(o, "option", "exercise_e"),
            )
        except ValueError as exc:
            raise ConfigError(f"option: {exc}")

    verify = VerifySettings()
    v = _section(doc, "verify", required=False) or {}
    for setting in fields(VerifySettings):
        if setting.name in v:
            setattr(verify, setting.name,
                    _require(v, "verify", setting.name, int))
    _check_verify(verify)
    return RunConfig(model=params, bond=bond_spec, state=state,
                     option=option_spec, verify=verify)


def _need_option(cfg: RunConfig, instrument: str) -> options.OptionSpec:
    if cfg.option is None:
        raise ConfigError(
            f"option: section is required for instrument {instrument!r}")
    return cfg.option


def price_instrument(cfg: RunConfig, instrument: str) -> dict:
    """Price one instrument, returning the JSON-ready result document."""
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    diagnostics: dict = {}
    if instrument == "zcb":
        price = model.zcb_price(state.r, state.t, bond_spec.maturity_T, params)
        diagnostics["z"] = price
    elif instrument == "bond":
        res = bond_mod.bond_price(state, bond_spec, params)
        price = res.price
        diagnostics.update(z=res.z, x=res.x, w=res.w,
                           total_variance=res.total_variance)
    elif instrument in ("put-option", "call-option"):
        spec = _need_option(cfg, instrument)
        fn = options.put_price if instrument == "put-option" else options.call_price
        res = fn(state, spec, bond_spec, params)
        price = res.price
        diagnostics.update(z=res.z, x=state.v / res.z, L=res.boundary_l,
                           d_values=res.dvalues)
    else:  # puttable / callable: straight bond -+ the embedded option
        spec = _need_option(cfg, instrument)
        straight = bond_mod.bond_price(state, bond_spec, params)
        price = straight.price
        diagnostics.update(z=straight.z, x=straight.x, w=straight.w,
                           total_variance=straight.total_variance)
        if state.t <= spec.expiry_T1:
            if instrument == "puttable":
                res = options.put_price(state, spec, bond_spec, params)
                price = straight.price + res.price
            else:
                res = options.call_price(state, spec, bond_spec, params)
                price = straight.price - res.price
            diagnostics["L"] = res.boundary_l
    return {"instrument": instrument, "price": price,
            "diagnostics": diagnostics, "config_echo": _echo(cfg)}


def _echo(cfg: RunConfig) -> dict:
    doc = {
        "model": {"theta": cfg.model.theta, "mu": cfg.model.mu,
                  "s_r": cfg.model.s_r, "s_V": cfg.model.s_V,
                  "rho": cfg.model.rho, "barrier_b": cfg.model.barrier_b,
                  "recovery_r": cfg.model.recovery_r},
        "bond": {"maturity_T": cfg.bond.maturity_T},
        "state": {"r": cfg.state.r, "v": cfg.state.v, "t": cfg.state.t},
    }
    if cfg.option is not None:
        doc["option"] = {"expiry_T1": cfg.option.expiry_T1,
                         "exercise_e": cfg.option.exercise_e}
    return doc


def _with_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    m, s = cfg.model, cfg.state
    if axis == "r":
        s = model.MarketState(r=value, v=s.v, t=s.t)
    elif axis == "V":
        s = model.MarketState(r=s.r, v=value, t=s.t)
    elif axis == "t":
        s = model.MarketState(r=s.r, v=s.v, t=value)
    elif axis == "E":
        if cfg.option is None:
            raise ConfigError("option: section required to sweep E")
        return RunConfig(model=m, bond=cfg.bond, state=s,
                         option=options.OptionSpec(cfg.option.expiry_T1, value),
                         verify=cfg.verify)
    elif axis == "B":
        m = model.ModelParams(m.theta, m.mu, m.s_r, m.s_V, m.rho,
                              barrier_b=value, recovery_r=m.recovery_r)
    elif axis == "R":
        m = model.ModelParams(m.theta, m.mu, m.s_r, m.s_V, m.rho,
                              barrier_b=m.barrier_b, recovery_r=value)
    elif axis == "rho":
        m = model.ModelParams(m.theta, m.mu, m.s_r, m.s_V, value,
                              barrier_b=m.barrier_b, recovery_r=m.recovery_r)
    elif axis == "s_V":
        m = model.ModelParams(m.theta, m.mu, m.s_r, value, m.rho,
                              barrier_b=m.barrier_b, recovery_r=m.recovery_r)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return RunConfig(model=m, bond=cfg.bond, state=s, option=cfg.option,
                     verify=cfg.verify)


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
    if instrument == "zcb":
        return None
    spec = None if instrument == "bond" else _need_option(cfg, instrument)
    straight = None
    if instrument not in ("put-option", "call-option"):
        inputs = bond_mod._bond_inputs(state, bond_spec, params, memo)
        if inputs is None:
            return None
        z, x, variance = inputs
        straight = (params.barrier_b, params.recovery_r, variance)
        if spec is None or state.t > spec.expiry_T1:
            return z, x, straight, None
    z, x, boundary_l, variances = options._option_inputs(
        state, spec, bond_spec, params, memo)
    if variances is None:
        return None
    return z, x, straight, (state.v, params.barrier_b, params.recovery_r,
                            spec.exercise_e, boundary_l, *variances)


def _sweep_prices(instrument: str, jobs: list) -> tuple[list, list]:
    """Price and straight-bond W of each _sweep_job job, in one array pass."""
    z, x = np.array([job[:2] for job in jobs]).T
    price, w = np.zeros(len(jobs)), [None] * len(jobs)
    if jobs[0][2] is not None:  # every job, or none, has a straight bond
        b, recovery, variance = np.array([job[2] for job in jobs]).T
        units, w = bond_mod._bond_units(x, b, recovery, variance)
        price, w = units * z, w.tolist()
    priced = [i for i, job in enumerate(jobs) if job[3] is not None]
    if priced:
        v, b, recovery, e, boundary_l, total, first = np.array(
            [jobs[i][3] for i in priced]).T
        d = options._d_arguments(x[priced], boundary_l, b, total, first,
                                 options._Array)
        option = options._option_value(
            instrument in ("call-option", "callable"), z[priced], v, b, e,
            recovery, d, options._Array)
        price[priced] += -option if instrument == "callable" else option
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
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    grid = oracles.GridConfig(nx=cfg.verify.grid_nx, nt=cfg.verify.grid_nt)
    T = bond_spec.maturity_T
    checks = []

    sol = oracles.cn_solve(lambda x: np.ones_like(x), lambda t: 0.0,
                           state.t, T, T, params, grid=grid)
    total_var = model.cum_variance(state.t, T, T, params)
    xs = params.barrier_b * np.exp(
        np.linspace(0.15, 5.0, 12) * math.sqrt(total_var))
    worst = 0.0
    for tt in np.linspace(state.t, state.t + 0.9 * (T - state.t), 8):
        w_fd = np.asarray(sol.interpolate(xs, tt))
        for x, wf in zip(xs, w_fd):
            wc = bond_mod.survival_curve(x, tt, T, T, params)
            pc = params.recovery_r + (1 - params.recovery_r) * wc
            pf = params.recovery_r + (1 - params.recovery_r) * wf
            worst = max(worst, abs(pf - pc) / pc)
    checks.append(_check("fd straight bond max relative error", 0.0, worst, 1e-4))

    if cfg.option is not None:
        spec = cfg.option
        T1 = spec.expiry_T1
        if state.t < T1:
            pres = options.put_price(state, spec, bond_spec, params)
            cres = options.call_price(state, spec, bond_spec, params)
            L, e = pres.boundary_l, spec.exercise_e

            def put_pay(x):
                return (e - bond_mod._unit_value(x, T1, T, params)) * (x < L)

            def call_pay(x):
                return (bond_mod._unit_value(x, T1, T, params) - e) * (x > L)

            psol = oracles.cn_solve(put_pay, lambda t: 0.0, state.t, T1, T,
                                    params, grid=grid)
            csol = oracles.cn_solve(call_pay, lambda t: 0.0, state.t, T1, T,
                                    params, grid=grid, far_value=1.0 - e)
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
    params, state, bond_spec = cfg.model, cfg.state, cfg.bond
    v = cfg.verify
    res = bond_mod.bond_price(state, bond_spec, params)
    est = oracles.mc_forward(res.x, state.t, bond_spec.maturity_T,
                             bond_spec.maturity_T,
                             lambda x: np.ones_like(x), params, v.paths,
                             seed=v.seed, rebate=params.recovery_r,
                             workers=v.workers)
    return [_check("mc-forward straight bond |diff| <= 3 se", res.price,
                   est.mean * res.z, 3.0 * est.std_error * res.z)]


def _verify_mc_spot(cfg: RunConfig) -> list[dict]:
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


def _fail_domain(exc: CredBondError) -> None:
    click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
               err=True)
    sys.exit(3)


def _fail_config(exc: Exception) -> None:
    click.echo(f"config error: {exc}", err=True)
    sys.exit(2)


@click.group()
def main() -> None:
    """Two-factor structural pricing of credit-risky bonds and bond options."""


@main.command("price")
@click.argument("instrument", type=click.Choice(INSTRUMENTS))
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="JSON run configuration.")
@click.option("--json-indent", default=2, show_default=True, type=int)
def cmd_price(instrument: str, config_path: str, json_indent: int) -> None:
    """Price one instrument at the configured market state."""
    try:
        cfg = load_config(config_path)
        doc = price_instrument(cfg, instrument)
    except ConfigError as exc:
        _fail_config(exc)
    except CredBondError as exc:
        _fail_domain(exc)
    click.echo(json.dumps(doc, indent=json_indent, sort_keys=True))


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
    except ConfigError as exc:
        _fail_config(exc)
    except CredBondError as exc:
        _fail_domain(exc)
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
def cmd_verify(config_path: str, suite: str, seed: Optional[int],
               paths: Optional[int], steps_per_year: Optional[int],
               workers: Optional[int]) -> None:
    """Run oracle comparisons against the closed forms; exit 4 on failure."""
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg.verify.seed = seed
        if paths is not None:
            cfg.verify.paths = paths
        if steps_per_year is not None:
            cfg.verify.steps_per_year = steps_per_year
        if workers is not None:
            cfg.verify.workers = workers
        _check_verify(cfg.verify)
        report = run_verify(cfg, suite)
    except ConfigError as exc:
        _fail_config(exc)
    except CredBondError as exc:
        _fail_domain(exc)
    click.echo(json.dumps(report, indent=2, sort_keys=True))
    if not report["pass"]:
        sys.exit(4)


if __name__ == "__main__":
    main()
