"""Seeded inputs, timed calls and output checks of the three workloads.

Each workload turns ``--seed`` into a fixed list of operations (one "pass").
The runner times ``call`` on every operation and nothing else; ``check``,
``extra_problems`` and the pass-to-pass comparison run after timing.

book    one scalar ``cli.price_instrument`` call per operation, parameters
        drawn independently over the whole box
sweep   one ``cli.sweep_rows`` call per operation at the README config,
        every instrument x every axis of ``cli.SWEEP_AXES``
verify  one ``cli.run_verify`` call per suite at the README config with
        VERIFY_PATHS Monte-Carlo paths, in the order ``--suite all`` runs them
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from credbond import cli, model, options
from credbond.bond import BondSpec
from credbond.errors import CredBondError

README_CONFIG = Path(__file__).resolve().parent / "readme_config.json"

# --- book -----------------------------------------------------------------

BOOK_PER_INSTRUMENT = 200
# Operations per instrument (of BOOK_PER_INSTRUMENT) pinned at each limit of
# the parameter box; the rest are interior draws.  Fixed counts, not random
# shares, so that every seed has the same mix and the same failure share.
BOOK_LIMITS = {
    "theta->0": 8,
    "|rho|->1": 8,
    "|rho|=1": 8,
    "s_V=0": 8,
    "T1->T": 8,
    "x->B+": 8,
    # the joint corner raises DegenerateVariance for the four option-bearing
    # instruments at the time this benchmark was written; it stays in the
    # book so that the failure shows in `failed` until it is fixed
    "s_V=0,T1->T": 8,
}
BOOK_INTERIOR = BOOK_PER_INSTRUMENT - sum(BOOK_LIMITS.values())
PARITY_SAMPLE = 60
# Relative slack on the price bounds: the bond price is (R + (1-R) W) Z with
# W clamped to [0, 1], so the bounds hold up to rounding of that product.
BOUND_SLACK = 1e-12

# --- sweep ----------------------------------------------------------------

SWEEP_POINTS = 25
# (lo range, hi range) per axis at the README config; the seed draws lo and
# hi inside them.  Every point of every range prices at the README config.
SWEEP_RANGES = {
    "r": ((-0.02, 0.0), (0.10, 0.15)),
    "V": ((0.65, 0.75), (1.5, 2.5)),
    "t": ((0.0, 0.1), (0.8, 0.95)),
    "E": ((0.45, 0.55), (0.95, 0.99)),
    "B": ((0.2, 0.3), (0.8, 0.95)),
    "R": ((0.0, 0.1), (0.7, 0.85)),
    "rho": ((-0.99, -0.9), (0.9, 0.99)),
    "s_V": ((0.0, 0.05), (0.5, 0.8)),
}

# --- verify ---------------------------------------------------------------

VERIFY_SUITES = ("fd", "mc-forward", "parity", "mc-spot")
MC_SUITES = ("mc-forward", "mc-spot")
# Monte-Carlo paths per verify call: two whole 8192-path chunks instead of the
# README's 100000.  At 100000 paths mc-spot is one 7.5 s call, too long to
# dodge the slow periods of a shared host, and runs spread by 20%.  The
# time-to-accuracy figures elapsed*(se/SE_TARGET)^2 do not depend on the path
# count, since elapsed grows and se^2 shrinks in proportion to it.
VERIFY_PATHS = 16384
# Stated accuracy of the time-to-accuracy figures: one basis point of face.
SE_TARGET = 1e-4


def readme_config() -> cli.RunConfig:
    return cli.load_config(str(README_CONFIG))


def fingerprint(result):
    """Comparable form of a call's result; exceptions compare by type and text."""
    if isinstance(result, BaseException):
        return (type(result).__name__, str(result))
    return result


class Workload:
    """A fixed list of operations and how to call and check each one."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list = []

    def call(self, op):
        raise NotImplementedError

    def units(self, op) -> int:
        """Work units of one operation, the numerator of ops_per_s."""
        return 1

    def check(self, op, result) -> tuple[int, list[str]]:
        """(failed units, problems) of one result; a problem is a wrong output."""
        raise NotImplementedError

    def extra_problems(self, results) -> list[str]:
        return []

    def accuracy_factor(self, op, result) -> float:
        """(se / SE_TARGET)^2 for a Monte-Carlo result, else 1."""
        return 1.0


def _failure(result) -> tuple[int, list[str]]:
    if isinstance(result, CredBondError):
        return 1, []
    return 1, [f"raised {type(result).__name__}: {result}"]


class Book(Workload):
    name = "book"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        labels = ["interior"] * BOOK_INTERIOR
        for limit, count in BOOK_LIMITS.items():
            labels += [limit] * count
        ops = []
        for instrument in cli.INSTRUMENTS:
            for limit in rng.permutation(labels):
                ops.append((instrument, str(limit), _book_config(rng, str(limit))))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def call(self, op):
        instrument, _, cfg = op
        return cli.price_instrument(cfg, instrument)

    def check(self, op, result):
        if isinstance(result, BaseException):
            return _failure(result)
        instrument, limit, cfg = op
        price = result["price"]
        problems = []
        if not math.isfinite(price):
            problems.append(f"{instrument} {limit}: price {price} not finite")
        elif instrument in ("bond", "puttable", "callable"):
            z = model.zcb_price(cfg.state.r, cfg.state.t,
                                cfg.bond.maturity_T, cfg.model)
            bond = cli.price_instrument(cfg, "bond")["price"]
            slack = BOUND_SLACK * z
            if not cfg.model.recovery_r * z - slack <= bond <= z + slack:
                problems.append(f"{instrument} {limit}: bond {bond} outside "
                                f"[R*Z, Z] with Z={z}")
            if instrument == "puttable" and price < bond - slack:
                problems.append(f"puttable {limit}: {price} below bond {bond}")
            if instrument == "callable" and price > bond + slack:
                problems.append(f"callable {limit}: {price} above bond {bond}")
        elif instrument in ("put-option", "call-option") and price < 0.0:
            problems.append(f"{instrument} {limit}: negative price {price}")
        elif instrument == "zcb" and not price > 0.0:
            problems.append(f"zcb {limit}: non-positive price {price}")
        return (1 if problems else 0), problems

    def extra_problems(self, results):
        """Put-call parity gap <= 1e-9 Z on a seeded sample of priced options."""
        priced = [op for op, res in zip(self.ops, results)
                  if op[0] not in ("zcb", "bond")
                  and not isinstance(res, BaseException)]
        take = min(PARITY_SAMPLE, len(priced))
        rng = np.random.Generator(np.random.PCG64([self.seed, 1]))
        problems = []
        for i in sorted(rng.choice(len(priced), take, replace=False)):
            instrument, limit, cfg = priced[i]
            try:
                gap = options.put_call_parity_gap(cfg.state, cfg.option,
                                                  cfg.bond, cfg.model)
            except CredBondError as exc:
                problems.append(f"parity {instrument} {limit}: raised "
                                f"{type(exc).__name__}: {exc}")
                continue
            z = model.zcb_price(cfg.state.r, cfg.state.t,
                                cfg.bond.maturity_T, cfg.model)
            if not abs(gap) <= 1e-9 * z:
                problems.append(f"parity {instrument} {limit}: gap {gap} "
                                f"above 1e-9*Z={1e-9 * z}")
        return problems


def _book_config(rng: np.random.Generator, limit: str) -> cli.RunConfig:
    # every draw is made for every case, so the stream does not depend on
    # which limit a case is pinned at
    theta = 10.0 ** rng.uniform(-1.3, 0.5)
    mu = rng.uniform(0.0, 0.10)
    s_r = rng.uniform(0.002, 0.05)
    s_v = rng.uniform(0.05, 0.6)
    rho = rng.uniform(-1.0, 1.0)
    barrier = rng.uniform(0.3, 0.95)
    recovery = rng.uniform(0.0, 0.7)
    exercise = recovery + (1.0 - recovery) * rng.uniform(0.05, 0.95)
    maturity = rng.uniform(0.25, 10.0)
    expiry = maturity * rng.uniform(0.1, 0.9)
    t_share = rng.uniform(0.0, 0.9)
    r = rng.uniform(-0.01, 0.12)
    x_over_b = 1.0 + 10.0 ** rng.uniform(-2.0, 0.3)
    sign = 1.0 if rng.random() < 0.5 else -1.0

    if limit == "theta->0":
        theta = 1e-8
    elif limit == "|rho|->1":
        rho = sign * (1.0 - 1e-9)
    elif limit == "|rho|=1":
        rho = sign
    elif limit == "x->B+":
        x_over_b = 1.0 + 1e-6
    if limit in ("s_V=0", "s_V=0,T1->T"):
        s_v = 0.0
    if limit in ("T1->T", "s_V=0,T1->T"):
        expiry = maturity * (1.0 - 1e-6)

    params = model.ModelParams(theta=theta, mu=mu, s_r=s_r, s_V=s_v, rho=rho,
                               barrier_b=barrier, recovery_r=recovery)
    t = expiry * t_share
    # v = x * Z(r, t; T) puts x = V/Z above the barrier by construction
    z = model.zcb_price(r, t, maturity, params)
    state = model.MarketState(r=r, v=barrier * x_over_b * z, t=t)
    return cli.RunConfig(model=params, bond=BondSpec(maturity_T=maturity),
                         state=state,
                         option=options.OptionSpec(expiry_T1=expiry,
                                                   exercise_e=exercise))


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        self.cfg = readme_config()
        for instrument in cli.INSTRUMENTS:
            for axis in cli.SWEEP_AXES:
                (lo_a, lo_b), (hi_a, hi_b) = SWEEP_RANGES[axis]
                self.ops.append((instrument, axis, rng.uniform(lo_a, lo_b),
                                 rng.uniform(hi_a, hi_b)))

    def call(self, op):
        instrument, axis, lo, hi = op
        return cli.sweep_rows(self.cfg, instrument, axis, lo, hi, SWEEP_POINTS)

    def units(self, op):
        return SWEEP_POINTS

    def check(self, op, result):
        if isinstance(result, BaseException):
            return SWEEP_POINTS, _failure(result)[1]
        instrument, axis = op[:2]
        problems = []
        if len(result) != SWEEP_POINTS:
            problems.append(f"{instrument} {axis}: {len(result)} rows")
        failed = 0
        for row in result:
            if row[5]:
                failed += 1
            elif not math.isfinite(float(row[1])):
                failed += 1
                problems.append(f"{instrument} {axis}={row[0]}: price {row[1]}")
        return failed, problems


class Verify(Workload):
    name = "verify"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cfg = readme_config()
        self.cfg.verify.seed = seed
        self.cfg.verify.paths = VERIFY_PATHS
        self.ops = list(VERIFY_SUITES)

    def call(self, op):
        return cli.run_verify(self.cfg, op)

    def check(self, op, result):
        if isinstance(result, BaseException):
            return _failure(result)
        failing = [c["name"] for c in result["checks"] if not c["pass"]]
        if not result["checks"]:
            failing.append(f"suite {op} ran no checks")
        return (1 if failing else 0), [f"{op}: FAIL {name}" for name in failing]

    def accuracy_factor(self, op, result):
        if op not in MC_SUITES or isinstance(result, BaseException):
            return 1.0
        return (standard_error(result) / SE_TARGET) ** 2


def standard_error(report: dict) -> float:
    """Monte-Carlo standard error in price units: each MC check's tolerance is 3 se."""
    (check,) = report["checks"]
    return check["tolerance"] / 3.0


WORKLOADS = {cls.name: cls for cls in (Book, Sweep, Verify)}
