"""Per-layer metrics of a traced run.

``span_metrics`` turns one traced pass of any workload into counts per
operation and time shares per layer.  ``oracle_metrics`` adds the engine
figures of the verify workload; its Monte-Carlo RNG share comes from a
standalone Philox draw in the engines' layout, timed here and not inside the
engines.
"""

from __future__ import annotations

import inspect
import math
import time

import numpy as np

from credbond import oracles

from tracer import LAYERS
from workloads import SE_TARGET, standard_error

PHILOX_CHUNK = 8192


def span_metrics(summary: dict, counters, units: int) -> dict:
    names, root = summary["names"], summary["root_ns"]

    def calls(name):
        return names[name]["calls"]

    out = {
        "analytics.binorm_cdf.calls_per_op": calls("analytics.binorm_cdf") / units,
        "analytics.binorm_cdf.high_rho_frac":
            counters["analytics.binorm_cdf.high_rho"]
            / max(1, calls("analytics.binorm_cdf")),
        "analytics.norm_cdf.calls_per_op": calls("analytics.norm_cdf") / units,
        "analytics.find_root.evals_per_call":
            counters["analytics.find_root.evals"]
            / max(1, calls("analytics.find_root")),
        "model.cum_variance.calls_per_op": calls("model.cum_variance") / units,
        "bond.survival_curve.calls_per_op": calls("bond.survival_curve") / units,
        "options.find_boundary_l.calls_per_op":
            calls("options.find_boundary_l") / units,
        "options.find_boundary_l.self_share":
            names["options.find_boundary_l"]["self_ns"] / root,
        "options.find_boundary_l.share":
            names["options.find_boundary_l"]["total_ns"] / root,
    }
    for layer in LAYERS:
        own = sum(v["self_ns"] for k, v in names.items()
                  if k.startswith(layer + "."))
        out[f"{layer}.self_share"] = own / root
    return out


def _mc_spot_steps(cfg) -> int:
    # the engine's own step count for the straight bond at steps_per_year
    span = cfg.bond.maturity_T - cfg.state.t
    return max(1, math.ceil(span * cfg.verify.steps_per_year))


def _mc_forward_steps() -> int:
    # run_verify leaves mc_forward at its default step count
    return inspect.signature(oracles.mc_forward).parameters["n_steps"].default


def philox_seconds(seed: int, n_paths: int, n_steps: int,
                   normals: int, uniforms: int) -> float:
    """Time the engines' draws alone: one Philox stream per (seed, chunk)."""
    sizes = [PHILOX_CHUNK] * (n_paths // PHILOX_CHUNK)
    if n_paths % PHILOX_CHUNK:
        sizes.append(n_paths % PHILOX_CHUNK)
    start = time.perf_counter()
    for chunk, size in enumerate(sizes):
        key = np.array([seed % 2 ** 64, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        for _ in range(n_steps):
            for _ in range(normals):
                rng.standard_normal(size)
            for _ in range(uniforms):
                rng.random(size)
    return time.perf_counter() - start


def oracle_metrics(summary: dict, traced_suite_ns: dict, cfg, reports: dict,
                   suite_s: dict, spot_w2_s: float) -> dict:
    """Engine figures of the verify workload.

    summary, traced_suite_ns: the traced pass and its run_verify span per
    suite; reports: suite -> run_verify report; suite_s: suite -> fastest
    untraced seconds; spot_w2_s: one untraced mc_spot call with 2 workers.
    """
    names = summary["names"]
    fd_ns = traced_suite_ns["fd"]
    grid_steps = cfg.verify.grid_nt * names["oracles.cn_solve"]["calls"]
    n_paths = cfg.verify.paths
    out = {
        "oracles.fd.suite_s": suite_s["fd"],
        "oracles.cn_solve.us_per_step":
            names["oracles.cn_solve"]["total_ns"] / 1e3 / grid_steps,
        "oracles.cn_solve.share_of_fd": names["oracles.cn_solve"]["total_ns"] / fd_ns,
        "oracles.interpolate.share_of_fd":
            names["oracles.interpolate"]["total_ns"] / fd_ns,
    }
    layout = {"mc_forward": (_mc_forward_steps(), 1, 1, "mc-forward"),
              "mc_spot": (_mc_spot_steps(cfg), 2, 1, "mc-spot")}
    for engine, (n_steps, normals, uniforms, suite) in layout.items():
        engine_s = names[f"oracles.{engine}"]["total_ns"] / 1e9
        rng_s = philox_seconds(cfg.verify.seed, n_paths, n_steps,
                               normals, uniforms)
        se = standard_error(reports[suite])
        out[f"oracles.{engine}.ns_per_path_step"] = (
            engine_s * 1e9 / (n_paths * n_steps))
        out[f"oracles.{engine}.rng_share"] = rng_s / engine_s
        out[f"oracles.{engine}.se"] = se
        out[f"oracles.{engine}.tts_s"] = suite_s[suite] * (se / SE_TARGET) ** 2
    out["oracles.mc_spot.scaling_eff_w2"] = suite_s["mc-spot"] / (2.0 * spot_w2_s)
    return out
