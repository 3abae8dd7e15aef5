"""credbond benchmark: time ``price``, ``sweep`` and ``verify`` through ``credbond.cli``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload book|sweep|verify --seed N \
        --seconds S --trace 0|1

One process, one caller, closed loop: each operation starts when the previous
one has returned.  The workload's operation list (one "pass", see
workloads.py) is repeated until S seconds have passed, and at least
MIN_PASSES times.  With ``--trace 0`` the last line of standard output is the
end-to-end result.  With ``--trace 1`` the same untraced phase runs first,
then one traced pass, and the last line holds the per-layer metrics.
Earlier lines report the environment and each metric by name with its unit.
The exit code is 1 when an output check fails and 2 when the program cannot
be found or the arguments are invalid.
"""

import os

# Cap BLAS/OpenMP pools before numpy loads; this process and its set-up
# probes only.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 4
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import credbond from this checkout's src/, never from elsewhere."""
    if not (SRC / "credbond" / "cli.py").is_file():
        die(f"no credbond sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import credbond
    if Path(credbond.__file__).resolve().parent != SRC / "credbond":
        die(f"imported credbond from {credbond.__file__}, not {SRC}")


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_REPEATS fresh set-up processes."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(probe, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(wl):
    """Call every operation once; only the calls are inside the clock."""
    clock = time.perf_counter_ns
    results, lat = [], []
    start = clock()
    for op in wl.ops:
        t0 = clock()
        try:
            result = wl.call(op)
        except Exception as exc:  # judged by wl.check after timing
            result = exc
        lat.append(clock() - t0)
        results.append(result)
    return results, lat, (clock() - start) / 1e9


def timed_phase(wl, seconds: float) -> dict:
    """Repeat the pass for `seconds` (at least MIN_PASSES times)."""
    from workloads import fingerprint
    gc.collect()
    walls, lats, first, mismatched = [], [], None, 0
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        results, lat, wall = run_pass(wl)
        walls.append(wall)
        lats.append(lat)
        if first is None:
            first = results
            reference = [fingerprint(r) for r in results]
        elif [fingerprint(r) for r in results] != reference:
            mismatched += 1
    return {"walls": walls, "lats": lats, "results": first,
            "mismatched": mismatched}


def judge(wl, phase: dict) -> dict:
    """Output checks on the first pass; later passes must repeat it exactly."""
    failed, problems, errors = 0, [], {}
    for op, result in zip(wl.ops, phase["results"]):
        f, p = wl.check(op, result)
        failed += f
        problems += p
        if isinstance(result, BaseException):
            key = type(result).__name__
            errors[key] = errors.get(key, 0) + 1
    problems += wl.extra_problems(phase["results"])
    if phase["mismatched"]:
        problems.append(f"{phase['mismatched']} passes differ from the first")
    passes = len(phase["walls"])
    units = sum(wl.units(op) for op in wl.ops)
    return {"attempted": units * passes, "failed": failed * passes,
            "per_pass": (failed, units), "errors": errors,
            "problems": problems}


def best_seconds(phase: dict):
    """Each operation's fastest time over the run's passes, in seconds.

    Other tenants of a shared host slow single passes by up to 2.7x for tens
    of seconds at a time, so a median pass mostly measures the host.  The
    fastest repeat of each operation measures the program.
    """
    import numpy as np
    return np.asarray(phase["lats"], dtype=float).min(axis=0) / 1e9


def end_to_end(wl, phase: dict, setup_s: float) -> dict:
    import numpy as np
    best = best_seconds(phase)
    units = sum(wl.units(op) for op in wl.ops)
    factors = [wl.accuracy_factor(op, res)
               for op, res in zip(wl.ops, phase["results"])]
    wall = float(best.sum())
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": units / wall,
        "lat_p50_us": float(np.percentile(best, 50)) * 1e6,
        "lat_p99_us": float(np.percentile(best, 99)) * 1e6,
        "tts_s": float(np.dot(best, factors)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def verify_report_lines(wl, phase: dict) -> list[str]:
    """The verify workload's per-engine figures: fd_s and time to SE_TARGET."""
    from workloads import MC_SUITES, SE_TARGET, standard_error
    lines = []
    for suite, seconds, result in zip(wl.ops, best_seconds(phase),
                                      phase["results"]):
        if suite == "fd":
            lines.append(f"fd_s {seconds:.6g} s")
        elif suite in MC_SUITES and isinstance(result, dict):
            tts = seconds * wl.accuracy_factor(suite, result)
            lines.append(f"{suite.replace('-', '_')}_tts_s {tts:.6g} s "
                         f"(elapsed {seconds:.6g} s, "
                         f"se {standard_error(result):.6g}, "
                         f"n_paths {wl.cfg.verify.paths}, "
                         f"se_target {SE_TARGET:g})")
    return lines


def traced_run(wl, phase: dict, seed: int, verdict: dict, names) -> dict:
    """One traced pass plus the verify engines' extra measurements."""
    import layers
    from tracer import Tracer
    from workloads import fingerprint
    tracer = Tracer()
    tracer.install()
    try:
        results, _, traced_wall = run_pass(wl)
    finally:
        tracer.uninstall()
    if [fingerprint(r) for r in results] != [fingerprint(r) for r in phase["results"]]:
        verdict["problems"].append("the traced pass differs from the untraced one")
    summary = tracer.summary()
    units = sum(wl.units(op) for op in wl.ops)
    # layers a workload does not run read 0
    metrics = dict.fromkeys(names, 0.0)
    metrics.update(layers.span_metrics(summary, tracer.counters, units))
    metrics["trace.overhead"] = traced_wall / statistics.median(phase["walls"])
    if wl.name == "verify" and not verdict["problems"]:
        from credbond import oracles
        suite_s = dict(zip(wl.ops, best_seconds(phase)))
        traced_suite_ns = dict(zip(wl.ops, summary["roots_ns"]))
        reports = dict(zip(wl.ops, results))
        cfg = wl.cfg
        start = time.perf_counter()
        oracles.mc_spot(cfg.state, cfg.bond, None, cfg.model, cfg.verify.paths,
                        steps_per_year=cfg.verify.steps_per_year,
                        seed=cfg.verify.seed, workers=2)
        spot_w2_s = time.perf_counter() - start
        metrics.update(layers.oracle_metrics(summary, traced_suite_ns, cfg,
                                             reports, suite_s, spot_w2_s))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{wl.name}-seed{seed}"
    tracer.write(stem.with_suffix(".csv"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "environment": environment(),
         "counters": dict(tracer.counters), "spans": summary["names"],
         "metrics": metrics}, indent=1, sort_keys=True))
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        die("--seconds must be positive")
    if args.seed < 0:
        die("--seed must be non-negative")
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        die(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed)
    phase = timed_phase(wl, args.seconds)
    verdict = judge(wl, phase)

    units = declared_units(args.trace)
    if args.trace:
        metrics = traced_run(wl, phase, args.seed, verdict, units)
    else:
        metrics = end_to_end(wl, phase, setup_s)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"measured {sorted(metrics)}, declared {sorted(units)}")
    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    print(f"{wl.name} median_pass_s {statistics.median(phase['walls']):.6g} s "
          f"(raw, for reference; {len(phase['walls'])} passes of "
          f"{len(wl.ops)} operations)")
    failed, per_pass = verdict["per_pass"]
    print(f"{wl.name} failed_frac {failed / per_pass:.6g} ratio "
          f"({failed} of {per_pass} per pass; "
          f"errors {json.dumps(verdict['errors'], sort_keys=True)})")
    if wl.name == "verify":
        for line in verify_report_lines(wl, phase):
            print(f"verify {line}")
    for problem in verdict["problems"]:
        print(f"CHECK FAILED {problem}")
    correct = not verdict["problems"]
    print(json.dumps({
        "correct": correct, "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
