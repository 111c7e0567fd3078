"""The gausssep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  It generates the workload's inputs from
the seed, runs them through ``gausssep.cli.main`` in one worker process,
checks every output against the independent reference in ``reference.py``
and prints a report of every metric by name with its unit.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics of the named workload with
tracing off.  ``--trace 1`` is the traced run: whatever workload is named, it
runs every workload once untraced and once traced and reports the per-layer
metrics, named ``<workload>.<metric>``, of each.  ``--workload all`` does both for every
workload.  Work files go to ``.bench_work/`` under the checkout.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# No extra threads, here or in the processes started from here: every
# BLAS/OpenMP pool is pinned to one thread, here before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import generate  # noqa: E402
import reference as ref  # noqa: E402
from calibration import REF_PROBE_S, probe_seconds  # noqa: E402

WORKLOADS = generate.WORKLOADS
WORK_DIR = ".bench_work"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 12
SETUP_CODE = "import sys; from gausssep.cli import main; sys.exit(main(sys.argv[1:]))"
# A worker gets this long beyond --seconds before it is stopped.
WORKER_GRACE_S = 150

# name -> (unit, better).  Times are in reference seconds (calibration.py).
END_TO_END = {
    "states_per_ref_s": ("1/ref_s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_COMMON = ("trace.wall_s", "trace.overhead_frac", "trace.unattributed_s",
           "cli.self_s", "core.self_s", "cli.serialize.self_s",
           "core.build_covariance.calls", "core.build_covariance.self_s",
           "core.eigvalsh.calls", "core.eigvalsh.self_s")
_CLASSIFY = ("core.classify.calls", "core.classify.closed.self_s", "core.classify.eig.self_s",
             "core.intermediates.calls_per_classify", "core.intermediates.self_s",
             "core.bounds.calls", "core.bounds.self_s", "core.bounds.degenerate",
             "core.fallbacks", "core.closed_decided_frac", "core.boundary_band_hits",
             "core.partial_transpose.self_s")
_PARSE = ("cli.parse.self_s", "cli.parse.records")
_FROM_MATRIX = ("core.params_from_covariance.calls", "core.params_from_covariance.self_s")
_APPLY_LOCAL = ("symplectic.apply_local.calls", "symplectic.apply_local.self_s")

# The per-layer metrics reported for each workload: those of the layers the
# workload exercises.
PER_LAYER = {
    "classify-mixed": _COMMON + _PARSE + _CLASSIFY + _FROM_MATRIX,
    "sample-campaign": _COMMON + ("symplectic.self_s",) + _CLASSIFY + _FROM_MATRIX + (
        "symplectic.sampler.self_s", "symplectic.sampler.draws_per_accept") + _APPLY_LOCAL,
    "sweep-grid": _COMMON + (
        "cli.bisect.calls", "cli.bisect.self_s", "cli.bisect.evals_per_call",
        "cli.sweep.degenerate_rows", "cli.prep_fold.self_s",
        "core.bounds.calls", "core.bounds.self_s", "core.bounds.degenerate",
        "core.intermediates.self_s", "core.partial_transpose.self_s"),
    "forms": _COMMON + ("symplectic.self_s",) + _PARSE + _FROM_MATRIX + _APPLY_LOCAL + (
        "symplectic.invariants.calls", "symplectic.invariants.self_s",
        "symplectic.reduce.calls", "symplectic.reduce.self_s",
        "symplectic.reduce.applicable_frac"),
}

_RATIO_HIGHER = ("core.closed_decided_frac", "symplectic.reduce.applicable_frac")
_PER_UNIT = {
    "cli.bisect.evals_per_call": "evals/call",
    "core.intermediates.calls_per_classify": "calls/classify",
    "symplectic.sampler.draws_per_accept": "draws/accept",
}


def layer_unit(metric: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric."""
    if metric.endswith("_s"):
        return "s", "lower"
    if metric in _PER_UNIT:
        return _PER_UNIT[metric], "lower"
    if metric.endswith("_frac"):
        return "ratio", "higher" if metric in _RATIO_HIGHER else "lower"
    return "count", "lower"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    return [(f"{w}.{m}", *layer_unit(m)) for w in WORKLOADS for m in PER_LAYER[w]]


# ---------------------------------------------------------------------------
# Running


def child_env(root: str) -> dict:
    return {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
            "PYTHONPATH": os.path.join(root, "src")}


def environment(env: dict) -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: env[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def time_setups(plan: dict, root: str, env: dict, n: int,
                check: ref.Check) -> list[tuple[float, float]]:
    """(wall time, probe time) of ``n`` fresh interpreters importing gausssep
    and finishing the workload's command on a one-item input.  The probe
    time is the mean of the calibration probe just before and just after
    the start-up.  Failures go to ``check``."""
    argv = [sys.executable, "-c", SETUP_CODE, *plan["setup_argv"]]
    samples = []
    for _ in range(n):
        before = probe_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        seconds = time.perf_counter() - t0
        samples.append((seconds, (before + probe_seconds()) / 2))
        check.attempted += 1
        if proc.returncode != 0:
            check.fail(f"setup{check.attempted}",
                       f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}")
    return samples


def run_worker(root: str, env: dict, mode: str, plan_paths: list[str], seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--mode", mode, "--seconds", repr(seconds), *plan_paths]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          timeout=seconds + WORKER_GRACE_S * len(plan_paths))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def check_command(command: dict) -> ref.Check:
    kind, out = command["type"].split("-")[0], command["output"]
    if kind == "classify":
        return ref.check_classify(ref.read_jsonl(command["input"]), ref.read_output(out))
    if kind == "sample":
        return ref.check_sample(ref.read_output(out), command["count"])
    if kind == "sweep":
        axes = [generate.axis_grid(spec) for spec in command["axes"]]
        return ref.check_sweep(out, axes, command["base"])
    if kind == "invariants":
        return ref.check_invariants(ref.read_jsonl(command["input"]), ref.read_output(out))
    if kind == "transform":
        return ref.check_transform(ref.read_jsonl(command["input"]), ref.read_output(out),
                                   command["symplectic"], command["squeezed_prefix"])
    raise ValueError(f"unknown command kind {kind!r}")


def check_runs(plan: dict, runs: list[dict]) -> ref.Check:
    """Check each command's output file, which its last run wrote, and count
    every run of that command as checked when it exited 0 with the same
    output bytes; otherwise all the run's items count as failed."""
    total = ref.Check()
    for k, command in enumerate(plan["commands"]):
        mine = [r for r in runs if r["cmd"] == k]
        check = check_command(command)
        for j, run in enumerate(mine):
            label = f"{command['type']}{k}.run{j}"
            if run["code"] == 0 and run["digest"] == mine[-1]["digest"]:
                total.merge(check, label)
            else:
                total.attempted += check.attempted
                for i in range(check.attempted):
                    total.fail(f"{label}:{i}",
                               f"exit {run['code']} or output differs from the checked one")
    return total


def quantile(values: list[float], q: float) -> float:
    """The q-quantile, interpolating between order statistics."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    return v[lo] + (v[min(lo + 1, len(v) - 1)] - v[lo]) * (pos - lo)


def command_samples(plan: dict, result: dict) -> dict[str, list[tuple[float, float]]]:
    """(wall time, probe time) of every command run, grouped by command type;
    the probe time is the mean of the probes just before and just after."""
    probes = result["probes"]
    samples = collections.defaultdict(list)
    for i, run in enumerate(result["runs"]):
        kind = plan["commands"][run["cmd"]]["type"]
        samples[kind].append((run["seconds"], (probes[i] + probes[i + 1]) / 2))
    return samples


def in_ref_seconds(seconds: float, probe: float) -> float:
    return seconds * REF_PROBE_S / probe


def pass_seconds(plan: dict, samples: dict, ref_seconds: bool) -> float:
    """One pass over the plan: for each command type, the number of its
    commands times its median command time, in reference or wall seconds."""
    counts = collections.Counter(c["type"] for c in plan["commands"])
    return sum(counts[kind] * statistics.median(
        in_ref_seconds(t, p) if ref_seconds else t for t, p in v) for kind, v in samples.items())


def run_e2e(workload: str, seed: int, seconds: float, root: str, env: dict):
    work = fresh_dir(os.path.join(root, WORK_DIR, workload))
    plan = generate.generate(workload, seed, work)
    # Half the set-ups run before the worker and half after it, so that their
    # median spans the run rather than one moment of the host's load.
    check = ref.Check()
    time_setups(plan, root, env, 1, check)  # untimed: fills the file and bytecode caches
    setups = time_setups(plan, root, env, SETUP_RUNS // 2, check)
    result = run_worker(root, env, "e2e", [os.path.join(work, "plan.json")], seconds)
    setups += time_setups(plan, root, env, SETUP_RUNS - SETUP_RUNS // 2, check)
    check.merge(check_runs(plan, result["runs"]), "run")
    samples = command_samples(plan, result)
    metrics = {
        "states_per_ref_s": plan["points"] / pass_seconds(plan, samples, ref_seconds=True),
        # One speed factor for the run: a single 2 ms probe is noisier than
        # the 0.2 s start-up it would scale.
        "setup_s": in_ref_seconds(statistics.median(t for t, _ in setups),
                                  statistics.median(p for _, p in setups)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = {
        "states_per_s": plan["points"] / pass_seconds(plan, samples, ref_seconds=False),
        "setup_s": statistics.median(t for t, _ in setups),
    }
    info = {"points_per_pass": plan["points"],
            "passes": len(result["runs"]) / len(plan["commands"]),
            "probe_ms_median": 1e3 * statistics.median(result["probes"]),
            "command_seconds": {k: {"n": len(v), "median": quantile([t for t, _ in v], 0.5),
                                    "p90": quantile([t for t, _ in v], 0.9)}
                                for k, v in samples.items()},
            "composition": plan["composition"],
            "setup_samples": setups,
            "command_samples": samples}
    return metrics, raw, check, info


def run_trace(seed: int, root: str, env: dict):
    plans, paths = {}, []
    for w in WORKLOADS:
        work = fresh_dir(os.path.join(root, WORK_DIR, "trace", w))
        plans[w] = generate.generate(w, seed, work)
        paths.append(os.path.join(work, "plan.json"))
    result = run_worker(root, env, "trace", paths, 0.0)
    check, metrics, info = ref.Check(), {}, {}
    for w in WORKLOADS:
        check.merge(check_runs(plans[w], result[w]["runs"]), w)
        for m in PER_LAYER[w]:
            metrics[f"{w}.{m}"] = result[w]["metrics"][m]
        info[w] = {"spans": result[w]["spans"], "points_per_pass": plans[w]["points"],
                   "composition": plans[w]["composition"]}
    return metrics, check, info


# ---------------------------------------------------------------------------
# Report


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gausssep", "cli.py")):
        print(f"error: {root} holds no src/gausssep/cli.py; run from the root of a "
              "gausssep checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    everything = args.workload == "all"
    workloads = WORKLOADS if everything else (args.workload,)
    units = dict(END_TO_END)
    units.update({f"{w}.{name}": ub for w in WORKLOADS for name, ub in END_TO_END.items()})
    units.update({name: (u, b) for name, u, b in per_layer_metrics()})

    # ``unbounded`` holds figures printed beside the metrics: wall-clock
    # throughput and set-up time, and the share of failed items.
    check, metrics, unbounded, info = ref.Check(), {}, {}, {}
    if everything or args.trace == 0:
        for w in workloads:
            m, raw, c, i = run_e2e(w, args.seed, args.seconds, root, env)
            check.merge(c, w)
            info[w] = i
            metrics.update({(f"{w}." if everything else "") + k: v for k, v in m.items()})
            unbounded[f"{w}.states_per_s"] = (raw["states_per_s"], "1/s")
            unbounded[f"{w}.setup_wall_s"] = (raw["setup_s"], "s")
            unbounded[f"{w}.failed_frac"] = (c.failed / c.attempted, "ratio")
    if everything or args.trace == 1:
        m, c, i = run_trace(args.seed, root, env)
        check.merge(c, "trace")
        metrics.update(m)
        info["trace"] = i
        unbounded["trace.failed_frac"] = (c.failed / c.attempted, "ratio")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(env), "runs": info,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
        "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()},
        "attempted": check.attempted, "failed": check.failed,
        "failures": dict(list(check.failures.items())[:20]),
    }
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    report_path = os.path.join(
        root, WORK_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    env_info = report["environment"]
    print(f"# gausssep benchmark: workload {args.workload}, seed {args.seed}, "
          f"{_fmt(args.seconds)} s per run, trace {args.trace}")
    print(f"# python {env_info['python']}, numpy {env_info['numpy']}, nproc {env_info['nproc']}, "
          f"blas {env_info['blas']}, "
          + " ".join(f"{k}={v}" for k, v in env_info["blas_threads"].items()))
    for key, value in info.items():  # the samples only go to the report file
        print(f"# {key}: " + json.dumps(
            {k: v for k, v in value.items() if k not in ("setup_samples", "command_samples")}))
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"{name:58s} {_fmt(value):>14s} {unit} ({better} is better)")
    for name, (value, unit) in unbounded.items():
        print(f"{name:58s} {_fmt(value):>14s} {unit} (not bounded)")
    for item, reason in list(check.failures.items())[:20]:
        print(f"# FAILED {item}: {reason}")
    print(f"# report: {os.path.relpath(report_path, root)}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
