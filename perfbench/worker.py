"""The process that runs a workload: it imports ``gausssep`` from ``src/``
once and drives the public entry point ``gausssep.cli.main`` in-process,
one command after another, with no extra threads.

    python3 perfbench/worker.py --root ROOT --mode e2e --seconds S PLAN
    python3 perfbench/worker.py --root ROOT --mode trace PLAN [PLAN ...]

``e2e`` cycles through the workload's commands, untraced, until ``S``
seconds have passed and each command has run at least once, timing the
calibration probe between commands.  ``trace``
runs each plan once untraced and once traced and adds the per-layer
metrics.  Every command run is reported with its wall time, exit code and
a digest of its output file, so that the caller can check the last output
of each command and know that the earlier runs produced the same bytes.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import spans
from calibration import probe_seconds


def import_cli(root: str):
    """``gausssep.cli`` from ``root/src``, and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from gausssep import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"gausssep was imported from {cli.__file__}, not from {src}")
    return cli


def run_cli(main, argv: list[str]) -> int:
    """Exit code of one CLI call, as the console script would return it."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        return 1
    return code if isinstance(code, int) else (0 if code is None else 1)


def digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    ``VmHWM`` belongs to the process image; ``ru_maxrss`` would also count
    the parent's memory, copied by fork before exec.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_command(main, plan: dict, k: int) -> dict:
    """Run command ``k`` of the plan once, timed; the output digest is
    added by the caller, outside the timed region."""
    t0 = perf_counter()
    code = run_cli(main, plan["commands"][k]["argv"])
    return {"cmd": k, "seconds": perf_counter() - t0, "code": code}


def run_pass(main, plan: dict) -> tuple[list[dict], float]:
    """Every command of the plan once, in order; also the pass's wall time."""
    gc.collect()
    t0 = perf_counter()
    runs = [run_command(main, plan, k) for k in range(len(plan["commands"]))]
    seconds = perf_counter() - t0
    for run in runs:
        run["digest"] = digest(plan["commands"][run["cmd"]]["output"])
    return runs, seconds


def degenerate_rows(plan: dict) -> int:
    """Rows flagged ``degenerate`` in the plan's sweep outputs."""
    rows = 0
    for command in plan["commands"]:
        if not command["type"].startswith("sweep"):
            continue
        with open(command["output"], "r", encoding="utf-8", newline="") as fh:
            table = list(csv.DictReader(fh))
        rows += sum(1 for r in table if r.get("degenerate") == "1")
    return rows


def e2e(cli, plan: dict, seconds: float) -> dict:
    """Cycle through the plan's commands until ``seconds`` have passed and
    every command has run at least once, with a calibration probe before
    the first command and after every command: run ``i`` lies between
    ``probes[i]`` and ``probes[i + 1]``."""
    run_cli(cli.main, plan["setup_argv"])  # warm-up: lazy imports and first-call costs
    n = len(plan["commands"])
    runs, probes = [], [probe_seconds()]
    deadline = perf_counter() + seconds
    while len(runs) < n or perf_counter() < deadline:
        if len(runs) % n == 0:
            gc.collect()
        run = run_command(cli.main, plan, len(runs) % n)
        run["digest"] = digest(plan["commands"][run["cmd"]]["output"])
        runs.append(run)
        probes.append(probe_seconds())
    return {"runs": runs, "probes": probes, "peak_rss_mb": peak_rss_kb() / 1024.0}


def trace_plan(cli, plan: dict, spans_path: str) -> dict:
    """One untraced and one traced pass over the plan, and the per-layer
    metrics of the traced one."""
    run_cli(cli.main, plan["setup_argv"])
    untraced, untraced_s = run_pass(cli.main, plan)
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        traced, traced_s = run_pass(tracer.wrap(cli.main, spans.ROOT), plan)
    metrics = spans.summarize(tracer, traced_s, untraced_s)
    if any(c["type"].startswith("sweep") for c in plan["commands"]):
        metrics["cli.sweep.degenerate_rows"] = degenerate_rows(plan)
    tracer.save(spans_path)
    return {"runs": untraced + traced, "metrics": metrics, "spans": len(tracer.start)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--mode", choices=("e2e", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("plans", nargs="+")
    args = parser.parse_args(argv)
    cli = import_cli(args.root)
    plans = []
    for path in args.plans:
        with open(path, "r", encoding="utf-8") as fh:
            plans.append(json.load(fh))
    if args.mode == "e2e":
        result = e2e(cli, plans[0], args.seconds)
    else:
        result = {p["workload"]: trace_plan(cli, p, os.path.join(
            os.path.dirname(path), "spans.npz")) for p, path in zip(plans, args.plans)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
