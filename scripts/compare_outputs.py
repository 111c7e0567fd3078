#!/usr/bin/env python3
"""Compare the CLI's output bytes, exit codes and stderr of two source trees.

Usage: python scripts/compare_outputs.py BASE_TREE

For every workload of ``perfbench/generate.py`` at seeds 1 and 2, the
inputs are generated once, by the generator of the tree holding this
script, and every plan command and the set-up command run in that tree and
in BASE_TREE, with the workload's ``EXTRA`` commands, which no plan runs
(those that take no seed at the first seed only):
one interpreter per tree and workload, which imports that tree's ``src``
and calls ``gausssep.cli.main`` in-process, command after command.  At the
first seed, as none of its commands reads the seed, the error-path group
(``ERRORS``) runs the same way: the reading
commands on small files this script writes, with ids of every JSON kind and
malformed records, ``sweep`` with a parameter named twice, and argparse's
usage errors (``USAGE_ERRORS``), whose stderr is the parser's.  The
commands whose exit code, output bytes or stderr differ are listed as
Markdown, printed and appended to the file named by
``$GITHUB_STEP_SUMMARY`` when it is set.  The exit status is 0 whatever
differs, since a fix may change bytes on purpose; it is 1 only when the
comparison itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("classify-mixed", "sample-campaign", "sweep-grid", "forms")
ERRORS = "error-paths"
SEEDS = (1, 2)
TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Commands of the paths no plan takes, run with the workload's plan, at each
# seed if they read ``{seed}`` and at the first seed only if not: a
# ``sample`` of two batches (``SAMPLE_BATCH`` is 1024) in each mode; two
# sweeps whose folds are mostly exact folds: 441 of 861 rows degenerate (1
# with d = 0, 31 with d' = 0, 210 with P's h < 0; 55 P-folds below the
# S-fold) and 341 of 561 (11 with d' = 0, 110 with h < 0); and a 2 x 37
# sweep, whose axis 2 is longer than its axis 1 (44 of 74 rows degenerate)
EXTRA = {"sample-campaign": [["sample", "--count", "1100", "--mode", mode, "--seed", "{seed}",
                              "--output", f"sample-{mode}-1100.out"]
                             for mode in ("construct", "reject")],
         "sweep-grid": [["sweep", "--axis1", "n1:0:2:41", "--axis2", "m1:0:1:21", "--fixed", "ms=0.3",
                         "--fixed", "mc=0.2", "--fixed", "m2=0.2", "--output", "sweep-band-n1-m1.csv"],
                        ["sweep", "--axis1", "n1:0.25:1.5:51", "--axis2", "mc:0:1:11", "--fixed",
                         "m1=0.5", "--fixed", "m2=1", "--output", "sweep-band-n1-mc.csv"],
                        ["sweep", "--axis1", "ms:0:0.6:2", "--axis2", "m1:0:1.2:37", "--fixed",
                         "mc=0.3", "--fixed", "m2=0.4", "--output", "sweep-2x37.csv"]]}

# The JSONL text of each input file of the error-path group: ids of every
# JSON kind (the strings' non-ASCII characters raw, U+2028 among them), then
# one malformed record per file
_STATE = '"params": {"n1": 1, "n2": 1, "mc": [0.6, 0]}'
_IDS = ("7", "-0.0", "2.5", "1e308", "123456789012345678901234567890", "true", "false",
        "null", '"\u00e9tat \u2603\\u0001"', '"line\u2028separator"', '[1, "a"]',
        '{"k": [null]}')
_ROW = "[[1, 0], [0, 0], [0, 0], [0, 0]]"
ERROR_INPUTS = {
    "ids": "".join(f'{{"id": {i}, {_STATE}}}\n' for i in _IDS) + f"{{{_STATE}}}\n",
    "nan-id": f'{{"id": [1, NaN], {_STATE}}}\n',
    "ragged": '{"matrix": [%s, [[0, 0], [1, 0], [0, 0]], %s, %s]}\n' % (_ROW, _ROW, _ROW),
    "matrix-4x3": '{"matrix": [%s]}\n' % ", ".join(["[[1, 0], [0, 0], [0, 0]]"] * 4),
    "matrix-not-list": '{"matrix": 5}\n',
}
ERROR_READERS = (["classify", "--method", "both"], ["invariants"], ["transform", "--reduce"])
ERROR_SWEEPS = (["--n1", "3", "--fixed", "n1=2", "--axis1", "m1:0:0.5:2", "--fixed", "m2=1"],
                ["--n1", "2", "--axis1", "n1:0.75:4:3"],
                ["--fig1", "--n1", "2"])
# Argument lists that argparse rejects (exit 2), each with an ``--output``
# that names it, but the empty one: there an ``--output``'s value would be
# read as the subcommand
USAGE_ERRORS = ([],
                ["frobnicate", "--output", "usage-unknown-command.out"],
                ["sweep", "--axis1", "m1:0:1:3", "--bogus", "--output", "usage-unrecognized.out"],
                ["sweep", "--output", "usage-missing-value.out", "--axis1"],
                ["classify", "--output", "usage-missing-input.out"],
                ["classify", "--method", "guess", "--output", "usage-bad-choice.out"],
                ["sample", "--count", "1.5", "--output", "usage-bad-int.out"])

# Runs the JSON list of argument lists on stdin through ``main``, quietly;
# prints where ``gausssep`` was imported from and the exit code and stderr
# of each.
RUNNER = r"""
import contextlib, io, json, sys
import gausssep
from gausssep.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a bug in that tree, reported as its result
            code = "raised " + type(exc).__name__
    results.append([code, err.getvalue()])
json.dump({"package": gausssep.__file__, "results": results}, sys.stdout)
"""


def plan_commands(tree: str, workload: str, seed: int, inputs: str) -> list[list[str]]:
    """The plan, set-up and ``EXTRA`` argument lists of ``workload`` at
    ``seed``, whose inputs ``tree``'s generator writes into ``inputs``."""
    subprocess.run([sys.executable, os.path.join(tree, "perfbench", "generate.py"),
                    "--workload", workload, "--seed", str(seed), "--out", inputs],
                   check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(inputs, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    extra = [[a.format(seed=seed) for a in argv] for argv in EXTRA.get(workload, [])
             if seed == SEEDS[0] or "{seed}" in argv]
    return [c["argv"] for c in plan["commands"]] + [plan["setup_argv"]] + extra


def error_commands(inputs: str) -> list[list[str]]:
    """The argument lists of the error-path group, whose input files are
    written into ``inputs``."""
    os.makedirs(inputs)
    argvs = []
    for name, text in ERROR_INPUTS.items():
        path = os.path.join(inputs, f"{name}.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        argvs += [[*argv, "--input", path, "--output", f"{name}-{argv[0]}.out"]
                  for argv in ERROR_READERS]
    return argvs + [["sweep", *argv, "--output", f"sweep-{k}.out"]
                    for k, argv in enumerate(ERROR_SWEEPS)] + list(USAGE_ERRORS)


def output_name(argv: list[str]) -> str | None:
    """The file name of ``argv``'s ``--output``, or None if it has none."""
    return os.path.basename(argv[argv.index("--output") + 1]) if "--output" in argv else None


def with_output(argv: list[str], out: str) -> list[str]:
    """``argv`` writing its ``--output`` file, if it has one, into the
    directory ``out``."""
    if "--output" not in argv:
        return argv
    k = argv.index("--output") + 1
    return [*argv[:k], os.path.join(out, output_name(argv)), *argv[k + 1:]]


def run_tree(tree: str, argvs: list[list[str]], out: str) -> list:
    """The [exit code, stderr] of each of ``argvs`` run in one interpreter on
    ``tree``'s package, with outputs in ``out``."""
    os.makedirs(out)
    src = os.path.join(os.path.abspath(tree), "src")
    proc = subprocess.run([sys.executable, "-c", RUNNER], cwd=out, check=True, text=True,
                          input=json.dumps([with_output(a, out) for a in argvs]),
                          stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    result = json.loads(proc.stdout)
    if not result["package"].startswith(src + os.sep):
        raise RuntimeError(f"{tree}: imported gausssep from {result['package']}")
    return result["results"]


def read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def compare(base: str, new: str, work: str) -> tuple[int, list[str]]:
    """(number of commands, a Markdown row per command that differs)."""
    total, rows = 0, []
    for workload in (*WORKLOADS, ERRORS):
        for seed in SEEDS if workload != ERRORS else SEEDS[:1]:
            here = os.path.join(work, f"{workload}-{seed}")
            inputs = os.path.join(here, "inputs")
            argvs = (error_commands(inputs) if workload == ERRORS
                     else plan_commands(new, workload, seed, inputs))
            results = {name: run_tree(tree, argvs, os.path.join(here, name))
                       for name, tree in (("base", base), ("new", new))}
            for argv, (code_base, err_base), (code_new, err_new) in zip(
                    argvs, results["base"], results["new"]):
                total += 1
                name = output_name(argv)
                same = name is None or (read(os.path.join(here, "base", name))
                                        == read(os.path.join(here, "new", name)))
                if code_base != code_new or not same or err_base != err_new:
                    shown = " ".join(os.path.basename(a) if os.sep in a else a for a in argv)
                    rows.append(f"| {workload} | {seed} | `{shown}` | {code_base} | {code_new} "
                                f"| {'same' if same else 'differ'} "
                                f"| {'same' if err_base == err_new else 'differ'} |")
    return total, rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the source tree to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        total, rows = compare(args.base, TREE, work)
    lines = [f"### Output bytes against the base tree: {len(rows)} of {total} commands differ", ""]
    if rows:
        lines += ["| workload | seed | command | base exit | new exit | output | stderr |",
                  "|---|---|---|---|---|---|---|", *rows]
    else:
        lines.append("Every command wrote the base tree's bytes, exit code and stderr.")
    text = "\n".join(lines) + "\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
