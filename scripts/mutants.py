#!/usr/bin/env python3
"""Run the decision-edge mutants of the package against tier-1 and report
which the tests kill.

Usage: python scripts/mutants.py [LABEL ...]

Each mutant (``MUTANTS``) replaces one exact text of one file by another:
a tolerance edge, a band edge or a branch of the criteria that a test
should pin (ROADMAP item 14).  Each is applied to its own copy of this
tree under a temporary directory, where tier-1 runs with ``-x``; the
mutant is killed if a test fails, and survives if every test passes.  The
checkout itself is never written.  With labels, only those mutants run.

Reporting only: the exit status is 0 whatever survives, and 1 only when a
mutant's old text does not occur exactly once in its file.  A full run
takes one tier-1 run per surviving mutant and less per killed one, some
minutes in all, so tier-1 does not run it; ``tests/test_source.py``
checks only that every old text still occurs exactly once, a test these
runs deselect, since every mutant fails it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORE, CLI, SYMPLECTIC = (f"src/gausssep/{name}.py" for name in ("core", "cli", "symplectic"))
# Tier-1 but the check of the mutant list itself, which every mutant fails
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--deselect",
         "tests/test_source.py::test_every_mutant_text_occurs_once"]


class Mutant(NamedTuple):
    label: str  # ROADMAP item 14's name for it
    path: str  # relative to the tree
    old: str  # occurs exactly once in ``path``
    new: str


MUTANTS = (
    Mutant("hypot branch of _bound", CORE,
           "root = np.where(np.isinf(r2) & np.isfinite(t) & np.isfinite(r), np.hypot(t, r), "
           "np.sqrt(r2))", "root = np.sqrt(r2)"),
    Mutant("closed margin's mode-1 term", CORE,
           "np.minimum(m1_margin, q.n2 - bound)", "q.n2 - bound"),
    Mutant("exact fold's NaN on overflow", CORE,
           "np.where(fails, np.inf, np.where(np.isfinite(x), x, np.nan))",
           "np.where(fails, np.inf, x)"),
    Mutant("tol_psd = 0", CORE,
           "math.isfinite(tol) and tol >= 0.0", "math.isfinite(tol) and tol > 0.0"),
    Mutant("mode-1 h < 0 rule", CORE,
           "return (self.a < -TOL_SING) | ((self.a > TOL_SING) & (self.h < 0.0))",
           "return self.a < -TOL_SING"),
    Mutant("split fold's s > 0 slope", CORE,
           "indefinite | (s > 0.0) |", "indefinite | (s >= 0.0) |"),
    Mutant("_tally's band edge", CLI,
           "(np.abs(margins) <= core.BOUNDARY_BAND)", "(np.abs(margins) < core.BOUNDARY_BAND)"),
    Mutant("_tally's fallback mask", CLI,
           "~np.array(agree, dtype=bool) & ~fell_back", "~np.array(agree, dtype=bool)"),
    Mutant("survivor 1", CORE,
           "indefinite = f.h - np.hypot(_E, _abs(q.m1)) < -TOL_PSD",
           "indefinite = f.h - np.hypot(_E, _abs(q.m1)) < 0.0"),
    Mutant("survivor 2", CORE,
           "FOLD_GAP_RTOL * np.maximum(1.0, np.abs(sep))", "FOLD_GAP_RTOL * np.abs(sep)"),
    Mutant("survivor 3", CORE,
           "tol = tol * np.maximum(1.0, scale[..., :, None] * scale[..., None, :])",
           "tol = tol * (scale[..., :, None] * scale[..., None, :])"),
    Mutant("survivor 4", CORE,
           "physical = phys >= -tol_psd", "physical = phys > -tol_psd"),
    Mutant("survivor 6", CORE,
           "band = np.abs(f.a) <= TOL_SING", "band = np.abs(f.a) < TOL_SING"),
    Mutant("survivor 7", SYMPLECTIC,
           "np.flatnonzero(margins >= -core.TOL_PSD)", "np.flatnonzero(margins >= 0.0)"),
    Mutant("survivor 8", SYMPLECTIC,
           "if not margin >= -core.TOL_PSD:", "if not margin >= 0.0:"),
)


def read(path: str) -> str:
    """The text of ``path``, relative to the tree."""
    with open(os.path.join(TREE, path), encoding="utf-8") as fh:
        return fh.read()


def misplaced() -> list[str]:
    """The labels of the mutants whose old text does not occur exactly once
    in their file."""
    return [m.label for m in MUTANTS if read(m.path).count(m.old) != 1]


def run(mutant: Mutant, work: str) -> tuple[str, str]:
    """(outcome, the first failing test or ""): tier-1 on a copy of the
    tree under ``work`` with ``mutant`` applied."""
    copy = os.path.join(work, "tree")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(TREE, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work"))
    with open(os.path.join(copy, mutant.path), "w", encoding="utf-8") as fh:
        fh.write(read(mutant.path).replace(mutant.old, mutant.new))
    proc = subprocess.run(TIER1, cwd=copy, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT,
                          env={**os.environ, "PYTHONPATH": os.path.join(copy, "src")})
    failed = next((line.split()[1] for line in proc.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), "")
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, f"error (exit {proc.returncode})")
    return outcome, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("labels", nargs="*", help="run only these mutants")
    args = parser.parse_args()
    unknown = sorted(set(args.labels) - {m.label for m in MUTANTS})
    if unknown:
        parser.error(f"unknown mutant labels: {', '.join(unknown)}")
    bad = misplaced()
    if bad:
        print(f"old text not found exactly once: {', '.join(bad)}", file=sys.stderr)
        return 1
    print("| mutant | file | outcome | first failing test |\n|---|---|---|---|", flush=True)
    with tempfile.TemporaryDirectory() as work:
        for mutant in MUTANTS:
            if not args.labels or mutant.label in args.labels:
                outcome, failed = run(mutant, work)
                print(f"| {mutant.label} | `{os.path.basename(mutant.path)}` | {outcome} "
                      f"| {f'`{failed}`' if failed else ''} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
