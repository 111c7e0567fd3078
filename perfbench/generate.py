"""Seeded input generator for the benchmark's workloads.

    python3 perfbench/generate.py --workload classify-mixed --seed 1 --out DIR

writes the workload's input files into DIR together with ``plan.json``: the
CLI argument lists the workload runs, the number of points each command
completes, the one-item command that measures set-up, and what the checker
needs to know.  The same seed gives byte-identical files.  The generator
uses numpy only; the program under test sees nothing but the files and
arguments it writes.

Every input is finite and every command exits 0 on it: non-finite and
overflowing parameters are a matter for the test suite, not this benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference as ref  # noqa: E402

WORKLOADS = ("classify-mixed", "sample-campaign", "sweep-grid", "forms")

# Sizes of one pass over each workload.  Each pass is split into commands of
# about 0.03-0.15 s, so that one run times a few hundred commands, each
# close enough in time to its calibration probes (see calibration.py).
CLASSIFY_STATES = 20_000
CLASSIFY_MIX = {"box": 0.49, "construct": 0.49, "d0": 0.02}
CLASSIFY_MATRIX_FRAC = 0.10
SAMPLE_CONSTRUCT = 6_000
SAMPLE_REJECT = 2_000
SWEEP_AXIS1 = "m1:0:1.2:40"
SWEEP_AXIS2 = "mc:0:1.2:40"
SWEEP_N1 = 1.0
FIG1_AXIS = "n1:0.75:4.0:40"  # the CLI's --fig1 preset, with m1 = 0.5 and m2 = 1
FORMS_STATES = 10_000
TRANSFORM = {"theta1": 0.4, "phi2": 0.3}
CHUNK_STATES = 500   # states per classify / invariants / transform command
SAMPLE_CHUNK = 250   # states per sample command
SWEEP_CHUNK = 2      # axis-2 points per sweep-grid command (80 rows)
SQUEEZED_PREFIX = "sq"


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# State families (vectorised; independent of the program's own samplers)


def box_params(rng, n, n_lo=0.4, n_hi=3.0, m_max=1.0) -> dict:
    """Unconstrained box draws, physical or not: n_i uniform, |m| <= m_max."""
    occ = rng.uniform(n_lo, n_hi, size=(n, 2))
    mods = rng.uniform(0.0, m_max, size=(n, 4))
    args = rng.uniform(0.0, 2 * math.pi, size=(n, 4))
    m = mods * np.exp(1j * args)
    return {"n1": occ[:, 0], "n2": occ[:, 1],
            "m1": m[:, 0], "m2": m[:, 1], "ms": m[:, 2], "mc": m[:, 3]}


def mixer(r, gamma) -> np.ndarray:
    """Stack of two-mode-squeezing symplectics coupling the modes."""
    ch, sh = np.cosh(r), np.sinh(r)
    ep, em = np.exp(1j * gamma), np.exp(-1j * gamma)
    M = np.zeros(np.shape(r) + (4, 4), dtype=complex)
    M[..., 0, 0] = M[..., 1, 1] = M[..., 2, 2] = M[..., 3, 3] = ch
    M[..., 0, 3] = em * sh
    M[..., 1, 2] = ep * sh
    M[..., 2, 1] = em * sh
    M[..., 3, 0] = ep * sh
    return M


def construct_params(rng, n, nu_max=5.0, theta_max=1.0, r_max=1.0) -> dict:
    """Physical states: a thermal diagonal conjugated by a random local
    symplectic and a random two-mode mixer."""
    nu = rng.uniform(0.5, nu_max, size=(n, 2))
    theta = rng.uniform(0.0, theta_max, size=(n, 2))
    ang = rng.uniform(0.0, 2 * math.pi, size=(n, 4))
    r = rng.uniform(0.0, r_max, size=n)
    gamma = rng.uniform(0.0, 2 * math.pi, size=n)
    V = np.zeros((n, 4, 4), dtype=complex)
    for k, idx in enumerate((0, 0, 1, 1)):
        V[:, k, k] = nu[:, idx]
    S = ref.local_symplectic(theta[:, 0], ang[:, 0], ang[:, 1], theta[:, 1], ang[:, 2], ang[:, 3])
    V = ref.congruence(mixer(r, gamma), ref.congruence(S, V))
    return ref.params_of(V)


def d0_params(rng, n) -> dict:
    """Exact d = d' = 0 points (n1 = 1/2, m1 = 0); half carry no cross
    correlation (physical when mode 2 is), half a random one (unphysical)."""
    p = box_params(rng, n)
    p["n1"] = np.full(n, 0.5)
    p["m1"] = np.zeros(n, dtype=complex)
    quiet = np.arange(n) < n // 2
    p["ms"] = np.where(quiet, 0.0, p["ms"])
    p["mc"] = np.where(quiet, 0.0, p["mc"])
    return p


def squeezed_form_params(rng, n) -> dict:
    """Invariant forms 1 (mc = mu) and 2 (ms = mu), strictly inside the
    physical region, under a local symplectic with vphi = 0."""
    nu = rng.uniform(0.6, 4.0, size=(n, 2))
    form2 = rng.uniform(size=n) < 0.5
    a, b = nu[:, 0], nu[:, 1]
    limit = np.where(form2, (a - 0.5) * (b - 0.5),
                     np.minimum((a + 0.5) * (b - 0.5), (a - 0.5) * (b + 0.5)))
    mu = rng.uniform(0.0, 0.95, size=n) * np.sqrt(limit) * np.exp(
        1j * rng.uniform(0.0, 2 * math.pi, size=n))
    zero = np.zeros(n, dtype=complex)
    V = ref.covariance(a, b, zero, zero, np.where(form2, mu, 0.0), np.where(form2, 0.0, mu))
    theta = rng.uniform(0.0, 1.0, size=(n, 2))
    phi = rng.uniform(0.0, 2 * math.pi, size=(n, 2))
    S = ref.local_symplectic(theta[:, 0], phi[:, 0], 0.0, theta[:, 1], phi[:, 1], 0.0)
    return ref.params_of(ref.congruence(S, V))


def _rows(p: dict) -> list[tuple]:
    return list(zip(*(p[k] for k in ref.PARAM_NAMES)))


def _record(rec_id: str, row: tuple, as_matrix: bool) -> dict:
    if not as_matrix:
        return {"id": rec_id, "params": ref.params_to_json(*row)}
    V = ref.covariance(*row)
    return {"id": rec_id, "matrix": [[[float(c.real), float(c.imag)] for c in r] for r in V]}


def _write_jsonl(path: str, records: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Workloads


def _write_chunks(records: list, size: int, out: str) -> list[tuple[str, int]]:
    """Write the records in chunks of ``size``; return (path, records) per chunk."""
    chunks = []
    for k in range(0, len(records), size):
        path = os.path.join(out, f"states-{k // size:03d}.jsonl")
        _write_jsonl(path, records[k:k + size])
        chunks.append((path, len(records[k:k + size])))
    return chunks


def _chunk_commands(chunks: list, out: str, stem: str, argv_of) -> list:
    """One command per input chunk; ``argv_of(input, output)`` gives its arguments."""
    commands = []
    for k, (path, n) in enumerate(chunks):
        output = os.path.join(out, f"{stem}-{k:03d}.out")
        commands.append({"type": stem, "points": n, "input": path, "output": output,
                         "argv": argv_of(path, output)})
    return commands


def _classify_mixed(rng, out: str) -> dict:
    counts = {k: int(round(CLASSIFY_STATES * f)) for k, f in CLASSIFY_MIX.items()}
    families = {"box": box_params, "construct": construct_params, "d0": d0_params}
    tagged = []
    for kind, count in counts.items():
        tagged += [(kind, row) for row in _rows(families[kind](rng, count))]
    order = rng.permutation(len(tagged))
    as_matrix = rng.uniform(size=len(tagged)) < CLASSIFY_MATRIX_FRAC
    records = [_record(f"{tagged[j][0]}-{i}", tagged[j][1], bool(as_matrix[i]))
               for i, j in enumerate(order)]
    setup_path = os.path.join(out, "setup.jsonl")
    _write_jsonl(setup_path, records[:1])

    def argv(path, output):
        return ["classify", "--method", "both", "--input", path, "--output", output]

    return {
        "commands": _chunk_commands(_write_chunks(records, CHUNK_STATES, out), out,
                                    "classify", argv),
        "setup_argv": argv(setup_path, os.path.join(out, "setup.out")),
        "composition": {**counts, "matrix_records": int(as_matrix.sum()), "states": len(records),
                        "states_per_command": CHUNK_STATES},
    }


def _sample_campaign(rng, out: str) -> dict:
    commands = []
    for mode, total in (("construct", SAMPLE_CONSTRUCT), ("reject", SAMPLE_REJECT)):
        for k in range(0, total, SAMPLE_CHUNK):
            count = min(SAMPLE_CHUNK, total - k)
            seed = int(rng.integers(0, 2**31 - 1))
            output = os.path.join(out, f"sample-{mode}-{k // SAMPLE_CHUNK:03d}.out")
            commands.append({
                "type": f"sample-{mode}", "points": count, "count": count, "output": output,
                "argv": ["sample", "--mode", mode, "--count", str(count), "--seed", str(seed),
                         "--output", output],
            })
    return {
        "commands": commands,
        "setup_argv": ["sample", "--mode", "construct", "--count", "1", "--seed", "1",
                       "--output", os.path.join(out, "setup.out")],
        "composition": {"construct": SAMPLE_CONSTRUCT, "reject": SAMPLE_REJECT,
                        "states_per_command": SAMPLE_CHUNK},
    }


def axis_grid(spec: str) -> tuple[str, np.ndarray]:
    """(name, grid) of a CLI axis spec ``name:min:max:steps``."""
    name, lo, hi, steps = spec.split(":")
    return name, np.linspace(float(lo), float(hi), int(steps))


def _sweep_grid(rng, out: str) -> dict:
    # The seed sets the fixed m2, which moves every fold but not which rows
    # are degenerate (that depends on n1 and m1 only).  The grid is split
    # along axis 2, so that every command sweeps all of axis 1 and carries
    # the same share of degenerate rows.
    m2 = f"{rng.uniform(0.0, 0.5):.6f}"
    rows1 = len(axis_grid(SWEEP_AXIS1)[1])
    name2, grid2 = axis_grid(SWEEP_AXIS2)
    commands = []
    for k in range(0, len(grid2), SWEEP_CHUNK):
        part = grid2[k:k + SWEEP_CHUNK]
        spec2 = f"{name2}:{float(part[0])!r}:{float(part[-1])!r}:{len(part)}"
        output = os.path.join(out, f"sweep-grid-{k // SWEEP_CHUNK:03d}.csv")
        commands.append({
            "type": "sweep-grid", "points": rows1 * len(part), "output": output,
            "axes": [SWEEP_AXIS1, spec2], "base": {"n1": SWEEP_N1, "m2": float(m2)},
            "argv": ["sweep", "--axis1", SWEEP_AXIS1, "--axis2", spec2, "--n1", repr(SWEEP_N1),
                     "--fixed", f"m2={m2}", "--output", output],
        })
    fig1_out = os.path.join(out, "sweep-fig1.csv")
    fig1_rows = len(axis_grid(FIG1_AXIS)[1])
    commands.append({"type": "sweep-fig1", "points": fig1_rows, "output": fig1_out,
                     "axes": [FIG1_AXIS], "base": {"m1": 0.5, "m2": 1.0},
                     "argv": ["sweep", "--fig1", "--output", fig1_out]})
    return {
        "commands": commands,
        "setup_argv": ["sweep", "--axis1", "mc:0:1.2:2", "--n1", repr(SWEEP_N1),
                       "--fixed", f"m2={m2}", "--output", os.path.join(out, "setup.out")],
        "composition": {"grid_rows": rows1 * len(grid2), "fig1_rows": fig1_rows,
                        "m2": float(m2), "rows_per_grid_command": rows1 * SWEEP_CHUNK},
    }


def _forms(rng, out: str) -> dict:
    half = FORMS_STATES // 2
    records = [_record(f"{SQUEEZED_PREFIX}-{i}", row, False)
               for i, row in enumerate(_rows(squeezed_form_params(rng, half)))]
    records += [_record(f"gen-{i}", row, False)
                for i, row in enumerate(_rows(construct_params(rng, FORMS_STATES - half)))]
    records = [records[j] for j in rng.permutation(len(records))]
    setup_path = os.path.join(out, "setup.jsonl")
    _write_jsonl(setup_path, records[:1])
    angles = []
    for name, value in TRANSFORM.items():
        angles += [f"--{name}", repr(value)]

    def invariants(path, output):
        return ["invariants", "--input", path, "--output", output]

    def transform(path, output):
        return ["transform", "--input", path, *angles, "--reduce", "--output", output]

    chunks = _write_chunks(records, CHUNK_STATES, out)
    commands = _chunk_commands(chunks, out, "invariants", invariants)
    for c in _chunk_commands(chunks, out, "transform", transform):
        commands.append({**c, "symplectic": TRANSFORM, "squeezed_prefix": SQUEEZED_PREFIX})
    return {
        "commands": commands,
        "setup_argv": transform(setup_path, os.path.join(out, "setup.out")),
        "composition": {"squeezed_forms": half, "construct": FORMS_STATES - half,
                        "states": len(records), "states_per_command": CHUNK_STATES},
    }


BUILDERS = {
    "classify-mixed": _classify_mixed,
    "sample-campaign": _sample_campaign,
    "sweep-grid": _sweep_grid,
    "forms": _forms,
}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs and plan.json into ``out``; return the plan."""
    os.makedirs(out, exist_ok=True)
    plan = {"workload": workload, "seed": seed, **BUILDERS[workload](rng_for(workload, seed), out)}
    plan["points"] = sum(c["points"] for c in plan["commands"])
    with open(os.path.join(out, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the inputs and plan.json")
    args = parser.parse_args(argv)
    plan = generate(args.workload, args.seed, args.out)
    print(json.dumps({"workload": plan["workload"], "points": plan["points"],
                      "composition": plan["composition"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
