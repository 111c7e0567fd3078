"""The workload generator is deterministic per seed and writes the
composition it declares."""

import filecmp
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import generate  # noqa: E402
import reference as ref  # noqa: E402


@pytest.fixture(autouse=True)
def small_sizes(monkeypatch):
    monkeypatch.setattr(generate, "CLASSIFY_STATES", 400)
    monkeypatch.setattr(generate, "FORMS_STATES", 200)


def _files(d):
    return sorted(os.listdir(d))


def _relocated(plan_path, d):
    with open(plan_path) as fh:
        return fh.read().replace(str(d), "<dir>")


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_same_bytes(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    generate.generate(workload, 7, str(a))
    generate.generate(workload, 7, str(b))
    generate.generate(workload, 8, str(c))
    assert _files(a) == _files(b)
    for name in _files(a):
        if name == "plan.json":
            assert _relocated(a / name, a) == _relocated(b / name, b)
        else:
            assert filecmp.cmp(a / name, b / name, shallow=False), name
    assert _relocated(a / "plan.json", a) != _relocated(c / "plan.json", c)


def test_classify_mixed_composition(tmp_path):
    plan = generate.generate("classify-mixed", 1, str(tmp_path))
    records = ref.read_jsonl(plan["commands"][0]["input"])
    assert len(records) == plan["points"] == 400
    kinds = [r["id"].split("-")[0] for r in records]
    assert kinds.count("box") == kinds.count("construct") == 196
    assert kinds.count("d0") == 8
    assert 0 < sum("matrix" in r for r in records) < 100
    margins = ref.oracle_margins(ref.matrices(records))
    construct = np.array([k == "construct" for k in kinds])
    assert (margins[construct, 0] > 0).all()
    d0 = [r for r, k in zip(records, kinds) if k == "d0"]
    V = ref.matrices(d0)
    assert (V[:, 0, 0].real == 0.5).all() and (V[:, 0, 1] == 0).all()


def test_forms_inputs_are_physical(tmp_path):
    plan = generate.generate("forms", 1, str(tmp_path))
    records = ref.read_jsonl(plan["commands"][0]["input"])
    margins = ref.oracle_margins(ref.matrices(records))
    assert (margins[:, 0] > 0).all()
    assert sum(r["id"].startswith(generate.SQUEEZED_PREFIX) for r in records) == 100


def test_plan_lists_commands_and_setup(tmp_path):
    for workload in generate.WORKLOADS:
        plan = generate.generate(workload, 2, str(tmp_path / workload))
        assert plan["points"] == sum(c["points"] for c in plan["commands"])
        assert plan["setup_argv"][0] in {c["argv"][0] for c in plan["commands"]}
        with open(tmp_path / workload / "plan.json") as fh:
            assert json.load(fh) == plan
