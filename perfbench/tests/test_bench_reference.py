"""The checker accepts outputs that agree with the reference and flags
hand-corrupted ones.  Every output record here is fabricated in the test
from the reference itself; the program under test is not run."""

import copy
import csv
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import generate  # noqa: E402
import reference as ref  # noqa: E402


def _inputs(n=40, seed=3):
    rng = np.random.default_rng(seed)
    rows = generate._rows(generate.box_params(rng, n)) + generate._rows(
        generate.construct_params(rng, n))
    return [generate._record(f"s{i}", row, as_matrix=(i % 7 == 0)) for i, row in enumerate(rows)]


def _verdict(margins, method):
    phys = bool(margins[0] >= -ref.TOL_PSD)
    v = {"physical": phys, "separable": None, "p_representable": None,
         "margin_physical": float(margins[0]), "margin_separable": None, "margin_prep": None,
         "method": method, "fallbacks": []}
    if phys:
        v.update(separable=bool(margins[1] >= -ref.TOL_PSD),
                 p_representable=bool(margins[2] >= -ref.TOL_PSD),
                 margin_separable=float(margins[1]), margin_prep=float(margins[2]))
    return v


def _classify_outputs(inputs):
    margins = ref.oracle_margins(ref.matrices(inputs))
    out = []
    for rec, m in zip(inputs, margins):
        r = {"id": rec["id"], **_verdict(m, "closed-form")}
        r["eig"] = _verdict(m, "eigen-oracle")
        r["methods_agree"] = True
        out.append(r)
    return out


def _first_physical(outputs, entangled=None):
    for i, r in enumerate(outputs):
        if r["physical"] and (entangled is None or r["separable"] is (not entangled)):
            return i
    raise AssertionError("no suitable record")


def test_consistent_classify_output_passes():
    inputs = _inputs()
    check = ref.check_classify(inputs, _classify_outputs(inputs))
    assert check.attempted == len(inputs)
    assert check.failures == {}


@pytest.mark.parametrize("corruption", [
    "flip_physical", "flip_separable_eig", "oracle_margin_off", "drop_last",
    "nesting", "methods_agree", "separable_on_unphysical", "reorder",
])
def test_corrupted_classify_record_is_flagged(corruption):
    inputs = _inputs()
    outputs = _classify_outputs(inputs)
    bad = copy.deepcopy(outputs)
    if corruption == "flip_physical":
        i = _first_physical(bad)
        bad[i]["physical"] = False
        bad[i]["separable"] = bad[i]["p_representable"] = None
        bad[i]["margin_separable"] = bad[i]["margin_prep"] = None
    elif corruption == "flip_separable_eig":
        i = _first_physical(bad)
        bad[i]["eig"]["separable"] = not bad[i]["eig"]["separable"]
    elif corruption == "oracle_margin_off":
        i = 0
        bad[i]["eig"]["margin_physical"] += 1e-6
    elif corruption == "drop_last":
        i = len(bad) - 1
        bad.pop()
    elif corruption == "nesting":
        i = _first_physical(bad, entangled=True)
        bad[i]["p_representable"] = True
    elif corruption == "methods_agree":
        i = 1
        bad[i]["methods_agree"] = False
    elif corruption == "separable_on_unphysical":
        i = next(k for k, r in enumerate(bad) if not r["physical"])
        bad[i]["separable"] = True
    else:
        i = 0
        bad[0], bad[1] = bad[1], bad[0]
    check = ref.check_classify(inputs, bad)
    assert inputs[i]["id"] in check.failures
    assert check.failed >= 1


def _sample_outputs(inputs):
    physical = [r for r in inputs if ref.oracle_margins(ref.matrices([r]))[0, 0] > ref.BAND]
    V = ref.matrices(physical)
    margins = ref.oracle_margins(V)
    records, tally = [], dict.fromkeys(ref.SUMMARY_KEYS, 0)
    for i, (m, Vi) in enumerate(zip(margins, V)):
        p = ref.params_of(Vi)
        eig = _verdict(m, "eigen-oracle")
        records.append({"index": i, "params": ref.params_to_json(*(p[k] for k in ref.PARAM_NAMES)),
                        "closed": _verdict(m, "closed-form"), "eig": eig, "agree": True})
        tally["separable"] += eig["separable"] is True
        tally["entangled"] += eig["separable"] is False
        tally["p_representable"] += eig["p_representable"] is True
        tally["separable_not_prep"] += eig["separable"] is True and eig["p_representable"] is False
    records.append({"summary": {"count": len(physical), **tally}})
    return records


def test_sample_output_checks():
    outputs = _sample_outputs(_inputs())
    count = len(outputs) - 1
    assert ref.check_sample(outputs, count).failures == {}
    bad = copy.deepcopy(outputs)
    bad[2]["eig"]["margin_prep"] = -abs(bad[2]["eig"]["margin_prep"]) - 1.0
    assert "state2" in ref.check_sample(bad, count).failures
    bad = copy.deepcopy(outputs)
    bad[-1]["summary"]["separable"] += 1
    assert "summary" in ref.check_sample(bad, count).failures
    assert "state0" in ref.check_sample(outputs[1:], count).failures


def _write_sweep(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _phys_fold(n1, m2):
    # With no cross correlations the physicality fold is mode 2's own bound.
    return math.sqrt(0.25 + m2 ** 2) if n1 ** 2 - 0.25 > 0 else math.inf


def test_sweep_fold_checks(tmp_path):
    grid = np.linspace(0.6, 2.0, 5)
    axes = [("n1", grid)]
    base = {"m2": 0.3}
    header = ["n1", "n2_min_physical", "n2_min_separable", "n2_min_prep",
              "prep_below_sep_flag", "degenerate"]
    good = [[repr(float(a)), repr(_phys_fold(a, 0.3)), repr(_phys_fold(a, 0.3)), "0", "0", "0"]
            for a in grid]
    path = tmp_path / "sweep.csv"
    _write_sweep(path, header, good)
    assert ref.check_sweep(path, axes, base).failures == {}

    too_high = copy.deepcopy(good)
    too_high[1][1] = repr(float(too_high[1][1]) * 1.01)
    _write_sweep(path, header, too_high)
    assert "row1" in ref.check_sweep(path, axes, base).failures

    too_low = copy.deepcopy(good)
    too_low[2][2] = repr(float(too_low[2][2]) * 0.99)
    _write_sweep(path, header, too_low)
    assert "row2" in ref.check_sweep(path, axes, base).failures

    false_inf = copy.deepcopy(good)
    false_inf[3][1] = "inf"
    _write_sweep(path, header, false_inf)
    assert "row3" in ref.check_sweep(path, axes, base).failures

    _write_sweep(path, header, good[:-1])
    assert "row4" in ref.check_sweep(path, axes, base).failures


def test_sweep_infinite_fold_accepted(tmp_path):
    # n1 = 0.5 with |m1| = 0.2 violates mode 1's uncertainty for every n2.
    path = tmp_path / "sweep.csv"
    _write_sweep(path, ["m1", "n2_min_physical", "n2_min_separable"],
                 [[repr(0.2), "inf", "inf"]])
    axes = [("m1", np.array([0.2]))]
    assert ref.check_sweep(path, axes, {"n1": 0.5}).failures == {}


def _forms_inputs(n=20):
    rng = np.random.default_rng(5)
    sq = generate._rows(generate.squeezed_form_params(rng, n))
    gen = generate._rows(generate.construct_params(rng, n))
    return ([generate._record(f"sq-{i}", r, False) for i, r in enumerate(sq)]
            + [generate._record(f"gen-{i}", r, False) for i, r in enumerate(gen)])


def test_invariants_checks():
    inputs = _forms_inputs()
    inv = ref.invariants(ref.matrices(inputs))
    outputs = [{"id": r["id"], "i1": a, "i2": b, "i3": c, "i4": d}
               for r, (a, b, c, d) in zip(inputs, inv.tolist())]
    assert ref.check_invariants(inputs, outputs).failures == {}
    outputs[4]["i3"] += 1e-3
    assert list(ref.check_invariants(inputs, outputs).failures) == [inputs[4]["id"]]


def test_transform_checks():
    inputs = _forms_inputs()
    angles = {"theta1": 0.4, "phi2": 0.3}
    V = ref.matrices(inputs)
    S = ref.local_symplectic(0.4, 0.0, 0.0, 0.0, 0.3, 0.0)
    W = ref.params_of(ref.congruence(S, V))
    inv = ref.invariants(V)
    outputs = []
    for i, r in enumerate(inputs):
        rec = {"id": r["id"], "transformed_params": ref.params_to_json(
            *(W[k][i] for k in ref.PARAM_NAMES))}
        if r["id"].startswith("sq"):
            i1, i2, i3, _ = inv[i]
            rec["reduction"] = {"applicable": True, "form": "form1" if i3 < 0 else "form2",
                                "nu1": math.sqrt(i1), "nu2": math.sqrt(i2),
                                "mu": [math.sqrt(abs(i3)), 0.0], "residual": 1e-15}
        else:
            rec["reduction"] = {"applicable": False, "residual": 0.5}
        outputs.append(rec)
    assert ref.check_transform(inputs, outputs, angles, "sq").failures == {}

    bad = copy.deepcopy(outputs)
    bad[0]["reduction"]["nu1"] *= 1.001
    bad[1]["reduction"]["form"] = "form2" if bad[1]["reduction"]["form"] == "form1" else "form1"
    bad[2]["reduction"] = {"applicable": False, "residual": 0.1}
    bad[-1]["transformed_params"]["mc"][0] += 1e-6
    bad[-2]["reduction"]["residual"] = 0.0
    failures = ref.check_transform(inputs, bad, angles, "sq").failures
    assert set(failures) == {inputs[k]["id"] for k in (0, 1, 2, -1, -2)}
