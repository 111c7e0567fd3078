import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausssep import cli, core, errors, symplectic
from gausssep.cli import main
from gausssep.core import GaussianParams


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def cli_child(argv):
    """``subprocess`` arguments that run the CLI on ``argv`` in a child
    process that imports the same package as this suite, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return {"args": [sys.executable, "-m", "gausssep.cli", *argv], "env": env}


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def write_raw_jsonl(path, records):
    """``write_jsonl`` with every character that JSON allows raw in a string
    written raw, not escaped: non-ASCII ones, U+2028 among them."""
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")


# Record ids of every JSON kind: the echoed ids of the id-echoing commands
ECHOED_IDS = [7, None, "état \u2603\x01", 2.5, True, 1e308, [1, "a"], {"k": [None]},
              "line\u2028separator"]


VACUUM_REC = {"id": "vacuum", "params": {"n1": 0.5, "n2": 0.5}}
ENTANGLED_REC = {"id": "ent", "params": {"n1": 1, "n2": 1, "mc": [0.6, 0]}}


def assert_batch_equals_singles(tmp_path, argv, records):
    """``argv`` on a file of ``records`` writes the bytes of its one-record
    runs in a row: a record's output does not depend on the other records."""
    f = tmp_path / "all.jsonl"
    write_jsonl(f, records)
    assert main([*argv, "--input", str(f), "--output", str(tmp_path / "all.out")]) == 0
    singles = b""
    for k, rec in enumerate(records):
        g = tmp_path / f"one{k}.jsonl"
        write_jsonl(g, [rec])
        o = tmp_path / f"one{k}.out"
        assert main([*argv, "--input", str(g), "--output", str(o)]) == 0
        singles += o.read_bytes()
    assert (tmp_path / "all.out").read_bytes() == singles


class TestClassify:
    def test_vacuum(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC])
        code, out = run(["classify", "--input", str(f)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["id"] == "vacuum"
        assert rec["physical"] and rec["separable"] and rec["p_representable"]
        assert abs(rec["margin_physical"]) <= 1e-10

    def test_entangled(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [ENTANGLED_REC])
        code, out = run(["classify", "--input", str(f), "--method", "both"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["physical"] and rec["separable"] is False
        assert rec["methods_agree"]

    def test_closed_bound_past_the_square_root_of_the_float_limit(self, tmp_path, capsys):
        # |m2 - c/d| = 1e159 squares past the float limit, but the bound is
        # 1e159: the closed route decides the state as the oracle does
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"id": "a", "params": {"n1": 1, "n2": 1e160, "m2": [1e159, 0]}}])
        code, out = run(["classify", "--input", str(f), "--method", "both"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "closed-form" and rec["methods_agree"]
        for r in (rec, rec["eig"]):
            assert r["physical"] and r["separable"] and r["p_representable"]
            assert r["margin_physical"] == r["margin_separable"] == r["margin_prep"] == 0.5

    def test_json_document_format(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"states": [VACUUM_REC, ENTANGLED_REC]}))
        code, out = run(["classify", "--input", str(f), "--format", "json"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_matrix_input(self, tmp_path, capsys):
        m = [[[0.5, 0], [0, 0], [0, 0], [0, 0]],
             [[0, 0], [0.5, 0], [0, 0], [0, 0]],
             [[0, 0], [0, 0], [0.5, 0], [0, 0]],
             [[0, 0], [0, 0], [0, 0], [0.5, 0]]]
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"id": "vac", "matrix": m}])
        code, out = run(["classify", "--input", str(f)], capsys)
        assert code == 0
        assert json.loads(out)["physical"]

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        f.write_text("{not json}\n")
        code = main(["classify", "--input", str(f)])
        assert code == 2
        assert "in.jsonl:1" in capsys.readouterr().err

    def test_missing_params_and_matrix_exit_2(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"id": "bad"}])
        code, _ = run(["classify", "--input", str(f)], capsys)
        assert code == 2

    def test_invalid_parameters_exit_3(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": -1, "n2": 1}}])
        code, _ = run(["classify", "--input", str(f)], capsys)
        assert code == 3

    def test_non_hermitian_matrix_exit_3(self, tmp_path, capsys):
        m = [[[0.5, 0]] * 4 for _ in range(4)]
        m[0][1] = [1.0, 0]
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"matrix": m}])
        code, _ = run(["classify", "--input", str(f)], capsys)
        assert code == 3

    def test_batch_equals_concatenated_single_runs(self, tmp_path):
        """An N-record file gives the bytes of the N one-record runs in a row:
        a record's output does not depend on the other records."""
        records = [VACUUM_REC, ENTANGLED_REC,
                   {"id": "unphys", "params": {"n1": 0.4, "n2": 1}},
                   {"id": "d0", "params": {"n1": 0.5, "n2": 0.8, "ms": [0.1, 0.2]}},
                   {"id": "dp0", "params": {"n1": 0.75, "n2": 1.2, "m1": [0, 0.25],
                                            "m2": [0.3, -0.1], "mc": [0.2, 0]}},
                   {"id": "gen", "params": {"n1": 1.4, "n2": 1.2, "m1": [0.3, 0.1],
                                            "m2": [0.1, 0], "ms": [0.25, 0], "mc": [0.4, 0]}}]
        assert_batch_equals_singles(tmp_path, ["classify", "--method", "both"], records)

    def test_both_routes_share_one_batch(self, tmp_path, monkeypatch):
        # one read of the file's columns, one batch (no mirror batch: the
        # closed route's separability is a row of the batch's closed-form
        # pass) and one input stack for both routes (the exact-d0 record
        # makes the closed route need it)
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [*FORMS_RECS, {"id": "d0", "params": {"n1": 0.5, "n2": 0.8, "ms": [0.1, 0.2]}},
                        {"id": "vac", "matrix": [[[float(r == c) / 2, 0.0] for c in range(4)]
                                                 for r in range(4)]}])
        _, q = cli.load_states(str(f), "jsonl")
        inputs = q.covariance().tobytes()
        calls, built = [], []
        real_cov, real_rows, real_init = (core._ParamArrays.covariance,
                                          core._ParamArrays.from_rows.__func__, core._Batch.__init__)
        monkeypatch.setattr(core._ParamArrays, "covariance",
                            lambda q: built.append(real_cov(q)) or built[-1])
        monkeypatch.setattr(core._ParamArrays, "from_rows",
                            classmethod(lambda cls, rows: calls.append("columns") or real_rows(cls, rows)))
        monkeypatch.setattr(core._Batch, "__init__",
                            lambda batch, q: calls.append("batch") or real_init(batch, q))
        argv = ["classify", "--method", "both", "--input", str(f)]
        assert main([*argv, "--output", str(tmp_path / "out.jsonl")]) == 0
        assert sorted(calls) == ["batch", "columns"]
        assert [V.tobytes() for V in built].count(inputs) == 1

    @pytest.mark.parametrize("method", ["closed", "eig", "both"])
    def test_lines_are_json_dumps(self, tmp_path, capsys, method):
        """Every line holds the bytes ``json.dumps`` writes for its record:
        NaN margins (an unphysical state) as null, closed-route fallbacks
        (d = 0 exactly), and ids of every JSON kind (``ECHOED_IDS``), an
        absent one as null."""
        f = tmp_path / "in.jsonl"
        states = [{"n1": 0.4, "n2": 1}, {"n1": 0.5, "n2": 0.8, "ms": [0.1, 0.2]},
                  {"n1": 1, "n2": 1, "mc": [0.6, 0]}, {"n1": 1.4, "n2": 1.2, "m1": [0.3, 0.1]}]
        states += [{"n1": 1, "n2": 1}] * (len(ECHOED_IDS) - len(states))
        write_raw_jsonl(f, [*({"id": i, "params": p} for i, p in zip(ECHOED_IDS, states)),
                            {"params": {"n1": 0.5, "n2": 0.5}}])
        code, out = run(["classify", "--method", method, "--input", str(f)], capsys)
        assert code == 0
        lines = out.splitlines(keepends=True)
        for line in lines:
            assert json.dumps(strict_json(line)) + "\n" == line
        records = [json.loads(line) for line in lines]
        assert [r["id"] for r in records] == [*ECHOED_IDS, None]
        assert records[0]["physical"] is False and records[0]["margin_separable"] is None
        assert records[1]["fallbacks"] == ([] if method == "eig" else ["physical"])

    def test_output_file_deterministic(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC, ENTANGLED_REC])
        o1, o2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["classify", "--input", str(f), "--output", str(o1)]) == 0
        assert main(["classify", "--input", str(f), "--output", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()


def squeezed_form_rec(rec_id, form_params, *angles):
    """A record of ``form_params`` under the local symplectic of ``angles``."""
    S = symplectic.make_local_symplectic(*angles)
    p = core.params_from_covariance(symplectic.apply_local(S, core.build_covariance(form_params)))
    return {"id": rec_id, "params": {"n1": p.n1, "n2": p.n2,
                                     **{k: [getattr(p, k).real, getattr(p, k).imag]
                                        for k in ("m1", "m2", "ms", "mc")}}}


# Squeezed invariant forms (the reduction applies; vphi = 0), generic states
# (it does not), and states with m1 = 0 or m2 = 0 (a mode needs no squeeze).
FORMS_RECS = [
    VACUUM_REC,
    ENTANGLED_REC,
    squeezed_form_rec("sq1", GaussianParams(1.1, 1.3, mc=0.35), 0.4, 0.7, 0.0, 0.25, 2.0, 0.0),
    squeezed_form_rec("sq2", GaussianParams(1.6, 0.9, ms=0.3 + 0.2j), 0.8, 1.9, 0.0, 0.5, 4.0, 0.0),
    squeezed_form_rec("m1zero", GaussianParams(1.2, 1.4, mc=0.5j), 0.0, 0.0, 0.0, 0.6, 1.0, 0.0),
    squeezed_form_rec("m2zero", GaussianParams(2.0, 1.0, ms=0.4), 1.1, 3.0, 0.0, 0.0, 0.0, 0.0),
    {"id": "gen", "params": {"n1": 1.4, "n2": 1.2, "m1": [0.3, 0.1],
                             "m2": [0.1, 0], "ms": [0.25, 0], "mc": [0.4, 0]}},
    {"id": "gen2", "params": {"n1": 2.5, "n2": 1.7, "m1": [0, -0.4],
                              "ms": [0.3, 0.3], "mc": [0.2, -0.6]}},
]


class TestInvariants:
    def test_batch_equals_concatenated_single_runs(self, tmp_path):
        assert_batch_equals_singles(tmp_path, ["invariants"], FORMS_RECS)

    def test_vacuum(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC])
        code, out = run(["invariants", "--input", str(f)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["i1"] == pytest.approx(0.25) and rec["i2"] == pytest.approx(0.25)
        assert rec["i3"] == 0.0 and rec["i4"] == 0.0


    def test_subnormal_cross_correlation(self, tmp_path, capsys):
        # a finite, valid state once exited 4 ("symplectic invariants overflow")
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 0, "n2": 0, "mc": [0, 1.1125369292536007e-308]}}])
        code, out = run(["invariants", "--input", str(f)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert all(math.isfinite(rec[k]) for k in ("i1", "i2", "i3", "i4"))


class TestTransform:
    def test_identity(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [ENTANGLED_REC])
        code, out = run(["transform", "--input", str(f)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["transformed_params"]["mc"] == [0.6, 0.0]

    def test_reduce_form1(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1, "mc": [0.4, 0]}}])
        code, out = run(["transform", "--input", str(f), "--reduce"], capsys)
        assert code == 0
        red = json.loads(out)["reduction"]
        assert red["applicable"] and red["form"] == "form1"
        assert red["nu1"] == pytest.approx(1.0)
        assert red["mu"][0] == pytest.approx(0.4)

    def test_reduce_inapplicable_reports_residual(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1.4, "n2": 1.2, "m1": [0.3, 0],
                                    "m2": [0.1, 0], "ms": [0.25, 0], "mc": [0.4, 0]}}])
        code, out = run(["transform", "--input", str(f), "--reduce"], capsys)
        assert code == 0
        red = json.loads(out)["reduction"]
        assert red["applicable"] is False and red["residual"] > 1e-9

    def test_identity_near_float_limit(self, tmp_path, capsys):
        # the output equals the input; symmetrizing must not overflow on the way
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1.5e308, "n2": 1}}])
        code, out = run(["transform", "--input", str(f)], capsys)
        assert code == 0
        assert json.loads(out)["transformed_params"]["n1"] == 1.5e308

    def test_domain_error_exit_4(self, tmp_path, capsys):
        # unphysical input cannot be reduced
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 0.4, "n2": 1}}])
        code, _ = run(["transform", "--input", str(f), "--reduce"], capsys)
        assert code == 4

    def test_reduce_batch_equals_concatenated_single_runs(self, tmp_path):
        argv = ["transform", "--theta1", "0.4", "--phi2", "0.3", "--reduce"]
        assert_batch_equals_singles(tmp_path, argv, FORMS_RECS)
        lines = (tmp_path / "all.out").read_text().splitlines()
        applicable = {rec["id"]: json.loads(line)["reduction"]["applicable"]
                      for rec, line in zip(FORMS_RECS, lines)}
        assert applicable == {"vacuum": True, "ent": True, "sq1": True, "sq2": True,
                              "m1zero": True, "m2zero": True, "gen": False, "gen2": False}

    def test_first_failing_record_reports_its_error(self, tmp_path, capsys):
        # record 1 transforms but cannot be reduced (unphysical, exit 4);
        # record 2 already fails its transform (negative n1 after it, exit 3)
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1, "mc": [5, 0]}},
                        {"params": {"n1": 0.1, "n2": 1, "m1": [-5, 0]}}])
        assert main(["transform", "--input", str(f), "--theta1", "0.4", "--reduce"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invariant-form reduction requires a physical state\n"
        assert main(["transform", "--input", str(f), "--theta1", "0.4"]) == 3
        assert "occupations must be nonnegative" in capsys.readouterr().err

    def test_reduce_overflowing_modulus_after_unphysical_record(self, tmp_path, capsys):
        # |m1| of record 2 overflows abs(); record 1 still reports its own error
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 0.4, "n2": 1}},
                        {"params": {"n1": 1, "n2": 1, "m1": [1.5e308, 1.5e308]}}])
        assert main(["transform", "--input", str(f), "--reduce"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invariant-form reduction requires a physical state\n"

    def test_reduce_overflowing_modulus_alone(self, tmp_path, capsys):
        # the record's first error is its eigen-oracle overflow
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1, "m1": [1.5e308, 1.5e308]}}])
        assert main(["transform", "--input", str(f), "--reduce"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: numeric overflow: eigen-oracle overflows\n"

    def test_transform_without_reduce_reads_no_rows(self, tmp_path, capsys, monkeypatch):
        # without --reduce the records are not walked as rows of the batch,
        # whether the array transform succeeds or a record falls back
        f = tmp_path / "in.jsonl"
        write_jsonl(f, FORMS_RECS)
        argv = ["transform", "--theta1", "0.4", "--phi2", "0.3", "--input", str(f)]
        expected = run(argv, capsys)
        assert expected[0] == 0
        monkeypatch.setattr(core._Batch, "rows", lambda batch: pytest.fail("rows read"))
        assert run(argv, capsys) == expected
        # records 2 and 3 fail their own transform, by overflow (exit 4) and
        # by a negative occupation (exit 3): record 2 reports its error
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1}}, {"params": {"n1": 1e100, "n2": 1}},
                        {"params": {"n1": 0.1, "n2": 1, "m1": [-5, 0]}}])
        assert main(["transform", "--input", str(f), "--theta1", "300"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: numeric overflow: local symplectic transform overflows\n"

    @pytest.mark.parametrize("angle", ["--theta1=nan", "--theta1=inf", "--phi2=-inf"])
    def test_non_finite_angle_exit_3(self, tmp_path, capsys, angle):
        # an invalid parameter, as a non-finite value in a record is; no output is opened
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1}}])
        out = tmp_path / "out.jsonl"
        assert main(["transform", "--input", str(f), angle, "--output", str(out)]) == 3
        err = f"error: symplectic parameters must be finite, got {angle.split('=')[1]}\n"
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_reduce_reports_a_failing_transform_after_the_records_before_it(self, tmp_path,
                                                                             capsys):
        # record 0 transforms and reduces; record 1's transform overflows and
        # reports its own error, before record 2's negative occupation
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1}}, {"params": {"n1": 1e100, "n2": 1}},
                        {"params": {"n1": 0.1, "n2": 1, "m1": [-5, 0]}}])
        assert main(["transform", "--input", str(f), "--theta1", "300", "--reduce"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: numeric overflow: local symplectic transform overflows\n"

    def test_large_state_keeps_its_pattern(self, tmp_path, capsys):
        # the transformed matrix deviates from its rebuild by rounding at the
        # scale of 1e12, not by a broken pattern
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1e12, "n2": 1, "m1": [3e11, 1e11]}}])
        code, out = run(["transform", "--input", str(f), "--theta1", "0.4", "--phi2", "0.3"],
                        capsys)
        assert code == 0
        t = json.loads(out)["transformed_params"]
        assert t["n1"] == pytest.approx(1.6038667409611e12, rel=1e-9)
        assert t["n2"] == 1.0 and t["mc"] == [0.0, 0.0]

    def test_reduce_large_squeezed_thermal_state(self, tmp_path, capsys):
        # a one-ulp residual of a state of scale 1e8 does not make it inapplicable
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1e8, "n2": 1, "m1": [3e7, 1e7]}}])
        code, out = run(["transform", "--input", str(f), "--reduce"], capsys)
        assert code == 0
        red = json.loads(out)["reduction"]
        assert red["applicable"] and red["form"] == "form1"
        assert red["nu1"] == pytest.approx(math.sqrt(1e16 - 1e15), rel=1e-12)
        assert 0.0 < red["residual"] < 1e-7  # reported as it is, not scaled

    def test_reduce_large_mode1_keeps_the_cross_tolerance(self, tmp_path, capsys):
        # m1 = m2 = 0: the transform is phases only, and form 1 would drop
        # ms = 0.05, which is no rounding error next to sqrt(n1 n2) = 1e4
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1e8, "n2": 1, "ms": [0.05, 0], "mc": [0.4, 0]}}])
        code, out = run(["transform", "--input", str(f), "--reduce"], capsys)
        assert code == 0
        red = json.loads(out)["reduction"]
        assert not red["applicable"]
        assert red["residual"] == pytest.approx(0.05, rel=1e-12)

    def test_reduce_builds_the_input_stack_once(self, tmp_path, monkeypatch):
        # the transform and the reduction index one covariance stack of the file
        f = tmp_path / "in.jsonl"
        write_jsonl(f, FORMS_RECS)
        real = core._ParamArrays.covariance
        _, q = cli.load_states(str(f), "jsonl")
        inputs = real(q).tobytes()
        built = []
        monkeypatch.setattr(core._ParamArrays, "covariance",
                            lambda q: built.append(real(q)) or built[-1])
        argv = ["transform", "--theta1", "0.4", "--reduce", "--input", str(f)]
        assert main([*argv, "--output", str(tmp_path / "out.jsonl")]) == 0
        assert [V.tobytes() for V in built].count(inputs) == 1

    @pytest.mark.parametrize("argv", [["invariants"], ["transform", "--reduce"],
                                      ["classify", "--method", "both"]])
    def test_empty_input_writes_nothing(self, tmp_path, capsys, argv):
        f = tmp_path / "in.jsonl"
        f.write_text("")
        assert run([*argv, "--input", str(f)], capsys) == (0, "")
        g = tmp_path / "in.json"
        g.write_text('{"states": []}')
        assert run([*argv, "--input", str(g), "--format", "json"], capsys) == (0, "")


@pytest.mark.parametrize("argv", [["invariants"], ["transform", "--theta1", "0.4", "--reduce"]])
def test_ids_are_echoed_as_json_dumps(tmp_path, capsys, argv):
    """``invariants`` and ``transform`` echo each id of ``ECHOED_IDS`` with the
    bytes ``json.dumps`` writes for it, and an absent id as null."""
    f = tmp_path / "in.jsonl"
    write_raw_jsonl(f, [*({"id": i, "params": ENTANGLED_REC["params"]} for i in ECHOED_IDS),
                        {"params": VACUUM_REC["params"]}])
    code, out = run([*argv, "--input", str(f)], capsys)
    assert code == 0
    lines = out.splitlines(keepends=True)
    for line in lines:
        assert json.dumps(strict_json(line)) + "\n" == line
    assert [json.loads(line)["id"] for line in lines] == [*ECHOED_IDS, None]


class TestSample:
    def test_single_record_reproducible(self, tmp_path):
        o1, o2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for o in (o1, o2):
            assert main(["sample", "--count", "1", "--seed", "42",
                         "--output", str(o)]) == 0
        assert o1.read_bytes() == o2.read_bytes()
        lines = o1.read_text().splitlines()
        assert len(lines) == 2  # one record plus summary
        assert json.loads(lines[0])["eig"]["physical"]
        assert "summary" in json.loads(lines[1])

    def test_campaign_consistency(self, tmp_path):
        o = tmp_path / "c.jsonl"
        assert main(["sample", "--count", "300", "--seed", "7",
                     "--output", str(o)]) == 0
        lines = o.read_text().splitlines(keepends=True)
        summary = json.loads(lines[-1])["summary"]
        assert summary["prep_and_entangled"] == 0
        assert summary["method_disagreements_off_boundary"] == 0
        assert summary["separable_not_prep_witness"] is not None
        for line in lines:  # written as json.dumps writes them, the witness too
            assert json.dumps(strict_json(line)) + "\n" == line

    def test_output_independent_of_batch_size(self, tmp_path, monkeypatch):
        """sample draws and classifies in batches of SAMPLE_BATCH; the
        states, verdicts and summary must not depend on where they split."""
        self.check_batch_independence(tmp_path, monkeypatch, "reject")

    def test_output_independent_of_batch_size_construct(self, tmp_path, monkeypatch):
        self.check_batch_independence(tmp_path, monkeypatch, "construct")

    def check_batch_independence(self, tmp_path, monkeypatch, mode):
        outputs = []
        for size in (cli.SAMPLE_BATCH, 7, 1):
            monkeypatch.setattr(cli, "SAMPLE_BATCH", size)
            o = tmp_path / f"s{size}.jsonl"
            assert main(["sample", "--count", "20", "--seed", "5", "--mode", mode,
                         "--output", str(o)]) == 0
            outputs.append(o.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].splitlines()) == 21

    def test_reject_solves_physicality_once_per_state(self, tmp_path, monkeypatch):
        """A two-batch reject run hands the eigensolver each candidate once
        while drawing, and each accepted state twice while classifying (its
        separability and P-representability); its physicality is the margin
        the sampler accepted it by."""
        monkeypatch.setattr(cli, "SAMPLE_BATCH", 16)
        counts = {"draw": 0, "classify": 0}
        phase = ["classify"]
        solve, draw = core.min_eigenvalue_hermitian, symplectic._random_states

        def counted(M):
            counts[phase[0]] += len(M)
            return solve(M)

        def drawing(*args):
            phase[0] = "draw"
            try:
                return draw(*args)
            finally:
                phase[0] = "classify"

        monkeypatch.setattr(core, "min_eigenvalue_hermitian", counted)
        monkeypatch.setattr(symplectic, "_random_states", drawing)
        o = tmp_path / "s.jsonl"
        assert main(["sample", "--count", "30", "--seed", "5", "--mode", "reject",
                     "--output", str(o)]) == 0
        records = [json.loads(line) for line in o.read_text().splitlines()[:-1]]
        assert len(records) == 30 and not any(r["closed"]["fallbacks"] for r in records)
        assert counts["draw"] >= 30 and counts["classify"] == 2 * 30

    @staticmethod
    def recount(lines, seed, mode):
        """The summary of ``sample``'s record lines, recounted record by
        record: the counts of the oracle's answers, the params of the first
        separable state that is not P-representable, and the records whose
        routes disagree, whose closed route did not fall back, and none of
        whose non-null oracle margins lies within BOUNDARY_BAND of zero."""
        records = [json.loads(line) for line in lines]
        assert [r["index"] for r in records] == list(range(len(records)))

        def answers(v):
            return v["physical"], v["separable"], v["p_representable"]

        def on_band(v):
            margins = (v["margin_physical"], v["margin_separable"], v["margin_prep"])
            return any(m is not None and abs(m) <= core.BOUNDARY_BAND for m in margins)

        for r in records:
            assert r["agree"] == (answers(r["closed"]) == answers(r["eig"]))
        eig = [answers(r["eig"])[1:] for r in records]
        return {
            "count": len(records), "seed": seed, "mode": mode,
            "separable": sum(s is True for s, _ in eig),
            "entangled": sum(s is False for s, _ in eig),
            "p_representable": sum(p is True for _, p in eig),
            "separable_not_prep": eig.count((True, False)),
            "prep_and_entangled": eig.count((False, True)),
            "method_disagreements_off_boundary": sum(
                not r["agree"] and not r["closed"]["fallbacks"] and not on_band(r["eig"])
                for r in records),
            "separable_not_prep_witness": next(
                (r["params"] for r, a in zip(records, eig) if a == (True, False)), None),
        }

    @pytest.mark.parametrize("size", [1024, 7, 1])
    @pytest.mark.parametrize("mode", ["construct", "reject"])
    def test_summary_is_the_recount_of_its_records(self, tmp_path, monkeypatch, mode, size):
        monkeypatch.setattr(cli, "SAMPLE_BATCH", size)
        o = tmp_path / "s.jsonl"
        assert main(["sample", "--count", "20", "--seed", "5", "--mode", mode,
                     "--output", str(o)]) == 0
        *lines, last = o.read_text().splitlines()
        summary = json.loads(last)["summary"]
        assert summary == self.recount(lines, 5, mode)
        assert summary["separable_not_prep_witness"] is not None

    def negate_closed(self, monkeypatch):
        """Negate the closed-form physicality and separability margins, so
        that the routes disagree off the band."""
        margins = core._closed_margins
        monkeypatch.setattr(core, "_closed_margins",
                            lambda batch: margins(batch) * [[-1.0], [-1.0], [1.0]])  # row 2: P

    def skew_closed(self, monkeypatch):
        """Leave every third closed physicality margin undecided, so that it
        falls back to the oracle, and negate the separability margins."""
        margins = core._closed_margins

        def skewed(batch):
            phys, sep, prep = margins(batch)
            phys[::3] = np.nan
            return phys, -sep, prep

        monkeypatch.setattr(core, "_closed_margins", skewed)

    @pytest.mark.parametrize("patch", [negate_closed, skew_closed])
    @pytest.mark.parametrize("size", [1024, 7])
    def test_disagreement_off_the_band_exits_5_after_the_summary(
            self, tmp_path, monkeypatch, capsys, patch, size):
        patch(self, monkeypatch)
        monkeypatch.setattr(cli, "SAMPLE_BATCH", size)
        o = tmp_path / "s.jsonl"
        assert main(["sample", "--count", "20", "--seed", "5", "--output", str(o)]) == 5
        *lines, last = o.read_text().splitlines()
        assert len(lines) == 20
        summary = json.loads(last)["summary"]
        assert summary == self.recount(lines, 5, "construct")
        assert summary["method_disagreements_off_boundary"] > 0
        records = [json.loads(line) for line in lines]
        if patch is TestSample.skew_closed:  # disagreements after a fallback do not count
            assert any(not r["agree"] and r["closed"]["fallbacks"] for r in records)
            assert summary["method_disagreements_off_boundary"] < sum(not r["agree"] for r in records)

    def test_tally_skips_the_band_and_fallbacks(self):
        """Of four disagreeing states, only the one off the band whose
        closed route did not fall back counts; a NaN margin is off the band."""
        nan, band = math.nan, core.BOUNDARY_BAND
        eig = [core.Verdict(True, True, False, 1.0, 0.5, m, core.METHOD_EIG)
               for m in (nan, band, -band / 2, 0.25)]
        closed = [v._replace(separable=False, method=core.METHOD_CLOSED, fallbacks=f)
                  for v, f in zip(eig, [(), (), (), ("separable",)])]
        summary = dict.fromkeys(("separable", "entangled", "p_representable", "separable_not_prep",
                                 "prep_and_entangled", "method_disagreements_off_boundary"), 0)
        summary["separable_not_prep_witness"] = None
        closed, eig = cli._columns(closed), cli._columns(eig)
        q = core._ParamArrays.from_rows([[k, 0.5, 1, -2, 3, -4, 5, -6, 7, -0.0] for k in range(4)])
        cli._tally(summary, q, closed, eig, cli._agree(closed, eig))
        assert summary == {"separable": 4, "entangled": 0, "p_representable": 0,
                           "separable_not_prep": 4, "prep_and_entangled": 0,
                           "method_disagreements_off_boundary": 1,
                           "separable_not_prep_witness": {"n1": 0.0, "n2": 0.5, "m1": [1.0, -2.0],
                                                          "m2": [3.0, -4.0], "ms": [5.0, -6.0],
                                                          "mc": [7.0, -0.0]}}

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        o1, o2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("GAUSSSEP_SEED", "99")
        assert main(["sample", "--count", "2", "--output", str(o1)]) == 0
        assert main(["sample", "--count", "2", "--seed", "99",
                     "--output", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestSweep:
    def read(self, path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_single_point_reference(self, tmp_path):
        o = tmp_path / "s.csv"
        assert main(["sweep", "--axis1", "mc:0.3:0.30001:2",
                     "--fixed", "ms=0.3", "--fixed", "m2=0.5",
                     "--n1", "1", "--output", str(o)]) == 0
        row = self.read(o)[0]
        assert float(row["n2_min_physical"]) == pytest.approx(0.8035601121442149, abs=1e-9)
        assert float(row["n2_min_separable"]) == pytest.approx(0.8035601121442149, abs=1e-9)
        assert float(row["n2_min_prep"]) == pytest.approx(2.5, abs=1e-9)

    def test_equal_cross_terms_coincide_exactly(self, tmp_path):
        o = tmp_path / "s.csv"
        assert main(["sweep", "--axis1", "mc:0.1:0.5:5", "--fixed", "ms=0.3",
                     "--n1", "1.2", "--output", str(o)]) == 0
        for row in self.read(o):
            if float(row["mc"]) == 0.3:  # mc == ms: the -+1 terms coincide
                assert row["n2_min_physical"] == row["n2_min_separable"]

    def test_fig1_fold_structure(self, tmp_path):
        o = tmp_path / "fig1.csv"
        assert main(["sweep", "--fig1", "--output", str(o)]) == 0
        rows = self.read(o)
        gap_rows = [r for r in rows if r["prep_below_sep_flag"] == "1"]
        assert gap_rows  # the P-fold dips below the S-fold somewhere
        for r in gap_rows:
            assert float(r["n2_min_prep"]) < float(r["n2_min_separable"])

    def test_ulp_ties_are_not_flagged(self, tmp_path):
        # At m1 = 0 the P- and S-folds coincide analytically; their computed
        # values differ by a few ulp on some rows, which is no gap.
        from gausssep import core

        o = tmp_path / "s.csv"
        assert main(["sweep", "--axis1", "m1:0:1.2:40", "--axis2", "mc:0:1.2:40",
                     "--n1", "1.0", "--output", str(o)]) == 0
        rows = self.read(o)
        assert [r for r in rows if r["prep_below_sep_flag"] == "1"] == []
        ties = [(float(r["n2_min_prep"]), float(r["n2_min_separable"])) for r in rows
                if float(r["n2_min_prep"]) < float(r["n2_min_separable"])]
        assert ties
        for prep, sep in ties:
            assert sep - prep < 1e-15 * sep  # a few ulp
            assert not core.prep_below_sep(prep, sep)

    def test_sep_fold_matches_bisection(self):
        # closed-form separability fold vs the exact fold of
        # bisect_n2_threshold (which no longer bisects), and that fold vs the
        # eigen-oracle just above and just below it
        import dataclasses

        import numpy as np

        from gausssep import core
        from gausssep.core import GaussianParams

        rng = np.random.default_rng(31)
        for _ in range(20):
            p = GaussianParams(
                n1=rng.uniform(0.8, 2.5), n2=1.0,
                m1=rng.uniform(-0.4, 0.4), m2=rng.uniform(-0.8, 0.8),
                ms=rng.uniform(-0.6, 0.6), mc=rng.uniform(-0.6, 0.6))
            fold = core.physicality_bound_n2(p.mirror())
            sep = core.bisect_n2_threshold(p.mirror(), "physical")
            assert sep == pytest.approx(fold, abs=1e-8)

            def margin(n2):
                return core._physical_margin_eig(
                    core.build_covariance(dataclasses.replace(p.mirror(), n2=n2))[None])[0]

            assert margin(sep * (1 + 1e-7)) >= -core.TOL_PSD
            assert margin(sep * (1 - 1e-7)) < 0

    @pytest.mark.parametrize("argv, columns", [
        # d = 0 at n1 = 1/2
        (["--axis1", "n1:0.5:0.6:3", "--fixed", "mc=0.3", "--fixed", "ms=0.1"],
         ("n2_min_physical", "n2_min_separable", "n2_min_prep")),
        # d' = 0 at n1 = 1
        (["--axis1", "n1:1:1.1:3", "--fixed", "m1=0.5", "--fixed", "mc=0.3",
          "--fixed", "ms=0.1"], ("n2_min_prep",)),
    ], ids=["d0", "dp0"])
    def test_no_fold_on_a_coupled_boundary_block(self, tmp_path, argv, columns):
        """At the first grid point the mode-1 block is singular and its null
        vector couples to mode 2, so no n2 meets the criterion: the fold is
        inf, not the rounding noise (about 1.2e8) a bisection finds."""
        out = tmp_path / "s.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 0
        row = self.read(out)[0]
        assert row["degenerate"] == "1"
        assert [row[c] for c in columns] == ["inf"] * len(columns)

    @pytest.mark.parametrize("argv, size", [
        (["--axis1", "m1:0:1:1000000000000"], 10**12),
        (["--axis1", "m1:0:1:1001", "--axis2", "mc:0:1:1000"], 1001000),
    ], ids=["one-axis", "product"])
    def test_grid_over_point_limit_exit_2(self, tmp_path, capsys, monkeypatch, argv, size):
        """A grid of more than SWEEP_MAX_POINTS points exits 2 before any
        array is built (it used to fail allocating the axis with exit 1)."""
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid array was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "x.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: sweep grid has {size} points, more than {cli.SWEEP_MAX_POINTS}\n")
        assert not out.exists()

    def test_grid_at_point_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_MAX_POINTS", 6)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis1", "m1:0:1:3", "--axis2", "mc:0:1:2",
                     "--output", str(out)]) == 0
        assert len(self.read(out)) == 6
        assert main(["sweep", "--axis1", "m1:0:1:7", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: sweep grid has 7 points, more than 6\n"

    def test_missing_axis_exit_2(self, tmp_path, capsys):
        code, _ = run(["sweep", "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 2

    def test_bad_axis_exit_2(self, tmp_path, capsys):
        code, _ = run(["sweep", "--axis1", "n9:0:1:3",
                       "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--axis1", "mc:0:1:3", "--axis2", "mc:0:1:3"],
        ["--axis1", "mc:0:1:3", "--fixed", "mc=0.5"],
        ["--axis1", "m1:0:1:3", "--axis2", "ms:0:1:3", "--fixed", "ms=0.1"],
        ["--axis1", "m1:0:1:3", "--fixed", "m2=0.1", "--fixed", "m2=0.2"],
        ["--n1", "3", "--fixed", "n1=2", "--axis1", "m1:0:0.5:2", "--fixed", "m2=1"],
        ["--n1", "2", "--axis1", "n1:0.75:4:3"],
        ["--fig1", "--n1", "2"],  # whose default axis is n1
    ])
    def test_parameter_named_twice_exit_2(self, tmp_path, capsys, argv):
        # the later assignment would overwrite the earlier one in every row
        out = tmp_path / "x.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 2
        assert "named twice across --n1, --fixed, --axis1 and --axis2" in capsys.readouterr().err
        assert not out.exists()

    def test_two_axes(self, tmp_path):
        o = tmp_path / "s.csv"
        assert main(["sweep", "--axis1", "mc:0:0.5:3", "--axis2", "ms:0:0.5:3",
                     "--n1", "1.5", "--output", str(o)]) == 0
        rows = self.read(o)
        assert len(rows) == 9
        assert set(rows[0].keys()) == {
            "mc", "ms", "n2_min_physical", "n2_min_separable",
            "n2_min_prep", "prep_below_sep_flag", "degenerate"}

    @pytest.mark.parametrize("argv, message", [
        (["--n1", "-1", "--axis1", "mc:0:1:3"],
         "occupations must be nonnegative, got n1=-1.0, n2=1.0"),
        (["--axis1", "n1:-1:1:3"], "occupations must be nonnegative, got n1=-1.0, n2=1.0"),
        (["--axis1", "mc:0:1:3", "--fixed", "m1=inf"],
         "parameters must be finite, got GaussianParams(n1=1.0, n2=1.0, m1=(inf+0j), m2=0j,"
         " ms=0j, mc=0j)"),
        (["--axis1", "mc:0:1:3", "--fixed", "ms=nan"],
         "parameters must be finite, got GaussianParams(n1=1.0, n2=1.0, m1=0j, m2=0j,"
         " ms=(nan+0j), mc=0j)"),
    ], ids=["fixed-n1", "axis-n1", "fixed-inf", "fixed-nan"])
    def test_invalid_grid_point_exit_3(self, tmp_path, capsys, argv, message):
        """The first invalid grid point reports the error its own
        GaussianParams raises, before any output is opened."""
        out = tmp_path / "x.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # s/d = 1e308/0.5 at mc = 1e154
        (["--axis1", "mc:0:1e154:3", "--fixed", "m1=0.5"], "physicality bound overflows"),
        # the physicality bound is finite, about 1e308; |m2 - c'|/d' = 4e308 is not
        (["--axis1", "mc:0:1:3", "--fixed", "m2=1e308"], "literal P-fold overflows"),
        (["--axis1", "n1:0:1e300:3"],
         "closed-form intermediates overflow for state 1 of the batch"),
    ], ids=["bound", "literal-fold", "intermediates"])
    def test_overflow_exit_4(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 4
        assert capsys.readouterr().err == f"error: numeric overflow: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("axis, code, message", [
        # max - min is inf: linspace's steps would be nan, a point never given
        ("mc:-1e308:1e308:2", 2, "axis spec 'mc:-1e308:1e308:2': max - min overflows"),
        # linspace's last step overflows before it is set to max
        ("n1:0:1.7976931348623157e308:4", 4,
         "numeric overflow: closed-form intermediates overflow for state 1 of the batch"),
    ], ids=["span", "last-step"])
    def test_axis_near_float_limit_warns_nothing(self, tmp_path, capsys, axis, code, message):
        """An axis whose span or last step overflows reports its own error,
        with no numpy warning, before the output is opened."""
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--axis1", axis, "--output", str(out)]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, axes, base", [
        # rows whose mode-1 rule fails (m1 > sqrt(3)/2 at n1 = 1)
        (["--axis1", "m1:0:1.2:7", "--axis2", "mc:0:1:3", "--n1", "1"],
         [("m1", (0, 1.2, 7)), ("mc", (0, 1, 3))], {"n1": 1.0}),
        # d = 0 at m1 = 0 with no cross block: the exact physicality and
        # separability folds are those of mode 2 alone, sqrt(1/4 + |m2|^2) = 0.5
        (["--n1", "0.5", "--axis1", "m1:0:1:3", "--fixed", "mc=0"],
         [("m1", (0, 1, 3))], {"n1": 0.5, "mc": 0.0}),
        # d' = 0 at n1 = 1: the exact P-fold is 1/2 + |m2| = 1.5
        (["--fig1"], [("n1", (0.75, 4.0, 40))], {"m1": 0.5, "m2": 1.0}),
    ], ids=["mode1-fails", "d0", "fig1"])
    def test_rows_equal_per_state_folds(self, tmp_path, argv, axes, base):
        """Each data line is the repr of ``core.n2_folds`` of its own point,
        and its flags, whatever the route of each fold."""
        out = tmp_path / "s.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 0
        lines = out.read_bytes().decode().split("\r\n")
        assert lines[-1] == ""
        expected = []
        grids = [np.linspace(*spec) for _, spec in axes]
        for point in itertools.product(*grids):
            p = GaussianParams(**{"n2": 1.0, **base,
                                  **{name: x for (name, _), x in zip(axes, point)}})
            phys, sep, prep, degenerate = core.n2_folds(p)
            flag = core.prep_below_sep(prep, sep)
            expected.append(",".join([*map(repr, map(float, point)), repr(phys), repr(sep),
                                      repr(prep), "1" if flag else "0",
                                      "1" if degenerate else "0"]))
        assert lines[1:-1] == expected

    @pytest.mark.parametrize("argv, axes, base", [
        (["--fig1"], [("n1", (0.75, 4.0, 40))], {"m1": 0.5, "m2": 1.0}),
        # non-dyadic steps: each axis value is some repr, not a short decimal
        (["--axis1", "m1:0:1.2:7", "--axis2", "mc:0:0.9:5", "--fixed", "m2=0.3"],
         [("m1", (0, 1.2, 7)), ("mc", (0, 0.9, 5))], {"n1": 1.0, "m2": 0.3}),
        # axis 2 longer than axis 1: the point order is not that of the transposed grid
        (["--axis1", "ms:0:0.5:2", "--axis2", "m2:0:1:9", "--n1", "1.5"],
         [("ms", (0, 0.5, 2)), ("m2", (0, 1, 9))], {"n1": 1.5}),
        (["--axis1", "mc:0:1.1:13", "--fixed", "m1=0.4", "--fixed", "m2=0.2"],
         [("mc", (0, 1.1, 13))], {"n1": 1.0, "m1": 0.4, "m2": 0.2}),
    ], ids=["fig1", "two-axes", "axis2-longer", "one-axis-mc"])
    def test_csv_is_csv_writer_of_batch_folds(self, tmp_path, capsysbinary, argv, axes, base):
        """The file is what ``csv.writer`` writes for the header and, in the
        order of ``itertools.product`` over the axes (axis 1 outer), the
        repr of each point's values and of ``core.n2_folds_batch``; with
        ``--output -`` stdout gets the same bytes."""
        out = tmp_path / "s.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 0
        assert main(["sweep", *argv, "--output", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        names = [name for name, _ in axes]
        points = list(itertools.product(*(np.linspace(*spec).tolist() for _, spec in axes)))
        params = [GaussianParams(**{"n2": 1.0, **base, **dict(zip(names, point))})
                  for point in points]
        phys, sep, prep, degenerate = core.n2_folds_batch(params)
        flag = core.prep_below_sep(prep, sep)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\r\n")
        writer.writerow([*names, "n2_min_physical", "n2_min_separable", "n2_min_prep",
                         "prep_below_sep_flag", "degenerate"])
        for point, *folds, f, d in zip(points, phys.tolist(), sep.tolist(), prep.tolist(),
                                       flag.tolist(), degenerate.tolist()):
            writer.writerow([*map(repr, point), *map(repr, folds), int(f), int(d)])
        assert out.read_bytes() == expected.getvalue().encode()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(line):
    """``line`` parsed as standard JSON: NaN and Infinity are rejected."""
    return json.loads(line, parse_constant=_no_constant)


BROKEN_MATRIX = [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]
BROKEN_MATRIX[0][1] = [1.0, 0.0]  # its conjugate partner [1][0] stays 0


class TestExitCodes:
    """Failures map to the documented exit codes, never to a traceback."""

    def check(self, argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        for line in captured.out.splitlines():
            strict_json(line)

    def test_non_numeric_pair_exit_2(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1, "mc": ["a", 1]}}])
        self.check(["classify", "--input", str(f)], 2, capsys)

    def test_states_not_a_list_exit_2(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"states": 5}))
        self.check(["classify", "--input", str(f), "--format", "json"], 2, capsys)

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        self.check(["classify", "--input", str(tmp_path / "absent.jsonl")], 2, capsys)

    def test_non_numeric_axis_bound_exit_2(self, tmp_path, capsys):
        self.check(["sweep", "--axis1", "mc:x:1:3",
                    "--output", str(tmp_path / "x.csv")], 2, capsys)

    def test_non_numeric_env_seed_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GAUSSSEP_SEED", "abc")
        self.check(["sample", "--count", "1",
                    "--output", str(tmp_path / "x.jsonl")], 2, capsys)

    def test_negative_seed_exit_2(self, tmp_path, monkeypatch, capsys):
        # numpy seeds are non-negative; -1 once raised a numpy traceback
        out = tmp_path / "x.jsonl"
        self.check(["sample", "--count", "2", "--seed", "-1", "--output", str(out)], 2, capsys)
        monkeypatch.setenv("GAUSSSEP_SEED", "-1")
        self.check(["sample", "--count", "2", "--output", str(out)], 2, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"n1": True, "n2": 1}, {"n1": "1", "n2": 1}, {"n1": 1, "n2": None},
        {"n1": 1, "n2": 1, "mc": True}, {"n1": 1, "n2": 1, "m1": ["1", 0]},
        {"n1": 1, "n2": 1, "ms": [0, False]},
    ])
    def test_non_number_exit_2(self, tmp_path, capsys, params):
        # only JSON numbers are numbers: no bools, no numeric strings
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": params}])
        self.check(["classify", "--input", str(f)], 2, capsys)

    def test_unknown_params_key_exit_2(self, tmp_path, capsys):
        # a typo is not dropped: without its "mc" this record reads as separable
        f, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1, "MC": [0.6, 0]}}])
        assert main(["classify", "--input", str(f), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "unknown key(s) in 'params': 'MC'" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "json"])
    @pytest.mark.parametrize("record, message", [
        ({"params": {"n1": -1, "n2": 1}}, "occupations must be nonnegative, got n1=-1.0, n2=1.0"),
        ({"matrix": BROKEN_MATRIX},
         "matrix does not have the two-mode covariance pattern (max deviation 1.000e+00)"),
    ])
    def test_invalid_record_is_located_exit_3(self, tmp_path, capsys, fmt, record, message):
        records = [VACUUM_REC] * 6 + [record, ENTANGLED_REC]
        f = tmp_path / f"in.{fmt}"
        if fmt == "jsonl":
            write_jsonl(f, records)
            where = f"{f}:7"
        else:
            f.write_text(json.dumps({"states": records}))
            where = f"{f} states[6]"
        assert main(["classify", "--input", str(f), "--format", fmt]) == 3
        assert capsys.readouterr().err == f"error: {where}: {message}\n"

    @pytest.mark.parametrize("fmt", ["jsonl", "json"])
    @pytest.mark.parametrize("record, at", [
        ({"params": {"n1": 1, "n2": 10**400}}, ".n2"),
        ({"matrix": [[1, 0, 0, 0], [0, 1, 0, [0, 10**400]], [0, 0, 1, 0], [0, 0, 0, 1]]}, "[1][3]"),
    ])
    def test_huge_int_is_located_exit_3(self, tmp_path, capsys, fmt, record, at):
        records = [VACUUM_REC, record, ENTANGLED_REC]
        f = tmp_path / f"in.{fmt}"
        if fmt == "jsonl":
            write_jsonl(f, records)
            where = f"{f}:2"
        else:
            f.write_text(json.dumps({"states": records}))
            where = f"{f} states[1]"
        assert main(["classify", "--input", str(f), "--format", fmt]) == 3
        assert capsys.readouterr().err == f"error: {where}{at}: int too large to convert to float\n"

    @pytest.mark.parametrize("lines, code, message", [
        # a record that fails its column checks comes before a later parse error
        (['{"params": {"n1": -1, "n2": 1}}', "{broken"], 3, "1: occupations must be nonnegative"),
        (["{broken", '{"params": {"n1": -1, "n2": 1}}'], 2, "1: invalid JSON"),
        ([json.dumps({"matrix": BROKEN_MATRIX}), '{"params": {"n1": %s, "n2": 1}}' % ("1" * 400)],
         3, "1: matrix does not have the two-mode covariance pattern"),
    ])
    def test_first_failing_record_is_reported(self, tmp_path, capsys, lines, code, message):
        f = tmp_path / "in.jsonl"
        f.write_text("\n".join(lines) + "\n")
        assert main(["classify", "--input", str(f)]) == code
        assert capsys.readouterr().err.startswith(f"error: {f}:{message}")

    def test_non_finite_id_exit_2(self, tmp_path, capsys):
        # the id is echoed, and NaN is not JSON
        f = tmp_path / "in.jsonl"
        f.write_text('{"id": [1, NaN], "params": {"n1": 1, "n2": 1}}\n')
        self.check(["classify", "--input", str(f)], 2, capsys)

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        f.write_bytes(b"\xff\xfe" + json.dumps(VACUUM_REC).encode() + b"\n")
        assert main(["classify", "--input", str(f)]) == 2
        err = capsys.readouterr().err
        assert "cannot read input" in err and "Traceback" not in err

    def test_non_utf8_stdin_exit_2(self):
        # through the interpreter's real stdin, whose text layer is bypassed
        proc = subprocess.run(**cli_child(["classify", "--input", "-"]), capture_output=True,
                              input=b"\xff\xfe" + json.dumps(VACUUM_REC).encode() + b"\n")
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert "cannot read input -" in err and "Traceback" not in err

    def test_internal_error_exit_5(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(symplectic, "MAX_DRAWS", 0)
        assert main(["sample", "--count", "1", "--mode", "reject",
                     "--output", str(tmp_path / "x.jsonl")]) == 5
        assert capsys.readouterr().err == "internal error: no physical state found in 0 draws\n"

    def test_error_classes_carry_exit_codes(self):
        assert issubclass(errors.ParseError, errors.GaussSepError)
        classes = (errors.GaussSepError, errors.ParseError, errors.InvalidParameterError,
                   errors.StructuralError, errors.DomainError,
                   errors.PrescriptionInapplicableError, errors.SamplingBudgetError)
        assert [c.exit_code for c in classes] == [5, 2, 3, 3, 4, 4, 5]

    def test_json_past_parser_limits(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        f.write_text("[" * 100000 + "\n")
        self.check(["classify", "--input", str(f)], 2, capsys)
        # Python 3.11+ refuses to parse so long an int (exit 2); older ones
        # parse it and cannot make it a float (exit 4)
        f.write_text('{"params": {"n1": %s, "n2": 1}}\n' % ("1" * 5000))
        assert main(["classify", "--input", str(f)]) in (2, 4)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["m1:0:inf:3", "m1:-inf:0:3", "m1:nan:1:3"])
    def test_non_finite_axis_bound_exit_2(self, tmp_path, capsys, axis):
        self.check(["sweep", "--axis1", axis, "--output", str(tmp_path / "x.csv")], 2, capsys)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(4)])
    def test_non_finite_matrix_entry_exit_3(self, tmp_path, capsys, i, j, value):
        # the identity with NaN at [1][0] was once classified physical
        m = [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]
        m[i][j][0] = value
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"matrix": m}])
        self.check(["classify", "--input", str(f), "--method", "both"], 3, capsys)

    @pytest.mark.parametrize("argv, params", [
        (["invariants"], {"n1": 1e160, "n2": 1, "mc": [1e155, 0]}),
        (["transform", "--theta1", "400"], {"n1": 1, "n2": 1}),
    ])
    def test_symplectic_overflow_exit_4(self, tmp_path, capsys, argv, params):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": params}])
        self.check([*argv, "--input", str(f)], 4, capsys)

    def test_non_finite_parameter_exit_3(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        f.write_text('{"params": {"n1": NaN, "n2": 1}}\n')
        self.check(["classify", "--input", str(f), "--method", "both"], 3, capsys)

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_psd_exit_3(self, tmp_path, capsys, tol):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC])
        self.check(["classify", "--input", str(f), "--tol-psd", tol], 3, capsys)
        self.check(["sample", "--count", "50", "--tol-psd", tol,
                    "--output", str(tmp_path / "x.jsonl")], 3, capsys)

    def test_overflow_exit_4(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1e200, "n2": 1, "mc": [1e200, 0]}}])
        self.check(["classify", "--input", str(f)], 4, capsys)

    @pytest.mark.parametrize("method", ["closed", "both"])
    def test_intermediates_overflow_exit_4(self, tmp_path, capsys, method):
        # n1 |mc|^2 overflows; no verdict with an infinite margin may be written
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1e150, "n2": 1e150, "mc": [1e150, 0]}}])
        assert main(["classify", "--input", str(f), "--method", method]) == 4
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "Infinity" not in captured.out

    @pytest.mark.parametrize("method", ["eig", "both"])
    def test_oracle_overflow_exit_4(self, tmp_path, capsys, method):
        # the oracle's smallest eigenvalue overflows to -inf; no margin may be -Infinity
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 0, "n2": 0, "m1": [0, 1.5], "m2": 1.7976931348623157e308,
                                    "ms": [0, 1], "mc": [0, 1.4375]}}])
        self.check(["classify", "--input", str(f), "--method", method], 4, capsys)

    def test_overflow_after_valid_record_writes_nothing(self, tmp_path, capsys):
        # the whole file is evaluated before the first record is written
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC,
                        {"params": {"n1": 1e150, "n2": 1e150, "mc": [1e150, 0]}}])
        assert main(["classify", "--input", str(f), "--method", "both"]) == 4
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "Infinity" not in captured.out
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["invariants"], ["transform", "--reduce"]])
    def test_error_in_second_record_writes_nothing(self, tmp_path, capsys, argv):
        # the first record is valid; the second overflows the invariants and
        # is too correlated to be physical, so it cannot be reduced
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1}},
                        {"params": {"n1": 1e160, "n2": 1, "mc": [1e155, 0]}}])
        assert main([*argv, "--input", str(f)]) == 4
        assert capsys.readouterr().out == ""
        out = tmp_path / "out.jsonl"
        self.check([*argv, "--input", str(f), "--output", str(out)], 4, capsys)
        assert not out.exists()


# ---------------------------------------------------------------------------
# Reading records: odd lines read, or fail, as json.loads and the checks in
# order make them

ODD_REC = {"id": "a", "params": {"n1": 1.0, "n2": 1.5, "mc": [0.2, 0.1]}}
ODD_LINE = json.dumps(ODD_REC)
READ_ARGVS = [["classify", "--method", "both"], ["invariants"], ["transform", "--reduce"]]
LINE_SEPARATORS = "\u2028\u2029\x85"  # valid raw inside a JSON string; str.splitlines splits at them


def identity_matrix(cell=None, at=(1, 2)):
    """The identity as a "matrix" of [re, im] cells; the cell ``at`` is
    ``cell`` if one is given."""
    m = [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]
    if cell is not None:
        m[at[0]][at[1]] = cell
    return m


def json_error(line):
    """(exit code, stderr) of a file whose first line is ``line``, which
    ``json.loads`` rejects."""
    try:
        json.loads(line)
    except (ValueError, RecursionError) as exc:
        return 2, "error: {f}:1: invalid JSON: %s\n" % exc
    raise AssertionError(f"json.loads accepts {line[:40]!r}")


BIG = "9" * 400


@pytest.mark.parametrize("text, records", [
    ("  " + ODD_LINE + "  ", [ODD_REC]),
    ("\t" + ODD_LINE + " \t", [ODD_REC]),
    # a line ends at "\n", and "\r\n" and "\r" read as "\n", as in text mode
    (ODD_LINE + "\r\n" + ODD_LINE, [ODD_REC, ODD_REC]),
    (ODD_LINE + "\r" + ODD_LINE, [ODD_REC, ODD_REC]),
    # but nothing else ends one: a line separator inside a string is part of it
    *((json.dumps({**ODD_REC, "id": "a%sb" % c}, ensure_ascii=False), [{**ODD_REC, "id": "a%sb" % c}])
      for c in LINE_SEPARATORS),
    # bare numbers, ints included, are real matrix cells
    (json.dumps({"matrix": [[float(r == c) for c in range(4)] for r in range(4)]}),
     [{"matrix": identity_matrix()}]),
    (json.dumps({"matrix": [[int(r == c) for c in range(4)] for r in range(4)]}),
     [{"matrix": identity_matrix()}]),
])
def test_odd_line_reads_as_its_records(tmp_path, text, records):
    f, g = tmp_path / "odd.jsonl", tmp_path / "plain.jsonl"
    f.write_text(text + "\n", encoding="utf-8")
    write_jsonl(g, records)
    for argv in READ_ARGVS:
        assert _main([*argv, "--input", str(f)]) == _main([*argv, "--input", str(g)])


@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_line_separator_in_an_id_is_echoed(tmp_path, sep):
    """A raw U+2028, U+2029 or U+0085 in a string leaves its record one
    line, and every command echoes the id as ``json.dumps`` writes it."""
    f = tmp_path / "in.jsonl"
    rec_id = "a%sb" % sep
    f.write_text(json.dumps({**ODD_REC, "id": rec_id}, ensure_ascii=False) + "\n", encoding="utf-8")
    for argv in READ_ARGVS:
        code, out, err = _main([*argv, "--input", str(f)])
        assert (code, err, out.count("\n")) == (0, "", 1)
        assert out.startswith('{"id": %s, ' % json.dumps(rec_id))


@pytest.mark.parametrize("text, code, err", [
    ("\ufeff" + ODD_LINE, *json_error("\ufeff" + ODD_LINE)),
    # str.splitlines splits on these, but a JSONL line ends at "\n" only
    *((ODD_LINE + c + ODD_LINE, *json_error(ODD_LINE + c + ODD_LINE)) for c in "\x0c\x1c\u2028"),
    ("[" * 100000, *json_error("[" * 100000)),
    ('{"a": ' * 5000, *json_error('{"a": ' * 5000)),
    (ODD_LINE + " " + ODD_LINE, *json_error(ODD_LINE + " " + ODD_LINE)),
    (ODD_LINE + ODD_LINE, *json_error(ODD_LINE + ODD_LINE)),
    ('{"params": {"n1": NaN, "n2": 1}}', 3, "error: {f}:1: parameters must be finite, got "
     "GaussianParams(n1=nan, n2=1.0, m1=0j, m2=0j, ms=0j, mc=0j)\n"),
    ('{"params": {"n1": 1, "n2": 1, "mc": [-Infinity, 0]}}', 3, "error: {f}:1: parameters must "
     "be finite, got GaussianParams(n1=1.0, n2=1.0, m1=0j, m2=0j, ms=0j, mc=(-inf+0j))\n"),
    ('{"params": {"n1": %s, "n2": 1}}' % ("1" * 400), 3,
     "error: {f}:1.n1: int too large to convert to float\n"),
    ('{"params": {"n1": %s, "n2": "x"}}' % BIG, 3,
     "error: {f}:1.n1: int too large to convert to float\n"),
    ('{"params": {"n1": 1, "n2": 1, "mc": [0, %s]}}' % BIG, 3,
     "error: {f}:1.mc: int too large to convert to float\n"),
    ('{"params": null}', 2, "error: {f}:1: 'params' must be an object\n"),
    ('{"params": {"n1": 1, "n2": 1, "m1": [true, 0]}}', 2,
     "error: {f}:1.m1: expected a number, got True\n"),
    ('{"params": {"n1": 1, "n2": 1, "ms": [0, false]}}', 2,
     "error: {f}:1.ms: expected a number, got False\n"),
    ('{"params": {"n1": 1, "n2": "a", "x": 1}}', 2, "error: {f}:1.n2: expected a number, got 'a'\n"),
    ('{"params": {"n1": 1, "n2": 1, "ms": [1, 2, 3]}}', 2,
     "error: {f}:1.ms: expected a number, got [1, 2, 3]\n"),
    (json.dumps({"matrix": identity_matrix(True)}), 2,
     "error: {f}:1[1][2]: expected a number, got True\n"),
    (json.dumps({"matrix": identity_matrix([0.0, False], at=(2, 1))}), 2,
     "error: {f}:1[2][1]: expected a number, got False\n"),
    ('{"matrix": [[%s, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}' % BIG, 3,
     "error: {f}:1[0][0]: int too large to convert to float\n"),
    ('{"matrix": [[%s, "x", 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}' % BIG, 3,
     "error: {f}:1[0][0]: int too large to convert to float\n"),
    ('{"matrix": [[1, 0, 0, 0], [0, 1, 0, [0, %s]], [0, 0, 1, 0], [0, 0, 0, 1]]}' % BIG, 3,
     "error: {f}:1[1][3]: int too large to convert to float\n"),
    ('{"matrix": [["x", %s, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}' % BIG, 2,
     "error: {f}:1[0][0]: expected a number, got 'x'\n"),
    ('{"matrix": [[1, "z", 0, 0], 7, [0, 0, 1, 0], [0, 0, 0, 1]]}', 2,
     "error: {f}:1[0][1]: expected a number, got 'z'\n"),
    ('{"matrix": [[1, 0, 0, 0], 7, [0, 0, 1, 0], [0, 0, 0, 1]]}', 2,
     "error: {f}:1: bad matrix: 'int' object is not iterable\n"),
    ('{"matrix": [[1, 0, 0, 0], "ab", [0, 0, 1, 0], [0, 0, 0, 1]]}', 2,
     "error: {f}:1[1][0]: expected a number, got 'a'\n"),
    ('{"matrix": null}', 2, "error: {f}:1: bad matrix: 'NoneType' object is not iterable\n"),
    ('{"matrix": {}}', 2, "error: {f}:1: matrix must be 4x4, got shape (0,)\n"),
    ('{"matrix": [[], []]}', 2, "error: {f}:1: matrix must be 4x4, got shape (2, 0)\n"),
    ('{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]}', 2,
     "error: {f}:1: matrix must be 4x4, got shape (4, 3)\n"),
    ('{"matrix": [[[[1], 0], 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}', 2,
     "error: {f}:1[0][0]: expected a number, got [1]\n"),
])
def test_odd_line_fails_as_its_first_check(tmp_path, text, code, err):
    f = tmp_path / "odd.jsonl"
    f.write_text(text + "\n" + ODD_LINE + "\n", encoding="utf-8")
    for argv in READ_ARGVS:
        assert _main([*argv, "--input", str(f)]) == (code, "", err.format(f=f))


def test_long_int_past_the_parser_limit(tmp_path):
    # Python 3.11+ refuses to parse so long an int; older ones parse it and
    # cannot make it a float
    line = '{"params": {"n1": %s, "n2": 1}}' % ("1" * 5000)
    f = tmp_path / "odd.jsonl"
    f.write_text(line + "\n")
    try:
        json.loads(line)
    except ValueError:
        expected = json_error(line)
    else:
        expected = 3, "error: {f}:1.n1: int too large to convert to float\n"
    code, err = expected
    assert _main(["classify", "--input", str(f)]) == (code, "", err.format(f=f))


def test_ragged_matrix_reports_row_lengths(tmp_path):
    rows = [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    f = tmp_path / "odd.jsonl"
    f.write_text(json.dumps({"matrix": rows}) + "\n")
    assert _main(["classify", "--input", str(f)]) == (
        2, "", f"error: {f}:1: bad matrix: rows of 4, 3, 4, 4 cells\n")


def matrix_json(V):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(V, dtype=complex).tolist()]


def error_alone(record):
    """The error of ``record`` checked on its own: ``GaussianParams`` of its
    "params", or ``params_from_covariance`` of its "matrix"."""
    with pytest.raises((errors.InvalidParameterError, errors.StructuralError)) as alone:
        if "params" in record:
            GaussianParams(**{k: complex(*v) if type(v) is list else v
                              for k, v in record["params"].items()})
        else:
            core.params_from_covariance([[complex(*z) for z in row] for row in record["matrix"]])
    return alone.value


class TestNegativeOptionValues:
    """A negative value of a float option reads, in any spelling ``float``
    reads (``-1e-3``, ``-inf``, ``-nan``), as its ``--option=value``
    spelling does, though argparse takes a dash-led token for a value only
    in plain decimal notation."""

    def outcome(self, tmp_path, capsys, argv, name):
        """(exit code, stderr, output bytes or None) of ``argv``."""
        out = tmp_path / name
        try:
            code = main([*argv, "--output", str(out)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("argv, option, value, code", [
        (["transform"], "--theta1", "-1e-3", 0),
        (["transform"], "--theta1", "-inf", 3),
        (["transform"], "--phi2", "-nan", 3),
        (["classify"], "--tol-psd", "-1e-3", 3),
        (["classify"], "--tol", "-1E-3", 3),  # an abbreviation, as argparse matches it
        (["sample", "--count", "5"], "--tol-psd", "-inf", 3),
        (["sweep", "--axis1", "m1:0:1:3"], "--n1", "-1e-3", 3),
    ])
    def test_spaced_as_joined(self, tmp_path, capsys, argv, option, value, code):
        if argv[0] in ("transform", "classify"):
            f = tmp_path / "in.jsonl"
            write_jsonl(f, [VACUUM_REC, ENTANGLED_REC])
            argv = [*argv, "--input", str(f)]
        spaced = self.outcome(tmp_path, capsys, [*argv, option, value], "spaced.out")
        joined = self.outcome(tmp_path, capsys, [*argv, f"{option}={value}"], "joined.out")
        assert spaced == joined
        assert spaced[0] == code and (spaced[2] is None) == (code != 0)

    def test_not_a_number_is_an_option(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC])
        code, err, out = self.outcome(tmp_path, capsys,
                                      ["transform", "--input", str(f), "--theta1", "-x"], "x.out")
        assert code == 2 and out is None
        assert "argument --theta1: expected one argument" in err

    def test_every_float_option_is_listed(self):
        parser = cli.build_parser()
        commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
        floats = {name for sp in commands.values() for action in sp._actions
                  if action.type is float for name in action.option_strings}
        # each by every prefix argparse matches it by
        assert cli._FLOAT_OPTIONS == {name[:k] for name in floats for k in range(3, len(name) + 1)}


NEGATIVE_N_MATRIX = core.build_covariance(GaussianParams(1.2, 0.9, m1=0.1, ms=0.2j, mc=0.3))
NEGATIVE_N_MATRIX[2, 2] = NEGATIVE_N_MATRIX[3, 3] = -0.5  # the pattern holds; n2 = -0.5 is invalid
BAD_PARAMS = {"params": {"n1": 1, "n2": -0.5, "mc": [0.2, 0.1]}}


class TestErrorOfTheRecordAlone:
    """A file's error is that of its first failing record checked on its
    own, by ``GaussianParams`` or ``params_from_covariance``, prefixed
    with the record's location; a later failing record or a later parse
    error does not change it."""

    @pytest.mark.parametrize("bad, after", [
        ({"params": {"n1": math.nan, "n2": 1}}, []),
        ({"params": {"n1": 1, "n2": 1, "mc": [math.inf, 0.0]}}, []),
        (BAD_PARAMS, []),
        ({"matrix": matrix_json(NEGATIVE_N_MATRIX)}, []),
        ({"matrix": BROKEN_MATRIX}, []),
        ({"matrix": BROKEN_MATRIX}, [BAD_PARAMS]),  # a bad matrix before bad params
        (BAD_PARAMS, [{"params": {"n1": "1", "n2": 1}}]),  # a parse error after the bad record
    ])
    @pytest.mark.parametrize("fmt", ["jsonl", "json"])
    def test_load_states_reports_the_record_alone(self, tmp_path, fmt, bad, after):
        good = [VACUUM_REC, {"matrix": matrix_json(core.build_covariance(GaussianParams(
            1, 1, m1=0.2, mc=0.3j)))}, ENTANGLED_REC]
        records = [*good, bad, *good, *after]
        f = tmp_path / f"in.{fmt}"
        if fmt == "jsonl":
            write_jsonl(f, records)
            where = f"{f}:4"
        else:
            f.write_text(json.dumps({"states": records}))
            where = f"{f} states[3]"
        with pytest.raises(errors.GaussSepError) as raised:
            cli.load_states(str(f), fmt)
        alone = error_alone(bad)
        assert (type(raised.value), str(raised.value)) == (type(alone), f"{where}: {alone}")

    @pytest.mark.parametrize("theta1, bad, code", [
        ("300", {"n1": 1e100, "n2": 1}, 4),  # the transformed matrix overflows
        ("0.4", {"n1": 0.1, "n2": 1, "m1": [-5, 0]}, 3),  # its transformed n1 is negative
    ])
    @pytest.mark.parametrize("reduce", [[], ["--reduce"]])
    def test_transform_reports_the_record_alone(self, tmp_path, capsys, theta1, bad, code,
                                                reduce):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 1, "n2": 1}}, {"params": bad},
                        {"params": {"n1": 0.1, "n2": 1, "m1": [-5, 0]}}])
        S = symplectic.make_local_symplectic(float(theta1))
        V = core.build_covariance(GaussianParams(bad["n1"], bad["n2"], complex(*bad.get("m1", [0]))))
        with pytest.raises((OverflowError, errors.GaussSepError)) as alone:
            core.params_from_covariance(symplectic.apply_local(S, V))
        prefix = "numeric overflow: " if isinstance(alone.value, OverflowError) else ""
        assert main(["transform", "--input", str(f), "--theta1", theta1, *reduce]) == code
        assert capsys.readouterr() == ("", f"error: {prefix}{alone.value}\n")
        t, failure = symplectic._transform_stack(
            S, np.stack([core.build_covariance(GaussianParams(1, 1)), V, V]))
        assert (failure[0], type(failure[1]), str(failure[1])) == (
            1, type(alone.value), str(alone.value))


def test_parser_is_built_once(tmp_path):
    # an appended option must not carry over from one parse to the next
    out = tmp_path / "x.csv"
    argv = ["sweep", "--axis1", "m1:0:1:3", "--fixed", "m2=0.3", "--output", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(["classify", "--input", "-"]).tol_psd == core.TOL_PSD
    assert cli._parser().parse_args(["sweep", "--fig1"]).fixed is None


def test_console_entry_point(tmp_path):
    f = tmp_path / "in.jsonl"
    write_jsonl(f, [VACUUM_REC])
    proc = subprocess.run(**cli_child(["classify", "--input", str(f)]),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["physical"]


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestWriteFailures:
    """A failed write exits 2 with a message: no traceback, and no
    ``Exception ignored`` from the interpreter's final flush of stdout."""

    def check(self, returncode, err):
        assert returncode == 2
        assert "cannot write output" in err
        assert "Traceback" not in err and "Exception ignored" not in err

    @needs_dev_full
    def test_full_output_file(self, tmp_path):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC])
        proc = subprocess.run(**cli_child(["classify", "--input", str(f), "--output", "/dev/full"]),
                              capture_output=True, text=True)
        self.check(proc.returncode, proc.stderr)

    @needs_dev_full
    def test_full_stdout(self, tmp_path):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC])
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(**cli_child(["classify", "--input", str(f)]),
                                  stdout=full, stderr=subprocess.PIPE, text=True)
        self.check(proc.returncode, proc.stderr)

    def test_closed_pipe(self):
        # as `gausssep sample ... | head -c 10`
        proc = subprocess.Popen(**cli_child(["sample", "--count", "3000", "--seed", "1"]),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        self.check(proc.returncode, err.decode())


# Every command that writes a whole output, a sample run of one batch, which
# is one too, and a longer sample run, which writes one string per batch (two
# batches here), the summary line at the end of the last
REWRITES = {
    "classify": ["classify", "--method", "both"],
    "invariants": ["invariants"],
    "transform": ["transform", "--reduce", "--theta1", "0.3", "--phi2", "1.1"],
    "sweep": ["sweep", "--axis1", "m1:0:1.2:7", "--axis2", "mc:0:0.9:5"],
    "sample": ["sample", "--count", str(cli.SAMPLE_BATCH + 5), "--seed", "3"],
    "sample-one-batch": ["sample", "--count", "30", "--seed", "3"],
}


class _FailingWrite:
    """An output stream whose first write writes ``keep`` characters of its
    text and then fails as on a full disk; everything else passes through."""

    def __init__(self, stream, keep):
        self._stream = stream
        self._keep = keep

    def write(self, text):
        self._stream.write(text[:self._keep])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


class TestOutputRewrite:
    """An output written over an existing, longer file holds the bytes of a
    fresh write, and a write that fails part-way leaves nothing of the old
    contents.  Every output goes in place and is cut at the bytes written
    after each write where the file opened is a regular one; stdout and
    devices are never cut, and no output is truncated at open."""

    def argv(self, tmp_path, name):
        argv = REWRITES[name]
        if argv[0] in ("sweep", "sample"):
            return argv
        f = tmp_path / "in.jsonl"
        write_jsonl(f, FORMS_RECS)
        return [*argv, "--input", str(f)]

    def fresh(self, tmp_path, argv):
        out = tmp_path / "fresh.out"
        assert main([*argv, "--output", str(out)]) == 0
        return out.read_bytes()

    def stale(self, tmp_path, size):
        """A file of more than ``size`` bytes, none of them an output's."""
        out = tmp_path / "stale.out"
        out.write_bytes(b"stale\n" * (size // 6 + 1000))
        return out

    def spy(self, monkeypatch):
        """The length of each ``os.ftruncate`` call: where an output is cut."""
        calls = []
        ftruncate = os.ftruncate

        def spied(fd, length):
            calls.append(length)
            return ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", spied)
        return calls

    @pytest.mark.parametrize("name", REWRITES)
    def test_longer_file_ends_as_a_fresh_write(self, tmp_path, monkeypatch, name):
        argv = self.argv(tmp_path, name)
        calls = self.spy(monkeypatch)
        fresh = self.fresh(tmp_path, argv)
        out = self.stale(tmp_path, len(fresh))
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == fresh
        ends = [len(fresh)]  # one cut per write call: where each write's bytes end
        if name == "sample":  # one write per batch, the summary in the last
            ends = [len(b"".join(fresh.splitlines(keepends=True)[:cli.SAMPLE_BATCH]))] + ends
        assert calls == ends * 2

    @pytest.mark.parametrize("name", REWRITES)
    def test_short_writes_are_written_on(self, tmp_path, monkeypatch, name):
        """``os.write`` may take fewer bytes than it is given: with at most 7
        bytes taken per call, the file still ends as a fresh write, cut
        once per string, at its end."""
        argv = self.argv(tmp_path, name)
        fresh = self.fresh(tmp_path, argv)
        out = self.stale(tmp_path, len(fresh))
        os_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: os_write(fd, data[:7]))
        calls = self.spy(monkeypatch)
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == fresh
        ends = [len(fresh)]
        if name == "sample":  # one string per batch, the summary in the last
            ends = [len(b"".join(fresh.splitlines(keepends=True)[:cli.SAMPLE_BATCH]))] + ends
        assert calls == ends

    def failed_sample(self, tmp_path, monkeypatch, capsys, count):
        """Run a sample of ``count`` states whose first draw fails, over an
        existing file and over a missing path, and check that the file is as
        it was and the path still missing.  Seed 3's first reject-mode draw
        is unphysical."""
        out = self.stale(tmp_path, 0)
        old = out.read_bytes()
        missing = tmp_path / "missing.out"
        monkeypatch.setattr(symplectic, "MAX_DRAWS", 1)
        argv = ["sample", "--count", str(count), "--seed", "3", "--mode", "reject"]
        for path in (out, missing):
            assert main([*argv, "--output", str(path)]) == 5
            assert capsys.readouterr().err == "internal error: no physical state found in 1 draws\n"
        assert out.read_bytes() == old
        assert not missing.exists()

    def test_failed_one_batch_sample_leaves_the_file(self, tmp_path, monkeypatch, capsys):
        """A sample run of one batch evaluates all of its states before it
        opens its output: a draw that fails leaves an existing file as it
        was, and creates no file."""
        self.failed_sample(tmp_path, monkeypatch, capsys, 30)

    def test_failed_streamed_sample_leaves_the_file(self, tmp_path, monkeypatch, capsys):
        """A longer sample run builds its first batch's string before it
        opens its output, as every output's first string is: a draw that
        fails in the first batch leaves an existing file as it was, and
        creates no file."""
        self.failed_sample(tmp_path, monkeypatch, capsys, cli.SAMPLE_BATCH + 5)

    @pytest.mark.parametrize("name", REWRITES)
    def test_no_output_is_truncated_at_open(self, tmp_path, monkeypatch, name):
        """Truncating an existing file at open costs tens of milliseconds on
        a file system mounted with ``discard``, against microseconds for a
        write in place, so no output is opened with ``O_TRUNC``."""
        argv = self.argv(tmp_path, name)
        out = self.stale(tmp_path, 0)
        opened = []  # the flags of each os.open of the output
        os_open = os.open

        def spied(path, flags, *args, **kwargs):
            if os.fspath(path) == str(out):
                opened.append(flags)
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spied)
        assert main([*argv, "--output", str(out)]) == 0
        assert opened and not any(flags & os.O_TRUNC for flags in opened)

    def test_in_place_open_keeps_the_old_bytes(self, tmp_path):
        out = self.stale(tmp_path, 0)
        old = out.read_bytes()
        stream, close = cli._open_output(str(out))
        stream.close()
        assert close and out.read_bytes() == old

    @pytest.mark.parametrize("name", REWRITES)
    def test_stdout_and_devnull(self, tmp_path, monkeypatch, capsysbinary, name):
        argv = self.argv(tmp_path, name)
        fresh = self.fresh(tmp_path, argv)
        calls = self.spy(monkeypatch)
        assert main([*argv, "--output", "-"]) == 0
        assert capsysbinary.readouterr().out == fresh
        assert main([*argv, "--output", os.devnull]) == 0
        assert capsysbinary.readouterr().out == b""
        assert calls == []

    @pytest.mark.parametrize("name", REWRITES)
    def test_write_failing_part_way(self, tmp_path, monkeypatch, capsys, name):
        """The first write is the output's first string: the whole output,
        or a ``sample`` run's first batch, so the file holds its first 100
        characters and nothing else."""
        argv = self.argv(tmp_path, name)
        fresh = self.fresh(tmp_path, argv)
        out = self.stale(tmp_path, len(fresh))
        open_output = cli._open_output

        def failing(*args, **kwargs):
            stream, close = open_output(*args, **kwargs)
            return _FailingWrite(stream, 100), close

        monkeypatch.setattr(cli, "_open_output", failing)
        assert main([*argv, "--output", str(out)]) == 2
        assert "cannot write output" in capsys.readouterr().err
        assert out.read_bytes() == fresh[:100]

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file-size limit")
    @pytest.mark.parametrize("name", ["classify", "sample", "sample-one-batch"])
    def test_file_size_limit_part_way(self, tmp_path, name):
        """A real write that fails part-way: past the file-size limit the
        kernel writes what fits and then fails with EFBIG, and the flush at
        close fails again; the file is cut at the bytes written."""
        argv = self.argv(tmp_path, name)
        fresh = self.fresh(tmp_path, argv)
        out = self.stale(tmp_path, len(fresh))
        limit = 1000
        assert len(fresh) > limit
        code = ("import resource, signal, sys; signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
                f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit})); "
                "from gausssep.cli import main; sys.exit(main(sys.argv[1:]))")
        child = cli_child([*argv, "--output", str(out)])
        child["args"][1:3] = ["-c", code]
        child["env"]["PYTHONDONTWRITEBYTECODE"] = "1"
        proc = subprocess.run(**child, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "cannot write output" in proc.stderr and "Traceback" not in proc.stderr
        assert out.read_bytes() == fresh[:limit]


# One argv of each command the benchmark workloads' plans and set-up
# commands run, the ``REWRITES`` argvs, and a negative float value that
# ``_joined`` joins to its option
PARSED = [
    ["classify", "--method", "both", "--input", "states-000.jsonl", "--output", "classify-000.out"],
    ["sample", "--mode", "construct", "--count", "250", "--seed", "1114088974", "--output",
     "sample-construct-000.out"],
    ["sample", "--mode", "reject", "--count", "250", "--seed", "902", "--output",
     "sample-reject-000.out"],
    ["sample", "--mode", "construct", "--count", "1", "--seed", "1", "--output", "setup.out"],
    ["sweep", "--axis1", "m1:0:1.2:40", "--axis2", "mc:0.0:0.030769230769230767:2", "--n1", "1.0",
     "--fixed", "m2=0.224208", "--output", "sweep-grid-000.csv"],
    ["sweep", "--fig1", "--output", "sweep-fig1.csv"],
    ["sweep", "--axis1", "mc:0:1.2:2", "--n1", "1.0", "--fixed", "m2=0.224208", "--output",
     "setup.out"],
    ["invariants", "--input", "states-000.jsonl", "--output", "invariants-000.out"],
    ["transform", "--input", "states-000.jsonl", "--theta1", "0.4", "--phi2", "0.3", "--reduce",
     "--output", "transform-000.out"],
    *([*argv, "--input", "in.jsonl"] if argv[0] in ("classify", "invariants", "transform") else argv
      for argv in REWRITES.values()),
    ["transform", "--input", "in.jsonl", "--theta1", "-1e-3"],
]

# Help and usage errors: the full parser's exit code, stdout and stderr
USAGE = {
    "no-arguments": [],
    "unknown-command": ["frobnicate", "--input", "in.jsonl"],
    "help": ["--help"],
    "help-before-command": ["-h", "classify"],
    "command-help": ["classify", "-h"],
    "unrecognized": ["sweep", "--axis1", "m1:0:1:3", "--bogus"],
    "missing-value": ["sweep", "--axis1"],
    "missing-input": ["classify"],
    "bad-choice": ["classify", "--input", "in.jsonl", "--method", "guess"],
    "bad-int": ["sample", "--count", "1.5"],
}


class TestParse:
    """An argv that starts with a subcommand is parsed once, by that
    subcommand's parser, into the namespace the full parser gives it; help
    and usage errors are the full parser's, byte for byte."""

    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_one_parse_gives_the_full_parsers_namespace(self, monkeypatch, argv):
        called = []  # the namespace each command is called with, in place of running it
        for parser in cli._commands().values():
            monkeypatch.setitem(parser._defaults, "func", lambda args: called.append(args) or 0)
        full = cli._parser()
        with monkeypatch.context() as m:
            m.setattr(full, "parse_known_args", lambda *a, **k: pytest.fail("a second parse"))
            assert main(argv) == 0
        expected = full.parse_args(cli._joined(argv))
        assert called == [expected]
        assert called[0].command == argv[0]

    @staticmethod
    def outcome(parse, argv, capsysbinary):
        """(exit code, stdout, stderr) of ``parse(argv)``, which exits."""
        with pytest.raises(SystemExit) as exited:
            parse(argv)
        return (exited.value.code, *capsysbinary.readouterr())

    @pytest.mark.parametrize("argv", USAGE.values(), ids=USAGE)
    def test_help_and_usage_errors_are_the_full_parsers(self, capsysbinary, argv):
        got = self.outcome(main, argv, capsysbinary)
        assert got == self.outcome(cli._parser().parse_args, cli._joined(argv), capsysbinary)
        code, out, err = got
        assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))

    def test_commands_are_the_registered_parsers(self):
        parser = cli._parser()
        assert cli._commands() is next(a.choices for a in parser._actions
                                       if isinstance(a.choices, dict))


# ---------------------------------------------------------------------------
# Fuzz: any record gives a documented exit code and strict JSON output

_numbers = st.one_of(
    st.floats(),  # NaN, infinities, subnormals and extremes included
    st.sampled_from([1e155, 1e160, 1e300, 1.7976931348623157e308, 5e-324]),
    st.integers(-10**400, 10**400),
)
_values = st.one_of(
    _numbers, st.booleans(), st.none(), st.text(max_size=3),
    st.lists(_numbers, max_size=3), st.dictionaries(st.text(max_size=2), _numbers, max_size=2),
)
_PARAMS = ("n1", "n2", "m1", "m2", "ms", "mc")


@st.composite
def _records(draw):
    """A params or matrix record of a box draw (physical or not), half of
    them with one value replaced from ``_values``, or a malformed record."""
    n = st.floats(0.0, 3.0)
    z = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)).map(list)
    params = {"n1": draw(n), "n2": draw(n), **{k: draw(z) for k in _PARAMS[2:]}}
    kind = draw(st.sampled_from(["params", "matrix", "malformed"]))
    if kind == "params":
        if draw(st.booleans()):
            params[draw(st.sampled_from(_PARAMS))] = draw(_values)
        record = {"params": params}
    elif kind == "matrix":
        V = core.build_covariance(GaussianParams(**{k: complex(*v) if isinstance(v, list) else v
                                                    for k, v in params.items()}))
        m = [[[c.real, c.imag] for c in row] for row in V.tolist()]
        if draw(st.booleans()):
            i, j, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 1))
            m[i][j][k] = draw(_values)
        record = {"matrix": m}
    else:
        record = draw(st.one_of(_values, st.fixed_dictionaries(
            {}, optional={"params": _values, "matrix": _values})))
    if isinstance(record, dict) and draw(st.booleans()):
        record["id"] = draw(st.one_of(st.text(max_size=3), _values))
    return record


def _main(argv):
    """(exit code, stdout, stderr) of the CLI run in-process on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_pads = st.sampled_from(["", "", " ", "\t", " \t  "])  # JSON whitespace around a line's value


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_pads, _records(), _pads), min_size=1, max_size=4))
def test_cli_fuzz(records):
    """Any file gives a documented exit code, and a failed command writes
    nothing.  A file that fails to load fails as its first record that
    fails to load on its own, at the same line (blank lines are counted
    and skipped).  Every line written is strict JSON as ``json.dumps``
    writes it.  Some lines have spaces or tabs around their value."""
    lines = [lead + json.dumps(r) + trail + "\n" for lead, r, trail in records]
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "in.jsonl")
        alone = None
        for k, line in enumerate(lines):
            with open(f, "w") as fh:
                fh.write("\n" * k + line)
            try:
                cli.load_states(f, "jsonl")
            except (errors.GaussSepError, OverflowError):
                alone = _main(["classify", "--input", f])
                break
        with open(f, "w") as fh:
            fh.write("".join(lines))
        for argv in (["classify", "--method", "both"], ["invariants"],
                     ["transform", "--reduce"]):
            code, out, err = _main([*argv, "--input", f])
            assert code in (0, 2, 3, 4, 5)
            assert "Traceback" not in err
            if code != 0:  # a failed command writes nothing
                assert out == ""
            if alone is not None:
                assert (code, "", err) == alone
            for line in out.splitlines(keepends=True):
                assert json.dumps(strict_json(line)) + "\n" == line


# Values at the extremes, as JSON text: floats from 5e-324 to the largest
# finite one of either sign, -0.0, a float spelling past the float range,
# and ints up to 10^400.
_extreme_floats = st.one_of(
    st.floats(5e-324, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0]))
_extreme_numbers = st.one_of(
    _extreme_floats.map(repr), st.sampled_from(["1.8e308", "-1.8e308"]),
    st.integers(-10**400, 10**400).map(str))
_extreme_complex = st.one_of(_extreme_numbers, st.lists(_extreme_numbers, min_size=2, max_size=2))


def _json_text(v) -> str:
    """The JSON text of ``v``, whose numbers are already JSON text."""
    if isinstance(v, list):
        return "[" + ", ".join(map(_json_text, v)) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(x)}" for k, x in v.items()) + "}"
    return v


@st.composite
def _extreme_records(draw):
    """The JSON text of a params record or of a 4x4 matrix record, with
    extreme values; some matrices are the covariance of a valid state."""
    kind = draw(st.sampled_from(["params", "matrix", "state"]))
    if kind == "params":
        optional = draw(st.lists(st.sampled_from(_PARAMS[2:]), unique=True))
        record = {"params": {"n1": draw(_extreme_numbers), "n2": draw(_extreme_numbers),
                             **{k: draw(_extreme_complex) for k in optional}}}
    elif kind == "matrix":
        record = {"matrix": [[draw(_extreme_complex) for _ in range(4)] for _ in range(4)]}
    else:
        n = st.one_of(st.floats(0.0, 3.0), _extreme_floats.map(abs))
        z = st.builds(complex, st.one_of(st.floats(-1.5, 1.5), _extreme_floats),
                      st.one_of(st.floats(-1.5, 1.5), _extreme_floats))
        V = core.build_covariance(GaussianParams(draw(n), draw(n), *(draw(z) for _ in range(4))))
        record = {"matrix": [[[repr(c.real), repr(c.imag)] for c in row] for row in V.tolist()]}
    return _json_text(record)


@settings(max_examples=100, deadline=None)
@given(st.lists(_extreme_records(), min_size=1, max_size=3))
def test_cli_fuzz_extreme_values(lines):
    """Extreme magnitudes give a documented exit code through ``main``, never
    an exception, on every reading command, and every line of a successful
    run is strict JSON: no NaN and no Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "in.jsonl")
        with open(f, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        for argv in (["classify", "--method", "closed"], ["classify", "--method", "eig"],
                     ["classify", "--method", "both"], ["invariants"],
                     ["transform", "--theta1", "0.4", "--phi2", "0.3", "--reduce"]):
            code, out, _ = _main([*argv, "--input", f])
            assert code in (0, 2, 3, 4, 5)
            if code == 0:
                for line in out.splitlines():
                    strict_json(line)


# ---------------------------------------------------------------------------
# Output records: the formatter writes the bytes of ``json.dumps``


def dict_form(v: core.Verdict) -> dict:
    """A Verdict as the dict whose ``json.dumps`` the records carry."""
    def margin(x):
        return None if math.isnan(x) else x

    return {
        "physical": v.physical,
        "separable": v.separable,
        "p_representable": v.p_representable,
        "margin_physical": margin(v.margin_physical),
        "margin_separable": margin(v.margin_separable),
        "margin_prep": margin(v.margin_prep),
        "method": v.method,
        "fallbacks": list(v.fallbacks),
    }


_EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.nan]
_margins = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_verdicts = st.builds(
    core.Verdict, physical=st.booleans(), separable=st.sampled_from([True, False, None]),
    p_representable=st.sampled_from([True, False, None]), margin_physical=_margins,
    margin_separable=_margins, margin_prep=_margins,
    method=st.sampled_from([core.METHOD_CLOSED, core.METHOD_EIG]),
    fallbacks=st.sampled_from(core._FALLBACKS))
_ids = st.one_of(
    st.none(), st.text(), st.text(st.characters(max_codepoint=0x1f)), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=3))


def echoed(ids: list) -> list[str]:
    """Each id as ``record_to_params`` reads it: the JSON text it is echoed as."""
    return [cli.record_to_params({"id": i, "params": {"n1": 1, "n2": 1}}, "in.jsonl:1")[0]
            for i in ids]


@given(st.lists(st.tuples(_ids, _verdicts, _verdicts), max_size=5))
def test_classify_lines_are_json_dumps(records):
    ids, vs, es = (list(x) for x in zip(*records)) if records else ([], [], [])
    assert cli._classify_lines(echoed(ids), vs) == [
        json.dumps({"id": rec_id, **dict_form(v)}) + "\n" for rec_id, v in zip(ids, vs)]
    assert cli._classify_lines(echoed(ids), vs, es) == [
        json.dumps({"id": rec_id, **dict_form(v), "eig": dict_form(e),
                    "methods_agree": v[:3] == e[:3]}) + "\n"
        for rec_id, v, e in zip(ids, vs, es)]


@pytest.mark.parametrize("fallbacks", core._FALLBACKS)
@pytest.mark.parametrize("margin", _EDGE_FLOATS)
def test_classify_line_edge_values(fallbacks, margin):
    v = core.Verdict(True, False, None, margin, -margin, margin, core.METHOD_EIG, fallbacks)
    ids = [None, "état\x01", 7, 2.5, [1, "a"], {"k": [None]}]
    assert cli._classify_lines(echoed(ids), [v] * len(ids)) == [
        json.dumps({"id": rec_id, **dict_form(v)}) + "\n" for rec_id in ids]


@given(st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
                         min_size=10, max_size=10), max_size=4))
def test_params_json_is_json_dumps(rows):
    q = core._ParamArrays.from_rows(rows)
    forms = [{"n1": n1, "n2": n2, **{k: m[2 * i:2 * i + 2] for i, k in enumerate(_PARAMS[2:])}}
             for n1, n2, *m in rows]
    assert [cli._P % row for row in zip(*cli._param_args(q))] == [json.dumps(form) for form in forms]


_ALL_EDGE_FLOATS = [*_EDGE_FLOATS, math.inf, -math.inf]


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_ALL_EDGE_FLOATS))))
def test_float_column_is_each_value(xs):
    assert cli._floats(xs) == [json.dumps(x) for x in xs]
    assert cli._floats(xs, cli._MARGIN) == [json.dumps(None if math.isnan(x) else x) for x in xs]
