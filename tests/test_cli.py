import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from gausssep import cli, core
from gausssep.cli import main
from gausssep.core import GaussianParams


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


VACUUM_REC = {"id": "vacuum", "params": {"n1": 0.5, "n2": 0.5}}
ENTANGLED_REC = {"id": "ent", "params": {"n1": 1, "n2": 1, "mc": [0.6, 0]}}


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
        f = tmp_path / "all.jsonl"
        write_jsonl(f, records)
        assert main(["classify", "--input", str(f), "--method", "both",
                     "--output", str(tmp_path / "all.out")]) == 0
        singles = b""
        for k, rec in enumerate(records):
            g = tmp_path / f"one{k}.jsonl"
            write_jsonl(g, [rec])
            o = tmp_path / f"one{k}.out"
            assert main(["classify", "--input", str(g), "--method", "both",
                         "--output", str(o)]) == 0
            singles += o.read_bytes()
        assert (tmp_path / "all.out").read_bytes() == singles

    def test_output_file_deterministic(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC, ENTANGLED_REC])
        o1, o2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["classify", "--input", str(f), "--output", str(o1)]) == 0
        assert main(["classify", "--input", str(f), "--output", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestInvariants:
    def test_vacuum(self, tmp_path, capsys):
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [VACUUM_REC])
        code, out = run(["invariants", "--input", str(f)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["i1"] == pytest.approx(0.25) and rec["i2"] == pytest.approx(0.25)
        assert rec["i3"] == 0.0 and rec["i4"] == 0.0


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

    def test_domain_error_exit_4(self, tmp_path, capsys):
        # unphysical input cannot be reduced
        f = tmp_path / "in.jsonl"
        write_jsonl(f, [{"params": {"n1": 0.4, "n2": 1}}])
        code, _ = run(["transform", "--input", str(f), "--reduce"], capsys)
        assert code == 4


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
        summary = json.loads(o.read_text().splitlines()[-1])["summary"]
        assert summary["prep_and_entangled"] == 0
        assert summary["method_disagreements_off_boundary"] == 0

    def test_output_independent_of_batch_size(self, tmp_path, monkeypatch):
        """sample draws and classifies in batches of SAMPLE_BATCH; the
        states, verdicts and summary must not depend on where they split."""
        outputs = []
        for size in (cli.SAMPLE_BATCH, 7, 1):
            monkeypatch.setattr(cli, "SAMPLE_BATCH", size)
            o = tmp_path / f"s{size}.jsonl"
            assert main(["sample", "--count", "20", "--seed", "5", "--mode", "reject",
                         "--output", str(o)]) == 0
            outputs.append(o.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].splitlines()) == 21

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
        # closed-form separability fold vs eigen-oracle bisection on n2
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
    ])
    def test_parameter_named_twice_exit_2(self, tmp_path, capsys, argv):
        # the later assignment would overwrite the earlier one in every row
        out = tmp_path / "x.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 2
        assert "named twice" in capsys.readouterr().err
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


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(line):
    """``line`` parsed as standard JSON: NaN and Infinity are rejected."""
    return json.loads(line, parse_constant=_no_constant)


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

    def test_non_finite_id_exit_2(self, tmp_path, capsys):
        # the id is echoed, and NaN is not JSON
        f = tmp_path / "in.jsonl"
        f.write_text('{"id": [1, NaN], "params": {"n1": 1, "n2": 1}}\n')
        self.check(["classify", "--input", str(f)], 2, capsys)

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


def test_console_entry_point(tmp_path):
    f = tmp_path / "in.jsonl"
    write_jsonl(f, [VACUUM_REC])
    # The child imports the same package as this suite, installed or not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gausssep.cli", "classify", "--input", str(f)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["physical"]


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


@settings(max_examples=150, deadline=None)
@given(st.lists(_records(), min_size=1, max_size=2))
def test_cli_fuzz(records):
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "in.jsonl")
        with open(f, "w") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in records))
        for argv in (["classify", "--method", "both"], ["invariants"],
                     ["transform", "--reduce"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--input", f])
            assert code in (0, 2, 3, 4, 5)
            assert "Traceback" not in err.getvalue()
            for line in out.getvalue().splitlines():
                strict_json(line)
