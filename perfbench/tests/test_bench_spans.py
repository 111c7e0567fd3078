"""Self-time arithmetic and the tracer's pass-through, on hand-built spans."""

import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import spans  # noqa: E402


def test_self_times_on_hand_built_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] > b1 [5, 6], b2 [7, 8.5]
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.5])
    parent = np.array([-1, 0, 1, 0, 3, 3])
    self_s = spans.self_times(start, end, parent)
    np.testing.assert_allclose(self_s, [3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert self_s.sum() == pytest.approx(end[0] - start[0])


def test_nearest_ancestor():
    parent = np.array([-1, 0, 1, 2, 0, 4])
    name = np.array([0, 1, 2, 2, 1, 3])
    np.testing.assert_array_equal(spans.nearest_ancestor(parent, name, {1}),
                                  [-1, -1, 1, 1, -1, 4])
    np.testing.assert_array_equal(spans.nearest_ancestor(parent, name, {2}),
                                  [-1, -1, -1, 2, -1, -1])


class FakeClock:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_wrappers_record_spans_and_pass_through():
    tracer = spans.Tracer(clock=FakeClock())

    class Boom(Exception):
        pass

    def leaf(x):
        if x < 0:
            raise Boom("negative")
        return 2 * x

    leaf_w = tracer.wrap(leaf, "core.eigvalsh")

    def parent(x):
        try:
            leaf_w(-1)
        except Boom:
            pass
        return leaf_w(x) + 1

    root = tracer.wrap(tracer.wrap(parent, "cli.bisect"), spans.ROOT)
    assert root(3) == 7
    with pytest.raises(Boom):
        leaf_w(-5)
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["cli.main", "cli.bisect", "core.eigvalsh", "core.eigvalsh", "core.eigvalsh"]
    np.testing.assert_array_equal(a["parent"], [-1, 0, 1, 1, -1])
    assert tracer.raised[("core.eigvalsh", "Boom")] == 2
    # One clock reading at each span's start and end, in call order.
    np.testing.assert_array_equal(a["start"], [1, 2, 3, 5, 9])
    np.testing.assert_array_equal(a["end"], [8, 7, 4, 6, 10])


def test_summarize_accounts_for_wall_time():
    tracer = spans.Tracer(clock=FakeClock())
    core = tracer.wrap(lambda: None, "core.build_covariance")
    sym = tracer.wrap(lambda: core(), "symplectic.apply_local")
    cli = tracer.wrap(lambda: (sym(), core()), "cli.serialize.write")
    tracer.wrap(lambda: (cli(), core()), spans.ROOT)()
    # main [1, 12] > write [2, 9] > apply_local [3, 6] > core [4, 5];
    # write > core [7, 8]; main > core [10, 11].
    m = spans.summarize(tracer, wall_s=20.0, untraced_s=16.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert (m["cli.self_s"], m["core.self_s"], m["symplectic.self_s"]) == (3.0, 3.0, 2.0)
    assert m["cli.serialize.self_s"] == 3.0
    # main's own 3 units plus the 8 outside it are not attributed to a layer.
    assert m["trace.unattributed_s"] == 12.0
    assert m["core.build_covariance.calls"] == 3
    assert m["symplectic.apply_local.calls"] == 1


def test_instrumentation_patches_every_binding_and_restores():
    core = types.ModuleType("gausssep.core")

    def build_covariance(p):
        return p + 1

    build_covariance.__module__ = "gausssep.core"
    core.build_covariance = build_covariance
    user = types.ModuleType("gausssep.symplectic")
    user.build_covariance = build_covariance  # imported by name
    saved = {k: m for k, m in sys.modules.items() if k == "gausssep" or k.startswith("gausssep.")}
    for k in saved:
        del sys.modules[k]
    sys.modules.update({"gausssep.core": core, "gausssep.symplectic": user})
    try:
        tracer = spans.Tracer()
        with spans.Instrumentation(tracer):
            assert core.build_covariance is not build_covariance
            assert user.build_covariance is core.build_covariance
            assert user.build_covariance(1) == 2
        assert core.build_covariance is build_covariance
        assert user.build_covariance is build_covariance
        assert len(tracer.start) == 1
    finally:
        del sys.modules["gausssep.core"], sys.modules["gausssep.symplectic"]
        sys.modules.update(saved)


def test_traced_cli_writes_the_same_bytes(tmp_path, monkeypatch):
    """With every wrapper installed, the real CLI's outputs are byte-identical
    and the spans nest under the root."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    cli = pytest.importorskip("gausssep.cli")
    import generate

    monkeypatch.setattr(generate, "CLASSIFY_STATES", 200)
    monkeypatch.setattr(generate, "FORMS_STATES", 40)
    monkeypatch.setattr(generate, "SAMPLE_CONSTRUCT", 20)
    monkeypatch.setattr(generate, "SAMPLE_REJECT", 20)
    argvs = []
    for w in ("classify-mixed", "forms", "sample-campaign"):
        argvs += [c["argv"] for c in generate.generate(w, 1, str(tmp_path / w))["commands"]]
    out = tmp_path / "sweep.csv"
    argvs.append(["sweep", "--axis1", "m1:0:1.2:5", "--axis2", "mc:0:1:3", "--output", str(out)])

    def outputs():
        for argv in argvs:
            assert cli.main(argv) == 0
        return [open(a[-1], "rb").read() for a in argvs]

    before = outputs()
    originals = dict(vars(cli))
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        main = tracer.wrap(cli.main, spans.ROOT)
        for argv in argvs:
            assert main(argv) == 0
    assert [open(a[-1], "rb").read() for a in argvs] == before
    assert dict(vars(cli)) == originals
    m = spans.summarize(tracer, wall_s=1.0, untraced_s=1.0)
    assert m["core.classify.calls"] == 2 * 200 + 2 * 40
    assert m["symplectic.reduce.calls"] == 40
    assert m["cli.bisect.calls"] > 0 and m["core.bounds.degenerate"] > 0
    assert m["core.fallbacks"] > 0
    a = tracer.arrays()
    roots = a["parent"] == -1
    assert (a["name"][roots] == tracer.name_id(spans.ROOT)).all()
