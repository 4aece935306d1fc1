"""The benchmark still runs on the package, and its outputs stay the same.

perfbench/ traces named functions and methods of the package; renaming or
deleting one of them would only fail the traced benchmark run.  Each
workload's digest at seed 21 pins the outputs of its leading ops, which
``perfbench/run.py --seed 21`` prints.  These tests read perfbench/ and
change nothing in it.
"""

import hashlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "workloads", "checks"):
        monkeypatch.delitem(sys.modules, name, raising=False)


def test_tracer_wraps_every_target(monkeypatch):
    _perfbench(monkeypatch)
    import spans
    import workloads  # noqa: F401  (the tracer also patches the workloads' own references)

    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


DIGESTS_AT_SEED_21 = {
    "chain-unit": "0ca62d5bbd8e97c8ac2f93b01dd5ba2b6095c4f9cc8266c40ed2acd35659eb81",
    "chain-rational": "157570c099a3ed306a580db9a83c5558e73a2f500d29cf68b6116921e72ffc52",
    "calibrate": "472fa8ac92070947e38382c0027aa7b0c3d78e31ea7f59a7e4d2b8a2c3277ff1",
    "sample": "a4512d89596428bb9c779a7a843f50f760c070f66ade185f64d539cbf7bdde08",
}


@pytest.mark.parametrize("name", list(DIGESTS_AT_SEED_21))
def test_workload_digest_at_seed_21(monkeypatch, tmp_path, name):
    # the ops, checks and digest of run.py's timed loop, over the digested ops
    _perfbench(monkeypatch)
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    wl = cls(21, tmp_path, cls.fixed_ops)
    wl.prepare(cls.fixed_ops)
    assert wl.setup_errors() == []
    digest = hashlib.sha256()
    for i in range(cls.fixed_ops):
        out = wl.op(i)
        assert wl.check(i, out) == [], f"op {i}"
        digest.update(wl.digest(i, out))
    assert wl.final_check() == {}
    assert digest.hexdigest() == DIGESTS_AT_SEED_21[name]


@pytest.mark.parametrize("name", list(DIGESTS_AT_SEED_21))
def test_traced_pass_reaches_every_assigned_layer(monkeypatch, tmp_path, name):
    # the traced pass of run.py --trace 1: set-up, then the fixed ops
    _perfbench(monkeypatch)
    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    wl = cls(21, tmp_path, cls.fixed_ops)
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        tracer.start_op(-1)
        wl.prepare(cls.fixed_ops)
        tracer.end_op()
        for i in range(cls.fixed_ops):
            tracer.start_op(i)
            wl.op(i)
            tracer.end_op()
    finally:
        tracer.uninstall()
    _, _, calls = spans.summary(tracer.spans, cls.fixed_ops)
    assigned = [layer for layer, names in spans.LAYER_MAP.items() if name in names]
    assert assigned
    assert [layer for layer in assigned if calls[layer] == 0] == []


def test_calibrate_builds_one_chain_per_training_multiset(monkeypatch, tmp_path):
    # a traced calibrate pass at seed 21: per context, one chain for the three
    # fits and the comparison's chain cover, one for stage 2's single family
    _perfbench(monkeypatch)
    import spans
    from workloads import WORKLOADS

    from chaincover.chain import _last_sample_chain

    _last_sample_chain.cache_clear()
    cls = WORKLOADS["calibrate"]
    wl = cls(21, tmp_path, cls.fixed_ops)
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        wl.prepare(cls.fixed_ops)
        for i in range(cls.fixed_ops):
            tracer.start_op(i)
            wl.op(i)
            tracer.end_op()
    finally:
        tracer.uninstall()
    _, _, calls = spans.summary(tracer.spans, cls.fixed_ops)
    assert cls.fixed_ops == 14
    assert calls["chain.nested_chain"] == 4


def test_calibrate_builds_one_order_per_context(monkeypatch, tmp_path):
    # the same pass at seed 21: a context's three fits and its chain cover
    # read one fixed vertex order from the sample-chain memo
    _perfbench(monkeypatch)
    from workloads import WORKLOADS

    from chaincover import chain

    chain._last_sample_chain.cache_clear()
    built = []
    fixed_order = chain._fixed_order
    monkeypatch.setattr(chain, "_fixed_order", lambda *args: built.append(args) or fixed_order(*args))
    cls = WORKLOADS["calibrate"]
    wl = cls(21, tmp_path, cls.fixed_ops)
    wl.prepare(cls.fixed_ops)
    for i in range(cls.fixed_ops):
        wl.op(i)
    assert cls.fixed_ops == 14
    assert len(built) == 2
