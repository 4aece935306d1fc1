"""The benchmark's span tracer still finds every function it wraps.

perfbench/ traces named functions and methods of the package; renaming or
deleting one of them would only fail the traced benchmark run.  This test
reads perfbench/ and changes nothing in it.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "workloads", "checks"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import spans
    import workloads  # noqa: F401  (the tracer also patches the workloads' own references)

    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
