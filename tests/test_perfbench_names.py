"""The bench's tracer finds every name it wraps and puts each one back.

``perfbench/tracer.py`` replaces functions and methods of ``befaas`` by
name. A rename in ``src/`` would break ``perfbench/run.py --trace 1``
only when the bench runs; this test makes it fail here instead.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_names_that_exist_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    bench = tracer.Tracer()
    with bench.installed():
        parent = list(bench._patches)
        bench.install_analyzer()
        patches = list(bench._patches)
        assert len(patches) > len(parent) > 0
        assert all(_current(owner, attr) is not raw for owner, attr, raw in patches)
        bench.uninstall()
    assert all(_current(owner, attr) is raw for owner, attr, raw in patches)
