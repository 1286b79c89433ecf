"""The wrappers time the layers' public functions and leave no trace."""

from __future__ import annotations

import importlib

from repro import AnalysisSession
from repro.tool.session import ToolSession
from repro.workloads import build_sc1, build_sc2

from perfbench.layers import HOOKS, LayerTracer, covered_seconds, totals


def _raw(hook):
    module = importlib.import_module(hook.module)
    target = module if hook.owner is None else getattr(module, hook.owner)
    return vars(target)[hook.attr]


def test_install_and_uninstall_restore_every_function():
    originals = {hook: _raw(hook) for hook in HOOKS}
    with LayerTracer():
        assert all(_raw(hook) is not raw for hook, raw in originals.items())
    assert all(_raw(hook) is raw for hook, raw in originals.items())


def test_spans_nest_and_count(tmp_path):
    with LayerTracer() as tracer:
        session = AnalysisSession([build_sc1(), build_sc2()])
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        session.candidate_pairs("sc1", "sc2")
        tool = ToolSession.open(tmp_path / "s.json")
        tool.save(tmp_path / "s.json")
    table = totals(tracer.spans)
    assert table["equivalence.declare"].calls == 1
    assert table["equivalence.rank"].calls == 1
    assert table["tool.open"].calls == 1
    assert table["tool.save"].calls == 1
    assert isinstance(ToolSession.open(tmp_path / "s.json"), ToolSession)
    assert covered_seconds(table) <= sum(t.seconds for t in table.values())
    # the window drops spans that began outside it
    last = max(span.start for span in tracer.spans)
    window = [(last, last)]
    assert sum(t.calls for t in totals(tracer.spans, window).values()) == 1
