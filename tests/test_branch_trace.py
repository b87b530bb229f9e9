import importlib.util
import os
import sys
from pathlib import Path

# the tool by path, its verdict judged on a module of known coverage
spec = importlib.util.spec_from_file_location(
    "branch_trace", Path(__file__).resolve().parents[1] / "tools" / "branch_trace.py")
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

SAMPLE = """\
def unrun():
    return 1

def entered(x):
    if x:
        x += 1
    return x

def skipped(x):
    if x:
        x += 1
    return x

def listed(xs):
    if [x for x in xs]:
        return 1
    return 0

def tail(x):
    if x:
        x += 1
"""


def test_findings_name_each_unrun_statement_and_one_way_if(tmp_path, monkeypatch):
    (tmp_path / "sample.py").write_text(SAMPLE)
    monkeypatch.setattr(tool, "PREFIX", str(tmp_path.resolve()) + os.sep)
    arcs, sample = {}, {}
    previous = sys.gettrace()  # the trace's own tracer, when it runs this test
    sys.settrace(tool.arc_tracer(arcs))
    try:
        exec(compile(SAMPLE, str(tmp_path / "sample.py"), "exec"), sample)
        for name, arg in [("entered", 1), ("skipped", 0), ("listed", [1]), ("tail", 1), ("tail", 0)]:
            sample[name](arg)
    finally:
        sys.settrace(previous)
    # the comprehension's return from line 15 is no skip; tail(0) returns
    # straight from its test, and that is one
    assert sorted(tool.findings(tmp_path / "sample.py", arcs["sample.py"])) == [
        (2, "never ran"), (5, "if never skipped"), (10, "if never entered"), (11, "never ran"),
        (15, "if never skipped"), (17, "never ran"),
    ]
