"""Code outside the package that calls it: the demos and the benchmark's
tracer.  A deletion in the API must fail here rather than break them."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hermlift

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def _tracer():
    """perfbench/tracer.py, loaded from its file without installing it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    t = _tracer()
    for module, attr, _ in t.SPAN_FUNCS + t.COUNT_FUNCS + [("criterion", "verify_criterion", 0)]:
        assert callable(getattr(getattr(hermlift, module), attr, None)), (module, attr)
    # the tracer replaces methods found in the class's own __dict__
    kernel = [("cyclotomic", cls, methods, name) for cls, methods, name, _ in t.KERNEL_METHODS]
    for module, cls_name, methods, _ in t.SPAN_METHODS + kernel + t.COUNT_METHODS:
        cls = getattr(getattr(hermlift, module), cls_name)
        for meth in methods:
            assert meth in cls.__dict__, (module, cls_name, meth)
