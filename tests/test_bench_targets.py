"""Every function the benchmark wraps must still exist in kcx.

`bench/spans.py` names its span targets as (kcx module, attribute or
"Class.method"); a rename in kcx would otherwise only show when the benchmark
runs.  The file is loaded read-only, without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


TARGETS = [
    (span, mod_name, attr) for span, targets in _load_spans().items() for mod_name, attr, _ in targets
]


@pytest.mark.parametrize(
    "span,mod_name,attr", TARGETS, ids=[f"{span}:{m}.{a}" for span, m, a in TARGETS]
)
def test_span_target_resolves(span, mod_name, attr):
    module = importlib.import_module(f"kcx.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert meth in cls.__dict__, f"{span}: {cls_name} defines no {meth}"
        target = cls.__dict__[meth]
    else:
        assert hasattr(module, attr), f"{span}: kcx.{mod_name} has no {attr}"
        target = getattr(module, attr)
    assert callable(target)
