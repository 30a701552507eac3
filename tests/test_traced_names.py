"""Every function the benchmark tracer wraps exists in ``src/``.

``perfbench/spans.py`` looks its targets up by name and reports the metrics
of a name it cannot resolve as null, so renaming or deleting one of them
breaks the traced benchmark run without failing any other test.
"""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import padelic

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()
for _info in pkgutil.iter_modules(padelic.__path__):
    importlib.import_module(f"padelic.{_info.name}")


@pytest.mark.parametrize("module, attr", spans.SPANNED + spans.COUNTED,
                         ids=lambda name: name)
def test_traced_name_resolves(module, attr):
    _, _, original = spans._resolve(module, attr)
    assert callable(original), f"padelic.{module}.{attr} is gone"
