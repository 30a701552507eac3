"""Every function the benchmark tracer wraps exists in ``src/``, and its
result readers read what those functions return.

``perfbench/spans.py`` looks its targets up by name and reports the metrics
of a name it cannot resolve as null, so renaming or deleting one of them
breaks the traced benchmark run without failing any other test.  Its
``RESULT_SUMS`` readers run on every traced return value, so a result that
loses an attribute they read would crash every traced request.
"""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import padelic
from padelic.approx import ApproxRequest, approximate
from padelic.globalbasis import regular_basis
from padelic.mahler import StepFunction, _certify, expand
from padelic.sets import FULL, AdelicSet, CompactSet

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


ZHAT = AdelicSet(tracked={}, default=FULL)
PARITY = StepFunction(2, CompactSet.from_balls(2, [(0, 0)]), 1, {0: 0, 1: 1}, 4)

# (tiny call of each function whose result is read, the reading it gives)
READ_RESULTS = {
    "mahler.expand": (lambda: expand(PARITY), 7),
    "mahler._certify": (lambda: _certify(expand(PARITY), PARITY), 1),
    "globalbasis.regular_basis": (lambda: regular_basis(ZHAT, 2), 3),
    "approx.approximate": (
        lambda: approximate(ApproxRequest(set=ZHAT, targets={2: (PARITY, 2)})), 1),
}


@pytest.mark.parametrize("name", sorted(spans.RESULT_SUMS))
def test_result_reader_reads_the_result(name):
    call, expected = READ_RESULTS[name]
    assert spans.RESULT_SUMS[name](call()) == expected
