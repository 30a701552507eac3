"""tools/corpus_digest.py: one digest per benchmark workload, the same on every run."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "corpus_digest", ROOT / "tools" / "corpus_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_digest_prints_one_stable_line_per_workload(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    assert tool.main([str(ROOT)]) == 0
    first = capsys.readouterr().out
    assert tool.main([str(ROOT)]) == 0
    assert capsys.readouterr().out == first
    names = [line.split()[0] for line in first.splitlines()]
    assert names == ["expand", "basis", "approx", "query"]
    assert tool.main([]) == 2
