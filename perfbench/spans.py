"""Spans and counters around padelic's layer boundaries, installed from outside.

The tracer replaces each listed function with a wrapper in every loaded
padelic module that binds it, so calls through ``from .ordering import
p_ordering`` are seen as well; nothing under ``src/`` changes.  Spans are kept
in memory as ``[name, start, end, parent, request]`` and written once, when
the run ends.  A function a later version no longer has is skipped, and its
metrics are reported as absent.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter
from typing import Dict, List, Optional

# (module, attribute): functions that get a span per call.
SPANNED = [
    ("cli", "run"),
    ("sets", "parse_set"), ("sets", "parse_adelic"), ("sets", "residues"),
    ("polys", "parse_poly"), ("polys", "RatPoly.__mul__"), ("polys", "RatPoly.__call__"),
    ("ordering", "p_ordering"), ("ordering", "rational_lift"),
    ("ordering", "basis_rational"), ("ordering", "local_membership"),
    ("globalbasis", "char_ideal"), ("globalbasis", "regular_basis"),
    ("globalbasis", "crt_combine"), ("globalbasis", "global_membership"),
    ("globalbasis", "_prime_factors"),
    ("adelic", "adelic_ordering"), ("adelic", "scale_into_z"),
    ("mahler", "expand"), ("mahler", "_certify"),
    ("approx", "approximate"), ("approx", "_build"), ("approx", "_verify"),
]
# Called far too often for a span each: counted only.
COUNTED = [("padic", "valp")]

ERRORS_OF = ["ordering.p_ordering", "mahler.expand", "approx.approximate",
             "globalbasis.regular_basis"]

# What to add up from a wrapped function's return value.
RESULT_SUMS = {
    "mahler.expand": lambda series: len(series.coeffs),
    "mahler._certify": bool,
    "globalbasis.regular_basis": lambda family: len(family.polys),
    "approx.approximate": lambda cert: cert.attempts,
}


def per_layer_metric_names() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, attr in SPANNED:
        name = f"{module}.{attr}"
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.total_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(f"{m}.{a}.calls", "count", "lower") for m, a in COUNTED]
    out += [(f"{name}.errors", "count", "lower") for name in ERRORS_OF]
    out += [("mahler.certify.pass_ratio", "ratio", "higher"),
            ("mahler.expand.orderings_per_call", "count", "lower"),
            ("mahler.expand.coeffs_per_call", "count", "lower"),
            ("globalbasis.regular_basis.orderings_per_poly", "count", "lower"),
            ("approx.approximate.attempts_per_call", "count", "lower"),
            ("tracing.requests_per_s_delta", "1/s", "lower"),
            ("tracing.overhead_ratio", "ratio", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request = -1
        self.counts: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.result_sums: Dict[str, int] = {}
        self._patches: Optional[List[tuple]] = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if self._patches is None:
            self._patches = self._build()
        for target, leaf, _, wrapper in self._patches:
            setattr(target, leaf, wrapper)

    def uninstall(self) -> None:
        for target, leaf, original, _ in self._patches or ():
            setattr(target, leaf, original)

    def _build(self) -> List[tuple]:
        """(namespace, name, original, wrapper) for every binding of every target."""
        patches = []
        for module, attr in SPANNED + COUNTED:
            name = f"{module}.{attr}"
            owner, leaf, original = _resolve(module, attr)
            if original is None:
                continue
            if (module, attr) in COUNTED:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._spanner(name, original)
            if owner is not None:  # a method: patch the class once
                patches.append((owner, leaf, original, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "padelic" and getattr(mod, leaf, None) is original:
                    patches.append((mod, leaf, original, wrapper))
        return patches

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        summarise = RESULT_SUMS.get(name)
        self.errors[name] = 0
        self.result_sums[name] = 0

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = perf_counter()
                stack.pop()
                self.errors[name] += 1
                raise
            record[2] = perf_counter()
            stack.pop()
            if summarise is not None:
                self.result_sums[name] += summarise(result)
            return result
        return spanned

    # -- results ------------------------------------------------------------

    def per_layer(self) -> Dict[str, Optional[float]]:
        """Per-layer metrics from the recorded spans; None marks an absent function."""
        n = len(self.names)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * len(self.spans)
        self_time = [0.0] * n
        for index, start, end, parent, _ in self.spans:
            dur = end - start
            calls[index] += 1
            total[index] += dur
            if parent >= 0:
                child[parent] += dur
        for i, (index, start, end, _, _) in enumerate(self.spans):
            self_time[index] += (end - start) - child[i]
        out: Dict[str, Optional[float]] = {}
        by_name = {name: i for i, name in enumerate(self.names)}
        for module, attr in SPANNED:
            name = f"{module}.{attr}"
            i = by_name.get(name)
            out[f"{name}.calls"] = calls[i] if i is not None else None
            out[f"{name}.total_s"] = total[i] if i is not None else None
            out[f"{name}.self_s"] = self_time[i] if i is not None else None
        for module, attr in COUNTED:
            out[f"{module}.{attr}.calls"] = self.counts.get(f"{module}.{attr}")
        for name in ERRORS_OF:
            out[f"{name}.errors"] = self.errors.get(name)
        inside = self._orderings_inside(("mahler.expand", "globalbasis.regular_basis"))

        def ratio(num, den_name):
            i = by_name.get(den_name)
            if num is None or i is None:
                return None
            return num / calls[i] if calls[i] else 0.0

        sums = self.result_sums
        out["mahler.certify.pass_ratio"] = ratio(sums.get("mahler._certify"), "mahler._certify")
        out["mahler.expand.orderings_per_call"] = ratio(inside["mahler.expand"], "mahler.expand")
        out["mahler.expand.coeffs_per_call"] = ratio(sums.get("mahler.expand"), "mahler.expand")
        polys = sums.get("globalbasis.regular_basis")
        out["globalbasis.regular_basis.orderings_per_poly"] = (
            inside["globalbasis.regular_basis"] / polys if polys else 0.0)
        out["approx.approximate.attempts_per_call"] = ratio(
            sums.get("approx.approximate"), "approx.approximate")
        return out

    def _orderings_inside(self, ancestors) -> Dict[str, Optional[int]]:
        """p_ordering spans with each named function among their ancestors."""
        index = {name: i for i, name in enumerate(self.names)}
        target = index.get("ordering.p_ordering")
        out = {a: (0 if a in index and target is not None else None) for a in ancestors}
        wanted = {index[a]: a for a in ancestors if a in index}
        for record in self.spans:
            if record[0] != target:
                continue
            parent = record[3]
            found = set()
            while parent >= 0:
                up = self.spans[parent]
                if up[0] in wanted:
                    found.add(wanted[up[0]])
                parent = up[3]
            for a in found:
                out[a] += 1
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent index, request."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for index, start, end, parent, request in self.spans:
                fh.write(json.dumps([self.names[index], start, end, parent, request]) + "\n")


def _resolve(module: str, attr: str):
    """(owning class or None, leaf name, original function or None)."""
    mod = sys.modules.get(f"padelic.{module}")
    if mod is None:
        return None, attr, None
    owner_name, _, leaf = attr.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else None
    if owner_name and owner is None:
        return None, leaf, None
    return owner, leaf, getattr(owner if owner is not None else mod, leaf, None)
