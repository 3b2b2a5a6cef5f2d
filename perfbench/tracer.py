"""Span tracer that wraps gschur's public functions from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
one span (name, start, end, parent span, case id) per call, in every loaded
`gschur` module that holds the function by name and on the `GschurContext`,
`UniPolySeq` and `MultiPoly` classes.  `Tracer.uninstall()` puts every
original back.  Spans are kept in flat arrays while the pass runs; self time
(span duration minus the durations of its direct children) and the derived
counts are computed from them afterwards by `summarize`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (span name, module that defines it, attribute names).  A class-qualified
# module entry ("engine.GschurContext") wraps methods on the class; a plain
# module entry wraps the function wherever a gschur module imported it.
TARGETS = (
    ("coeffseq.phi", "coeffseq.UniPolySeq", ("phi",)),
    ("exactalg.exact_divide", "exactalg", ("exact_divide",)),
    ("exactalg.determinant", "exactalg", ("determinant",)),
    ("exactalg.mul", "exactalg.MultiPoly", ("__mul__", "__rmul__")),
    ("exactalg.addsub", "exactalg.MultiPoly", ("__add__", "__radd__")),
    ("exactalg.addsub", "exactalg.MultiPoly", ("__sub__",)),
    ("exactalg.addsub", "exactalg.MultiPoly", ("__rsub__",)),
    ("engine.bialternant", "engine.GschurContext", ("bialternant",)),
    ("engine.h", "engine.GschurContext", ("h",)),
    ("engine.h_shift", "engine.GschurContext", ("h_shift",)),
    ("engine.lemma_residual", "engine.GschurContext", ("lemma_residual",)),
    ("engine.jacobi_trudi", "engine.GschurContext", ("jacobi_trudi",)),
    ("engine.giambelli", "engine.GschurContext", ("giambelli",)),
    ("engine.monomial_expansion", "engine.GschurContext", ("monomial_expansion",)),
    ("presets.fh_character_det", "presets", ("fh_character_det",)),
    ("presets.boundary_insensitivity", "presets", ("boundary_insensitivity",)),
    ("stable.schur_expand_at", "stable", ("schur_expand_at",)),
    ("stable.expand_in_classical_schur", "stable", ("expand_in_classical_schur",)),
    ("stable.classical_schur", "stable", ("classical_schur",)),
    ("stable.interpolate_c_family", "stable", ("interpolate_c_family",)),
    ("stable.gschur_function", "stable", ("gschur_function",)),
    ("stable.super_schur", "stable", ("super_schur",)),
    ("stable.jt_infinite_check", "stable", ("jt_infinite_check",)),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def _gschur_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gschur" or name.startswith("gschur."))
    ]


class Tracer:
    """Records spans around gschur's public functions while installed."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.case_id = -1
        self.counts = {
            "exactalg.exact_divide.num_terms": 0,
            "exactalg.exact_divide.quot_terms": 0,
            "exactalg.determinant.max_order": 0,
            "exactalg.determinant.out_terms": 0,
        }
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._after = {
            "exactalg.exact_divide": self._count_divide,
            "exactalg.determinant": self._count_determinant,
        }

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        stack = self._stack
        name_of, start, end, parent, case = (
            self.name_of, self.start, self.end, self.parent, self.case
        )
        clock = time.perf_counter
        after = self._after.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            case.append(self.case_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count_divide(self, args, result) -> None:
        self.counts["exactalg.exact_divide.num_terms"] += len(args[0])
        self.counts["exactalg.exact_divide.quot_terms"] += len(result)

    def _count_determinant(self, args, result) -> None:
        matrix = args[0]  # a PolyMatrix, or a plain list of rows
        order = len(matrix) if isinstance(matrix, list) else matrix.rows
        key = "exactalg.determinant.max_order"
        self.counts[key] = max(self.counts[key], order)
        self.counts["exactalg.determinant.out_terms"] += len(result)

    def install(self) -> None:
        """Wrap every target in the gschur modules loaded so far."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {m.__name__: m for m in _gschur_modules()}
        for name, where, attrs in TARGETS:
            mod_name, _, cls_name = where.partition(".")
            home = modules.get("gschur." + mod_name)
            if home is None:
                continue
            if cls_name:
                owner = getattr(home, cls_name)
                originals = {vars(owner)[a] for a in attrs}
                if len(originals) != 1:
                    raise RuntimeError(f"{where}.{attrs} are not one function")
                wrapper = self._wrap(name, originals.pop())
                for attr in attrs:
                    self._patch(owner, attr, wrapper)
                continue
            original = getattr(home, attrs[0])
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back, in reverse patch order."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Dump the raw spans: a JSON header line, then the five arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name", "start", "end", "parent", "case"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent, self.case):
                arr.tofile(fh)

    def summarize(self, case_scale=None) -> dict:
        """Per-name calls and self time, plus the derived counters.

        `case_scale[c]`, when given, multiplies the times of case c's spans.
        """
        factors = array("d", (
            case_scale[c] if case_scale is not None and c >= 0 else 1.0
            for c in self.case
        ))
        return summarize(self.names, self.name_of, self.start, self.end,
                         self.parent, factors, self.counts)


def summarize(names, name_of, start, end, parent, factors, counts) -> dict:
    """Reduce raw spans to per-layer numbers.

    Self time of a span is its duration minus the durations of its direct
    children; calls are nested strictly (one thread), so children never
    overlap each other.  Also derives the bialternant hit count (calls that
    returned without a child determinant span) and the exact-division self
    time spent under an `engine.h` ancestor.  Each span's self time is
    multiplied by its entry in `factors`.
    """
    total = len(start)
    dur = [end[k] - start[k] for k in range(total)]
    child = [0.0] * total
    det_child = bytearray(total)
    under_h = bytearray(total)
    det_id = names.index("exactalg.determinant")
    h_id = names.index("engine.h")
    for k in range(total):
        p = parent[k]
        if p >= 0:
            child[p] += dur[k]
            if name_of[k] == det_id:
                det_child[p] = 1
            under_h[k] = name_of[p] == h_id or under_h[p]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    bialt_id = names.index("engine.bialternant")
    div_id = names.index("exactalg.exact_divide")
    hits = 0
    div_under_h = 0.0
    for k in range(total):
        nid = name_of[k]
        own = (dur[k] - child[k]) * factors[k]
        calls[nid] += 1
        self_s[nid] += own
        if nid == bialt_id and not det_child[k]:
            hits += 1
        elif nid == div_id and under_h[k]:
            div_under_h += own
    out = {"spans": total}
    for nid, name in enumerate(names):
        out[f"{name}.calls"] = calls[nid]
        out[f"{name}.self_s"] = self_s[nid]
    out["engine.bialternant.hits"] = hits
    out["exactalg.exact_divide.under_h.self_s"] = div_under_h
    out.update(counts)
    return out


def merge_summaries(summaries: list[dict]) -> dict:
    """Combine the summaries of several processes: sums, except maxima."""
    out: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key.endswith(".max_order"):
                out[key] = max(out.get(key, 0), value)
            elif isinstance(value, list):
                out.setdefault(key, []).extend(value)
            else:
                out[key] = out.get(key, 0) + value
    return out
