"""Span tracer that wraps tamebc's public callables from the outside.

``Tracer.install`` replaces every binding of each traced callable (the
defining module, every ``from``-import of it in another tamebc module, the
package re-export, and class attributes such as ``__rmul__`` aliases) with
a wrapper that records a span: name, start, end, parent span and op id.
``Tracer.uninstall`` puts every original object back.  Nothing under
``src/`` is edited.

Self time of a span is its duration minus the time covered by its child
spans.  Counters kept at the same boundaries give the ratios of the
per-layer table (fill, kept_ratio, miss_ratio, cancel_ratio, ...).
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array


# ---------------------------------------------------------------------------
# post-call hooks: counters measured where the work happens
# ---------------------------------------------------------------------------

def _nonzero(series):
    coeffs = series.coeffs
    return len(coeffs) - coeffs.count(0)


def _mul_fill(tracer, args, result):
    a, b = args[0], args[1]
    n = 2 * len(a.coeffs)
    tracer.add("dvr.series_mul.fill_sum", (_nonzero(a) + _nonzero(b)) / n)


def _echelon_kept(tracer, args, result):
    tracer.add("dvr.echelon.cols_in", len(args[0]))
    tracer.add("dvr.echelon.cols_kept", len(result))


def _coords_miss(tracer, args, result):
    if result is None:
        tracer.add("dvr.coords.misses", 1)


def _smith_pivots(tracer, args, result):
    tracer.add("dvr.smith.pivots", len(result.exponents))


def _jump_entries(tracer, args, result):
    tracer.add("jumps.jump_entries", len(result.entries))


def _reduce_cancel(tracer, args, result):
    before = len(args[0].denominator)
    tracer.add("motivic.reduce.factors_in", before)
    tracer.add("motivic.reduce.factors_cancelled", before - len(result.denominator))


# (span name, defining module, attribute path, post-call hook)
TARGETS = [
    ("dvr.series_mul", "tamebc.dvr", "TruncSeries.__mul__", _mul_fill),
    ("dvr.unit_divide", "tamebc.dvr", "TruncSeries.unit_divide", None),
    ("dvr.series_new", "tamebc.dvr", "TruncSeries.__init__", None),
    ("dvr.series_addsub", "tamebc.dvr", "TruncSeries.__add__", None),
    ("dvr.series_addsub", "tamebc.dvr", "TruncSeries.__sub__", None),
    ("dvr.series_addsub", "tamebc.dvr", "TruncSeries.__neg__", None),
    ("dvr.exact_divide", "tamebc.dvr", "TruncSeries.exact_divide", None),
    ("dvr.echelon", "tamebc.dvr", "column_echelon", _echelon_kept),
    ("dvr.coords", "tamebc.dvr", "coordinates_in_echelon", _coords_miss),
    ("dvr.smith", "tamebc.dvr", "smith_normal_form", _smith_pivots),
    ("dvr.oracle", "tamebc.dvr", "cokernel_d_jumps_oracle", None),
    ("dvr.poly_mod", "tamebc.dvr", "_poly_mod", None),
    ("pushout.generator_check", "tamebc.pushout", "generator_check", None),
    ("pushout.tor_defect", "tamebc.pushout", "tor_defect", None),
    ("pushout.base_change", "tamebc.pushout", "base_change_commutes", None),
    ("pushout.membership", "tamebc.pushout", "fiber_membership", None),
    ("pushout.fp_rank", "tamebc.pushout", "_fp_rank", None),
    ("pushout.algebra_mul", "tamebc.pushout", "PolyAlgebra.mul", None),
    ("jumps.torus_jumps", "tamebc.jumps", "torus_jumps", _jump_entries),
    ("jumps.edixhoven", "tamebc.jumps", "edixhoven_graded", None),
    ("jumps.order_function", "tamebc.jumps", "order_function", None),
    ("jumps.recursion_check", "tamebc.jumps", "order_recursion_check", None),
    ("motivic.zeta_torus", "tamebc.motivic", "zeta_induced_torus", None),
    ("motivic.zeta_jacobian", "tamebc.motivic", "zeta_jacobian", None),
    ("motivic.reduce", "tamebc.motivic", "reduce", _reduce_cancel),
    ("motivic.expand", "tamebc.motivic", "CycloRational.expand", None),
    ("motivic.render", "tamebc.motivic", "render_cyclo", None),
    ("motivic.pole", "tamebc.motivic", "pole_report", None),
    ("motivic.poly_mul", "tamebc.motivic", "MotivicPoly.__mul__", None),
    ("specfile.parse", "tamebc.specfile", "parse_text", None),
    ("specfile.okt_expr", "tamebc.specfile", "parse_okt_expr", None),
    ("cli.run", "tamebc.cli", "run", None),
    ("lattice.is_isogeny", "tamebc.lattice", "is_isogeny", None),
    ("intmat.smith_diagonal", "tamebc._intmat", "smith_diagonal", None),
]

LAYER_NAMES = sorted({name for name, *_ in TARGETS})


class Tracer:
    """Records spans around wrapped callables and aggregates them per name."""

    def __init__(self, precision_exhausted):
        self._pe_class = precision_exhausted
        self._last_pe = None
        self.patches = []  # (owner, attribute, original)
        self.keep_spans = True
        self.paused = False  # set while the harness checks answers
        self.op_id = -1
        self._stack = []  # [span index or -1, child seconds]
        self._name_ids = {}
        self.names = []
        self.calls = []
        self.self_s = []
        self.counters = {}
        self.sp_name = array("H")
        self.sp_parent = array("l")
        self.sp_op = array("l")
        self.sp_start = array("d")
        self.sp_end = array("d")

    # -- bookkeeping ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name, fn, post=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if tracer.keep_spans:
                idx = len(tracer.sp_start)
                tracer.sp_name.append(nid)
                tracer.sp_parent.append(stack[-1][0] if stack else -1)
                tracer.sp_op.append(tracer.op_id)
                tracer.sp_start.append(0.0)
                tracer.sp_end.append(0.0)
            else:
                idx = -1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except tracer._pe_class as exc:
                if exc is not tracer._last_pe:
                    tracer._last_pe = exc
                    tracer.add("dvr.precision_exhausted", 1)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if idx >= 0:
                    tracer.sp_start[idx] = start
                    tracer.sp_end[idx] = end
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every binding of every target in the loaded tamebc modules."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "tamebc" or key.startswith("tamebc."))
        ]
        for name, module_name, path, post in TARGETS:
            owner = sys.modules[module_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[parts[-1]]
            wrapper = self.wrap(name, original, post)
            if len(parts) > 1:
                # a method: patch the class attribute and its aliases
                sites = [owner]
            else:
                sites = modules
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self.patches.append((site, attr, original))
                        setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original in reversed(self.patches):
            setattr(site, attr, original)

    def restored(self):
        """True when every patched attribute is the original object again."""
        return all(vars(site)[attr] is original for site, attr, original in self.patches)

    # -- results -------------------------------------------------------------

    def layer_totals(self):
        """{span name: (calls, self seconds)} for every traced layer name."""
        out = {name: (0, 0.0) for name in LAYER_NAMES}
        for nid, name in enumerate(self.names):
            if name in out:
                out[name] = (self.calls[nid], self.self_s[nid])
        return out

    def write_spans(self, path):
        """Write the recorded spans as gzip-compressed tab-separated text."""
        base = self.sp_start[0] if self.sp_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_us\tend_us\n")
            for i in range(len(self.sp_start)):
                out.write(
                    f"{i}\t{self.sp_parent[i]}\t{self.sp_op[i]}\t"
                    f"{self.names[self.sp_name[i]]}\t"
                    f"{(self.sp_start[i] - base) * 1e6:.1f}\t"
                    f"{(self.sp_end[i] - base) * 1e6:.1f}\n"
                )
        return len(self.sp_start)
