"""Span tracer for traced runs, installed from outside the package.

install() wraps every public module-level function of the measured
arrangekit modules, at its home module and at every module that imported
it by name, plus HermSpace.from_gram.  Each call records one span
(name, start, end, parent) in flat in-memory arrays, which dump_spans
writes out when the run ends; the CycRat arithmetic methods are only
counted.  A few wrappers also feed work counters from the call's
arguments and result.  Nothing in the package is edited on disk;
uninstall() restores every patched attribute.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("cyclo", "linalg", "lattices", "arrangements", "ball", "series", "jsonio", "cli")
CYC_METHODS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__", "inverse")


def _gram_key(M):
    return tuple(tuple((c.a, c.b) for c in row) for row in M)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = {}
        self.scan_keys = []  # (gram, norm, bound) repr per enumerate_by_norm call
        self._hyp_seen = set()
        self._hyp_spaces = []  # keeps ids of seen spaces from being reused
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name, observe=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- work counters fed by wrappers -------------------------------------

    def _observers(self):
        def scan(args, kwargs, result):
            M, norm, bound = args[0], args[1], args[2]
            self._bump("lattices.box_points", (2 * bound + 1) ** (2 * len(M)) if M and bound else 0)
            self._bump("lattices.scan_hits", len(result))
            self.scan_keys.append(repr((_gram_key(M), str(norm), bound)))

        def unit_filter(args, kwargs, result):
            self._bump("lattices.unit_filter_in", len(args[0]))
            self._bump("lattices.unit_filter_kept", len(result))

        def poset(args, kwargs, result):
            self._bump("arrangements.flats", len(result))

        def flags(args, kwargs, result):
            self._bump("arrangements.flags", len(result))

        def hyperbolic(args, kwargs, result):
            space, cov = args[0], args[1]
            key = (id(space), tuple(getattr(c, "a", c) for c in cov), tuple(getattr(c, "b", 0) for c in cov))
            if key in self._hyp_seen:
                self._bump("ball.hyperbolic_repeats")
            else:
                self._hyp_seen.add(key)
                self._hyp_spaces.append(space)

        def terms(args, kwargs, result):
            self._bump("series.terms", result.terms_used)

        def dumped(args, kwargs, result):
            self._bump("jsonio.output_bytes", len(result.encode("utf-8")))

        return {
            "lattices.enumerate_by_norm": scan,
            "lattices.primitive_up_to_units": unit_filter,
            "arrangements.build_poset": poset,
            "arrangements.enumerate_flags": flags,
            "ball.hyperplane_is_hyperbolic": hyperbolic,
            "series.weierstrass_pk": terms,
            "series.poincare_weierstrass": terms,
            "jsonio.dump_json": dumped,
        }

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import arrangekit

        modules = {m: importlib.import_module("arrangekit." + m) for m in LAYERS}
        everywhere = [arrangekit] + list(modules.values())
        observers = self._observers()
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped = self._wrap(fn, name, observers.get(name))
                for other in everywhere:
                    if other.__dict__.get(attr) is fn:
                        self._patch(other, attr, wrapped)
        HermSpace = modules["ball"].HermSpace
        from_gram = HermSpace.__dict__["from_gram"].__func__
        self._patch(HermSpace, "from_gram", classmethod(self._wrap(from_gram, "ball.from_gram")))
        CycRat = modules["cyclo"].CycRat
        for meth in CYC_METHODS:
            self._patch(CycRat, meth, self._counter(CycRat.__dict__[meth]))
        return self

    def _counter(self, fn):
        counts = self.counts

        def counted(*args):
            counts["cyclo.arith_calls"] = counts.get("cyclo.arith_calls", 0) + 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched = []

    # -- reduction ---------------------------------------------------------

    def per_name(self):
        """{name: [calls, total_s, self_s]} from the recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            row = out.get(name)
            if row is None:
                row = out[name] = [0, 0.0, 0.0]
            dur = ends[i] - starts[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def summary(self):
        return {
            "per_name": self.per_name(),
            "counts": dict(self.counts),
            "scan_keys": list(self.scan_keys),
            "spans": len(self.span_name),
        }

    def dump_spans(self, path):
        """Write the spans: a JSON header line, then the four raw arrays.

        The header holds the span names and the array type codes; the
        arrays follow in the order name id, parent index, start, end.
        """
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        header = {"names": self.names, "count": len(self.span_name), "typecodes": [a.typecode for a in arrays]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for a in arrays:
                a.tofile(fh)
