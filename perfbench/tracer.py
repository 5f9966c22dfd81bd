"""Outside-in tracer for trunclog: spans around calls into each layer.

The library is not modified.  ``install`` replaces each traced function, in
every loaded ``trunclog`` module that imported it, by a wrapper that records
a span (name, start, end, parent); traced methods are replaced on their
class.  Spans live in flat arrays until ``write_jsonl`` dumps them, one JSON
object per line (gzip-compressed: a run records up to ~10^6 spans).  F_{p^2}
raw operations are only counted: there are tens of millions of them, and
timing each would dominate the run.

A span's self time is its duration minus that of its child spans; a name's
inclusive time counts only spans with no enclosing span of the same name.

Every boundary named here must exist in the library: ``install`` raises
LookupError for one it cannot find, so that a layer that moves or is renamed
never reads as zero work.  Update the tables below with such a change.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (metric prefix, defining module, attribute).  A dotted attribute is a method
# patched on its class; a plain one is a function patched wherever imported.
BOUNDARIES = (
    ("polys.mul", "polys", "FpPoly.__mul__"),
    ("polys.mul", "polys", "FpPoly.__rmul__"),
    ("polys.addsub", "polys", "FpPoly.__add__"),
    ("polys.addsub", "polys", "FpPoly.__radd__"),
    ("polys.addsub", "polys", "FpPoly.__sub__"),
    ("polys.addsub", "polys", "FpPoly.__rsub__"),
    ("polys.divmod", "polys", "FpPoly.__divmod__"),
    ("polys.gcd", "polys", "FpPoly.gcd"),
    ("polys.ratfn_canon", "polys", "RatFn.__init__"),
    ("quotient.grid_mulmod", "quotient", "grid_mulmod"),
    ("quotient.compose_mod", "quotient", "compose_mod"),
    ("quotient.xpoly_mul", "quotient", "XPoly.__mul__"),
    ("special.binomials_of", "special", "binomials_of"),
    ("special.trunc_binomial", "special", "trunc_binomial"),
    ("special.laguerre_pm1", "special", "laguerre_pm1"),
    ("special.laguerre_scaled", "special", "laguerre_scaled"),
    ("special.laguerre_const", "special", "laguerre_const"),
    ("special.laguerre_const_routes", "special", "laguerre_const_routes"),
    ("special.finite_polylog", "special", "finite_polylog"),
    ("bpoly.b_rs", "bpoly", "b_rs"),
    ("bpoly.b_rs_alt", "bpoly", "b_rs_alt"),
    ("bpoly.b_rs_coeff", "bpoly", "b_rs_coeff"),
    ("bpoly.b_prefix_products", "bpoly", "b_prefix_products"),
    ("bpoly.product_all_b", "bpoly", "product_all_b"),
    ("jacobi.jacobi_pm1", "jacobi", "jacobi_pm1"),
    ("glog.glog", "glog", "glog"),
    ("glog.reciprocal_rhs", "glog", "reciprocal_rhs"),
    ("cli.main", "cli", "main"),
)

# Counted, never timed: methods of fields.Ext2Field.
EXT2_OPS = ("add_raw", "sub_raw", "mul_raw", "inv_raw", "pow_raw", "frobenius_raw")

LAYERS = ("polys", "quotient", "special", "bpoly", "jacobi", "glog", "verify", "cli")

BIG_PRODUCT = 2048  # len * len above which polys switches to Kronecker products


def find(modname: str, attr: str):
    """(owner, name, value) of trunclog.<modname>.<attr>, where a dotted attr
    is a class attribute; LookupError when the library has no such thing."""
    owner = sys.modules.get(f"trunclog.{modname}")
    *path, name = attr.split(".")
    for part in path:
        owner = vars(owner).get(part) if owner is not None else None
    value = vars(owner).get(name) if owner is not None else None
    if value is None:
        raise LookupError(f"trunclog.{modname}.{attr} not found")
    return owner, name, value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = bytearray()  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.special_caches: list = []  # lru_cache constructors of special

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def begin(self, name: str) -> int:
        """Open a span; the benchmark's own phases use this directly."""
        nid = self._id(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self.stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self._depth[self.name[i]] -= 1

    def wrap(self, name, fn, observe=None):
        """A wrapper recording one span per call; observe(args, result) runs
        after the span closes.  Inlined, since it runs ~10^5-10^6 times."""
        nid = self._id(name)
        name_a, parent_a, outer_a = self.name, self.parent, self.outer
        start_a, end_a, stack, depth = self.start, self.end, self.stack, self._depth

        def traced(*args, **kwargs):
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            d = depth[nid]
            outer_a.append(d == 0)
            depth[nid] = d + 1
            stack.append(i)
            end_a.append(0.0)
            start_a.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[i] = perf_counter()
                stack.pop()
                depth[nid] -= 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_theorem(self, fn):
        """verify_theorem, with one span name per checker."""
        begin, finish = self.begin, self.finish

        def traced(p, theorem, **overrides):
            i = begin("verify." + getattr(theorem, "value", str(theorem)))
            try:
                return fn(p, theorem, **overrides)
            finally:
                finish(i)

        return traced

    def count(self, metric, fn):
        counts = self.counts
        counts.setdefault(metric, 0)

        def counted(*args):
            counts[metric] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if n == "trunclog" or n.startswith("trunclog.")]
        observers = self._observers()
        for prefix, modname, attr in BOUNDARIES:
            owner, name, orig = find(modname, attr)
            if prefix.startswith("special.") and hasattr(orig, "cache_info"):
                self.special_caches.append(orig)
            wrapped = self.wrap(prefix, orig, observers.get(prefix))
            for target in mods if owner in mods else [owner]:
                if vars(target).get(name) is orig:
                    setattr(target, name, wrapped)
        _, _, orig = find("verify", "verify_theorem")
        wrapped = self.wrap_theorem(orig)
        for mod in mods:
            if vars(mod).get("verify_theorem") is orig:
                setattr(mod, "verify_theorem", wrapped)
        # The rational-modulus Horner fallback of compose_mod: counted only.
        quotient, name, orig = find("quotient", "_compose_horner")
        setattr(quotient, name, self.count("compose_rational", orig))
        for op in EXT2_OPS:
            ext2, name, orig = find("fields", f"Ext2Field.{op}")
            setattr(ext2, name, self.count(f"fields.ext2.{op}", orig))

    def _observers(self) -> dict:
        counts = self.counts
        for key in ("mul_big", "mul_coeff_ops", "max_degree", "ratfn_reduced",
                    "compose_rational", "b_rs_builds"):
            counts[key] = 0
        seen_b: set[int] = set()

        fppoly = sys.modules["trunclog.polys"].FpPoly

        def mul(args, result):
            if result is NotImplemented:
                return
            a, b = args
            ops = len(a.coeffs) * (len(b.coeffs) if type(b) is fppoly else 1)
            counts["mul_coeff_ops"] += ops
            if ops > BIG_PRODUCT:
                counts["mul_big"] += 1
            deg = len(result.coeffs) - 1
            if deg > counts["max_degree"]:
                counts["max_degree"] = deg

        def ratfn(args, _result):
            den = args[2] if len(args) > 2 else None
            given = den.degree if hasattr(den, "degree") else 0
            if args[0].den.degree < given:
                counts["ratfn_reduced"] += 1

        def b_rs(_args, result):
            if id(result) not in seen_b:
                seen_b.add(id(result))
                counts["b_rs_builds"] += 1

        return {
            "polys.mul": mul,
            "polys.ratfn_canon": ratfn,
            "bpoly.b_rs": b_rs,
        }

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, outermost-inclusive seconds, self seconds."""
        n = len(self.start)
        start, end, parent, name, outer = self.start, self.end, self.parent, self.name, self.outer
        self_t = [end[i] - start[i] for i in range(n)]
        for i in range(n):
            par = parent[i]
            if par >= 0:
                self_t[par] -= end[i] - start[i]
        stats = {nm: [0, 0.0, 0.0] for nm in self.names}
        for i in range(n):
            s = stats[self.names[name[i]]]
            s[0] += 1
            if outer[i]:
                s[1] += end[i] - start[i]
            s[2] += self_t[i]
        return stats

    def metrics(self) -> dict:
        """The per-layer figures this tracer can give, by metric name."""
        stats = self.aggregate()
        out: dict[str, float] = {}
        prefixes = dict.fromkeys(p for p, _, _ in BOUNDARIES)
        for prefix in prefixes:
            calls, incl, self_s = stats.get(prefix, (0, 0.0, 0.0))
            out[f"{prefix}_calls"] = calls
            out[f"{prefix}_s"] = incl
            out[f"{prefix}_self_s"] = self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v[2] for k, v in stats.items() if k.split(".")[0] == layer
            )
        for nm, (_, incl, _) in stats.items():
            if nm.startswith("verify."):
                out[f"{nm}_s"] = incl
        c = self.counts
        out["fields.ext2_mul_calls"] = c.get("fields.ext2.mul_raw", 0)
        out["fields.ext2_ops"] = sum(c.get(f"fields.ext2.{op}", 0) for op in EXT2_OPS)
        out["polys.mul_big_calls"] = c["mul_big"]
        out["polys.mul_coeff_ops"] = c["mul_coeff_ops"]
        out["polys.max_degree"] = c["max_degree"]
        canon = out["polys.ratfn_canon_calls"]
        out["polys.ratfn_reduced_share"] = c["ratfn_reduced"] / canon if canon else 0.0
        out["quotient.compose_rational_calls"] = c["compose_rational"]
        out["bpoly.b_rs_builds"] = c["b_rs_builds"]
        hits = sum(fn.cache_info().hits for fn in self.special_caches)
        misses = sum(fn.cache_info().misses for fn in self.special_caches)
        out["special.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["trace.spans"] = len(self.start)
        return out

    def write_jsonl(self, path: str) -> None:
        """All spans, one JSON object per line, gzip-compressed."""
        names, name, parent, start, end = self.names, self.name, self.parent, self.start, self.end
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(start)):
                fh.write(f'{{"id": {i}, "name": "{names[name[i]]}", "parent": {parent[i]}, '
                         f'"start": {start[i]!r}, "end": {end[i]!r}}}\n')
