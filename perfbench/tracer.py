"""Per-layer call counts and self time, from wrappers around the public
functions of each cat0sigma module.

``Tracer.install()`` replaces every wrapped function object with a wrapper
wherever the package holds a reference to it: module globals (so
``from .homology import homology`` in ``raag`` is caught), dict values at
module level, methods in class dictionaries, and the ``__defaults__`` /
``__kwdefaults__`` of every function (``representable=`` in
``sphere.minimal_ray_count`` and ``sphere.m_value``).  Nothing in the
program changes; the benchmark installs the tracer in its own process.

A span covers one call of a wrapped function.  Its self time is its
duration minus the time of the spans it caused.  A call into a function of
the same span group while a span of that group is open (recursion, or
``parse_point`` calling ``parse_vertex``) is part of the open span and is
not counted again.  Count-only wrappers (tree steps) open no span: their
time stays with the enclosing span.

No ``sys.setprofile`` hook: on a 100-instance m-value batch a hook that
filtered down to three code objects took four times the untraced time.
"""

from __future__ import annotations

import gc
import sys
import types
from time import perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.active = 0
        self.extra = {}


# (stat name, module, attribute, mode).  An attribute "Class.method" names a
# method; "*.method" names the method in every class of the module that
# defines it.  Mode "span" times the call, "count" only counts it.
WRAPPED = [
    ("cli.run", "cli", "run", "span"),
    ("jsonio.parse", "jsonio", "parse_fraction", "span"),
    ("jsonio.parse", "jsonio", "parse_cayley_word", "span"),
    ("jsonio.parse", "jsonio", "parse_point", "span"),
    ("jsonio.parse", "jsonio", "parse_vertex", "span"),
    ("jsonio.parse", "jsonio", "parse_boundary", "span"),
    ("jsonio.parse", "jsonio", "parse_end_or_point", "span"),
    ("jsonio.parse", "jsonio", "parse_ray", "span"),
    ("jsonio.jsonable", "jsonio", "jsonable", "span"),
    ("verify.run_suite", "verify", "run_suite", "span"),
    ("sphere.minimal_ray_count", "sphere", "minimal_ray_count", "span"),
    ("exactlp.lp", "exactlp", "strictly_representable_lp", "span"),
    ("exactlp.fm", "exactlp", "strictly_representable_fm", "span"),
    ("spaces.busemann", "spaces", "busemann", "span"),
    ("spaces.limit_audit", "spaces", "busemann_limit_audit", "span"),
    ("spaces.distance", "spaces", "distance", "span"),
    ("trees.ray_point_at", "trees", "ray_point_at", "span"),
    ("trees.point_distance", "trees", "point_distance", "span"),
    ("trees.end_step", "trees", "*.end_step", "count"),
    ("trees.hnn_canonical", "trees", "HnnTree.canonical", "count"),
    ("actions.character_at_end", "actions", "character_at_end", "span"),
    ("actions.shift_report", "actions", "shift_report", "span"),
    ("actions.cocompactness_witness", "actions", "cocompactness_witness", "span"),
    ("raag.flag_complex", "raag", "flag_complex", "span"),
    ("raag.tietze", "raag", "tietze_trivialize", "span"),
    ("homology.homology", "homology", "homology", "span"),
    ("homology.snf", "homology", "smith_normal_form", "span"),
]
# Every public function of these modules gets a span of its own, named
# "<module>.<function>", so the module's self time is the sum of them.
WHOLE_MODULES = ("treesigma",)


class Tracer:
    def __init__(self, package: str = "cat0sigma"):
        self.package = package
        self.stats: dict[str, Stat] = {}
        self._stack = [[None, 0.0]]  # [stat of the open span, time of its child spans]
        self._originals: list = []
        self._cells: set = set()

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # -- wrappers ---------------------------------------------------------

    def span(self, orig, stat: Stat, on_call=None, on_result=None):
        stack = self._stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if stat.active:
                return orig(*args, **kwargs)
            stat.calls += 1
            if on_call is not None:
                on_call(stack[-1][0], args, kwargs)
            frame = [stat, 0.0]
            stack.append(frame)
            stat.active = 1
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.active = 0
                stack.pop()
                stat.self_s += elapsed - frame[1]
                stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return self._finish(wrapper, orig)

    def counter(self, orig, stat: Stat):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return orig(*args, **kwargs)

        return self._finish(wrapper, orig)

    def _finish(self, wrapper, orig):
        wrapper.__name__ = orig.__name__
        wrapper.__qualname__ = orig.__qualname__
        wrapper.__doc__ = orig.__doc__
        self._cells.update(id(c) for c in wrapper.__closure__)
        return wrapper

    # -- hooks for derived counters ---------------------------------------

    def _hooks(self, name: str):
        if name in ("exactlp.lp", "exactlp.fm"):
            mrc = self.stat("sphere.minimal_ray_count")

            def on_call(parent, args, kwargs):
                if parent is mrc:
                    mrc.extra["deciders"] = mrc.extra.get("deciders", 0) + 1

            stat = self.stat(name)

            def on_result(result):
                if result:
                    stat.extra["feasible"] = stat.extra.get("feasible", 0) + 1

            return on_call, on_result
        if name == "homology.snf":
            stat = self.stat(name)

            def on_call(parent, args, kwargs):
                matrix = args[0] if args else kwargs["matrix"]
                rows = len(matrix)
                stat.extra["entries"] = stat.extra.get("entries", 0) + rows * (len(matrix[0]) if rows else 0)

            return on_call, None
        if name == "raag.flag_complex":
            stat = self.stat(name)

            def on_result(result):
                stat.extra["simplices"] = stat.extra.get("simplices", 0) + len(result.simplices)

            return None, on_result
        return None, None

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(stat name, mode, function) for every wrapped function that
        exists in the program."""
        out = []
        for name, modname, attr, mode in WRAPPED:
            mod = sys.modules.get(f"{self.package}.{modname}")
            if mod is None:
                continue
            if "." not in attr:
                fn = vars(mod).get(attr)
                if isinstance(fn, types.FunctionType):
                    out.append((name, mode, fn))
                continue
            cls_name, meth = attr.split(".")
            for cls in vars(mod).values():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                if cls_name != "*" and cls.__name__ != cls_name:
                    continue
                fn = vars(cls).get(meth)
                if isinstance(fn, types.FunctionType):
                    out.append((name, mode, fn))
        for modname in WHOLE_MODULES:
            mod = sys.modules.get(f"{self.package}.{modname}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    out.append((f"{modname}.{attr}", "span", fn))
        return out

    def _modules(self):
        return [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(self.package + ".")]

    def install(self) -> None:
        __import__(f"{self.package}.cli")
        replace = {}
        for name, mode, fn in self._targets():
            if id(fn) in replace:
                continue
            stat = self.stat(name)
            if mode == "count":
                replace[id(fn)] = (fn, self.counter(fn, stat))
            else:
                on_call, on_result = self._hooks(name)
                replace[id(fn)] = (fn, self.span(fn, stat, on_call, on_result))
            self._originals.append(fn)

        def swap(value):
            hit = replace.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        functions = [fn for fn, _ in replace.values()]
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType):
                    functions.append(value)
                    if swap(value) is not value:
                        setattr(mod, key, swap(value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, types.FunctionType):
                            functions.append(v)
                            if swap(v) is not v:
                                value[k] = swap(v)
                elif isinstance(value, type) and value.__module__.startswith(self.package):
                    for k, v in list(vars(value).items()):
                        if isinstance(v, types.FunctionType):
                            functions.append(v)
                            if swap(v) is not v:
                                setattr(value, k, swap(v))
                        elif isinstance(v, (staticmethod, classmethod)):
                            functions.append(v.__func__)
        for fn in functions:
            if fn.__defaults__:
                fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
            if fn.__kwdefaults__:
                fn.__kwdefaults__ = {k: swap(v) for k, v in fn.__kwdefaults__.items()}
        replace.clear()

    def unbound_references(self) -> list[str]:
        """References to a wrapped function that still bypass its wrapper,
        found by asking the garbage collector who refers to the original."""
        out = []
        for fn in self._originals:
            for ref in gc.get_referrers(fn):
                if ref is self._originals or isinstance(ref, types.FrameType):
                    continue
                if isinstance(ref, types.CellType) and id(ref) in self._cells:
                    continue
                out.append(f"{fn.__module__}.{fn.__qualname__} held by a {type(ref).__name__}")
        return out

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, name -> (value, unit).  Functions the program
        no longer has report zero."""
        s = self.stat
        out = {}

        def calls(name, key=None):
            out[f"{key or name}.calls"] = (s(name).calls, "count")

        def self_s(name, key=None):
            out[f"{key or name}.self_s"] = (s(name).self_s, "s")

        self_s("cli.run")
        calls("jsonio.parse")
        self_s("jsonio.parse")
        self_s("jsonio.jsonable")
        calls("verify.run_suite")
        self_s("verify.run_suite")
        calls("treesigma.mfpr_lengths")
        out["treesigma.self_s"] = (sum(v.self_s for k, v in self.stats.items() if k.startswith("treesigma.")), "s")
        mrc = s("sphere.minimal_ray_count")
        calls("sphere.minimal_ray_count")
        self_s("sphere.minimal_ray_count")
        out["sphere.subsets_per_count"] = (mrc.extra.get("deciders", 0) / mrc.calls if mrc.calls else 0.0, "ratio")
        lp = s("exactlp.lp")
        calls("exactlp.lp")
        self_s("exactlp.lp")
        out["exactlp.lp.feasible_share"] = (lp.extra.get("feasible", 0) / lp.calls if lp.calls else 0.0, "share")
        calls("exactlp.fm")
        self_s("exactlp.fm")
        for name in ("spaces.busemann", "spaces.distance", "trees.ray_point_at", "trees.point_distance"):
            calls(name)
            self_s(name)
        self_s("spaces.limit_audit")
        calls("trees.end_step")
        calls("trees.hnn_canonical")
        for name in ("actions.character_at_end", "actions.shift_report", "actions.cocompactness_witness"):
            self_s(name)
        calls("raag.flag_complex")
        self_s("raag.flag_complex")
        out["raag.simplices"] = (s("raag.flag_complex").extra.get("simplices", 0), "count")
        calls("raag.tietze")
        self_s("raag.tietze")
        calls("homology.homology")
        calls("homology.snf")
        self_s("homology.snf")
        out["homology.snf.entries"] = (s("homology.snf").extra.get("entries", 0), "count")
        return out
