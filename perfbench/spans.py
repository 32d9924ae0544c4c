"""Span tracing and Scalar counting from outside the package.

Nothing here edits the package's source.  `Tracer` replaces each public
function of the traced modules, and the arithmetic methods of Series and
SeriesMatrix, with a wrapper that records a span, everywhere a caller
looks the function up: the defining module, every module that
from-imported it (such as `cli.instantons_from_g`), and the package's
own re-exports.  `ScalarCounter` wraps `Scalar.__mul__`, `__add__` and
`inverse` in a separate pass, because a wrapper on calls that frequent
would distort every span's self time.  Both restore
every patch on exit, and `patched_names` lets a caller prove that none
survived.
"""
from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

MODULES = ("cli", "picard_fuchs", "vshs", "series", "nilpotent", "linalg",
           "scalars", "amodel", "jsonio")
TRACED_CLASSES = ("Series", "SeriesMatrix")
# arithmetic dunders that do real work; the other dunders are skipped
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
         "__mul__", "__rmul__", "__truediv__")
# accessors too cheap to be a layer; their time stays in the caller
ACCESSORS = ("entry", "coefficient", "at0", "is_zero", "valuation",
             "row_list", "agree_mod")
MARK = "__perfbench_wrapped__"


def _package_modules(pkg) -> list:
    prefix = pkg.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == pkg.__name__ or
                                  name.startswith(prefix))]


def _class_targets(cls) -> list[str]:
    names = []
    for name, attr in cls.__dict__.items():
        if not inspect.isfunction(attr):
            continue  # staticmethods and properties are constructors/views
        if name in ARITH or (not name.startswith("_") and
                             name not in ACCESSORS):
            names.append(name)
    return names


class _Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def patched_names(pkg) -> list[str]:
    """Every attribute of the package still holding a benchmark wrapper."""
    found = []
    for mod in _package_modules(pkg):
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Records (name, start, end, parent, op) spans in flat arrays.

    Use as a context manager around the calls to trace.  Spans are
    recorded only while `recording` is true, so output checks that run
    the package's own code stay out; `op(i)` tags later spans with
    operation i.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.fid = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.recording = False
        self.current_op = -1
        self._stack = [-1]
        self._patcher = _Patcher()
        # formal_flat_gauge arguments seen in the current op, to count
        # calls that recompute a gauge already computed
        self.gauge_args: list = []
        self.gauge_repeats = 0

    # -- patching ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn):
        fid = self._intern(name)
        fid_arr, parent_arr, op_arr = self.fid, self.parent, self.opid
        start_arr, end_arr, stack = self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(fid_arr)
            fid_arr.append(fid)
            parent_arr.append(stack[-1])
            op_arr.append(self.current_op)
            start_arr.append(0.0)
            end_arr.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start_arr[idx] = t0
                end_arr[idx] = t1

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, True)
        return wrapper

    def _gauge_wrapper(self, inner):
        def wrapper(b, *args, **kwargs):
            if self.recording:
                if any(b is seen or b == seen for seen in self.gauge_args):
                    self.gauge_repeats += 1
                else:
                    self.gauge_args.append(b)
            return inner(b, *args, **kwargs)
        setattr(wrapper, MARK, True)
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = _package_modules(self.pkg)
        short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        replacement: dict[int, object] = {}
        for mod_name in MODULES:
            mod = short.get(mod_name)
            if mod is None:
                continue
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and not name.startswith("_") \
                        and fn.__module__ == mod.__name__:
                    wrapped = self._wrap(f"{mod_name}.{fn.__qualname__}", fn)
                    if mod_name == "vshs" and name == "formal_flat_gauge":
                        wrapped = self._gauge_wrapper(wrapped)
                    replacement[id(fn)] = (fn, wrapped)
        try:
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    hit = replacement.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patcher.set(mod, name, hit[1])
            series = short["series"]
            for cls_name in TRACED_CLASSES:
                cls = getattr(series, cls_name)
                for name in _class_targets(cls):
                    fn = cls.__dict__[name]
                    self._patcher.set(cls, name, self._wrap(
                        f"series.{fn.__qualname__}", fn))
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False
        self._patcher.restore()

    # -- recording --------------------------------------------------------

    def op(self, index: int) -> None:
        """Start operation `index`; later spans carry its id."""
        self.current_op = index
        self.gauge_args = []

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive total_s and self_s.

        total_s counts only the outermost span of a name on any stack,
        so recursion is not counted twice; self_s is a span's duration
        minus its direct children's.
        """
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        # depth-first order: a parent always precedes its children
        open_names: list[int] = []
        ancestors: list[int] = []
        for i in range(n):
            p = self.parent[i]
            while ancestors and ancestors[-1] != p:
                ancestors.pop()
                open_names.pop()
            s = stats[self.names[self.fid[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            if self.fid[i] not in open_names:
                s["total_s"] += dur[i]
            ancestors.append(i)
            open_names.append(self.fid[i])
        return stats

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.fid))
                   if self.parent[i] < 0)

    def write(self, path) -> None:
        """All spans as gzipped tab-separated text:
        name, start_s, end_s, parent index (-1 for none), op id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.fid)):
                fh.write(f"{self.names[self.fid[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t"
                         f"{self.parent[i]}\t{self.opid[i]}\n")


def _bits(x) -> int:
    return max(x.re.numerator.bit_length(), x.re.denominator.bit_length(),
               x.im.numerator.bit_length(), x.im.denominator.bit_length())


class ScalarCounter:
    """Counts Scalar products, sums and inverses while recording is on.

    Also tracks the largest numerator or denominator bit length of any
    result and how many products had a non-real operand.
    """

    def __init__(self, pkg):
        self.scalar_cls = pkg.scalars.Scalar
        self.mul = self.add = self.inverse = 0
        self.mul_gaussian = 0
        self.max_bits = 0
        self.recording = False
        self._patcher = _Patcher()

    def __enter__(self) -> "ScalarCounter":
        cls = self.scalar_cls
        orig_mul, orig_add = cls.__dict__["__mul__"], cls.__dict__["__add__"]
        orig_inv = cls.__dict__["inverse"]

        def mul(a, b):
            r = orig_mul(a, b)
            if self.recording and r is not NotImplemented:
                self.mul += 1
                if a.im != 0 or getattr(b, "im", 0) != 0:
                    self.mul_gaussian += 1
                self.max_bits = max(self.max_bits, _bits(r))
            return r

        def add(a, b):
            r = orig_add(a, b)
            if self.recording and r is not NotImplemented:
                self.add += 1
                self.max_bits = max(self.max_bits, _bits(r))
            return r

        def inverse(a):
            r = orig_inv(a)
            if self.recording:
                self.inverse += 1
                self.max_bits = max(self.max_bits, _bits(r))
            return r

        for fn in (mul, add, inverse):
            setattr(fn, MARK, True)
        try:
            for name, fn in (("__mul__", mul), ("__rmul__", mul),
                             ("__add__", add), ("__radd__", add),
                             ("inverse", inverse)):
                self._patcher.set(cls, name, fn)
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False
        self._patcher.restore()
