"""Span recorder for the traced benchmark run.

The traced run rebinds public functions and methods of the ``fgcrypt``
modules to timing wrappers defined here; nothing under ``src/`` changes.  A
wrapper records one span per call (name, start, end, parent span, operation
id) into flat arrays kept in memory, and optionally a work count read from
the call's arguments and return value.  Self time is derived from the spans
after the run: a span's duration minus the time its child spans cover.

Only the traced run imports and installs this; the untraced run executes the
unmodified modules.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)
_MASK64 = (1 << 64) - 1

# Modules to wrap: every public function in a module's ``__all__``, plus the
# methods the per-layer metrics name.  Classes in ``__all__`` are skipped.
METHODS = {
    "words": ("Word.inverse",),
    "automorphisms": ("FactoredAutomorphism.apply", "FactoredAutomorphism.compose",
                      "FactoredAutomorphism.power", "FactoredAutomorphism.inverse"),
}
MODULES = ("words", "nielsen", "automorphisms", "keystream", "matrices",
           "otp", "pubkey", "cryptanalysis")


class Tracer:
    """In-memory span store; one instance per traced run, single thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack = [-1]
        self.op = 0
        # wrappers record only inside a benchmark op span, so input
        # generation and output checks between ops stay out of the layers
        self.in_op = False
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.span_start)

    def add(self, metric: str, value: float = 1) -> None:
        self.counts[metric] += value

    def _open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one benchmark op span; library calls
        are traced only inside one."""
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.in_op:
                return fn(*args, **kwargs)
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span as tab-separated text (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{names[self.span_name[i]]}\t"
                          f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                          f"{self.span_parent[i]}\t{self.span_op[i]}\n")


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer._open(self.nid)
        self.tracer.in_op = True
        return self

    def __exit__(self, *exc):
        self.tracer.in_op = False
        self.tracer._close(self.i)
        return False


def self_times(names, span_name, span_start, span_end, span_parent):
    """Per name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the summed durations of its direct
    children; spans of one thread nest, so children never overlap."""
    n = len(span_start)
    child = [0.0] * n
    for i in range(n):
        p = span_parent[i]
        if p >= 0:
            child[p] += span_end[i] - span_start[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    for i in range(n):
        nid = span_name[i]
        dur = span_end[i] - span_start[i]
        calls[nid] += 1
        total[nid] += dur
        own[nid] += dur - child[i]
    return {names[k]: (calls[k], total[k], own[k])
            for k in range(len(names)) if calls[k]}


# --- work counts read from arguments and return values ---------------------

def _prg_draws(before: int, after: int) -> int:
    # splitmix64 advances its state by the golden constant per draw
    return ((after - before) * _GOLDEN_INV) & _MASK64


def _count_concat(tr, args, kwargs, result):
    u, v = args[0], args[1]
    tr.add("words.concat.letters_cancelled",
           (len(u) + len(v) - len(result)) // 2)


def _count_apply(tr, args, kwargs, result):
    tr.add("automorphisms.FactoredAutomorphism.apply.letters_in", len(args[1]))
    tr.add("automorphisms.FactoredAutomorphism.apply.letters_out", len(result))


def _count_inverse(tr, args, kwargs, result):
    tr.add("automorphisms.FactoredAutomorphism.inverse.factors",
           len(result.factors))


def _count_power(tr, args, kwargs, result):
    tr.add("automorphisms.FactoredAutomorphism.power.image_letters",
           sum(len(w) for w in result.images))


def _count_derive(tr, args, kwargs, result):
    tr.add("keystream.factors", len(result.factors))


def _count_nielsen_reduce(tr, args, kwargs, result):
    reduced, moves = result
    tr.add("nielsen.nielsen_reduce.moves", len(moves))
    tr.add("nielsen.nielsen_reduce.rank_drops", len(args[0]) - len(reduced))


def _count_word_to_matrix(tr, args, kwargs, result):
    tr.add("matrices.word_to_matrix.letters_in", len(args[1]))
    tr.add("matrices.word_to_matrix.result_bits",
           sum(abs(e.numerator).bit_length() + e.denominator.bit_length()
               for e in result.entries()))


def _count_matrix_to_word(tr, args, kwargs, result):
    tr.add("matrices.matrix_to_word.found", result is not None)


def _count_subset_attack(tr, args, kwargs, result):
    tr.add("cryptanalysis.subset_attack.subsets_examined", result.subsets_examined)
    tr.add("cryptanalysis.subset_attack.candidates", len(result.candidates))


COUNTERS = {
    "words.concat": _count_concat,
    "automorphisms.FactoredAutomorphism.apply": _count_apply,
    "automorphisms.FactoredAutomorphism.inverse": _count_inverse,
    "automorphisms.FactoredAutomorphism.power": _count_power,
    "keystream.derive_automorphism": _count_derive,
    "nielsen.nielsen_reduce": _count_nielsen_reduce,
    "matrices.word_to_matrix": _count_word_to_matrix,
    "matrices.matrix_to_word": _count_matrix_to_word,
    "cryptanalysis.subset_attack": _count_subset_attack,
}


def _wrap_sampler(tracer: Tracer, fn: Callable) -> Callable:
    """random_whitehead_automorphism: also count the bit-source draws."""
    inner = tracer.wrap("automorphisms.random_whitehead_automorphism", fn)

    @functools.wraps(fn)
    def wrapper(prg, *args, **kwargs):
        before = getattr(prg, "state", None)
        result = inner(prg, *args, **kwargs)
        if before is not None and tracer.in_op:
            tracer.add("keystream.prg_draws", _prg_draws(before, prg.state))
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind the public functions and named methods of every package module
    (and every other module's imported reference to them) to wrappers.
    Must run after ``import fgcrypt`` and before the workload's first call."""
    replaced: dict[int, Callable] = {}
    for short in MODULES:
        mod = sys.modules[f"fgcrypt.{short}"]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if isinstance(fn, type) or not callable(fn):
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if name == "automorphisms.random_whitehead_automorphism":
                w = _wrap_sampler(tracer, fn)
            else:
                w = tracer.wrap(name, fn, COUNTERS.get(name))
            replaced[id(fn)] = w
        for qual in METHODS.get(short, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[meth]
            name = f"{short}.{qual}"
            setattr(cls, meth, tracer.wrap(name, fn, COUNTERS.get(name)))
    # rebind every module-level reference, including names other modules
    # imported (nielsen.concat, cryptanalysis.nielsen_reduce, fgcrypt.concat)
    for modname, mod in list(sys.modules.items()):
        if modname != "fgcrypt" and not modname.startswith("fgcrypt."):
            continue
        for attr, val in list(vars(mod).items()):
            w = replaced.get(id(val))
            if w is not None:
                setattr(mod, attr, w)
