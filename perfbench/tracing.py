"""Span tracing of superext's layers from outside the program.

Inside `with tracer.installed():` each traced public function is replaced
at every binding site in the loaded `superext.*` namespaces (a function
imported into another module is a second binding of the same object), and
the traced class methods on their classes; leaving the block restores the
originals.
Per-element helpers (`bracket`, `apply`, Fraction arithmetic) are never
wrapped.  Spans are kept in memory as (name, start, end, parent, op) and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

LAYERS = ("linalg", "algebra", "cohomology", "extension", "sequences", "files", "cli")

FUNCTIONS = {
    "linalg": ("solve", "rank", "inverse", "kernel_basis", "subspace_equal",
               "quotient_presentation"),
    "algebra": ("validate_superalgebra", "validate_module", "is_homomorphism",
                "semidirect_product", "quotient_by_ideal"),
    "cohomology": ("coboundary1", "is_cocycle1", "is_cocycle2", "cocycle2_space",
                   "coboundary2_space", "derivation_space", "inner_space", "h1", "h2",
                   "class_of", "cup"),
    "extension": ("build_extension", "classify_endomorphism", "is_ideal_derivation",
                  "is_module_endomorphism", "fixes_action", "from_derivation",
                  "to_derivation", "ring_add", "ring_mul", "quasi_mul",
                  "derivation_compose", "shifted_restriction", "quasiregular_inverse",
                  "extend_obstruction", "extend_obstruction_aut", "extend_endomorphism",
                  "induced_on_quotient", "section_offset", "lift_obstruction",
                  "lift_endomorphism", "inflate1", "inflate2", "restrict1",
                  "beta_with_section"),
    "sequences": ("sample_cocycle", "verify_five_term", "verify_ring_sequence",
                  "verify_automorphism_extension", "verify_monoid_sequence",
                  "verify_semidirect_automorphisms"),
    "files": ("parse_algebra", "parse_module", "parse_extension", "parse_map",
              "load_json", "load_algebra", "load_module", "load_extension", "load_maps"),
    "cli": ("main",),
}

METHODS = (
    ("extension", "AbelianExtension", "__init__"),
    ("linalg", "QuotientPresentation", "coordinates_of"),
    ("linalg", "SubspacePresentation", "from_spanning"),
)

OP = "bench.op"  # the benchmark's own span around one operation


def _bits(value) -> int:
    """Largest numerator or denominator bit length inside a linalg result."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((_bits(v) for v in value), default=0)
    for attr in ("data", "basis", "complement"):  # Mat, SubspacePresentation, quotient
        if hasattr(value, attr):
            return _bits(getattr(value, attr))
    return 0


def _cells(name: str, args) -> int:
    """rows x cols of the matrix a linalg entry point hands to elimination."""
    if name == "linalg.solve":
        return args[0].rows * (args[0].cols + 1)
    if name in ("linalg.rank", "linalg.kernel_basis"):
        return args[0].rows * args[0].cols
    if name == "linalg.inverse":
        return args[0].rows * 2 * args[0].cols
    if name == "linalg.SubspacePresentation.from_spanning":
        return len(args[2]) * args[1]
    if name == "linalg.quotient_presentation":
        z, b = args
        return (2 * z.dim + b.dim) * z.ambient_dim
    return 0


class Tracer:
    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self.cells = 0
        self.max_bits = 0
        self.offered = 0
        self.kept = 0
        self.lifted = 0
        self._site_list = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def span(self, op: int, fn, *args):
        """Run fn(*args) as operation `op`, under a root span."""
        self.op = op
        idx = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _observe(self, name: str, args, result) -> None:
        if name.startswith("linalg."):
            self.cells += _cells(name, args)
            self.max_bits = max(self.max_bits, _bits(result))
            if name.endswith("from_spanning"):
                self.offered += len(args[2])
                self.kept += result.dim
        elif name == "extension.lift_endomorphism" and result is not None:
            self.lifted += 1

    def _wrap(self, fn, name: str, listify_arg: int | None = None):
        tracer = self

        def traced(*args, **kwargs):
            if listify_arg is not None and len(args) > listify_arg:
                args = args[:listify_arg] + (list(args[listify_arg]),) + args[listify_arg + 1:]
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                tracer._observe(name, args, result)
                return result
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _sites(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "superext" or n.startswith("superext."))]
        sites = []
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"superext.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(original, f"{layer}.{fname}")
                sites += [(mod, attr, original, wrapper) for mod in modules
                          for attr, value in vars(mod).items() if value is original]
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"superext.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, listify_arg=2))
            else:
                wrapped = self._wrap(raw, name)
            sites.append((cls, meth, raw, wrapped))
        return sites

    @contextmanager
    def installed(self):
        """Record spans while the block runs; restore every binding after."""
        if self._site_list is None:
            self._site_list = self._sites()
        for owner, attr, _, wrapper in self._site_list:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._site_list:
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        spans = [[index[n], s, e, p, o] for n, s, e, p, o
                 in zip(self.names, self.starts, self.ends, self.parents, self.ops)]
        fields = ["name", "start", "end", "parent", "op"]
        path.write_text(json.dumps({"names": table, "fields": fields, "spans": spans}),
                        encoding="utf-8")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times; self time = duration minus direct children."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        validate_s = 0.0
        for i, name in enumerate(self.names):
            calls[name] += 1
            total[name] += dur[i]
            self_s[name.split(".")[0]] += dur[i] - child[i]
            if name.startswith("algebra.validate_"):
                p = self.parents[i]
                if p < 0 or not self.names[p].startswith("algebra.validate_"):
                    validate_s += dur[i]

        def count(*names):
            return sum(calls[x] for x in names)

        def secs(*names):
            return sum(total[x] for x in names)

        lifts = calls["extension.lift_endomorphism"]
        out = {
            "linalg.calls": (sum(v for k, v in calls.items() if k.startswith("linalg.")), "count"),
            "linalg.cells": (self.cells, "count"),
            "linalg.coords_calls": (count("linalg.QuotientPresentation.coordinates_of"), "count"),
            "linalg.solve_calls": (count("linalg.solve"), "count"),
            "linalg.span_yield": (self.kept / self.offered if self.offered else 0.0, "1"),
            "linalg.max_bits": (self.max_bits, "bits"),
            "algebra.validate_calls": (count("algebra.validate_superalgebra",
                                             "algebra.validate_module"), "count"),
            "algebra.validate_s": (validate_s, "s"),
            "algebra.hom_calls": (count("algebra.is_homomorphism"), "count"),
            "algebra.hom_s": (secs("algebra.is_homomorphism"), "s"),
            "cohomology.z2_s": (secs("cohomology.cocycle2_space"), "s"),
            "cohomology.b2_s": (secs("cohomology.coboundary2_space",
                                     "cohomology.derivation_space"), "s"),
            "cohomology.cocycle2_checks": (count("cohomology.is_cocycle2"), "count"),
            "cohomology.cocycle2_check_s": (secs("cohomology.is_cocycle2"), "s"),
            "cohomology.d1_calls": (count("cohomology.coboundary1"), "count"),
            "cohomology.class_of_calls": (count("cohomology.class_of"), "count"),
            "cohomology.class_of_s": (secs("cohomology.class_of"), "s"),
            "extension.build_calls": (count("extension.AbelianExtension.__init__"), "count"),
            "extension.build_s": (secs("extension.AbelianExtension.__init__"), "s"),
            "extension.extend_s": (secs("extension.extend_endomorphism"), "s"),
            "extension.lift_s": (secs("extension.lift_endomorphism"), "s"),
            "extension.obstruction_s": (secs("extension.extend_obstruction",
                                             "extension.extend_obstruction_aut",
                                             "extension.lift_obstruction"), "s"),
            "extension.lifted_frac": (self.lifted / lifts if lifts else 0.0, "1"),
            "extension.classify_calls": (count("extension.classify_endomorphism",
                                               "extension.fixes_action",
                                               "extension.is_module_endomorphism"), "count"),
            "sequences.five_term_s": (secs("sequences.verify_five_term"), "s"),
            "sequences.ring_s": (secs("sequences.verify_ring_sequence"), "s"),
            "sequences.aut_s": (secs("sequences.verify_automorphism_extension"), "s"),
            "sequences.monoid_s": (secs("sequences.verify_monoid_sequence"), "s"),
            "sequences.semidirect_s": (secs("sequences.verify_semidirect_automorphisms"), "s"),
            "files.parse_calls": (count("files.parse_algebra", "files.parse_module",
                                        "files.parse_extension", "files.parse_map"), "count"),
            "files.parse_s": (self_s["files"], "s"),
        }
        for layer in LAYERS:
            if layer != "files":
                out[f"{layer}.self_s"] = (self_s[layer], "s")
        return out
