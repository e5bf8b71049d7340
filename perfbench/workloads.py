"""The three workloads: set-up, seeded passes of operations, and output checks.

A workload is driven in passes.  `make_pass(state, p)` draws pass p's
operations from the seed (outside any timing), `run(state, op)` is one
timed operation, `record(state, op, result)` is its output as digested
for the reference check, and `check(state, op, result)` returns the
failed output checks.  Checks and records run after the timed window.
Library entry points are looked up on the `superext` package at call
time, so the traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import superext
import superext.cli

import corpus

SUITES = ("thm1", "cor1", "thm2", "thm3")


def _matrix(m) -> list[list[str]]:
    return [[corpus.format_rat(c) for c in row] for row in m.data]


def _build(spec: corpus.Spec):
    """The extension a library user would build from the spec."""
    basis = superext.SuperBasis(list(spec.basis))
    algebra = superext.LieSuperalgebra.from_brackets(basis, spec.brackets)
    return superext.build_extension(algebra, [basis.index(n) for n in spec.ideal])


# -- sweep-cold ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepCase:
    spec: corpus.Spec
    path: Path


class SweepCold:
    """`cohomology --degree 2` then `verify --suite five-term` on a fresh file per case."""

    name = "sweep-cold"
    setup_reps = 25
    trace_passes = 1

    def __init__(self, scale: str):
        if scale == "tiny":
            self.base = [corpus.heisenberg(1), corpus.heisenberg(1, odd=True),
                         *corpus.fixture_specs()]
        else:
            self.base = ([corpus.heisenberg(k) for k in (1, 2, 3)]
                         + [corpus.heisenberg(k, odd=True) for k in (1, 2)]
                         + [corpus.sl2_v2()] + corpus.fixture_specs())

    def setup(self, seed: int, workdir: Path):
        """Make the work directory and warm up: both commands once on an untimed h3."""
        workdir.mkdir(parents=True, exist_ok=True)
        state = {"seed": seed, "dir": workdir}
        spec = corpus.rescale(corpus.heisenberg(1), corpus.rng_for(seed, self.name, "warm-up"))
        path = workdir / "warm-up.json"
        corpus.write_extension(spec, path)
        codes = self.run(state, SweepCase(spec, path))[::2]
        if codes != (0, 0):
            raise RuntimeError(f"warm-up on {spec.name}: exit codes {codes}")
        return state

    def make_pass(self, state, p: int) -> list[SweepCase]:
        cases = []
        for i, spec in enumerate(self.base):
            fresh = corpus.rescale(spec, corpus.rng_for(state["seed"], self.name, p, i))
            path = state["dir"] / f"p{p}-{i}-{spec.name}.json"
            corpus.write_extension(fresh, path)
            cases.append(SweepCase(fresh, path))
        return cases

    def run(self, state, case: SweepCase):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code_h2 = superext.cli.main(["cohomology", str(case.path), "--degree", "2"])
            split = out.tell()
            code_ft = superext.cli.main(["verify", str(case.path), "--suite", "five-term"])
        text = out.getvalue()
        return code_h2, text[:split], code_ft, text[split:]

    def record(self, state, case, result):
        return [case.spec.name, *result]

    def check(self, state, case: SweepCase, result) -> list[str]:
        code_h2, out_h2, code_ft, out_ft = result
        if code_h2 != 0 or code_ft != 0:
            return [f"{case.spec.name}: exit codes {code_h2}, {code_ft}"]
        h2, ft = json.loads(out_h2), json.loads(out_ft)
        bad = []
        if not ft["passed"]:
            bad.append(f"{case.spec.name}: five-term FAIL")
        k = case.spec.pairs
        if k and not case.spec.odd:
            # Santharoubane (1983): dim H2(h_{2k+1}) = C(2k,2) - 1 for k >= 2, 2 for k = 1;
            # the quotient Ab(2k) with trivial coefficients has dim H2 = C(2k,2)
            h2_g = comb(2 * k, 2)
            want = (h2_g, h2_g, 2 if k == 1 else h2_g - 1)
            got = (h2["h2_dim"], ft["dims"]["h2_g"], ft["dims"]["h2_e"])
            if got != want:
                bad.append(f"{case.spec.name}: H2 dims {got}, closed form {want}")
        return bad


# -- decide-warm --------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    ext: int
    kind: str  # "extend" or "lift"
    map: object  # GradedLinearMap on the ideal (extend) or the quotient (lift)
    expected: bool  # whether the query is constructed to succeed


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


class _HeisenbergQueries:
    """Queries on an h_{2k+1} extension with quotient basis x1..xk, y1..yk.

    The cocycle is the form w(x_i, y_i) = c_i, so a quotient map lifts
    exactly when it preserves w.  Liftable maps are products of
    generators that preserve w: for the even variant the shears
    x_i -> x_i + t y_i and y_i -> y_i + t x_i, for the odd variant (where
    an even map cannot mix x and y) the pair A on the x block and
    C^-1 A^-T C on the y block with A = 1 + t E_ij; both variants also use
    diag(c, 1/c) on a pair (x_i, y_i).  Obstructed maps follow one with
    x_i -> d x_i, d != 1, which scales w on that pair.  The ideal <z> is
    one-dimensional with trivial action, so phi = c extends iff c = 0.
    """

    def __init__(self, spec: corpus.Spec):
        k = self.k = spec.pairs
        self.odd = spec.odd
        names = [n for n, _ in spec.basis]
        self.c = [next(iter(spec.brackets[(names[i], names[k + i])].values())) for i in range(k)]

    def _generator(self, rng):
        k, m = self.k, _identity(2 * self.k)
        i = rng.randrange(k)
        kind = rng.randrange(2)
        t = corpus.nonzero_rat(rng)
        if kind == 0:
            m[i][i], m[k + i][k + i] = t, 1 / t
        elif not self.odd:
            if rng.randrange(2):
                m[k + i][i] = t
            else:
                m[i][k + i] = t
        elif k > 1:
            j = rng.choice([x for x in range(k) if x != i])
            m[i][j] = t
            m[k + j][k + i] = -t * self.c[i] / self.c[j]
        return m

    def lift_map(self, rng, liftable: bool):
        m = _identity(2 * self.k)
        for _ in range(3):
            m = _matmul(m, self._generator(rng))
        if not liftable:
            d = _identity(2 * self.k)
            i = rng.randrange(self.k)
            d[i][i] = Fraction(0) if rng.randrange(4) == 0 else corpus.nonzero_rat(rng)
            if d[i][i] == 1:
                d[i][i] = Fraction(2)
            m = _matmul(m, d)
        return m

    def extend_map(self, rng, extendable: bool):
        return [[Fraction(0) if extendable else corpus.nonzero_rat(rng)]]


class DecideWarm:
    """Seeded extend/lift queries against extensions prepared in set-up.

    Every pass holds the same mix in a shuffled order: per unit of an
    extension's weight, `unit` extend and `unit` lift queries.  On the
    Heisenberg-type extensions a quarter of each kind is constructed to
    succeed; on the other two every query succeeds, so about half of all
    lift queries lift.
    """

    name = "decide-warm"
    setup_reps = 3
    trace_passes = 4

    def __init__(self, scale: str):
        if scale == "tiny":
            self.base = [(corpus.heisenberg(1), 2), (corpus.heisenberg(1, odd=True), 2),
                         (corpus.fixture_specs()[3], 1)]
            self.unit = 4
        else:
            self.base = [(corpus.heisenberg(3), 2), (corpus.heisenberg(2, odd=True), 2),
                         (corpus.sl2_v2(), 1), (corpus.fixture_specs()[3], 1)]
            self.unit = 8

    def setup(self, seed: int, workdir: Path):
        exts, specs, gens = [], [], []
        for i, (spec, _) in enumerate(self.base):
            fresh = corpus.rescale(spec, corpus.rng_for(seed, self.name, "ext", i))
            ext = _build(fresh)
            ext.h2_g, ext.z1_g, ext.z1_e, ext.module_end_space  # warm the cached spaces
            exts.append(ext)
            specs.append(fresh)
            gens.append(_HeisenbergQueries(fresh) if fresh.pairs else None)
        return {"seed": seed, "exts": exts, "specs": specs, "gens": gens}

    def make_pass(self, state, p: int) -> list[Query]:
        slots = []
        for i, (_, weight) in enumerate(self.base):
            n = self.unit * weight
            succeed = n // 4 if state["gens"][i] is not None else n
            for kind in ("extend", "lift"):
                slots += [(i, kind, j < succeed) for j in range(n)]
        rng = corpus.rng_for(state["seed"], self.name, "pass", p)
        rng.shuffle(slots)
        return [self._query(state, rng, *slot) for slot in slots]

    def _query(self, state, rng, i: int, kind: str, expected: bool) -> Query:
        ext, gen, name = state["exts"][i], state["gens"][i], state["specs"][i].name
        if kind == "lift":
            # without a Heisenberg form End^a(g) = {id}: the action is faithful on the ideal
            rows = gen.lift_map(rng, expected) if gen else _identity(ext.dim_g)
            basis = ext.g.basis
        else:
            if gen:
                rows = gen.extend_map(rng, expected)
            elif name == "affine_scaling":  # x acts as a scalar, so End_g(a) is all of M2
                rows = [[corpus.nonzero_rat(rng) for _ in range(2)] for _ in range(2)]
            else:  # sl2 ⋉ V2: End_g(a) is the scalars (Schur), and the extension splits
                c = corpus.nonzero_rat(rng)
                rows = [[c if r == s else Fraction(0) for s in range(2)] for r in range(2)]
            basis = ext.a_basis
        m = superext.GradedLinearMap(basis, basis, superext.Mat(rows, cols=len(rows)))
        return Query(i, kind, m, expected)

    def run(self, state, q: Query):
        ext = state["exts"][q.ext]
        if q.kind == "extend":
            if not superext.is_module_endomorphism(q.map, ext):
                return None
            return (superext.extend_endomorphism(q.map, ext),
                    superext.extend_obstruction(q.map, ext))
        if not superext.fixes_action(q.map, ext):
            return None
        return superext.lift_endomorphism(q.map, ext), superext.lift_obstruction(q.map, ext)

    def record(self, state, q: Query, result):
        if result is None:
            return [q.ext, q.kind, None]
        witness, obstruction = result
        return [q.ext, q.kind, None if witness is None else _matrix(witness.matrix),
                [corpus.format_rat(c) for c in obstruction.coords]]

    def check(self, state, q: Query, result) -> list[str]:
        where = f"{state['specs'][q.ext].name} {q.kind}"
        if result is None:
            return [f"{where}: refused by the membership predicate"]
        witness, obstruction = result
        bad = []
        found = witness is not None
        if found != obstruction.is_zero:
            bad.append(f"{where}: witness {found}, obstruction zero {obstruction.is_zero}")
        if found != q.expected:
            bad.append(f"{where}: constructed to succeed {q.expected}, witness {found}")
        if witness is None:
            return bad
        ext = state["exts"][q.ext]
        flags = superext.classify_endomorphism(witness, ext)
        if q.kind == "extend":
            shifted = [ext.a_coords(tuple(w - e for w, e in zip(witness.image_of_basis(idx),
                                                                 ext.inclusion.image_of_basis(m))))
                       for m, idx in enumerate(ext.ideal_indices)]
            ok = flags.fixes_quotient and shifted == [q.map.image_of_basis(m)
                                                      for m in range(ext.dim_a)]
        else:
            ok = flags.fixes_ideal and superext.induced_on_quotient(witness, ext) == q.map
        if not ok:
            bad.append(f"{where}: witness fails its re-check")
        return bad


# -- verify-sampled -----------------------------------------------------------


def coverage(report: dict) -> tuple[int, int, bool]:
    """(samples requested, samples obtained, sampled stage saw only the identity).

    Read from the report's dims and check details, with each suite's
    sample counts at their command-line defaults.
    """
    dims = report["dims"]
    checks = {c["name"]: c["detail"] for c in report["checks"]}
    suite = report["suite"]
    if suite == "ring-sequence":  # 120 derivation pairs, all zero when Z1(e,a) = 0
        pairs = checks["derivation_sum_transports_to_ring_add"]["pairs"]
        return pairs, pairs, dims["z1_e"] == 0
    if suite == "automorphism-extension":  # identity, up to count = 10 random, 2·id
        got = checks["automorphism_extension_decided_by_obstruction"]["samples"]
        return 12, got, got <= 1
    if suite == "monoid-sequence":  # identity and random maps up to count = 8, composites to 16
        got = dims["end_a_g_samples"]
        return 16, got, got <= 1
    # count = 6: identity and up to 6 random module automorphisms, and up to
    # 12 quotient maps (random and composites) of which the invertible are kept
    phis, psis = dims["module_aut_samples"], dims["quotient_aut_samples"]
    return 19, phis + psis, min(phis, psis) <= 1


@dataclass(frozen=True)
class SuiteRun:
    ext: int
    suite: str
    seed: int


class VerifySampled:
    """The sampled suites at their command-line defaults on warm extensions."""

    name = "verify-sampled"
    setup_reps = 5
    trace_passes = 1

    def __init__(self, scale: str):
        fixtures = corpus.fixture_specs()
        if scale == "tiny":
            self.base = fixtures[1:4]
        else:
            self.base = fixtures + [corpus.sl2_v2(), corpus.heisenberg(2),
                                    corpus.heisenberg(2, odd=True)]

    def setup(self, seed: int, workdir: Path):
        exts, names = [], []
        for i, spec in enumerate(self.base):
            fresh = corpus.rescale(spec, corpus.rng_for(seed, self.name, "ext", i))
            ext = _build(fresh)
            ext.h2_g, ext.z1_g, ext.z1_e, ext.module_end_space  # warm the cached spaces
            exts.append(ext)
            names.append(fresh.name)
        return {"seed": seed, "exts": exts, "names": names}

    def make_pass(self, state, p: int) -> list[SuiteRun]:
        rng = corpus.rng_for(state["seed"], self.name, "pass", p)
        return [SuiteRun(i, s, rng.randrange(2 ** 31))
                for i in range(len(state["exts"])) for s in SUITES]

    def run(self, state, r: SuiteRun):
        ext = state["exts"][r.ext]
        if r.suite == "thm1":
            return superext.verify_ring_sequence(ext, seed=r.seed)
        if r.suite == "cor1":
            return superext.verify_automorphism_extension(ext, aut_samples=None, seed=r.seed)
        if r.suite == "thm2":
            return superext.verify_monoid_sequence(ext, psi_samples=None, seed=r.seed)
        return superext.verify_semidirect_automorphisms(ext.g, ext.action, aut_samples=None,
                                                        seed=r.seed)

    def record(self, state, r: SuiteRun, report):
        return [state["names"][r.ext], r.suite, report.to_dict()]

    def check(self, state, r: SuiteRun, report) -> list[str]:
        if report.passed:
            return []
        failed = [c.name for c in report.checks if not c.passed]
        return [f"{state['names'][r.ext]} {r.suite}: FAIL {failed}"]


WORKLOADS = {w.name: w for w in (SweepCold, DecideWarm, VerifySampled)}
