"""The example extensions of the tests and the documentation, each family one `Spec`.

A spec is the plain data of the file grammar: the basis as (name, parity)
pairs in order, the brackets {(left, right): {name: coeff}} with each pair
listed in one orientation, and the names spanning the abelian ideal.
`build` is the one way from a spec to its `AbelianExtension`, and `rebased`
writes a spec in a random even rational basis that keeps the ideal a
coordinate block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieSuperalgebra, SuperBasis
from .extension import AbelianExtension, build_extension
from .linalg import Mat, inverse


@dataclass(frozen=True)
class Spec:
    name: str
    basis: tuple[tuple[str, int], ...]
    brackets: dict
    ideal: tuple[str, ...]


def build(spec: Spec) -> AbelianExtension:
    """The extension of the ambient algebra `from_brackets` builds over the ideal."""
    e = LieSuperalgebra.from_brackets(SuperBasis(spec.basis), spec.brackets)
    names = [n for n, _ in spec.basis]
    return build_extension(e, [names.index(n) for n in spec.ideal])


# Heisenberg h3 over its centre: [x, y] = z, everything even.
HEISENBERG3 = Spec("heisenberg3", (("x", 0), ("y", 0), ("z", 0)), {("x", "y"): {"z": 1}}, ("z",))
# The super Heisenberg algebra {x | y, z} over its centre: x even, y and z odd.
ODD_HEISENBERG = Spec("odd_heisenberg", (("x", 0), ("y", 1), ("z", 1)),
                      {("x", "y"): {"z": 1}}, ("z",))
# Split extension of <t> by Q^2, t acting as the identity.
IDENTITY_SEMIDIRECT = Spec("identity_semidirect", (("t", 0), ("v1", 0), ("v2", 0)),
                           {("t", "v1"): {"v1": 1}, ("t", "v2"): {"v2": 1}}, ("v1", "v2"))
# The scaling algebra [x, a_i] = a_i over its abelian ideal <a1, a2>.
AFFINE_SCALING = Spec("affine_scaling", (("x", 0), ("a1", 0), ("a2", 0)),
                      {("x", "a1"): {"a1": 1}, ("x", "a2"): {"a2": 1}}, ("a1", "a2"))
# Ab(2) ⊕ Q as a central split extension of Ab(2).
CENTRAL_DIRECT_SUM = Spec("central_direct_sum", (("u1", 0), ("u2", 0), ("c", 0)), {}, ("c",))
# Split extension of <t> by an odd line, [t, w] = w.
ODD_SEMIDIRECT = Spec("odd_semidirect", (("t", 0), ("w", 1)), {("t", "w"): {"w": 1}}, ("w",))
# sl2 ⋉ V2 with the standard representation, over V2.
SL2_V2 = Spec("sl2_v2", (("e", 0), ("f", 0), ("h", 0), ("v1", 0), ("v2", 0)), {
    ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
    ("e", "v2"): {"v1": 1}, ("f", "v1"): {"v2": 1},
    ("h", "v1"): {"v1": 1}, ("h", "v2"): {"v2": -1}}, ("v1", "v2"))


def heisenberg(k: int, odd: bool = False) -> Spec:
    """h_{2k+1} on x1..xk, y1..yk, z with [x_i, y_i] = z, over its centre <z>.

    The odd variant keeps every x_i even and makes the y_i and z odd.
    """
    p, pairs = int(odd), range(1, k + 1)
    basis = [(f"x{i}", 0) for i in pairs] + [(f"y{i}", p) for i in pairs] + [("z", p)]
    return Spec(f"h{2 * k + 1}{'_odd' if odd else ''}", tuple(basis),
                {(f"x{i}", f"y{i}"): {"z": 1} for i in pairs}, ("z",))


def strictly_upper(k: int) -> Spec:
    """n_k, the strictly upper-triangular k x k matrices on E_ij (i < j) with
    [E_ij, E_jl] = E_il, over its centre <E_1k>."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    return Spec(f"n{k}", tuple((f"E{i}_{j}", 0) for i, j in pairs),
                {(f"E{i}_{j}", f"E{j}_{l}"): {f"E{i}_{l}": 1}
                 for i, j in pairs for l in range(j + 1, k + 1)}, (f"E1_{k}",))


def sl2_vn(n: int) -> Spec:
    """sl2 ⋉ V_n over V_n = Sym^n of the standard module, on v0..vn with
    h·v_k = (n-2k) v_k, f·v_k = (k+1) v_{k+1} and e·v_k = (n-k+1) v_{k-1}."""
    vs = [f"v{k}" for k in range(n + 1)]
    brackets = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}
    for k, v in enumerate(vs):
        brackets[("h", v)] = {v: n - 2 * k}
        if k < n:
            brackets[("f", v)] = {vs[k + 1]: k + 1}
        if k > 0:
            brackets[("e", v)] = {vs[k - 1]: n - k + 1}
    return Spec(f"sl2_sym{n}", (("e", 0), ("f", 0), ("h", 0)) + tuple((v, 0) for v in vs),
                brackets, tuple(vs))


def osp12_adjoint() -> Spec:
    """osp(1|2) ⋉ ad over the adjoint copy: even h, e, f and odd P, M with
    [h,e] = 2e, [h,f] = -2f, [e,f] = h, [h,P] = P, [h,M] = -M, [e,M] = -P,
    [f,P] = -M, [P,P] = 2e, [M,M] = -2f and [P,M] = h; the copy's elements
    carry a trailing "'", and [x, y'] = [x, y]' and [y, x'] = [y, x]'."""
    basis = (("h", 0), ("e", 0), ("f", 0), ("P", 1), ("M", 1))
    osp = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
           ("h", "P"): {"P": 1}, ("h", "M"): {"M": -1}, ("e", "M"): {"P": -1},
           ("f", "P"): {"M": -1}, ("P", "P"): {"e": 2}, ("M", "M"): {"f": -2},
           ("P", "M"): {"h": 1}}
    parity, brackets = dict(basis), dict(osp)
    for (x, y), value in osp.items():
        brackets[x, y + "'"] = {k + "'": c for k, c in value.items()}
        if x != y:  # [y, x] = -(-1)^{|x||y|} [x, y]
            sign = (-1) ** (parity[x] * parity[y] + 1)
            brackets[y, x + "'"] = {k + "'": sign * c for k, c in value.items()}
    copy = tuple((n + "'", p) for n, p in basis)
    return Spec("osp12_adjoint", basis + copy, brackets, tuple(n for n, _ in copy))


def rebased(spec: Spec, rng: random.Random) -> Spec:
    """`spec` in the basis b'_i = Σ_j T_ji b_j for a random invertible T whose
    entries join elements of one parity, and join b'_i only to the ideal when
    b_i lies in it: the same extension, with its ideal on the same names."""
    names, parity, ideal = [n for n, _ in spec.basis], dict(spec.basis), set(spec.ideal)
    inv = None
    while inv is None:
        t = Mat([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  if parity[m] == parity[n] and (m in ideal or n not in ideal) else 0
                  for n in names] for m in names])
        inv = inverse(t)
    e, cols = build(spec).e, [t.column(i) for i in range(len(names))]
    brackets = {}
    for i in range(len(names)):
        for j in range(i, len(names)):
            if any(value := inv.apply(e.bracket(cols[i], cols[j]))):
                brackets[names[i], names[j]] = {names[k]: c for k, c in enumerate(value) if c}
    return Spec(spec.name, spec.basis, brackets, spec.ideal)


def standard_corpus() -> list[tuple[str, AbelianExtension]]:
    return [(s.name, build(s)) for s in (HEISENBERG3, ODD_HEISENBERG, IDENTITY_SEMIDIRECT,
                                         AFFINE_SCALING)]


def all_even_corpus() -> list[tuple[str, AbelianExtension]]:
    return [(s.name, build(s)) for s in (HEISENBERG3, IDENTITY_SEMIDIRECT, AFFINE_SCALING,
                                         CENTRAL_DIRECT_SUM)]
