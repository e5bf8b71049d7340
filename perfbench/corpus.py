"""Seeded inputs for the benchmark: algebra specs, fresh coefficients and extension files.

Every input is a pure function of (seed, label), so the same seed always
yields the same inputs.  An algebra spec is the plain data of the file
grammar: basis [(name, parity)], brackets {(left, right): {name: coeff}}
listed in one orientation, and the names spanning the abelian ideal.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Spec:
    name: str
    basis: tuple[tuple[str, int], ...]
    brackets: dict
    ideal: tuple[str, ...]
    pairs: int = 0  # k for a Heisenberg-type h_{2k+1}, 0 otherwise
    odd: bool = False  # Heisenberg-type with y and z odd


def rng_for(seed: int, *label) -> random.Random:
    """Independent stream per (seed, label); stable across Python versions."""
    key = json.dumps([seed, *label]).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def nonzero_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))


def heisenberg(k: int, odd: bool = False) -> Spec:
    """h_{2k+1} on x1..xk, y1..yk, z with [x_i, y_i] = z and ideal <z>.

    The odd variant keeps x even and makes y and z odd.
    """
    p = 1 if odd else 0
    basis = ([(f"x{i}", 0) for i in range(1, k + 1)]
             + [(f"y{i}", p) for i in range(1, k + 1)] + [("z", p)])
    brackets = {(f"x{i}", f"y{i}"): {"z": Fraction(1)} for i in range(1, k + 1)}
    name = f"h{2 * k + 1}{'_odd' if odd else ''}"
    return Spec(name, tuple(basis), brackets, ("z",), k, odd)


def sl2_v2() -> Spec:
    """sl2 ⋉ V2 with the standard representation; ideal V2."""
    one = Fraction(1)
    return Spec(
        "sl2_v2",
        (("e", 0), ("f", 0), ("h", 0), ("v1", 0), ("v2", 0)),
        {("h", "e"): {"e": 2 * one}, ("h", "f"): {"f": -2 * one}, ("e", "f"): {"h": one},
         ("e", "v2"): {"v1": one}, ("f", "v1"): {"v2": one},
         ("h", "v1"): {"v1": one}, ("h", "v2"): {"v2": -one}},
        ("v1", "v2"),
    )


def fixture_specs() -> list[Spec]:
    """The extensions of `superext.fixtures.standard_corpus` and `all_even_corpus`."""
    one = Fraction(1)
    return [
        Spec("heisenberg3", (("x", 0), ("y", 0), ("z", 0)),
             {("x", "y"): {"z": one}}, ("z",), 1),
        Spec("odd_heisenberg", (("x", 0), ("y", 1), ("z", 1)),
             {("x", "y"): {"z": one}}, ("z",), 1, True),
        Spec("identity_semidirect", (("t", 0), ("v1", 0), ("v2", 0)),
             {("t", "v1"): {"v1": one}, ("t", "v2"): {"v2": one}}, ("v1", "v2")),
        Spec("affine_scaling", (("x", 0), ("a1", 0), ("a2", 0)),
             {("x", "a1"): {"a1": one}, ("x", "a2"): {"a2": one}}, ("a1", "a2")),
        Spec("central_direct_sum", (("u1", 0), ("u2", 0), ("c", 0)), {}, ("c",)),
    ]


def rescale(spec: Spec, rng: random.Random) -> Spec:
    """Change basis b -> lam_b * b with fresh nonzero rationals lam.

    The result is isomorphic to the input, so every axiom and every
    cohomology dimension is kept, while each bracket coefficient c becomes
    c * lam_i * lam_j / lam_k.  Basis names get a fresh suffix so that no two
    generated files are equal even for an algebra without brackets.
    """
    lam = {n: nonzero_rat(rng) for n, _ in spec.basis}
    tag = f"_{rng.randrange(16 ** 6):06x}"
    brackets = {
        (l + tag, r + tag): {k + tag: c * lam[l] * lam[r] / lam[k] for k, c in value.items()}
        for (l, r), value in spec.brackets.items()
    }
    return Spec(spec.name, tuple((n + tag, p) for n, p in spec.basis), brackets,
                tuple(n + tag for n in spec.ideal), spec.pairs, spec.odd)


def format_rat(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def extension_document(spec: Spec) -> dict:
    """The extension file with its algebra inline, in the documented grammar."""
    return {
        "name": spec.name,
        "algebra": {
            "name": spec.name,
            "basis": [{"name": n, "parity": p} for n, p in spec.basis],
            "brackets": [
                {"left": l, "right": r,
                 "value": [{"basis": k, "coeff": format_rat(c)} for k, c in value.items()]}
                for (l, r), value in spec.brackets.items()
            ],
        },
        "ideal": list(spec.ideal),
    }


def write_extension(spec: Spec, path: Path) -> None:
    path.write_text(json.dumps(extension_document(spec)), encoding="utf-8")
