"""JSON description files for algebras, modules, extensions and maps.

All rational literals are strings "p/q" or "n" (or plain JSON integers);
floats are rejected so that every value survives a round trip bit for bit.
Unlisted brackets and action entries are zero.  Listing both orientations
of a bracket is an error unless they agree with super-antisymmetry; listing
one bracket, one action entry or one map entry twice is a parse error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .algebra import GradedLinearMap, LieSuperalgebra, ModuleAction, SuperBasis, _upper_pairs
from .errors import MembershipError, ParseError, ShapeError
from .extension import AbelianExtension, build_extension
from .linalg import Mat

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# Longest basis a file may list.  It bounds the work a file can ask for: a
# full bracket table on n elements lists about n³/2 entries, and the Jacobi
# check visits about n³/6 triples at a cost that grows with the square of the
# terms per bracket (a full table at n = 128 does not finish it in minutes).
# The largest algebra in the tests, n_12, has 66 elements.
_MAX_BASIS = 128


def parse_rat(value) -> Fraction:
    """Parse a rational literal: "p/q", "n", or a JSON integer."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip().replace("−", "-")
        if not _RAT_RE.match(text):
            raise ParseError(f"not a rational literal: {value!r}")
        num, _, den = text.partition("/")
        try:
            n, d = int(num), int(den or 1)
        except ValueError:  # beyond the interpreter's integer digit limit
            raise ParseError(f"rational literal of {len(text)} characters is too long") from None
        if d == 0:
            raise ParseError(f"zero denominator in rational literal: {value!r}")
        return Fraction(n, d)
    raise ParseError(f"not a rational literal: {value!r} (floats are not accepted)")


def format_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _expect(data, key: str, kind, where: str):
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"{where}: missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} has the wrong type")
    return value


def _parse_basis(items: list, where: str) -> SuperBasis:
    if len(items) > _MAX_BASIS:
        raise ParseError(f"{where}: basis has {len(items)} elements, more than {_MAX_BASIS}")
    out = []
    for entry in items:
        name = _expect(entry, "name", str, where)
        parity = _expect(entry, "parity", int, where)
        if isinstance(parity, bool) or parity not in (0, 1):
            raise ParseError(f"{where}: parity of {name!r} must be 0 or 1")
        out.append((name, parity))
    try:
        return SuperBasis(out)
    except ShapeError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _parse_value_list(value, basis: SuperBasis, where: str) -> dict[str, Fraction]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: value must be a list of basis/coeff entries")
    out: dict[str, Fraction] = {}
    for item in value:
        name = _expect(item, "basis", str, where)
        if name not in basis.names:
            raise ParseError(f"{where}: unknown basis element {name!r}")
        coeff = parse_rat(_expect(item, "coeff", (str, int), where))
        out[name] = out[name] + coeff if name in out else coeff  # a repeated name sums
    return out


def parse_algebra(data: dict) -> LieSuperalgebra:
    where = "algebra"
    basis = _parse_basis(_expect(data, "basis", list, where), where)
    brackets_raw = data.get("brackets", [])
    if not isinstance(brackets_raw, list):
        raise ParseError(f"{where}: brackets must be a list")
    brackets: dict[tuple[str, str], dict[str, Fraction]] = {}
    for entry in brackets_raw:
        left = _expect(entry, "left", str, where)
        right = _expect(entry, "right", str, where)
        for name in (left, right):
            if name not in basis.names:
                raise ParseError(f"{where}: unknown basis element {name!r}")
        if (left, right) in brackets:
            raise ParseError(f"{where}: bracket [{left},{right}] listed twice")
        brackets[(left, right)] = _parse_value_list(entry.get("value", []), basis, where)
    # both orientations listed against super-antisymmetry is a semantic
    # violation, not a parse error; from_brackets reports the pair
    return LieSuperalgebra.from_brackets(basis, brackets)


def _parse_algebra_field(data: dict, base_dir: Optional[Path], where: str) -> LieSuperalgebra:
    """The algebra of a module or extension file: inline, or a path relative to `base_dir`."""
    value = _expect(data, "algebra", (dict, str), where)
    if isinstance(value, str):
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        value = load_json(path)
    return parse_algebra(value)


def parse_module(data: dict, base_dir: Optional[Path] = None) -> ModuleAction:
    where = "module"
    algebra = _parse_algebra_field(data, base_dir, where)
    space = _parse_basis(_expect(data, "space", list, where), where)
    entries = data.get("action", [])
    if not isinstance(entries, list):
        raise ParseError(f"{where}: action must be a list")
    action: dict[tuple[str, str], dict[str, Fraction]] = {}
    for entry in entries:
        gname = _expect(entry, "g", str, where)
        mname = _expect(entry, "m", str, where)
        if gname not in algebra.basis.names:
            raise ParseError(f"{where}: unknown algebra element {gname!r}")
        if mname not in space.names:
            raise ParseError(f"{where}: unknown space element {mname!r}")
        if (gname, mname) in action:
            raise ParseError(f"{where}: action of {gname} on {mname} listed twice")
        action[(gname, mname)] = _parse_value_list(entry.get("value", []), space, where)
    return ModuleAction(algebra, space, [[[action.get((g, m), {}).get(k, 0) for k in space.names]
                                          for m in space.names] for g in algebra.basis.names])


def parse_extension(data: dict, base_dir: Optional[Path] = None) -> AbelianExtension:
    where = "extension"
    algebra = _parse_algebra_field(data, base_dir, where)
    ideal_names = _expect(data, "ideal", list, where)
    indices = []
    for name in ideal_names:
        if not isinstance(name, str) or name not in algebra.basis.names:
            raise ParseError(f"{where}: unknown ideal element {name!r}")
        indices.append(algebra.basis.index(name))
    return build_extension(algebra, indices)


_SPACE_LABELS = ("a", "g", "e")


def parse_map(data: dict, ext: AbelianExtension) -> GradedLinearMap:
    """Parse a linear map relative to an extension's spaces.

    The `domain` and `codomain` fields name one of the extension's spaces:
    "a" (the ideal), "g" (the quotient) or "e" (the ambient algebra).
    """
    where = "map"
    spaces = {"a": ext.a_basis, "g": ext.g.basis, "e": ext.e.basis}
    dom_label = _expect(data, "domain", str, where)
    cod_label = _expect(data, "codomain", str, where)
    for label in (dom_label, cod_label):
        if label not in _SPACE_LABELS:
            raise ParseError(f"{where}: domain/codomain must be one of {_SPACE_LABELS}")
    domain, codomain = spaces[dom_label], spaces[cod_label]
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise ParseError(f"{where}: entries must be a list")
    rows = [[Fraction(0)] * domain.dim for _ in range(codomain.dim)]
    seen = set()
    for entry in entries:
        src = _expect(entry, "from", str, where)
        dst = _expect(entry, "to", str, where)
        if src not in domain.names:
            raise ParseError(f"{where}: unknown domain element {src!r}")
        if dst not in codomain.names:
            raise ParseError(f"{where}: unknown codomain element {dst!r}")
        if (src, dst) in seen:
            raise ParseError(f"{where}: entry {src} -> {dst} listed twice")
        seen.add((src, dst))
        coeff = parse_rat(_expect(entry, "coeff", (str, int), where))
        rows[codomain.index(dst)][domain.index(src)] = coeff
    try:
        return GradedLinearMap(domain, codomain, Mat(rows, cols=domain.dim))
    except ShapeError as exc:
        raise MembershipError(f"map is not even: {exc}") from None


def load_json(path: Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except ValueError:  # an integer beyond the interpreter's digit limit
        raise ParseError(f"{path}: integer literal is too long") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nesting is too deep") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return data


def load_algebra(path: Path) -> LieSuperalgebra:
    return parse_algebra(load_json(path))


def load_module(path: Path) -> ModuleAction:
    return parse_module(load_json(path), Path(path).parent)


def load_extension(path: Path) -> AbelianExtension:
    return parse_extension(load_json(path), Path(path).parent)


def load_maps(path: Path, ext: AbelianExtension, expect_domain: str) -> list[GradedLinearMap]:
    """Load a sample file {"maps": [...]}; every map must live on `expect_domain`."""
    data = load_json(path)
    maps_raw = _expect(data, "maps", list, "samples")
    out = []
    for entry in maps_raw:
        if not isinstance(entry, dict):
            raise ParseError("samples: each map must be an object")
        if entry.get("domain") != expect_domain or entry.get("codomain") != expect_domain:
            raise ParseError(f"samples: maps must have domain and codomain {expect_domain!r}")
        out.append(parse_map(entry, ext))
    return out


def dump_algebra(algebra: LieSuperalgebra, name: str = "algebra") -> dict:
    basis = [{"name": n, "parity": p} for n, p in algebra.basis.items()]
    brackets = []
    for i, j in _upper_pairs(algebra.basis.parities):
        if terms := algebra._sparse[i][j]:
            brackets.append({
                "left": algebra.basis.names[i],
                "right": algebra.basis.names[j],
                "value": [{"basis": algebra.basis.names[k], "coeff": format_rat(c)} for k, c in terms],
            })
    return {"name": name, "basis": basis, "brackets": brackets}


def dump_extension(ext: AbelianExtension, algebra_ref, name: str = "extension") -> dict:
    """`algebra_ref` is either an inline algebra object or a path string."""
    return {
        "name": name,
        "algebra": algebra_ref,
        "ideal": [ext.e.basis.names[i] for i in ext.ideal_indices],
    }


def dump_matrix(m: Mat) -> list[list[str]]:
    return [[format_rat(c) for c in row] for row in m.data]
