"""Command-line front end.

Machine-readable JSON reports go to stdout, a short human summary to
stderr.  Exit codes: 0 ok/pass, 1 parse or I/O error, 2 semantic
violation or argparse's usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import files
from .algebra import semidirect_product, validate_module, validate_superalgebra
from .cohomology import class_of
from .errors import ParseError, SuperextError
from .extension import (
    extend_endomorphism,
    extend_obstruction,
    fixes_action,
    is_module_endomorphism,
    lift_endomorphism,
    lift_obstruction,
)
from .sequences import (
    verify_automorphism_extension,
    verify_five_term,
    verify_ring_sequence,
    verify_monoid_sequence,
    verify_semidirect_automorphisms,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2
EXIT_VERIFY = 3


def _emit(payload: dict, summary: str) -> None:
    print(json.dumps(payload, indent=2))
    print(summary, file=sys.stderr)


def _violation_dict(v) -> dict:
    return {"rule": v.rule, "where": list(v.where), "detail": v.detail}


def _cmd_validate(args) -> int:
    data = files.load_json(Path(args.path))
    if "space" in data:
        target = files.parse_module(data, Path(args.path).parent)
        violation = validate_module(target)
        kind = "module"
    else:
        target = files.parse_algebra(data)
        violation = validate_superalgebra(target)
        kind = "algebra"
    payload = {
        "command": "validate",
        "kind": kind,
        "ok": violation is None,
        "violation": None if violation is None else _violation_dict(violation),
    }
    _emit(payload, f"validate {kind}: ok" if violation is None
          else f"error: validate {kind}: {violation}")
    return EXIT_OK if violation is None else EXIT_SEMANTIC


def _cmd_cohomology(args) -> int:
    ext = files.load_extension(Path(args.ext))
    if args.degree == 2:
        pres = ext.h2_g
        beta_class = class_of(ext.beta, pres)
        payload = {
            "command": "cohomology",
            "degree": 2,
            "z2_dim": pres.cocycle_dim,
            "b2_dim": pres.coboundary_dim,
            "h2_dim": pres.dim,
            "extension_class": [files.format_rat(c) for c in beta_class.coords],
            "extension_class_is_zero": beta_class.is_zero,
        }
        summary = (f"H2 even: dim {pres.dim} (cocycles {pres.cocycle_dim}, "
                   f"coboundaries {pres.coboundary_dim}); extension class zero: "
                   f"{beta_class.is_zero}")
    else:
        pres = ext.h1_g
        payload = {
            "command": "cohomology",
            "degree": 1,
            "z1_dim": pres.cocycle_dim,
            "inner_dim": pres.coboundary_dim,
            "h1_dim": pres.dim,
        }
        summary = (f"H1 even: dim {pres.dim} (derivations {pres.cocycle_dim}, "
                   f"inner {pres.coboundary_dim})")
    _emit(payload, summary)
    return EXIT_OK


# per query kind: the payload key of the verdict, the predicate, the solver,
# the obstruction, and the payload and summary wording of a predicate failure
_QUERIES = {
    "extend": ("extended", is_module_endomorphism, extend_endomorphism, extend_obstruction,
               "map is not a module endomorphism of the ideal", "not a module endomorphism"),
    "lift": ("lifted", fixes_action, lift_endomorphism, lift_obstruction,
             "map does not preserve the action on the ideal", "does not preserve the action"),
}


def _cmd_query(args) -> int:
    """`extend` and `lift`: a witness from the solver and the obstruction class."""
    kind = args.command
    done_key, predicate, solve, obstruct, not_member, failure = _QUERIES[kind]
    ext = files.load_extension(Path(args.ext))
    m = files.parse_map(files.load_json(Path(args.map)), ext)
    if not predicate(m, ext):
        _emit({"command": kind, "error": not_member},
              f"error: {kind}: predicate failure ({failure})")
        return EXIT_SEMANTIC
    witness = solve(m, ext)
    obstruction = obstruct(m, ext)
    payload = {
        "command": kind,
        done_key: witness is not None,
        "witness": None if witness is None else files.dump_matrix(witness.matrix),
        "obstruction": [files.format_rat(c) for c in obstruction.coords],
    }
    _emit(payload, f"{kind}: witness found" if witness is not None
          else f"{kind}: obstructed, class {payload['obstruction']}")
    return EXIT_OK


_SUITES = ("five-term", "thm1", "cor1", "thm2", "thm3")
_SAMPLE_DOMAINS = {"cor1": "a", "thm2": "g", "thm3": "a"}  # the suites that take --samples


def _cmd_verify(args) -> int:
    if args.samples and args.suite not in _SAMPLE_DOMAINS:
        raise ParseError(f"suite {args.suite} takes no --samples")
    ext = files.load_extension(Path(args.ext))
    samples = None
    if args.samples:
        samples = files.load_maps(Path(args.samples), ext, _SAMPLE_DOMAINS[args.suite])
    if args.suite == "five-term":
        report = verify_five_term(ext)
    elif args.suite == "thm1":
        report = verify_ring_sequence(ext, seed=args.seed)
    elif args.suite == "cor1":
        report = verify_automorphism_extension(ext, aut_samples=samples, seed=args.seed)
    elif args.suite == "thm2":
        report = verify_monoid_sequence(ext, psi_samples=samples, seed=args.seed)
    else:
        report = verify_semidirect_automorphisms(ext.g, ext.action, aut_samples=samples, seed=args.seed)
    payload = report.to_dict()
    lines = [f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}"]
    for check in report.checks:
        lines.append(f"  [{'PASS' if check.passed else 'FAIL'}] {check.name}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    _emit(payload, "\n".join(lines))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_semidirect(args) -> int:
    if os.path.basename(args.output) in ("", ".", ".."):
        raise ParseError(f"semidirect: output prefix {args.output!r} names no file")
    g = files.load_algebra(Path(args.algebra))
    module = files.load_module(Path(args.module))
    if module.algebra != g:
        _emit({"command": "semidirect", "error": "module is not over the given algebra"},
              "error: semidirect: module algebra does not match")
        return EXIT_SEMANTIC
    product, ext = semidirect_product(g, module)
    out = Path(args.output)
    algebra_path = out.with_name(out.name + ".algebra.json")
    extension_path = out.with_name(out.name + ".extension.json")
    algebra_doc = files.dump_algebra(product, name=out.name)
    extension_doc = files.dump_extension(ext, algebra_path.name, name=out.name)
    try:
        algebra_path.write_text(json.dumps(algebra_doc, indent=2) + "\n", encoding="utf-8")
        extension_path.write_text(json.dumps(extension_doc, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: semidirect: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    payload = {
        "command": "semidirect",
        "dim": product.dim,
        "written": [str(algebra_path), str(extension_path)],
    }
    _emit(payload, f"semidirect: wrote {algebra_path} and {extension_path}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser every `main` call shares; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="superext",
        description="Exact cohomology of abelian Lie superalgebra extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an algebra or module file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cohomology", help="even cohomology of an extension's quotient")
    p.add_argument("ext")
    p.add_argument("--degree", type=int, choices=(1, 2), default=2)
    p.set_defaults(func=_cmd_cohomology)

    for kind, text in (("extend", "extend a module endomorphism of the ideal"),
                       ("lift", "lift an action-preserving endomorphism of the quotient")):
        p = sub.add_parser(kind, help=text)
        p.add_argument("ext")
        p.add_argument("map")
        p.set_defaults(func=_cmd_query)

    p = sub.add_parser("verify", help="run an exactness suite on an extension")
    p.add_argument("ext")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--samples", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("semidirect", help="build a semidirect product and emit its files")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_semidirect)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull so that the
        # interpreter's final flush of the unwritten report stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write the report: stdout was closed", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SuperextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
