"""The example families of `superext.fixtures`: their agreement with the
benchmark's copies, and a change of basis that changes no dimension."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superext.fixtures import (
    AFFINE_SCALING,
    CENTRAL_DIRECT_SUM,
    HEISENBERG3,
    IDENTITY_SEMIDIRECT,
    ODD_HEISENBERG,
    SL2_V2,
    build,
    heisenberg,
    osp12_adjoint,
    rebased,
    sl2_vn,
    strictly_upper,
)
from superext.sequences import verify_five_term


def _perfbench_corpus(monkeypatch):
    """`perfbench/corpus.py`, loaded from its file under a private name that
    stays in `sys.modules` (where its dataclass looks itself up) for one test."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _fields(spec):
    """name, basis, brackets in insertion order with Fraction coefficients, ideal."""
    brackets = [(pair, [(k, Fraction(c)) for k, c in value.items()])
                for pair, value in spec.brackets.items()]
    return spec.name, tuple(spec.basis), brackets, tuple(spec.ideal)


def test_specs_equal_the_benchmark_corpus_field_by_field(monkeypatch):
    # the benchmark writes its files from its own copies of these families, so
    # its digests move with any change of name, basis order or bracket order
    corpus = _perfbench_corpus(monkeypatch)
    pairs = [(heisenberg(k, odd), corpus.heisenberg(k, odd)) for k in (1, 2, 3) for odd in (False, True)]
    pairs.append((SL2_V2, corpus.sl2_v2()))
    pairs += zip((HEISENBERG3, ODD_HEISENBERG, IDENTITY_SEMIDIRECT, AFFINE_SCALING, CENTRAL_DIRECT_SUM),
                 corpus.fixture_specs(), strict=True)
    for ours, theirs in pairs:
        assert _fields(ours) == _fields(theirs), ours.name


@pytest.mark.parametrize("spec", [
    heisenberg(2), heisenberg(2, odd=True), ODD_HEISENBERG, SL2_V2, sl2_vn(3), strictly_upper(4),
    heisenberg(3), osp12_adjoint()], ids=lambda s: s.name)
def test_a_change_of_basis_changes_no_five_term_dimension(spec):
    natural, rng = verify_five_term(build(spec)), random.Random(spec.name)
    moved = rebased(spec, rng)
    assert moved.brackets != spec.brackets  # the structure constants did change
    report = verify_five_term(build(moved))
    assert natural.passed and report.passed, report.to_dict()
    assert report.dims == natural.dims
