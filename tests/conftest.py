import pytest

from superext import fixtures
from superext.algebra import LieSuperalgebra, SuperBasis
from superext.extension import build_extension
from superext.fixtures import CENTRAL_DIRECT_SUM, ODD_SEMIDIRECT, SL2_V2, build, heisenberg


@pytest.fixture(scope="session")
def corpus():
    return fixtures.standard_corpus()


@pytest.fixture(scope="session")
def all_even_corpus():
    return fixtures.all_even_corpus()


@pytest.fixture(scope="session")
def h3_ext(corpus):
    return dict(corpus)["heisenberg3"]


@pytest.fixture(scope="session")
def ba1_ext(corpus):
    return dict(corpus)["odd_heisenberg"]


@pytest.fixture(scope="session")
def sd_ext(corpus):
    return dict(corpus)["identity_semidirect"]


@pytest.fixture(scope="session")
def aff_ext(corpus):
    return dict(corpus)["affine_scaling"]


@pytest.fixture(scope="session")
def pin_corpus(corpus):
    """The fixture corpus with split and odd cases, and ideals listed first;
    the last case has a nonabelian quotient [x, y] = y and a cocycle that is
    a nonzero coboundary, so lifts of y -> 2y need a nonzero section offset."""
    return corpus + [(s.name, build(s)) for s in (CENTRAL_DIRECT_SUM, ODD_SEMIDIRECT,
                                                  heisenberg(2, odd=True), SL2_V2)] + [
        ("h3_centre_first", build_extension(LieSuperalgebra.from_brackets(
            SuperBasis([("z", 0), ("x", 0), ("y", 0)]), {("x", "y"): {"z": 1}}), [0])),
        ("twisted_affine_line", build_extension(LieSuperalgebra.from_brackets(
            SuperBasis([("z", 0), ("x", 0), ("y", 0)]), {("x", "y"): {"y": 1, "z": 1}}), [0])),
    ]
