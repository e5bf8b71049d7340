"""SHA-256 pins of the values of the big operators and the spaces built from them.

Each digest covers the dense values of one matrix or basis, so a change of
storage or of elimination order cannot move them: d¹ and the Z² constraint
rows of both complexes, the Z¹, Z² and B² bases, the H² complements,
End_g(a) and the connecting map on End_g(a).  The coordinate map (P, A) and
the connecting map on all even maps of a are not pinned: their entries
depend on where elimination stops, and only P·v on Z and the kernel of A
are fixed.  One more digest covers the obstruction classes of seeded lift
and extend questions on the pin corpus, which any change to how 2-cochains
are stored or composed must leave as they are.
"""

import hashlib
import random

import pytest

from superext.extension import extend_obstruction, extend_obstruction_aut, lift_obstruction
from superext.fixtures import (
    AFFINE_SCALING,
    CENTRAL_DIRECT_SUM,
    HEISENBERG3,
    IDENTITY_SEMIDIRECT,
    ODD_HEISENBERG,
    ODD_SEMIDIRECT,
    build,
    heisenberg,
    osp12_adjoint,
    sl2_vn,
    strictly_upper,
)
from superext.linalg import Mat
from superext.sequences import _action_endo_samples, _module_endo_samples, _rand_combination


def _dense(m):
    """The rows of a matrix, dense: a `Mat`'s own rows, or a sparse
    operator's rows spread over its width."""
    return m.data if isinstance(m, Mat) else m.dense()


def _digest(width, rows):
    text = f"{width}\n" + "\n".join(" ".join(map(str, r)) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _matrix_digest(m):
    return _digest(m.cols, _dense(m))


def _basis_digest(space):
    return _digest(space.ambient_dim, space.basis)


def operator_digests(ext):
    out = {}
    for side, cx in (("g", ext.cochains_g), ("e", ext.cochains_e)):
        out[f"d1_{side}"] = _matrix_digest(cx.d1)
        out[f"z2_rows_{side}"] = _matrix_digest(cx.cocycle2_constraints)
        out[f"z1_{side}"] = _basis_digest(cx.z1)
        out[f"z2_{side}"] = _basis_digest(cx.z2)
        out[f"b2_{side}"] = _basis_digest(cx.b2)
        out[f"h2_{side}"] = _digest(len(cx.pos2), cx.h2.quotient.complement)
    enda = ext.module_end_space
    out["end_g_a"] = _basis_digest(enda)
    out["connecting_on_end_g_a"] = _matrix_digest(
        ext.connecting_map @ enda.vectors.T)
    return out


CASES = {
    **{s.name: s for s in (HEISENBERG3, ODD_HEISENBERG, IDENTITY_SEMIDIRECT, AFFINE_SCALING,
                           ODD_SEMIDIRECT, CENTRAL_DIRECT_SUM, osp12_adjoint(),
                           *map(heisenberg, range(1, 5)), *map(strictly_upper, range(4, 7)))},
    **{f"oh{2 * k + 1}": heisenberg(k, odd=True) for k in range(1, 5)},
    **{f"sl2_v{n}": sl2_vn(n) for n in range(2, 5)},  # keyed as recorded; dim V_n = n + 1
}

# recorded on the dense engine, before the operators were stored sparsely
DIGESTS = {
    'affine_scaling': {
        'd1_g': '53c234e5e8472b6a',
        'z2_rows_g': '9a271f2a916b0b6e',
        'z1_g': '1d3123e22b3a539a',
        'z2_g': '9a271f2a916b0b6e',
        'b2_g': '9a271f2a916b0b6e',
        'h2_g': '9a271f2a916b0b6e',
        'd1_e': 'fbcde581cd30a4df',
        'z2_rows_e': 'b80bc9a1bda777df',
        'z1_e': '9f12023f9eab7acd',
        'z2_e': 'f8dd62b805e29d51',
        'b2_e': '06e9d52c1720fca4',
        'h2_e': 'f8dd62b805e29d51',
        'end_g_a': '66c20cec58ce7646',
        'connecting_on_end_g_a': '7de1555df0c27003',
    },
    'central_direct_sum': {
        'd1_g': 'f31404ea44f9eae9',
        'z2_rows_g': '4355a46b19d348dc',
        'z1_g': '1d3123e22b3a539a',
        'z2_g': 'c553228271d4cf65',
        'b2_g': '4355a46b19d348dc',
        'h2_g': 'c553228271d4cf65',
        'd1_e': '34aa5208557c9c03',
        'z2_rows_e': '1121cfccd5913f0a',
        'z1_e': '37c0964de42fbf3a',
        'z2_e': '37c0964de42fbf3a',
        'b2_e': '1121cfccd5913f0a',
        'h2_e': '37c0964de42fbf3a',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '4ea2ed1420659bf1',
    },
    'h3': {
        'd1_g': 'f31404ea44f9eae9',
        'z2_rows_g': '4355a46b19d348dc',
        'z1_g': '1d3123e22b3a539a',
        'z2_g': 'c553228271d4cf65',
        'b2_g': '4355a46b19d348dc',
        'h2_g': 'c553228271d4cf65',
        'd1_e': 'ff4fc6874dc410d0',
        'z2_rows_e': '1121cfccd5913f0a',
        'z1_e': 'b457d9a0a93f0baf',
        'z2_e': '37c0964de42fbf3a',
        'b2_e': '40961b97260640fe',
        'h2_e': '1a9e3fdb737eaf81',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '6990c30cef142cc7',
    },
    'h5': {
        'd1_g': '5fd47798296f4364',
        'z2_rows_g': '06e9d52c1720fca4',
        'z1_g': '66c20cec58ce7646',
        'z2_g': '9f12023f9eab7acd',
        'b2_g': '06e9d52c1720fca4',
        'h2_g': '9f12023f9eab7acd',
        'd1_e': 'd359658df6bb0a02',
        'z2_rows_e': '998f6888d0fdfb48',
        'z1_e': '7a81dcbc4055e68f',
        'z2_e': '4cead8719898286f',
        'b2_e': 'fb1151f1d28bd544',
        'h2_e': '59d6925e7e3be804',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': 'f6c7d03aa16ca6cf',
    },
    'h7': {
        'd1_g': 'e85b66584e4fca30',
        'z2_rows_g': '238903180cc104ec',
        'z1_g': '9f12023f9eab7acd',
        'z2_g': '6ef68f2fa54633fd',
        'b2_g': '238903180cc104ec',
        'h2_g': '6ef68f2fa54633fd',
        'd1_e': '8c5fac1095362398',
        'z2_rows_e': '15c35f8d189c4375',
        'z1_e': '489dba5aaea0be79',
        'z2_e': '2dbcb1f63c0ad9d2',
        'b2_e': 'be8bfb21e94f616d',
        'h2_e': '9258a1abed0d98b4',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': 'cdbb2ab1363e11dd',
    },
    'h9': {
        'd1_g': '0e6e41d897075824',
        'z2_rows_g': '9961d158a7e0e2f9',
        'z1_g': '56144cebea1039f3',
        'z2_g': 'bf7c3d394276dea7',
        'b2_g': '9961d158a7e0e2f9',
        'h2_g': 'bf7c3d394276dea7',
        'd1_e': '4fdca121e524374e',
        'z2_rows_e': '8f05b4aa6fd07ea1',
        'z1_e': '7efc6cc425cd7aae',
        'z2_e': '37d4353b2093c886',
        'b2_e': 'a2139f27a17903e9',
        'h2_e': '1430b7ac879ea764',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '69e41de0fc67a970',
    },
    'heisenberg3': {
        'd1_g': 'f31404ea44f9eae9',
        'z2_rows_g': '4355a46b19d348dc',
        'z1_g': '1d3123e22b3a539a',
        'z2_g': 'c553228271d4cf65',
        'b2_g': '4355a46b19d348dc',
        'h2_g': 'c553228271d4cf65',
        'd1_e': 'ff4fc6874dc410d0',
        'z2_rows_e': '1121cfccd5913f0a',
        'z1_e': 'b457d9a0a93f0baf',
        'z2_e': '37c0964de42fbf3a',
        'b2_e': '40961b97260640fe',
        'h2_e': '1a9e3fdb737eaf81',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '6990c30cef142cc7',
    },
    'identity_semidirect': {
        'd1_g': '53c234e5e8472b6a',
        'z2_rows_g': '9a271f2a916b0b6e',
        'z1_g': '1d3123e22b3a539a',
        'z2_g': '9a271f2a916b0b6e',
        'b2_g': '9a271f2a916b0b6e',
        'h2_g': '9a271f2a916b0b6e',
        'd1_e': 'fbcde581cd30a4df',
        'z2_rows_e': 'b80bc9a1bda777df',
        'z1_e': '9f12023f9eab7acd',
        'z2_e': 'f8dd62b805e29d51',
        'b2_e': '06e9d52c1720fca4',
        'h2_e': 'f8dd62b805e29d51',
        'end_g_a': '66c20cec58ce7646',
        'connecting_on_end_g_a': '7de1555df0c27003',
    },
    'n4': {
        'd1_g': '4a3b736feaa456c2',
        'z2_rows_g': '72d30cb5b2ac2735',
        'z1_g': '8b2de0746ac7d8d9',
        'z2_g': 'c2a81470173217cc',
        'b2_g': '7cbab8784351da68',
        'h2_g': 'c6c41fcf5e37b0d0',
        'd1_e': '0ae1ebc9e180e2a9',
        'z2_rows_e': '5d2537188a00ffce',
        'z1_e': '8d5bd6ba4d870477',
        'z2_e': '85e2522e02c799d8',
        'b2_e': 'b813cc3df4ab3e3a',
        'h2_e': 'b1cdf77d256be437',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '23415de3065638de',
    },
    'n5': {
        'd1_g': '762ebb5974424f93',
        'z2_rows_g': '62225c4f75610c0b',
        'z1_g': 'db63a6247ddb4b00',
        'z2_g': '5a99c4871c1a8096',
        'b2_g': '14d782551a173a87',
        'h2_g': '22268c0ced78d522',
        'd1_e': '1c0710c03b2b1f18',
        'z2_rows_e': '8aa01fa2995556c5',
        'z1_e': 'c7129b12075384d9',
        'z2_e': 'bf0a915070f9f95c',
        'b2_e': 'f1d38af133e90d0a',
        'h2_e': '17338beb127b8b12',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '558f39c8f3c6dd96',
    },
    'n6': {
        'd1_g': '5b0d866a1a6e2329',
        'z2_rows_g': 'ab2f09b9cbb63ae5',
        'z1_g': '576348c1020a3f86',
        'z2_g': '66e1a4bc964bb0f9',
        'b2_g': 'c56cf7f857810c4a',
        'h2_g': '6c90c108b6055c85',
        'd1_e': 'bf20ade87b21bf83',
        'z2_rows_e': 'c6f742784f04c086',
        'z1_e': 'a21aefeee1f135d5',
        'z2_e': 'de1482c5ca0c42a8',
        'b2_e': 'd304459355fc9f7c',
        'h2_e': '29d1a8b065a59021',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '3f6600f5783286cd',
    },
    'odd_heisenberg': {
        'd1_g': '4ea2ed1420659bf1',
        'z2_rows_g': '4355a46b19d348dc',
        'z1_g': 'c553228271d4cf65',
        'z2_g': 'c553228271d4cf65',
        'b2_g': '4355a46b19d348dc',
        'h2_g': 'c553228271d4cf65',
        'd1_e': 'fa6150cb7418a7fe',
        'z2_rows_e': '53c234e5e8472b6a',
        'z1_e': '5b673e3fcddabdcd',
        'z2_e': '1d3123e22b3a539a',
        'b2_e': '0c9e3d9d5385333c',
        'h2_e': 'b062b138c2752a6c',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '6990c30cef142cc7',
    },
    'odd_semidirect': {
        'd1_g': '9a271f2a916b0b6e',
        'z2_rows_g': '9a271f2a916b0b6e',
        'z1_g': '9a271f2a916b0b6e',
        'z2_g': '9a271f2a916b0b6e',
        'b2_g': '9a271f2a916b0b6e',
        'h2_g': '9a271f2a916b0b6e',
        'd1_e': '4ea2ed1420659bf1',
        'z2_rows_e': '4355a46b19d348dc',
        'z1_e': 'c553228271d4cf65',
        'z2_e': 'c553228271d4cf65',
        'b2_e': '4355a46b19d348dc',
        'h2_e': 'c553228271d4cf65',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '4355a46b19d348dc',
    },
    'oh3': {
        'd1_g': '4ea2ed1420659bf1',
        'z2_rows_g': '4355a46b19d348dc',
        'z1_g': 'c553228271d4cf65',
        'z2_g': 'c553228271d4cf65',
        'b2_g': '4355a46b19d348dc',
        'h2_g': 'c553228271d4cf65',
        'd1_e': 'fa6150cb7418a7fe',
        'z2_rows_e': '53c234e5e8472b6a',
        'z1_e': '5b673e3fcddabdcd',
        'z2_e': '1d3123e22b3a539a',
        'b2_e': '0c9e3d9d5385333c',
        'h2_e': 'b062b138c2752a6c',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '6990c30cef142cc7',
    },
    'oh5': {
        'd1_g': '4f836e2a7f818b55',
        'z2_rows_g': '7de1555df0c27003',
        'z1_g': '1d3123e22b3a539a',
        'z2_g': '66c20cec58ce7646',
        'b2_g': '7de1555df0c27003',
        'h2_g': '66c20cec58ce7646',
        'd1_e': '8195ca594caabd7c',
        'z2_rows_e': 'e7561ef09a138f97',
        'z1_e': 'b457d9a0a93f0baf',
        'z2_e': '494d03c7fab5a822',
        'b2_e': '389b7a664e1cae0c',
        'h2_e': '3fb5912979918929',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': 'd875da391fc4abeb',
    },
    'oh7': {
        'd1_g': 'fba10214f0fa2144',
        'z2_rows_g': '2e6d31a5983a9125',
        'z1_g': '37c0964de42fbf3a',
        'z2_g': 'f8f6d55bb5d702b2',
        'b2_g': '2e6d31a5983a9125',
        'h2_g': 'f8f6d55bb5d702b2',
        'd1_e': '472db6fe00bd17a5',
        'z2_rows_e': '2c654874d1b7f41b',
        'z1_e': '0fb9cfe373adf9a8',
        'z2_e': '1656adf426fd8ec8',
        'b2_e': '4497b125859b745e',
        'h2_e': '04d447338777a3a1',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '5297e66b56edbf82',
    },
    'oh9': {
        'd1_g': '0f2f9c24b2d923fb',
        'z2_rows_g': 'e6c21e8d260fe718',
        'z1_g': '66c20cec58ce7646',
        'z2_g': 'ddaa2b6703d156df',
        'b2_g': 'e6c21e8d260fe718',
        'h2_g': 'ddaa2b6703d156df',
        'd1_e': '1c70b20c3cf8e653',
        'z2_rows_e': 'b53c4fe07f34f653',
        'z1_e': '7a81dcbc4055e68f',
        'z2_e': 'e6a4475e73f80311',
        'b2_e': 'e7e59313c24f8d67',
        'h2_e': '6fe1e360a2d5753c',
        'end_g_a': 'c553228271d4cf65',
        'connecting_on_end_g_a': '0821ab6d13edb3b0',
    },
    'osp12_adjoint': {
        'd1_g': 'eb81c5ef1e25c90f',
        'z2_rows_g': 'cda84f500c918685',
        'z1_g': '7f9f586c89e1152a',
        'z2_g': 'd3a51f7512957341',
        'b2_g': '15e89cb3edbf433e',
        'h2_g': 'f4ccd05b3271c386',
        'd1_e': 'a60bf4d9e99779f0',
        'z2_rows_e': 'af505a44301fc619',
        'z1_e': '1ae4bb313e5edc35',
        'z2_e': 'dc97abd2dd5fe7ea',
        'b2_e': 'be66120b659d5c1f',
        'h2_e': '925b1cac80ac33e1',
        'end_g_a': '1e9ceb8bf7460f0c',
        'connecting_on_end_g_a': '4355a46b19d348dc',
    },
    'sl2_v2': {
        'd1_g': '78ea6d7e2ba72f68',
        'z2_rows_g': '7789b2f7c6d5e6de',
        'z1_g': '92443dc740c33340',
        'z2_g': '40023b483cb6682e',
        'b2_g': 'f09b52ebeaa1cf25',
        'h2_g': '2e6d31a5983a9125',
        'd1_e': '08de0fb0ca2bc06d',
        'z2_rows_e': 'fb962f0a285c1747',
        'z1_e': '07f8b195a9ae681c',
        'z2_e': 'a097708eb7bf4fec',
        'b2_e': '50c3a128a7ae7126',
        'h2_e': '47083c6ebaf7ca43',
        'end_g_a': '8eedad9bcbd6bef1',
        'connecting_on_end_g_a': '4355a46b19d348dc',
    },
    'sl2_v3': {
        'd1_g': '759737d6a6a3852e',
        'z2_rows_g': 'c0ba42df317705b0',
        'z1_g': '4f423c50a6570ee6',
        'z2_g': 'bfa85cbf39d92d00',
        'b2_g': 'b53eaf116345b6b9',
        'h2_g': 'a1fb50e6c86fae16',
        'd1_e': '53fd6b8f406427fe',
        'z2_rows_e': '291ac6a121e4f8ce',
        'z1_e': 'da813d4d5777cee3',
        'z2_e': 'b6c15412b5bf9d91',
        'b2_e': 'e00cd1bf209e270b',
        'h2_e': '4b9258d432ecb451',
        'end_g_a': '23bcb5cbb24d5178',
        'connecting_on_end_g_a': '4355a46b19d348dc',
    },
    'sl2_v4': {
        'd1_g': 'c18877349a65f77b',
        'z2_rows_g': '7b5fc9b75490d21d',
        'z1_g': 'f3025ee387f10df2',
        'z2_g': 'cbf06408eb894b8f',
        'b2_g': '40b3647dc5ffae46',
        'h2_g': '238903180cc104ec',
        'd1_e': 'a52b86d8c0395a5e',
        'z2_rows_e': 'b4e22ad092b36e8d',
        'z1_e': 'b07c18d5bb53fa9c',
        'z2_e': '2250d3d4a4f231b7',
        'b2_e': '47b9e61c8822cd05',
        'h2_e': '251afbc1fe2e0118',
        'end_g_a': '67dbd00dd307dca0',
        'connecting_on_end_g_a': '4355a46b19d348dc',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_operator_values_match_their_digests(name):
    assert operator_digests(build(CASES[name])) == DIGESTS[name]


# recorded when each 2-cochain was a dense grid, before it was stored as its coordinates
OBSTRUCTIONS = "c74ee3089d5ccc3b"


def obstruction_text(pin_corpus):
    """The obstruction coordinates of seeded quotient maps psi fixing the
    action (`lift_obstruction`), module endomorphisms phi
    (`extend_obstruction`) and invertible ones (`extend_obstruction_aut`)."""
    rng = random.Random(2025)
    lines = []
    for name, ext in pin_corpus:
        for psi in _action_endo_samples(ext, rng, 4):
            lines.append(f"{name} lift {lift_obstruction(psi, ext).coords}")
        for _ in range(4):
            phi = _rand_combination(ext.module_end_space, rng, ext.a_basis, ext.a_basis)
            lines.append(f"{name} extend {extend_obstruction(phi, ext).coords}")
        for phi in _module_endo_samples(ext, rng, 3):
            lines.append(f"{name} extend_aut {extend_obstruction_aut(phi, ext).coords}")
    return "\n".join(lines)


def test_obstruction_coordinates_match_their_digest(pin_corpus):
    text = obstruction_text(pin_corpus)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == OBSTRUCTIONS
