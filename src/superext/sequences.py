"""Machine verification of the exact sequences attached to an extension.

Each verifier returns a structured report whose pass verdict is a
conjunction of exact rank identities or exact witness checks; there are no
tolerances anywhere.  The linear stages are verified universally: with each
image checked to land in the next space, exactness of U -f-> V -g-> W at V
is g∘f = 0 and rank f + rank g = dim V.  The monoid stage is verified
pointwise on constructively generated and user-supplied samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .algebra import (
    GradedLinearMap,
    LieSuperalgebra,
    ModuleAction,
    SuperBasis,
    semidirect_product,
)
from .cohomology import _map_from_nums, class_of, map_from_coords
from .errors import MembershipError
from .extension import (
    AbelianExtension,
    _assemble,
    _block,
    _check,
    _fixes_action_coords,
    _induced_on_quotient,
    _invertible,
    beta_with_section,
    classify_endomorphism,
    derivation_compose,
    extend_endomorphism,
    extend_obstruction,
    extend_obstruction_aut,
    fixes_action,
    from_derivation,
    induced_on_quotient,
    inflate1,
    is_module_endomorphism,
    lift_endomorphism,
    lift_obstruction,
    quasiregular_inverse,
    ring_add,
    ring_mul,
    shifted_restriction,
)
from .linalg import (
    Mat,
    SparseMat,
    SubspacePresentation,
    inverse,
    rank,
    rat,
)


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


@dataclass
class Check:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)
    dims: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, **detail) -> None:
        self.checks.append(Check(name, bool(passed), detail))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "dims": dict(self.dims),
            "notes": list(self.notes),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": _plain(c.detail)}
                for c in self.checks
            ],
        }


def _rand_num6(rng: random.Random) -> int:
    """6·(n/d) for n in [-6, 6] and d in [1, 3], drawn in that order: a random
    coefficient as its numerator over 6."""
    return rng.randint(-6, 6) * (6 // rng.randint(1, 3))


_RAND_FRACS = {k: rat(Fraction(k, 6)) for k in range(-36, 37)}


def _rand_frac(rng: random.Random) -> Fraction:
    return _RAND_FRACS[_rand_num6(rng)]


def _rand_combination(pres: SubspacePresentation, rng: random.Random, domain: SuperBasis,
                      codomain: SuperBasis) -> GradedLinearMap:
    """The map at a random combination of the basis of `pres`, the coefficients
    `_rand_frac`'s, summed on integer rows over 6 times their denominator."""
    coeffs = [_rand_num6(rng) for _ in range(pres.dim)]
    vs = pres.vectors
    den, acc = lcm(*vs.dens), [0] * pres.ambient_dim
    for c, row, e in zip(coeffs, vs.nums, vs.dens):
        for j, x in row:
            acc[j] += c * (den // e) * x
    return _map_from_nums(domain, codomain, acc, 6 * den)


def sample_cocycle(ext: AbelianExtension, seed: int) -> GradedLinearMap:
    """Deterministic pseudo-random derivation e -> a; same seed, same output."""
    return _derivation_sample(ext, random.Random(seed))


def _derivation_sample(ext: AbelianExtension, rng: random.Random) -> GradedLinearMap:
    return _rand_combination(ext.z1_e, rng, ext.e.basis, ext.a_basis)


def _quotient_derivation_sample(ext: AbelianExtension, rng: random.Random) -> GradedLinearMap:
    return _rand_combination(ext.z1_g, rng, ext.g.basis, ext.a_basis)


def _module_endo_samples(ext: AbelianExtension, rng: random.Random,
                         count: int) -> list[GradedLinearMap]:
    """Identity plus random invertible elements of End_g(a)."""
    out = [GradedLinearMap.identity(ext.a_basis)]
    space = ext.module_end_space
    attempts = 0
    while len(out) < count + 1 and attempts < 20 * (count + 1):
        attempts += 1
        phi = _rand_combination(space, rng, ext.a_basis, ext.a_basis)
        if not _invertible(phi, ext):
            continue
        out.append(phi)
    return out


def _action_endo_samples(ext: AbelianExtension, rng: random.Random, count: int,
                         supplied: Optional[Iterable[GradedLinearMap]] = None) -> list[GradedLinearMap]:
    """Candidate elements of End^a(g): identity, user-supplied maps, random
    even maps filtered by the membership predicate (useful when g is
    abelian), and pairwise composites.  A draw becomes a map only once its
    coordinates pass the action condition; `fixes_action` then checks its
    brackets and keeps the answer, which the lift gates read back."""
    out = [GradedLinearMap.identity(ext.g.basis)]
    for psi in supplied or []:
        if not fixes_action(psi, ext):
            raise MembershipError("supplied sample does not preserve the action")
        out.append(psi)
    pos = ext.pos_g
    attempts = 0
    while len(out) < count and attempts < 40 * count:
        attempts += 1
        coords = tuple(_rand_frac(rng) for _ in range(len(pos)))
        if not _fixes_action_coords(coords, ext):
            continue
        psi = map_from_coords(ext.g.basis, ext.g.basis, coords)
        if fixes_action(psi, ext) and psi not in out:
            out.append(psi)
    for i in range(len(out)):
        for j in range(len(out)):
            if len(out) >= 2 * count:
                break
            comp = out[i].compose(out[j])
            if comp not in out:
                out.append(comp)
    return out


# -- the cocycle-level five-term sequence ----------------------------------


def _linear_stage(ext: AbelianExtension) -> tuple[SparseMat, SparseMat, SparseMat]:
    """Z1(g,a) -> Z1(e,a) -> End_g(a) -> H2(g,a), shared by the five-term and
    ring suites: inflation, restriction and the connecting map on the basis
    of each domain, as products with the extension's cached coordinate
    matrices.  Each image is checked to land in the next space, which
    `_exact` needs to read exactness off a composite and two ranks."""
    inf = ext.inflation1 @ ext.z1_g.vectors.T
    _check((ext.cochains_e.d1 @ inf).is_zero(), "inflated map is not a derivation of e")
    res = ext.restriction @ ext.z1_e.vectors.T
    _check((ext.module_end_constraints @ res).is_zero(),
           "restriction is not a module endomorphism")
    return inf, res, ext.connecting_map @ ext.module_end_space.vectors.T


def _exact(composite: SparseMat, image_dim: int, kernel_dim: int) -> bool:
    """im f = ker g at V in U -f-> V -g-> W, for f given on a basis of U and g
    on a basis of V, with im f inside V: g∘f = 0 puts im f inside ker g, and
    then equal dimensions make them equal (image_dim = rank f, kernel_dim =
    dim V - rank g)."""
    return composite.is_zero() and image_dim == kernel_dim


def _restriction_checks(ext: AbelianExtension, inf: SparseMat, res: SparseMat, d: SparseMat,
                        kernel_name: str, image_name: str) -> tuple[Check, Check]:
    """Exactness at Z1(e,a) (the kernel of restriction is the image of
    inflation) and at End_g(a) (the image of restriction is the kernel of the
    connecting map), as the checks `kernel_name` and `image_name`."""
    rank_inf, rank_res = rank(inf), rank(res)
    ker_res, ker_d = ext.z1_e.dim - rank_res, ext.module_end_space.dim - rank(d)
    return (Check(kernel_name, _exact(ext.restriction @ inf, rank_inf, ker_res),
                  {"kernel_dim": ker_res, "image_dim": rank_inf}),
            Check(image_name, _exact(ext.connecting_map @ res, rank_res, ker_d),
                  {"image_dim": rank_res, "kernel_dim": ker_d}))


def verify_five_term(ext: AbelianExtension) -> Report:
    """Exactness of 0 -> Z1(g,a) -> Z1(e,a) -> End_g(a) -> H2(g,a) -> H2(e,a)."""
    rep = Report("five-term")
    z1g, z1e, enda = ext.z1_g, ext.z1_e, ext.module_end_space
    h2g, h2e = ext.h2_g, ext.h2_e
    inf, res, d = _linear_stage(ext)
    at_z1e, at_enda = _restriction_checks(
        ext, inf, res, d, "kernel_of_restriction_is_image_of_inflation",
        "image_of_restriction_is_kernel_of_connecting_map")
    rank_inf = at_z1e.detail["image_dim"]
    img_res, ker_d = at_enda.detail["image_dim"], at_enda.detail["kernel_dim"]
    rep.add("inflation1_injective", rank_inf == z1g.dim, rank=rank_inf, domain_dim=z1g.dim)
    rep.checks += [at_z1e, at_enda]

    img_d = enda.dim - ker_d
    inf2 = h2e.coordinates(ext.inflation2 @ h2g.quotient.vectors.T)
    ker_inf2 = h2g.dim - rank(inf2)
    rep.add("image_of_connecting_map_is_kernel_of_inflation2",
            _exact(inf2 @ d, img_d, ker_inf2), image_dim=img_d, kernel_dim=ker_inf2)

    rep.dims.update(
        z1_g=z1g.dim, z1_e=z1e.dim, end_g_a=enda.dim,
        h2_g=h2g.dim, h2_e=h2e.dim,
        img_res=img_res, ker_d=ker_d, img_d=img_d, ker_inf2=ker_inf2,
    )
    return rep


# -- the endomorphism-ring sequence ----------------------------------------


def verify_ring_sequence(ext: AbelianExtension, seed: int = 0, pairs: int = 120) -> Report:
    """Exactness and ring structure of the quotient-fixing endomorphism sequence."""
    rep = Report("ring-sequence")
    rng = random.Random(seed)
    z1g, z1e, enda = ext.z1_g, ext.z1_e, ext.module_end_space
    at_z1e, at_enda = _restriction_checks(
        ext, *_linear_stage(ext), "kernel_of_shifted_restriction_is_the_doubly_fixing_set",
        "image_of_shifted_restriction_is_kernel_of_connecting_map")
    rep.checks.append(at_z1e)

    both_fix = all(
        classify_endomorphism(
            from_derivation(inflate1(ext.cochains_g.cochain1(v), ext), ext), ext,
        ).fixes_both
        for v in z1g.basis
    )
    rep.add("inflated_derivations_fix_ideal_and_quotient", both_fix, count=z1g.dim)

    rep.checks.append(at_enda)

    add_ok = mul_ok = star_ok = res_add_ok = res_mul_ok = True
    for _ in range(pairs):
        h = _derivation_sample(ext, rng)
        k = _derivation_sample(ext, rng)
        f, g = from_derivation(h, ext), from_derivation(k, ext)
        added = ring_add(f, g, ext)
        multiplied = ring_mul(f, g, ext)
        add_ok &= from_derivation(h + k, ext) == added
        hk = derivation_compose(h, k, ext)
        mul_ok &= from_derivation(hk, ext) == multiplied
        star_ok &= ring_add(added, multiplied, ext) == f.compose(g)  # the circle product f*g
        rf, rg = shifted_restriction(f, ext), shifted_restriction(g, ext)
        res_add_ok &= shifted_restriction(added, ext) == rf + rg
        res_mul_ok &= shifted_restriction(multiplied, ext) == rf.compose(rg)
    rep.add("derivation_sum_transports_to_ring_add", add_ok, pairs=pairs)
    rep.add("derivation_composition_transports_to_ring_mul", mul_ok, pairs=pairs)
    rep.add("circle_operation_is_composition", star_ok, pairs=pairs)
    rep.add("shifted_restriction_is_additive", res_add_ok, pairs=pairs)
    rep.add("shifted_restriction_is_multiplicative", res_mul_ok, pairs=pairs)

    mu = ext.cochains_g.cochain1(
        tuple(_rand_frac(rng) for _ in range(len(ext.cochains_g.pos1))))
    beta2 = beta_with_section(ext, mu)
    section_ok = True
    for v in enda.basis:
        h = map_from_coords(ext.a_basis, ext.a_basis, v)
        alt = class_of(beta2.postcompose(h).scale(-1), ext.h2_g)
        section_ok &= alt.coords == extend_obstruction(h, ext).coords
    rep.add("obstruction_class_independent_of_section", section_ok,
            shifted_by="random even map g -> a")

    rep.dims.update(z1_g=z1g.dim, z1_e=z1e.dim, end_g_a=enda.dim, h2_g=ext.h2_g.dim)
    return rep


def verify_automorphism_extension(ext: AbelianExtension,
                      aut_samples: Optional[Iterable[GradedLinearMap]] = None,
                      seed: int = 0, count: int = 10) -> Report:
    """Automorphism-level consequences: extension decided by the obstruction
    class, and the quasiregular elements are exactly the invertibles."""
    rep = Report("automorphism-extension")
    rng = random.Random(seed)
    ident_a = GradedLinearMap.identity(ext.a_basis)

    candidates = list(_module_endo_samples(ext, rng, count))
    for phi in aut_samples or []:
        if not is_module_endomorphism(phi, ext):
            raise MembershipError("supplied sample is not a module endomorphism")
        if not _invertible(phi, ext):
            raise MembershipError("supplied sample is not invertible")
        candidates.append(phi)
    if ext.dim_a > 0:
        two = ident_a.scale(2)
        if is_module_endomorphism(two, ext):
            candidates.append(two)

    # every candidate is an invertible module endomorphism: a sample of End_g(a)
    # that `_module_endo_samples` inverted, a supplied one checked above, or 2·id
    decided_ok = witnesses_ok = True
    outcomes = []
    for phi in candidates:
        obstruction = extend_obstruction_aut(phi, ext)
        witness = extend_endomorphism(phi - ident_a, ext)
        decided_ok &= (witness is not None) == obstruction.is_zero
        if witness is not None:
            flags = classify_endomorphism(witness, ext)
            invertible = inverse(witness.matrix) is not None
            restricts = _restrict_to_ideal(witness, ext) == phi
            witnesses_ok &= flags.fixes_quotient and invertible and restricts
        outcomes.append({"extends": witness is not None,
                         "obstruction_zero": obstruction.is_zero})
    rep.add("automorphism_extension_decided_by_obstruction", decided_ok,
            samples=len(candidates), outcomes=outcomes)
    rep.add("extension_witnesses_are_automorphisms", witnesses_ok)

    qr_ok = True
    seen_noninvertible = 0
    for _ in range(count):
        f = from_derivation(_derivation_sample(ext, rng), ext)
        # one inversion, whose inverse is checked inside; f = id + ι∘h is singular iff f|a is
        inv = quasiregular_inverse(f, ext)
        qr_ok &= inv is not None or inverse(_block(f, ext.ideal_indices, ext.ideal_indices)) is None
        if inv is None:
            seen_noninvertible += 1
    rep.add("quasiregular_elements_are_the_invertibles", qr_ok,
            samples=count, noninvertible_seen=seen_noninvertible)

    rep.dims.update(end_g_a=ext.module_end_space.dim, h2_g=ext.h2_g.dim)
    return rep


# -- the monoid sequence ----------------------------------------------------


def verify_monoid_sequence(ext: AbelianExtension,
                    psi_samples: Optional[Iterable[GradedLinearMap]] = None,
                    seed: int = 0, count: int = 8) -> Report:
    """Exactness of the ideal-fixing monoid sequence on generated samples."""
    rep = Report("monoid-sequence")
    rng = random.Random(seed)
    ident_g = GradedLinearMap.identity(ext.g.basis)

    kernel_ok = True
    for _ in range(max(3, count // 2)):
        f = _quotient_derivation_sample(ext, rng)
        gamma = from_derivation(inflate1(f, ext), ext)
        kernel_ok &= induced_on_quotient(gamma, ext) == ident_g
        kernel_ok &= classify_endomorphism(gamma, ext).fixes_both
    rep.add("sigma_kernel_is_the_doubly_fixing_set", kernel_ok)

    # `fixes_action` keeps its answer on each sample: `_action_endo_samples`
    # found it for the drawn and supplied ones, the first gate below finds it
    # for the identity and the composites, and every other gate reads it back
    psis = _action_endo_samples(ext, rng, count, psi_samples)
    decided_ok = witness_ok = True
    obstructions = [lift_obstruction(psi, ext) for psi in psis]
    lifted: list[GradedLinearMap] = []
    sigmas: list[GradedLinearMap] = []  # the induced quotient map of each lift, then of the pool
    outcomes = []
    for psi, obstruction in zip(psis, obstructions):
        invertible = inverse(psi.matrix) is not None
        gamma = lift_endomorphism(psi, ext)
        decided_ok &= (gamma is not None) == obstruction.is_zero
        if gamma is not None:
            sigma = induced_on_quotient(gamma, ext)
            witness_ok &= sigma == psi
            lifted.append(gamma)
            sigmas.append(sigma)
        elif invertible:
            note = ("invertible action-preserving endomorphism with a nonzero "
                    "obstruction: the induced map onto the quotient automorphisms "
                    "is not surjective for this extension")
            if note not in rep.notes:
                rep.notes.append(note)
        outcomes.append({"lifts": gamma is not None,
                         "obstruction_zero": obstruction.is_zero,
                         "invertible": invertible})
    rep.add("lift_decided_by_obstruction", decided_ok,
            samples=len(psis), outcomes=outcomes)
    rep.add("lift_witnesses_verified", witness_ok, lifted=len(lifted))

    pool = list(lifted)
    for _ in range(3):
        gamma = from_derivation(inflate1(_quotient_derivation_sample(ext, rng), ext), ext)
        pool.append(gamma)
        sigmas.append(induced_on_quotient(gamma, ext))
    mult_ok = True
    for g1, s1 in zip(pool, sigmas):
        for g2, s2 in zip(pool, sigmas):
            mult_ok &= _induced_on_quotient(g1.compose(g2), ext) == s1.compose(s2)
    rep.add("sigma_is_multiplicative", mult_ok, pool=len(pool))

    mu = ext.cochains_g.cochain1(
        tuple(_rand_frac(rng) for _ in range(len(ext.cochains_g.pos1))))
    beta2 = beta_with_section(ext, mu)
    section_ok = all(
        class_of(beta2.precompose(psi) - beta2, ext.h2_g).coords == obstruction.coords
        for psi, obstruction in zip(psis, obstructions)
    )
    rep.add("lift_obstruction_independent_of_section", section_ok)

    rep.dims.update(h2_g=ext.h2_g.dim, end_a_g_samples=len(psis))
    return rep


# -- automorphisms of semidirect products -----------------------------------


def _ideal_block_map(phi: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """(g, a) -> (g, phi(a)) on the ambient algebra of a split extension."""
    return _assemble(ext, phi.matrix, Mat.zeros(ext.dim_a, ext.dim_g), Mat.identity(ext.dim_g))


def _quotient_block_map(psi: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """(g, a) -> (psi(g), a) on the ambient algebra of a split extension."""
    return _assemble(ext, Mat.identity(ext.dim_a), Mat.zeros(ext.dim_a, ext.dim_g), psi.matrix)


def _restrict_to_ideal(gamma: GradedLinearMap, ext: AbelianExtension) -> GradedLinearMap:
    """The block a -> a of an ideal-preserving endomorphism of e."""
    return GradedLinearMap._trusted(ext.a_basis, ext.a_basis,
                                    _block(gamma, ext.ideal_indices, ext.ideal_indices))


def _factors_uniquely(ext: AbelianExtension, rng: random.Random, x: GradedLinearMap,
                      block, recover, fixed: str) -> bool:
    """gamma = block(x) ∘ u, for u from a random quotient derivation, is
    invertible and `fixed`, and factors back uniquely: recover(gamma, ext)
    == x, and u2 = block(recovered)^-1 ∘ gamma is u, fixes both and
    recomposes to gamma."""
    u = from_derivation(inflate1(_quotient_derivation_sample(ext, rng), ext), ext)
    gamma = block(x, ext).compose(u)
    ok = getattr(classify_endomorphism(gamma, ext), fixed) and inverse(gamma.matrix) is not None
    recovered = recover(gamma, ext)
    ok &= recovered == x
    inv = inverse(block(recovered, ext).matrix)
    u2 = GradedLinearMap._trusted(ext.e.basis, ext.e.basis, inv).compose(gamma)
    ok &= u2 == u
    ok &= classify_endomorphism(u2, ext).fixes_both
    ok &= block(recovered, ext).compose(u2) == gamma
    return ok


def verify_semidirect_automorphisms(g: LieSuperalgebra, module: ModuleAction,
                    aut_samples: Optional[Iterable[GradedLinearMap]] = None,
                    seed: int = 0, count: int = 6) -> Report:
    """Semidirect decompositions of the quotient- and ideal-fixing
    automorphism groups of g ⋉ a, checked by explicit sections and unique
    factorizations."""
    rep = Report("semidirect-automorphisms")
    rng = random.Random(seed)
    product, ext = semidirect_product(g, module)
    rep.add("split_cocycle_vanishes", ext.beta.is_zero())

    phis = _module_endo_samples(ext, rng, count)
    for phi in aut_samples or []:
        if not is_module_endomorphism(phi, ext) or inverse(phi.matrix) is None:
            raise MembershipError("supplied sample is not a module automorphism")
        phis.append(phi)
    eps_ok = True
    for phi in phis:
        eps = _ideal_block_map(phi, ext)
        eps_ok &= classify_endomorphism(eps, ext).fixes_quotient
        eps_ok &= _restrict_to_ideal(eps, ext) == phi
    rep.add("ideal_block_section_is_homomorphic", eps_ok, samples=len(phis))

    psis = _action_endo_samples(ext, rng, count)
    psis = [p for p in psis if inverse(p.matrix) is not None]
    alpha_ok = True
    for psi in psis:
        alpha_ok &= induced_on_quotient(_quotient_block_map(psi, ext), ext) == psi
    rep.add("quotient_block_section_is_homomorphic", alpha_ok, samples=len(psis))

    # lists, not generators: every sample draws its derivation, also after a failure
    fact_ok = all([_factors_uniquely(ext, rng, phi, _ideal_block_map, _restrict_to_ideal,
                                     "fixes_quotient") for phi in phis])
    rep.add("quotient_fixing_automorphisms_factor_uniquely", fact_ok, samples=len(phis))
    fact2_ok = all([_factors_uniquely(ext, rng, psi, _quotient_block_map, induced_on_quotient,
                                      "fixes_ideal") for psi in psis])
    rep.add("ideal_fixing_automorphisms_factor_uniquely", fact2_ok, samples=len(psis))

    rep.dims.update(
        product_dim=product.dim,
        module_aut_samples=len(phis),
        quotient_aut_samples=len(psis),
    )
    return rep
