"""Sigma sets, Beauville and strongly-real verification, and exhaustive
search / non-existence certification."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

from .errors import CapExceeded
from .families import PaperGroup
from .groups import (
    Homomorphism,
    PcGroup,
    agemo,
    induced_automorphism,
    lower_central_series,
    quotient_group,
)

PROVE_NONE_CAP = 2000


@dataclass(frozen=True)
class GenPair:
    """A pair (x, y) with its triple (x, y, xy) and signature of orders."""

    x: int
    y: int
    xy: int
    signature: tuple[int, int, int]
    generating: bool
    on_recipe: bool = True

    @staticmethod
    def make(G: PcGroup, x: int, y: int, on_recipe: bool = True) -> "GenPair":
        xy = G.mul(x, y)
        sig = (G.element_order(x), G.element_order(y), G.element_order(xy))
        return GenPair(x, y, xy, sig, is_generating_pair(G, x, y), on_recipe)

    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.xy)


@dataclass(frozen=True)
class BeauvilleCertificate:
    pair1: GenPair
    pair2: GenPair
    beauville: bool
    intersection_witness: Optional[int] = None
    strongly_real: Optional[bool] = None
    automorphism: Optional[Homomorphism] = None
    conjugators: Optional[tuple[int, int]] = None
    diagnostics: tuple[str, ...] = ()


def sigma(G: PcGroup, x: int, y: int) -> int:
    """The union of all conjugates of <x>, <y> and <xy>, the forbidden set of
    the pair, as a mask over conjugacy-class ids: it is a union of classes.
    Classes partition G, so two sigma sets meet only in the identity exactly
    when their masks meet only in bit 0, the identity's class."""
    return G.power_classes(x) | G.power_classes(y) | G.power_classes(G.mul(x, y))


def is_generating_pair(G: PcGroup, x: int, y: int) -> bool:
    """Whether <x, y> = G: G is nilpotent, so exactly when the images A, B
    of <x>, <y> in Q = G/Phi(G) have AB = Q (PcGroup.frattini_lines)."""
    lines, ranks = G.frattini_lines()
    return _lines_generate(lines[x], lines[y], ranks)


def _lines_generate(a: tuple[int, ...], b: tuple[int, ...], ranks: tuple[int, ...]) -> bool:
    """AB = Q for line ids a, b: their lines span each F_p^(d_p) of Q."""
    return all((u > 0) + (v > 0 and v != u) == d for u, v, d in zip(a, b, ranks))


def check_beauville(G: PcGroup, pair1: GenPair, pair2: GenPair) -> BeauvilleCertificate:
    """Decide Sigma(pair1) ^ Sigma(pair2) = 1 for two generating pairs by
    intersecting their class-id masks.  The witness is the rep of the least
    shared class other than the identity's: ids ascend with the reps, and
    each rep is its class's least index, so it is the least common element."""
    diagnostics = []
    if G.order == 1:
        diagnostics.append("trivial group")
        return BeauvilleCertificate(pair1, pair2, False, None, diagnostics=tuple(diagnostics))
    if not pair1.generating or not pair2.generating:
        diagnostics.append("not generating")
        return BeauvilleCertificate(pair1, pair2, False, None, diagnostics=tuple(diagnostics))
    inter = sigma(G, pair1.x, pair1.y) & sigma(G, pair2.x, pair2.y) & ~1
    if not inter:
        return BeauvilleCertificate(pair1, pair2, True)
    _, _, reps = G.conjugacy_data()
    return BeauvilleCertificate(pair1, pair2, False, reps[(inter & -inter).bit_length() - 1])


def check_strongly_real(
    G: PcGroup,
    pair1: GenPair,
    pair2: GenPair,
    theta: Homomorphism,
    search_conjugators: bool = False,
) -> BeauvilleCertificate:
    """Verify a strongly real Beauville structure: Beauville by sigma sets,
    then the inversion step with conjugators tried as g_1 = g_2 = 1, or
    searched by element index with search_conjugators."""
    return _invert(G, check_beauville(G, pair1, pair2), theta, G.order if search_conjugators else 1)


def _invert(G: PcGroup, cert: BeauvilleCertificate, theta: Homomorphism, limit: int) -> BeauvilleCertificate:
    """cert with strongly_real decided: Beauville, and for each pair some
    g < limit with g theta(x) g^-1 = x^-1 and likewise for y.  Stops at the
    first pair that has no such conjugator."""
    if not cert.beauville:
        return replace(cert, strongly_real=False)
    conjugators = []
    for pair in (cert.pair1, cert.pair2):
        found = _find_conjugator(G, theta, pair.x, pair.y, limit)
        if found is None:
            return replace(cert, strongly_real=False, diagnostics=cert.diagnostics + ("no conjugator inverts the pair",))
        conjugators.append(found)
    return replace(cert, strongly_real=True, automorphism=theta, conjugators=tuple(conjugators))


def recipe_congruence(p: int) -> tuple[int, tuple[int, int]]:
    """(modulus, (residue for n1, residue for n2)) of the word recipe
    w_i = (xy)^{n_i} x: mod p with residues (1, 3) for p > 3, mod 4 with
    (1, 2) for p = 2, mod 9 with (1, 2) for p = 3."""
    if p == 2:
        return 4, (1, 2)
    if p == 3:
        return 9, (1, 2)
    return p, (1, 3)


def recipe_exponents(p: int, n1: Optional[int], n2: Optional[int]) -> tuple[int, int]:
    """(n1, n2) with each value not given taken from the recipe residues."""
    _, (r1, r2) = recipe_congruence(p)
    return (r1 if n1 is None else n1, r2 if n2 is None else n2)


def paper_structure(pg: PaperGroup, n1: int, n2: int) -> tuple[GenPair, GenPair]:
    """The candidate structure {x, y} and {(xy)^n1 x, (xy)^n2 x}.

    n1, n2 are checked against the family's congruence recipe; off-recipe
    values still return pairs, flagged on_recipe=False.
    """
    if pg.family == "abelian":
        raise ValueError("no generating-pair recipe for abelian groups")
    if pg.group.prime is None or pg.p != pg.group.prime:
        raise ValueError(f"no generating-pair recipe: {pg.group.name} is not a {pg.p or 'p'}-group")
    mod, (r1, r2) = recipe_congruence(pg.p)
    on_recipe = n1 % mod == r1 and n2 % mod == r2
    G = pg.group
    xy = pg.xy()
    w1 = G.mul(G.pow(xy, n1), pg.x)
    w2 = G.mul(G.pow(xy, n2), pg.x)
    return (
        GenPair.make(G, pg.x, pg.y, on_recipe),
        GenPair.make(G, w1, w2, on_recipe),
    )


def regular_beauville_criterion(G: PcGroup) -> bool:
    """Criterion for a 2-generator regular p-group to be Beauville:
    p >= 5 and the agemo at exp/p has order at least p^2.

    Regularity itself is not tested; a warning is issued when the class is
    not below p (where regularity is not automatic)."""
    p = G.prime
    if p is None:
        raise ValueError("criterion applies to p-groups")
    if G.order == 1:
        return False
    if G.nilpotency_class() >= p:
        warnings.warn(f"{G.name}: class >= p, group may not be regular", stacklevel=2)
    if p < 5:
        return False
    e = 0
    n = G.exponent()
    while n > 1:
        n //= p
        e += 1
    return len(agemo(G, e - 1)) >= p * p


# -- exhaustive search --------------------------------------------------------


@dataclass
class SearchResult:
    found: Optional[BeauvilleCertificate]
    generating_pairs: int
    distinct_sigma_sets: int

    @property
    def sigma_pairs_checked(self) -> int:
        """The pairs of sigma classes the scan covers, D(D-1)/2."""
        D = self.distinct_sigma_sets
        return D * (D - 1) // 2


def search_cap(mode: str, cap: Optional[int]) -> int:
    """The largest order exhaustive_search accepts: cap when given, else
    PROVE_NONE_CAP for prove-none and 10^4 for the other modes."""
    return cap if cap is not None else (PROVE_NONE_CAP if mode == "prove-none" else 10**4)


def _generating_pairs(G: PcGroup):
    """(x, y, key, weight) in lexicographic order for every generating pair
    whose x is a conjugacy-class representative (the class's least index);
    weight is the size of x's class, and conjugates of x have as many
    generating partners, so the weights sum to the number of generating
    pairs.  The sigma-equivalence key is the set of the power-class masks of
    x, y and xy: pairs with equal keys have equal sigma sets."""
    lines, ranks = G.frattini_lines()
    if max(ranks, default=0) > 2:  # Q needs more than two generators
        return
    sizes, class_id, reps = G.conjugacy_data()
    per_class = [G.power_classes(r) for r in reps]  # conjugates share their power classes
    keys = [per_class[c] for c in class_id]
    partners = {}
    for x, weight in zip(reps, sizes):
        if (a := lines[x]) not in partners:  # generation decided once per pair of line ids
            gen = {b for b in set(lines) if _lines_generate(a, b, ranks)}
            partners[a] = [y for y, b in enumerate(lines) if b in gen]
        for y in partners[a]:
            yield x, y, frozenset((keys[x], keys[y], keys[G.mul(x, y)])), weight


def exhaustive_search(
    G: PcGroup,
    mode: str = "find",
    theta: Optional[Homomorphism] = None,
    cap: Optional[int] = None,
) -> SearchResult:
    """Search all generating pairs up to sigma-equivalence.

    find: return the first (canonically least) Beauville structure, or none.
    prove-none: check every pair of sigma classes and certify non-existence.
    find-strongly-real: the same scan over the classes that have a pair
    inverted under theta by some conjugator, each represented by its least
    such pair and that pair's least conjugator.

    One pass over the generating pairs in lexicographic order, x over class
    representatives only, keys the sigma classes; generating_pairs is their
    class-size-weighted count.  Conjugating (x, y) by h keeps its key and
    whether it generates, and if g inverts it under theta then
    h^-1 g theta(h) inverts (x^h, y^h): so each key's least pair and least
    inverted pair start at a representative.  Soundness rests solely on the
    deduplication: pairs with equal keys have equal sigma sets.
    """
    if mode not in ("find", "prove-none", "find-strongly-real"):
        raise ValueError(f"unknown mode {mode!r}")
    limit = search_cap(mode, cap)
    if G.order > limit:
        raise CapExceeded(f"order {G.order} exceeds search cap {limit}")
    strong = mode == "find-strongly-real"
    if strong and theta is None:
        raise ValueError("find-strongly-real requires theta")
    classes: dict[frozenset, tuple[int, int]] = {}
    inverted: dict[frozenset, tuple[int, int, int]] = {}
    total = 0
    if strong:  # g theta(a) g^-1 = a^-1 needs theta(a) conjugate to a^-1
        _, class_id, _ = G.conjugacy_data()
        flips = [class_id[t] == class_id[G.inv(a)] for a, t in enumerate(theta.full_map)]
    for x, y, key, weight in _generating_pairs(G):
        total += weight
        classes.setdefault(key, (x, y))
        if strong and flips[x] and flips[y] and key not in inverted:
            g = _find_conjugator(G, theta, x, y, G.order)
            if g is not None:
                inverted[key] = (x, y, g)
    if strong:
        reps = [inverted[k] for k in classes if k in inverted]
    else:
        reps = [(x, y, None) for x, y in classes.values()]
    found: Optional[BeauvilleCertificate] = None
    hit = _first_disjoint_pair([sigma(G, x, y) for x, y, _ in reps])
    if hit is not None:
        (x1, y1, g1), (x2, y2, g2) = reps[hit[0]], reps[hit[1]]
        found = check_beauville(G, GenPair.make(G, x1, y1), GenPair.make(G, x2, y2))
        if not found.beauville:
            raise AssertionError("sigma-class scan disagrees with direct verification")
        if g1 is not None:
            found = replace(found, strongly_real=True, automorphism=theta, conjugators=(g1, g2))
    return SearchResult(found, total, len(classes))


def _first_disjoint_pair(masks: list[int]) -> Optional[tuple[int, int]]:
    """The canonically least index pair whose sigma masks meet only in the
    identity's class, or None."""
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if mi & masks[j] == 1:
                return i, j
    return None


def _find_conjugator(G, theta, x: int, y: int, limit: int) -> Optional[int]:
    """The least g < limit with g theta(a) g^-1 = a^-1 for a in {x, y};
    theta(x) and theta(y) are evaluated once, before the scan."""
    tx, ty, ix, iy = theta(x), theta(y), G.inv(x), G.inv(y)
    for g in range(limit):
        gi = G.inv(g)
        if G.mul(G.mul(g, tx), gi) == ix and G.mul(G.mul(g, ty), gi) == iy:
            return g
    return None


# -- lifting ------------------------------------------------------------------


@dataclass
class LiftReport:
    verdict: bool
    quotient_beauville: bool
    order_condition: bool
    direct_check: Optional[bool]


def check_strongly_real_via_base(
    Q: PcGroup,
    pair1: GenPair,
    pair2: GenPair,
    theta: Homomorphism,
) -> BeauvilleCertificate:
    """Verify a strongly real Beauville structure of a quotient too large for
    sigma sets: Beauville by the lifting lemma from the base quotient
    Q/gamma_w (w = 3 for p > 3, else 4), where the structure is verified in
    full and the first-triple orders must survive the projection; then the
    inversion step of check_strongly_real with trivial conjugators."""
    base_weight = 3 if Q.prime > 3 else 4
    lcs = lower_central_series(Q)
    _, proj = quotient_group(Q, lcs.terms[min(base_weight - 1, len(lcs.terms) - 1)])
    return _invert(Q, BeauvilleCertificate(pair1, pair2, lift_check(proj, pair1, pair2).verdict), theta, 1)


def lift_check(
    proj: Homomorphism,
    pair1: GenPair,
    pair2: GenPair,
) -> LiftReport:
    """Certify a Beauville structure of G from its image in G/N.

    True when the projected pairs form a Beauville structure of the quotient
    and o(g) = o(gN) for g in the first triple; when the source has order
    at most 10^4 the conclusion is additionally cross-checked by direct
    computation, and any disagreement raises."""
    G, Q = proj.source, proj.target
    q1 = GenPair.make(Q, proj(pair1.x), proj(pair1.y))
    q2 = GenPair.make(Q, proj(pair2.x), proj(pair2.y))
    quotient_beauville = check_beauville(Q, q1, q2).beauville
    order_ok = all(
        G.element_order(g) == Q.element_order(proj(g)) for g in pair1.triple()
    )
    # both pairs must generate the source itself, not just the quotient
    verdict = pair1.generating and pair2.generating and quotient_beauville and order_ok
    direct = None
    if G.order <= 10**4:
        direct = check_beauville(G, pair1, pair2).beauville
        if verdict and not direct:
            raise AssertionError("lift lemma certified a non-structure")
    return LiftReport(verdict, quotient_beauville, order_ok, direct)


def quotient_strongly_real(
    proj: Homomorphism,
    theta: Homomorphism,
    pair1: GenPair,
    pair2: GenPair,
    sigma_cap: int,
) -> tuple[bool, bool, bool]:
    """(Beauville, strongly real, lift) for the images of two pairs of G in
    the quotient Q = proj.target, under the automorphism theta of G induced
    on Q.  Full sigma sets decide it when |Q| <= sigma_cap; above that the
    lift path certifies it, lift is True, and False there means not
    certified."""
    Q = proj.target
    theta_q = induced_automorphism(proj, theta)
    q1 = GenPair.make(Q, proj(pair1.x), proj(pair1.y))
    q2 = GenPair.make(Q, proj(pair2.x), proj(pair2.y))
    lift = Q.order > sigma_cap
    check = check_strongly_real_via_base if lift else check_strongly_real
    cert = check(Q, q1, q2, theta_q)
    return cert.beauville, cert.strongly_real, lift
