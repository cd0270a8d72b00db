"""Builders for the explicitly presented groups, the inversion automorphism,
and the refinement of the lower central series into theta-invariant steps of
index p."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .groups import (
    DEFAULT_ORDER_CAP,
    Homomorphism,
    NormalSeries,
    PcGroup,
    Subgroup,
    _series_indices,
    hom_from_images,
    is_normal,
    lower_central_series,
    normal_closure,
    quotient_group,
    require_order,
)
from .pc import PcPresentation, prime_power_base, make_presentation

FAMILIES = ("case-i", "case-ii", "case-iii", "negative", "abelian")


@dataclass
class PaperGroup:
    """A constructed group with its distinguished generators and theta."""

    family: str
    p: int
    k: Optional[int]
    n: Optional[int]
    group: PcGroup
    x: int
    y: int
    named: dict[str, int]
    theta: Homomorphism

    @property
    def presentation(self) -> PcPresentation:
        return self.group.presentation

    def xy(self) -> int:
        return self.group.mul(self.x, self.y)


def theta_automorphism(group: PcGroup, x: int, y: int) -> Homomorphism:
    """The automorphism inverting both distinguished generators."""
    return hom_from_images(group, group, [x, y], [group.inv(x), group.inv(y)])


def pc_names(group: PcGroup) -> dict[str, int]:
    """Each pc generator's name mapped to its element index."""
    return {nm: group.gen_index(i) for i, nm in enumerate(group.presentation.names)}


def _finish(family: str, p: int, k: Optional[int], n: Optional[int], group: PcGroup, x: int, y: int,
            named: dict[str, int], theta: Optional[Homomorphism] = None) -> PaperGroup:
    """Mark x, y as the group's generators and wrap it; theta defaults to
    the automorphism inverting x and y."""
    group.mark_generators([x, y])
    if theta is None:
        theta = theta_automorphism(group, x, y)
    return PaperGroup(family, p, k, n, group, x, y, named, theta)


def _three_step_presentation(xy_order: int, zt_order: int) -> tuple:
    names = ["x", "y", "z", "t", "w"]
    orders = [xy_order, xy_order, zt_order, zt_order, zt_order]
    comms = {(1, 0): [(2, 1)], (2, 0): [(3, 1)], (2, 1): [(4, 1)]}
    return names, orders, comms


def build_case_i(p: int, k: int, cap: int = DEFAULT_ORDER_CAP) -> PaperGroup:
    """<x,y,z | x^q = y^q = z^q = 1, [y,x] = z> with q = p^k, for p > 3."""
    require_order(p, 3 * k, cap)
    if prime_power_base(p) != p:
        raise ValueError(f"p = {p} is not prime")
    if p <= 3:
        raise ValueError("case-i requires p > 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p**k
    pres = make_presentation(f"case_i_{p}_{k}", ["x", "y", "z"], [q, q, q], None, {(1, 0): [(2, 1)]})
    group = PcGroup(pres, cap)
    return _finish("case-i", p, k, None, group, group.gen_index(0), group.gen_index(1), pc_names(group))


def build_case_ii(k: int, cap: int = DEFAULT_ORDER_CAP) -> PaperGroup:
    """The five-generator 3-group of order 3^{5k} and exponent 3^{k+1}."""
    require_order(3, 5 * k, cap)
    if k < 1:
        raise ValueError("k must be >= 1")
    q = 3**k
    names, orders, comms = _three_step_presentation(q, q)
    group = PcGroup(make_presentation(f"case_ii_3_{k}", names, orders, None, comms), cap)
    return _finish("case-ii", 3, k, None, group, group.gen_index(0), group.gen_index(1), pc_names(group))


def build_case_iii(k: int, cap: int = DEFAULT_ORDER_CAP) -> PaperGroup:
    """The five-generator 2-group of order 2^{5k-3} and exponent 2^k, k >= 2."""
    require_order(2, 5 * k - 3, cap)
    if k < 2:
        raise ValueError("case-iii requires k >= 2 (q = 2^k must exceed 2)")
    names, orders, comms = _three_step_presentation(2**k, 2 ** (k - 1))
    group = PcGroup(make_presentation(f"case_iii_2_{k}", names, orders, None, comms), cap)
    return _finish("case-iii", 2, k, None, group, group.gen_index(0), group.gen_index(1), pc_names(group))


def build_negative(k: int, cap: int = DEFAULT_ORDER_CAP) -> PaperGroup:
    """Quotient of the case-ii group by the normal closure of (xy)^{3^k}:
    the class-3 quotient of the triangle group with r = 3^k instead of
    3^{k+1}; for k = 1 it has order 81 and is not a Beauville group."""
    base = build_case_ii(k, cap=cap)
    G = base.group
    s = G.pow(base.xy(), 3**k)
    N = normal_closure(G, [s])
    group, proj = quotient_group(G, N, f"negative_3_{k}")
    named = pc_names(group) | {"t_image": proj(base.named["t"]), "w_image": proj(base.named["w"])}
    return _finish("negative", 3, k, None, group, proj(base.x), proj(base.y), named)


def build_abelian(n: int, cap: int = DEFAULT_ORDER_CAP) -> PaperGroup:
    """C_n x C_n with theta = inversion; Beauville iff n > 1, gcd(n, 6) = 1."""
    require_order(n, 2, cap)
    if n < 2:
        raise ValueError("n must be >= 2")
    factors: list[int] = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            pe = 1
            while rest % d == 0:
                rest //= d
                pe *= d
            factors.append(pe)
        d += 1
    if rest > 1:
        factors.append(rest)
    names = [f"x{i + 1}" for i in range(len(factors))] + [f"y{i + 1}" for i in range(len(factors))]
    orders = factors + factors
    pres = make_presentation(f"abelian_{n}", names, orders)
    group = PcGroup(pres, cap)
    r = len(factors)
    x = group.index_of(tuple([1] * r + [0] * r))
    y = group.index_of(tuple([0] * r + [1] * r))
    return _finish("abelian", factors[0] if len(factors) == 1 else 0, None, n, group, x, y, {"x": x, "y": y})


def paper_group_from_nq(lp, tp) -> PaperGroup:
    """Wrap a triangle-quotient presentation as a PaperGroup: distinguished
    generators are the images of a and b, theta the induced inversion."""
    group = PcGroup(lp.pres)
    x, y = group.element_of_word(lp.a_word), group.element_of_word(lp.b_word)
    return _finish("triangle-quotient", tp.p, tp.k, None, group, x, y, pc_names(group))


def build_family(family: str, p: int = 0, k: int = 0, n: int = 0, cap: int = DEFAULT_ORDER_CAP) -> PaperGroup:
    if family == "case-i":
        return build_case_i(p, k, cap)
    if family == "case-ii":
        if p and p != 3:
            raise ValueError("case-ii has p = 3")
        return build_case_ii(k, cap)
    if family == "case-iii":
        if p and p != 2:
            raise ValueError("case-iii has p = 2")
        return build_case_iii(k, cap)
    if family == "negative":
        if p and p != 3:
            raise ValueError("the negative family has p = 3")
        return build_negative(k, cap)
    if family == "abelian":
        return build_abelian(n, cap)
    raise ValueError(f"unknown family {family!r}")


# -- refinement series -------------------------------------------------------


def left_normed_commutators(G: PcGroup, x: int, y: int, weight: int) -> list[int]:
    """Weight-w left-normed commutators [y, x, a_3, ..., a_w], a_i in {x, y},
    ordered lexicographically with x < y.  Their classes span the layer
    gamma_w / gamma_{w+1}."""
    if weight < 2:
        raise ValueError("weight must be >= 2")
    base = G.comm(y, x)
    out = []
    for pattern in itertools.product((x, y), repeat=weight - 2):
        c = base
        for g in pattern:
            c = G.comm(c, g)
        out.append(c)
    return out


def refinement_series(pg: PaperGroup, i: int) -> NormalSeries:
    """Refine gamma_{i+1} <= gamma_i into theta-invariant normal steps of
    index p, adjoining the weight-i left-normed commutators through their
    p-power chains.

    Terms are returned descending (gamma_i first).  Every term is verified
    normal and theta-invariant with consecutive index exactly p.
    """
    if i < 2:
        raise ValueError("refinement starts at gamma_2")
    G = pg.group
    p = G.prime
    if p is None:
        raise ValueError(f"{G.name} is not a p-group: its series has no index-p refinement")
    lcs = lower_central_series(G)
    top = lcs.terms[i - 1] if i - 1 < len(lcs.terms) else G.trivial_set()
    bottom = lcs.terms[i] if i < len(lcs.terms) else G.trivial_set()
    terms = [bottom]
    closure = Subgroup(G, bottom.table[:], bottom.gens)  # the current term, grown along the chain
    for s in left_normed_commutators(G, pg.x, pg.y, i):
        e = 0
        v = s
        while v not in closure:
            v = G.pow(v, p)
            e += 1
        for j in range(e - 1, -1, -1):
            closure.add(G.pow(s, p**j))
            terms.append(Subgroup(G, closure.table[:], closure.gens, is_normal(G, closure)))
    if len(terms[-1]) != len(top):  # terms[-1] lies in top
        raise AssertionError("left-normed commutators failed to span the layer")
    terms.reverse()
    flags = []
    for term in terms:
        inv = all(pg.theta(h) in term for h in term.gens)
        flags.append(inv)
        if not term.is_normal:
            raise AssertionError("refinement term is not normal")
        if not inv:
            raise AssertionError("refinement term is not theta-invariant")
    indices = _series_indices(terms)
    if any(idx != p for idx in indices):
        raise AssertionError(f"refinement indices {indices} are not all {p}")
    return NormalSeries(G, tuple(terms), indices, tuple(flags))


def full_refined_series(pg: PaperGroup) -> NormalSeries:
    """Concatenate the refinements for i = 2..class: a normal series from
    gamma_2 down to 1 with all steps of index p, prefixed by the whole group."""
    G = pg.group
    lcs = lower_central_series(G)
    cls = len(lcs.terms) - 1
    terms: list[Subgroup] = [G.as_set()]
    flags: list[Optional[bool]] = [True]
    for i in range(2, cls + 1):
        block = refinement_series(pg, i)
        for term, flag in zip(block.terms, block.theta_invariant):
            if len(terms[-1]) == len(term):  # the previous block's bottom, met again at the top
                continue
            terms.append(term)
            flags.append(flag)
    if len(terms) == 1 or len(terms[-1]) != 1:
        terms.append(G.trivial_set())
        flags.append(True)
    indices = _series_indices(terms)
    return NormalSeries(G, tuple(terms), indices, tuple(flags))
