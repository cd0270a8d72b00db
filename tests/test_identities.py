"""The two truncated product expansions used throughout the calculations:

  (1) with G' abelian:        [x, y^n] = [x,y]^n [x,y,y]^C(n,2) [x,y,y,y]^C(n,3) ...
  (2) with <y, G'> abelian:   (xy)^n = x^n y^n [y,x]^C(n,2) [y,x,x]^C(n,3) ...

In groups of class <= 3 the products truncate after the weight-3 factor;
both hold verbatim there whenever their hypotheses do.
"""

import random
from itertools import combinations
from math import comb

import pytest

from bforge.families import build_case_i
from bforge.groups import lower_central_series, subgroup_closure


def derived_abelian(G):
    d = lower_central_series(G).terms[1]
    members = list(d.indices())
    return all(G.mul(a, b) == G.mul(b, a) for a, b in combinations(members, 2)), d


def y_derived_abelian(G, y, derived):
    sub = subgroup_closure(G, [y] + list(derived.gens or derived.indices()))
    gens = list(sub.gens)
    return all(G.mul(a, b) == G.mul(b, a) for a, b in combinations(gens, 2))


def commutator_power_identity(G, x, y, n):
    lhs = G.comm(x, G.pow(y, n))
    c1 = G.comm(x, y)
    c2 = G.comm(c1, y)
    c3 = G.comm(c2, y)
    rhs = G.mul(G.pow(c1, n), G.pow(c2, comb(n, 2)))
    rhs = G.mul(rhs, G.pow(c3, comb(n, 3)))
    return lhs == rhs


def product_power_identity(G, x, y, n):
    lhs = G.pow(G.mul(x, y), n)
    c1 = G.comm(y, x)
    c2 = G.comm(c1, x)
    c3 = G.comm(c2, x)
    rhs = G.mul(G.pow(x, n), G.pow(y, n))
    rhs = G.mul(rhs, G.pow(c1, comb(n, 2)))
    rhs = G.mul(rhs, G.pow(c2, comb(n, 3)))
    rhs = G.mul(rhs, G.pow(c3, comb(n, 4)))
    return lhs == rhs


@pytest.fixture(params=["g51", "g31", "g22", "neg1"])
def family(request, g51, g31, g22, neg1):
    return {"g51": g51, "g31": g31, "g22": g22, "neg1": neg1}[request.param]


def test_class_at_most_three(family):
    assert family.group.nilpotency_class() <= 3


def test_commutator_power_expansion(family):
    G = family.group
    abelian, _ = derived_abelian(G)
    assert abelian  # hypothesis of (1) holds in every constructed family
    rng = random.Random(31)
    pairs = [(family.x, family.y)] + [
        (rng.randrange(G.order), rng.randrange(G.order)) for _ in range(12)
    ]
    for x, y in pairs:
        for n in range(0, G.exponent() + 1):
            assert commutator_power_identity(G, x, y, n)


def test_product_power_expansion(family):
    G = family.group
    _, derived = derived_abelian(G)
    rng = random.Random(37)
    candidates = [(family.x, family.named.get("z", family.y))] + [
        (rng.randrange(G.order), rng.randrange(G.order)) for _ in range(40)
    ]
    tested = 0
    for x, y in candidates:
        if not y_derived_abelian(G, y, derived):
            continue
        tested += 1
        for n in range(0, G.exponent() + 1):
            assert product_power_identity(G, x, y, n)
    assert tested >= 3  # hypothesis-satisfying pairs exist and were exercised


def test_product_expansion_fails_without_hypothesis():
    # in the class-3 groups, <y, G'> is not abelian for the distinguished y,
    # and the truncated expansion is genuinely false there
    from bforge.families import build_case_ii

    pg = build_case_ii(1)
    G = pg.group
    _, derived = derived_abelian(G)
    assert not y_derived_abelian(G, pg.y, derived)
    assert any(not product_power_identity(G, pg.x, pg.y, n) for n in range(G.exponent() + 1))


def test_pcgroup_order_cap():
    from bforge.errors import CapExceeded
    from bforge.groups import PcGroup

    pg = build_case_i(5, 1)
    G = PcGroup(pg.presentation)
    assert G.order == 125
    with pytest.raises(CapExceeded):
        PcGroup(pg.presentation, cap=100)
