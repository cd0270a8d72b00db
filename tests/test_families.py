import pytest

from bforge import families
from bforge.errors import CapExceeded
from bforge.families import (
    build_abelian,
    build_case_i,
    build_case_ii,
    build_case_iii,
    build_family,
    build_negative,
    full_refined_series,
    left_normed_commutators,
    refinement_series,
)
from bforge.groups import (
    DEFAULT_ORDER_CAP,
    PcGroup,
    hom_from_images,
    is_normal,
    lower_central_series,
    normal_closure,
    subgroup_closure,
)
from bforge.pc import consistency_check


# -- builders -----------------------------------------------------------------


def test_case_i_rejects_small_primes():
    for p in (2, 3):
        with pytest.raises(ValueError):
            build_case_i(p, 1)
    with pytest.raises(ValueError):
        build_case_i(6, 1)


def test_case_iii_requires_k_at_least_two():
    with pytest.raises(ValueError):
        build_case_iii(1)


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        build_case_i(5, 3, cap=10**6)  # 5^9 > 10^6


_FAMILY_ARGS = [("case-i", {"p": 5, "k": 1}), ("case-ii", {"k": 1}), ("case-iii", {"k": 2}),
                ("negative", {"k": 1}), ("abelian", {"n": 5})]


@pytest.mark.parametrize("family,kwargs", _FAMILY_ARGS)
def test_every_family_hands_its_cap_to_pcgroup(monkeypatch, family, kwargs):
    # every builder hands its cap to PcGroup, and refuses an order over it
    caps = []

    def spy(pres, cap=DEFAULT_ORDER_CAP):
        caps.append(cap)
        return PcGroup(pres, cap)

    monkeypatch.setattr(families, "PcGroup", spy)
    build_family(family, cap=4321, **kwargs)
    assert caps == [4321]  # the negative family's quotient is built in groups
    with pytest.raises(CapExceeded, match="exceeds cap 24$"):
        build_family(family, cap=24, **kwargs)


@pytest.mark.parametrize(
    "build,order,expo,oxy",
    [
        (lambda: build_case_i(5, 1), 125, 5, 5),
        (lambda: build_case_i(7, 1), 343, 7, 7),
        (lambda: build_case_i(5, 2), 5**6, 25, 25),
        (lambda: build_case_ii(1), 243, 9, 9),
        (lambda: build_case_ii(2), 3**10, 27, 27),
        (lambda: build_case_iii(2), 128, 4, 4),
        (lambda: build_case_iii(3), 4096, 8, 8),
    ],
)
def test_family_invariants(build, order, expo, oxy):
    pg = build()
    G = pg.group
    assert G.order == order
    assert G.exponent() == expo
    assert G.element_order(pg.xy()) == oxy
    assert consistency_check(pg.presentation) is None


def test_case_iii_xy_squared(g22):
    # (xy)^2 = x^2 y^2 z w, a nontrivial element
    G = g22.group
    n = g22.named
    lhs = G.pow(g22.xy(), 2)
    rhs = G.mul(G.mul(G.mul(G.pow(g22.x, 2), G.pow(g22.y, 2)), n["z"]), n["w"])
    assert lhs == rhs != 0


def test_abelian_builder():
    for n, order in [(5, 25), (2, 4), (7, 49), (6, 36), (12, 144)]:
        pg = build_abelian(n)
        G = pg.group
        assert G.order == order
        assert G.element_order(pg.x) == n == G.element_order(pg.y)
        assert pg.theta.is_automorphism
        assert all(pg.theta(a) == G.inv(a) for a in range(G.order))
    with pytest.raises(ValueError):
        build_abelian(1)


def test_build_family_dispatch():
    assert build_family("case-i", p=5, k=1).group.order == 125
    assert build_family("negative", k=1).group.order == 81
    assert build_family("abelian", n=5).group.order == 25
    with pytest.raises(ValueError):
        build_family("nope")
    with pytest.raises(ValueError):
        build_family("case-ii", p=5, k=1)


# -- negative family ------------------------------------------------------------


def test_negative_order_and_oxy(neg1):
    G = neg1.group
    assert G.order == 81
    assert G.element_order(neg1.xy()) == 3
    assert consistency_check(neg1.presentation) is None


def test_negative_t_equals_w(neg1):
    assert neg1.named["t_image"] == neg1.named["w_image"]


def test_negative_is_quotient_of_case_ii(neg1, g31):
    G = g31.group
    epi = hom_from_images(G, neg1.group, [g31.x, g31.y], [neg1.x, neg1.y])
    assert epi.kernel().bit_count() == 3
    # the kernel is exactly the normal closure of (xy)^3
    ncl = normal_closure(G, [G.pow(g31.xy(), 3)])
    assert epi.kernel() == ncl.mask


# -- theta ----------------------------------------------------------------------


def test_theta_inverts_generators_everywhere():
    for pg in (build_case_i(5, 1), build_case_ii(1), build_case_iii(2), build_negative(1)):
        G = pg.group
        assert pg.theta(pg.x) == G.inv(pg.x)
        assert pg.theta(pg.y) == G.inv(pg.y)
        assert pg.theta(pg.theta(pg.x)) == pg.x
        assert pg.theta(pg.theta(pg.y)) == pg.y


def test_theta_t_in_case_iii(g22):
    # t has order 2, so theta must fix it
    t = g22.named["t"]
    assert g22.theta(t) == t == g22.group.inv(t)


def test_theta_fixes_z_in_case_i(g51):
    assert g51.theta(g51.named["z"]) == g51.named["z"]


# -- refinement series -----------------------------------------------------------


def test_left_normed_commutators_examples(g31):
    G = g31.group
    got = left_normed_commutators(G, g31.x, g31.y, 3)
    t, w = g31.named["t"], g31.named["w"]
    assert got == [t, w]  # [y,x,x] = t before [y,x,y] = w


def test_refinement_g31_weight3(g31):
    series = refinement_series(g31, 3)
    assert series.orders() == (9, 3, 1)
    assert series.indices == (3, 3)
    assert all(series.theta_invariant)
    t = g31.named["t"]
    assert set(series.terms[1].indices()) == {0, t, g31.group.mul(t, t)}


def test_refinement_g32_weight2():
    pg = build_case_ii(2)
    series = refinement_series(pg, 2)
    assert series.orders() == (729, 243, 81)
    assert series.indices == (3, 3)
    z = pg.named["z"]
    lcs = lower_central_series(pg.group)
    mid = subgroup_closure(pg.group, list(lcs.terms[2].indices()) + [pg.group.pow(z, 3)])
    assert series.terms[1].mask == mid.mask


def test_refinement_empty_for_abelian(c5c5):
    series = refinement_series(c5c5, 2)
    assert series.orders() == (1,)
    assert series.indices == ()


def test_refinement_terms_normal_and_invariant(g22):
    for i in (2, 3):
        series = refinement_series(g22, i)
        for term, flag in zip(series.terms, series.theta_invariant):
            assert flag
            assert is_normal(g22.group, term)
            for h in term.gens:
                assert g22.theta(h) in term
        assert all(idx == 2 for idx in series.indices)


def test_full_refined_series(g31):
    series = full_refined_series(g31)
    assert series.orders() == (243, 27, 9, 3, 1)
    assert series.indices == (9, 3, 3, 3)
    lcs = lower_central_series(g31.group)
    masks = {t.mask for t in series.terms}
    assert all(term.mask in masks for term in lcs.terms)
    for term in series.terms:
        assert is_normal(g31.group, term)


def test_refinement_weight_beyond_class_is_trivial(g51):
    series = refinement_series(g51, 3)  # class is 2, so gamma_3 = gamma_4 = 1
    assert series.orders() == (1,)
