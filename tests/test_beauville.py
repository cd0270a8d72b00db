import random

import pytest

from oracle import brute_classes, brute_is_generating, brute_search_classes, brute_sigma

from bforge.beauville import (
    GenPair,
    _generating_pairs,
    check_beauville,
    check_strongly_real,
    exhaustive_search,
    is_generating_pair,
    lift_check,
    paper_structure,
    quotient_strongly_real,
    recipe_congruence,
    regular_beauville_criterion,
    sigma,
)
from bforge.errors import CapExceeded
from bforge.families import (
    build_abelian,
    build_case_i,
    build_case_ii,
    build_case_iii,
    build_negative,
    paper_group_from_nq,
    refinement_series,
)
from bforge.groups import (
    PcGroup,
    hom_from_images,
    lower_central_series,
    normal_closure,
    quotient_group,
    subgroup_closure,
)
from bforge.nq import TriangleParams, triangle_quotient
from bforge.pc import make_presentation, prime_power_base


# -- sigma ----------------------------------------------------------------------


def test_sigma_identity_pair(g51):
    G = g51.group
    assert sigma(G, 0, 0) == 1
    assert brute_classes(G, sigma(G, 0, 0)) == {0}


def test_sigma_g51_size_and_brute(g51):
    G = g51.group
    s = brute_classes(G, sigma(G, g51.x, g51.y))
    assert len(s) == 61
    assert s == brute_sigma(G, g51.x, g51.y)


def test_sigma_abelian(c5c5):
    G = c5c5.group
    s = brute_classes(G, sigma(G, c5c5.x, c5c5.y))
    assert len(s) == 13
    expected = set(subgroup_closure(G, [c5c5.x]).indices())
    expected |= set(subgroup_closure(G, [c5c5.y]).indices())
    expected |= set(subgroup_closure(G, [c5c5.xy()]).indices())
    assert s == expected


def test_sigma_symmetric(g31):
    G = g31.group
    rng = random.Random(2)
    for _ in range(25):
        x, y = rng.randrange(G.order), rng.randrange(G.order)
        assert sigma(G, x, y) == sigma(G, y, x)


def test_sigma_automorphism_equivariant(g22):
    G = g22.group
    th = g22.theta
    rng = random.Random(4)
    for _ in range(15):
        x, y = rng.randrange(G.order), rng.randrange(G.order)
        moved = {th(a) for a in brute_classes(G, sigma(G, x, y))}
        assert moved == brute_classes(G, sigma(G, th(x), th(y)))


def test_sigma_closed_under_conjugation_and_powers(g31):
    G = g31.group
    s = brute_classes(G, sigma(G, g31.x, g31.y))
    for a in s:
        assert G.pow(a, 2) in s
        for g in G.generators:
            assert G.conjugate(a, g) in s


def _search_bench_groups():
    # the five inputs of the benchmark's search workload
    return [
        build_abelian(13).group,
        paper_group_from_nq(triangle_quotient(TriangleParams(2, 2), 4), TriangleParams(2, 2)).group,
        build_negative(1).group,
        build_abelian(9).group,
        build_case_iii(2).group,
    ]


def _tower_groups():
    return [paper_group_from_nq(triangle_quotient(tp, 3), tp).group for tp in (TriangleParams(3, 1), TriangleParams(2, 2))]


@pytest.mark.parametrize("build", [_search_bench_groups, _tower_groups], ids=["bench-search", "towers"])
def test_sigma_class_masks_match_brute_sigma(build):
    # class-level disjointness of two sigma sets against disjointness of the
    # element sets brute_sigma builds, and check_beauville's witness against
    # the least non-identity element of the brute intersection
    rng = random.Random(17)
    outcomes = set()
    for G in build():
        pairs = []
        while len(pairs) < 10:
            x, y = rng.randrange(G.order), rng.randrange(G.order)
            if is_generating_pair(G, x, y):
                pairs.append(GenPair.make(G, x, y))
        found = exhaustive_search(G, "find", cap=G.order).found
        if found is not None:
            pairs += [found.pair1, found.pair2]
        brute = {(p.x, p.y): brute_sigma(G, p.x, p.y) for p in pairs}
        for p1, p2 in zip(pairs[::2], pairs[1::2]):
            shared = brute[p1.x, p1.y] & brute[p2.x, p2.y]
            disjoint = sigma(G, p1.x, p1.y) & sigma(G, p2.x, p2.y) == 1
            assert disjoint == (shared == {0})
            cert = check_beauville(G, p1, p2)
            assert cert.beauville == disjoint
            assert cert.intersection_witness == (None if disjoint else min(shared - {0}))
            outcomes.add(disjoint)
    assert outcomes == {True, False}


# -- generating pairs --------------------------------------------------------------


def test_is_generating_examples(g51):
    G = g51.group
    assert is_generating_pair(G, g51.x, g51.y)
    assert not is_generating_pair(G, g51.x, g51.x)
    assert not is_generating_pair(G, g51.x, G.mul(g51.x, g51.named["z"]))


def test_is_generating_matches_brute(g22, c5c5):
    rng = random.Random(6)
    for pg in (g22, c5c5):
        G = pg.group
        for _ in range(40):
            x, y = rng.randrange(G.order), rng.randrange(G.order)
            assert is_generating_pair(G, x, y) == brute_is_generating(G, x, y)


def _c4c2_power_tail():
    # a^2 = b: C_4 x C_2 with a power tail
    return PcGroup(make_presentation("c4c2", ("a", "b", "c"), (2, 2, 2), {0: ((1, 1),)}))


def _c12():
    # a^2 = b: cyclic, and not a p-group, so pairs with the identity generate
    return PcGroup(make_presentation("c12", ("a", "b", "c"), (2, 2, 3), {0: ((1, 1),)}))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_abelian(6).group,
        lambda: _h3c2()[0],
        lambda: PcGroup(make_presentation("c3c3c3", ("a", "b", "c"), (3, 3, 3))),
        _c4c2_power_tail,
        _c12,
    ],
    ids=["c6c6", "h3c2", "c3c3c3", "c4c2-tail", "c12"],
)
def test_is_generating_matches_brute_on_every_pair(build):
    # generation decided in G/Phi(G) against closures of every ordered pair;
    # no pair generates C_3^3, whose Frattini quotient has rank 3
    G = build()
    verdicts = [[brute_is_generating(G, x, y) for y in range(G.order)] for x in range(G.order)]
    assert [[is_generating_pair(G, x, y) for y in range(G.order)] for x in range(G.order)] == verdicts
    assert any(map(any, verdicts)) == (G.name != "c3c3c3")


def test_is_generating_non_p_group():
    pg = build_abelian(6)
    G = pg.group
    assert G.prime is None
    assert is_generating_pair(G, pg.x, pg.y)
    assert not is_generating_pair(G, pg.x, G.pow(pg.x, 5))


# -- check_beauville -----------------------------------------------------------------


def test_beauville_abelian_pair(c5c5):
    G = c5c5.group
    x, y = c5c5.x, c5c5.y
    # {x, y} and {x y^2, x^3 y^4}: all six cyclic direction subgroups distinct
    a = G.mul(x, G.pow(y, 2))
    b = G.mul(G.pow(x, 3), G.pow(y, 4))
    cert = check_beauville(G, GenPair.make(G, x, y), GenPair.make(G, a, b))
    assert cert.beauville
    assert sigma(G, x, y) & sigma(G, a, b) == 1
    assert brute_classes(G, sigma(G, x, y)) & brute_classes(G, sigma(G, a, b)) == {0}


def test_beauville_identical_pairs_fail(g51):
    G = g51.group
    p = GenPair.make(G, g51.x, g51.y)
    cert = check_beauville(G, p, p)
    assert not cert.beauville
    w = cert.intersection_witness
    assert w and w in brute_classes(G, sigma(G, g51.x, g51.y))
    # x itself is an equally valid witness
    assert g51.x in brute_classes(G, sigma(G, g51.x, g51.y))


def test_beauville_not_generating_diagnostic(g51):
    G = g51.group
    p1 = GenPair.make(G, g51.x, g51.x)
    p2 = GenPair.make(G, g51.x, g51.y)
    cert = check_beauville(G, p1, p2)
    assert not cert.beauville
    assert "not generating" in cert.diagnostics


def test_beauville_symmetric(g31):
    G = g31.group
    p1, p2 = paper_structure(g31, 1, 2)
    assert check_beauville(G, p1, p2).beauville == check_beauville(G, p2, p1).beauville


# -- strongly real -------------------------------------------------------------------


def test_strongly_real_paper_pairs(g51):
    p1, p2 = paper_structure(g51, 1, 3)
    cert = check_strongly_real(g51.group, p1, p2, g51.theta)
    assert cert.beauville and cert.strongly_real
    assert cert.conjugators == (0, 0)


def test_strongly_real_abelian(c5c5):
    G = c5c5.group
    a = G.mul(c5c5.x, G.pow(c5c5.y, 2))
    b = G.mul(G.pow(c5c5.x, 3), G.pow(c5c5.y, 4))
    cert = check_strongly_real(G, GenPair.make(G, c5c5.x, c5c5.y), GenPair.make(G, a, b), c5c5.theta)
    assert cert.strongly_real


def test_strongly_real_fails_with_identity_map(g51):
    from bforge.groups import hom_from_images

    G = g51.group
    ident = hom_from_images(G, G, [g51.x, g51.y], [g51.x, g51.y])
    p1, p2 = paper_structure(g51, 1, 3)
    cert = check_strongly_real(G, p1, p2, ident)
    assert cert.beauville and cert.strongly_real is False


def test_strongly_real_conjugator_search(g31):
    # conjugating the first pair by a fixed h needs g_1 = h-dependent witness:
    # theta still inverts the conjugated pair up to conjugation
    G = g31.group
    p1, p2 = paper_structure(g31, 1, 2)
    h = g31.named["z"]
    c1 = GenPair.make(G, G.conjugate(p1.x, h), G.conjugate(p1.y, h))
    cert = check_strongly_real(G, c1, p2, g31.theta, search_conjugators=True)
    assert cert.beauville
    assert cert.strongly_real
    g1 = cert.conjugators[0]
    assert G.mul(G.mul(g1, g31.theta(c1.x)), G.inv(g1)) == G.inv(c1.x)


def test_strongly_real_without_search_can_fail(g31):
    G = g31.group
    p1, p2 = paper_structure(g31, 1, 2)
    h = g31.named["z"]
    c1 = GenPair.make(G, G.conjugate(p1.x, h), G.conjugate(p1.y, h))
    cert = check_strongly_real(G, c1, p2, g31.theta, search_conjugators=False)
    assert cert.strongly_real is False or cert.conjugators == (0, 0)


# -- recipes ---------------------------------------------------------------------------


def test_recipe_congruences():
    assert recipe_congruence(5) == (5, (1, 3))
    assert recipe_congruence(3) == (9, (1, 2))
    assert recipe_congruence(2) == (4, (1, 2))


def test_paper_structure_signatures(g51, g31, g22):
    p1, _ = paper_structure(g51, 1, 3)
    assert p1.signature == (5, 5, 5)
    p1, _ = paper_structure(g31, 1, 2)
    assert p1.signature == (3, 3, 9)
    p1, p2 = paper_structure(g22, 1, 2)
    assert p1.generating and p2.generating


def test_paper_structure_off_recipe_flagged(g51):
    p1, p2 = paper_structure(g51, 2, 3)  # n1 = 2 violates n1 = 1 mod 5
    assert not p1.on_recipe and not p2.on_recipe
    p1, p2 = paper_structure(g51, 6, 8)  # 6 = 1, 8 = 3 mod 5
    assert p1.on_recipe


def test_paper_structure_valid_recipes_strongly_real(g51, g31):
    for pg, pairs in ((g51, [(1, 3), (6, 8), (11, 3)]), (g31, [(1, 2), (10, 11), (1, 11)])):
        for n1, n2 in pairs:
            p1, p2 = paper_structure(pg, n1, n2)
            assert p1.on_recipe
            cert = check_strongly_real(pg.group, p1, p2, pg.theta)
            assert cert.beauville and cert.strongly_real


def test_paper_structure_rejected_for_abelian(c5c5):
    with pytest.raises(ValueError):
        paper_structure(c5c5, 1, 3)


# -- regular criterion ------------------------------------------------------------------


def test_regular_criterion(g51):
    assert regular_beauville_criterion(g51.group)
    assert not regular_beauville_criterion(build_abelian(9).group)
    assert not regular_beauville_criterion(build_abelian(4).group)
    assert regular_beauville_criterion(build_abelian(25).group)


def test_regular_criterion_warns_when_class_not_below_p(g22):
    with pytest.warns(UserWarning):
        regular_beauville_criterion(g22.group)


# -- exhaustive search ---------------------------------------------------------------------


def test_search_negative_proves_none(neg1):
    res = exhaustive_search(neg1.group, "prove-none")
    assert res.found is None
    assert res.generating_pairs == 3888
    assert res.distinct_sigma_sets == 4
    assert res.sigma_pairs_checked == 6


@pytest.mark.parametrize(
    "build, mode, found, counts",
    [
        (lambda: build_abelian(9), "prove-none", False, (3888, 108, 5778)),
        (lambda: build_case_iii(2), "find-strongly-real", True, (6144, 8, 28)),
    ],
    ids=["c9c9-prove-none", "case-iii-2-find-strongly-real"],
)
def test_search_counts(build, mode, found, counts):
    pg = build()
    res = exhaustive_search(pg.group, mode, theta=pg.theta)
    assert (res.found is not None) == found
    assert (res.generating_pairs, res.distinct_sigma_sets, res.sigma_pairs_checked) == counts


def _swap(pg):
    return hom_from_images(pg.group, pg.group, [pg.x, pg.y], [pg.y, pg.x])


@pytest.mark.parametrize(
    "n, counts",
    [(5, (480, 20, 190)), (7, (2016, 56, 1540)), (13, (26208, 364, 66066))],
    ids=["c5c5", "c7c7", "c13c13"],
)
def test_search_strongly_real_swap_theta_finds_none(n, counts):
    # theta swapping x and y inverts only the line <x y^-1>, which holds no
    # generating pair, so no sigma class is scanned; the counts still cover
    # every class
    pg = build_abelian(n)
    res = exhaustive_search(pg.group, "find-strongly-real", theta=_swap(pg))
    assert res.found is None
    assert (res.generating_pairs, res.distinct_sigma_sets, res.sigma_pairs_checked) == counts


def _twisted(pg, u, v):
    # alpha theta alpha^-1 for the automorphism alpha: x -> u, y -> v
    G = pg.group
    alpha = hom_from_images(G, G, [pg.x, pg.y], [u, v])
    back = {fa: a for a, fa in enumerate(alpha.full_map)}
    images = [alpha(pg.theta(back[g])) for g in (pg.x, pg.y)]
    return hom_from_images(G, G, [pg.x, pg.y], images)


@pytest.mark.parametrize(
    "build, make_theta, triples, conjugators",
    [
        (lambda: build_case_iii(2), lambda pg: pg.theta, ((8, 32, 44), (48, 56, 73)), (0, 32)),
        (lambda: build_case_iii(2), lambda pg: _twisted(pg, 10, 106), ((8, 32, 44), (48, 56, 73)), (8, 40)),
        (lambda: build_case_iii(2), _swap, None, None),
        (lambda: build_case_i(5, 1), lambda pg: pg.theta, ((5, 25, 31), (35, 45, 57)), (0, 25)),
        (lambda: build_case_i(5, 1), _swap, None, None),
        (lambda: build_case_ii(1), lambda pg: pg.theta, ((27, 81, 117), (30, 136, 93)), (0, 27)),
        (lambda: build_case_ii(1), _swap, None, None),
        (lambda: build_abelian(5), lambda pg: pg.theta, ((1, 5, 6), (7, 9, 11)), (0, 0)),
        (lambda: build_negative(1), lambda pg: pg.theta, None, None),
        (lambda: build_negative(1), _swap, None, None),
        (lambda: build_abelian(9), lambda pg: pg.theta, None, None),
        (lambda: build_abelian(9), _swap, None, None),
    ],
    ids=[
        "case-iii-2", "case-iii-2-twisted", "case-iii-2-swap", "case-i-5-1", "case-i-5-1-swap",
        "case-ii-1", "case-ii-1-swap", "c5c5", "neg1", "neg1-swap", "c9c9", "c9c9-swap",
    ],
)
def test_search_strongly_real_certificates(build, make_theta, triples, conjugators):
    # the certificates the search returned when it still retried each hit
    # over all pairs of its two classes
    pg = build()
    theta = make_theta(pg)
    res = exhaustive_search(pg.group, "find-strongly-real", theta=theta)
    if triples is None:
        assert res.found is None
        return
    cert = res.found
    assert (cert.pair1.triple(), cert.pair2.triple()) == triples
    assert cert.conjugators == conjugators
    assert cert.beauville and cert.strongly_real and cert.automorphism is theta
    assert cert.intersection_witness is None and cert.diagnostics == ()
    direct = check_strongly_real(pg.group, cert.pair1, cert.pair2, theta, search_conjugators=True)
    assert direct.strongly_real and direct.conjugators == conjugators


def test_search_finds_structure_in_c5(c5c5):
    res = exhaustive_search(c5c5.group, "find")
    assert res.found is not None
    assert res.found.beauville


def test_search_none_in_c9():
    res = exhaustive_search(build_abelian(9).group, "prove-none")
    assert res.found is None


def test_search_strongly_real_in_c5(c5c5):
    res = exhaustive_search(c5c5.group, "find-strongly-real", theta=c5c5.theta)
    assert res.found is not None
    assert res.found.strongly_real


def test_search_strongly_real_requires_theta(c5c5):
    with pytest.raises(ValueError):
        exhaustive_search(c5c5.group, "find-strongly-real")


def test_search_cap(g31):
    with pytest.raises(CapExceeded):
        exhaustive_search(g31.group, "prove-none", cap=100)


def test_search_find_on_beauville_group_matches_direct(g51):
    res = exhaustive_search(g51.group, "find", cap=200)
    assert res.found is not None
    cert = check_beauville(g51.group, res.found.pair1, res.found.pair2)
    assert cert.beauville


def _theory_pairs(G):
    # generating pairs of a 2-generated nilpotent group:
    # |G|^2 prod over the primes p of |G| of (1 - 1/p)(1 - 1/p^2)
    n = G.order**2
    for p in {prime_power_base(m) for m in G.presentation.orders}:
        n = n * (p - 1) * (p * p - 1) // p**3
    return n


_MORE_ABELIAN = [n for n in [*range(2, 21), 30] if n not in (5, 7, 9, 13)]
_PINNED_PAIRS = {144: 4608, 900: 138240, 1024: 393216}  # by order: C_12^2, C_30^2, tq-2-2-c4


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_negative(1),
        lambda: build_abelian(5),
        lambda: build_abelian(7),
        lambda: build_abelian(9),
        lambda: build_abelian(13),
        lambda: build_case_i(5, 1),
        lambda: build_case_ii(1),
        lambda: build_case_iii(2),
        *[lambda n=n: build_abelian(n) for n in _MORE_ABELIAN],
        lambda: paper_group_from_nq(triangle_quotient(TriangleParams(2, 2), 4), TriangleParams(2, 2)),
    ],
    ids=[
        "neg1", "c5c5", "c7c7", "c9c9", "c13c13", "case-i-5-1", "case-ii-1", "case-iii-2",
        *[f"c{n}c{n}" for n in _MORE_ABELIAN], "tq-2-2-c4",
    ],
)
def test_search_pair_count_matches_theory(build):
    # composite and mixed-prime n too: every PcGroup is nilpotent
    G = build().group
    count = exhaustive_search(G, "find").generating_pairs
    assert count == _theory_pairs(G) == _PINNED_PAIRS.get(G.order, count)


def test_search_find_past_order_1024():
    # order 2^15, beyond the default cap; only the pair count has an
    # independent check, the other two counts pin this search's own output
    tp = TriangleParams(2, 2)
    G = paper_group_from_nq(triangle_quotient(tp, 5), tp).group
    res = exhaustive_search(G, "find", cap=32768)
    assert (res.generating_pairs, res.distinct_sigma_sets, res.sigma_pairs_checked) == (402653184, 1728, 1492128)
    assert res.generating_pairs == _theory_pairs(G)
    assert check_beauville(G, res.found.pair1, res.found.pair2).beauville


def _h3c2():
    # Heisenberg(3) x C2: nilpotent but not a p-group, with classes of size 3;
    # theta inverts x and y and fixes c and z = [y, x]
    G = PcGroup(make_presentation("h3c2", ("c", "x", "y", "z"), (2, 3, 3, 3), {}, {(2, 1): ((3, 1),)}))
    c, x, y, z = (G.gen_index(i) for i in range(4))
    return G, hom_from_images(G, G, [c, x, y, z], [c, G.inv(x), G.inv(y), z])


def _c12_inverted():
    G = _c12()
    return G, hom_from_images(G, G, G.strides, [G.inv(s) for s in G.strides])


def _paper(build, make_theta=lambda pg: pg.theta):
    def make():
        pg = build()
        return pg.group, make_theta(pg)

    return make


@pytest.mark.parametrize(
    "build",
    [
        _paper(lambda: build_negative(1)),
        _paper(lambda: build_case_ii(1)),
        _paper(lambda: build_case_i(5, 1)),
        _paper(lambda: build_case_i(5, 1), _swap),
        _paper(lambda: build_abelian(6)),
        _h3c2,
        _c12_inverted,
    ],
    ids=["neg1", "case-ii-1", "case-i-5-1", "case-i-5-1-swap", "c6c6", "h3c2", "c12"],
)
def test_search_matches_brute_force_oracle(build):
    # x runs over class representatives only; the oracle walks every ordered
    # pair, so this checks the weighted count, the least pair of each sigma
    # class in first-seen order, and the certificate each mode returns
    G, theta = build()
    total, least, inverted = brute_search_classes(G, theta)
    seen = {}
    for x, y, key, _ in _generating_pairs(G):
        seen.setdefault(key, (x, y))
    assert list(seen.values()) == list(least.values())
    D = len(least)
    plain = [(x, y, None) for x, y in least.values()]
    strong = [inverted[k] for k in least if k in inverted]
    for mode, reps in (("find", plain), ("prove-none", plain), ("find-strongly-real", strong)):
        res = exhaustive_search(G, mode, theta=theta)
        assert (res.generating_pairs, res.distinct_sigma_sets, res.sigma_pairs_checked) == (total, D, D * (D - 1) // 2)
        sigmas = [brute_sigma(G, x, y) for x, y, _ in reps]
        hits = [(i, j) for j in range(len(reps)) for i in range(j) if sigmas[i] & sigmas[j] == {0}]
        if not hits:
            assert res.found is None
            continue
        i, j = min(hits)
        (x1, y1, g1), (x2, y2, g2) = reps[i], reps[j]
        assert (res.found.pair1.x, res.found.pair1.y, res.found.pair2.x, res.found.pair2.y) == (x1, y1, x2, y2)
        assert res.found.conjugators == (None if g1 is None else (g1, g2))


# -- lifting ---------------------------------------------------------------------------------


def test_lift_order_condition_g22(g22):
    G = g22.group
    N = normal_closure(G, [g22.named["w"]])
    Q, proj = quotient_group(G, N)
    p1, p2 = paper_structure(g22, 1, 2)
    rep = lift_check(proj, p1, p2)
    assert rep.order_condition
    assert [Q.element_order(proj(g)) for g in p1.triple()] == [4, 4, 4]


def test_lift_trivial_quotient_fails(g22):
    G = g22.group
    Q, proj = quotient_group(G, G.as_set())
    p1, p2 = paper_structure(g22, 1, 2)
    rep = lift_check(proj, p1, p2)
    assert not rep.verdict and not rep.quotient_beauville


def test_lift_requires_generation_of_the_source():
    # projections may form a structure of the quotient with orders preserved
    # while the pairs fail to generate the source; the lemma must not fire
    from bforge.groups import PcGroup
    from bforge.pc import make_presentation

    G = PcGroup(make_presentation("c5cubed", ["a", "b", "c"], [5, 5, 5]))
    x, y, z = (G.gen_index(i) for i in range(3))
    N = subgroup_closure(G, [z])
    Q, proj = quotient_group(G, N)
    p1 = GenPair.make(G, x, y)
    p2 = GenPair.make(G, G.mul(x, G.pow(y, 2)), G.mul(G.pow(x, 3), G.pow(y, 4)))
    assert not p1.generating
    rep = lift_check(proj, p1, p2)
    assert rep.quotient_beauville and rep.order_condition
    assert not rep.verdict


def test_lift_fires_on_class_four_tower():
    # T/gamma_5 over its weight-4 layer: the quotient is the order-243 group,
    # the first-triple orders are preserved, so the lemma certifies the big
    # group and the direct check confirms
    tp = TriangleParams(3, 1)
    pg = paper_group_from_nq(triangle_quotient(tp, 4), tp)
    G = pg.group
    lcs = lower_central_series(G)
    Q, proj = quotient_group(G, lcs.terms[3])
    assert Q.order == 243
    p1, p2 = paper_structure(pg, 1, 2)
    rep = lift_check(proj, p1, p2)
    assert rep.verdict and rep.quotient_beauville and rep.order_condition
    assert rep.direct_check is True


def test_strongly_real_via_base_matches_full():
    # the reduced certificate (project onto the class-3 base, lift) agrees
    # with the full sigma computation on the order-2187 tower top
    from bforge.beauville import check_strongly_real_via_base

    tp = TriangleParams(3, 1)
    pg = paper_group_from_nq(triangle_quotient(tp, 4), tp)
    p1, p2 = paper_structure(pg, 1, 2)
    ok, rep = check_strongly_real_via_base(pg.group, p1, p2, pg.theta)
    assert ok and rep.verdict
    assert rep.quotient_cert is not None and rep.quotient_cert.beauville
    full = check_strongly_real(pg.group, p1, p2, pg.theta)
    assert bool(full.beauville and full.strongly_real) == ok


@pytest.mark.parametrize("p, k, cls, count", [(3, 1, 4, 8), (2, 2, 4, 9), (5, 1, 3, 5)])
def test_quotient_strongly_real_lift_agrees_with_full(p, k, cls, count):
    # every refinement quotient of the tower gets the same (Beauville,
    # strongly real) verdict from the lift path (sigma_cap=0) as from the
    # full sigma sets
    tp = TriangleParams(p, k)
    pg = paper_group_from_nq(triangle_quotient(tp, cls), tp)
    G = pg.group
    _, (n1, n2) = recipe_congruence(p)
    pairs = paper_structure(pg, n1, n2)
    verdicts = []
    for w in range(2, G.nilpotency_class() + 1):
        for term in refinement_series(pg, w).terms:
            _, proj = quotient_group(G, term)
            lift = quotient_strongly_real(proj, pg.theta, *pairs, 0)
            assert lift == quotient_strongly_real(proj, pg.theta, *pairs, 10**4)
            verdicts.append(lift)
    assert len(verdicts) == count
    assert (True, True) in verdicts  # the lift path certifies some quotients


def test_lift_both_sides_on_case_ii_k2():
    # quotients of the order-3^10 group by central order-3 subgroups inside
    # gamma_3 sit below the class-4 kernel, where the lemma may abstain: the
    # certified direction (verdict implies a direct structure) always holds,
    # and both sides are computed: the group is above lift_check's 10^4
    # cross-check, so the direct side is checked here once
    pg = build_case_ii(2)
    G = pg.group
    lcs = lower_central_series(G)
    gamma3 = lcs.terms[2]
    t, w = pg.named["t"], pg.named["w"]
    p1, p2 = paper_structure(pg, 1, 2)
    assert check_beauville(G, p1, p2).beauville  # the structure does exist upstairs
    seen_abstain = False
    for seed in (G.pow(t, 3), G.pow(w, 3), G.mul(G.pow(t, 3), G.pow(w, 3))):
        N = subgroup_closure(G, [seed])
        assert len(N) == 3 and N.mask & ~gamma3.mask == 0
        assert all(pg.theta(h) in N for h in N.indices())
        from bforge.groups import is_normal

        assert is_normal(G, N)
        Q, proj = quotient_group(G, N)
        rep = lift_check(proj, p1, p2)
        assert rep.direct_check is None  # above the cross-check's order
        if not rep.verdict:
            seen_abstain = True
    assert seen_abstain  # these intermediate quotients are below the covered range
