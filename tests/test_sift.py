"""The pc-sequence sifter (groups.sift_pairs) behind hom_from_images and
mark_generators, against the breadth-first map and brute-force closures of
tests/oracle.py."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import bfs_hom, brute_closure, brute_powers

from bforge.errors import HomomorphismError
from bforge.families import (
    build_abelian,
    build_case_i,
    build_case_ii,
    build_case_iii,
    build_negative,
    paper_group_from_nq,
)
from bforge.groups import hom_from_images, lower_central_series, quotient_group, sift_pairs
from bforge.nq import TriangleParams, triangle_quotient

FAILURES = ("given elements do not generate", "not well-defined", "not surjective")


def _tower(p, k, c):
    tp = TriangleParams(p, k)
    return paper_group_from_nq(triangle_quotient(tp, c), tp)


GROUPS = {
    "case_i_5_2": lambda: build_case_i(5, 2),
    "case_ii_3_2": lambda: build_case_ii(2),
    "case_iii_2_3": lambda: build_case_iii(3),
    "abelian_12": lambda: build_abelian(12),
    "abelian_30": lambda: build_abelian(30),
    "negative_3_1": lambda: build_negative(1),
    "tq_3_1_c5": lambda: _tower(3, 1, 5),  # order 3^10
    "tq_2_2_c5": lambda: _tower(2, 2, 5),  # order 2^15
    "tq_5_1_c4": lambda: _tower(5, 1, 4),  # order 5^8
}


@lru_cache(maxsize=None)
def _group(name):
    return GROUPS[name]()


def _outcome(build, G, H, gens, images):
    """(full map, is_automorphism), or (exception type, failure words)."""
    try:
        return build(G, H, gens, images)
    except HomomorphismError as exc:
        return type(exc), next(w for w in FAILURES if w in str(exc))


def _sifted(G, H, gens, images):
    h = hom_from_images(G, H, gens, images)
    return h.full_map, h.is_automorphism


# (gens, images) from the distinguished x, y, and the outcome expected of it
MAPS = {
    "theta": (lambda G, x, y: ([x, y], [G.inv(x), G.inv(y)]), True),
    "swap": (lambda G, x, y: ([x, y], [y, x]), True),
    "non_generating": (lambda G, x, y: ([x, G.mul(x, x)], [x, x]), "given elements do not generate"),
    "not_well_defined": (lambda G, x, y: ([x, y, G.mul(x, y)], [x, y, 0]), "not well-defined"),
    "not_surjective": (lambda G, x, y: ([x, y], [0, 0]), "not surjective"),
}


# each failing map costs the oracle a full pass too, so at order 5^8 only
# theta and the swap are compared
CASES = [(n, k) for n in sorted(GROUPS) for k in MAPS if n != "tq_5_1_c4" or k in ("theta", "swap")]


@pytest.mark.parametrize("name, kind", CASES)
def test_hom_matches_bfs_oracle(name, kind):
    # the full map and is_automorphism agree, or both raise the same failure
    pg = _group(name)
    G = pg.group
    make, expected = MAPS[kind]
    gens, images = make(G, pg.x, pg.y)
    got = _outcome(_sifted, G, G, gens, images)
    assert got == _outcome(bfs_hom, G, G, gens, images)
    if expected is True:
        assert got[1] is True and len(got[0]) == G.order
    else:
        assert got == (HomomorphismError, expected)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_sift_pairs_alone(name):
    # the sifter decides generation and well-definedness by itself, as
    # Collector vectors will need, and gives the images of the pc generators
    pg = _group(name)
    G = pg.group
    for kind in ("non_generating", "not_well_defined"):
        make, expected = MAPS[kind]
        with pytest.raises(HomomorphismError, match=expected):
            sift_pairs(G, G, *make(G, pg.x, pg.y))
    pc_gens = [G.gen_index(i) for i in range(G.presentation.ngens)]
    assert sift_pairs(G, G, [pg.x, pg.y], [G.inv(pg.x), G.inv(pg.y)]) == [pg.theta(g) for g in pc_gens]


@pytest.mark.parametrize("build", [lambda: build_case_i(5, 1), lambda: build_abelian(12)], ids=["case_i_5_1", "abelian_12"])
def test_mark_generators_accepts_exactly_generating_pairs(build):
    # every ordered pair; <x, y> depends only on <x> and <y>, so the brute
    # closure is taken once per pair of cyclic subgroups
    G = build().group
    powers = [brute_powers(G, a) for a in range(G.order)]
    generates = {}
    accepted = 0
    for x in range(G.order):
        for y in range(G.order):
            key = (powers[x], powers[y])
            if key not in generates:
                generates[key] = len(brute_closure(G, [x, y])) == G.order
            try:
                G.mark_generators([x, y])
            except ValueError:
                assert not generates[key], (x, y)
            else:
                assert generates[key], (x, y)
                assert G.generators == [x, y]
                accepted += 1
    assert 0 < accepted < G.order**2


@lru_cache(maxsize=None)
def _random_cases():
    """(source, [(target, known map of the source into it or None)]): each
    source, of order at most 3^5, into itself (identity, theta), into its
    abelianisation, and into C_n x C_n groups."""
    sources = [build_case_i(5, 1), build_negative(1), build_case_ii(1), build_case_iii(2), build_abelian(6), build_abelian(12)]
    abelian = [build_abelian(n).group for n in (2, 3, 5, 6)]
    cases = []
    for pg in sources:
        G = pg.group
        Q, proj = quotient_group(G, lower_central_series(G).terms[1])
        targets = [(G, lambda a: a), (G, pg.theta), (Q, proj)] + [(H, None) for H in abelian]
        cases.append((G, targets))
    return cases


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_maps_match_bfs_oracle(data):
    # random gens, and images either random or the values of a known map,
    # so that every outcome (a map and each failure) is drawn
    G, targets = data.draw(st.sampled_from(_random_cases()))
    H, known = data.draw(st.sampled_from(targets))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    if known is not None and data.draw(st.booleans()):
        images = [known(g) for g in gens]
    else:
        images = data.draw(st.lists(st.integers(0, H.order - 1), min_size=len(gens), max_size=len(gens)))
    assert _outcome(_sifted, G, H, gens, images) == _outcome(bfs_hom, G, H, gens, images)
