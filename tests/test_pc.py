import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import MemoFreeCollector, assert_central_suffix_agrees, assert_memos_agree, brute_prime_power_base

from bforge.errors import CapExceeded, PcpSyntaxError, ShapeError
from bforge.nq import TriangleParams, tail_cover, triangle_quotient
from bforge.pc import (
    Collector,
    PcpFile,
    consistency_check,
    make_presentation,
    parse_pcp,
    parse_presentation,
    prime_power_base,
    print_pcp,
    print_presentation,
)


def heisenberg(q):
    return make_presentation("heis", ["x", "y", "z"], [q, q, q], None, {(1, 0): [(2, 1)]})


def case_ii(k):
    q = 3**k
    return make_presentation(
        "cii", ["x", "y", "z", "t", "w"], [q] * 5,
        None, {(1, 0): [(2, 1)], (2, 0): [(3, 1)], (2, 1): [(4, 1)]},
    )


def case_iii(k):
    q, s = 2**k, 2 ** (k - 1)
    return make_presentation(
        "ciii", ["x", "y", "z", "t", "w"], [q, q, s, s, s],
        None, {(1, 0): [(2, 1)], (2, 0): [(3, 1)], (2, 1): [(4, 1)]},
    )


# -- parsing ------------------------------------------------------------------

HEIS_TEXT = """\
pcgroup heis
gen x order 5
gen y order 5
gen z order 5
comm y x = z
"""


def test_parse_heisenberg():
    p = parse_presentation(HEIS_TEXT)
    assert p.names == ("x", "y", "z")
    assert p.orders == (5, 5, 5)
    assert p.comm_tails == {(1, 0): ((2, 1),)}


def test_parse_empty_generators_rejected():
    with pytest.raises(PcpSyntaxError):
        parse_presentation("pcgroup g\n")


def test_parse_comm_earlier_generator_rejected():
    text = "pcgroup g\ngen x order 5\ngen y order 5\ngen z order 5\ncomm z x = y\n"
    with pytest.raises(PcpSyntaxError):
        parse_presentation(text)


def test_parse_non_prime_power_order_rejected():
    with pytest.raises(PcpSyntaxError):
        parse_presentation("pcgroup g\ngen x order 6\n")
    with pytest.raises(ShapeError):
        make_presentation("g", ["x"], [12])


def test_prime_power_base_matches_trial_division():
    for m in range(-2, 1 << 14):
        assert prime_power_base(m) == brute_prime_power_base(m), m
    rng = random.Random(5)
    for m in [rng.randrange(1 << 40, 1 << 41) for _ in range(8)] + [1099511627791]:  # the last one is prime
        assert prime_power_base(m) == brute_prime_power_base(m), m


def test_prime_power_base_of_every_small_prime_power():
    # .pcp relative orders and the nq covers' p^(k+c+3) are powers of small primes
    primes = [p for p in range(2, 200) if brute_prime_power_base(p) == p]
    for p in primes:
        for e in range(1, 80):
            assert prime_power_base(p**e) == p
            assert prime_power_base(p**e * 211) is None


M31, M61, M89 = 2**31 - 1, 2**61 - 1, 2**89 - 1  # Mersenne primes


P20 = 1048583  # the least prime above 2^20


@pytest.mark.parametrize("m,base", [
    (1000000000000000003, 1000000000000000003),
    (P20**2, P20),
    (M31 * M31, M31),
    (M61**3, M61),
    (M61**40, M61),
    (M31 * P20, None),
    (M31 * P20**2, None),
    (3825123056546413051, None),  # a strong pseudoprime to every prime base up to 23
    (318665857834031151167461, None),  # ... up to 37: 399165290221 * 798330580441
], ids=lambda v: str(v)[:24])
def test_prime_power_base_above_trial_division(m, base):
    assert prime_power_base(m) == base


@pytest.mark.parametrize("m", [M89, M89**2, M31 * M61, 10**30 + 57], ids=["M89", "M89^2", "M31*M61", "10^30+57"])
def test_prime_power_base_refuses_roots_past_the_exact_bound(m):
    with pytest.raises(CapExceeded, match="not a power of an integer below"):
        prime_power_base(m)


def test_parse_order_token_past_int_digit_limit():
    # int() refuses more than 4,300 digits, so a longer order token is
    # refused as too large by its length; a shorter one by its value
    with pytest.raises(CapExceeded, match="relative order of a has 5001 digits"):
        parse_pcp("pcgroup g\ngen a order 1" + "0" * 4999 + "3\n")
    with pytest.raises(CapExceeded, match="has 4301 digits"):
        parse_pcp("pcgroup g\ngen a order +0001" + "0" * 4300 + "\n")
    with pytest.raises(CapExceeded, match="has 14281 bits"):
        parse_pcp("pcgroup g\ngen a order 1" + "0" * 4299 + "\n")
    with pytest.raises(CapExceeded, match="has 84 bits"):
        parse_pcp("pcgroup g\ngen a order 1" + "0" * 25 + "\n")
    # leading zeros do not count, and every spelling int() reads still parses
    assert parse_presentation("pcgroup g\ngen a order " + "0" * 5000 + "5\n").orders == (5,)
    assert parse_presentation("pcgroup g\ngen a order +1_1\n").orders == (11,)
    # a malformed token is quoted only by a bounded prefix
    with pytest.raises(PcpSyntaxError) as exc:
        parse_pcp("pcgroup g\ngen a order 5" + "x" * 5000 + "\n")
    assert str(exc.value).endswith("bad order '5" + "x" * 39 + "...'")


def test_syntax_error_carries_line_number():
    text = "pcgroup g\ngen x order 5\nbogus line here\n"
    with pytest.raises(PcpSyntaxError) as exc:
        parse_presentation(text)
    assert exc.value.line == 3


def test_parse_unknown_generator_in_comm():
    text = "pcgroup g\ngen x order 5\ngen y order 5\ncomm y q = 1\n"
    with pytest.raises(PcpSyntaxError):
        parse_presentation(text)


def test_parse_bad_power_clause():
    with pytest.raises(PcpSyntaxError):
        parse_presentation("pcgroup g\ngen x order 5 power\n")
    with pytest.raises(PcpSyntaxError):
        parse_presentation("pcgroup g\ngen x order 4 power x^2\n")  # tail not later


def test_parse_comments_and_blank_lines():
    text = "# header\npcgroup g\n\ngen x order 5  # five\ngen y order 5\ncomm y x = 1\n"
    p = parse_presentation(text)
    assert p.names == ("x", "y")
    assert p.comm_tails == {}


def test_roundtrip_byte_for_byte():
    for pres in (heisenberg(5), case_ii(1), case_iii(2)):
        text = print_presentation(pres)
        again = parse_presentation(text)
        assert again == pres
        assert print_presentation(again) == text


def test_roundtrip_with_stanzas():
    pf = parse_pcp(HEIS_TEXT)
    pf.family = "case-i"
    pf.params = {"p": 5, "k": 1}
    pf.distinguished = {"x": ((0, 1),), "y": ((1, 1),)}
    pf.theta = {"x": ((0, 4),), "y": ((1, 4),), "z": ((2, 1),)}
    text = print_pcp(pf)
    again = parse_pcp(text)
    assert print_pcp(again) == text
    assert again.params == pf.params
    assert again.theta == pf.theta


# -- collection ---------------------------------------------------------------


def test_collect_yx_is_xyz():
    coll = Collector(heisenberg(5))
    assert coll.collect([(1, 1), (0, 1)]) == (1, 1, 1)


def test_collect_commutator_power_identity_2group():
    # [y, x^i] = z^i t^C(i,2), reduced mod the relative orders
    coll = Collector(case_iii(2))
    x, y = coll.gen_vec(0), coll.gen_vec(1)
    i = 3
    got = coll.comm(y, coll.power(x, i))
    assert got == (0, 0, i % 2, comb(i, 2) % 2, 0)
    assert got == (0, 0, 1, 1, 0)  # z * t


def test_collect_xy_cubed_case_ii():
    # (xy)^3 = t w^2 when all relative orders are 3
    coll = Collector(case_ii(1))
    xy = coll.mul(coll.gen_vec(0), coll.gen_vec(1))
    assert coll.power(xy, 3) == (0, 0, 0, 1, 2)


def test_nontrivial_power_tail_chain():
    # g0^2 = g1, g1^2 = 1 presents C4
    pres = make_presentation("c4", ["a", "b"], [2, 2], {0: [(1, 1)]})
    coll = Collector(pres)
    a = coll.gen_vec(0)
    assert coll.power(a, 2) == (0, 1)
    assert coll.power(a, 4) == (0, 0)
    assert coll.inv(a) == (1, 1)  # a^-1 = a^3 = a * b


def test_deep_power_tail_chain_is_cyclic_16():
    # a^2 = b, b^2 = c, c^2 = d, d^2 = 1: every tail nontrivial, and
    # inversion walks the whole chain with negative exponents
    pres = make_presentation(
        "c16", ["a", "b", "c", "d"], [2, 2, 2, 2],
        {0: [(1, 1)], 1: [(2, 1)], 2: [(3, 1)]},
    )
    assert consistency_check(pres) is None
    coll = Collector(pres)
    a = coll.gen_vec(0)
    seen = set()
    x = coll.identity
    for n in range(16):
        assert x == coll.power(a, n)
        seen.add(x)
        x = coll.mul(x, a)
    assert x == coll.identity and len(seen) == 16
    for n in range(16):
        v = coll.power(a, n)
        assert coll.mul(v, coll.inv(v)) == coll.identity
        assert coll.power(a, -n) == coll.inv(v)


def test_multi_term_commutator_tail():
    # [y, x] = z t with everything of order 3: consistent, and collection
    # stays multiplicative
    pres = make_presentation(
        "zt", ["x", "y", "z", "t"], [3, 3, 3, 3], None, {(1, 0): [(2, 1), (3, 1)]}
    )
    assert consistency_check(pres) is None
    coll = Collector(pres)
    rng = random.Random(71)
    for _ in range(2000):
        u = tuple(rng.randrange(3) for _ in range(4))
        v = tuple(rng.randrange(3) for _ in range(4))
        w = tuple(rng.randrange(3) for _ in range(4))
        assert coll.mul(coll.mul(u, v), w) == coll.mul(u, coll.mul(v, w))
    y, x = coll.gen_vec(1), coll.gen_vec(0)
    assert coll.comm(y, x) == (0, 0, 1, 1)


def test_inverse_and_negative_exponents():
    coll = Collector(heisenberg(5))
    rng = random.Random(7)
    for _ in range(200):
        u = tuple(rng.randrange(5) for _ in range(3))
        assert coll.mul(u, coll.inv(u)) == coll.identity
        assert coll.power(u, -1) == coll.inv(u)


# -- consistency --------------------------------------------------------------


def test_consistency_paper_presentations_pass():
    for pres in (heisenberg(5), heisenberg(7), case_ii(1), case_ii(2), case_iii(2), case_iii(3)):
        assert consistency_check(pres) is None


def test_consistency_violation_reported():
    # z forced to order 2 under [y,x] = z with x, y of order 5: y x^5 collects
    # two different ways
    bad = make_presentation("bad", ["x", "y", "z"], [5, 5, 2], None, {(1, 0): [(2, 1)]})
    v = consistency_check(bad)
    assert v is not None
    assert v.lhs != v.rhs


def test_consistency_abelian_trivial_tails():
    pres = make_presentation("ab", ["a", "b", "c"], [4, 9, 25])
    assert consistency_check(pres) is None


# -- normal form uniqueness ---------------------------------------------------


def random_word(rng, ngens, orders, length):
    return [
        (g, rng.randrange(-2 * orders[g], 2 * orders[g] + 1))
        for g in (rng.randrange(ngens) for _ in range(length))
    ]


@pytest.mark.parametrize("pres_fn", [lambda: heisenberg(5), lambda: case_ii(1), lambda: case_iii(2)])
def test_collect_is_multiplicative_bulk(pres_fn):
    # collect(u) * collect(v) = collect(uv) on 10^5 random word pairs
    pres = pres_fn()
    coll = Collector(pres)
    rng = random.Random(12345)
    n, orders = pres.ngens, pres.orders
    for _ in range(100_000):
        u = random_word(rng, n, orders, rng.randrange(1, 4))
        v = random_word(rng, n, orders, rng.randrange(1, 4))
        assert coll.mul(coll.collect(u), coll.collect(v)) == coll.collect(u + v)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_collect_is_multiplicative_hypothesis(data):
    pres = case_iii(2)
    coll = Collector(pres)
    token = st.tuples(st.integers(0, pres.ngens - 1), st.integers(-8, 8))
    u = data.draw(st.lists(token, max_size=6))
    v = data.draw(st.lists(token, max_size=6))
    assert coll.mul(coll.collect(u), coll.collect(v)) == coll.collect(u + v)


def test_power_by_repeated_squaring_matches_iteration():
    coll = Collector(case_ii(1))
    xy = coll.mul(coll.gen_vec(0), coll.gen_vec(1))
    acc = coll.identity
    for n in range(0, 30):
        assert coll.power(xy, n) == acc
        acc = coll.mul(acc, xy)


# -- central suffix -------------------------------------------------------------


def test_central_suffix_index():
    assert Collector(heisenberg(5)).central == 2
    assert Collector(case_ii(1)).central == 3
    assert Collector(make_presentation("c9", ["a", "b"], [3, 3], {0: [(1, 1)]})).central == 0
    # on the cover extend_class builds, the suffix is exactly the tail generators
    tp = TriangleParams(3, 1)
    lp = triangle_quotient(tp, 3)
    star, tailed = tail_cover(lp, 3**7)
    assert Collector(star).central == lp.pres.ngens == star.ngens - len(tailed)


@pytest.mark.parametrize(
    "pres_fn",
    [
        lambda: heisenberg(5),
        lambda: case_ii(1),
        lambda: triangle_quotient(TriangleParams(3, 1), 4).pres,
        lambda: triangle_quotient(TriangleParams(2, 2), 4).pres,
        lambda: triangle_quotient(TriangleParams(5, 1), 4).pres,
    ],
    ids=["heis5", "case-ii-1", "tq-3-1-c4", "tq-2-2-c4", "tq-5-1-c4"],
)
def test_central_suffix_matches_full_lift(pres_fn):
    # on a consistent presentation both paths give the same normal forms
    assert_central_suffix_agrees(pres_fn(), 2024, 300, lambda x, y: x == y)


# -- memos ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "pres_fn",
    [lambda: heisenberg(5), lambda: heisenberg(25), lambda: case_ii(1), lambda: case_ii(2),
     lambda: case_iii(2), lambda: case_iii(3)],
    ids=["case-i-5-1", "case-i-5-2", "case-ii-1", "case-ii-2", "case-iii-2", "case-iii-3"],
)
def test_memos_match_recomputation_on_paper_presentations(pres_fn):
    assert_memos_agree(pres_fn(), 2024, 300)


@pytest.mark.parametrize("pres_fn", [lambda: case_ii(2), lambda: case_iii(3),
                                     lambda: triangle_quotient(TriangleParams(5, 2), 4, order_cap=10**40).pres])
def test_power_edge_exponents(pres_fn):
    # e = 0 gives the identity and e = +-1 the element and its inverse;
    # exponents at and past the element's order wrap round it
    pres = pres_fn()
    coll, ref = Collector(pres), MemoFreeCollector(pres)
    rng = random.Random(3)
    for _ in range(40):
        u = coll.collect(random_word(rng, pres.ngens, pres.orders, 4))
        assert coll.power(u, 0) == coll.identity
        assert coll.power(u, 1) == u
        assert coll.power(u, -1) == coll.inv(u)
        order, x = 1, u
        while x != coll.identity:
            x, order = coll.mul(x, u), order + 1
        for e in (order, order + 1, 2 * order - 1, 3 * order, pres.order(), pres.order() + 2):
            assert coll.power(u, e) == coll.power(u, e % order) == ref.power(u, e)
            assert coll.power(u, -e) == coll.inv(coll.power(u, e)) == ref.power(u, -e)
