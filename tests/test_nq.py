import hashlib
from math import comb, prod

import pytest
from oracle import MemoFreeCollector, assert_central_suffix_agrees, assert_memos_agree, witt

from bforge.errors import CapExceeded
from bforge.groups import PcGroup, hom_from_images, lower_central_series
from bforge.nq import (
    TriangleParams,
    _require_modulus_unbound,
    extend_class,
    initial_class_quotient,
    tail_cover,
    triangle_quotient,
)
from bforge.pc import Collector, PcpFile, consistency_check, overlap_checks, print_pcp
from bforge.zlinalg import hermite_form, hnf_reduce


def nq_group(lp):
    G = PcGroup(lp.pres)
    a, b = G.element_of_word(lp.a_word), G.element_of_word(lp.b_word)
    G.mark_generators([a, b])
    return G, a, b


def test_params_validation():
    with pytest.raises(ValueError):
        TriangleParams(4, 1)  # not prime
    with pytest.raises(ValueError):
        TriangleParams(2, 1)  # q = 2 not allowed
    with pytest.raises(ValueError):
        TriangleParams(3, 0)
    assert TriangleParams(3, 1).rr == 9
    assert TriangleParams(3, 1, 3).rr == 3
    assert TriangleParams(5, 1).rr == 5
    assert TriangleParams(2, 2).rr == 4


@pytest.mark.parametrize(
    "p,k,expect",
    [(5, 1, (5, 5)), (3, 1, (3, 3)), (2, 2, (4, 4))],
)
def test_initial_quotient_is_c_q_squared(p, k, expect):
    lp = initial_class_quotient(TriangleParams(p, k))
    assert lp.pres.orders == expect
    assert lp.pres.comm_tails == {}
    assert lp.nilpotency_class == 1


@pytest.mark.parametrize(
    "p,k,r,cls,order",
    [
        (5, 1, None, 2, 125),
        (7, 1, None, 2, 343),
        (5, 2, None, 2, 15625),
        (3, 1, None, 3, 243),
        (3, 2, None, 3, 59049),
        (2, 2, None, 3, 128),
        (2, 3, None, 3, 4096),
        (3, 1, 3, 3, 81),
    ],
)
def test_quotient_orders(p, k, r, cls, order):
    lp = triangle_quotient(TriangleParams(p, k, r), cls)
    assert lp.order() == order
    assert lp.nilpotency_class == cls


def test_emitted_presentations_consistent():
    for p, k, r, cls in [(5, 1, None, 2), (3, 1, None, 3), (2, 2, None, 4), (3, 1, 3, 3)]:
        lp = triangle_quotient(TriangleParams(p, k, r), cls)
        assert consistency_check(lp.pres) is None


def test_imposed_relators_hold():
    for p, k, r, cls in [(5, 1, None, 2), (3, 1, None, 4), (2, 2, None, 4), (3, 1, 3, 3)]:
        tp = TriangleParams(p, k, r)
        lp = triangle_quotient(tp, cls)
        coll = Collector(lp.pres)
        a = coll.collect(lp.a_word)
        b = coll.collect(lp.b_word)
        assert coll.power(a, tp.q) == coll.identity
        assert coll.power(b, tp.q) == coll.identity
        assert coll.power(coll.mul(a, b), tp.rr) == coll.identity


def test_each_class_surjects_onto_previous():
    tp = TriangleParams(3, 1)
    lp_prev = initial_class_quotient(tp)
    for _ in range(3):
        lp = extend_class(lp_prev, tp)
        if lp.stabilized:
            break
        big, a, b = nq_group(lp)
        small, sa, sb = nq_group(lp_prev)
        proj = hom_from_images(big, small, [a, b], [sa, sb])
        layer = lp.order() // lp_prev.order()
        assert proj.kernel().bit_count() == layer
        assert lp.layer_sizes()[lp.nilpotency_class] == layer
        lp_prev = lp


def test_generator_orders_monotone_in_class():
    tp = TriangleParams(2, 2)
    lp = initial_class_quotient(tp)
    prev = (1, 1, 1)
    for _ in range(4):
        G, a, b = nq_group(lp)
        tri = (G.element_order(a), G.element_order(b), G.element_order(G.mul(a, b)))
        assert all(t >= p for t, p in zip(tri, prev))
        assert tri[0] <= tp.q and tri[1] <= tp.q and tri[2] <= tp.rr
        prev = tri
        nxt = extend_class(lp, tp)
        if nxt.stabilized:
            break
        lp = nxt
    assert prev == (4, 4, 4)


def test_agreement_with_constructions():
    from bforge.families import build_case_i, build_case_ii, build_case_iii

    jobs = [
        (TriangleParams(5, 1), 2, build_case_i(5, 1)),
        (TriangleParams(7, 1), 2, build_case_i(7, 1)),
        (TriangleParams(3, 1), 3, build_case_ii(1)),
        (TriangleParams(2, 2), 3, build_case_iii(2)),
        (TriangleParams(2, 3), 3, build_case_iii(3)),
    ]
    for tp, cls, pg in jobs:
        lp = triangle_quotient(tp, cls)
        G, a, b = nq_group(lp)
        H = pg.group
        assert G.order == H.order
        tri_nq = (G.element_order(a), G.element_order(b), G.element_order(G.mul(a, b)))
        tri_pg = (H.element_order(pg.x), H.element_order(pg.y), H.element_order(pg.xy()))
        assert tri_nq == tri_pg
        assert G.exponent() == H.exponent()
        iso = hom_from_images(G, H, [a, b], [pg.x, pg.y])
        assert len(set(iso.full_map)) == G.order


def test_class_four_layers_pinned():
    # the weight-4 layers are not stated anywhere; the values below were
    # produced by this implementation and are cross-validated here against
    # the generic lower-central-series machinery on the emitted group
    expected = {(3, 1): (2187, (2187, 243, 81, 9, 1)), (2, 2): (1024, (1024, 64, 32, 8, 1))}
    for (p, k), (order, lcs_orders) in expected.items():
        lp = triangle_quotient(TriangleParams(p, k), 4)
        assert lp.order() == order
        G, a, b = nq_group(lp)
        lcs = lower_central_series(G)
        assert lcs.orders() == lcs_orders
        assert len(lcs.terms) - 1 == 4 == lp.nilpotency_class
        sizes = lp.layer_sizes()
        for w in range(1, 5):
            assert sizes[w] == lcs_orders[w - 1] // lcs_orders[w]


def test_layer_generated_by_weight_commutators():
    # the weight-4 layer of the class-4 emission is generated by the
    # weight-4 left-normed commutators of the images of a and b
    from bforge.families import left_normed_commutators
    from bforge.groups import subgroup_closure

    lp = triangle_quotient(TriangleParams(3, 1), 4)
    G, a, b = nq_group(lp)
    lcs = lower_central_series(G)
    comms = left_normed_commutators(G, a, b, 4)
    assert subgroup_closure(G, comms).mask == lcs.terms[3].mask


def test_order_cap_respected():
    with pytest.raises(CapExceeded):
        triangle_quotient(TriangleParams(3, 2), 3, order_cap=10**4)


def test_class_bound_validation():
    with pytest.raises(ValueError):
        triangle_quotient(TriangleParams(3, 1), 6)


def test_negative_parameters_keep_growing_beyond_class_three():
    # the r = q triangle group is infinite and its lower central layers never
    # vanish; only the class-3 quotient (order 81) matters for the negative
    # certification, but higher classes stay available under the cap
    lp = triangle_quotient(TriangleParams(3, 1, 3), 5)
    assert not lp.stabilized
    assert lp.nilpotency_class == 5
    assert lp.order() == 729
    assert lp.layer_sizes() == {1: 9, 2: 3, 3: 3, 4: 3, 5: 3}


def test_stabilized_flag_on_degenerate_extension():
    # a degenerate layered quotient that already satisfies every relator
    # exactly gains no layer: the extension comes back flagged stabilized
    from bforge.nq import LayeredPresentation
    from bforge.pc import make_presentation

    tp = TriangleParams(3, 1)
    pres = make_presentation("c3", ["a"], [3])
    lp = LayeredPresentation(pres, (1,), 1, (None,), a_word=((0, 1),), b_word=((0, 2),))
    out = extend_class(lp, tp)
    assert out.stabilized
    assert out.pres == pres


_COVERS = [(3, 1, 3), (3, 1, 4), (2, 2, 3), (2, 2, 4), (5, 1, 3), (5, 1, 4)]


def _cover(p, k, cls):
    """The tail cover extend_class builds from the class-cls quotient, and
    the number of its base generators."""
    tp = TriangleParams(p, k)
    lp = triangle_quotient(tp, cls)
    star, _ = tail_cover(lp, tp.p ** (tp.k + cls + 3))
    return star, lp.pres.ngens


@pytest.mark.parametrize("p,k,cls", _COVERS)
def test_central_suffix_on_covers_gives_equal_elements(p, k, cls):
    # a cover is inconsistent, so the two collection paths may give normal
    # forms that differ in the tail coordinates (the full lift conjugates a
    # tail-only suffix s by a power u of a power tail as inv(u) s u, and
    # inv(u) u can collect to a nonzero tail; seen on the (2, 2) class-4
    # cover).  Such a difference must be a relation of the cover: it
    # reduces to zero modulo the Hermite form of the base overlaps' rows
    # and the modulus rows.
    star, n = _cover(p, k, cls)
    m = star.ngens - n
    rows = [[lhs[n + t] - rhs[n + t] for t in range(m)] for _, _, lhs, rhs in overlap_checks(Collector(star), n)]
    rows += [[star.orders[n] if s == t else 0 for s in range(m)] for t in range(m)]
    H = hermite_form(rows, m)

    def same(x, y):
        return x[:n] == y[:n] and not any(hnf_reduce(H, [a - b for a, b in zip(x[n:], y[n:])]))

    assert_central_suffix_agrees(star, 2024, 150, same)


@pytest.mark.parametrize("p,k,cls", _COVERS)
def test_overlaps_touching_a_tail_generator_are_zero(p, k, cls):
    # extend_class checks only the base generators' overlaps; every check of
    # the full range that touches a tail generator agrees on both sides
    star, n = _cover(p, k, cls)
    m = star.ngens - n
    touching = 0
    for _, gens, lhs, rhs in overlap_checks(Collector(star)):
        if max(star.index(g) for g in gens) >= n:
            touching += 1
            assert lhs == rhs, gens
    # associativity triples and power overlaps with a generator past n
    assert touching == comb(n + m, 3) - comb(n, 3) + (n + m) ** 2 - n**2


@pytest.mark.parametrize("p,k,cls", _COVERS)
def test_memos_match_recomputation_on_covers(p, k, cls):
    # a cover is inconsistent, so its normal forms depend on the collection
    # path; the memos must not change that path
    star, _ = _cover(p, k, cls)
    assert_memos_agree(star, 2024, 150)


# the (p, k, r, class) inputs of the nq benchmark workload
_BENCH_NQ = [(2, 2, None, 5), (3, 1, None, 5), (3, 1, 27, 5), (5, 1, None, 5), (7, 1, None, 5),
             (11, 1, None, 5), (13, 1, None, 5), (3, 2, None, 4), (2, 3, None, 5), (5, 2, None, 5)]


@pytest.mark.parametrize("p,k,r,c", _BENCH_NQ)
def test_extend_class_rows_do_not_depend_on_the_memos(monkeypatch, p, k, r, c):
    # the relation rows are read off collections in the inconsistent cover
    def rows_of(collector):
        seen = []

        def spy(rows, m):
            seen.append((m, [list(row) for row in rows]))
            return hermite_form(rows, m)

        monkeypatch.setattr("bforge.nq.hermite_form", spy)
        monkeypatch.setattr("bforge.nq.Collector", collector)
        lp = triangle_quotient(TriangleParams(p, k, r), c, order_cap=10**40)
        return seen, print_pcp(PcpFile(lp.pres))

    assert rows_of(MemoFreeCollector) == rows_of(Collector)


@pytest.mark.parametrize("p,c", [(p, c) for p in (5, 7, 11, 13) for c in range(1, min(5, p - 1) + 1)])
def test_layers_have_lazard_witt_ranks(p, c):
    # with k = 1 and c < p, T/gamma_{c+1} is the free 2-generator class-c
    # group of exponent p, whose layer i is elementary abelian of rank
    # W(2, i) by the Lazard correspondence
    lp = triangle_quotient(TriangleParams(p, 1), c, order_cap=10**40)
    assert lp.nilpotency_class == c and not lp.stabilized
    assert lp.layer_sizes() == {i: p ** witt(i) for i in range(1, c + 1)}
    assert set(lp.pres.orders) == {p}


# sha256 of print_pcp of the class-5 quotient, for the seven bench inputs
# whose answer is known; extend_class must reproduce them byte for byte
_CLASS_FIVE_SHA256 = {
    (2, 2, None): "9211007003be8b2fe334483c793282390057ea99cf7ff2aa9fc364e4bf2bc093",
    (3, 1, None): "28a7584161332a2f4ced2e29467954d816f9ce4cf284b19131cedf2cd95adcd0",
    (3, 1, 27): "c3ca50fc5b18fce38483637b43b00cd97848edd2158a7c037cd49acfd81b8405",
    (5, 1, None): "e61395b085802605853bdd6f7f450ba9e3389f9b11f61096190f14e88e115f13",
    (7, 1, None): "6751e7b0d05d4cf3164d17fb740829d4d1aefd13c340487272656fba7ab74f96",
    (11, 1, None): "9a8e2bd2dff3d4d8ccc247994a0e91785ff12106cba26fd3a784ba044c039f90",
    (13, 1, None): "e101b35241160865759923a3ce534b3167cedfd418474b26022778afa59c02c0",
}


@pytest.mark.parametrize("params", sorted(_CLASS_FIVE_SHA256, key=str))
def test_class_five_presentations_pinned(params):
    lp = triangle_quotient(TriangleParams(*params), 5, order_cap=10**40)
    text = print_pcp(PcpFile(lp.pres))
    assert hashlib.sha256(text.encode()).hexdigest() == _CLASS_FIVE_SHA256[params]


# -- power relations of the new layer generators ----------------------------------


@pytest.mark.parametrize("p,k,c", [(3, 2, 4), (2, 3, 5), (5, 2, 5)])
def test_new_generator_power_tail_is_its_reduced_hermite_row(monkeypatch, p, k, c):
    # w_t^(H[t][t]) must be the reduced word that makes H[t][t] e_t minus
    # the tail vanish modulo the Hermite lattice, i.e. the rest of row t
    # negated; before the fix every new generator had the empty tail
    hermite = []

    def spy(rows, m):
        hermite.append(hermite_form(rows, m))
        return hermite[-1]

    monkeypatch.setattr("bforge.nq.hermite_form", spy)
    tp = TriangleParams(p, k)
    lp = initial_class_quotient(tp)
    nontrivial = 0
    while lp.nilpotency_class < c:
        nxt = extend_class(lp, tp)
        H, n = hermite[-1], lp.pres.ngens
        surviving = [t for t in range(len(H)) if H[t][t] > 1]
        for pos, t in enumerate(surviving):
            y = [0] * len(H)
            for g, e in nxt.pres.power_tails[n + pos]:
                assert g >= n  # a word in the new layer alone
                y[surviving[g - n]] = e
            assert all(0 <= y[s] < H[s][s] for s in range(len(H)))
            v = [-e for e in y]
            v[t] += H[t][t]
            assert not any(hnf_reduce(H, v))
            nontrivial += bool(nxt.pres.power_tails[n + pos])
        lp = nxt
    assert nontrivial  # these inputs need the relation


@pytest.mark.parametrize(
    "p,k,c,layers",
    [
        (3, 2, 4, [81, 9, 81, 243]),
        (2, 3, 5, [64, 4, 16, 64, 2048]),
        (5, 2, 5, [625, 25, 625, 15625, 48828125]),
    ],
)
def test_quotients_that_need_power_relations(p, k, c, layers):
    # (3, 2) class 4 and (2, 3) class 5 were inconsistent, and at (5, 2)
    # class 5 (ab)^25 did not collect to 1, while the new generators had
    # no power relations
    tp = TriangleParams(p, k)
    lp = triangle_quotient(tp, c, order_cap=10**40)
    assert consistency_check(lp.pres) is None
    assert lp.nilpotency_class == c and not lp.stabilized
    assert [s for _, s in sorted(lp.layer_sizes().items())] == layers
    assert lp.order() == prod(layers)
    # weight w has at most W(2, w) generators, the rank of the free Lie ring's degree-w part
    assert all(lp.weights.count(w) <= witt(w) for w in range(1, c + 1))
    coll = Collector(lp.pres)
    a, b = coll.collect(lp.a_word), coll.collect(lp.b_word)
    for base, e in ((a, tp.q), (b, tp.q), (coll.mul(a, b), tp.rr)):
        assert coll.power(base, e) == coll.identity


def test_modulus_guard_sees_a_binding_modulus_off_the_diagonal():
    # M = {(x, y) : x + 3y = 0 mod 27} with p = 3, E = 3: no Hermite pivot
    # reaches 27, yet Z^2/M is C_27, so the modulus binds
    H = hermite_form([[27, 0], [0, 27], [-3, 1]], 2)
    assert H == [[3, 8], [0, 9]]
    assert all(H[t][t] * 3 <= 27 for t in range(2))  # the diagonal test stays silent
    with pytest.raises(AssertionError, match="binds"):
        _require_modulus_unbound(H, [0, 1], 9)
    # with 9y = 0 added, Z^2/M is C_27 and modulo 81 nothing binds
    _require_modulus_unbound(hermite_form([[81, 0], [0, 81], [-3, 1], [0, 9]], 2), [0, 1], 27)
