import random

import pytest

from oracle import (
    brute_class,
    brute_closure,
    brute_commutator_subgroup,
    brute_frattini,
    brute_order,
    brute_sigma,
)

from bforge.errors import CapExceeded, HomomorphismError
from bforge.families import build_abelian, build_case_i, build_case_ii
from bforge.groups import (
    BYTES_PER_ELEMENT,
    PcGroup,
    agemo,
    bit_indices,
    conjugacy_class,
    frattini,
    hom_from_images,
    induced_automorphism,
    lower_central_series,
    normal_closure,
    quotient_group,
    subgroup_closure,
)
from bforge.nq import TriangleParams, triangle_quotient
from bforge.pc import Collector, make_presentation


def test_bit_indices():
    assert list(bit_indices(0)) == []
    assert list(bit_indices(0b101001)) == [0, 3, 5]
    big = (1 << 50000) | (1 << 123) | 1
    assert list(bit_indices(big)) == [0, 123, 50000]


# -- arithmetic invariants ----------------------------------------------------


def test_memory_guard(monkeypatch):
    # about BYTES_PER_ELEMENT per element must fit in what the process may use
    pres = make_presentation("c125", ["a", "b", "c"], [5, 5, 5])
    monkeypatch.setattr("bforge.groups.memory_limit", lambda: 125 * BYTES_PER_ELEMENT - 1)
    with pytest.raises(CapExceeded, match="group order 125 needs about 0 MB"):
        PcGroup(pres)
    monkeypatch.setattr("bforge.groups.memory_limit", lambda: 125 * BYTES_PER_ELEMENT)
    assert PcGroup(pres).order == 125


def test_associativity_exhaustive_small(c5c5):
    G = c5c5.group
    for a in range(G.order):
        for b in range(G.order):
            ab = G.mul(a, b)
            for c in range(G.order):
                assert G.mul(ab, c) == G.mul(a, G.mul(b, c))


def test_associativity_exhaustive_order_81(neg1):
    G = neg1.group
    mul = G.mul
    for a in range(G.order):
        for b in range(G.order):
            ab = mul(a, b)
            for c in range(G.order):
                assert mul(ab, c) == mul(a, mul(b, c))


def test_associativity_random_large():
    G = build_case_ii(2).group  # order 59049
    rng = random.Random(99)
    for _ in range(100_000):
        a, b, c = (rng.randrange(G.order) for _ in range(3))
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_identity_and_inverses(g31):
    G = g31.group
    for a in range(G.order):
        assert G.mul(a, 0) == a == G.mul(0, a)
        assert G.mul(a, G.inv(a)) == 0


def _triangle_quotient(p, k, r, c):
    return PcGroup(triangle_quotient(TriangleParams(p, k, r), c).pres)


def test_mul_matches_collection(g22):
    # mul, inv and element_of_word against collection, on orders 128, 15625,
    # a triangle quotient with a power tail and a mixed-prime group (whose
    # inv is the generic power rule)
    tq = _triangle_quotient(2, 2, 4, 4)
    for G in (g22.group, build_case_i(5, 2).group, tq, build_abelian(6).group):
        coll = Collector(G.presentation)
        orders = G.presentation.orders
        rng = random.Random(5)
        for _ in range(2000):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            assert G.mul(a, b) == G.index_of(coll.mul(G.vec(a), G.vec(b)))
            assert G.inv(a) == G.index_of(coll.inv(G.vec(a)))
        for _ in range(300):
            # generators out of order, exponents negative and >= m_i
            word = []
            for _ in range(rng.randrange(1, 9)):
                g = rng.randrange(len(orders))
                word.append((g, rng.choice([-1, 1]) * rng.randrange(1, 2 * orders[g] + 2)))
            assert G.element_of_word(tuple(word)) == G.index_of(coll.collect(word))


def test_import_leaves_numpy_out():
    import subprocess
    import sys

    code = "import sys, bforge, bforge.cli, bforge.reproduce; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_gen_step_matches_collection(g51, g22, neg1):
    # the step tables against collecting vec(idx) * g_i directly; the two
    # class-4 triangle quotients (orders 1024 and 2187) carry power tails
    groups = [g51.group, g22.group, neg1.group, build_abelian(6).group]
    groups += [_triangle_quotient(2, 2, 4, 4), _triangle_quotient(3, 1, 9, 4)]
    assert all(any(G.presentation.power_tails) for G in groups[-2:])
    for G in groups:
        assert all(G.index_of(G.vec(a)) == a for a in range(G.order))
        coll = Collector(G.presentation)
        for i in range(G.presentation.ngens):
            gi = coll.gen_vec(i)
            want = [G.index_of(coll.mul(G.vec(a), gi)) for a in range(G.order)]
            assert G.gen_step[i][1] == want


def test_group_invariants_order_and_prime(g51):
    from bforge.families import build_abelian
    from math import prod

    G = g51.group
    assert G.order == len(G.walks) == prod(G.presentation.orders)
    assert G.prime == 5
    assert build_abelian(6).group.prime is None  # mixed 2- and 3-parts
    assert build_abelian(9).group.prime == 3


def test_mark_generators_rejects_non_generating(g51):
    G = g51.group
    with pytest.raises(ValueError):
        G.mark_generators([g51.x, g51.named["z"]])


# -- element orders -----------------------------------------------------------


def test_element_order_identity(g51):
    assert g51.group.element_order(0) == 1


def test_element_order_x_paper(g51):
    assert g51.group.element_order(g51.x) == 5


def test_element_order_xy_case_ii(g31):
    assert g31.group.element_order(g31.xy()) == 9


def test_element_orders_match_brute(g22):
    G = g22.group
    rng = random.Random(3)
    for a in [rng.randrange(G.order) for _ in range(64)]:
        assert G.element_order(a) == brute_order(G, a)


# -- conjugacy ----------------------------------------------------------------


def test_class_of_identity(g51):
    assert set(conjugacy_class(g51.group, 0).indices()) == {0}


def test_class_of_x_in_g51(g51):
    G = g51.group
    cls = set(conjugacy_class(G, g51.x).indices())
    assert cls == brute_class(G, g51.x)
    z = g51.named["z"]
    assert cls == {G.mul(g51.x, G.pow(z, j)) for j in range(5)}
    assert len(cls) == 5


def test_classes_partition_group(g31):
    G = g31.group
    masks, class_id, reps = G.conjugacy_data()
    assert sum(m.bit_count() for m in masks) == G.order
    assert all(G.order % m.bit_count() == 0 for m in masks)
    union = 0
    for m in masks:
        assert union & m == 0
        union |= m
    assert union == G.full_mask()


def test_classes_match_brute(neg1):
    G = neg1.group
    for a in range(0, G.order, 7):
        assert set(conjugacy_class(G, a).indices()) == brute_class(G, a)


# -- subgroup machinery ---------------------------------------------------------



def test_power_classes_match_brute(neg1, g22):
    # the per-class key: the classes met by <a>, from brute_class of every power
    for G in (neg1.group, g22.group, build_abelian(6).group):
        masks, _, _ = G.conjugacy_data()
        brute = {}
        for a in range(G.order):
            powers = [G.pow(a, j) for j in range(brute_order(G, a))]
            met = {frozenset(brute.setdefault(b, frozenset(brute_class(G, b)))) for b in powers}
            assert {frozenset(bit_indices(masks[c])) for c in G.power_classes(a)} == met
            assert set(bit_indices(G.conjugate_union(a))) == set().union(*met)

def test_closure_empty_is_trivial(g51):
    assert subgroup_closure(g51.group, []).mask == 1


def test_closure_of_x(g51):
    s = subgroup_closure(g51.group, [g51.x])
    assert len(s) == 5


def test_closure_t_w_case_ii(g31):
    s = subgroup_closure(g31.group, [g31.named["t"], g31.named["w"]])
    assert len(s) == 9
    assert set(s.indices()) == brute_closure(g31.group, [g31.named["t"], g31.named["w"]])


def test_closure_flags_and_divisibility(g22):
    G = g22.group
    rng = random.Random(11)
    for _ in range(20):
        seeds = [rng.randrange(G.order) for _ in range(rng.randrange(1, 3))]
        s = subgroup_closure(G, seeds)
        assert s.is_subgroup and 0 in s
        assert G.order % len(s) == 0
        members = list(s.indices())
        sample = members if len(members) <= 16 else rng.sample(members, 16)
        for a in sample:
            assert G.inv(a) in s
            for b in sample:
                assert G.mul(a, b) in s


def test_normal_closure_trivial(g51):
    assert normal_closure(g51.group, [0]).mask == 1


def test_normal_closure_xy_cubed(g31):
    G = g31.group
    s = G.pow(g31.xy(), 3)
    n = normal_closure(G, [s])
    assert len(n) == 3
    # central: the closure is just the powers of t w^2
    assert set(n.indices()) == {0, s, G.mul(s, s)}
    t, w = g31.named["t"], g31.named["w"]
    assert s == G.mul(t, G.pow(w, 2))


def test_normal_closure_z_in_g51(g51):
    n = normal_closure(g51.group, [g51.named["z"]])
    assert len(n) == 5
    assert n.is_normal


# -- series and characteristic subgroups ---------------------------------------


def test_lcs_abelian(c5c5):
    lcs = lower_central_series(c5c5.group)
    assert lcs.orders() == (25, 1)


def test_lcs_g51(g51):
    lcs = lower_central_series(g51.group)
    assert lcs.orders() == (125, 5, 1)
    gamma2 = set(lcs.terms[1].indices())
    assert gamma2 == brute_commutator_subgroup(g51.group, range(g51.group.order))


def test_lcs_g31(g31):
    lcs = lower_central_series(g31.group)
    assert lcs.orders() == (243, 27, 9, 1)
    gamma2 = set(lcs.terms[1].indices())
    assert gamma2 == brute_commutator_subgroup(g31.group, range(g31.group.order))


def test_lcs_terms_normal_and_theta_invariant(g31):
    G = g31.group
    lcs = lower_central_series(G)
    for term in lcs.terms:
        for h in term.indices():
            assert g31.theta(h) in term
            for g in G.generators:
                assert G.conjugate(h, g) in term


def test_frattini_abelian_prime(c5c5):
    assert frattini(c5c5.group).mask == 1


def test_frattini_g51(g51):
    f = frattini(g51.group)
    assert len(f) == 5
    assert set(f.indices()) == set(subgroup_closure(g51.group, [g51.named["z"]]).indices())
    assert set(f.indices()) == brute_frattini(g51.group)


def test_frattini_g22_index_four(g22):
    f = frattini(g22.group)
    assert len(f) == 32
    assert g22.group.order // len(f) == 4
    assert set(f.indices()) == brute_frattini(g22.group)


def test_agemo_zero_is_group(g51):
    assert agemo(g51.group, 0).mask == g51.group.full_mask()


def test_agemo_g51_criterion(g51):
    # exp G = 5^1, agemo at e-1 = 0 is everything: |G^{p^{e-1}}| = 125 >= 25
    assert len(agemo(g51.group, 0)) == 125


def test_agemo_g22_squares(g22):
    G = g22.group
    a = agemo(G, 1)
    sq = {G.pow(g, 2) for g in range(G.order)}
    assert set(a.indices()) == brute_closure(G, sq)
    assert len(a) == 32
    assert G.pow(g22.xy(), 2) in a


# -- quotients ------------------------------------------------------------------


def test_quotient_by_trivial_is_isomorphic_copy(g51):
    G = g51.group
    Q, proj = quotient_group(G, G.trivial_set())
    assert Q.order == G.order
    assert len(set(proj.full_map)) == G.order


def test_quotient_negative_order(g31):
    G = g31.group
    N = normal_closure(G, [G.pow(g31.xy(), 3)])
    Q, proj = quotient_group(G, N)
    assert Q.order == 81
    assert proj.kernel().mask == N.mask


def test_quotient_abelianization(g31):
    G = g31.group
    lcs = lower_central_series(G)
    Q, _ = quotient_group(G, lcs.terms[1])
    assert Q.order == 9
    assert Q.exponent() == 3
    assert all(Q.mul(a, b) == Q.mul(b, a) for a in range(9) for b in range(9))


def test_quotient_rejects_non_normal(g22):
    G = g22.group
    s = subgroup_closure(G, [g22.x])  # <x> is not normal
    with pytest.raises(ValueError):
        quotient_group(G, s)


def test_quotient_orders_divide(g31):
    G = g31.group
    N = normal_closure(G, [g31.named["t"]])
    Q, proj = quotient_group(G, N)
    for g in range(G.order):
        assert G.element_order(g) % Q.element_order(proj(g)) == 0


# -- homomorphisms ----------------------------------------------------------------


def test_hom_identity(g51):
    G = g51.group
    h = hom_from_images(G, G, [g51.x, g51.y], [g51.x, g51.y])
    assert h.is_automorphism
    assert all(h(a) == a for a in range(G.order))


def test_hom_inversion_fixes_z(g51):
    G = g51.group
    th = g51.theta
    z = g51.named["z"]
    assert th.is_automorphism
    assert th(z) == z
    # oracle: the commutator of the inverted generators is again z
    assert G.comm(G.inv(g51.y), G.inv(g51.x)) == z


def test_hom_swap_inverts_z(g51):
    G = g51.group
    h = hom_from_images(G, G, [g51.x, g51.y], [g51.y, g51.x])
    z = g51.named["z"]
    assert h.is_automorphism
    assert h(z) == G.inv(z)


def test_hom_is_multiplicative_everywhere(g22):
    G = g22.group
    th = g22.theta
    rng = random.Random(17)
    for _ in range(3000):
        a, b = rng.randrange(G.order), rng.randrange(G.order)
        assert th(G.mul(a, b)) == G.mul(th(a), th(b))


def test_hom_not_well_defined_reported(g51):
    # image of x would need order dividing 5 in C_25
    C25 = PcGroup(make_presentation("c25", ["c"], [25]))
    with pytest.raises(HomomorphismError, match="not well-defined"):
        hom_from_images(g51.group, C25, [g51.x, g51.y], [C25.gen_index(0), C25.gen_index(0)])


def test_hom_not_surjective_reported(g51, c5c5):
    H = c5c5.group
    with pytest.raises(HomomorphismError, match="not surjective"):
        hom_from_images(g51.group, H, [g51.x, g51.y], [c5c5.x, 0])


def test_hom_epimorphism_to_abelianization(g51, c5c5):
    H = c5c5.group
    h = hom_from_images(g51.group, H, [g51.x, g51.y], [c5c5.x, c5c5.y])
    assert not h.is_automorphism
    assert len(h.kernel()) == 5


def test_quotient_pc_presentation_with_power_tails():
    # C16 as a chain of four order-2 generators, modulo the last one: the
    # induced presentation keeps the nontrivial power tails
    from bforge.groups import quotient_pc_presentation
    from bforge.pc import consistency_check, make_presentation

    pres = make_presentation(
        "c16", ["a", "b", "c", "d"], [2, 2, 2, 2],
        {0: [(1, 1)], 1: [(2, 1)], 2: [(3, 1)]},
    )
    G = PcGroup(pres)
    N = subgroup_closure(G, [G.gen_index(3)])
    qp = quotient_pc_presentation(G, N, "c8")
    assert qp.pres.order() == 8
    assert qp.pres.names == ("a", "b", "c")
    assert qp.pres.power_tails[0] == ((1, 1),)
    assert qp.pres.power_tails[2] == ()
    assert consistency_check(qp.pres) is None
    a8 = qp.to_new(G.gen_index(0))
    assert qp.group.element_order(a8) == 8


def test_induced_automorphism_on_quotient(g31):
    G = g31.group
    N = normal_closure(G, [g31.named["t"]])
    Q, proj = quotient_group(G, N)
    thq = induced_automorphism(Q, g31.theta)
    assert thq.is_automorphism
    assert thq(proj(g31.x)) == Q.inv(proj(g31.x))
    rng = random.Random(23)
    for _ in range(1000):
        a, b = rng.randrange(Q.order), rng.randrange(Q.order)
        assert thq(Q.mul(a, b)) == Q.mul(thq(a), thq(b))
