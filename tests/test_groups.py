import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    bfs_hom,
    brute_class,
    brute_classes,
    brute_closure,
    brute_commutator_subgroup,
    brute_frattini,
    brute_induced,
    brute_normal_closure,
    brute_order,
    brute_quotient,
    brute_sigma,
    eager_walks,
    fold_normal_closure,
    fold_subgroup_closure,
)

from bforge.errors import CapExceeded, HomomorphismError
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
    BYTES_PER_ELEMENT,
    Homomorphism,
    NormalSeries,
    PcGroup,
    Subgroup,
    _extend,
    agemo,
    bit_indices,
    conjugacy_class,
    frattini,
    hom_from_images,
    induced_automorphism,
    is_normal,
    lower_central_series,
    mem_available,
    normal_closure,
    quotient_group,
    subgroup_closure,
)
from bforge.nq import TriangleParams, triangle_quotient
from bforge.pc import Collector, consistency_check, make_presentation, print_presentation


def test_bit_indices():
    assert list(bit_indices(0)) == []
    assert list(bit_indices(0b101001)) == [0, 3, 5]
    big = (1 << 50000) | (1 << 123) | 1
    assert list(bit_indices(big)) == [0, 123, 50000]


# -- arithmetic invariants ----------------------------------------------------


def test_order_cap_message_formats_no_huge_integer():
    # str() of an int stops at 4300 digits; 2^16000 has 4817
    pres = make_presentation("big", ["a", "b"], [2**8000, 2**8000])
    with pytest.raises(CapExceeded, match=r"^group order above 2\^16000 exceeds cap 1000000$"):
        PcGroup(pres)


def test_memory_guard(monkeypatch):
    # about BYTES_PER_ELEMENT per element must fit in what the process may use
    pres = make_presentation("c125", ["a", "b", "c"], [5, 5, 5])
    monkeypatch.setattr("bforge.groups.memory_limit", lambda: 125 * BYTES_PER_ELEMENT - 1)
    with pytest.raises(CapExceeded, match="group order 125 needs about 0 MB"):
        PcGroup(pres)
    monkeypatch.setattr("bforge.groups.memory_limit", lambda: 125 * BYTES_PER_ELEMENT)
    assert PcGroup(pres).order == 125


def test_memory_guard_counts_step_tables(monkeypatch):
    # relative order 125 means 124 step tables per generator, far above
    # BYTES_PER_ELEMENT: 8 bytes per table slot, 28 per generator, 512 more
    pres = make_presentation("c125sq", ["a", "b"], [125, 125])
    need = 125**2 * (8 * 248 + 28 * 2 + 512)
    assert need > 125**2 * BYTES_PER_ELEMENT
    monkeypatch.setattr("bforge.groups.memory_limit", lambda: need - 1)
    with pytest.raises(CapExceeded, match="group order 15625 needs about 38 MB"):
        PcGroup(pres)
    monkeypatch.setattr("bforge.groups.memory_limit", lambda: need)
    assert PcGroup(pres).order == 15625


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


@pytest.fixture(scope="module")
def tower_groups():
    # the largest quotients the three CI tower runs enumerate
    cases = {"3_1_c5": (3, 1, 5), "2_2_c5": (2, 2, 5), "5_1_c4": (5, 1, 4)}
    return {name: PcGroup(triangle_quotient(TriangleParams(p, k), c).pres) for name, (p, k, c) in cases.items()}


def test_walk_matches_eager_build(g51, tower_groups):
    # the memoised walk of b against every walk built at once, as the
    # group used to hold them: the same step tables, in the same order
    cases = [(g51.group, None), (build_abelian(12).group, None), (tower_groups["3_1_c5"], None)]
    cases.append((tower_groups["5_1_c4"], 3000))
    for G, sample in cases:
        ref = eager_walks(G)
        elements = range(G.order) if sample is None else random.Random(7).sample(range(G.order), sample)
        for b in elements:
            assert [id(t) for t in G.walk(b)] == [id(t) for t in ref[b]]
    assert tower_groups["5_1_c4"].order == 5**8


def test_extend_from_start_is_left_multiplication(g51, neg1, g22, tower_groups):
    # _extend(G, orders, pc generators, x) sends y to x y
    quotient, _ = quotient_group(g22.group, lower_central_series(g22.group).terms[2])
    groups = [g51.group, neg1.group, build_abelian(12).group, quotient, tower_groups["3_1_c5"]]
    rng = random.Random(11)
    for G in groups:
        for x in [0, G.order - 1, *rng.sample(range(G.order), 3)]:
            assert _extend(G, G.presentation.orders, G.strides, x) == [G.mul(x, y) for y in range(G.order)]


@pytest.mark.parametrize("name", ["3_1_c5", "2_2_c5", "5_1_c4"])
def test_conjugation_tables_match_mul(tower_groups, name):
    # the tables extended from conjugated pc generators against g^-1 x g
    G = tower_groups[name]
    for g in G.generators:
        ig = G.inv(g)
        assert G.conjugation_table(g) == [G.mul(G.mul(ig, x), g) for x in range(G.order)]


def test_group_invariants_order_and_prime(g51):
    from bforge.families import build_abelian
    from math import prod

    G = g51.group
    assert G.order == len(G._walks) == prod(G.presentation.orders)
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


@pytest.mark.parametrize("n", [12, 30])
def test_element_orders_match_brute_beyond_p_groups(n):
    # |G| = n^2 with two or three primes: the order is the product of the
    # orders of the p-parts a^(|G|/p^k)
    G = build_abelian(n).group
    assert G.prime is None
    assert [G.element_order(a) for a in range(G.order)] == [brute_order(G, a) for a in range(G.order)]


# -- conjugacy ----------------------------------------------------------------


def test_class_of_identity(g51):
    assert set(bit_indices(conjugacy_class(g51.group, 0))) == {0}


def test_class_of_x_in_g51(g51):
    G = g51.group
    cls = set(bit_indices(conjugacy_class(G, g51.x)))
    assert cls == brute_class(G, g51.x)
    z = g51.named["z"]
    assert cls == {G.mul(g51.x, G.pow(z, j)) for j in range(5)}
    assert len(cls) == 5


def test_classes_partition_group(g31):
    G = g31.group
    sizes, class_id, reps = G.conjugacy_data()
    masks = [conjugacy_class(G, r) for r in reps]
    assert [m.bit_count() for m in masks] == sizes
    assert all(class_id[r] == cid for cid, r in enumerate(reps))
    assert sum(m.bit_count() for m in masks) == G.order
    assert all(G.order % m.bit_count() == 0 for m in masks)
    union = 0
    for m in masks:
        assert union & m == 0
        union |= m
    assert union == (1 << G.order) - 1


def test_classes_match_brute(neg1):
    G = neg1.group
    for a in range(0, G.order, 7):
        assert set(bit_indices(conjugacy_class(G, a))) == brute_class(G, a)


# -- subgroup machinery ---------------------------------------------------------



def test_power_classes_match_brute(neg1, g22):
    # the per-class key: the classes met by <a>, from brute_class of every power
    for G in (neg1.group, g22.group, build_abelian(6).group):
        _, _, reps = G.conjugacy_data()
        masks = [conjugacy_class(G, r) for r in reps]  # by class id
        brute = {}
        for a in range(G.order):
            powers = [G.pow(a, j) for j in range(brute_order(G, a))]
            met = {frozenset(brute.setdefault(b, frozenset(brute_class(G, b)))) for b in powers}
            assert {frozenset(bit_indices(masks[c])) for c in bit_indices(G.power_classes(a))} == met
            assert brute_classes(G, G.power_classes(a)) == set().union(*met)

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
        assert isinstance(s, Subgroup) and 0 in s
        assert G.order % len(s) == 0
        members = list(s.indices())
        sample = members if len(members) <= 16 else rng.sample(members, 16)
        for a in sample:
            assert G.inv(a) in s
            for b in sample:
                assert G.mul(a, b) in s


CLOSURE_GROUPS = ("neg1", "case-ii-1", "case-iii-2", "c6c6", "case-iii-2/gamma3")


@pytest.fixture(scope="module")
def closure_groups(neg1, g31, g22):
    lcs = lower_central_series(g22.group)
    quotient, _ = quotient_group(g22.group, lcs.terms[2])
    groups = [neg1.group, g31.group, g22.group, build_abelian(6).group, quotient]
    return dict(zip(CLOSURE_GROUPS, groups))


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_closures_match_brute_and_fold(closure_groups, name, data):
    # the coset-at-a-time closures against word-length BFS (members) and
    # against a from-scratch recompute per kept seed (members and gens)
    G = closure_groups[name]
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    sub = subgroup_closure(G, seeds)
    assert set(sub.indices()) == brute_closure(G, seeds)
    assert (sub.mask, sub.gens) == fold_subgroup_closure(G, seeds)
    ncl = normal_closure(G, seeds)
    assert set(ncl.indices()) == brute_normal_closure(G, seeds)
    assert (ncl.mask, ncl.gens) == fold_normal_closure(G, seeds)


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_closure_membership_matches_mask(closure_groups, name, data):
    # membership reduces modulo the induced sequence, mask enumerates its
    # normal words and len reads the table: they must agree after every add
    G = closure_groups[name]
    cl = Subgroup(G)
    for s in data.draw(st.lists(st.integers(0, G.order - 1), max_size=4)):
        cl.add(s)
        mask = cl.mask
        assert [x in cl for x in range(G.order)] == [bool(mask >> x & 1) for x in range(G.order)]
        assert len(cl) == mask.bit_count()


@pytest.mark.parametrize("name", [n for n in CLOSURE_GROUPS if n != "c6c6"])
def test_agemo_matches_brute_and_fold(closure_groups, name):
    G = closure_groups[name]
    powers = [G.pow(g, G.prime) for g in range(G.order)]
    omega = agemo(G, 1)
    assert set(omega.indices()) == brute_closure(G, powers)
    assert (omega.mask, omega.gens) == fold_subgroup_closure(G, powers)


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
    assert is_normal(g51.group, n)


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


@pytest.mark.parametrize(
    "build,size",
    [
        (lambda: build_abelian(6).group, 1),
        (lambda: build_abelian(12).group, 4),
        (lambda: build_abelian(20).group, 4),
        (lambda: build_abelian(36).group, 36),
        (lambda: PcGroup(make_presentation("h3c2", ("c", "x", "y", "z"), (2, 3, 3, 3), {}, {(2, 1): ((3, 1),)})), 3),
    ],
    ids=["c6c6", "c12c12", "c20c20", "c36c36", "h3c2"],
)
def test_frattini_beyond_p_groups(build, size):
    # Phi(C_n x C_n) = C_(n/r) x C_(n/r), r the product of the primes of n;
    # Phi(Heisenberg(3) x C_2) is the Heisenberg centre
    G = build()
    f = frattini(G)
    assert len(f) == size
    assert set(f.indices()) == brute_frattini(G)


def test_mem_available_reads_meminfo_text():
    text = "MemTotal:        8211456 kB\nMemFree:         1024 kB\nMemAvailable:    7721984 kB\nBuffers: 2 kB\n"
    assert mem_available(text) == 7721984 * 1024
    assert mem_available("MemTotal:        8211456 kB\n") is None


def test_agemo_zero_is_group(g51):
    assert agemo(g51.group, 0).mask == (1 << g51.group.order) - 1


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


def test_trivial_quotient_projection_holds_no_table(g31):
    G = g31.group
    Q, proj = quotient_group(G, G.trivial_set())
    assert Q is G and proj.is_automorphism
    assert isinstance(proj.full_map, range)
    assert [proj.full_map[a] for a in range(G.order)] == [proj(a) for a in range(G.order)] == list(range(G.order))
    tabled = Homomorphism(G, G, tuple(range(G.order)))  # the map as a table
    assert proj.kernel() == tabled.kernel() == 1


def test_facts_are_derived_not_stored(g51, c5c5):
    # normality, being an automorphism and a series' indices are read from
    # the objects themselves: no constructor takes them, and none is settable
    G = g51.group
    for make in (
        lambda: Subgroup(G, is_normal=True),
        lambda: Homomorphism(G, G, range(G.order), True),
        lambda: Homomorphism(G, G, range(G.order), is_automorphism=True),
        lambda: NormalSeries(G, (G.as_set(),), (125,)),
        lambda: NormalSeries(G, (G.as_set(),), theta_invariant=(True,)),
    ):
        with pytest.raises(TypeError):
            make()
    assert not hasattr(G.trivial_set(), "is_normal")
    assert g51.theta.is_automorphism
    assert not hom_from_images(G, c5c5.group, [g51.x, g51.y], [c5c5.x, c5c5.y]).is_automorphism
    with pytest.raises(AttributeError):
        g51.theta.is_automorphism = False
    lcs = lower_central_series(G)
    assert lcs.indices == (25, 5)
    assert NormalSeries(G, lcs.terms[1:]).indices == (5,)


def test_quotient_negative_order(g31):
    G = g31.group
    N = normal_closure(G, [G.pow(g31.xy(), 3)])
    Q, proj = quotient_group(G, N)
    assert Q.order == 81
    assert proj.kernel() == N.mask


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


def _paper_case(build, seeds, rotate=False):
    # phi is theta, or with rotate the order-4 automorphism x -> y -> x^-1,
    # which moves normal subgroups such as <x>^G and is not its own inverse
    def make():
        pg = build()
        G, x, y = pg.group, pg.x, pg.y
        phi = hom_from_images(G, G, [x, y], [y, G.inv(x)]) if rotate else pg.theta
        return G, phi, [s(G, x, y) for s in seeds]

    return make


def _h3c2_case():
    # Heisenberg(3) x C2, not a p-group; phi inverts x and y
    G = PcGroup(make_presentation("h3c2", ("c", "x", "y", "z"), (2, 3, 3, 3), {}, {(2, 1): ((3, 1),)}))
    c, x, y, z = (G.gen_index(i) for i in range(4))
    phi = hom_from_images(G, G, [c, x, y, z], [c, G.inv(x), G.inv(y), z])
    return G, phi, [c, z, x, G.mul(c, z)]


def _c16_case():
    # C16 as a chain of order-2 generators with power tails; phi inverts a
    pres = make_presentation("c16", ["a", "b", "c", "d"], [2, 2, 2, 2], {0: [(1, 1)], 1: [(2, 1)], 2: [(3, 1)]})
    G = PcGroup(pres)
    a = G.gen_index(0)
    return G, hom_from_images(G, G, [a], [G.inv(a)]), [G.gen_index(i) for i in (1, 2, 3)]


QUOTIENT_CASES = {
    "neg1": _paper_case(lambda: build_negative(1), [
        lambda G, x, y: x, lambda G, x, y: G.mul(x, y), lambda G, x, y: G.comm(y, x),
        lambda G, x, y: G.pow(G.mul(x, y), 3),
    ]),
    # relative orders 25: N = <x^5>^G lowers the image of x to order 5
    "case-i-5-2": _paper_case(lambda: build_case_i(5, 2), [
        lambda G, x, y: G.pow(x, 5), lambda G, x, y: G.comm(y, x),
        lambda G, x, y: G.pow(G.comm(y, x), 5), lambda G, x, y: G.mul(x, G.pow(y, 5)),
    ], rotate=True),
    "c6c6": _paper_case(lambda: build_abelian(6), [
        lambda G, x, y: x, lambda G, x, y: G.pow(x, 2), lambda G, x, y: G.pow(x, 3),
        lambda G, x, y: G.mul(y, G.pow(x, 2)),
    ], rotate=True),
    "h3c2": _h3c2_case,
    "c16": _c16_case,
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_matches_coset_oracle(name):
    # the induced pc presentation against the coset construction, for N
    # trivial, N = G, the lower central terms and normal closures of seeds
    G, phi, seeds = QUOTIENT_CASES[name]()
    normals = [G.trivial_set(), G.as_set(), *lower_central_series(G).terms[1:-1]]
    normals += [normal_closure(G, [s]) for s in seeds]
    rng = random.Random(29)
    pairs = (
        [(a, b) for a in range(G.order) for b in range(G.order)]
        if G.order <= 100
        else [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(3000)]
    )
    lowered, moved = False, 0
    for N in normals:
        Q, proj = quotient_group(G, N)
        assert consistency_check(Q.presentation) is None
        assert Q.order * len(N) == G.order
        assert proj.kernel() == N.mask
        assert all(proj(G.mul(a, b)) == Q.mul(proj(a), proj(b)) for a, b in pairs)
        coset_of, reps = brute_quotient(G, N)
        image = [proj(r) for r in reps]
        assert len(set(image)) == Q.order == len(reps)
        assert all(proj(a) == image[coset_of[a]] for a in range(G.order))
        induced = brute_induced(G, coset_of, reps, phi)
        if induced is None:
            moved += 1
            with pytest.raises(HomomorphismError, match="does not preserve the kernel"):
                induced_automorphism(proj, phi)
        else:
            thq = induced_automorphism(proj, phi)
            assert thq.is_automorphism
            assert [thq(q) for q in image] == [image[c] for c in induced]
        pres = G.presentation
        lowered |= any(m < pres.orders[pres.index(nm)] for nm, m in zip(Q.presentation.names, Q.presentation.orders))
    assert lowered == (name == "case-i-5-2")
    assert bool(moved) == (name in ("case-i-5-2", "c6c6"))


def _tower(tp):
    # the class-4 triangle quotient and G/N for every distinct term N of its
    # refinement series, weight 2 up
    pg = paper_group_from_nq(triangle_quotient(tp, 4), tp)
    G, masks, out = pg.group, set(), []
    for i in range(2, len(lower_central_series(G).terms)):
        for term in refinement_series(pg, i).terms:
            if term.mask not in masks:
                masks.add(term.mask)
                out.append(quotient_group(G, term))
    return pg, out


def _tower_quotients(tp):
    return _tower(tp)[1]


def _frattini_quotients():
    # the five inputs of the benchmark's search workload
    tp = TriangleParams(2, 2)
    groups = [build_abelian(13).group, paper_group_from_nq(triangle_quotient(tp, 4), tp).group,
              build_negative(1).group, build_abelian(9).group, build_case_iii(2).group]
    return [quotient_group(G, frattini(G)) for G in groups]


def _negative_quotient():
    # build_negative(1)'s quotient of the case-ii group by <(xy)^3>^G
    base = build_case_ii(1)
    G = base.group
    return [quotient_group(G, normal_closure(G, [G.pow(base.xy(), 3)]), "negative_3_1")]


# sha256 of the printed presentations and of the projections' full maps,
# concatenated in order; any change to how quotients are presented moves them
_QUOTIENT_SHA256 = {
    "tower-3-1-c4": (
        lambda: _tower_quotients(TriangleParams(3, 1)),
        "20cd06378e247267b31d0a72a0bef3b520b0509dd72201794e444156d69bda1b",
        "697b91a545bf62b9d34bba5d40d0857d6e92b7dbb9f638fc5b495b98fc9b56a7",
    ),
    "tower-2-2-c4": (
        lambda: _tower_quotients(TriangleParams(2, 2)),
        "ea3fde38bf16a3a001ec859f0d3a9dd61aa7f6e646cee8b0382877e6f6ece844",
        "b05569974478758c597662d0bc9b11dcf92f842fdb40df34ed7c0078f00651e6",
    ),
    "frattini-bench-search": (
        _frattini_quotients,
        "8cca6184b6e318dc4cb2f704fdc718b715fd2252153c73232c85816427c40c3a",
        "f4cc733cbf0f3088532be94b3b0517358176b217a7dfb249dc285da7bf9fccf4",
    ),
    "negative-3-1": (
        _negative_quotient,
        "8215122727888ae87359d0ce1e975c781f93f7658a3ce5eb251dbbaecb13ee41",
        "cc2bd8a0138ef2d59458e7d381b5bbec4808f93a452f2bc9bb3c07735e5c0051",
    ),
}


@pytest.mark.parametrize("name", sorted(_QUOTIENT_SHA256))
def test_quotient_presentations_pinned(name):
    build, pres_sha, map_sha = _QUOTIENT_SHA256[name]
    pres, maps = hashlib.sha256(), hashlib.sha256()
    for Q, proj in build():
        pres.update(print_presentation(Q.presentation).encode())
        maps.update(",".join(map(str, proj.full_map)).encode() + b";")
    assert (pres.hexdigest(), maps.hexdigest()) == (pres_sha, map_sha)


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
    assert h.kernel().bit_count() == 5


def test_quotient_pc_presentation_with_power_tails():
    # C16 as a chain of four order-2 generators, modulo the last one: the
    # induced presentation keeps the nontrivial power tails
    from bforge.pc import consistency_check, make_presentation

    pres = make_presentation(
        "c16", ["a", "b", "c", "d"], [2, 2, 2, 2],
        {0: [(1, 1)], 1: [(2, 1)], 2: [(3, 1)]},
    )
    G = PcGroup(pres)
    N = subgroup_closure(G, [G.gen_index(3)])
    Q, proj = quotient_group(G, N, "c8")
    assert Q.presentation.order() == 8
    assert Q.presentation.names == ("a", "b", "c")
    assert Q.presentation.power_tails[0] == ((1, 1),)
    assert Q.presentation.power_tails[2] == ()
    assert consistency_check(Q.presentation) is None
    a8 = proj(G.gen_index(0))
    assert Q.element_order(a8) == 8


def test_induced_automorphism_on_quotient(g31):
    G = g31.group
    N = normal_closure(G, [g31.named["t"]])
    Q, proj = quotient_group(G, N)
    thq = induced_automorphism(proj, g31.theta)
    assert thq.is_automorphism
    assert thq(proj(g31.x)) == Q.inv(proj(g31.x))
    rng = random.Random(23)
    for _ in range(1000):
        a, b = rng.randrange(Q.order), rng.randrange(Q.order)
        assert thq(Q.mul(a, b)) == Q.mul(thq(a), thq(b))


# -- homomorphisms held as pc images ------------------------------------------


def _assert_pc_images_agree(h):
    # h(a) evaluated from the pc images for every a, before any table
    # exists, against the table built on first read and against the
    # breadth-first map from the images of the source's marked generators
    G, H = h.source, h.target
    fresh = Homomorphism(G, H, pc_images=h.pc_images)
    evaluated = tuple(fresh(a) for a in range(G.order))
    assert evaluated == tuple(fresh.full_map) == tuple(h.full_map)
    gens = G.generators
    assert bfs_hom(G, H, gens, [evaluated[g] for g in gens]) == (evaluated, h.is_automorphism)


_TOWERS = [TriangleParams(3, 1), TriangleParams(2, 2)]


@pytest.mark.parametrize("tp, orders", [
    (TriangleParams(3, 1), [9, 27, 81, 243, 729, 2187]),
    (TriangleParams(2, 2), [16, 32, 64, 128, 256, 512, 1024]),
], ids=["tower-3-1-c4", "tower-2-2-c4"])
def test_tower_projections_from_pc_images(tp, orders):
    quotients = _tower_quotients(tp)
    assert [Q.order for Q, _ in quotients] == orders  # the last is G itself, by the identity's range
    for _, proj in quotients:
        _assert_pc_images_agree(proj)


@pytest.mark.parametrize("build", [
    lambda: build_case_i(5, 1), lambda: build_case_i(5, 2), lambda: build_case_ii(1),
    lambda: build_case_iii(2), lambda: build_negative(1), lambda: build_abelian(12),
    lambda: paper_group_from_nq(triangle_quotient(TriangleParams(3, 1), 4), TriangleParams(3, 1)),
], ids=["case-i-5-1", "case-i-5-2", "case-ii-1", "case-iii-2", "negative-1", "abelian-12", "tq-3-1-c4"])
def test_family_theta_from_pc_images(build):
    theta = build().theta
    assert theta.is_automorphism
    _assert_pc_images_agree(theta)


@pytest.mark.parametrize("tp", _TOWERS, ids=["tower-3-1-c4", "tower-2-2-c4"])
def test_induced_automorphisms_from_pc_images(tp, monkeypatch):
    # the automorphisms quotient_strongly_real induces on every tower quotient
    import bforge.beauville as beauville

    induced = []
    induce = beauville.induced_automorphism
    monkeypatch.setattr(beauville, "induced_automorphism", lambda *a: induced.append(induce(*a)) or induced[-1])
    pg, quotients = _tower(tp)
    pairs = beauville.paper_structure(pg, *beauville.recipe_exponents(tp.p, None, None))
    for _, proj in quotients:
        beauville.quotient_strongly_real(proj, pg.theta, *pairs, 10**6)
    assert len(induced) == len(quotients)
    for thq in induced:
        assert thq.is_automorphism
        _assert_pc_images_agree(thq)


def test_criterion_2_isomorphisms_from_pc_images(monkeypatch):
    import bforge.reproduce as reproduce

    isos = []
    build = reproduce.hom_from_images
    monkeypatch.setattr(reproduce, "hom_from_images", lambda *a: isos.append(build(*a)) or isos[-1])
    assert reproduce.criterion_2(reproduce.GroupCache()).ok
    assert len(isos) == len(reproduce._NQ_MATCHES)
    for iso in isos:
        assert not iso.is_automorphism and len(set(iso.full_map)) == iso.source.order
        _assert_pc_images_agree(iso)


def test_criterion_2_reports_a_failed_isomorphism(monkeypatch):
    # a map that hom_from_images refuses is a FAIL line, not an exception
    import bforge.reproduce as reproduce

    def refuse(*args):
        raise HomomorphismError("not well-defined: relation x^5 violated")

    monkeypatch.setattr(reproduce, "hom_from_images", refuse)
    result = reproduce.criterion_2(reproduce.GroupCache())
    assert not result.ok
    failed = [d for d in result.details if d.startswith("FAIL ") and d.endswith("iso False")]
    assert len(failed) == len(reproduce._NQ_MATCHES)


def test_injective_map_into_a_larger_group_is_not_surjective(c5c5):
    # C_5 -> C_5 x C_5 has a trivial kernel and misses 20 elements
    C5 = PcGroup(make_presentation("c5", ["c"], [5]))
    with pytest.raises(HomomorphismError, match="not surjective"):
        hom_from_images(C5, c5c5.group, [C5.gen_index(0)], [c5c5.x])
    with pytest.raises(HomomorphismError, match="not surjective"):
        bfs_hom(C5, c5c5.group, [C5.gen_index(0)], [c5c5.x])


def test_hom_from_images_builds_no_table(g31):
    # theta is its pc images until its full map is read
    G = g31.group
    h = hom_from_images(G, G, [g31.x, g31.y], [G.inv(g31.x), G.inv(g31.y)])
    assert h.pc_images == g31.theta.pc_images
    assert h._map is None
    assert h(g31.named["z"]) == g31.theta(g31.named["z"]) and h._map is None
    assert h.full_map is h.full_map and h._map is not None
