"""The acceptance suite: every headline claim checked exactly, one result
per criterion.  Shared by tests/test_acceptance.py and the `reproduce` CLI
command."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

from .beauville import (
    check_strongly_real,
    exhaustive_search,
    is_generating_pair,
    paper_structure,
    quotient_strongly_real,
    recipe_exponents,
)
from .errors import HomomorphismError
from .families import (
    PaperGroup,
    build_abelian,
    build_case_i,
    build_case_ii,
    build_case_iii,
    build_negative,
    paper_group_from_nq,
    refinement_series,
)
from .groups import (
    PcGroup,
    bit_indices,
    conjugacy_class,
    frattini,
    hom_from_images,
    lower_central_series,
    quotient_group,
    subgroup_closure,
)
from .nq import TriangleParams, triangle_quotient
from .pc import Collector


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    elapsed_s: float
    budget_s: float
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"CRITERION {self.number} [{self.name}]: {status} ({self.elapsed_s:.2f}s / budget {self.budget_s:.0f}s)"


class GroupCache:
    """Build each constructed group once per process."""

    def __init__(self):
        self._groups: dict = {}

    def get(self, key: str) -> PaperGroup:
        if key not in self._groups:
            builders: dict[str, Callable[[], PaperGroup]] = {
                "i_5_1": lambda: build_case_i(5, 1),
                "i_7_1": lambda: build_case_i(7, 1),
                "i_5_2": lambda: build_case_i(5, 2),
                "ii_1": lambda: build_case_ii(1),
                "ii_2": lambda: build_case_ii(2),
                "iii_2": lambda: build_case_iii(2),
                "iii_3": lambda: build_case_iii(3),
                "neg_1": lambda: build_negative(1),
            }
            self._groups[key] = builders[key]()
        return self._groups[key]


def _check(details: list[str], ok_so_far: bool, cond: bool, msg: str) -> bool:
    details.append(("ok   " if cond else "FAIL ") + msg)
    return ok_so_far and cond


def criterion_1(cache: GroupCache) -> CriterionResult:
    """Orders, exponents and o(xy) of the six explicit constructions."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    expected = [
        ("i_5_1", 125, 5, 5),
        ("i_7_1", 343, 7, 7),
        ("i_5_2", 15625, 25, 25),
        ("ii_1", 243, 9, 9),
        ("iii_2", 128, 4, 4),
        ("iii_3", 4096, 8, 8),
    ]
    for key, order, expo, oxy in expected:
        pg = cache.get(key)
        G = pg.group
        got = (G.order, G.exponent(), G.element_order(pg.xy()))
        ok = _check(details, ok, got == (order, expo, oxy), f"{G.name}: (order, exp, o(xy)) = {got}")
    return CriterionResult(1, "explicit constructions", ok, time.perf_counter() - t0, 5, details)


_NQ_MATCHES = [
    ((5, 1, None), 2, "i_5_1"),
    ((7, 1, None), 2, "i_7_1"),
    ((5, 2, None), 2, "i_5_2"),
    ((3, 1, None), 3, "ii_1"),
    ((2, 2, None), 3, "iii_2"),
    ((2, 3, None), 3, "iii_3"),
]


def criterion_2(cache: GroupCache) -> CriterionResult:
    """Nilpotent quotients reproduce the constructions up to verified
    generator-image isomorphism; the r = 3 variant collapses to order 81."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    for (p, k, r), cls, key in _NQ_MATCHES:
        tp = TriangleParams(p, k, r)
        lp = triangle_quotient(tp, cls)
        nq_group = PcGroup(lp.pres)
        a = nq_group.element_of_word(lp.a_word)
        b = nq_group.element_of_word(lp.b_word)
        nq_group.mark_generators([a, b])
        pg = cache.get(key)
        same_order = nq_group.order == pg.group.order
        tri_nq = tuple(nq_group.element_order(g) for g in (a, b, nq_group.mul(a, b)))
        tri_pg = tuple(pg.group.element_order(g) for g in (pg.x, pg.y, pg.xy()))
        iso_ok = False
        if same_order:  # a homomorphism onto a group of equal order is an isomorphism
            try:
                hom_from_images(nq_group, pg.group, [a, b], [pg.x, pg.y])
                iso_ok = True
            except HomomorphismError:
                pass
        ok = _check(
            details,
            ok,
            same_order and tri_nq == tri_pg and iso_ok,
            f"quotient p={p} k={k} class {cls}: order {nq_group.order}, triple orders {tri_nq}, iso {iso_ok}",
        )
    lp = triangle_quotient(TriangleParams(3, 1, 3), 3)
    ok = _check(details, ok, lp.order() == 81, f"p=3 k=1 r=3 class 3: order {lp.order()}")
    return CriterionResult(2, "nilpotent-quotient cross-validation", ok, time.perf_counter() - t0, 30, details)


_STRUCTURES = [
    ("i_5_1", 1, 3),
    ("i_7_1", 1, 3),
    ("ii_1", 1, 2),
    ("iii_2", 1, 2),
    ("i_5_2", 1, 3),
]


def criterion_3(cache: GroupCache) -> CriterionResult:
    """The recipe pairs form strongly real Beauville structures with trivial
    conjugators, by full sigma-set computation."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    for key, n1, n2 in _STRUCTURES:
        pg = cache.get(key)
        p1, p2 = paper_structure(pg, n1, n2)
        cert = check_strongly_real(pg.group, p1, p2, pg.theta, search_conjugators=False)
        good = bool(cert.beauville and cert.strongly_real and cert.conjugators == (0, 0))
        ok = _check(details, ok, good, f"{pg.group.name} (n1={n1}, n2={n2}): strongly real with trivial conjugators")
    return CriterionResult(3, "strongly real structures", ok, time.perf_counter() - t0, 60, details)


def criterion_4(cache: GroupCache) -> CriterionResult:
    """First-triple signatures: (p^k, p^k, p^k), except (3, 3, 9) at p = 3."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    expected = {
        "i_5_1": (5, 5, 5),
        "i_7_1": (7, 7, 7),
        "i_5_2": (25, 25, 25),
        "ii_1": (3, 3, 9),
        "iii_2": (4, 4, 4),
    }
    for key, sig in expected.items():
        pg = cache.get(key)
        p1, _ = paper_structure(pg, *recipe_exponents(pg.p, 1, None))
        ok = _check(details, ok, p1.signature == sig, f"{pg.group.name}: signature {p1.signature}")
    return CriterionResult(4, "signatures", ok, time.perf_counter() - t0, 5, details)


def criterion_5(cache: GroupCache) -> CriterionResult:
    """The order-81 quotient admits no Beauville structure (exhaustively),
    and its conjugacy/power structure matches the stated coset forms."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    pg = cache.get("neg_1")
    G = pg.group
    res = exhaustive_search(G, "prove-none")
    ok = _check(
        details,
        ok,
        res.found is None,
        f"no structure among {res.generating_pairs} generating pairs, "
        f"{res.distinct_sigma_sets} sigma classes, {res.sigma_pairs_checked} class pairs checked",
    )
    e = 3 ** (pg.k - 1)
    lcs = lower_central_series(G)
    derived = lcs.terms[1]
    derived_pow = subgroup_closure(G, [G.pow(h, e) for h in derived.indices()])
    xe = G.pow(pg.x, e)
    coset = {G.mul(xe, d) for d in derived_pow.indices()}
    cls = set(bit_indices(conjugacy_class(G, xe)))
    ok = _check(details, ok, cls == coset, f"class of x^{e} equals its derived-power coset ({len(cls)} elements)")
    phi = frattini(G)
    same_powers = all(G.pow(G.mul(pg.x, u), e) in coset for u in phi.indices())
    ok = _check(details, ok, same_powers, f"all of x*Phi(G) powers into the same coset ({len(phi)} elements tested)")
    return CriterionResult(5, "negative certification", ok, time.perf_counter() - t0, 600, details)


def criterion_6(cache: GroupCache) -> CriterionResult:
    """Refinement series: normal, theta-invariant, every index exactly p
    (refinement_series raises ValueError or AssertionError otherwise)."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    jobs = [("ii_1", (2, 3)), ("ii_2", (2,)), ("iii_2", (2, 3)), ("i_5_1", (2,))]
    for key, weights in jobs:
        pg = cache.get(key)
        for i in weights:
            try:
                series = refinement_series(pg, i)
            except (AssertionError, ValueError) as exc:
                ok = _check(details, ok, False, f"{pg.group.name} weight {i}: {exc}")
                continue
            msg = f"{pg.group.name} weight {i}: orders {series.orders()}, indices {series.indices}"
            ok = _check(details, ok, True, msg)
    return CriterionResult(6, "refinement series", ok, time.perf_counter() - t0, 60, details)


def criterion_7(cache: GroupCache) -> CriterionResult:
    """Every refinement quotient between the class-3 and class-4 kernels of
    the triangle quotients carries the lifted pairs as a strongly real
    Beauville structure."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    sigma_cap = 10**4
    for p, k in ((3, 1), (2, 2)):
        tp = TriangleParams(p, k)
        lp = triangle_quotient(tp, 4)
        if lp.stabilized:
            details.append(f"ok   p={p} k={k}: series stabilized at class {lp.nilpotency_class}, vacuous")
            continue
        pg = paper_group_from_nq(lp, tp)
        pairs = paper_structure(pg, 1, 2)
        series = refinement_series(pg, 4)
        for term in series.terms:
            Q, proj = quotient_group(pg.group, term)
            _, good, lift = quotient_strongly_real(proj, pg.theta, *pairs, sigma_cap)
            how = "lift" if lift else "full sigma"
            ok = _check(details, ok, good, f"p={p} k={k} |T/N|={Q.order}: strongly real ({how})")
    return CriterionResult(7, "class-4 quotient tower", ok, time.perf_counter() - t0, 900, details)


def criterion_8(cache: GroupCache) -> CriterionResult:
    """C_n x C_n has a Beauville structure exactly when gcd(n, 6) = 1."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    for n in (5, 7, 11, 13):
        pg = build_abelian(n)
        res = exhaustive_search(pg.group, "find")
        ok = _check(details, ok, res.found is not None, f"C{n} x C{n}: structure found")
    for n in (2, 3, 4, 6, 8, 9):
        pg = build_abelian(n)
        res = exhaustive_search(pg.group, "prove-none")
        ok = _check(
            details,
            ok,
            res.found is None,
            f"C{n} x C{n}: none among {res.distinct_sigma_sets} sigma classes",
        )
    return CriterionResult(8, "abelian search criterion", ok, time.perf_counter() - t0, 300, details)


def criterion_9(cache: GroupCache) -> CriterionResult:
    """Identity and property suites: the power expansion of (xy)^n, the
    commutator power identity, the exponent-level product collapses, and the
    order-preservation property on random qualifying pairs."""
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True

    for key in ("ii_1", "iii_2", "iii_3"):
        pg = cache.get(key)
        coll = Collector(pg.group.presentation)
        orders = pg.group.presentation.orders
        xv, yv = coll.gen_vec(0), coll.gen_vec(1)
        xyv = coll.mul(xv, yv)
        good = True
        for n in range(0, 2 * pg.group.exponent() + 1):
            B = (n - 1) * n * (2 * n - 1) // 6
            want = (
                n % orders[0],
                n % orders[1],
                comb(n, 2) % orders[2],
                comb(n, 3) % orders[3],
                B % orders[4],
            )
            if coll.power(xyv, n) != want:
                good = False
                break
        ok = _check(details, ok, good, f"{pg.group.name}: (xy)^n expansion for n <= 2 exp")
        good = True
        for i in range(0, pg.group.exponent() + 1):
            want = (0, 0, i % orders[2], comb(i, 2) % orders[3], 0)
            if coll.comm(yv, coll.power(xv, i)) != want:
                good = False
                break
        ok = _check(details, ok, good, f"{pg.group.name}: [y, x^i] = z^i t^binom(i,2) for i <= exp")

    g22 = cache.get("iii_2")
    G = g22.group
    q = 2**g22.k
    P = [G.pow(g, q) for g in range(G.order)]  # g -> g^q, read per pair
    good = all(P[G.mul(g, h)] == G.mul(P[g], P[h]) for g in range(G.order) for h in range(G.order))
    ok = _check(details, ok, good, f"{G.name}: (gh)^{q} = g^{q} h^{q} for all {G.order}^2 pairs")

    g31 = cache.get("ii_1")
    G = g31.group
    q = 3**g31.k
    phi = frattini(G)
    P = [G.pow(g, q) for g in range(G.order)]
    good = all(P[G.mul(g, h)] == P[g] for g in range(G.order) for h in phi.indices())
    ok = _check(details, ok, good, f"{G.name}: (gh)^{q} = g^{q} for all g and h in Phi")

    rng = random.Random(20260808)
    for key in ("i_5_1", "i_7_1", "ii_1", "iii_2", "i_5_2"):
        pg = cache.get(key)
        G = pg.group
        lcs = lower_central_series(G)
        Q, proj = quotient_group(G, lcs.terms[1])
        images = proj.full_map  # thousands of random elements are projected
        target, attempts, tested, good = 1000, 0, 0, True
        while tested < target and attempts < 200 * target:
            attempts += 1
            a = rng.randrange(1, G.order)
            b = rng.randrange(1, G.order)
            oa, ob = Q.element_order(images[a]), Q.element_order(images[b])
            if oa * ob != Q.order or G.element_order(a) != oa:
                continue
            if not is_generating_pair(G, a, b):
                continue
            tested += 1
            if G.power_classes(a) & G.power_classes(b) != 1:
                good = False
                break
        ok = _check(
            details,
            ok,
            good and tested == target,
            f"{G.name}: conjugate unions meet trivially on {tested} qualifying random pairs",
        )
    return CriterionResult(9, "identity suites", ok, time.perf_counter() - t0, 300, details)


CRITERIA: list[Callable[[GroupCache], CriterionResult]] = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
]


def run_criteria(only: Optional[list[int]] = None, cache: Optional[GroupCache] = None) -> list[CriterionResult]:
    cache = cache or GroupCache()
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if only and idx not in only:
            continue
        results.append(fn(cache))
    return results
