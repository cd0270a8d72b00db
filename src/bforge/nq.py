"""Class-by-class nilpotent quotients of p-power triangle groups.

For T = <a, b | a^q = b^q = (ab)^r = 1> with q = p^k and r a p-power, the
quotient T/gamma_{c+1}(T) is computed inductively.  The class-c presentation
is extended by one central tail generator per non-defining relation (each
generator beyond a, b keeps the relation that defined it exact, so the
extended group is still generated by a and b).  The overlaps among the base
generators and the three imposed relators are collected in the extended
presentation; overlaps that involve a tail generator are not checked, since
the tails are central with trivial power relations and such an overlap
always gives the zero relation.  The resulting integer relations among the
tails are brought to Hermite form, whose unit pivots eliminate redundant
tails and whose nontrivial pivots become the new layer generators, each
defined by its own relation.

Layer arithmetic runs modulo p^E for E strictly larger than any order that
can occur; a post-hoc check (_require_modulus_unbound) proves the modulus
never binds.  Every emitted presentation is consistency-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import ShapeError
from .groups import DEFAULT_ORDER_CAP, require_order
from .pc import Collector, PcPresentation, Word, make_presentation, overlap_checks, require_consistent
from .zlinalg import hermite_form, hnf_reduce

DEFAULT_CLASS_BOUND = 4
MAX_CLASS_BOUND = 5

# relation ids: ("power", i) for g_i^{m_i}, ("comm", j, i) for [g_j, g_i]
RelId = Union[tuple[str, int], tuple[str, int, int]]


def _p_power_exp(m: int, p: int) -> int:
    e = 0
    while m % p == 0 and m > 1:
        m //= p
        e += 1
    if m != 1:
        raise ShapeError(f"{m} is not a power of {p}")
    return e


@dataclass(frozen=True)
class TriangleParams:
    """Parameters of the triangle group <a, b | a^q = b^q = (ab)^r = 1>."""

    p: int
    k: int
    r: Optional[int] = None

    def __post_init__(self):
        from .pc import prime_power_base

        if prime_power_base(self.p) != self.p:
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.q <= 2:
            raise ValueError("q = p^k must exceed 2")
        _p_power_exp(self.rr, self.p)
        if self.rr % self.q:
            raise ValueError("r must be a multiple of q (the abelianization is C_q x C_q)")

    @property
    def q(self) -> int:
        return self.p**self.k

    @property
    def rr(self) -> int:
        """Order imposed on ab: p^{k+1} for p = 3 else p^k, unless overridden."""
        if self.r is not None:
            return self.r
        return self.p ** (self.k + 1) if self.p == 3 else self.q


@dataclass(frozen=True)
class LayeredPresentation:
    """A consistent pc presentation of T/gamma_{c+1}(T) with layer data.

    definitions[i] is the relation of the presentation that introduced
    generator i (None for the images of a and b); that relation carries the
    generator as the last, exponent-1 factor of its tail.
    """

    pres: PcPresentation
    weights: tuple[int, ...]
    nilpotency_class: int
    definitions: tuple[Optional[RelId], ...]
    a_word: Word = ((0, 1),)
    b_word: Word = ((1, 1),)
    stabilized: bool = False

    def order(self) -> int:
        return self.pres.order()

    def layer_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for w, m in zip(self.weights, self.pres.orders):
            sizes[w] = sizes.get(w, 1) * m
        return sizes


def initial_class_quotient(tp: TriangleParams) -> LayeredPresentation:
    """T/gamma_2(T), the abelianization C_q x C_q; (ab)^r is redundant there."""
    pres = make_presentation(_name(tp, 1), ["a", "b"], [tp.q, tp.q])
    return LayeredPresentation(pres, (1, 1), 1, (None, None))


def _name(tp: TriangleParams, c: int) -> str:
    return f"tq_p{tp.p}_k{tp.k}_r{tp.rr}_c{c}"


def tail_cover(lp: LayeredPresentation, modulus: int) -> tuple[PcPresentation, list[RelId]]:
    """The presentation extending lp.pres by one central tail generator u_t
    of order modulus per relation that defines no generator, and the list of
    those relations (u_t's is tailed[t]).  The u_t appear in no commutator
    relation and have trivial power relations."""
    pres = lp.pres
    n = pres.ngens
    defined: set[RelId] = {d for d in lp.definitions if d is not None}

    relations: list[RelId] = [("power", i) for i in range(n)]
    relations += [("comm", j, i) for j in range(n) for i in range(j)]
    tailed = [rel for rel in relations if rel not in defined]
    col_of: dict[RelId, int] = {rel: t for t, rel in enumerate(tailed)}
    m = len(tailed)

    star_power: dict[int, Word] = {}
    star_comm: dict[tuple[int, int], Word] = {}
    for i in range(n):
        word = tuple(pres.power_tails[i])
        if ("power", i) in col_of:
            word += ((n + col_of[("power", i)], 1),)
        star_power[i] = word
    for j in range(n):
        for i in range(j):
            word = tuple(pres.comm_tails.get((j, i), ()))
            if ("comm", j, i) in col_of:
                word += ((n + col_of[("comm", j, i)], 1),)
            if word:
                star_comm[(j, i)] = word
    star = make_presentation(
        pres.name + "_cover",
        list(pres.names) + [f"u{t}" for t in range(m)],
        list(pres.orders) + [modulus] * m,
        star_power,
        star_comm,
    )
    return star, tailed


def _require_modulus_unbound(H: list[list[int]], surviving: list[int], low: int) -> None:
    """Raise unless low e_t reduces to 0 under the Hermite basis H for every
    surviving t, low = p^(E-1).  The surviving e_t generate Z^m/L, so then
    p^(E-1) Z^m lies in L = L_0 + p^E Z^m, L_0 the relations without the
    modulus rows, and by Nakayama (Z^m/L_0 a finite p-group) in L_0: the
    modulus did not bind.  A diagonal test alone misses lattices such as
    x + 3y = 0 mod 27, Hermite form [[3, 8], [0, 9]] but Z^2/L = C_27."""
    for t in surviving:
        if any(hnf_reduce(H, [0] * t + [low] + [0] * (len(H) - t - 1))):
            raise AssertionError("layer modulus p^E binds; enlarge E")


def extend_class(lp: LayeredPresentation, tp: TriangleParams) -> LayeredPresentation:
    """Extend T/gamma_{c+1} to T/gamma_{c+2}.

    Only the overlaps among the n base generators of the tail cover are
    checked.  The tail generators are central with trivial power relations,
    so both sides of an overlap that involves one of them collect to the
    same word and its row is zero; on the bench inputs such overlaps are
    about 99% of all checks at the last class step.

    Returns the input flagged stabilized when the new layer is trivial.
    """
    pres = lp.pres
    n = pres.ngens
    c = lp.nilpotency_class
    E = tp.k + c + 3
    modulus = tp.p**E
    star, tailed = tail_cover(lp, modulus)
    col_of: dict[RelId, int] = {rel: t for t, rel in enumerate(tailed)}
    m = len(tailed)
    coll = Collector(star)

    rows: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()

    def add_row(diff: list[int]) -> None:
        key = tuple(diff)
        if any(diff) and key not in seen:
            seen.add(key)
            rows.append(diff)

    for _, gens, lhs, rhs in overlap_checks(coll, n):
        if lhs[:n] != rhs[:n]:
            raise AssertionError(f"covering collection broke the base group at {gens}")
        add_row([lhs[n + t] - rhs[n + t] for t in range(m)])
    a = coll.collect(lp.a_word)
    b = coll.collect(lp.b_word)
    ab = coll.mul(a, b)
    for base, expo in ((a, tp.q), (b, tp.q), (ab, tp.rr)):
        v = coll.power(base, expo)
        if any(v[:n]):
            raise AssertionError("imposed relator does not vanish in the base group")
        add_row([v[n + t] for t in range(m)])
    for t in range(m):
        row = [0] * m
        row[t] = modulus
        add_row(row)

    H = hermite_form(rows, m)
    surviving = [t for t in range(m) if H[t][t] > 1]
    for t in surviving:
        _p_power_exp(H[t][t], tp.p)
    _require_modulus_unbound(H, surviving, modulus // tp.p)
    if not surviving:
        return replace(lp, stabilized=True)

    pos_of = {t: n + pos for pos, t in enumerate(surviving)}
    new_names = [f"w{c + 1}_{idx + 1}" for idx in range(len(surviving))]
    new_orders = [H[t][t] for t in surviving]

    def layer_word(t: int) -> Word:
        unit = [0] * m
        unit[t] = 1
        y = hnf_reduce(H, unit)
        return tuple((pos_of[s], y[s]) for s in surviving if y[s])

    def layer_tail_of(rel: RelId) -> Word:
        if rel in col_of:
            return layer_word(col_of[rel])
        return ()

    power_tails: dict[int, Word] = {}
    comm_tails: dict[tuple[int, int], Word] = {}
    for i in range(n):
        power_tails[i] = tuple(pres.power_tails[i]) + layer_tail_of(("power", i))
    for j in range(n):
        for i in range(j):
            word = tuple(pres.comm_tails.get((j, i), ())) + layer_tail_of(("comm", j, i))
            if word:
                comm_tails[(j, i)] = word
    for t in surviving:  # w_t^(H[t][t]) is the word that the rest of row t negates
        y = hnf_reduce(H, [0] * (t + 1) + [-v for v in H[t][t + 1:]])
        power_tails[pos_of[t]] = tuple((pos_of[s], y[s]) for s in surviving if y[s])
    out = make_presentation(
        _name(tp, c + 1),
        list(pres.names) + new_names,
        list(pres.orders) + new_orders,
        power_tails,
        comm_tails,
    )
    require_consistent(out)
    new_defs = lp.definitions + tuple(tailed[t] for t in surviving)
    return LayeredPresentation(out, lp.weights + (c + 1,) * len(surviving), c + 1, new_defs)


def triangle_quotient(
    tp: TriangleParams,
    class_bound: int = DEFAULT_CLASS_BOUND,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> LayeredPresentation:
    """T/gamma_{class_bound+1}(T) as a layered presentation (or the smaller
    stabilized quotient when the lower central series terminates early)."""
    if not 1 <= class_bound <= MAX_CLASS_BOUND:
        raise ValueError(f"class bound must be in 1..{MAX_CLASS_BOUND}")
    lp = initial_class_quotient(tp)
    while lp.nilpotency_class < class_bound:
        nxt = extend_class(lp, tp)
        if nxt.stabilized:
            return nxt
        require_order(tp.p, sum(_p_power_exp(m, tp.p) for m in nxt.pres.orders), order_cap)
        lp = nxt
    return lp
