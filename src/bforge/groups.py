"""Enumerated finite groups: arithmetic, subgroup machinery, series, quotients.

Elements are dense indices 0..|G|-1; for pc-backed groups the index is the
mixed-radix rank of the normal-form exponent vector (lexicographic order),
so index 0 is the identity.  Subsets of a group are bitmasks over indices.

Groups are single-threaded objects: their caches (inverses, element orders,
conjugacy data, power classes, Frattini lines, ...) fill on first read.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import CapExceeded, HomomorphismError
from .pc import (
    PcPresentation,
    Word,
    prime_power_base,
    format_word,
    require_consistent,
)

_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]

# Not used by bforge itself; the benchmark tracer reads it for its
# groups.pcgroup_build.over_table_cap counter.
TABLE_CAP = 1024
DEFAULT_ORDER_CAP = 10**6
# Rough memory a PcGroup takes per element once built (about 620 bytes
# measured at order 59049), before any cache fills.
BYTES_PER_ELEMENT = 1024


def memory_limit() -> int:
    """Bytes this process may use: physical memory, or RLIMIT_AS when lower."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return limit if soft == resource.RLIM_INFINITY else min(limit, soft)


def bit_indices(mask: int) -> Iterator[int]:
    """Iterate set-bit positions of a (possibly huge) mask, ascending."""
    if mask <= 0:
        return
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    base = 0
    for byte in data:
        if byte:
            for off in _BYTE_BITS[byte]:
                yield base + off
        base += 8


@dataclass(frozen=True)
class ElementSet:
    """Dense index-set over a group; the working currency for subgroups,
    conjugacy classes and sigma sets."""

    group: "FiniteGroup"
    mask: int
    is_subgroup: bool = False
    is_normal: bool = False
    gens: Optional[tuple[int, ...]] = None

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask >> idx & 1)

    def indices(self) -> Iterator[int]:
        return bit_indices(self.mask)

    def issubset(self, other: "ElementSet") -> bool:
        return self.mask & ~other.mask == 0


class FiniteGroup:
    """Base class: index arithmetic plus shared cached algorithms."""

    identity = 0

    def __init__(self, order: int, prime: Optional[int], generators: list[int], name: str):
        self.order = order
        self.prime = prime
        self.generators = list(generators)
        self.name = name
        self._order_cache: dict[int, int] = {}
        self._inv_cache: dict[int, int] = {}
        self._classes: Optional[tuple[list[int], list[int], list[int]]] = None
        self._power_classes: dict[int, frozenset] = {}
        self._conj_union_cache: dict[frozenset, int] = {}
        self._lcs: Optional[NormalSeries] = None
        self._frattini: Optional[ElementSet] = None
        self._exponent: Optional[int] = None
        self._lines: Optional[list[int]] = None  # [] once known not to apply

    # -- arithmetic ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        cached = self._inv_cache.get(a)
        if cached is None:
            cached = self.pow(a, self.element_order(a) - 1)
            self._inv_cache[a] = cached
        return cached

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        res = 0
        sq = a
        while e:
            if e & 1:
                res = self.mul(res, sq)
            e >>= 1
            if e:
                sq = self.mul(sq, sq)
        return res

    def conjugate(self, a: int, g: int) -> int:
        return self.mul(self.mul(self.inv(g), a), g)

    def comm(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def element_order(self, a: int) -> int:
        o = self._order_cache.get(a)
        if o is not None:
            return o
        if self.prime is not None:
            p = self.prime
            o = 1
            x = a
            while x:
                x = self.pow(x, p)
                o *= p
        else:
            o = 1
            x = a
            while x:
                x = self.mul(x, a)
                o += 1
        self._order_cache[a] = o
        return o

    def exponent(self) -> int:
        if self._exponent is None:
            _, _, reps = self.conjugacy_data()
            self._exponent = max(self.element_order(r) for r in reps)
        return self._exponent

    def element_name(self, a: int) -> str:
        return f"e{a}"

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def as_set(self) -> ElementSet:
        return ElementSet(self, self.full_mask(), True, True, tuple(self.generators))

    def trivial_set(self) -> ElementSet:
        return ElementSet(self, 1, True, True, ())

    # -- conjugacy -----------------------------------------------------------

    def conjugacy_data(self) -> tuple[list[int], list[int], list[int]]:
        """(class mask per class id, class id per element, class reps).

        Classes are orbits under conjugation by the marked generators, which
        generate the group; computed once and cached.
        """
        if self._classes is None:
            tabs = []
            for g in self.generators:
                ig = self.inv(g)
                tabs.append([self.mul(self.mul(ig, x), g) for x in range(self.order)])
            class_id = [-1] * self.order
            masks: list[int] = []
            reps: list[int] = []
            for a in range(self.order):
                if class_id[a] >= 0:
                    continue
                cid = len(masks)
                class_id[a] = cid
                mask = 1 << a
                stack = [a]
                while stack:
                    x = stack.pop()
                    for tab in tabs:
                        y = tab[x]
                        if class_id[y] < 0:
                            class_id[y] = cid
                            mask |= 1 << y
                            stack.append(y)
                masks.append(mask)
                reps.append(a)
            self._classes = (masks, class_id, reps)
        return self._classes

    def power_classes(self, a: int) -> frozenset:
        """Ids of the conjugacy classes that <a> meets.  Conjugate elements
        meet the same classes, so this is computed once per class."""
        _, class_id, _ = self.conjugacy_data()
        cid = class_id[a]
        key = self._power_classes.get(cid)
        if key is None:
            ids = {class_id[0]}
            x = a
            while x:
                ids.add(class_id[x])
                x = self.mul(x, a)
            key = self._power_classes[cid] = frozenset(ids)
        return key

    def conjugate_union(self, a: int) -> int:
        """Mask of the union of all conjugates of <a>."""
        key = self.power_classes(a)
        if key not in self._conj_union_cache:
            masks, _, _ = self.conjugacy_data()
            self._conj_union_cache[key] = sum(masks[cid] for cid in key)  # disjoint masks
        return self._conj_union_cache[key]

    def nilpotency_class(self) -> int:
        return len(lower_central_series(self).terms) - 1

    def mark_generators(self, gens: list[int]) -> None:
        """Replace the marked generating set; verifies it still generates
        (orbit and series machinery silently depend on that)."""
        if _closure_of_gens(self, list(gens)) != self.full_mask():
            raise ValueError("marked elements do not generate the group")
        self.generators = list(gens)

    def frattini_lines(self) -> Optional[list[int]]:
        """For a 2-generated p-group: the maximal subgroup ('line' of the
        Frattini quotient) containing each element, -1 inside Phi(G).
        Two elements generate iff their lines exist and differ.  None for
        any other group."""
        if self._lines is None:
            self._lines = []
            if self.prime is None or self.order != len(frattini(self)) * self.prime**2:
                return None
            Q, proj = quotient_group(self, frattini(self))
            line_of_coset = [-1] * Q.order
            for c in range(1, Q.order):
                if line_of_coset[c] >= 0:
                    continue
                members = []
                x = c
                while x != 0:
                    members.append(x)
                    x = Q.mul(x, c)
                lid = min(members)
                for m in members:
                    line_of_coset[m] = lid
            self._lines = [line_of_coset[proj(g)] for g in range(self.order)]
        return self._lines or None


class PcGroup(FiniteGroup):
    """Group enumerated from a consistent pc presentation.

    Right-multiplication tables by generator powers back all arithmetic:
    a * b walks a through the tables of b's normal-form digits, listed once
    per element, so memory stays linear in |G| at every order.  The tables
    are built from the last generator up by lookups into the tables already
    built (see _build_gen_step); nothing is collected symbolically.  A
    group whose order times BYTES_PER_ELEMENT exceeds memory_limit() is
    refused with CapExceeded before anything is built.
    """

    def __init__(self, pres: PcPresentation, cap: int = DEFAULT_ORDER_CAP):
        order = pres.order()
        if order > cap:
            raise CapExceeded(f"group order {order} exceeds cap {cap}")
        limit = memory_limit()
        if order * BYTES_PER_ELEMENT > limit:
            raise CapExceeded(
                f"group order {order} needs about {order * BYTES_PER_ELEMENT >> 20} MB, "
                f"more than the {limit >> 20} MB this process may use"
            )
        require_consistent(pres)
        n = pres.ngens
        strides = [1] * n
        for i in range(n - 2, -1, -1):
            strides[i] = strides[i + 1] * pres.orders[i + 1]
        self.presentation = pres
        self.strides = strides
        super().__init__(order, pres.prime(), strides, pres.name)
        self._build_gen_step()

    # construction ----------------------------------------------------------

    def _build_gen_step(self) -> None:
        """Right-multiplication tables by g_i^e, and each element's walk,
        from the last generator up by lookups alone (consistent presentations).

        G_i = <g_i, ..., g_{n-1}> is the first |G_i| indices, and w = g_i^e s
        in it (s in G_{i+1}) has w g_i = g_i^(e+1) s^(g_i), with the power
        tail for g_i^(m_i).  Conjugation by g_i sends s = g_j s' (g_j leading)
        to g_j [g_j, g_i] s'^(g_i): one walk through G_{i+1}'s tables.  The
        G_i table is broadcast over the prefixes.  walks[b] lists the tables
        gen_step[i][e] of b's nonzero digits e, in order."""
        pres, strides = self.presentation, self.strides
        steps: list[list[Optional[list[int]]]] = []
        self.walks: list[tuple[list[int], ...]] = [()]  # of G_{i+1}: self.mul works there
        for i in range(pres.ngens - 1, -1, -1):
            m, st = pres.orders[i], strides[i]
            conj = [0] * st  # s -> s^(g_i) on G_{i+1}
            for j in range(pres.ngens - 1, i, -1):
                cj = self.element_of_word(((j, 1),) + pres.comm_tails.get((j, i), ()))
                for s in range(strides[j], pres.orders[j] * strides[j]):
                    conj[s] = self.mul(cj, conj[s - strides[j]])
            tail = self.element_of_word(pres.power_tails[i])
            local = [hi + c for hi in range(st, m * st, st) for c in conj]
            local += [self.mul(tail, c) for c in conj]
            step1 = [hi + t for hi in range(0, self.order, m * st) for t in local]
            tabs: list[Optional[list[int]]] = [None, step1]
            for _ in range(2, m):
                tabs.append([step1[x] for x in tabs[-1]])  # shares step1's ints
            steps.insert(0, tabs)
            digit = ((),) + tuple((t,) for t in tabs[1:])
            self.walks = [d + w for d in digit for w in self.walks]  # index order
        self.gen_step = steps

    # arithmetic -------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        for step in self.walks[b]:
            a = step[a]
        return a

    def vec(self, a: int) -> tuple[int, ...]:
        """Normal-form exponent vector of element a (its mixed-radix digits)."""
        return tuple(a // st % m for st, m in zip(self.strides, self.presentation.orders))

    def index_of(self, vec: tuple[int, ...]) -> int:
        s = 0
        for st, e in zip(self.strides, vec):
            s += st * e
        return s

    def gen_index(self, i: int) -> int:
        """Element index of pc generator g_i."""
        return self.strides[i]

    def element_of_word(self, word: Word) -> int:
        return _eval_word(self, self.strides, word)

    def word_of(self, a: int) -> Word:
        return tuple((i, e) for i, e in enumerate(self.vec(a)) if e)

    def element_name(self, a: int) -> str:
        return format_word(self.word_of(a), self.presentation.names)


class CosetGroup(FiniteGroup):
    """G/N on canonical coset representatives (minimal element index)."""

    def __init__(self, parent: FiniteGroup, normal: ElementSet):
        nmembers = list(normal.indices())
        coset_of = [-1] * parent.order
        reps: list[int] = []
        for a in range(parent.order):
            if coset_of[a] >= 0:
                continue
            cid = len(reps)
            reps.append(a)
            for h in nmembers:
                coset_of[parent.mul(a, h)] = cid
        self.parent = parent
        self.reps = reps
        self.coset_of = coset_of
        order = len(reps)
        prime = parent.prime if parent.prime and prime_power_base(order) == parent.prime else None
        if order == 1:
            prime = parent.prime
        gens = sorted({coset_of[g] for g in parent.generators})
        super().__init__(order, prime, gens, f"{parent.name}/N{len(normal)}")

    def mul(self, a: int, b: int) -> int:
        return self.coset_of[self.parent.mul(self.reps[a], self.reps[b])]

    def inv(self, a: int) -> int:
        return self.coset_of[self.parent.inv(self.reps[a])]

    def element_name(self, a: int) -> str:
        return self.parent.element_name(self.reps[a])


# -- homomorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """A total homomorphism given by its full index map."""

    source: FiniteGroup
    target: FiniteGroup
    full_map: tuple[int, ...]
    is_automorphism: bool = False

    def __call__(self, a: int) -> int:
        return self.full_map[a]

    def kernel(self) -> ElementSet:
        mask = 0
        for a, fa in enumerate(self.full_map):
            if fa == 0:
                mask |= 1 << a
        return ElementSet(self.source, mask, True, True)


def _spanning_words(G: FiniteGroup, gens: list[int]) -> tuple[list[int], list[int], list[int]]:
    """BFS spanning tree of G under right multiplication by gens.

    Returns (visit order, parent element, generator position used).
    """
    parent = [-1] * G.order
    via = [-1] * G.order
    seen = [False] * G.order
    seen[0] = True
    order_out = [0]
    head = 0
    while head < len(order_out):
        x = order_out[head]
        head += 1
        for pos, s in enumerate(gens):
            y = G.mul(x, s)
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                via[y] = pos
                order_out.append(y)
    if len(order_out) != G.order:
        raise HomomorphismError("given elements do not generate the source group")
    return order_out, parent, via


def _eval_word(H: FiniteGroup, images: list[int], word: Word) -> int:
    x = 0
    for g, e in word:
        x = H.mul(x, H.pow(images[g], e))
    return x


def hom_from_images(
    G: PcGroup,
    H: FiniteGroup,
    gens: list[int],
    images: list[int],
) -> Homomorphism:
    """Extend gens -> images to the unique homomorphism, or fail.

    Well-definedness is verified against the defining relations of the
    source presentation only (never a full multiplication check); the images
    must generate the target.
    """
    if len(gens) != len(images):
        raise ValueError("gens/images length mismatch")
    order_out, parent, via = _spanning_words(G, gens)
    fmap = [0] * G.order
    for y in order_out[1:]:
        fmap[y] = H.mul(fmap[parent[y]], images[via[y]])
    pres = G.presentation
    n = pres.ngens
    pc_imgs = [fmap[G.gen_index(i)] for i in range(n)]
    for i in range(n):
        lhs = H.pow(pc_imgs[i], pres.orders[i])
        rhs = _eval_word(H, pc_imgs, pres.power_tails[i])
        if lhs != rhs:
            raise HomomorphismError(
                f"not well-defined: relation {pres.names[i]}^{pres.orders[i]} violated"
            )
    for j in range(n):
        for i in range(j):
            a, b = pc_imgs[j], pc_imgs[i]
            lhs = H.mul(H.mul(H.inv(a), H.inv(b)), H.mul(a, b))
            rhs = _eval_word(H, pc_imgs, pres.comm_tails.get((j, i), ()))
            if lhs != rhs:
                raise HomomorphismError(
                    f"not well-defined: relation [{pres.names[j]}, {pres.names[i]}] violated"
                )
    if len(subgroup_closure(H, images)) != H.order:
        raise HomomorphismError("not surjective: images do not generate the target")
    bijective = H.order == G.order and len(set(fmap)) == G.order
    return Homomorphism(G, H, tuple(fmap), H is G and bijective)


def induced_automorphism(Q: CosetGroup, phi: Homomorphism) -> Homomorphism:
    """Push an automorphism of the parent through the coset projection.

    Well-defined exactly when phi fixes the kernel setwise, which is checked;
    the induced map is then automatically a bijective homomorphism.
    """
    if not phi.is_automorphism or phi.source is not Q.parent:
        raise HomomorphismError("need an automorphism of the quotient's parent")
    nmask = 0
    for q, c in enumerate(Q.coset_of):
        if c == 0:
            nmask |= 1 << q
    for h in bit_indices(nmask):
        if not nmask >> phi(h) & 1:
            raise HomomorphismError("automorphism does not preserve the kernel")
    fmap = tuple(Q.coset_of[phi(Q.reps[q])] for q in range(Q.order))
    return Homomorphism(Q, Q, fmap, True)


# -- subgroup machinery ------------------------------------------------------


def _closure_of_gens(G: FiniteGroup, gens: list[int]) -> int:
    mask = 1
    members = [0]
    for s in gens:
        if mask >> s & 1:
            continue
        mask |= 1 << s
        members.append(s)
    head = 0
    while head < len(members):
        x = members[head]
        head += 1
        for s in gens:
            y = G.mul(x, s)
            if not mask >> y & 1:
                mask |= 1 << y
                members.append(y)
    return mask


def subgroup_closure(G: FiniteGroup, seeds: Iterable[int]) -> ElementSet:
    """Smallest subgroup containing the seeds.

    Folds seeds one by one, skipping those already generated, so the number
    of closure passes is bounded by the subgroup chain length (<= log2 |G|).
    """
    gens: list[int] = []
    mask = 1
    for s in seeds:
        if not mask >> s & 1:
            gens.append(s)
            mask = _closure_of_gens(G, gens)
    return ElementSet(G, mask, True, False, tuple(gens))


def normal_closure(G: FiniteGroup, seeds: Iterable[int]) -> ElementSet:
    """Smallest normal subgroup containing the seeds."""
    gens: list[int] = []
    mask = 1
    pending = [s for s in seeds]
    while pending:
        s = pending.pop()
        if mask >> s & 1:
            continue
        gens.append(s)
        mask = _closure_of_gens(G, gens)
        for g in G.generators:
            pending.append(G.conjugate(s, g))
    return ElementSet(G, mask, True, True, tuple(gens))


def is_normal(G: FiniteGroup, s: ElementSet) -> bool:
    gens = s.gens if s.gens is not None else list(s.indices())
    return all(s.mask >> G.conjugate(h, g) & 1 for h in gens for g in G.generators)


def conjugacy_class(G: FiniteGroup, a: int) -> ElementSet:
    masks, class_id, _ = G.conjugacy_data()
    return ElementSet(G, masks[class_id[a]])


@dataclass(frozen=True)
class NormalSeries:
    """Descending series of normal subgroups with per-step annotations."""

    group: FiniteGroup
    terms: tuple[ElementSet, ...]
    indices: tuple[int, ...]
    theta_invariant: tuple[Optional[bool], ...] = ()

    def orders(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)


def _series_indices(terms: list[ElementSet]) -> tuple[int, ...]:
    return tuple(len(a) // len(b) for a, b in zip(terms, terms[1:]))


def lower_central_series(G: FiniteGroup) -> NormalSeries:
    """G = gamma_1 >= gamma_2 >= ... terminating at 1."""
    if G._lcs is not None:
        return G._lcs
    terms = [G.as_set()]
    while len(terms[-1]) > 1:
        H = terms[-1]
        hgens = H.gens if H.gens is not None else list(H.indices())
        comms = [G.comm(h, g) for h in hgens for g in G.generators]
        N = normal_closure(G, comms)
        if N.mask == H.mask:
            raise ValueError(f"{G.name}: lower central series does not reach 1")
        terms.append(N)
    series = NormalSeries(G, tuple(terms), _series_indices(terms), (None,) * len(terms))
    G._lcs = series
    return series


def frattini(G: FiniteGroup) -> ElementSet:
    """Frattini subgroup of a p-group: G' G^p."""
    if G._frattini is not None:
        return G._frattini
    if G.prime is None:
        raise ValueError("frattini requires a p-group")
    lcs = lower_central_series(G)
    gamma2 = lcs.terms[1] if len(lcs.terms) > 1 else G.trivial_set()
    seeds = list(gamma2.gens or gamma2.indices())
    seeds += [G.pow(g, G.prime) for g in G.generators]
    sub = subgroup_closure(G, seeds)
    result = ElementSet(G, sub.mask, True, True, sub.gens)
    G._frattini = result
    return result


def agemo(G: FiniteGroup, i: int) -> ElementSet:
    """Subgroup generated by all p^i-th powers."""
    if G.prime is None:
        raise ValueError("agemo requires a p-group")
    if i <= 0:
        return G.as_set()
    e = G.prime**i
    gens: list[int] = []
    mask = 1
    for g in range(G.order):
        v = G.pow(g, e)
        if not mask >> v & 1:
            gens.append(v)
            mask = _closure_of_gens(G, gens)
    return ElementSet(G, mask, True, True, tuple(gens))


def quotient_group(G: FiniteGroup, N: ElementSet) -> tuple[CosetGroup, Homomorphism]:
    """Coset group G/N plus the projection; rejects non-normal N."""
    gens = list(N.gens) if N.gens is not None else list(N.indices())
    if not N.mask & 1:
        raise ValueError("N does not contain the identity")
    check = subgroup_closure(G, gens)
    if check.mask != N.mask:
        raise ValueError("N is not a subgroup")
    if not is_normal(G, N):
        raise ValueError("N is not normal")
    Q = CosetGroup(G, N)
    return Q, Homomorphism(G, Q, tuple(Q.coset_of))


# -- induced pc presentation for quotients -----------------------------------


@dataclass
class QuotientPresentation:
    """A pc presentation of G/N induced on surviving generator images,
    cross-checked against the coset construction."""

    pres: PcPresentation
    group: "PcGroup"
    to_new: Callable[[int], int]  # parent element index -> induced group index


def quotient_pc_presentation(G: PcGroup, N: ElementSet, name: str) -> QuotientPresentation:
    """Derive a consistent pc presentation of G/N on the surviving images of
    G's pc generators, and verify it presents the coset quotient via a
    generator-image isomorphism."""
    from .pc import make_presentation

    Q, proj = quotient_group(G, N)
    n = G.presentation.ngens
    below_mask = [1] * (n + 1)  # below_mask[i] = <images of g_i..g_{n-1}> in Q
    kept: list[tuple[int, int, int]] = []  # (parent index, image, relative order)
    chain_gens: list[int] = []
    for i in range(n - 1, -1, -1):
        gq = proj(G.gen_index(i))
        m = 1
        x = gq
        while not below_mask[i + 1] >> x & 1:
            x = Q.mul(x, gq)
            m += 1
        if m > 1:
            kept.append((i, gq, m))
        chain_gens.append(gq)
        below_mask[i] = _closure_of_gens(Q, chain_gens)
    kept.reverse()
    below_of_kept = [below_mask[i + 1] for (i, _, _) in kept]

    def factor(q: int) -> tuple[int, ...]:
        exps = []
        for pos, (_, gq, m) in enumerate(kept):
            below = below_of_kept[pos]
            for f in range(m):
                rest = Q.mul(Q.pow(gq, -f), q) if f else q
                if below >> rest & 1:
                    exps.append(f)
                    q = rest
                    break
            else:
                raise AssertionError("factorization failed")
        if q != 0:
            raise AssertionError("factorization failed")
        return tuple(exps)

    names = tuple(G.presentation.names[i] for (i, _, _) in kept)
    orders = tuple(m for (_, _, m) in kept)
    power_tails: dict[int, Word] = {}
    comm_tails: dict[tuple[int, int], Word] = {}
    for pos, (_, gq, m) in enumerate(kept):
        t = factor(Q.pow(gq, m))
        word = tuple((k, e) for k, e in enumerate(t) if e)
        if word:
            power_tails[pos] = word
    for pj in range(len(kept)):
        for pi in range(pj):
            c = Q.comm(kept[pj][1], kept[pi][1])
            word = tuple((k, e) for k, e in enumerate(factor(c)) if e)
            if word:
                comm_tails[(pj, pi)] = word
    pres = make_presentation(name, names, orders, power_tails, comm_tails)
    group = PcGroup(pres)

    def to_new_index(parent_elt: int) -> int:
        exps = factor(proj(parent_elt))
        return group.index_of(exps)

    # generator-image isomorphism onto the coset construction
    iso = hom_from_images(group, Q, [group.gen_index(i) for i in range(len(kept))],
                          [gq for (_, gq, _) in kept])
    if len(set(iso.full_map)) != Q.order:
        raise AssertionError("induced presentation is not isomorphic to the coset quotient")
    return QuotientPresentation(pres, group, to_new_index)
