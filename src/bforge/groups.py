"""Enumerated finite groups: arithmetic, subgroup machinery, series, quotients.

Every group is a PcGroup, quotients included.  Elements are dense indices
0..|G|-1, the mixed-radix rank of the normal-form exponent vector
(lexicographic order), so index 0 is the identity.  Subsets of a group are
bitmasks over indices.

Groups are single-threaded objects: their caches (inverses, element orders,
conjugacy data, power classes, Frattini lines, ...) fill on first read.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded, HomomorphismError
from .pc import PcPresentation, Word, format_word, prime_power_base, require_consistent

_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]
_MEMBER_DIGITS = bytes.maketrans(b"\0\1", b"01")  # membership bytes -> binary digits

# Not used by bforge itself; the benchmark tracer reads it for its
# groups.pcgroup_build.over_table_cap counter.
TABLE_CAP = 1024
DEFAULT_ORDER_CAP = 10**6
# Rough memory a PcGroup takes per element once built, before any cache
# fills: the build grows RSS by about 510 bytes per element at order 59049
# and 530 at order 390625.  Kept at 1 KB, since the caches come on top.
# Large relative orders take more: 8 bytes per element in each of the
# sum(m_i - 1) step tables, and 28 per generator (2,990 in all at 5^9, m_i = 125).
BYTES_PER_ELEMENT = 1024


def mem_available(meminfo: str) -> Optional[int]:
    """Bytes of MemAvailable in the text of /proc/meminfo, or None."""
    for line in meminfo.splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) * 1024
    return None


def memory_limit() -> int:
    """Bytes this process may still take: the memory available now (the
    physical memory when /proc/meminfo cannot be read), or RLIMIT_AS when
    lower."""
    try:
        with open("/proc/meminfo") as f:
            limit = mem_available(f.read())
    except OSError:
        limit = None
    if limit is None:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return limit if soft == resource.RLIM_INFINITY else min(limit, soft)


def _pack(members: bytes) -> int:
    """Membership bytes, 0 or 1 per index, as a bitmask in one linear pass."""
    return int(members.translate(_MEMBER_DIGITS)[::-1], 2)


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
    """Dense index-set over a group; the working currency for subgroups and
    conjugacy classes.  (Sigma sets are masks over class ids, not over
    elements: see beauville.sigma.)"""

    group: "PcGroup"
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


class PcGroup:
    """Group enumerated from a consistent pc presentation.

    Right-multiplication tables by generator powers back all arithmetic:
    a * b walks a through the tables of b's nonzero normal-form digits
    (walk(b), memoised for the elements used as right factors), so memory
    stays linear in |G| at every order.  Whole-group tables (the step
    tables, maps, conjugation tables, cosets) walk whole columns of
    indices instead, one lookup per index and digit (_extend).  The step
    tables are built from the last generator up that way (see
    _build_gen_step); nothing is collected symbolically.  A group of order
    above cap, or whose estimated memory (BYTES_PER_ELEMENT per element, or
    more for large relative orders) exceeds memory_limit(), is refused with
    CapExceeded before anything is built; this is the one place where a
    group's size is checked.
    """

    identity = 0

    def __init__(self, pres: PcPresentation, cap: int = DEFAULT_ORDER_CAP):
        order = pres.order()
        if order > cap:
            raise CapExceeded(f"group order {order} exceeds cap {cap}")
        limit = memory_limit()
        need = order * max(BYTES_PER_ELEMENT, 8 * sum(m - 1 for m in pres.orders) + 28 * pres.ngens + 512)
        if need > limit:
            raise CapExceeded(
                f"group order {order} needs about {need >> 20} MB, "
                f"more than the {limit >> 20} MB this process may use"
            )
        require_consistent(pres)
        n = pres.ngens
        strides = [1] * n
        for i in range(n - 2, -1, -1):
            strides[i] = strides[i + 1] * pres.orders[i + 1]
        self.presentation = pres
        self.strides = strides
        primes = sorted({prime_power_base(m) for m in pres.orders})
        self._p_parts = [(p, prod(m for m in pres.orders if m % p)) for p in primes]  # (p, |G| / p^k)
        self.order = order
        self.prime = primes[0] if len(primes) == 1 else None
        self.generators = list(strides)
        self.name = pres.name
        self._order_cache: dict[int, int] = {}
        self._inv_cache: dict[int, int] = {}
        self._classes: Optional[tuple[list[int], list[int], list[int]]] = None
        self._power_classes: dict[int, int] = {}
        self._lcs: Optional[NormalSeries] = None
        self._frattini: Optional[ElementSet] = None
        self._exponent: Optional[int] = None
        self._lines: Optional[tuple[list[tuple[int, ...]], tuple[int, ...]]] = None
        self._build_gen_step()

    # -- construction --------------------------------------------------------

    def _build_gen_step(self) -> None:
        """Right-multiplication tables by g_i^e, from the last generator up
        by column walks alone (consistent presentations).

        G_i = <g_i, ..., g_{n-1}> is the first |G_i| indices, and w = g_i^e s
        in it (s in G_{i+1}) has w g_i = g_i^(e+1) s^(g_i), with the power
        tail t for g_i^(m_i), so w g_i = t s^(g_i) when e = m_i - 1.
        Conjugation by g_i is the automorphism of G_{i+1} sending g_j to
        g_j [g_j, g_i], so s -> s^(g_i) and s -> t s^(g_i) are _extend
        calls on G_{i+1}'s tables, which are complete by then.  The G_i
        table is broadcast over the prefixes."""
        pres, strides = self.presentation, self.strides
        self._walks: list[Optional[tuple[list[int], ...]]] = [None] * self.order
        self._walks[0] = ()
        self.gen_step: list[list[Optional[list[int]]]] = [[]] * pres.ngens  # G_{i+1} reads only past i
        for i in range(pres.ngens - 1, -1, -1):
            m, st, below = pres.orders[i], strides[i], pres.orders[i + 1:]
            conj_images = [
                self.element_of_word(((j, 1),) + pres.comm_tails.get((j, i), ()))
                for j in range(i + 1, pres.ngens)
            ]
            conj = _extend(self, below, conj_images)  # s -> s^(g_i) on G_{i+1}
            tail = self.element_of_word(pres.power_tails[i])
            local = [hi + c for hi in range(st, m * st, st) for c in conj]
            local += _extend(self, below, conj_images, tail)
            step1 = [hi + t for hi in range(0, self.order, m * st) for t in local]
            tabs: list[Optional[list[int]]] = [None, step1]
            for _ in range(2, m):
                tabs.append([step1[x] for x in tabs[-1]])  # shares step1's ints
            self.gen_step[i] = tabs

    # -- arithmetic ----------------------------------------------------------

    def conjugation_table(self, g: int) -> list[int]:
        """[g^-1 x g for every x]: conjugation by g is the automorphism
        sending each pc generator g_k to g^-1 g_k g, so the table is
        extended from those images by column walks (_extend)."""
        return _extend(self, self.presentation.orders, [self.conjugate(s, g) for s in self.strides])

    def walk(self, b: int) -> tuple[list[int], ...]:
        """The step tables gen_step[i][e] of b's nonzero digits e, in order:
        a * b is a walked through them.  Memoised per element on first use,
        from b's leading digit and the walk of the rest of b."""
        w = self._walks[b]
        if w is None:
            for st, tabs in zip(self.strides, self.gen_step):
                if b >= st:
                    w = self._walks[b] = (tabs[b // st],) + self.walk(b % st)
                    break
        return w

    def mul(self, a: int, b: int) -> int:
        for step in self._walks[b] or self.walk(b):  # the memo first: search calls this per pair
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
        """The product over the primes p of |G|, with p^k || |G|, of the
        order of a's p-part a^(|G|/p^k), found by p-th powers until 1."""
        o = self._order_cache.get(a)
        if o is None:
            o = 1
            for p, cofactor in self._p_parts:
                x = self.pow(a, cofactor)
                while x:
                    x = self.pow(x, p)
                    o *= p
            self._order_cache[a] = o
        return o

    def exponent(self) -> int:
        if self._exponent is None:
            _, _, reps = self.conjugacy_data()
            self._exponent = max(self.element_order(r) for r in reps)
        return self._exponent

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def as_set(self) -> ElementSet:
        return ElementSet(self, self.full_mask(), True, True, tuple(self.generators))

    def trivial_set(self) -> ElementSet:
        return ElementSet(self, 1, True, True, ())

    # -- conjugacy -----------------------------------------------------------

    def conjugacy_data(self) -> tuple[list[int], list[int], list[int]]:
        """(class size per class id, class id per element, class reps).

        Classes are orbits under conjugation by the marked generators, which
        generate the group; computed once and cached.  Ids ascend with the
        reps, and each rep is its class's least index.
        """
        if self._classes is None:
            tabs = [self.conjugation_table(g) for g in self.generators]
            class_id = [-1] * self.order
            sizes: list[int] = []
            reps: list[int] = []
            for a in range(self.order):
                if class_id[a] >= 0:
                    continue
                cid = len(sizes)
                class_id[a] = cid
                orbit = [a]
                for x in orbit:  # grows while it runs
                    for tab in tabs:
                        y = tab[x]
                        if class_id[y] < 0:
                            class_id[y] = cid
                            orbit.append(y)
                sizes.append(len(orbit))
                reps.append(a)
            self._classes = (sizes, class_id, reps)
        return self._classes

    def power_classes(self, a: int) -> int:
        """Mask over class ids of the conjugacy classes that <a> meets, so
        bit 0 (the identity's class) is always set.  Conjugate elements meet
        the same classes, so this is computed once per class."""
        _, class_id, _ = self.conjugacy_data()
        cid = class_id[a]
        mask = self._power_classes.get(cid)
        if mask is None:
            mask, x = 1, a
            while x:
                mask |= 1 << class_id[x]
                x = self.mul(x, a)
            self._power_classes[cid] = mask
        return mask

    def nilpotency_class(self) -> int:
        return len(lower_central_series(self).terms) - 1

    def mark_generators(self, gens: list[int]) -> None:
        """Replace the marked generating set; sift_pairs verifies that it
        still generates (orbit and series machinery silently depend on that)."""
        try:
            sift_pairs(self, self, gens, gens)
        except HomomorphismError:
            raise ValueError("marked elements do not generate the group") from None
        self.generators = list(gens)

    def frattini_lines(self) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
        """(lines, ranks): Q = G/Phi(G) is the product over the primes p of
        |G| of F_p^(d_p), with ranks the d_p (see frattini).  lines[a] is the
        id of <a Phi(G)>: the tuple over p of the least index in Q of the line
        <a^(r/p) Phi(G)>, r the product of the primes (0 when it is trivial).
        For a p-group that is (a's Frattini line,), and (0,) inside Phi(G)."""
        if self._lines is None:
            Q, proj = quotient_group(self, frattini(self))
            primes = [p for p, _ in self._p_parts]
            least = {0: 0}  # element of prime order in Q -> least index of its line

            def part(c: int, p: int) -> int:
                h = Q.pow(c, prod(primes) // p)
                if h not in least:
                    members = [h]
                    while x := Q.mul(members[-1], h):
                        members.append(x)
                    least.update(dict.fromkeys(members, min(members)))
                return least[h]

            ids = [tuple(part(c, p) for p in primes) for c in range(Q.order)]
            self._lines = ([ids[q] for q in proj.full_map], tuple(Q.presentation.orders.count(p) for p in primes))
        return self._lines


FiniteGroup = PcGroup  # the public name of the one group class, kept for its callers


# -- homomorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """A total homomorphism given by its full index map."""

    source: PcGroup
    target: PcGroup
    full_map: Sequence[int]  # a tuple, or a range for the identity map
    is_automorphism: bool = False

    def __call__(self, a: int) -> int:
        return self.full_map[a]

    def kernel(self) -> ElementSet:
        return ElementSet(self.source, _pack(bytes(map((0).__eq__, self.full_map))), True, True)


def _eval_word(H: PcGroup, images: list[int], word: Word) -> int:
    x = 0
    for g, e in word:
        x = H.mul(x, H.pow(images[g], e))
    return x


def sift_pairs(G: PcGroup, H: PcGroup, gens: list[int], images: list[int]) -> list[int]:
    """The images in H of G's pc generators under gens[k] -> images[k], by
    sifting the pairs (g, image) into an induced pc sequence of <gens> that
    carries the images (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, section 8.3).

    table[d] = (u, h, e): u has depth d and leading exponent e | m_d (the
    identity, e = m_d, while d is empty).  A pair of leading exponent f at
    depth d sifts on by (u, h)^(-f/e) when e | f; else x^b u^-t, of leading
    exponent gcd(e, f), replaces (u, h), which is queued again.  Each new
    entry queues its m_d/e-th power and its commutators with the others.
    Raises unless every e ends at 1 (gens generate G) and every pair sifts
    to (1, 1) (well defined); then reduces bottom-up to (g_i, image of g_i).
    G needs mul, pow, comm, vec, presentation.orders; H mul, inv, pow, comm.
    """
    orders = G.presentation.orders
    table = [(0, 0, m) for m in orders]
    queue = list(zip(gens, images))
    well_defined = True
    while queue:
        x, k = queue.pop()
        while x:
            vec = G.vec(x)
            d = next(i for i, f in enumerate(vec) if f)
            f = vec[d]
            u, h, e = table[d]
            if f % e:
                g = gcd(e, f)
                b = pow(f // g, -1, e // g)
                t = (b * f - g) // e
                queue.append((u, h))
                u, h, e = G.mul(G.pow(x, b), G.pow(u, -t)), H.mul(H.pow(k, b), H.pow(h, -t)), g
                table[d] = (u, h, e)
                queue.append((G.pow(u, orders[d] // e), H.pow(h, orders[d] // e)))
                queue += [(G.comm(u, v), H.comm(h, w)) for v, w, _ in table if v and v != u]
            x, k = G.mul(x, G.pow(u, -(f // e))), H.mul(k, H.pow(h, -(f // e)))
        well_defined = well_defined and not k
    if any(e != 1 for _, _, e in table):
        raise HomomorphismError("given elements do not generate the source group")
    if not well_defined:
        raise HomomorphismError("not well-defined: a relation among the given elements fails on the images")
    pc_imgs = [0] * len(orders)
    for i in range(len(orders) - 1, -1, -1):
        u, h, _ = table[i]  # u = g_i t with t in G_{i+1}, and h = image of u
        tail = tuple((j, f) for j, f in enumerate(G.vec(u)) if j > i and f)
        pc_imgs[i] = H.mul(h, H.inv(_eval_word(H, pc_imgs, tail)))
    return pc_imgs


def hom_from_images(G: PcGroup, H: PcGroup, gens: list[int], images: list[int]) -> Homomorphism:
    """Extend gens -> images to the unique homomorphism, or fail.

    sift_pairs decides that gens generate G and that the map is well
    defined, and gives the images of G's pc generators; they are checked
    against the relations of G's presentation, _extend builds the full map
    from them by column walks, and it must send each of gens to its image.
    The image has order |G| / |kernel|, so counting 0 in the full map
    decides surjectivity; a map of G onto G is an automorphism.
    """
    if len(gens) != len(images):
        raise ValueError("gens/images length mismatch")
    pc_imgs = sift_pairs(G, H, gens, images)
    pres, names, n = G.presentation, G.presentation.names, G.presentation.ngens
    rels = [(f"{names[i]}^{m}", H.pow(pc_imgs[i], m), pres.power_tails[i]) for i, m in enumerate(pres.orders)]
    rels += [
        (f"[{names[j]}, {names[i]}]", H.comm(pc_imgs[j], pc_imgs[i]), pres.comm_tails.get((j, i), ()))
        for j in range(n) for i in range(j)
    ]
    for name, lhs, tail in rels:
        if lhs != _eval_word(H, pc_imgs, tail):
            raise HomomorphismError(f"not well-defined: relation {name} violated")
    fmap = _extend(H, pres.orders, pc_imgs)
    if any(fmap[g] != h for g, h in zip(gens, images)):
        raise HomomorphismError("not well-defined: a given element is not sent to its image")
    if G.order != H.order * fmap.count(0):
        raise HomomorphismError("not surjective: images do not generate the target")
    return Homomorphism(G, H, tuple(fmap), H is G)


# -- subgroup machinery ------------------------------------------------------


class _Closure:
    """Incremental subgroup closure, a whole right coset at a time (Dimino).

    Holds H = <gens> as a bytearray of members (seen), the member list, and
    the generators it kept.  add(s) with s outside H grows H to <H, s> by
    right cosets of the old H: first H s, then for each new coset rep r and
    each kept generator g (s included) an unseen r g starts the coset H (r g).
    The union is then closed under right multiplication by every kept
    generator, so it is the subgroup.  A coset H r is the member list walked
    through G.walk(r) as whole columns.  Cost: one lookup per new element
    and digit of its rep plus one mul per (coset, generator) pair, however
    many generators came before.
    """

    def __init__(self, G: PcGroup):
        self.group = G
        self.seen = bytearray(G.order)
        self.seen[0] = 1
        self.members = [0]
        self.gens: list[int] = []

    def add(self, s: int) -> bool:
        """Adjoin s; False (and nothing changes) when s is already a member."""
        seen = self.seen
        if seen[s]:
            return False
        mul, walk = self.group.mul, self.group.walk
        members = self.members
        old = members[:]
        gens = self.gens
        gens.append(s)

        def start_coset(r: int) -> None:
            coset = old
            for step in walk(r):
                coset = [step[h] for h in coset]
            for y in coset:
                seen[y] = 1
            members.extend(coset)

        start_coset(s)
        reps = [s]
        for r in reps:  # grows while it runs
            for g in gens:
                y = mul(r, g)
                if not seen[y]:
                    start_coset(y)
                    reps.append(y)
        return True

    def mask(self) -> int:
        """The members as a bitmask."""
        return _pack(self.seen)


def subgroup_closure(G: PcGroup, seeds: Iterable[int]) -> ElementSet:
    """Smallest subgroup containing the seeds.

    Adjoins the seeds one by one to a single _Closure, skipping those
    already generated; gens are the seeds it kept, in order.
    """
    cl = _Closure(G)
    for s in seeds:
        cl.add(s)
    return ElementSet(G, cl.mask(), True, False, tuple(cl.gens))


def normal_closure(G: PcGroup, seeds: Iterable[int]) -> ElementSet:
    """Smallest normal subgroup containing the seeds."""
    cl = _Closure(G)
    pending = [s for s in seeds]
    while pending:
        s = pending.pop()
        if cl.add(s):
            pending += [G.conjugate(s, g) for g in G.generators]
    return ElementSet(G, cl.mask(), True, True, tuple(cl.gens))


def is_normal(G: PcGroup, s: ElementSet) -> bool:
    gens = s.gens if s.gens is not None else list(s.indices())
    return all(s.mask >> G.conjugate(h, g) & 1 for h in gens for g in G.generators)


def conjugacy_class(G: PcGroup, a: int) -> ElementSet:
    """The conjugacy class of a, packed from the class ids in one pass."""
    _, class_id, _ = G.conjugacy_data()
    return ElementSet(G, _pack(bytes(map(class_id[a].__eq__, class_id))))


@dataclass(frozen=True)
class NormalSeries:
    """Descending series of normal subgroups with per-step annotations."""

    group: PcGroup
    terms: tuple[ElementSet, ...]
    indices: tuple[int, ...]
    theta_invariant: tuple[Optional[bool], ...] = ()

    def orders(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)


def _series_indices(terms: list[ElementSet]) -> tuple[int, ...]:
    return tuple(len(a) // len(b) for a, b in zip(terms, terms[1:]))


def lower_central_series(G: PcGroup) -> NormalSeries:
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


def frattini(G: PcGroup) -> ElementSet:
    """Frattini subgroup G' G^r, r the product of the primes of |G|: every
    tail lies in later generators, so a PcGroup is nilpotent, the product of
    its Sylow subgroups P, and Phi(G) is the product of their P' P^p."""
    if G._frattini is not None:
        return G._frattini
    lcs = lower_central_series(G)
    gamma2 = lcs.terms[1] if len(lcs.terms) > 1 else G.trivial_set()
    seeds = list(gamma2.gens or gamma2.indices())
    seeds += [G.pow(g, prod(p for p, _ in G._p_parts)) for g in G.generators]
    sub = subgroup_closure(G, seeds)
    result = ElementSet(G, sub.mask, True, True, sub.gens)
    G._frattini = result
    return result


def agemo(G: PcGroup, i: int) -> ElementSet:
    """Subgroup generated by all p^i-th powers."""
    if G.prime is None:
        raise ValueError("agemo requires a p-group")
    if i <= 0:
        return G.as_set()
    e = G.prime**i
    cl = _Closure(G)
    for g in range(G.order):
        cl.add(G.pow(g, e))
    return ElementSet(G, cl.mask(), True, True, tuple(cl.gens))


# -- quotients on their induced pc presentations -------------------------------


def quotient_group(G: PcGroup, N: ElementSet) -> tuple[PcGroup, Homomorphism]:
    """G/N and the projection; rejects an N that is not a normal subgroup.

    The trivial N gives G itself with the identity map, a range that holds
    no per-element table.  Any other N gives
    quotient_pc_presentation(G, N, "<G>/N<|N|>")."""
    gens = list(N.gens) if N.gens is not None else list(N.indices())
    if not N.mask & 1:
        raise ValueError("N does not contain the identity")
    check = subgroup_closure(G, gens)
    if check.mask != N.mask:
        raise ValueError("N is not a subgroup")
    if not is_normal(G, N):
        raise ValueError("N is not normal")
    if N.mask == 1:
        return G, Homomorphism(G, G, range(G.order), True)
    return quotient_pc_presentation(G, N, f"{G.name}/N{len(N)}")


def quotient_pc_presentation(G: PcGroup, N: ElementSet, name: str) -> tuple[PcGroup, Homomorphism]:
    """G/N as a PcGroup called name, on the pc presentation that G's induces
    on the images of its pc generators, and the projection.  N must be a
    normal subgroup (quotient_group checks that).

    The block rule: G_{i+1} = <g_{i+1}, ..., g_{n-1}> is the first stride_i
    indices, and the left coset u G_{i+1} of u = g_0^e_0 ... g_i^e_i is the
    index block [b stride_i, (b+1) stride_i) of its prefix b, because u w
    is a normal word for w in G_{i+1}.  So N G_{i+1} is the union of the
    blocks whose prefix lies in P_i = {h // stride_i : h in N}, and
    P_i = {b // m_{i+1} : b in P_{i+1}} gives them all from N in O(|N|).

    The image of g_i has relative order m, the least e >= 1 in P_i (g_i^e
    is the block e), or m_i when there is none; it is a generator of G/N
    when m > 1.  An x in N G_i is factored level by level: its exponent f
    on the image of g_i is the least f with g_i^-f x in N G_{i+1}, and
    g_i^-f x goes on to the next level.  The tails are the factored g_i^m
    and [g_j, g_i], and the projection extends the images of G's pc
    generators one digit at a time (_extend).  No coset is enumerated.
    """
    pres, strides = G.presentation, G.strides
    prefixes = [set(N.indices())]  # P_{n-1} first
    for m in pres.orders[:0:-1]:
        prefixes.append({b // m for b in prefixes[-1]})
    prefixes.reverse()
    kept = []  # (i, relative order of g_i's image) for the surviving g_i
    for i, (m_i, p_i) in enumerate(zip(pres.orders, prefixes)):
        m = next((e for e in range(1, m_i) if e in p_i), m_i)
        if m > 1:
            kept.append((i, m))

    def factor(x: int) -> tuple[int, ...]:
        exps = []
        for i, _ in kept:
            ginv, f = G.inv(strides[i]), 0
            while x // strides[i] not in prefixes[i]:
                x, f = G.mul(ginv, x), f + 1
            exps.append(f)
        return tuple(exps)

    def word(x: int) -> Word:
        return tuple((k, f) for k, f in enumerate(factor(x)) if f)

    gens = [strides[i] for i, _ in kept]
    comm_tails = {}
    for j, a in enumerate(gens):
        for i, b in enumerate(gens[:j]):
            if w := word(G.comm(a, b)):
                comm_tails[(j, i)] = w
    Q = PcGroup(PcPresentation(
        name,
        tuple(pres.names[i] for i, _ in kept),
        tuple(m for _, m in kept),
        tuple(word(G.pow(g, m)) for g, (_, m) in zip(gens, kept)),
        comm_tails,
    ))
    fmap = _extend(Q, pres.orders, [Q.index_of(factor(s)) for s in strides])
    Q.generators = sorted({fmap[g] for g in G.generators})
    return Q, Homomorphism(G, Q, tuple(fmap))


def _extend(H: PcGroup, orders: Iterable[int], images: Iterable[int], start: int = 0) -> list[int]:
    """The map sending the normal word g_0^e_0 ... g_{n-1}^e_{n-1} of a pc
    group with these relative orders, at its index, to
    start images[0]^e_0 ... images[n-1]^e_{n-1} in H.

    It is built one digit at a time: the map on the words in g_0..g_i is the
    map on g_0..g_{i-1} times images[i]^e for each e, and a whole column is
    multiplied by images[i] by walking it through H.walk(images[i]), one
    lookup per element, or per element and digit when images[i] is not a
    pc generator of H."""
    fmap = [start]
    for m, img in zip(orders, images):
        cols = [fmap]
        walk = H.walk(img)
        for _ in range(1, m):
            col = cols[-1]
            for step in walk:
                col = [step[a] for a in col]
            cols.append(col)
        fmap = [a for row in zip(*cols) for a in row]
    return fmap


def induced_automorphism(proj: Homomorphism, phi: Homomorphism) -> Homomorphism:
    """The automorphism of Q = proj.target that an automorphism phi of
    G = proj.source induces through the projection proj: G -> Q.

    It is the homomorphism psi of Q with psi(proj(g)) = proj(phi(g)) for
    G's pc generators g, built by hom_from_images.  psi exists exactly when
    phi maps the kernel of proj into itself: then it is well defined, and
    if it exists, psi proj and proj phi agree on generators of G, so
    proj(phi(kernel)) = psi(1) = 1.  It is then bijective, since phi is."""
    G, Q = proj.source, proj.target
    if not phi.is_automorphism or phi.source is not G:
        raise HomomorphismError("need an automorphism of the projection's source")
    try:
        return hom_from_images(Q, Q, [proj(s) for s in G.strides], [proj(phi(s)) for s in G.strides])
    except HomomorphismError:
        raise HomomorphismError("automorphism does not preserve the kernel") from None
