"""Enumerated finite groups: arithmetic, subgroup machinery, series, quotients.

Every group is a PcGroup, quotients included.  Elements are dense indices
0..|G|-1, the mixed-radix rank of the normal-form exponent vector
(lexicographic order), so index 0 is the identity.  A subgroup is its
induced pc sequence (Subgroup), a homomorphism the images of the source's
pc generators (Homomorphism), and a series its terms (NormalSeries);
normality, being an automorphism and a series' indices are decided from
these where they are read, never stored.  Other subsets, such as
conjugacy classes and kernels, are bitmasks over indices.

Groups are single-threaded objects: their caches (inverses, element orders,
conjugacy data, power classes, Frattini lines, ...) fill on first read.
"""

from __future__ import annotations

import os
import resource
from bisect import bisect_right
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


def require_order(base: int, exp: int, cap: int) -> None:
    """CapExceeded when base^exp > cap, before the power is built: base >= 2,
    so an exponent above cap's bit length is refused from it alone."""
    if base >= 2 and (exp > cap.bit_length() or base**exp > cap):
        raise CapExceeded(f"group order {base}^{exp} exceeds cap {cap}")


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
    CapExceeded before anything is built (families and nq check base^exp
    before that, by require_order).
    """

    identity = 0

    def __init__(self, pres: PcPresentation, cap: int = DEFAULT_ORDER_CAP):
        order = pres.order()
        if order > cap:
            # str() refuses an int of more than 4300 digits
            shown = order if order.bit_length() < 14000 else f"above 2^{order.bit_length() - 1}"
            raise CapExceeded(f"group order {shown} exceeds cap {cap}")
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
        self._frattini: Optional[Subgroup] = None
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
        table is broadcast over the digits of g_0..g_{i-1}."""
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

    def as_set(self) -> Subgroup:
        return Subgroup(self, [(s, 0, 1) for s in self.strides], tuple(self.generators))

    def trivial_set(self) -> Subgroup:
        return Subgroup(self)

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
        """Replace the marked generating set once the subgroup the elements
        sift into has order |G| (orbit and series machinery silently depend
        on generation)."""
        span = Subgroup(self)
        span.sift(gens)
        if len(span) != self.order:
            raise ValueError("marked elements do not generate the group")
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


class Homomorphism:
    """A homomorphism of pc groups onto its target, as pc_images, the images
    of the source's pc generators, which determine it: h(a) is the product
    of pc_images[i]^e_i over the nonzero digits e_i of a's normal word.
    Every one is onto (hom_from_images refuses any other, and projections
    and the identity are onto), so it is an automorphism exactly when its
    source is its target.

    full_map, the image of every index, is built from them by column walks
    (_extend) the first time it is read and cached, so h(a) is a lookup
    from then on; callers that map every element read it (frattini_lines,
    kernel, the find-strongly-real sweep, criterion 9's random pairs), and
    callers that map a few call h(a).  A map given as a table (the
    identity's range) is that cache, filled from the start, and its
    pc_images are read from it.
    """

    def __init__(self, source: PcGroup, target: PcGroup, full_map: Optional[Sequence[int]] = None,
                 *, pc_images: Optional[Sequence[int]] = None):
        self.source, self.target = source, target
        self._map = full_map
        self.pc_images = list(pc_images) if pc_images is not None else [full_map[s] for s in source.strides]

    def __call__(self, a: int) -> int:
        if self._map is not None:
            return self._map[a]
        return _eval_word(self.target, self.pc_images, self.source.word_of(a))

    @property
    def is_automorphism(self) -> bool:
        return self.source is self.target

    @property
    def full_map(self) -> Sequence[int]:
        if self._map is None:
            self._map = tuple(_extend(self.target, self.source.presentation.orders, self.pc_images))
        return self._map

    def kernel(self) -> int:
        """The kernel as a bitmask over the source's indices."""
        return _pack(bytes(map((0).__eq__, self.full_map)))


def _eval_word(H: PcGroup, images: list[int], word: Word) -> int:
    x = 0
    for g, e in word:
        x = H.mul(x, H.pow(images[g], e))
    return x


class _Trivial:
    """The trivial group: the image side of a sift that carries no images."""

    mul = pow = comm = staticmethod(lambda a, b: 0)


def _sift_into(G: PcGroup, H, table: list[tuple[int, int, int]], queue: list[tuple[int, int]]) -> bool:
    """Sift the queued pairs (x, image of x in H) into table, the induced pc
    sequence they generate, carrying the images (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, section 8.3); True when
    every pair sifted to (1, 1), so that the images are well defined.

    table[d] = (u, h, e): u has depth d and leading exponent e | m_d (the
    identity, e = m_d, while d is empty).  A pair of leading exponent f at
    depth d sifts on by (u, h)^(-f/e) when e | f; else x^b u^-t, of leading
    exponent gcd(e, f), replaces (u, h), which is queued again.  Each new
    entry queues its m_d/e-th power and its commutators with the others.
    Depth and leading exponent are digit reads; G and H need mul, pow, comm.
    """
    orders, strides = G.presentation.orders, G.strides
    ascending, n = strides[::-1], len(strides)
    well_defined = True
    while queue:
        x, k = queue.pop()
        while x:
            d = n - bisect_right(ascending, x)
            f = x // strides[d]
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
    return well_defined


def sift_pairs(G: PcGroup, H: PcGroup, gens: list[int], images: list[int]) -> list[int]:
    """The images in H of G's pc generators under gens[k] -> images[k], from
    the induced pc sequence of <gens> that _sift_into builds with the images.
    Raises unless every e ends at 1 (gens generate G) and every pair sifted
    to (1, 1) (well defined); then reduces bottom-up to (g_i, image of g_i).
    """
    orders = G.presentation.orders
    table = [(0, 0, m) for m in orders]
    well_defined = _sift_into(G, H, table, list(zip(gens, images)))
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
    against the relations of G's presentation, and the homomorphism they
    define must send each of gens to its image.  The image is the subgroup
    of H that they generate, sifted into its induced pc sequence, so
    comparing its order with |H| decides surjectivity; a map of G onto G is
    an automorphism.  No per-element map is built.
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
    hom = Homomorphism(G, H, pc_images=pc_imgs)
    if any(hom(g) != h for g, h in zip(gens, images)):
        raise HomomorphismError("not well-defined: a given element is not sent to its image")
    image = Subgroup(H)
    image.sift(pc_imgs)
    if len(image) != H.order:
        raise HomomorphismError("not surjective: images do not generate the target")
    return hom


# -- subgroup machinery ------------------------------------------------------


class Subgroup:
    """A subgroup of G as its induced pc sequence (a _sift_into table without
    images) and the seeds it kept, which generate it; is_normal(G, H)
    decides normality where it is needed.

    add(s) sifts s in and keeps it when the table changed, that is when s
    was not a member.  len(H) is the product of the m_d/e_d; x in H and the
    exponents of G/N read one reduction (residues): mul, pow, comm and digit
    reads alone.  Only mask, the members as a bitmask, needs the enumerated
    group: it is built on first read and cached until the next sift.
    """

    def __init__(self, G: PcGroup, table: Optional[list[tuple[int, int, int]]] = None, gens: tuple[int, ...] = ()):
        self.group, self.gens = G, gens
        self.table = [(0, 0, m) for m in G.presentation.orders] if table is None else table
        self._mask: Optional[int] = None

    def __len__(self) -> int:
        return prod(m // e for (_, _, e), m in zip(self.table, self.group.presentation.orders))

    def sift(self, xs: Iterable[int]) -> None:
        _sift_into(self.group, _Trivial, self.table, [(x, 0) for x in xs])
        self._mask = None

    def residues(self, x: int) -> Iterator[tuple[int, int]]:
        """(i, r) for each depth i where the reduction of x meets a nonzero
        digit v: r = v mod e_i, and x goes on as g_i^-r x u_i^-(v div e_i) in
        G_{i+1} (x lies in G_i, so g_i^-r x is x with that digit lowered by
        r).  x is a member exactly when every r is 0; for a normal subgroup
        N, the r are the exponents of xN in G/N."""
        G, strides = self.group, self.group.strides
        ascending, n = strides[::-1], len(strides)
        while x:
            i = n - bisect_right(ascending, x)
            u, _, e = self.table[i]
            q, r = divmod(x // strides[i], e)
            yield i, r
            x = G.mul(x - r * strides[i], G.pow(u, -q))

    def __contains__(self, x: int) -> bool:
        return not any(r for _, r in self.residues(x))

    def add(self, s: int) -> bool:
        """Adjoin s; False (and nothing changes) when s is already a member,
        which is when sifting it changes no entry of the table."""
        before = self.table[:]
        self.sift([s])
        if self.table == before:
            return False
        self.gens += (s,)
        return True

    @property
    def mask(self) -> int:
        """The members as a bitmask: the normal words u_0^a_0 u_1^a_1 ... of
        the sequence, a_d below m_d/e_d, listed by column walks (_extend)."""
        if self._mask is None:
            G, members = self.group, bytearray(self.group.order)
            seq = [(u, m // e) for (u, _, e), m in zip(self.table, G.presentation.orders) if u]
            for x in _extend(G, [m for _, m in seq], [u for u, _ in seq]):
                members[x] = 1
            self._mask = _pack(members)
        return self._mask

    def indices(self) -> Iterator[int]:
        return bit_indices(self.mask)


def subgroup_closure(G: PcGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seeds, adjoined one by one; gens are
    the seeds it kept (not yet members), in order."""
    cl = Subgroup(G)
    for s in seeds:
        cl.add(s)
    return cl


def normal_closure(G: PcGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing the seeds."""
    cl = Subgroup(G)
    pending = [s for s in seeds]
    while pending:
        s = pending.pop()
        if cl.add(s):
            pending += [G.conjugate(s, g) for g in G.generators]
    return cl


def is_normal(G: PcGroup, H: Subgroup) -> bool:
    """Whether the conjugates of H's generators by G's marked generators,
    which generate G, all lie in H."""
    return all(G.conjugate(h, g) in H for h in H.gens for g in G.generators)


def conjugacy_class(G: PcGroup, a: int) -> int:
    """The conjugacy class of a as a bitmask, packed from the class ids in
    one pass."""
    _, class_id, _ = G.conjugacy_data()
    return _pack(bytes(map(class_id[a].__eq__, class_id)))


@dataclass(frozen=True)
class NormalSeries:
    """Descending series of normal subgroups of group."""

    group: PcGroup
    terms: tuple[Subgroup, ...]

    def orders(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)

    @property
    def indices(self) -> tuple[int, ...]:
        """The index of each term over the next."""
        return tuple(len(a) // len(b) for a, b in zip(self.terms, self.terms[1:]))


def lower_central_series(G: PcGroup) -> NormalSeries:
    """G = gamma_1 >= gamma_2 >= ... terminating at 1.  Each term lies in
    the one before, so equal orders mean the series stopped."""
    if G._lcs is not None:
        return G._lcs
    terms = [G.as_set()]
    while len(terms[-1]) > 1:
        H = terms[-1]
        comms = [G.comm(h, g) for h in H.gens for g in G.generators]
        N = normal_closure(G, comms)
        if len(N) == len(H):
            raise ValueError(f"{G.name}: lower central series does not reach 1")
        terms.append(N)
    series = NormalSeries(G, tuple(terms))
    G._lcs = series
    return series


def frattini(G: PcGroup) -> Subgroup:
    """Frattini subgroup G' G^r, r the product of the primes of |G|: every
    tail lies in later generators, so a PcGroup is nilpotent, the product of
    its Sylow subgroups P, and Phi(G) is the product of their P' P^p."""
    if G._frattini is not None:
        return G._frattini
    lcs = lower_central_series(G)
    gamma2 = lcs.terms[1] if len(lcs.terms) > 1 else G.trivial_set()
    seeds = list(gamma2.gens) + [G.pow(g, prod(p for p, _ in G._p_parts)) for g in G.generators]
    G._frattini = subgroup_closure(G, seeds)
    return G._frattini


def agemo(G: PcGroup, i: int) -> Subgroup:
    """Subgroup generated by all p^i-th powers."""
    if G.prime is None:
        raise ValueError("agemo requires a p-group")
    if i <= 0:
        return G.as_set()
    e = G.prime**i
    return subgroup_closure(G, dict.fromkeys(G.pow(g, e) for g in range(G.order)))  # each power once, in order


# -- quotients on their induced pc presentations -------------------------------


def quotient_group(G: PcGroup, N: Subgroup, name: Optional[str] = None) -> tuple[PcGroup, Homomorphism]:
    """G/N, called name (default "<G>/N<|N|>"), and the projection; rejects
    an N that is not normal.

    quotient_pc_presentation presents G/N from N's own induced pc sequence.
    The trivial N gives G itself with the identity map, a range that holds
    no per-element table."""
    if not is_normal(G, N):
        raise ValueError("N is not normal")
    if len(N) == 1:
        return G, Homomorphism(G, G, range(G.order))
    return quotient_pc_presentation(G, N, name or f"{G.name}/N{len(N)}")


def quotient_pc_presentation(G: PcGroup, N: Subgroup, name: str) -> tuple[PcGroup, Homomorphism]:
    """G/N as a PcGroup called name, on the pc presentation that G's induces
    on the images of its pc generators, and the projection, for a normal
    subgroup N (quotient_group checks that it is normal).

    N's induced pc sequence has leading exponent e_i at depth i (m_i when N
    has no element there).  The image of g_i has relative order e_i, and it
    is a generator of G/N when e_i > 1; the exponent of xN on it is x's
    residue at depth i (Subgroup.residues).  The tails are the factored g_i^(e_i) and
    [g_j, g_i], and the projection is held as the images of G's pc
    generators (Homomorphism).  No coset is enumerated and no element of G
    is mapped but G's marked generators.
    """
    pres, strides = G.presentation, G.strides
    kept = [(i, e) for i, (_, _, e) in enumerate(N.table) if e > 1]  # (i, relative order of g_i's image)

    def factor(x: int) -> tuple[int, ...]:
        exps = dict(N.residues(x))
        return tuple(exps.get(i, 0) for i, _ in kept)

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
    proj = Homomorphism(G, Q, pc_images=[Q.index_of(factor(s)) for s in strides])
    Q.generators = sorted({proj(g) for g in G.generators})
    return Q, proj


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
