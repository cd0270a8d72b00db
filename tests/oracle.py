"""Brute-force reference implementations used as independent oracles.

Everything here works element-by-element from mul/inv alone, deliberately
avoiding the cached class/closure machinery under test.
"""

from __future__ import annotations

import random
from math import prod

from bforge.pc import Collector


def brute_sigma(G, x: int, y: int) -> set[int]:
    out = set()
    for t in (x, y, G.mul(x, y)):
        o = brute_order(G, t)
        for g in range(G.order):
            tg = G.mul(G.mul(G.inv(g), t), g)
            acc = 0
            for _ in range(o):
                out.add(acc)
                acc = G.mul(acc, tg)
    return out


def brute_order(G, a: int) -> int:
    n, x = 1, a
    while x != 0:
        x = G.mul(x, a)
        n += 1
    return n


def brute_powers(G, a: int) -> frozenset[int]:
    out, x = {0}, a
    while x != 0:
        out.add(x)
        x = G.mul(x, a)
    return frozenset(out)


def brute_class(G, a: int) -> set[int]:
    return {G.mul(G.mul(G.inv(g), a), g) for g in range(G.order)}


def brute_classes(G, mask: int) -> set[int]:
    """The elements of the classes whose ids are the set bits of mask (a
    sigma or power-class mask), each found by brute_class of its rep."""
    _, _, reps = G.conjugacy_data()
    return set().union(*(brute_class(G, r) for c, r in enumerate(reps) if mask >> c & 1))


def brute_closure(G, seeds) -> set[int]:
    """Every product of seeds, found level by level by word length; in a
    finite group that is the subgroup they generate."""
    seeds = set(seeds)
    cur, level = {0}, {0}
    while level:
        level = {G.mul(a, s) for a in level for s in seeds} - cur
        cur |= level
    return cur


def brute_normal_closure(G, seeds) -> set[int]:
    """The closure of every conjugate of every seed."""
    return brute_closure(G, {G.mul(G.mul(G.inv(g), s), g) for s in seeds for g in range(G.order)})


def fold_closure_of_gens(G, gens) -> int:
    """Mask of <gens> by breadth-first search from scratch, as the closures
    were taken before they grew a coset at a time."""
    mask, members = 1, [0]
    for s in gens:
        if not mask >> s & 1:
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


def fold_subgroup_closure(G, seeds) -> tuple[int, tuple[int, ...]]:
    """(mask, kept seeds): each seed outside the closure so far is kept and
    the closure recomputed from all kept seeds."""
    gens, mask = [], 1
    for s in seeds:
        if not mask >> s & 1:
            gens.append(s)
            mask = fold_closure_of_gens(G, gens)
    return mask, tuple(gens)


def fold_normal_closure(G, seeds) -> tuple[int, tuple[int, ...]]:
    """(mask, kept seeds) of the normal closure: seeds are popped from a
    stack, and each kept one pushes its conjugates by the marked generators."""
    gens, mask = [], 1
    pending = list(seeds)
    while pending:
        s = pending.pop()
        if mask >> s & 1:
            continue
        gens.append(s)
        mask = fold_closure_of_gens(G, gens)
        pending += [G.mul(G.mul(G.inv(g), s), g) for g in G.generators]
    return mask, tuple(gens)


def brute_commutator_subgroup(G, members) -> set[int]:
    comms = {G.comm(h, g) for h in members for g in range(G.order)}
    return brute_closure(G, comms)


def brute_frattini(G) -> set[int]:
    """G' G^r, r the product of the primes of |G|: Phi(G) for nilpotent G."""
    r = prod(p for p in range(2, G.order + 1) if G.order % p == 0 and all(p % q for q in range(2, p)))
    seeds = {G.pow(g, r) for g in range(G.order)}
    seeds |= {G.comm(g, h) for g in range(G.order) for h in range(G.order)}
    return brute_closure(G, seeds)


def brute_is_generating(G, x: int, y: int) -> bool:
    return len(brute_closure(G, [x, y])) == G.order


def brute_quotient(G, N) -> tuple[list[int], list[int]]:
    """(coset_of, reps) for G/N: each element's coset id and each coset's
    least element, found by multiplying each element not yet placed by
    every member of N, as the coset quotients were built before quotients
    became pc groups.  Coset 0 is N."""
    members = [h for h in range(G.order) if h in N]
    coset_of, reps = [-1] * G.order, []
    for a in range(G.order):
        if coset_of[a] < 0:
            for h in members:
                coset_of[G.mul(a, h)] = len(reps)
            reps.append(a)
    return coset_of, reps


def brute_induced(G, coset_of, reps, phi):
    """The coset map c -> coset of phi(reps[c]) that the automorphism phi of
    G induces on G/N, or None when phi moves a member of N out of N."""
    if any(coset_of[phi(h)] for h in range(G.order) if coset_of[h] == 0):
        return None
    return [coset_of[phi(r)] for r in reps]


def brute_search_classes(G, theta=None):
    """(total, least, inverted) over every ordered pair (x, y) with <x, y> = G.

    Each pair is keyed by the set of conjugacy classes met by <x>, <y> and
    <xy>.  total counts the generating pairs; least maps each key to its
    lexicographically least pair, in first-seen order.  With theta, inverted
    maps each key that has one to its least pair inverted by some g (that is,
    g theta(a) g^-1 = a^-1 for a in {x, y}) and that pair's least g, as
    (x, y, g); without theta it is None.  Generation is memoised on the pair
    of cyclic subgroups <x>, <y>, which determine <x, y>.
    """
    powers = [brute_powers(G, a) for a in range(G.order)]
    class_of = [frozenset(brute_class(G, a)) for a in range(G.order)]
    key_of = [frozenset(class_of[b] for b in powers[a]) for a in range(G.order)]
    if theta is not None:
        inverters = [
            {g for g in range(G.order) if G.mul(G.mul(g, theta(a)), G.inv(g)) == G.inv(a)}
            for a in range(G.order)
        ]
    generates: dict = {}
    total, least, inverted = 0, {}, {}
    for x in range(G.order):
        for y in range(G.order):
            cyclic = (powers[x], powers[y])
            if cyclic not in generates:
                generates[cyclic] = brute_is_generating(G, x, y)
            if not generates[cyclic]:
                continue
            total += 1
            key = frozenset((key_of[x], key_of[y], key_of[G.mul(x, y)]))
            least.setdefault(key, (x, y))
            if theta is not None and key not in inverted:
                common = inverters[x] & inverters[y]
                if common:
                    inverted[key] = (x, y, min(common))
    return total, least, inverted if theta is not None else None


def assert_central_suffix_agrees(pres, seed, rounds, same):
    """Collect, multiply, invert and power random words with pres's
    Collector and with one whose central suffix is switched off, so that
    every generator after g_i is lifted and conjugated; same(x, y) decides
    whether two normal forms agree."""
    fast, full = Collector(pres), Collector(pres)
    full.central = full.n
    assert fast.central < fast.n
    rng = random.Random(seed)
    n, orders = pres.ngens, pres.orders

    def word():
        gens = [rng.randrange(n) for _ in range(rng.randrange(1, 6))]
        return [(g, rng.randrange(-2 * orders[g], 2 * orders[g] + 1)) for g in gens]

    for _ in range(rounds):
        u, v = word(), word()
        cu, cv = fast.collect(u), fast.collect(v)
        assert same(cu, full.collect(u)) and same(cv, full.collect(v))
        assert same(fast.mul(cu, cv), full.mul(cu, cv))
        assert same(fast.inv(cu), full.inv(cu))
        e = rng.randrange(-30, 31)
        assert same(fast.power(cu, e), full.power(cu, e))


def bfs_hom(G, H, gens, images):
    """(full map, is_automorphism) of the homomorphism gens -> images.

    The map is filled along a breadth-first spanning tree of G under right
    multiplication by gens, one H.mul per element, as hom_from_images built
    it before it sifted, and every edge is checked on the way (the image of
    x s is the image of x times that of s, for every x and generator s), so
    the map is well defined exactly when no edge fails.  Raises
    HomomorphismError with hom_from_images's leading words, checked in this
    order: "given elements do not generate", "not well-defined", "not
    surjective" (brute_closure of the images).
    """
    from bforge.errors import HomomorphismError

    fmap = [None] * G.order
    fmap[0] = 0
    visit, consistent = [0], True
    for x in visit:  # grows while it runs
        for s, h in zip(gens, images):
            y, img = G.mul(x, s), H.mul(fmap[x], h)
            if fmap[y] is None:
                fmap[y] = img
                visit.append(y)
            consistent = consistent and fmap[y] == img
    if len(visit) != G.order:
        raise HomomorphismError("given elements do not generate the source group")
    if not consistent:
        raise HomomorphismError("not well-defined: an edge of the spanning graph fails")
    if len(brute_closure(H, images)) != H.order:
        raise HomomorphismError("not surjective: images do not generate the target")
    return tuple(fmap), H is G and len(set(fmap)) == G.order


def eager_walks(G):
    """Every element's walk (the step tables of its nonzero digits, in
    order), built for the whole group at once from the last generator up,
    as PcGroup filled it before walks were memoised on first use."""
    walks = [()]
    for tabs in reversed(G.gen_step):
        digit = ((),) + tuple((t,) for t in tabs[1:])
        walks = [d + w for d in digit for w in walks]  # index order
    return walks
