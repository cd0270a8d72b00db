"""Brute-force reference implementations used as independent oracles.

Everything here works element-by-element from mul/inv alone, deliberately
avoiding the cached class/closure machinery under test.
"""

from __future__ import annotations

import random

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


def brute_closure(G, seeds) -> set[int]:
    """Every product of seeds, found level by level by word length; in a
    finite group that is the subgroup they generate."""
    seeds = set(seeds)
    cur, level = {0}, {0}
    while level:
        level = {G.mul(a, s) for a in level for s in seeds} - cur
        cur |= level
    return cur


def brute_commutator_subgroup(G, members) -> set[int]:
    comms = {G.comm(h, g) for h in members for g in range(G.order)}
    return brute_closure(G, comms)


def brute_frattini(G) -> set[int]:
    p = G.prime
    seeds = {G.pow(g, p) for g in range(G.order)}
    seeds |= {G.comm(g, h) for g in range(G.order) for h in range(G.order)}
    return brute_closure(G, seeds)


def brute_is_generating(G, x: int, y: int) -> bool:
    return len(brute_closure(G, [x, y])) == G.order


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
