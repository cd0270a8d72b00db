#!/usr/bin/env python3
"""Explore the quotient tower of a triangle group: compute nilpotent
quotients class by class, refine each lower-central layer into index-p
steps, and report which intermediate quotients carry the recipe pairs as a
strongly real Beauville structure.  Quotients above --sigma-cap are
decided by the lift path, which certifies or abstains ("not certified").

Example:
    python scripts/explore_tower.py --p 3 --k 1 --class 4
    python scripts/explore_tower.py --p 2 --k 2 --class 4 --n1 5 --n2 6
"""

import argparse

from bforge.beauville import paper_structure, quotient_strongly_real, recipe_exponents
from bforge.families import paper_group_from_nq, refinement_series
from bforge.groups import lower_central_series, quotient_group
from bforge.nq import TriangleParams, triangle_quotient


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--r", type=int)
    ap.add_argument("--class", dest="class_bound", type=int, default=4)
    ap.add_argument("--n1", type=int)
    ap.add_argument("--n2", type=int)
    ap.add_argument("--sigma-cap", type=int, default=10**4)
    args = ap.parse_args()

    tp = TriangleParams(args.p, args.k, args.r)
    lp = triangle_quotient(tp, args.class_bound)
    pg = paper_group_from_nq(lp, tp)
    G = pg.group
    print(f"T = <a,b | a^{tp.q} = b^{tp.q} = (ab)^{tp.rr}>; quotient at class "
          f"{lp.nilpotency_class}: order {G.order}")
    print(f"layer sizes by weight: {lp.layer_sizes()}")
    lcs = lower_central_series(G)
    print(f"lower central orders: {lcs.orders()}")

    n1, n2 = recipe_exponents(tp.p, args.n1, args.n2)
    pairs = paper_structure(pg, n1, n2)
    print(f"pairs: {{x, y}} and {{(xy)^{n1} x, (xy)^{n2} x}} "
          f"(on recipe: {pairs[0].on_recipe})")

    cls = len(lcs.orders()) - 1
    for i in range(2, cls + 1):
        series = refinement_series(pg, i)
        print(f"\nweight {i}: refinement orders {series.orders()} "
              f"(all steps index {tp.p}, theta-invariant)")
        for term in series.terms:
            Q, proj = quotient_group(G, term)
            beauville, strong = quotient_strongly_real(proj, pg.theta, *pairs, args.sigma_cap)
            lift = Q.order > args.sigma_cap
            verdict = "strongly real" if strong else (
                "beauville only" if beauville else "not certified" if lift else "not beauville")
            print(f"  |T/N| = {Q.order:>6}: {verdict}" + (" (lift)" if lift else ""))


if __name__ == "__main__":
    main()
