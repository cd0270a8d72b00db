"""Command-line surface: construct, nq, verify, search, series, reproduce.

Reports are JSON on stdout with orders as decimal strings and a determinism
hash over everything except the timing fields.  Exit codes: 0 verified /
completed as expected, 1 verification or expectation failed, 2 invalid
parameters or parse error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .beauville import (
    GenPair,
    check_beauville,
    check_strongly_real,
    exhaustive_search,
    paper_structure,
    quotient_strongly_real,
    recipe_exponents,
    search_cap,
)
from .errors import CapExceeded, HomomorphismError, PcpSyntaxError, ShapeError
from .families import FAMILIES, PaperGroup, _finish, build_family, pc_names, refinement_series
from .groups import (
    DEFAULT_ORDER_CAP,
    PcGroup,
    hom_from_images,
    lower_central_series,
    quotient_group,
    require_order,
)
from .nq import MAX_CLASS_BOUND, TriangleParams, triangle_quotient
from .pc import PcpFile, parse_pcp, print_pcp


# -- element word grammar (CLI side): names, '*', '^INT', parentheses --------

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|\*|\^|\(|\)|-)")


def evaluate_word(group, named: dict[str, int], text: str) -> int:
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad word syntax at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    cursor = 0

    def peek():
        return tokens[cursor]

    def take():
        nonlocal cursor
        tok = tokens[cursor]
        cursor += 1
        return tok

    def parse_int() -> int:
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        tok = take()
        if tok is None or not tok.isdigit():
            raise ValueError("expected integer exponent")
        return sign * int(tok)

    def parse_atom() -> int:
        tok = take()
        if tok == "(":
            val = parse_product()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
        elif tok == "1":
            val = 0
        elif tok is not None and tok in named:
            val = named[tok]
        else:
            raise ValueError(f"unknown generator {tok!r}")
        if peek() == "^":
            take()
            val = group.pow(val, parse_int())
        return val

    def parse_product() -> int:
        val = parse_atom()
        while peek() in ("*",) or (peek() is not None and peek() != ")" and peek() != "^"):
            if peek() == "*":
                take()
            val = group.mul(val, parse_atom())
        return val

    try:
        out = parse_product()
    except RecursionError:
        raise ValueError("word nests parentheses too deeply") from None
    if peek() is not None:
        raise ValueError(f"trailing input in word: {tokens[cursor:]}")
    return out


# -- loading ------------------------------------------------------------------


@dataclass
class LoadedGroup:
    pg: PaperGroup
    pcp: PcpFile
    path: Path
    sha256: str


def load_group(path: str, cap: int) -> LoadedGroup:
    data = Path(path).read_bytes()
    pf = parse_pcp(data.decode("utf-8"))
    group = PcGroup(pf.presentation, cap=cap)
    if "x" in pf.distinguished and "y" in pf.distinguished:
        x, y = (group.element_of_word(pf.distinguished[k]) for k in "xy")
    elif "a" in pf.images and "b" in pf.images:
        x, y = (group.element_of_word(pf.images[k]) for k in "ab")
    elif pf.presentation.ngens < 2:
        raise ValueError(f"{path}: one pc generator and no distinguished x, y or images a, b")
    else:
        x, y = group.gen_index(0), group.gen_index(1)
    theta = None
    if pf.theta:
        n = pf.presentation.ngens
        missing = [nm for nm in pf.presentation.names if nm not in pf.theta]
        if missing:
            raise ValueError(f"{path}: theta stanza has no image for {', '.join(missing)}")
        theta = hom_from_images(
            group,
            group,
            [group.gen_index(i) for i in range(n)],
            [group.element_of_word(pf.theta[nm]) for nm in pf.presentation.names],
        )
        if not theta.is_automorphism:
            raise ValueError(f"{path}: theta stanza is not an automorphism")
    p = pf.params.get("p", group.prime or 0)
    pg = _finish(pf.family or "file", p, pf.params.get("k"), pf.params.get("n"), group, x, y, pc_names(group), theta)
    return LoadedGroup(pg, pf, Path(path), hashlib.sha256(data).hexdigest())


def serialize_paper_group(pg: PaperGroup) -> str:
    pf = PcpFile(pg.presentation)
    pf.family = pg.family
    if pg.p:
        pf.params["p"] = pg.p
    if pg.k is not None:
        pf.params["k"] = pg.k
    if pg.n is not None:
        pf.params["n"] = pg.n
    g = pg.group
    pf.distinguished["x"] = g.word_of(pg.x)
    pf.distinguished["y"] = g.word_of(pg.y)
    for i, nm in enumerate(pg.presentation.names):
        pf.theta[nm] = g.word_of(pg.theta(g.gen_index(i)))
    return print_pcp(pf)


def group_stats(pg: PaperGroup) -> dict:
    """Name, order, exponent and class of a group, computed from the group."""
    G = pg.group
    return {"name": G.name, "order": str(G.order), "exponent": str(G.exponent()), "class": G.nilpotency_class()}


# -- reports ------------------------------------------------------------------


def finish_report(payload: dict, t0: float) -> dict:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["determinism_hash"] = hashlib.sha256(canon.encode()).hexdigest()
    payload["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
    return payload


def emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def pair_json(G, pair: GenPair) -> dict:
    return {
        "x": G.element_name(pair.x),
        "y": G.element_name(pair.y),
        "xy": G.element_name(pair.xy),
        "signature": [str(o) for o in pair.signature],
        "generating": pair.generating,
        "on_recipe": pair.on_recipe,
    }


def cert_json(G, cert) -> dict:
    out = {
        "pair1": pair_json(G, cert.pair1),
        "pair2": pair_json(G, cert.pair2),
        "beauville": cert.beauville,
        "intersection_witness": (
            G.element_name(cert.intersection_witness) if cert.intersection_witness else None
        ),
        "strongly_real": cert.strongly_real,
        "conjugators": (
            [G.element_name(g) for g in cert.conjugators] if cert.conjugators else None
        ),
        "diagnostics": list(cert.diagnostics),
    }
    return out


# -- commands -----------------------------------------------------------------


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    pg = build_family(args.family, p=args.p or 0, k=args.k or 0, n=args.n or 0, cap=args.max_order)
    text = serialize_paper_group(pg)
    if args.out:
        out = Path(args.out)
    else:
        tag = f"{pg.n}" if pg.family == "abelian" else f"{pg.p}_{pg.k}"
        out = Path(f"{pg.family.replace('-', '_')}_{tag}.pcp")
    out.write_text(text)
    payload = {
        "version": __version__,
        "command": ["construct", args.family, f"p={args.p}", f"k={args.k}", f"n={args.n}"],
        "group": group_stats(pg),
        "certificates": [],
        "artifact": str(out),
        "artifact_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    emit(finish_report(payload, t0))
    return 0


def cmd_nq(args) -> int:
    t0 = time.perf_counter()
    require_order(args.p, 2 * args.k, args.max_order)  # T/gamma_(c+1) maps onto C_q x C_q
    tp = TriangleParams(args.p, args.k, args.r)
    lp = triangle_quotient(tp, args.class_bound, order_cap=args.max_order)
    pf = PcpFile(lp.pres)
    pf.family = "triangle-quotient"
    pf.params = {"p": tp.p, "k": tp.k, "r": tp.rr, "class": lp.nilpotency_class}
    pf.images["a"] = lp.a_word
    pf.images["b"] = lp.b_word
    text = print_pcp(pf)
    group = PcGroup(lp.pres, cap=args.max_order)  # before writing: a failed run leaves no file
    out = Path(args.out) if args.out else Path(f"tq_{tp.p}_{tp.k}_{tp.rr}_c{lp.nilpotency_class}.pcp")
    out.write_text(text)
    payload = {
        "version": __version__,
        "command": ["nq", f"p={tp.p}", f"k={tp.k}", f"r={tp.rr}", f"class={args.class_bound}"],
        "group": {
            "name": lp.pres.name,
            "order": str(group.order),
            "exponent": str(group.exponent()),
            "class": lp.nilpotency_class,
        },
        "stabilized": lp.stabilized,
        "layer_sizes": {str(w): str(s) for w, s in lp.layer_sizes().items()},
        "certificates": [],
        "artifact": str(out),
        "artifact_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    emit(finish_report(payload, t0))
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    loaded = load_group(args.group, cap=args.max_order)
    pg = loaded.pg
    G = pg.group
    if args.paper_structure:
        n1, n2 = recipe_exponents(pg.p, args.n1, args.n2)
        pair1, pair2 = paper_structure(pg, n1, n2)
        pair_desc = f"paper-structure n1={n1} n2={n2}"
    elif args.pair1 and args.pair2:
        def mk(word_pair: str) -> GenPair:
            parts = word_pair.split(";")
            if len(parts) != 2:
                raise ValueError("pair must be two words separated by ';'")
            return GenPair.make(G, evaluate_word(G, pg.named, parts[0]), evaluate_word(G, pg.named, parts[1]))

        pair1, pair2 = mk(args.pair1), mk(args.pair2)
        pair_desc = f"pairs {args.pair1} | {args.pair2}"
    else:
        raise ValueError("need --pair1/--pair2 or --paper-structure")
    if args.strong:
        cert = check_strongly_real(G, pair1, pair2, pg.theta, search_conjugators=args.search_conjugators)
        verified = bool(cert.beauville and cert.strongly_real)
    else:
        cert = check_beauville(G, pair1, pair2)
        verified = cert.beauville
    payload = {
        "version": __version__,
        "command": ["verify", pair_desc, f"strong={args.strong}"],
        "input_sha256": loaded.sha256,
        "group": group_stats(pg),
        "certificates": [cert_json(G, cert)],
        "verified": verified,
    }
    emit(finish_report(payload, t0))
    return 0 if verified else 1


def cmd_search(args) -> int:
    t0 = time.perf_counter()
    # refuse an input over the search cap before enumerating it
    loaded = load_group(args.group, cap=min(search_cap(args.mode, args.max_order), DEFAULT_ORDER_CAP))
    pg = loaded.pg
    theta = pg.theta if args.mode == "find-strongly-real" else None
    res = exhaustive_search(pg.group, args.mode, theta=theta, cap=args.max_order)
    payload = {
        "version": __version__,
        "command": ["search", args.mode, f"jobs={args.jobs}"],
        "input_sha256": loaded.sha256,
        "group": group_stats(pg),
        "certificates": [cert_json(pg.group, res.found)] if res.found else [],
        "found": res.found is not None,
        "counts": {
            "generating_pairs": res.generating_pairs,
            "distinct_sigma_sets": res.distinct_sigma_sets,
            "sigma_class_pairs_checked": res.sigma_pairs_checked,
        },
    }
    emit(finish_report(payload, t0))
    if args.mode == "prove-none":
        return 1 if res.found is not None else 0
    return 0 if res.found is not None else 1


def cmd_series(args) -> int:
    t0 = time.perf_counter()
    lo = 2 if args.from_weight is None else args.from_weight
    if lo < 2:
        raise ValueError(f"--from {lo}: the refinement starts at weight 2")
    if args.to_weight is not None and args.to_weight < lo:
        raise ValueError(f"--to {args.to_weight} is below --from {lo}")
    loaded = load_group(args.group, cap=args.max_order)
    pg = loaded.pg
    G = pg.group
    lcs = lower_central_series(G)
    hi = len(lcs.terms) - 1 if args.to_weight is None else args.to_weight
    if args.from_weight is not None and lo > hi:
        raise ValueError(f"--from {lo} is above the group's class {hi}; give --to for trivial terms")
    terms_json = []
    verdicts: dict[int, dict] = {}  # verdict fields of G/N by |N|: the terms descend
    pairs = None
    if pg.family != "abelian" and pg.p:
        try:
            pairs = paper_structure(pg, *recipe_exponents(pg.p, args.n1, args.n2))
        except ValueError:
            pairs = None
    for i in range(lo, hi + 1):
        series = refinement_series(pg, i)
        for pos, term in enumerate(series.terms):
            entry = {
                "weight": i,
                "order": str(len(term)),
                "generators": [G.element_name(g) for g in term.gens],
                "normal": term.is_normal,
                "theta_invariant": series.theta_invariant[pos],
                "index_over_next": str(series.indices[pos]) if pos < len(series.indices) else None,
            }
            if pairs is not None:
                if len(term) not in verdicts:  # gamma_(i+1) ends weight i and starts weight i+1
                    Q, proj = quotient_group(G, term)
                    beauville, strong = quotient_strongly_real(proj, pg.theta, *pairs, args.sigma_cap)
                    lift = Q.order > args.sigma_cap  # above the cap False means not certified
                    verdict = "strongly real" if strong else "beauville only" if beauville else (
                        "not certified" if lift else "not beauville")
                    verdicts[len(term)] = {"quotient_strongly_real": strong, "quotient_verdict": verdict, "lift": lift}
                entry.update(verdicts[len(term)])
            terms_json.append(entry)
    payload = {
        "version": __version__,
        "command": ["series", f"from={lo}", f"to={hi}"],
        "input_sha256": loaded.sha256,
        "group": group_stats(pg),
        "certificates": [],
        "terms": terms_json,
    }
    if pairs is not None:
        payload["pairs"] = [pair_json(G, pair) for pair in pairs]
    emit(finish_report(payload, t0))
    return 0


def cmd_reproduce(args) -> int:
    from .reproduce import CRITERIA, run_criteria

    t0 = time.perf_counter()
    only = [int(x) for x in args.only.split(",")] if args.only else None
    unknown = [k for k in only or () if not 1 <= k <= len(CRITERIA)]
    if unknown:
        raise ValueError(f"no criterion {unknown[0]}; criteria are 1..{len(CRITERIA)}")
    results = run_criteria(only)
    for r in results:
        print(r.line(), file=sys.stderr)
        for d in r.details:
            print("    " + d, file=sys.stderr)
    payload = {
        "version": __version__,
        "command": ["reproduce"] + ([args.only] if args.only else []),
        "group": None,
        "certificates": [],
        "criteria": [
            {"number": r.number, "name": r.name, "ok": r.ok, "budget_s": r.budget_s}
            for r in results
        ],
        "all_pass": all(r.ok for r in results),
    }
    emit(finish_report(payload, t0))
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bforge", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a named family member and write canonical .pcp")
    c.add_argument("--family", required=True, choices=list(FAMILIES))
    c.add_argument("--p", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--out")
    c.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)
    c.set_defaults(fn=cmd_construct)

    c = sub.add_parser("nq", help="nilpotent quotient of a triangle group")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--r", type=int)
    c.add_argument("--class", dest="class_bound", type=int, default=4, choices=range(1, MAX_CLASS_BOUND + 1))
    c.add_argument("--out")
    c.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)
    c.set_defaults(fn=cmd_nq)

    c = sub.add_parser("verify", help="verify a (strongly real) Beauville structure")
    c.add_argument("--group", required=True)
    c.add_argument("--pair1", help="two words separated by ';', e.g. 'x;y'")
    c.add_argument("--pair2")
    c.add_argument("--paper-structure", action="store_true")
    c.add_argument("--n1", type=int)
    c.add_argument("--n2", type=int)
    c.add_argument("--strong", action="store_true")
    c.add_argument("--search-conjugators", action="store_true")
    c.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("search", help="exhaustive structure search / non-existence certification")
    c.add_argument("--group", required=True)
    c.add_argument("--mode", required=True, choices=["find", "prove-none", "find-strongly-real"])
    c.add_argument("--jobs", type=int, default=1, help="ignored; the search runs in one thread")
    c.add_argument("--max-order", type=int, default=None)
    c.set_defaults(fn=cmd_search)

    c = sub.add_parser("series", help="theta-invariant index-p refinement of the lower central series")
    c.add_argument("--group", required=True)
    c.add_argument("--from", dest="from_weight", type=int)
    c.add_argument("--to", dest="to_weight", type=int)
    c.add_argument("--n1", type=int)
    c.add_argument("--n2", type=int)
    c.add_argument("--sigma-cap", type=int, default=10**4)
    c.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)
    c.set_defaults(fn=cmd_series)

    c = sub.add_parser("reproduce", help="run the full acceptance suite")
    c.add_argument("--only", help="comma-separated criterion numbers")
    c.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "max_order", None) is not None and args.max_order < 1:
            raise ValueError(f"--max-order {args.max_order}: the order cap must be at least 1")
        return args.fn(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PcpSyntaxError, ShapeError, HomomorphismError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
