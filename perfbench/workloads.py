"""The benchmark's four workloads: input set-up, seeded op lists and the
pinned exact answers every op is checked against.

Each workload is a closed loop with one caller: an op starts when the
previous one returns, in one process with no threads.  The seed only
permutes op order (`search`, `nq`) or picks the on-recipe pair of the
`tower` series (n1 = 1 mod 9, n2 = 2 mod 9, which all give the same
verdicts); `reproduce` ignores it.  Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from bforge import cli, families, nq, pc, reproduce


@dataclass(frozen=True)
class Op:
    """One call into bforge plus the check of its output.

    `run` does the measured work and returns its raw result; `summarize`
    turns that into a JSON-able output (outside the timed region) which must
    equal `expected`.  An op with `defect` set is a documented defect of the
    program: a failure of one of the listed kinds counts as failed but is
    expected; any other failure is unexpected.
    """

    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], dict]
    expected: Optional[dict]
    defect: tuple[str, ...] = ()


@dataclass
class Outcome:
    output: Optional[dict]
    failure: Optional[str]  # None, an exception class name, "relators" or "mismatch"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.failure is not None


def check(op: Op, raw: Any = None, error: Optional[BaseException] = None) -> Outcome:
    if error is not None:
        return Outcome(None, type(error).__name__, str(error)[:200])
    out = op.summarize(raw)
    if op.expected is not None and out != op.expected:
        return Outcome(out, "mismatch", f"expected {op.expected}")
    if out.get("relators_trivial") is False:
        return Outcome(out, "relators", "a^q, b^q or (ab)^r does not collect to the identity")
    return Outcome(out, None)


def _cli(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _tq_pcp(tp: nq.TriangleParams, class_bound: int) -> str:
    """A triangle quotient as .pcp with the images of a and b, as `bforge nq`
    writes it; presentation only, nothing is enumerated."""
    lp = nq.triangle_quotient(tp, class_bound)
    pf = pc.PcpFile(lp.pres)
    pf.family = "triangle-quotient"
    pf.params = {"p": tp.p, "k": tp.k, "r": tp.rr, "class": lp.nilpotency_class}
    pf.images["a"] = lp.a_word
    pf.images["b"] = lp.b_word
    return pc.print_pcp(pf)


# -- search -------------------------------------------------------------------

# (input file, mode, pinned exit code, order, found, counts, certificate pairs, strongly real)
_SEARCH = [
    ("abelian_13", "find", 0, "169", True, (26208, 364, 66066), [["y1", "x1"], ["x1 y1^2", "x1 y1^3"]], None),
    ("tq_2_2_c4", "find", 0, "1024", True, (393216, 64, 2016), [["b", "a"], ["a b^2", "a b^3"]], None),
    ("negative_3_1", "prove-none", 0, "81", False, (3888, 4, 6), None, None),
    ("abelian_9", "prove-none", 0, "81", False, (3888, 108, 5778), None, None),
    ("case_iii_2_2", "find-strongly-real", 0, "128", True, (6144, 8, 28), [["y", "x"], ["x y^2", "x y^3"]], True),
]


def _search_inputs() -> dict[str, str]:
    return {
        "abelian_13": cli.serialize_paper_group(families.build_abelian(13)),
        "tq_2_2_c4": _tq_pcp(nq.TriangleParams(2, 2), 4),
        "negative_3_1": cli.serialize_paper_group(families.build_negative(1)),
        "abelian_9": cli.serialize_paper_group(families.build_abelian(9)),
        "case_iii_2_2": cli.serialize_paper_group(families.build_case_iii(2)),
    }


def _search_summary(result: tuple[int, dict]) -> dict:
    code, rep = result
    certs = rep["certificates"]
    c = certs[0] if certs else None
    return {
        "exit": code,
        "order": rep["group"]["order"],
        "found": rep["found"],
        "counts": [rep["counts"][k] for k in ("generating_pairs", "distinct_sigma_sets", "sigma_class_pairs_checked")],
        "pairs": [[c[k]["x"], c[k]["y"]] for k in ("pair1", "pair2")] if c else None,
        "strongly_real": c["strongly_real"] if c else None,
    }


def _search_ops(inputs: Path, seed: int) -> list[Op]:
    ops = []
    for name, mode, code, order, found, counts, pairs, strong in _SEARCH:
        argv = ["search", "--group", str(inputs / f"{name}.pcp"), "--mode", mode, "--jobs", "1"]
        expected = {
            "exit": code, "order": order, "found": found, "counts": list(counts),
            "pairs": pairs, "strongly_real": strong,
        }
        ops.append(Op(f"{mode}:{name}", lambda argv=argv: _cli(argv), _search_summary, expected))
    random.Random(seed).shuffle(ops)
    return ops


# -- tower --------------------------------------------------------------------

_TOWER_ORDERS = ["6561", "2187", "2187", "729", "243", "243", "81", "27", "27", "9", "3", "1"]
_TOWER_VERDICTS = [False] * 4 + [True] * 8


def _tower_inputs() -> dict[str, str]:
    return {"tq_3_1_c5": _tq_pcp(nq.TriangleParams(3, 1), 5)}


def tower_pair(seed: int) -> tuple[int, int]:
    """The on-recipe (n1, n2) for this seed: n1 = 1, n2 = 2 mod 9."""
    rng = random.Random(seed)
    return 1 + 9 * rng.randrange(3), 2 + 9 * rng.randrange(3)


def _tower_summary(result: tuple[int, dict]) -> dict:
    code, rep = result
    return {
        "exit": code,
        "order": rep["group"]["order"],
        "orders": [t["order"] for t in rep["terms"]],
        "verdicts": [t["quotient_strongly_real"] for t in rep["terms"]],
    }


def _tower_ops(inputs: Path, seed: int) -> list[Op]:
    n1, n2 = tower_pair(seed)
    argv = ["series", "--group", str(inputs / "tq_3_1_c5.pcp"), "--from", "2", "--to", "5",
            "--n1", str(n1), "--n2", str(n2)]
    expected = {"exit": 0, "order": "59049", "orders": _TOWER_ORDERS, "verdicts": _TOWER_VERDICTS}
    return [Op("series:tq_3_1_c5", lambda: _cli(argv), _tower_summary, expected)]


# -- nq -----------------------------------------------------------------------

# (p, k, r, class) -> (order, layer sizes by weight), or the documented defect
_NQ = [
    ((2, 2, None, 5), ("32768", [16, 2, 4, 8, 32])),
    ((3, 1, None, 5), ("59049", [9, 3, 9, 9, 27])),
    ((3, 1, 27, 5), ("177147", [9, 3, 9, 9, 81])),
    ((5, 1, None, 5), ("1220703125", [25, 5, 25, 125, 3125])),
    ((7, 1, None, 5), ("678223072849", [49, 7, 49, 343, 117649])),
    ((11, 1, None, 5), ("379749833583241", [121, 11, 121, 1331, 1771561])),
    ((13, 1, None, 5), ("3937376385699289", [169, 13, 169, 2197, 4826809])),
    # known defects: extend_class emits an inconsistent presentation ...
    ((3, 2, None, 4), ("ConsistencyError",)),
    ((2, 3, None, 5), ("ConsistencyError",)),
    # ... or a consistent one in which (ab)^25 does not collect to 1
    ((5, 2, None, 5), ("relators",)),
]


def _nq_summary(lp: nq.LayeredPresentation, tp: nq.TriangleParams) -> dict:
    coll = pc.Collector(lp.pres)
    a, b = coll.collect(lp.a_word), coll.collect(lp.b_word)
    powers = (coll.power(a, tp.q), coll.power(b, tp.q), coll.power(coll.mul(a, b), tp.rr))
    return {
        "order": str(lp.order()),
        "layer_sizes": [str(s) for _, s in sorted(lp.layer_sizes().items())],
        "relators_trivial": all(v == coll.identity for v in powers),
    }


def _nq_ops(inputs: Path, seed: int) -> list[Op]:
    ops = []
    for (p, k, r, c), pin in _NQ:
        tp = nq.TriangleParams(p, k, r)
        name = f"nq:p{p}_k{k}_r{tp.rr}_c{c}"
        run = lambda tp=tp, c=c: nq.triangle_quotient(tp, c, order_cap=10**40)
        summarize = lambda lp, tp=tp: _nq_summary(lp, tp)
        if pin[0] in ("ConsistencyError", "relators"):
            ops.append(Op(name, run, summarize, None, pin))
        else:
            order, layers = pin
            expected = {"order": order, "layer_sizes": [str(s) for s in layers], "relators_trivial": True}
            ops.append(Op(name, run, summarize, expected))
    random.Random(seed).shuffle(ops)
    return ops


# -- reproduce ----------------------------------------------------------------


def _reproduce_ops(inputs: Path, seed: int) -> list[Op]:
    """run_criteria() split into its nine criteria, sharing one GroupCache
    per pass exactly as run_criteria() shares it."""
    cache = reproduce.GroupCache()
    ops = []
    for k in range(1, len(reproduce.CRITERIA) + 1):
        ops.append(Op(
            f"criterion_{k}",
            lambda k=k: reproduce.run_criteria([k], cache),
            lambda res: {"ok": [r.ok for r in res]},
            {"ok": [True]},
        ))
    return ops


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[], dict[str, str]]  # file stem -> .pcp text, written at set-up
    ops: Callable[[Path, int], list[Op]]  # (input directory, seed) -> one pass


WORKLOADS = {
    "search": Workload(_search_inputs, _search_ops),
    "tower": Workload(_tower_inputs, _tower_ops),
    "nq": Workload(dict, _nq_ops),
    "reproduce": Workload(dict, _reproduce_ops),
}


def write_inputs(workload: str, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in WORKLOADS[workload].inputs().items():
        (directory / f"{name}.pcp").write_text(text)


def unexpected(op: Op, outcome: Outcome) -> bool:
    return outcome.failed and outcome.failure not in op.defect

