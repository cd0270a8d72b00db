"""Span tracing of bforge from outside the package.

`Tracer.install()` rebinds bforge's public functions to timing wrappers:
every module global, every module-level list entry (such as
`reproduce.CRITERIA`) and every class attribute that holds a target is
replaced, so calls through names imported with `from .x import f` are timed
too.  `uninstall()` puts the originals back.  Spans are kept in memory as
[name, start, end, parent] and turned into per-layer metrics at the end.

Functions called more than about 10^5 times per run (`FiniteGroup.mul`,
`is_generating_pair`, `Collector._rmul`, `_sigma_key`, and `frattini`, which
`is_generating_pair` calls for its cached value) are not wrapped; their time
is their caller's self time.  `frattini` computes through
`lower_central_series` and `subgroup_closure`, which are wrapped.
`conjugacy_data` (called per generating pair) and `lower_central_series`
cache their result; their wrappers return a cached value without recording
a span, so only the call that computes is timed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

WRAPPER_FLAG = "__perfbench_wrapper__"

Probe = Callable[[dict, tuple, Any], None]


def _count_pcgroup(counts: dict, args: tuple, result: Any) -> None:
    from bforge.groups import TABLE_CAP

    order = args[0].order
    counts["groups.pcgroup_build.elements"] += order
    counts["groups.pcgroup_build.over_table_cap"] += order > TABLE_CAP


def _count_quotient(counts: dict, args: tuple, result: Any) -> None:
    counts["groups.quotient_group.parent_elements"] += args[0].order


def _count_hermite(counts: dict, args: tuple, result: Any) -> None:
    rows, m = args[0], args[1]
    counts["zlinalg.hermite_form.cells"] += len(rows) * m


def _count_extend(counts: dict, args: tuple, result: Any) -> None:
    lp = args[0]
    n = lp.pres.ngens
    defined = {d for d in lp.definitions if d is not None}
    counts["nq.tail_columns"] += n + n * (n - 1) // 2 - len(defined)
    counts["nq.new_generators"] += len(result.weights) - len(lp.weights)


def _count_search(counts: dict, args: tuple, result: Any) -> None:
    counts["beauville.generating_pairs"] += result.generating_pairs
    counts["beauville.sigma_classes"] += result.distinct_sigma_sets
    counts["beauville.sigma_class_pairs"] += result.sigma_pairs_checked


# (module, attribute path, span name, probe, cached-value attribute of args[0])
TARGETS: list[tuple[str, str, str, Optional[Probe], Optional[str]]] = [
    ("bforge.pc", "make_presentation", "pc.make_presentation", None, None),
    ("bforge.pc", "consistency_check", "pc.consistency_check", None, None),
    ("bforge.pc", "overlap_checks", "pc.overlap_checks", None, None),
    ("bforge.pc", "parse_pcp", "pc.parse_pcp", None, None),
    ("bforge.pc", "print_pcp", "pc.print_pcp", None, None),
    ("bforge.groups", "PcGroup.__init__", "groups.pcgroup_build", _count_pcgroup, None),
    ("bforge.groups", "quotient_group", "groups.quotient_group", _count_quotient, None),
    ("bforge.groups", "quotient_pc_presentation", "groups.quotient_pc_presentation", None, None),
    ("bforge.groups", "subgroup_closure", "groups.closure", None, None),
    ("bforge.groups", "normal_closure", "groups.closure", None, None),
    ("bforge.groups", "FiniteGroup.mark_generators", "groups.closure", None, None),
    ("bforge.groups", "lower_central_series", "groups.closure", None, "_lcs"),
    ("bforge.groups", "agemo", "groups.closure", None, None),
    ("bforge.groups", "hom_from_images", "groups.hom_from_images", None, None),
    ("bforge.groups", "induced_automorphism", "groups.induced_automorphism", None, None),
    ("bforge.groups", "FiniteGroup.conjugacy_data", "groups.conjugacy_data", None, "_classes"),
    ("bforge.zlinalg", "hermite_form", "zlinalg.hermite_form", _count_hermite, None),
    ("bforge.nq", "triangle_quotient", "nq.triangle_quotient", None, None),
    ("bforge.nq", "extend_class", "nq.extend_class", _count_extend, None),
    ("bforge.families", "build_case_i", "families.build", None, None),
    ("bforge.families", "build_case_ii", "families.build", None, None),
    ("bforge.families", "build_case_iii", "families.build", None, None),
    ("bforge.families", "build_negative", "families.build", None, None),
    ("bforge.families", "build_abelian", "families.build", None, None),
    ("bforge.families", "build_family", "families.build", None, None),
    ("bforge.families", "paper_group_from_nq", "families.build", None, None),
    ("bforge.families", "theta_automorphism", "families.theta_automorphism", None, None),
    ("bforge.families", "refinement_series", "families.refinement_series", None, None),
    ("bforge.families", "full_refined_series", "families.refinement_series", None, None),
    ("bforge.beauville", "exhaustive_search", "beauville.exhaustive_search", _count_search, None),
    ("bforge.beauville", "check_beauville", "beauville.check_beauville", None, None),
    ("bforge.beauville", "check_strongly_real", "beauville.check_strongly_real", None, None),
    ("bforge.beauville", "check_strongly_real_via_base", "beauville.lift", None, None),
    ("bforge.beauville", "lift_check", "beauville.lift", None, None),
    ("bforge.beauville", "paper_structure", "beauville.paper_structure", None, None),
    ("bforge.cli", "main", "cli.main", None, None),
    ("bforge.cli", "load_group", "cli.load_group", None, None),
    ("bforge.cli", "group_stats", "cli.group_stats", None, None),
    ("bforge.reproduce", "run_criteria", "reproduce.run_criteria", None, None),
] + [
    ("bforge.reproduce", f"criterion_{k}", f"reproduce.criterion_{k}", None, None) for k in range(1, 10)
]

# Counted, never timed: GenPair.make runs once per candidate pair.
COUNTED = [("bforge.beauville", "GenPair.make", "beauville.genpair_make.calls")]


def _bforge_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "bforge" or name.startswith("bforge."))]


class Tracer:
    """Records spans for the wrapped calls; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- span recording -------------------------------------------------------

    def wrap(self, fn: Callable, name: str, probe: Optional[Probe] = None, cached: Optional[str] = None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        def gen_wrapper(*args, **kwargs):
            # A generator runs in steps between the consumer's code, so its
            # span is the sum of its steps: stored as [name, 0, total, parent].
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(span)
            it = fn(*args, **kwargs)
            while True:
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    span[2] += clock() - t0
                    stack.pop()
                yield item

        def cached_wrapper(obj):
            # one argument, no packing: as cheap as the cached lookup it replaces
            hit = getattr(obj, cached, None)
            return hit if hit is not None else wrapper(obj)

        if inspect.isgeneratorfunction(fn):
            out = gen_wrapper
        else:
            out = wrapper if cached is None else cached_wrapper
        setattr(out, WRAPPER_FLAG, True)
        out.__wrapped__ = fn
        return out

    def count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPER_FLAG, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- rebinding ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every reference to each target inside bforge."""
        for module in {t[0] for t in TARGETS + COUNTED}:
            importlib.import_module(module)
        modules = _bforge_modules()
        for module, path, name, probe, cached in TARGETS:
            self._patch(modules, module, path, lambda fn, name=name, probe=probe, cached=cached: self.wrap(fn, name, probe, cached))
        for module, path, name in COUNTED:
            self._patch(modules, module, path, lambda fn, name=name: self.count(fn, name))

    def _patch(self, modules: list, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = make(fn)
            setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
            self._undo.append(lambda owner=owner, attr=attr, raw=raw: setattr(owner, attr, raw))
            return
        fn = getattr(owner, attr)
        new = make(fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, new)
                    self._undo.append(lambda mod=mod, key=key: setattr(mod, key, fn))
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if item is fn:
                            value[i] = new
                            self._undo.append(lambda value=value, i=i: value.__setitem__(i, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- metrics --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        return span_metrics(self.spans, self.counts)


def span_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Self time per layer, inclusive time and calls per span name, the
    recorded counts, and the derived ratios.

    A span's self time is its duration minus the durations of its direct
    children (spans of one thread nest, so children never overlap).  The
    inclusive time of a name counts only spans with no ancestor of the same
    name, so recursion and nesting within one name are not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent) in enumerate(spans):
        out[name.split(".")[0] + ".self_s"] += (end - start) - child[idx]
        out[name + ".calls"] = int(out[name + ".calls"]) + 1
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            out[name + ".s"] += end - start
    out.update(counts)
    out["beauville.sigma_dedup_ratio"] = _ratio(out["beauville.sigma_classes"], out["beauville.generating_pairs"])
    out["nq.tail_survival_ratio"] = _ratio(out["nq.new_generators"], out["nq.tail_columns"])
    out["trace.spans"] = len(spans)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def leftover_wrappers() -> list[str]:
    """Every place inside bforge that still holds a tracing wrapper."""
    found = []
    for mod in _bforge_modules():
        for key, value in vars(mod).items():
            if getattr(value, WRAPPER_FLAG, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, list):
                found += [f"{mod.__name__}.{key}[{i}]" for i, v in enumerate(value) if getattr(v, WRAPPER_FLAG, False)]
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if getattr(fn, WRAPPER_FLAG, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found
