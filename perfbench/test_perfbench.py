"""Tests of the benchmark itself: span arithmetic, wrapper removal, and
that seeds and tracing change no output.

    python3 -m pytest perfbench -q
"""

import pytest

import bforge
from bforge import beauville, families, groups, nq, reproduce
from tracer import Tracer, leftover_wrappers, span_metrics
from worker import run_pass
from workloads import WORKLOADS, write_inputs


def test_self_time_of_nested_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["groups.closure", 1.0, 4.0, 0],
        ["groups.closure", 1.5, 3.0, 1],  # same name nested: not counted twice in .s
        ["beauville.exhaustive_search", 5.0, 9.0, 0],
        ["groups.conjugacy_data", 6.0, 8.0, 3],
        ["pc.overlap_checks", 0.0, 0.5, 3],  # generator span: total of its steps
    ]
    m = span_metrics(spans, {"beauville.generating_pairs": 8, "beauville.sigma_classes": 2})
    assert m["cli.self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert m["groups.self_s"] == pytest.approx((3.0 - 1.5) + 1.5 + 2.0)
    assert m["beauville.self_s"] == pytest.approx(4.0 - 2.0 - 0.5)
    assert m["pc.self_s"] == pytest.approx(0.5)
    assert m["groups.closure.s"] == pytest.approx(3.0)
    assert m["groups.closure.calls"] == 2
    assert m["beauville.sigma_dedup_ratio"] == pytest.approx(0.25)
    assert m["nq.tail_survival_ratio"] == 0.0
    assert m["trace.spans"] == 6
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(10.0)


def test_wrappers_cover_imported_names_and_are_removed():
    before = (nq.extend_class, reproduce.CRITERIA[0], groups.PcGroup.__dict__["__init__"],
              beauville.GenPair.__dict__["make"], bforge.triangle_quotient, beauville.quotient_group)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = leftover_wrappers()
        for name in ("bforge.nq.extend_class", "bforge.reproduce.CRITERIA[0]", "bforge.groups.PcGroup.__init__",
                     "bforge.beauville.GenPair.make", "bforge.triangle_quotient", "bforge.beauville.quotient_group",
                     "bforge.cli.quotient_group", "bforge.families.make_presentation"):
            assert name in wrapped
        lp = nq.triangle_quotient(nq.TriangleParams(3, 1), 3)
        pg = families.build_abelian(5)
        res = beauville.exhaustive_search(pg.group, "find")
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    after = (nq.extend_class, reproduce.CRITERIA[0], groups.PcGroup.__dict__["__init__"],
             beauville.GenPair.__dict__["make"], bforge.triangle_quotient, beauville.quotient_group)
    assert all(a is b for a, b in zip(before, after))
    m = tracer.layer_metrics()
    assert m["nq.extend_class.calls"] == lp.nilpotency_class - 1
    assert m["nq.new_generators"] == lp.pres.ngens - 2
    assert m["beauville.generating_pairs"] == res.generating_pairs
    assert m["groups.pcgroup_build.elements"] == 25
    assert m["groups.conjugacy_data.calls"] == 1  # cached calls record no span


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_and_tracing_change_no_output(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("BFORGE_CACHE", str(tmp_path / "cache"))
    write_inputs(workload, tmp_path / "inputs")
    plain = run_pass(workload, tmp_path / "inputs", 1, None)
    traced = []
    for seed in (2, 3):
        tracer = Tracer()
        records = run_pass(workload, tmp_path / "inputs", seed, tracer)
        assert leftover_wrappers() == []
        traced.append((records, tracer.layer_metrics()))

    def outputs(records):
        assert not any(rec["unexpected"] for rec in records)
        return {rec["op"]: (rec["output"], rec["failure"]) for rec in records}

    assert outputs(plain) == outputs(traced[0][0]) == outputs(traced[1][0])
    counts = [{k: v for k, v in m.items() if not k.endswith((".s", "_s"))} for _, m in traced]
    assert counts[0] == counts[1]
