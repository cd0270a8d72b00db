import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from bforge.cli import evaluate_word, main
from bforge.families import build_family
from bforge.groups import PcGroup
from bforge.pc import parse_pcp, print_pcp, print_presentation

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# -- construct ------------------------------------------------------------------


def test_construct_case_i(workdir, capsys):
    code, rep = run(capsys, "construct", "--family", "case-i", "--p", "5", "--k", "1")
    assert code == 0
    assert rep["group"]["order"] == "125"
    assert rep["group"]["exponent"] == "5"
    assert rep["group"]["class"] == 2
    path = workdir / "case_i_5_1.pcp"
    assert path.exists()
    pf = parse_pcp(path.read_text())
    assert pf.family == "case-i"
    assert print_pcp(parse_pcp(path.read_text())) == path.read_text()


def test_construct_negative(workdir, capsys):
    code, rep = run(capsys, "construct", "--family", "negative", "--p", "3", "--k", "1")
    assert code == 0
    assert rep["group"]["order"] == "81"


def test_construct_invalid_params_exit_2(workdir, capsys):
    assert main(["construct", "--family", "case-i", "--p", "3", "--k", "1"]) == 2


def test_construct_cap_exit_3(workdir, capsys):
    assert main(["construct", "--family", "case-i", "--p", "5", "--k", "3", "--max-order", "1000000"]) == 3


# each order is far above the default cap of 10^6: it must be refused from
# its base and exponent before any big power, factorization or presentation
_OVERSIZED = [
    (["construct", "--family", "case-ii", "--k", "5000"], "3^25000"),
    (["construct", "--family", "case-ii", "--k", "200000"], "3^1000000"),
    (["construct", "--family", "case-iii", "--k", "200000"], "2^999997"),
    (["construct", "--family", "case-i", "--p", "5", "--k", "200000"], "5^600000"),
    (["construct", "--family", "case-i", "--p", "1000000000039", "--k", "1"], "1000000000039^3"),
    (["construct", "--family", "abelian", "--n", "1000000000039"], "1000000000039^2"),
    (["construct", "--family", "abelian", "--n", "1000000000000000003"], "1000000000000000003^2"),
    (["nq", "--p", "3", "--k", "5000"], "3^10000"),
    (["nq", "--p", "1000000000039", "--k", "1"], "1000000000039^2"),
]


@pytest.mark.parametrize("argv,order", _OVERSIZED, ids=[" ".join(a[1:]) for a, _ in _OVERSIZED])
def test_oversized_parameters_exit_3_quickly(workdir, argv, order):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "bforge.cli", *argv], env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"error: group order {order} exceeds cap 1000000\n"
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["series", "--group", "huge.pcp"],
    ["verify", "--group", "huge.pcp", "--paper-structure"],
    ["search", "--group", "huge.pcp", "--mode", "find"],
])
def test_huge_prime_relative_order_exits_3_quickly(workdir, argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    for gens, error in [
        # deciding that 10^18 + 3 is prime takes no sqrt(m) trial division
        ("gen a order 1000000000000000003\ngen b order 1000000000000000003\n",
         "error: group order 1000000000000000006000000000000000009 exceeds cap"),
        # (2^61 - 1)^220 is refused as read, before 4 s of trial division
        (f"gen a order {(2**61 - 1) ** 220}\ngen b order 3\n", "error: relative order of a has 13420 bits"),
        # int() refuses a 5,001-digit token; its length alone puts it over the bound
        ("gen a order 1" + "0" * 4999 + "3\ngen b order 3\n", "error: relative order of a has 5001 digits"),
    ]:
        (workdir / "huge.pcp").write_text("pcgroup huge\n" + gens)
        proc = subprocess.run(
            [sys.executable, "-m", "bforge.cli", *argv], env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith(error)
        assert [f.name for f in workdir.iterdir()] == ["huge.pcp"]


def test_nq_over_memory_exits_3_without_artifact(workdir):
    # the order-13^14 class-5 quotient is under --max-order but far over any
    # machine's memory; the child runs under a 4 GB address-space limit so
    # that a missing guard fails the test instead of the machine
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, 4 * 10**9))

    argv = ["nq", "--p", "13", "--k", "1", "--class", "5", "--max-order", str(10**16), "--out", "big.pcp"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "bforge.cli", *argv],
        env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: group order 3937376385699289 needs about ")
    avail = min(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), 4 * 10**9) >> 20
    assert f"more than the {avail} MB this process may use" in proc.stderr
    assert not (workdir / "big.pcp").exists()


def test_nq_command(workdir, capsys):
    code, rep = run(capsys, "nq", "--p", "3", "--k", "1", "--r", "3", "--class", "3")
    assert code == 0
    assert rep["group"]["order"] == "81"
    pf = parse_pcp((workdir / "tq_3_1_3_c3.pcp").read_text())
    assert "a" in pf.images and "b" in pf.images


def test_nq_output_feeds_verify_and_search(workdir, capsys):
    # class-4 quotient at p=3: the recipe pairs are strongly real there,
    # and the order-81 negative quotient certifies none exhaustively
    run(capsys, "nq", "--p", "3", "--k", "1", "--class", "4")
    code, rep = run(
        capsys, "verify", "--group", "tq_3_1_9_c4.pcp", "--paper-structure", "--strong",
    )
    assert code == 0
    assert rep["group"]["order"] == "2187"
    run(capsys, "nq", "--p", "3", "--k", "1", "--r", "3", "--class", "3")
    code, rep = run(capsys, "search", "--group", "tq_3_1_3_c3.pcp", "--mode", "prove-none")
    assert code == 0 and rep["found"] is False


# -- verify ---------------------------------------------------------------------


def test_verify_paper_structure_strong(workdir, capsys):
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    code, rep = run(
        capsys, "verify", "--group", "case_ii_3_1.pcp",
        "--paper-structure", "--n1", "1", "--n2", "2", "--strong",
    )
    assert code == 0
    cert = rep["certificates"][0]
    assert cert["beauville"] is True
    assert cert["strongly_real"] is True
    assert cert["conjugators"] == ["1", "1"]
    assert cert["pair1"]["signature"] == ["3", "3", "9"]


def test_verify_identical_pairs_exit_1(workdir, capsys):
    run(capsys, "construct", "--family", "case-i", "--p", "5", "--k", "1")
    code, rep = run(capsys, "verify", "--group", "case_i_5_1.pcp", "--pair1", "x;y", "--pair2", "x;y")
    assert code == 1
    assert rep["certificates"][0]["intersection_witness"] is not None


def test_verify_case_iii_strong(workdir, capsys):
    run(capsys, "construct", "--family", "case-iii", "--k", "2")
    code, _ = run(
        capsys, "verify", "--group", "case_iii_2_2.pcp",
        "--paper-structure", "--n1", "1", "--n2", "2", "--strong",
    )
    assert code == 0


def test_verify_parse_error_exit_2(workdir, capsys):
    run(capsys, "construct", "--family", "case-i", "--p", "5", "--k", "1")
    assert main(["verify", "--group", "case_i_5_1.pcp", "--pair1", "x;(y", "--pair2", "x;y"]) == 2
    assert main(["verify", "--group", "case_i_5_1.pcp", "--pair1", "q;y", "--pair2", "x;y"]) == 2
    assert main(["verify", "--group", "missing.pcp", "--pair1", "x;y", "--pair2", "x;y"]) == 2
    deep = "(" * 2000 + "x" + ")" * 2000 + ";y"
    assert main(["verify", "--group", "case_i_5_1.pcp", "--pair1", deep, "--pair2", "x;y"]) == 2
    # a directory, and a one-generator group with no marked pair
    assert main(["verify", "--group", str(workdir), "--pair1", "x;y", "--pair2", "x;y"]) == 2
    (workdir / "c5.pcp").write_text("pcgroup c5\ngen a order 5\n")
    assert main(["verify", "--group", "c5.pcp", "--pair1", "a;a", "--pair2", "a;a"]) == 2
    # a theta stanza without an image for y
    text = (workdir / "case_i_5_1.pcp").read_text()
    partial = "".join(ln for ln in text.splitlines(True) if not ln.startswith("theta y"))
    assert partial != text
    (workdir / "partial_theta.pcp").write_text(partial)
    for argv in (
        ["verify", "--group", "partial_theta.pcp", "--pair1", "x;y", "--pair2", "x;y"],
        ["search", "--group", "partial_theta.pcp", "--mode", "find"],
        ["series", "--group", "partial_theta.pcp"],
    ):
        assert main(argv) == 2
    assert capsys.readouterr().err.count("theta stanza has no image for y") == 3


# -- search ---------------------------------------------------------------------


def test_search_prove_none_negative(workdir, capsys):
    run(capsys, "construct", "--family", "negative", "--p", "3", "--k", "1")
    code, rep = run(capsys, "search", "--group", "negative_3_1.pcp", "--mode", "prove-none")
    assert code == 0
    assert rep["found"] is False
    assert rep["counts"]["generating_pairs"] == 3888
    assert rep["counts"]["distinct_sigma_sets"] == 4


def test_search_find_abelian(workdir, capsys):
    run(capsys, "construct", "--family", "abelian", "--n", "5")
    code, rep = run(capsys, "search", "--group", "abelian_5.pcp", "--mode", "find")
    assert code == 0
    assert rep["found"] is True
    assert rep["certificates"][0]["beauville"] is True


def test_search_prove_none_finds_structure_exit_1(workdir, capsys):
    run(capsys, "construct", "--family", "abelian", "--n", "5")
    code, rep = run(capsys, "search", "--group", "abelian_5.pcp", "--mode", "prove-none")
    assert code == 1
    assert rep["found"] is True


def test_search_cap_exit_3(workdir, capsys):
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    assert main(["search", "--group", "case_ii_3_1.pcp", "--mode", "prove-none", "--max-order", "100"]) == 3


def test_search_cap_checked_before_enumeration(workdir, capsys, monkeypatch):
    # the order-59049 group is over every default search cap: each mode
    # exits 3 without building the group's step tables
    run(capsys, "construct", "--family", "case-ii", "--k", "2")

    def fail(self):
        raise AssertionError("enumerated an input over the search cap")

    monkeypatch.setattr(PcGroup, "_build_gen_step", fail)
    for mode in ("find", "prove-none", "find-strongly-real"):
        assert main(["search", "--group", "case_ii_3_2.pcp", "--mode", mode]) == 3
    assert main(["search", "--group", "case_ii_3_2.pcp", "--mode", "find", "--max-order", "59048"]) == 3


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "case-i", "--p", "5", "--k", "1"],
        ["nq", "--p", "3", "--k", "1", "--class", "2", "--out", "tq.pcp"],
        ["verify", "--group", "case_ii_3_1.pcp", "--paper-structure"],
        ["search", "--group", "case_ii_3_1.pcp", "--mode", "prove-none"],
        ["series", "--group", "case_ii_3_1.pcp"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_positive_max_order_exit_2(workdir, capsys, argv, cap):
    # a cap below 1 is bad input, not a cap that every group exceeds
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    assert main([*argv, "--max-order", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-order {cap}: the order cap must be at least 1\n"
    assert sorted(p.name for p in workdir.glob("*.pcp")) == ["case_ii_3_1.pcp"]


def test_search_jobs(workdir, capsys):
    run(capsys, "construct", "--family", "abelian", "--n", "7")
    code1, rep1 = run(capsys, "search", "--group", "abelian_7.pcp", "--mode", "find", "--jobs", "1")
    code2, rep2 = run(capsys, "search", "--group", "abelian_7.pcp", "--mode", "find", "--jobs", "4")
    assert code1 == code2 == 0
    assert rep1["certificates"] == rep2["certificates"]


# -- series ---------------------------------------------------------------------


def test_series_case_ii(workdir, capsys):
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    code, rep = run(capsys, "series", "--group", "case_ii_3_1.pcp", "--from", "3", "--to", "4")
    assert code == 0
    weight3 = [t for t in rep["terms"] if t["weight"] == 3]
    assert [t["order"] for t in weight3] == ["9", "3", "1"]
    assert all(t["theta_invariant"] for t in rep["terms"])
    assert all(t["normal"] for t in rep["terms"])
    # the full group at the bottom of the weight-4 block is strongly real
    assert any(t["quotient_strongly_real"] for t in rep["terms"])


def test_series_lift_path_cross_checks_small_quotients(workdir, capsys, monkeypatch):
    # --sigma-cap 10 sends every quotient of order > 10 down the lift path;
    # at order <= 10^4 lift_check also decides the structure directly
    import bforge.beauville as beauville

    reports = []

    def spy(*args, **kwargs):
        reports.append(lift_check(*args, **kwargs))
        return reports[-1]

    lift_check = beauville.lift_check
    monkeypatch.setattr(beauville, "lift_check", spy)
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    code, rep = run(capsys, "series", "--group", "case_ii_3_1.pcp", "--sigma-cap", "10")
    assert code == 0
    assert any(t["lift"] for t in rep["terms"])
    assert reports and all(r.direct_check is not None for r in reports)
    assert any(r.verdict and r.direct_check for r in reports)


def test_series_case_i_all_quotients_strongly_real(workdir, capsys):
    # for p > 3 every quotient of the class-2 group down to the
    # abelianization carries the structure
    run(capsys, "construct", "--family", "case-i", "--p", "5", "--k", "1")
    code, rep = run(capsys, "series", "--group", "case_i_5_1.pcp", "--from", "2", "--to", "2", "--n1", "1", "--n2", "3")
    assert code == 0
    assert [t["order"] for t in rep["terms"]] == ["5", "1"]
    assert all(t["quotient_strongly_real"] for t in rep["terms"])


def test_series_decides_each_shared_term_once(workdir, capsys, monkeypatch):
    # gamma_(i+1) ends weight i and starts weight i+1: its quotient is
    # decided once, and both entries carry that verdict
    import bforge.cli

    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    decided = []
    decide = bforge.cli.quotient_strongly_real

    def counting(proj, *args):
        decided.append(proj.kernel())
        return decide(proj, *args)

    monkeypatch.setattr(bforge.cli, "quotient_strongly_real", counting)
    code, rep = run(capsys, "series", "--group", "case_ii_3_1.pcp", "--from", "2", "--to", "4")
    assert code == 0
    orders = [t["order"] for t in rep["terms"]]
    assert len(decided) == len(set(decided)) == len(set(orders)) < len(orders)
    verdict = {}
    for t in rep["terms"]:
        assert verdict.setdefault(t["order"], t["quotient_strongly_real"]) == t["quotient_strongly_real"]


def test_series_and_search_read_no_subgroup_mask(workdir, capsys, monkeypatch):
    # orders, membership, normality and quotient presentations all read the
    # induced pc sequence: neither command enumerates a subgroup
    from bforge.groups import Subgroup

    reads = []
    build = Subgroup.mask.fget
    monkeypatch.setattr(Subgroup, "mask", property(lambda H: reads.append(len(H)) or build(H)))
    run(capsys, "nq", "--p", "3", "--k", "1", "--class", "4", "--out", "tq314.pcp")
    assert run(capsys, "series", "--group", "tq314.pcp")[0] == 0
    run(capsys, "nq", "--p", "2", "--k", "2", "--class", "4", "--out", "tq224.pcp")
    code, rep = run(capsys, "search", "--group", "tq224.pcp", "--mode", "find")
    assert code == 0 and rep["group"]["order"] == "1024"
    assert reads == []
    G = PcGroup(parse_pcp(Path("tq314.pcp").read_text()).presentation)
    assert G.trivial_set().mask == 1 and reads == [1]  # the patched property does count


def test_series_fills_only_the_missing_recipe_exponent(workdir, capsys):
    # --n1 2 alone takes n2 from the recipe (2 at p = 3): the pair {w, w}
    # that no quotient carries, not the default recipe pair
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    args = ["series", "--group", "case_ii_3_1.pcp", "--from", "3", "--to", "3"]
    _, default = run(capsys, *args)
    _, n1_only = run(capsys, *args, "--n1", "2")
    _, both = run(capsys, *args, "--n1", "2", "--n2", "2")
    assert n1_only["determinism_hash"] == both["determinism_hash"]
    assert n1_only["determinism_hash"] != default["determinism_hash"]
    assert not any(t["quotient_strongly_real"] for t in n1_only["terms"])


@pytest.mark.parametrize(
    "weights, message",
    [
        (["--from", "0"], "--from 0: the refinement starts at weight 2"),
        (["--from", "1"], "--from 1: the refinement starts at weight 2"),
        (["--from", "5", "--to", "2"], "--to 2 is below --from 5"),
        (["--to", "1"], "--to 1 is below --from 2"),
        (["--from", "3", "--to", "0"], "--to 0 is below --from 3"),
    ],
)
def test_series_bad_weight_range_exit_2(workdir, capsys, weights, message):
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    assert main(["series", "--group", "case_ii_3_1.pcp", *weights]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "family, args, weights, message",
    [
        ("case-ii", ["--k", "1"], ["--from", "4"], "--from 4 is above the group's class 3"),
        ("case-ii", ["--k", "1"], ["--from", "9"], "--from 9 is above the group's class 3"),
        ("abelian", ["--n", "5"], ["--from", "3"], "--from 3 is above the group's class 1"),
        ("abelian", ["--n", "5"], ["--from", "2"], "--from 2 is above the group's class 1"),
    ],
)
def test_series_from_above_class_exit_2(workdir, capsys, family, args, weights, message):
    run(capsys, "construct", "--family", family, *args)
    name = "case_ii_3_1.pcp" if family == "case-ii" else "abelian_5.pcp"
    assert main(["series", "--group", name, *weights]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}; give --to for trivial terms\n"


_H3C2 = """pcgroup h3c2
gen x order 3
gen y order 3
gen z order 3
gen c order 2
comm y x = z
distinguished x = x c
distinguished y = y
"""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["series"], "h3c2 is not a p-group: its series has no index-p refinement"),
        (["verify", "--paper-structure"], "no generating-pair recipe: h3c2 is not a p-group"),
    ],
)
def test_nilpotent_non_p_group_exit_2(workdir, capsys, argv, message):
    # Heisenberg(3) x C2 is nilpotent but not a p-group: no index-p
    # refinement and no recipe pairs
    (workdir / "h3c2.pcp").write_text(_H3C2)
    assert main([argv[0], "--group", "h3c2.pcp", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_series_empty_default_range_and_explicit_trivial_terms(workdir, capsys):
    # without --from the abelian group's range 2..1 is empty and valid; past
    # the class an explicit --to gives the trivial terms
    run(capsys, "construct", "--family", "abelian", "--n", "5")
    code, rep = run(capsys, "series", "--group", "abelian_5.pcp")
    assert code == 0 and rep["terms"] == []
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    code, rep = run(capsys, "series", "--group", "case_ii_3_1.pcp", "--from", "3")
    assert code == 0 and {t["weight"] for t in rep["terms"]} == {3}
    code, rep = run(capsys, "series", "--group", "case_ii_3_1.pcp", "--from", "4", "--to", "5")
    assert code == 0 and {t["order"] for t in rep["terms"]} == {"1"}


def test_series_sigma_cap_forces_lift_path(workdir, capsys):
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    code, rep = run(
        capsys, "series", "--group", "case_ii_3_1.pcp", "--from", "4", "--to", "4", "--sigma-cap", "10",
    )
    assert code == 0
    # weight 4 of the class-3 group has the single trivial term, so the
    # quotient is the whole group; the cap forces the base-projection route,
    # which degenerates to the full check here and still certifies it
    assert [t["order"] for t in rep["terms"]] == ["1"]
    assert rep["terms"][0]["quotient_strongly_real"] is True
    assert rep["terms"][0]["quotient_verdict"] == "strongly real" and rep["terms"][0]["lift"] is True


def test_series_lift_path_agrees_with_full_sigma_sets(workdir, capsys):
    # the lift path (every quotient over --sigma-cap 10) abstains where the
    # full check says "not beauville", and agrees wherever it certifies
    run(capsys, "construct", "--family", "case-ii", "--k", "1")
    _, full = run(capsys, "series", "--group", "case_ii_3_1.pcp")
    _, lifted = run(capsys, "series", "--group", "case_ii_3_1.pcp", "--sigma-cap", "10")
    assert len(full["terms"]) == len(lifted["terms"]) == 5
    assert not any(t["lift"] for t in full["terms"]) and any(t["lift"] for t in lifted["terms"])
    for f, t in zip(full["terms"], lifted["terms"]):
        assert f["quotient_strongly_real"] == t["quotient_strongly_real"]
        if t["quotient_verdict"] in ("strongly real", "beauville only"):
            assert f["quotient_verdict"] == t["quotient_verdict"]
    assert full["pairs"] == lifted["pairs"]


# (weight, |T/N|, verdict, decided by the lift path) for each refinement term
# of the p = 3 class-4 triangle quotient, recorded from an in-process
# refinement_series / quotient_group / quotient_strongly_real walk of the tower
_TOWER_3_1_C4 = [
    (2, 9, "not beauville", False), (2, 27, "not beauville", False),
    (3, 27, "not beauville", False), (3, 81, "not beauville", False), (3, 243, "strongly real", False),
    (4, 243, "strongly real", False), (4, 729, "strongly real", False), (4, 2187, "strongly real", False),
]


def test_series_tower_verdicts(workdir, capsys):
    code, _ = run(capsys, "nq", "--p", "3", "--k", "1", "--class", "4", "--out", "t.pcp")
    assert code == 0
    code, rep = run(capsys, "series", "--group", "t.pcp")
    assert code == 0 and rep["group"]["order"] == "2187"
    got = [(t["weight"], 2187 // int(t["order"]), t["quotient_verdict"], t["lift"]) for t in rep["terms"]]
    assert got == _TOWER_3_1_C4
    assert [t["quotient_strongly_real"] for t in rep["terms"]] == [v == "strongly real" for _, _, v, _ in got]
    assert [(pr["signature"], pr["generating"], pr["on_recipe"]) for pr in rep["pairs"]] == [
        (["3", "3", "9"], True, True), (["9", "3", "3"], True, True),
    ]


# -- reports ----------------------------------------------------------------------


def test_report_schema_and_determinism(workdir, capsys):
    run(capsys, "construct", "--family", "case-i", "--p", "5", "--k", "1")
    code1, rep1 = run(capsys, "verify", "--group", "case_i_5_1.pcp", "--pair1", "x;y", "--pair2", "x*y;y^-1")
    code2, rep2 = run(capsys, "verify", "--group", "case_i_5_1.pcp", "--pair1", "x;y", "--pair2", "x*y;y^-1")
    for rep in (rep1, rep2):
        assert set(rep) >= {"version", "command", "group", "certificates", "determinism_hash", "elapsed_ms"}
        assert isinstance(rep["group"]["order"], str)
        assert isinstance(rep["group"]["exponent"], str)
    assert rep1["determinism_hash"] == rep2["determinism_hash"]
    stripped1 = {k: v for k, v in rep1.items() if k != "elapsed_ms"}
    stripped2 = {k: v for k, v in rep2.items() if k != "elapsed_ms"}
    assert stripped1 == stripped2


# (argv, exit code, determinism_hash); the hash covers the whole report
# except timing, so any change to a verdict, a certificate, a count or
# __version__ shows here
_GOLDEN = [
    ("construct --family case-iii --k 2", 0, "b9d799e8ca01195d9c6017170c0912e2265e8e04278cad69de27eb5d7e51db6c"),
    ("construct --family case-i --p 5 --k 1", 0, "52dfdc60ce2b9a59e637b863727a5714699d2b91363467e46c004252dd5a8ec7"),
    ("construct --family case-ii --k 1", 0, "144436e47fb39db54c9e4b6d2404bbafe935081d1fc9edbcd12ea1331bdac36c"),
    ("verify --group case_i_5_1.pcp --paper-structure --strong", 0,
     "4d55942fae964433e02b7ab93d3481ec16ccdfae7ac6bfca5125cd3128064f86"),
    ("series --group case_ii_3_1.pcp", 0, "c37441fa0b10d143d1de0dbf16f3f1f99dedac6041122b521cad8bc45a4ac857"),
    ("series --group case_ii_3_1.pcp --sigma-cap 10", 0,
     "2746373ca70ebfa1f8607a0d3b0a446b9993a903e791003dbd2a3d328db3aaf1"),
    ("search --group case_iii_2_2.pcp --mode find", 0,
     "4fe370ee2899a3571b33ace0e4ab31809cc8f4b7ba5fe0952d4393844f4b83d8"),
    ("search --group case_iii_2_2.pcp --mode prove-none", 1,
     "99d2054f57b8a43393a520d6d309b6c1cc86d7d9efbc08ffcec6092fdb7082f2"),
    ("search --group case_iii_2_2.pcp --mode find-strongly-real", 0,
     "0cd21bd1c8b11ba44d3d6d2f14877de51dbbd8e890969234ac85d4454be00b1f"),
]


def test_report_hashes_are_pinned(workdir, capsys):
    got = []
    for argv, _, _ in _GOLDEN:
        code, rep = run(capsys, *argv.split())
        got.append((argv, code, rep["determinism_hash"]))
    assert got == _GOLDEN


def test_reports_read_no_stats_file(workdir, capsys):
    # a planted .bforge/stats file with a wrong exponent and class is never
    # read, and no command writes anything beside its .pcp artifact
    pres = build_family("case-i", p=5, k=1).presentation
    key = hashlib.sha256(print_presentation(pres).encode()).hexdigest()
    planted = workdir / ".bforge" / "stats" / f"{key}.json"
    planted.parent.mkdir(parents=True)
    planted.write_text(json.dumps({"name": pres.name, "order": "125", "exponent": "7", "class": 9}))
    assert run(capsys, "construct", "--family", "case-i", "--p", "5", "--k", "1")[0] == 0
    code, rep = run(capsys, "verify", "--group", "case_i_5_1.pcp", "--paper-structure", "--strong")
    assert code == 0
    assert (rep["group"]["exponent"], rep["group"]["class"]) == ("5", 2)
    assert rep["determinism_hash"] == "4d55942fae964433e02b7ab93d3481ec16ccdfae7ac6bfca5125cd3128064f86"
    assert run(capsys, "search", "--group", "case_i_5_1.pcp", "--mode", "find")[0] == 0
    assert run(capsys, "series", "--group", "case_i_5_1.pcp")[0] == 0
    assert sorted(f for f in workdir.rglob("*") if f.is_file()) == [planted, workdir / "case_i_5_1.pcp"]


def test_reproduce_only(workdir, capsys):
    code, rep = run(capsys, "reproduce", "--only", "4")
    assert code == 0
    assert rep["all_pass"] is True
    assert rep["criteria"][0]["number"] == 4


def test_reproduce_only_rejects_unknown_criteria(workdir, capsys):
    for only in ("10", "0", "4,10", "x"):
        assert main(["reproduce", "--only", only]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""


# -- word grammar ------------------------------------------------------------------


def test_evaluate_word_grammar(g51):
    G = g51.group
    named = g51.named
    x, y = g51.x, g51.y
    assert evaluate_word(G, named, "1") == 0
    assert evaluate_word(G, named, "x") == x
    assert evaluate_word(G, named, "x*y") == G.mul(x, y)
    assert evaluate_word(G, named, "x y") == G.mul(x, y)
    assert evaluate_word(G, named, "(x*y)^2") == G.pow(G.mul(x, y), 2)
    assert evaluate_word(G, named, "x^-1") == G.inv(x)
    assert evaluate_word(G, named, "(x*y)^-3*x") == G.mul(G.pow(G.mul(x, y), -3), x)
    with pytest.raises(ValueError):
        evaluate_word(G, named, "x^")
    with pytest.raises(ValueError):
        evaluate_word(G, named, "(x")
