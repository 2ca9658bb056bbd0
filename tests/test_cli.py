import contextlib
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ariki import cli, schur
from ariki.basicset import OrbitLabelling, dm_partition
from ariki.cli import main
from ariki.combinatorics import mp, multipartition_to_json
from ariki.errors import InternalError
from ariki.exactalg import MultiLaurent
from ariki.schur import CycloSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def stub_pools(monkeypatch):
    """verify's pool replaced by one that maps in this process, on 4 usable CPUs.

    Records each pool's max_workers in `pools` and counts pooled maps in `maps`.
    """
    import ariki.verify as verify

    seen = SimpleNamespace(pools=[], maps=0)

    class SerialPool:
        def __init__(self, max_workers):
            seen.pools.append(max_workers)

        def map(self, fn, items, chunksize=1):
            seen.maps += 1
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return seen


@pytest.fixture
def forked_pools(monkeypatch):
    """verify's real pool, forked so that workers see this test's patches, on 2 usable CPUs.

    Returns the max_workers of each pool started.
    """
    import ariki.verify as verify

    seen = []

    class ForkedPool(verify.ProcessPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers, mp_context=multiprocessing.get_context("fork"))

    monkeypatch.setattr(verify, "ProcessPoolExecutor", ForkedPool)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return seen


class TestSchurCommand:
    def test_cancel_golden(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--lambda", "[[2]]", "--formula", "cancel")
        assert code == 0 and out == "q + 1\n"

    def test_empty_multipartition(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--lambda", "[[]]")
        assert code == 0 and out == "1\n"

    def test_all_formulas_agree(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--lambda", "[[1],[]]", "--formula", "all")
        assert code == 0
        assert out.splitlines() == [
            "cancel: -Q0*Q1^-1 + 1",
            "mathas: -Q0*Q1^-1 + 1",
            "gim: -Q0*Q1^-1 + 1",
            "AGREE",
        ]

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--lambda", "[[1,1]]", "--json")
        assert code == 0
        assert json.loads(out) == {"value": "1 + q^-1"}

    @pytest.mark.parametrize(
        "values",
        [
            {"cancel": "q + 1", "mathas": "q + 1", "gim": "q + 1"},
            {"cancel": 'a "b"', "mathas": "\\ \u00e9", "gim": 'a "b"'},
            {"combinatorial": "6", "hooks": "7/2"},
        ],
    )
    def test_json_routes_print_the_bytes_of_json_dumps(self, capsys, values):
        agree = len(set(values.values())) == 1
        assert cli._print_routes(values, as_json=True) == (0 if agree else 1)
        assert capsys.readouterr().out == json.dumps({**values, "agree": agree}) + "\n"

    def test_symbol_size_too_small(self, capsys):
        code, _, err = run_cli(
            capsys, "schur", "--lambda", "[[1,1]]", "--formula", "gim", "--symbol-size", "1"
        )
        assert code == 1 and "error" in err

    def test_large_symbol_size_agrees(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ariki.cli", "schur", "--lambda", "[[2,1],[1],[1]]",
             "--formula", "all", "--symbol-size", "14"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "AGREE"

    def test_huge_symbol_size_builds_in_time(self):
        # Building GIM's factors is quadratic in L: L = 1000 takes well under a second.
        proc = subprocess.run(
            [sys.executable, "-m", "ariki.cli", "schur", "--lambda", "[[2],[]]",
             "--formula", "all", "--symbol-size", "1000"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "AGREE"

    def test_symbol_size_above_the_cap_is_a_flag_error(self, capsys):
        code, out, err = run_cli(
            capsys, "schur", "--lambda", "[[2],[]]", "--formula", "all", "--symbol-size", "1001"
        )
        assert code == 2 and out == ""
        assert "cap of 1000" in err and "does not depend on L" in err

    @pytest.mark.parametrize("formula", ["cancel", "mathas", "gim", "all"])
    def test_negative_symbol_size_is_a_flag_error(self, capsys, formula):
        code, out, err = run_cli(
            capsys, "schur", "--lambda", "[[2],[1]]", "--formula", formula, "--symbol-size", "-3"
        )
        assert (code, out) == (2, "")
        assert err == "error: --symbol-size must be >= 0\n"

    def test_symbol_size_zero_fits_the_empty_multipartition(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--lambda", "[[],[]]", "--formula", "gim", "--symbol-size", "0")
        assert (code, out) == (0, "1\n")

    @pytest.mark.parametrize(
        "argv, digests",
        [
            ("--lambda [[2,1],[],[1,1],[]] --formula all --symbol-size 5",
             ("42b8c7cdfdb4543cf63fe2a627efdd2e93d331ffb9743e2be4137929a488720b",
              "a2201d38ee29b8a8542bf9dae4d8af920e1f8c49819631d00f1d5644a8868180")),
            # 13,894 terms per formula.
            ("--lambda [[2,1],[1,1],[1],[1]] --formula all",
             ("d4f7ed40c1354b7685c86e3cdb790555ff2199171c6ac6a04e479a99e2e3f440",
              "ce8b798bb13c0d61f0eee13f1e8c0da112374df05b05de9a78d455da602eb3a0")),
            # 44,112 terms.
            ("--lambda [[3,2],[2],[1],[1]] --formula cancel",
             ("72d51356a186695b9ffbf48e2df3d1435bbda8eb0b560e0c3ef88f7fd037c88c",
              "d88f51952426fce58f23a90e7cd66725f2b0d6354048db3cef5004edfd8857d4")),
        ],
    )
    def test_rendered_bytes_are_pinned(self, argv, digests):
        # sha256 of stdout, as text and as --json, as the term-by-term renderer printed it.
        for extra, digest in zip(([], ["--json"]), digests):
            proc = subprocess.run(
                [sys.executable, "-m", "ariki.cli", "schur", *argv.split(), *extra],
                capture_output=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert hashlib.sha256(proc.stdout).hexdigest() == digest, extra

    def test_all_expands_and_renders_once(self, capsys, monkeypatch):
        # The CLI multiplies and renders in one call, schur.render_product,
        # and builds no term map through schur.product_divide.
        renders, expansions = [], []

        def counting_render(*args):
            renders.append(args)
            return real_render(*args)

        real_render = schur.render_product
        monkeypatch.setattr(schur, "render_product", counting_render)
        monkeypatch.setattr(schur, "product_divide", lambda *args: expansions.append(args))
        for argv in ([], ["--json"]):
            renders.clear()
            code, out, _ = run_cli(capsys, "schur", "--lambda", "[[2,1],[1],[1]]", "--formula", "all", *argv)
            assert code == 0 and "DISAGREE" not in out
            assert len(renders) == 1 and not expansions

    @pytest.mark.parametrize(
        "name, builder",
        [("cancel", "_cancellation_free_factors"), ("mathas", "_mathas_factors"), ("gim", "_gim_factors")],
    )
    def test_disagreement_prints_each_value(self, capsys, monkeypatch, name, builder):
        lam = "[[2,1],[1],[1]]"
        honest = {f: run_cli(capsys, "schur", "--lambda", lam, "--formula", f)[1] for f in ("cancel", "mathas", "gim")}
        q_plus_one = MultiLaurent(3, {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1})
        wrong = (schur.schur_cancellation_free(mp([2, 1], [1], [1])) * q_plus_one).render()
        real = getattr(schur, builder)

        def forged(*args):
            f = real(*args)
            f.keys["phi", 2] += 1  # one extra factor q + 1
            return f

        monkeypatch.setattr(schur, builder, forged)
        assert run_cli(capsys, "schur", "--lambda", lam, "--formula", name)[1] == wrong + "\n"
        expected = {f: wrong if f == name else honest[f].strip() for f in honest}

        code, out, _ = run_cli(capsys, "schur", "--lambda", lam, "--formula", "all")
        assert code == 1
        assert out.splitlines() == [f"{f}: {expected[f]}" for f in ("cancel", "mathas", "gim")] + ["DISAGREE"]
        code, out, _ = run_cli(capsys, "schur", "--lambda", lam, "--formula", "all", "--json")
        assert code == 1
        assert json.loads(out) == {**expected, "agree": False}

    def test_sharing_never_hides_a_broken_quotient(self):
        # A negative multiplicity in one builder must reach expand, also under
        # python -O, even though the other two multisets are equal.
        for builder in ("_cancellation_free_factors", "_mathas_factors", "_gim_factors"):
            code = (
                "import sys\n"
                "from ariki import cli, schur\n"
                f"real = schur.{builder}\n"
                "def forged(*args):\n"
                "    f = real(*args)\n"
                "    f.keys['phi', 7] -= 1\n"
                "    f.keys['phi', 9] += 0\n"
                "    return f\n"
                f"schur.{builder} = forged\n"
                "sys.exit(cli.main(['schur', '--lambda', '[[2,1],[1],[1]]', '--formula', 'all']))\n"
            )
            for flags in ([], ["-O"]):
                proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
                assert proc.returncode == 1, (builder, flags, proc.stderr)
                assert proc.stdout == "", (builder, flags)
                assert proc.stderr.startswith("internal error: "), (builder, flags, proc.stderr)

    def test_bad_literal_is_a_parse_failure(self):
        for literal in ("[[1,2]]", "[[true]]"):
            proc = subprocess.run(
                [sys.executable, "-m", "ariki.cli", "schur", "--lambda", literal],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2, literal


class TestSemisimpleCommand:
    def test_not_semisimple(self, capsys):
        code, out, _ = run_cli(
            capsys, "semisimple", "--l", "1", "--n", "2", "--e", "2", "--k", "1",
            "--r", "1", "--charges", "0",
        )
        assert code == 0 and out == "NOT SEMISIMPLE\n"

    def test_worked_example_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "semisimple", "--l", "3", "--n", "2", "--e", "12", "--k", "1",
            "--r", "6", "--charges", "3,-1,-2",
        )
        assert code == 0 and out == "NOT SEMISIMPLE\n"

    def test_semisimple_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "semisimple", "--l", "1", "--n", "2", "--e", "5", "--k", "1",
            "--r", "1", "--charges", "0", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "SEMISIMPLE"
        assert obj["thetaP"] == "(1 + z)"

    def test_large_conductors_do_not_hang(self):
        # The verdict must equal the structural route: e' outside [2, n] and
        # every Dipper-Mathas class a singleton.
        cases = [
            (["--l", "3", "--n", "5", "--e", "100003", "--r", "6", "--charges", "3,-1,-2", "--json"],
             (3, 5, CycloSpec(100003, 1, 6, (3, -1, -2)))),
            (["--l", "2", "--n", "4", "--e", "10007", "--r", "1", "--charges", "0,1"],
             (2, 4, CycloSpec(10007, 1, 1, (0, 1)))),
        ]
        for argv, (l, n, spec) in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "ariki.cli", "semisimple", *argv],
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            e_prime = spec.e // math.gcd(spec.e, spec.r)
            singletons = all(len(c) == 1 for c in dm_partition(spec, l, n).classes)
            expected = "SEMISIMPLE" if not (2 <= e_prime <= n) and singletons else "NOT SEMISIMPLE"
            verdict = json.loads(proc.stdout)["verdict"] if "--json" in argv else proc.stdout.strip()
            assert verdict == expected, argv

    @pytest.mark.parametrize(
        "argv, verdict, digest, conductor",
        [
            # thetaP is "0": [2]_q maps to 1 + eta^6 = 0.
            ("--l 3 --n 12 --e 12 --r 6 --charges 3,-1,-2", "NOT SEMISIMPLE", None, 12),
            # The digests are of thetaP as the expanded criterion renders it.
            ("--l 3 --n 12 --e 50 --r 1 --charges 0,17,33", "SEMISIMPLE",
             "746c8e211558413603446b408ce16becab61ccc34e0143ffa031eb5e0e00ff0a", 150),
            ("--l 3 --n 5 --e 100003 --r 1 --charges 0,17,33", "SEMISIMPLE",
             "30d335a934ad7c636b2e81b290579196ec8cda10ec14344cd4662562cdc1a7cc", 300009),
        ],
    )
    def test_theta_p_at_large_rank_and_conductor(self, argv, verdict, digest, conductor):
        # Multiplying the criterion out takes 40 s or more on the first two.
        proc = subprocess.run(
            [sys.executable, "-m", "ariki.cli", "semisimple", *argv.split(), "--json"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert (obj["verdict"], obj["conductor"]) == (verdict, conductor)
        if digest is None:
            assert obj["thetaP"] == "0"
        else:
            assert hashlib.sha256(obj["thetaP"].encode()).hexdigest() == digest

    def test_conductor_above_the_cap_is_refused(self):
        # N = lcm(3, 1000000007) = 3000000021: without the cap, thetaP would
        # allocate a row of N ints.  The verdict alone needs no row.
        argv = [sys.executable, "-m", "ariki.cli", "semisimple",
                "--l", "3", "--n", "5", "--e", "1000000007", "--r", "1", "--charges", "0,17,33"]
        proc = subprocess.run([*argv, "--json"], capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "3000000021" in proc.stderr and "l = 3" in proc.stderr and "e = 1000000007" in proc.stderr
        assert f"cap of {schur.MAX_CONDUCTOR}" in proc.stderr
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (0, "SEMISIMPLE\n")

    def test_gcd_constraint_named(self, capsys):
        code, _, err = run_cli(
            capsys, "semisimple", "--l", "1", "--n", "2", "--e", "4", "--k", "2",
            "--r", "1", "--charges", "0",
        )
        assert code == 1 and "gcd(k,e) must be 1" in err


class TestDefect0Command:
    def test_all_listing(self, capsys):
        code, out, _ = run_cli(capsys, "defect0", "--n", "1", "--e", "2", "--v", "0", "--all")
        assert code == 0 and out == "[[1]]\n"

    def test_all_empty_listing(self, capsys):
        code, out, _ = run_cli(capsys, "defect0", "--n", "2", "--e", "2", "--v", "0", "--all")
        assert code == 0 and out == ""

    def test_two_components(self, capsys):
        code, out, _ = run_cli(
            capsys, "defect0", "--n", "1", "--e", "3", "--v", "0,1", "--all", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"elements": [[[1], []], [[], [1]]]}

    def test_single_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "defect0", "--e", "2", "--v", "0", "--lambda", "[[2]]"
        )
        assert code == 0 and out == "NOT DEFECT0\n"

    def test_flag_combination_failures_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "defect0", "--e", "2", "--v", "0", "--all")
        assert code == 2 and "--n" in err
        code, _, _ = run_cli(capsys, "defect0", "--e", "2", "--v", "0")
        assert code == 2
        code, _, _ = run_cli(capsys, "defect0", "--e", "2", "--v", "0,1", "--lambda", "[[1]]")
        assert code == 2

    def test_rank_flag_must_match_the_multipartition(self, capsys):
        argv = ["defect0", "--e", "3", "--v", "0,1", "--lambda", "[[1],[1]]"]
        code, out, err = run_cli(capsys, *argv, "--n", "5")
        assert code == 2 and out == "" and "--n 5" in err
        code, out, _ = run_cli(capsys, *argv, "--n", "2")
        assert (code, out) == run_cli(capsys, *argv)[:2]

    def test_math_precondition_failures_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "defect0", "--e", "1", "--v", "0", "--lambda", "[[1]]"
        )
        assert code == 1 and "e must be >= 2" in err


class TestAvalueCommand:
    def test_all_routes(self, capsys):
        code, out, _ = run_cli(
            capsys, "avalue", "--lambda", "[[1,1]]", "--r", "1", "--charges", "0",
            "--method", "all",
        )
        assert code == 0
        assert out.splitlines() == [
            "combinatorial: 1",
            "hooks: 1",
            "valuation: 1",
            "AGREE",
        ]

    def test_rank_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "avalue", "--lambda", "[[],[]]", "--r", "2", "--charges", "1,-1",
            "--method", "combinatorial",
        )
        assert code == 0 and out == "0\n"

    def test_fraction_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "avalue", "--lambda", "[[1],[1],[]]", "--r", "6",
            "--charges", "3,-1,-2", "--method", "all", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["agree"] is True
        assert obj["combinatorial"] == obj["hooks"] == obj["valuation"]

    def test_disagreement_prints_each_value(self, capsys, monkeypatch):
        from ariki import cli

        argv = ("avalue", "--lambda", "[[1],[1],[]]", "--r", "6", "--charges", "3,-1,-2")
        honest = run_cli(capsys, *argv, "--method", "hooks")[1].strip()
        real = cli.a_value_hook_formula
        monkeypatch.setattr(cli, "a_value_hook_formula", lambda lam, charge: real(lam, charge) + 1)
        wrong = str(Fraction(honest) + 1)

        code, out, _ = run_cli(capsys, *argv, "--method", "all")
        assert code == 1
        assert out.splitlines() == [f"combinatorial: {honest}", f"hooks: {wrong}", f"valuation: {honest}", "DISAGREE"]
        code, out, _ = run_cli(capsys, *argv, "--method", "all", "--json")
        assert code == 1
        assert json.loads(out) == {"combinatorial": honest, "hooks": wrong, "valuation": honest, "agree": False}


    def test_huge_symbol_is_refused(self):
        # A charge of 10^20 would make the combinatorial route build a row of
        # 10^20 ints; the other two routes read no symbol and still answer.
        argv = [sys.executable, "-m", "ariki.cli", "avalue", "--lambda", "[[1]]", "--r", "1",
                "--charges", "99999999999999999999"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: the shifted symbol would have 100000000000000000001 entries, above the cap of 1000000\n"
        )
        argv = [sys.executable, "-m", "ariki.cli", "avalue", "--lambda", "[[2,1],[1]]", "--r", "2",
                "--charges", "99999999999999999999,-5"]
        for method in ("hooks", "valuation"):
            proc = subprocess.run([*argv, "--method", method], capture_output=True, text=True, timeout=10)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "100000000000000000006\n", "")


class TestBasicSetCommands:
    def test_worked_example_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "basicset", "--l", "3", "--n", "2", "--e", "12", "--k", "1",
            "--r", "6", "--charges", "3,-1,-2",
        )
        assert code == 0
        assert out.splitlines() == [
            "[[2],[],[]]",
            "[[1],[1],[]]",
            "[[1],[],[1]]",
            "[[],[],[2]]",
        ]

    def test_worked_example_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "basicset", "--l", "3", "--n", "2", "--e", "12", "--k", "1",
            "--r", "6", "--charges", "3,-1,-2", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"params", "elements"}
        assert obj["params"]["charges"] == [3, -1, -2]
        assert [[2], [], []] in obj["elements"]

    def test_rank_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "basicset", "--l", "2", "--n", "0", "--e", "3", "--k", "1",
            "--r", "1", "--charges", "0,1",
        )
        assert code == 0 and out == "[[],[]]\n"

    def test_gpn_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "basicset-gpn", "--l", "3", "--p", "3", "--n", "2", "--e", "12",
            "--k", "1", "--r", "2", "--charges", "0", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"orbits"}
        assert obj["orbits"] == [
            {"representative": [[2], [], []], "orbitSize": 3, "stabilizerSize": 1},
            {"representative": [[1], [1], []], "orbitSize": 3, "stabilizerSize": 1},
        ]

    def test_gpn_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "basicset-gpn", "--l", "3", "--p", "3", "--n", "2", "--e", "12",
            "--k", "1", "--r", "2", "--charges", "0",
        )
        assert code == 0
        assert out.splitlines() == [
            "[[2],[],[]] orbitSize=3 stabilizerSize=1 labels=E^[[2],[],[]]",
            "[[1],[1],[]] orbitSize=3 stabilizerSize=1 labels=E^[[1],[1],[]]",
        ]

    def test_gpn_precondition_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "basicset-gpn", "--l", "2", "--p", "2", "--n", "2", "--e", "4",
            "--k", "1", "--r", "1", "--charges", "0",
        )
        assert code == 1 and "n > 2" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("--l=1 --n=28 --e=8 --k=5 --r=1 --charges=1",
             "ade2c56b62417fce20c9f1d69c5a804b81488ca70258319e7a09ccc29389dac1"),
            ("--l=2 --n=13 --e=8 --k=5 --r=3 --charges=1,0",
             "19c52825476bfb99cea7ee41d4efbc29eb297ef4fba11a083dfe051cdee74484"),
        ],
    )
    def test_large_basic_sets_are_pinned(self, argv, digest):
        # The digests were taken from the per-residue crystal scan that the
        # one-pass good-node reading replaced.
        proc = subprocess.run(
            [sys.executable, "-m", "ariki.cli", "basicset", *argv.split(), "--json"],
            capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest, warnings",
        [
            # dm_partition gives the classes (0, 2) and (1,).
            ("basicset --l=3 --n=7 --e=12 --k=1 --r=2 --charges=0,-3,-2 --json",
             "3d32538951a8df1b6347ac9e4a3b57c3b2b489c3d0ab8c7d4727ee8a952a0f6f", 0),
            # The ambient G(6,1,6) set has the classes (0, 3), (1, 4) and (2, 5),
            # each with an inexact charge relation: two diagnostics per class.
            ("basicset-gpn --l=6 --p=3 --n=6 --e=8 --k=1 --r=1 --charges=-2,-2",
             "a6cb74457a4ac940238d3162a702f3c3c7784f6bd45e98f9cc9cef9476aeda74", 6),
        ],
    )
    def test_multi_class_sets_are_pinned(self, capsys, argv, digest, warnings):
        # The digests were taken while every crystal layer was still built
        # and sorted as Multipartitions.
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        lines = err.splitlines()
        assert len(lines) == warnings and all(line.startswith("warning: class (") for line in lines)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # Level 1: one class, generated as the 6-regular partitions.
            ("basicset --l=1 --n=24 --e=6 --k=1 --r=1 --charges=0 --json",
             "5261517dbd06773ca0bdf6044b1f5a2c0ddf2def8a9cc8abd3c136f1aa6c454d"),
            # The classes (0,) and (1,): two level-1 layers combined.
            ("basicset --l=2 --n=13 --e=12 --k=7 --r=2 --charges=-1,-2 --json",
             "74a3c1b725ea2e7a2e89892d58bbc8420e19d4570cbedc94bee9019e3d4bc1a9"),
            # The ambient G(2,1,10) set has the classes (0,) and (1,).
            ("basicset-gpn --l=2 --p=2 --n=10 --e=12 --k=1 --r=2 --charges=-3",
             "2a959e3b7a7680da641fe05ebe7810eefc615dd48d88b95720675d0e9f7e47fc"),
        ],
    )
    def test_level_one_classes_are_pinned(self, capsys, argv, digest):
        # The digests were taken while level-1 layers were still found by
        # walking the crystal.
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_gpn_prints_the_ambient_diagnostics(self, capsys):
        # Each class of the ambient G(6,1,2) set has an inexact charge
        # relation; the set is still rotation-stable, so it is printed.
        code, out, err = run_cli(
            capsys, *"basicset-gpn --l 6 --p 3 --n 2 --e 6 --k 1 --r 1 --charges=-2,2".split()
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f54a5ae0760ccf057dff7f5666c7a87d83414d6de5e58f9bcccb20fbb7f03329"
        )
        assert err.splitlines() == [
            "warning: class (0, 5): charge relation inexact for index 5: m difference 4/3, predicted -2/3",
            "warning: class (0, 5): s vector (0, 1) chosen modulo 2",
            "warning: class (1, 2): charge relation inexact for index 2: m difference -4/3, predicted 2/3",
            "warning: class (1, 2): s vector (0, 1) chosen modulo 2",
            "warning: class (3, 4): charge relation inexact for index 4: m difference -4/3, predicted 2/3",
            "warning: class (3, 4): s vector (0, 1) chosen modulo 2",
        ]

    def test_gpn_orbits_of_every_stabiliser_are_pinned(self, capsys):
        # G(4,4,4): the digest was taken while each orbit was sorted and the
        # orbit list sorted again by representative.
        code, out, err = run_cli(capsys, *"basicset-gpn --l 4 --p 4 --n 4 --e 4 --r 1 --charges 0".split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8696a5f1206ca455d1908f1fb1554027979e84e502185f1cbf32fa472e4c9cd1"
        )
        stabilisers = [line.split()[2] for line in out.splitlines()]
        assert (len(stabilisers), sorted(set(stabilisers))) == (
            28, ["stabilizerSize=1", "stabilizerSize=2", "stabilizerSize=4"]
        )

    def test_gpn_rotation_unstable_set_exits_1(self, capsys):
        code, out, err = run_cli(capsys, *"basicset-gpn --l 4 --p 2 --n 4 --e 4 --r 1 --charges 0,1".split())
        assert (code, out) == (1, "")
        assert err.startswith("error: the assembled set is not stable under component rotation")


class TestLevelFlag:
    # --l is checked before the charge count it sets, so the error names it.
    @pytest.mark.parametrize(
        "argv",
        [
            "semisimple --l 0 --n 2 --e 3 --r 1 --charges 0",
            "defect0 --l 0 --all --n 2 --e 3 --v 0",
            "basicset --l -2 --n 2 --e 3 --r 1 --charges 0",
            "basicset-gpn --l -1 --p 1 --n 2 --e 3 --r 1 --charges 0",
        ],
    )
    def test_level_below_one_is_a_flag_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        level = argv.split()[2]
        assert (code, out, err) == (2, "", f"error: --l must be >= 1, got {level}\n")


class TestGroupFlag:
    # --p is checked before the charge count it sets, as --l is.
    @pytest.mark.parametrize(
        "argv",
        [
            "basicset-gpn --l 4 --p -2 --n 3 --e 4 --r 1 --charges 0,1",
            "basicset-gpn --l 4 --p 0 --n 3 --e 4 --r 1 --charges 0,1",
        ],
    )
    def test_p_below_one_is_a_flag_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        group = argv.split()[4]
        assert (code, out, err) == (2, "", f"error: --p must be >= 1, got {group}\n")

    def test_p_not_dividing_l_is_left_to_the_library(self, capsys):
        code, out, err = run_cli(capsys, *"basicset-gpn --l 4 --p 3 --n 3 --e 4 --r 1 --charges 0".split())
        assert (code, out, err) == (1, "", "error: p must divide l: 3 does not divide 4\n")


class TestRankFlag:
    # A negative --n is a flag error; --n 0 is a valid rank.
    @pytest.mark.parametrize(
        "argv",
        [
            "semisimple --l 2 --n -1 --e 3 --r 1 --charges 0,1",
            "defect0 --all --n -1 --e 3 --v 0,1",
            "basicset --l 2 --n -1 --e 3 --r 1 --charges 0,1",
            "basicset-gpn --l 2 --p 2 --n -1 --e 3 --r 1 --charges 0",
        ],
    )
    def test_negative_rank_is_a_flag_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out, err) == (2, "", "error: --n must be >= 0, got -1\n")

    def test_rank_zero_basic_set(self, capsys):
        code, out, err = run_cli(capsys, *"basicset --l 2 --n 0 --e 3 --r 1 --charges 0,1".split())
        assert (code, out, err) == (0, "[[],[]]\n", "")

    def test_rank_zero_semisimple(self, capsys):
        # The criterion at rank 0 is an empty product: 1.
        code, out, err = run_cli(capsys, *"semisimple --l 2 --n 0 --e 3 --r 1 --charges 0,1".split())
        assert (code, out, err) == (0, "SEMISIMPLE\n", "")

    def test_rank_zero_semisimple_json(self, capsys):
        code, out, err = run_cli(capsys, *"semisimple --l 2 --n 0 --e 3 --r 1 --charges 0,1 --json".split())
        assert (code, err) == (0, "")
        assert json.loads(out) == {"verdict": "SEMISIMPLE", "thetaP": "(1)", "conductor": 6}


class TestHelpIsPinned:
    # sha256 of each --help at COLUMNS=100, as printed while every subcommand
    # still declared its spec flags one by one.
    @pytest.mark.parametrize(
        "command, digest",
        [
            ("", "2d4e4cdf16df841dd31376d6361a52cb3f8e60d4d834c8e4637b06b19482d429"),
            ("schur", "640fe7c351f95c0af5ed7a7f4ee1a337c2a61f1b39ad4b6fb54ca0735a62b8b3"),
            ("semisimple", "f49da7ecbf9240142656b1618356c0f71bc018b3bb6247b59213b815e458c2cb"),
            ("defect0", "cc1d3b4e910bb4feaad83f890255027e0c949cfbd762cadb4badf809a354c9c8"),
            ("avalue", "e117a84d9d392718d3355c21db11c5aff5554890da72b861559cc279ce4943c7"),
            ("basicset", "781773e61301e0a20b59f9562af8b1fa5e2648546cbe920ca0eddbc512873298"),
            ("basicset-gpn", "0a6197c8366d5d28ad7118761e905bd3a4a8da41659b40529f550791576e1b01"),
            ("verify", "ab92dd0be59c057593da514d03ea06a4ba17b243f7590f8723e2c0c95348ced1"),
        ],
    )
    def test_help_bytes_are_pinned(self, command, digest):
        proc = subprocess.run(
            [sys.executable, "-m", "ariki.cli", *command.split(), "--help"],
            capture_output=True, timeout=60, env={**os.environ, "COLUMNS": "100"},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestOracleWork:
    """Deterministic work counts of the avalues suite's oracles; no wall time is gated."""

    def test_each_schur_element_is_expanded_once(self, monkeypatch):
        import ariki.verify as verify

        honest, expanded = schur.schur_cancellation_free, []

        def counting(lam):
            expanded.append(multipartition_to_json(lam))
            return honest(lam)

        # Both bindings: the suite's own, and the one a_value_via_valuation reads.
        monkeypatch.setattr(verify, "schur_cancellation_free", counting)
        monkeypatch.setattr(schur, "schur_cancellation_free", counting)
        result = verify.verify_avalues(max_l=3, max_n=4)
        assert (result.passed, result.checks) == (True, 5120)
        # 136 multipartitions of level <= 3 and rank <= 4, each at 10 charges.
        assert len(expanded) == len(set(expanded)) == 136

    def test_rotation_check_reads_one_a_value_per_multipartition(self, monkeypatch):
        import ariki.verify as verify

        honest, calls, maps = verify.a_value_combinatorial, [], {}

        def counting(lam, charge):
            calls.append(lam)
            return honest(lam, charge)

        class Recording(verify._Workers):
            def map(self, fn, items, us_per_unit):
                items = list(items)
                start = len(calls)
                out = super().map(fn, items, us_per_unit)
                maps[fn.__name__] = (len(calls) - start, sum(len(job[-1]) for job in items))
                return out

        monkeypatch.setattr(verify, "a_value_combinatorial", counting)
        assert verify.verify_avalues(max_l=3, max_n=4, workers=Recording()).passed
        # One call per (job, multipartition): 40 jobs over levels 1-4, 3,760 in all.
        assert maps["_sigma_worker"] == (3760, 3760)
        assert maps["_avalue_worker"] == (1360, 1360)


class TestVerifyCommand:
    def test_suite_choices_are_the_verify_suites(self):
        from ariki import verify

        assert list(cli.SUITE_NAMES) == sorted(verify.SUITES)

    def test_importing_the_cli_loads_no_verify_machinery(self):
        # Only the verify command needs ariki.verify and its process pools.
        code = (
            "import sys\n"
            "import ariki.cli\n"
            "print(sorted(m for m in ('ariki.verify', 'concurrent.futures') if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_single_suite(self, capsys):
        # The fuzz count is exact: its seeded draws and zero skips fix every check.
        for suite, line in (("examples", "examples: PASS (21 checks)\n"), ("fuzz", "fuzz: PASS (3148 checks)\n")):
            code, out, _ = run_cli(capsys, "verify", "--suite", suite)
            assert code == 0
            assert out == line

    def test_repeatable_and_parallel_identical(self, capsys):
        _, base, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--max-n", "4")
        _, again, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--max-n", "4")
        _, parallel, _ = run_cli(
            capsys, "verify", "--suite", "lemmas", "--max-n", "4", "--jobs", "2"
        )
        assert base == again == parallel

    def test_jobs_below_one_is_a_flag_error(self, capsys):
        for jobs in ("0", "-5"):
            code, out, err = run_cli(capsys, "verify", "--suite", "examples", "--jobs", jobs)
            assert code == 2 and out == "" and "--jobs" in err

    @pytest.mark.parametrize(
        "suite, flags",
        [
            ("lemmas", ["--max-n"]),
            ("formulas", ["--max-l", "--max-n"]),
            ("avalues", ["--max-l", "--max-n"]),
            ("defect0", ["--max-l", "--max-n"]),
            ("dominance", ["--max-l", "--max-n"]),
        ],
    )
    def test_scopes_out_of_range_are_flag_errors(self, capsys, suite, flags):
        bad = {"--max-l": ("0", "-2"), "--max-n": ("-1",)}
        for flag in flags:
            for value in bad[flag]:
                code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, value)
                assert code == 2 and out == "" and flag in err, (flag, value)

    def test_smallest_scopes_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "defect0", "--max-l", "1", "--max-n", "0")
        assert code == 0 and out == "defect0: PASS (20 checks)\n"

    def test_workers_capped_by_cpus_and_items(self, monkeypatch, stub_pools):
        import ariki.verify as verify

        above = verify._POOL_BREAK_EVEN_US + 1
        workers = verify._Workers(10**6)
        assert workers.workers == 4  # capped by the CPUs the process may use
        assert workers.map(abs, [-1], above) == [1]  # one item runs here
        assert workers.map(abs, [-1, -2], above // 2) == [1, 2]  # at the break-even, here too
        assert stub_pools.pools == []
        assert workers.map(abs, [-1, -2, -3], above) == [1, 2, 3]
        assert workers.map(abs, range(-9, 0), above) == list(range(9, 0, -1))
        workers.close()
        assert stub_pools.pools == [4] and stub_pools.maps == 2  # one pool serves both maps
        assert verify._Workers(3).workers == 3
        monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        assert verify._Workers(10**6).workers == 2
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        assert verify._Workers(10**6).map(abs, [-1, -2], above) == [1, 2]
        assert stub_pools.pools == [4]  # an unknown CPU count runs serially

    def test_small_maps_start_no_pool(self, capsys, stub_pools):
        _, base, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--max-n", "4", "--jobs", "1")
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--max-n", "4", "--jobs", "2")
        assert code == 0 and out == base
        assert stub_pools.pools == []

    def test_one_pool_per_run(self, capsys, monkeypatch, stub_pools):
        import ariki.verify as verify

        # Every map of two items or more is pooled, so three maps share the pool.
        monkeypatch.setattr(verify, "_POOL_BREAK_EVEN_US", 0)
        argv = ["verify", "--suite", "avalues", "--suite", "defect0", "--max-l", "3", "--max-n", "4"]
        _, base, _ = run_cli(capsys, *argv, "--jobs", "1")
        assert stub_pools.pools == []
        code, out, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0 and out == base
        assert stub_pools.pools == [2] and stub_pools.maps == 3

    @pytest.mark.parametrize(
        "scope", [["avalues", "--max-l", "3", "--max-n", "3"], ["defect0", "--max-l", "3", "--max-n", "4"]]
    )
    def test_bench_sized_oracle_scopes_start_no_pool(self, capsys, stub_pools, scope):
        # Their estimated serial work is below the break-even at the measured costs per unit.
        code, _, _ = run_cli(capsys, "verify", "--suite", *scope, "--jobs", "2")
        assert code == 0
        assert stub_pools.pools == []

    def test_one_cpu_maps_serially(self, capsys, monkeypatch, stub_pools):
        import ariki.verify as verify

        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        argv = ["verify", "--suite", "defect0", "--max-l", "3", "--max-n", "4"]
        _, base, _ = run_cli(capsys, *argv, "--jobs", "1")
        code, out, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0 and out == base
        assert stub_pools.pools == []

    @pytest.mark.parametrize(
        "scope, pools",
        [(["lemmas", "--max-n", "4"], 0), (["defect0", "--max-l", "3", "--max-n", "4"], 1)],
    )
    def test_pooled_output_identical_and_no_process_left(self, capsys, monkeypatch, forked_pools, scope, pools):
        import ariki.verify as verify

        if pools:
            # Force the pool: the scope's maps are below the break-even on their own.
            monkeypatch.setattr(verify, "_POOL_BREAK_EVEN_US", 0)
        _, base, _ = run_cli(capsys, "verify", "--suite", *scope, "--jobs", "1")
        code, out, _ = run_cli(capsys, "verify", "--suite", *scope, "--jobs", "2")
        assert code == 0 and out == base
        assert forked_pools == [2] * pools
        assert multiprocessing.active_children() == []

    def test_worker_error_leaves_no_process(self, capsys, monkeypatch, forked_pools):
        import ariki.verify as verify

        honest = verify.is_defect_zero

        def broken(lam, e, v):
            if multipartition_to_json(lam) == "[[1],[1],[1]]":
                raise InternalError("forged integrity failure")
            return honest(lam, e, v)

        monkeypatch.setattr(verify, "is_defect_zero", broken)
        monkeypatch.setattr(verify, "_POOL_BREAK_EVEN_US", 0)  # the error must cross the pool
        code, out, err = run_cli(capsys, "verify", "--suite", "defect0", "--max-l", "3", "--max-n", "4", "--jobs", "2")
        assert (code, out) == (1, "")
        assert err == "internal error: forged integrity failure\n"
        assert forked_pools == [2]
        assert multiprocessing.active_children() == []

    def test_failure_in_a_pooled_suite(self, capsys, monkeypatch):
        import ariki.verify as verify

        broken = {"[[1],[1],[]]", "[[],[1],[1]]"}
        monkeypatch.setattr(verify, "alpha_identity", lambda lam: multipartition_to_json(lam) not in broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--max-n", "2", "--jobs", "1")
        assert code == 1
        assert out == "lemmas: FAIL (13 checks) first counterexample: alpha identity fails for [[1],[1],[]]\n"

    @pytest.mark.parametrize(
        "attr, forged, failure",
        [
            ("is_semisimple", lambda *args: True, "G(3,1,2) parameters should not be semisimple"),
            ("assemble_basic_set_gpn", lambda *args: OrbitLabelling(()), "orbit count 0"),
        ],
    )
    def test_failure_in_an_inline_suite(self, capsys, monkeypatch, attr, forged, failure):
        # One forgery in each of the two chained example suites; every check still counts.
        import ariki.verify as verify

        monkeypatch.setattr(verify, attr, forged)
        code, out, _ = run_cli(capsys, "verify", "--suite", "examples")
        assert code == 1
        assert out == f"examples: FAIL (21 checks) first counterexample: {failure}\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            ("--suite dominance --max-l 1 --max-n 4", "dominance: PASS (1084 checks)"),
            ("--suite dominance --max-l 2 --max-n 2", "dominance: PASS (1072 checks)"),
            ("--suite avalues --max-l 2 --max-n 2", "avalues: PASS (350 checks)"),
        ],
    )
    def test_symbol_suites_are_pinned(self, capsys, argv, line):
        # The counts were taken from the Fraction-valued symbol code.
        for jobs in ("1", "2"):
            code, out, _ = run_cli(capsys, "verify", *argv.split(), "--jobs", jobs)
            assert code == 0 and out == line + "\n", jobs

    def test_dominance_suite_sees_a_flat_a_value(self, capsys, monkeypatch):
        import ariki.verify as verify

        monkeypatch.setattr(verify, "a_value_combinatorial", lambda lam, charge: 0)
        code, out, _ = run_cli(capsys, "verify", "--suite", "dominance", "--max-l", "1", "--max-n", "2", "--jobs", "1")
        assert code == 1
        assert out == (
            "dominance: FAIL (1003 checks) first counterexample: kappa dominance without a-value drop: "
            "[[2]] vs [[1,1]], charges=(-3,), r=2\n"
        )

    @pytest.mark.parametrize(
        "honest_calls, shown",
        [
            (0, "[[Fraction(13, 1), Fraction(8, 1)]] vs [[Fraction(11, 1), Fraction(10, 1)]]"),
            (
                4,
                "[[Fraction(7, 3), Fraction(1, 3)], [Fraction(12, 1), Fraction(5, 1), Fraction(4, 1), Fraction(1, 1)]]"
                " vs [[Fraction(11, 6), Fraction(5, 6)], [Fraction(12, 1), Fraction(5, 1), Fraction(4, 1), Fraction(1, 1)]]",
            ),
        ],
    )
    def test_concatenation_failure_prints_fractions(self, capsys, monkeypatch, honest_calls, shown):
        # The instances are drawn as ints over 6; the message shows the
        # Fractions they stand for, as the Fraction-valued draw printed them.
        import ariki.verify as verify

        calls = itertools.count()
        monkeypatch.setattr(verify, "multiset_dominates", lambda x, y: next(calls) < honest_calls)
        code, out, _ = run_cli(capsys, "verify", "--suite", "dominance", "--max-l", "1", "--max-n", "1", "--jobs", "1")
        assert code == 1
        assert out == f"dominance: FAIL (1000 checks) first counterexample: concatenation dominance fails for {shown}\n"

    def test_each_suite_gets_the_scopes_it_takes(self, capsys):
        from ariki.verify import verify_formulas, verify_lemmas, verify_semisimple

        code, out, _ = run_cli(
            capsys, "verify", "--suite", "lemmas", "--suite", "formulas", "--suite", "semisimple",
            "--max-l", "1", "--max-n", "2",
        )
        direct = [verify_lemmas(max_n=2), verify_formulas(max_l=1, max_n=2), verify_semisimple()]
        assert code == 0
        assert out.splitlines() == [res.line() for res in direct]


def run_or_exit(capsys, argv):
    """main's exit code, stdout and stderr, also when argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    # Counters and bytes, never wall time.  A cleared cache is a fresh process
    # as far as the CLI can tell: the parser is its only state across calls.
    CALLS = [
        ["schur", "--lambda", "[[2]]"],
        ["semisimple", "--l", "1", "--n", "2", "--e", "3", "--r", "1", "--charges", "0"],
        ["defect0", "--e", "3", "--v", "0", "--all", "--n", "3"],
        ["avalue", "--lambda", "[[1],[]]", "--r", "1", "--charges", "0,1"],
        ["basicset", "--l", "1", "--n", "2", "--e", "2", "--r", "1", "--charges", "0"],
        ["basicset-gpn", "--l", "2", "--p", "2", "--n", "3", "--e", "3", "--r", "1", "--charges", "0"],
        ["verify", "--suite", "examples"],
    ]
    PARSE_ERRORS = [
        [],
        ["nope"],
        ["schur"],
        ["schur", "--lambda", "[["],
        ["avalue", "--lambda", "[[1]]", "--r", "1", "--charges", "0", "--bogus"],
        ["semisimple", "--l", "x"],
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "examples", "--jobs"],
    ]

    def test_built_once_per_process(self, capsys):
        cli._build_parser.cache_clear()
        for argv in self.CALLS * 2:
            assert main(argv) == 0, argv
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(self.CALLS) - 1)
        capsys.readouterr()

    def test_parse_errors_leave_no_state(self, capsys):
        def fresh(argv):
            cli._build_parser.cache_clear()
            return run_or_exit(capsys, argv)

        expected = {tuple(argv): fresh(argv) for argv in self.PARSE_ERRORS + self.CALLS}
        assert all(expected[tuple(argv)][0] == 2 for argv in self.PARSE_ERRORS)
        cli._build_parser.cache_clear()
        for bad, good in zip(self.PARSE_ERRORS, itertools.cycle(self.CALLS)):
            assert run_or_exit(capsys, bad) == expected[tuple(bad)], bad
            assert run_or_exit(capsys, good) == expected[tuple(good)], good
        assert cli._build_parser.cache_info().misses == 1

    def test_append_default_is_not_shared(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "examples", "--suite", "lemmas", "--max-n", "2")
        assert code == 0 and out == "examples: PASS (21 checks)\nlemmas: PASS (13 checks)\n"
        code, out, _ = run_cli(capsys, "verify", "--suite", "examples")
        assert code == 0 and out == "examples: PASS (21 checks)\n"
        assert cli._build_parser().parse_args(["verify"]).suite is None

    def test_help_is_byte_identical_after_other_calls(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        commands = [(), *((name,) for name in cli._HANDLERS)]

        def help_text(command):
            code, out, err = run_or_exit(capsys, [*command, "--help"])
            assert code == 0 and err == "" and out, command
            return out

        first = {}
        for command in commands:
            cli._build_parser.cache_clear()
            first[command] = help_text(command)
        assert all(name in first[()] for name in cli._HANDLERS)
        cli._build_parser.cache_clear()
        for argv in self.CALLS + self.PARSE_ERRORS:
            run_or_exit(capsys, argv)
        for _ in range(2):
            assert {command: help_text(command) for command in commands} == first
        assert cli._build_parser.cache_info().misses == 1


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        argv = [
            sys.executable, "-m", "ariki.cli", "basicset", "--l", "3", "--n", "2",
            "--e", "12", "--k", "1", "--r", "6", "--charges", "3,-1,-2", "--json",
        ]
        first = subprocess.run(argv, capture_output=True).stdout
        second = subprocess.run(argv, capture_output=True).stdout
        assert first == second and first

    def test_same_output_with_asserts_stripped(self):
        # python -O removes every assert: no output may depend on one.
        commands = [
            ["schur", "--lambda", "[[2,1],[1]]", "--formula", "all"],
            ["semisimple", "--l", "3", "--n", "2", "--e", "12", "--r", "6", "--charges", "3,-1,-2", "--json"],
            ["basicset", "--l", "3", "--n", "2", "--e", "12", "--r", "6", "--charges", "3,-1,-2", "--json"],
            ["basicset-gpn", "--l", "3", "--p", "3", "--n", "2", "--e", "12", "--r", "2", "--charges", "0"],
            ["verify", "--suite", "examples"],
            ["semisimple", "--l", "3", "--n", "5", "--e", "499", "--k", "3", "--r", "2", "--charges", "1,0,-4", "--json"],
            ["avalue", "--lambda", "[[2,1],[1],[]]", "--r", "6", "--charges", "3,-1,-2", "--method", "all"],
        ]
        for argv in commands:
            plain, optimized = (
                subprocess.run([sys.executable, *flags, "-m", "ariki.cli", *argv], capture_output=True)
                for flags in ([], ["-O"])
            )
            assert plain.stdout == optimized.stdout and plain.stdout, argv
            assert plain.returncode == optimized.returncode == 0, argv

    def test_broken_invariants_are_internal_errors_with_asserts_stripped(self):
        # Forged coincidences must stop the run, also under python -O, with
        # exit 1 and a message.  Forging every witness joins all components
        # into one class whose charge congruence has no solution; forging
        # only the re-check (after the three adjacency tests of level 3)
        # leaves a witness between two classes.
        forgeries = {
            "def forged(*args):\n"
            "    return True\n": "internal error: unsolvable charge congruence",
            "real, calls = basicset._witness_exists, []\n"
            "def forged(*args):\n"
            "    calls.append(args)\n"
            "    return len(calls) > 3 or real(*args)\n": "internal error: cross-class witness",
        }
        for forged, message in forgeries.items():
            code = (
                "import sys\n"
                "from ariki import basicset, cli\n"
                f"{forged}"
                "basicset._witness_exists = forged\n"
                "sys.exit(cli.main(['basicset', '--l', '3', '--n', '2', '--e', '12', '--r', '6', '--charges', '3,-1,-2']))\n"
            )
            for flags in ([], ["-O"]):
                proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
                assert proc.returncode == 1, (flags, proc.stderr)
                assert proc.stdout == "", flags
                assert proc.stderr.startswith(message), (flags, proc.stderr)


class TestClosedStdout:
    # The read end is closed before the child starts, so its first write to
    # stdout fails, whatever the size of a pipe's buffer.
    @pytest.mark.parametrize(
        "argv",
        [
            ["basicset", "--l=1", "--n=24", "--e=6", "--k=1", "--r=1", "--charges=0"],
            ["schur", "--lambda", "[[3,2],[2,1],[1]]"],
        ],
    )
    def test_exits_1_with_nothing_on_stderr(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ariki.cli", *argv], stdout=write, stderr=subprocess.PIPE, timeout=60
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_a_reader_that_stops_after_one_line(self):
        # As `| head -n 1`: the 19,409 lines (460 kB) outgrow a pipe's 64 kB
        # buffer many times, so the child is still writing when the reader leaves.
        argv = ["basicset", "--l=1", "--n=38", "--e=8", "--k=5", "--r=1", "--charges=1"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "ariki.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (first, proc.wait(timeout=60), err) == (b"[[38]]\n", 1, b"")

    def test_in_process_callers_are_unaffected(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["basicset", "--l=1", "--n=3", "--e=2", "--k=1", "--r=1", "--charges=0"]) == 0
        assert out.getvalue() == "[[3]]\n[[2,1]]\n"
