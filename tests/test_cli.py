import json
import subprocess
import sys

from ariki.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_symbol_size_too_small(self, capsys):
        code, _, err = run_cli(
            capsys, "schur", "--lambda", "[[1,1]]", "--formula", "gim", "--symbol-size", "1"
        )
        assert code == 1 and "error" in err

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


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "examples")
        assert code == 0
        assert out == "examples: PASS (21 checks)\n"

    def test_repeatable_and_parallel_identical(self, capsys):
        _, base, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--max-n", "4")
        _, again, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--max-n", "4")
        _, parallel, _ = run_cli(
            capsys, "verify", "--suite", "lemmas", "--max-n", "4", "--jobs", "2"
        )
        assert base == again == parallel


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
        ]
        for argv in commands:
            plain, optimized = (
                subprocess.run([sys.executable, *flags, "-m", "ariki.cli", *argv], capture_output=True)
                for flags in ([], ["-O"])
            )
            assert plain.stdout == optimized.stdout and plain.stdout, argv
            assert plain.returncode == optimized.returncode == 0, argv
