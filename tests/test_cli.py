from __future__ import annotations

import json

import pytest

from craig.cli import main
from craig.models import evaluate, structure_from_json
from craig.parser import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_closed(data_dir, capsys):
    code, out, _ = run(capsys, "prove", str(data_dir / "fig2.fol"))
    assert code == 0
    assert "closed: 2 branches" in out


def test_prove_trace(data_dir, capsys):
    code, out, _ = run(capsys, "--trace", "prove", str(data_dir / "fig2.fol"))
    assert code == 0
    assert "x  clash: A(c0) ^L / !A(c0) ^R" in out


def test_prove_satisfiable_prints_model(data_dir, capsys):
    code, out, _ = run(capsys, "prove", str(data_dir / "sat.fol"))
    assert code == 1
    model = structure_from_json(out)
    assert model.relations["P"] == {(0,)}


def test_prove_unknown_budget(data_dir, capsys):
    code, out, err = run(capsys, "--budget", "1",
                         "prove", str(data_dir / "fig2.fol"))
    assert code == 2
    assert "budget" in err


def test_interpolate_fig2(data_dir, capsys):
    code, out, _ = run(capsys, "interpolate", str(data_dir / "fig2-implication.fol"))
    assert code == 0
    assert out.strip() == "exists x0. A(x0) & !B(x0)"
    assert parse(out.strip()) is not None  # re-parses


def test_interpolate_simplify_flag(data_dir, capsys):
    code, out, _ = run(capsys, "--simplify", "interpolate",
                       str(data_dir / "example1.fol"))
    assert code == 0
    assert out.strip() == "exists x0. Big(x0) & Cat(x0)"


def test_interpolate_emit_annotated(data_dir, capsys):
    code, out, _ = run(capsys, "--emit-annotated", "interpolate",
                       str(data_dir / "fig2-implication.fol"))
    assert code == 0
    assert "[interpolant exists x0. A(x0) & !B(x0)]" in out


def test_interpolate_invalid_implication(tmp_path, capsys):
    problem = tmp_path / "bad.fol"
    problem.write_text("[left]\nP(c)\n[right]\nQ(d)\n")
    code, out, err = run(capsys, "interpolate", str(problem))
    assert code == 1
    assert "not valid" in err
    assert structure_from_json(out) is not None


def test_check_interpolant_verified(data_dir, capsys):
    code, out, _ = run(capsys, "check-interpolant", str(data_dir / "example1.fol"),
                       "--theta", "exists x. Big(x) & Cat(x)")
    assert code == 0 and out.strip() == "verified"


def test_check_interpolant_violation(data_dir, capsys):
    code, out, _ = run(capsys, "check-interpolant", str(data_dir / "example1.fol"),
                       "--theta", "exists x. Green(x)")
    assert code == 1 and "signature-violation" in out


def test_check_interpolant_not_entailed(data_dir, capsys):
    # a countermodel is a verdict the program reached, not an unknown
    code, out, _ = run(capsys, "check-interpolant", str(data_dir / "example1.fol"),
                       "--theta", "forall x. Cat(x)")
    assert code == 1
    verdict, model = out.splitlines()
    assert verdict == "not-entailed: countermodel found for phi -> theta"
    A = structure_from_json(model)
    assert evaluate(A, parse("(exists x. Cat(x)) & forall x. Cat(x) -> Big(x) & Green(x)"))
    assert not evaluate(A, parse("forall x. Cat(x)"))


def test_check_interpolant_budget(data_dir, capsys):
    code, out, _ = run(capsys, "--budget", "1", "check-interpolant",
                       str(data_dir / "example1.fol"),
                       "--theta", "exists x. Big(x) & Cat(x)")
    assert code == 2 and "entailment-unknown" in out


def test_lyndon_pass_and_fail(data_dir, capsys):
    code, out, _ = run(capsys, "lyndon", str(data_dir / "example1.fol"),
                       "--theta", "exists x. Big(x) & Cat(x)")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "lyndon", str(data_dir / "example1.fol"),
                       "--theta", "(exists x. Cat(x)) & forall x. Cat(x) -> Big(x)")
    assert code == 1 and out.strip() == "false"


def test_search_interpolant(data_dir, capsys):
    code, out, _ = run(capsys, "search-interpolant", str(data_dir / "example1.fol"),
                       "--max-size", "6")
    assert code == 0
    theta = parse(out.strip())
    assert theta is not None


def test_search_interpolant_out_of_budget_is_unknown(data_dir, capsys):
    code, out, err = run(capsys, "--budget", "1", "search-interpolant",
                         str(data_dir / "example1.fol"), "--max-size", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("unknown:")


def test_beth_definition(data_dir, capsys):
    code, out, _ = run(capsys, "beth", str(data_dir / "tallest.fol"),
                       "--define", "Tallest", "--tau", "Taller-than")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# variables: x1"
    assert lines[1] == "forall x0. !Taller-than(x0, x1)"


def test_beth_refuted_prints_pair(data_dir, capsys):
    code, out, err = run(capsys, "beth", str(data_dir / "tallest.fol"),
                         "--define", "Taller-than", "--tau", "Tallest")
    assert code == 1
    pair = [structure_from_json(line) for line in out.strip().splitlines()]
    assert len(pair) == 2
    assert "not implicitly defined" in err


def test_padoa_pair_json(data_dir, capsys):
    code, out, _ = run(capsys, "padoa", str(data_dir / "tallest.fol"),
                       "--define", "Taller-than", "--tau", "Tallest")
    assert code == 0
    a, b = (structure_from_json(line) for line in out.strip().splitlines())
    assert a.relations["Tallest"] == b.relations["Tallest"]
    assert a.relations["Taller-than"] != b.relations["Taller-than"]


def test_padoa_absent(tmp_path, capsys):
    problem = tmp_path / "pq.fol"
    problem.write_text("[theory]\nforall x. P(x) -> Q(x)\nforall x. Q(x) -> P(x)\n")
    code, out, _ = run(capsys, "padoa", str(problem), "--define", "P", "--tau", "Q")
    assert code == 1 and out.strip() == "none"


def test_robinson(tmp_path, capsys):
    problem = tmp_path / "rob.fol"
    problem.write_text("[left]\nforall x. P(x)\n[right]\nexists x. !P(x)\n")
    code, out, _ = run(capsys, "robinson", str(problem))
    assert code == 0
    assert parse(out.strip()) is not None


def test_robinson_jointly_consistent(tmp_path, capsys):
    problem = tmp_path / "rob2.fol"
    problem.write_text("[left]\nA(c)\n[right]\nB(c)\n")
    code, out, err = run(capsys, "robinson", str(problem))
    assert code == 1
    assert structure_from_json(out) is not None
    assert "jointly consistent" in err


def test_theory_interpolate_weak(tmp_path, capsys):
    problem = tmp_path / "weak.fol"
    problem.write_text(
        "[theory]\nforall x. P(x) -> Q(x)\n[left]\nP(c)\n[right]\nQ(c) | S(c)\n")
    code, out, _ = run(capsys, "theory-interpolate", str(problem))
    assert code == 0 and parse(out.strip()) is not None


def test_theory_interpolate_strong_not_splittable(tmp_path, capsys):
    problem = tmp_path / "strong.fol"
    problem.write_text(
        "[theory]\nforall x. P(x) -> Q(x)\n[left]\nP(c)\n[right]\nQ(c)\n")
    code, out, err = run(capsys, "theory-interpolate", "--mode", "strong",
                         str(problem))
    assert code == 1 and "not splittable" in err


def test_split_output(tmp_path, capsys):
    problem = tmp_path / "split.fol"
    problem.write_text("[theory]\nexists x. P(x)\nexists x. Q(x)\n")
    code, out, _ = run(capsys, "split", str(problem), "--sigma", "P", "--tau", "Q")
    assert code == 0
    assert out == "[sigma1]\nexists x. P(x)\n[sigma2]\nexists x. Q(x)\n"


def test_monotone_rewrite_cli(tmp_path, capsys):
    problem = tmp_path / "mono.fol"
    problem.write_text("[left]\nexists x. R(x)\n")
    code, out, _ = run(capsys, "--simplify", "monotone-rewrite", str(problem),
                       "--relation", "R")
    assert code == 0 and out.strip() == "exists x0. R(x0)"


def test_bindpatt_cli(capsys):
    code, out, _ = run(capsys, "bindpatt", "--formula",
                       "forall x y. R(x,y) -> S(x,y)")
    assert code == 0 and out.strip() == "R:- S:1,2"
    code, out, _ = run(capsys, "bindpatt", "--formula", "forall x. P(x)")
    assert code == 1 and out.strip() == "undefined"


def test_accpart_cli(data_dir, capsys):
    code, out, _ = run(capsys, "accpart", str(data_dir / "structure.json"),
                       "--methods", "R:1", "--tuple", "0")
    assert code == 0 and json.loads(out) == [0, 1]


def test_classify_cli(capsys):
    code, out, _ = run(capsys, "classify", "--formula",
                       "exists x y. R(x,y) & R(y,x)")
    assert code == 0
    assert "two-variable: yes" in out
    assert "cip GNFO: has" in out


def test_eval_cli(data_dir, capsys):
    code, out, _ = run(capsys, "eval", str(data_dir / "structure.json"),
                       "--formula", "exists x. P(x)")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", str(data_dir / "structure.json"),
                       "--formula", "forall x. P(x)")
    assert code == 1 and out.strip() == "false"


def test_find_model_cli(data_dir, capsys):
    code, out, _ = run(capsys, "find-model", str(data_dir / "sat.fol"))
    assert code == 0
    assert structure_from_json(out).constants == {"c": 0}


def test_find_model_absent(tmp_path, capsys):
    problem = tmp_path / "unsat.fol"
    problem.write_text("[left]\nP(c)\n!P(c)\n")
    code, out, _ = run(capsys, "find-model", str(problem))
    assert code == 1 and out.strip() == "none"


def test_parse_error_exit_code(tmp_path, capsys):
    problem = tmp_path / "bad.fol"
    problem.write_text("[left]\nf(x) = y\n")
    code, out, err = run(capsys, "prove", str(problem))
    assert code == 3 and "parse error" in err


def test_file_options_supply_budget(tmp_path, capsys):
    problem = tmp_path / "opt.fol"
    problem.write_text("[left]\nexists x. (A(x) & !B(x)) & C(x)\n"
                       "[right]\nforall y. (!A(y) & E(y)) | B(y)\n"
                       "[options]\nbudget = 2\n")
    code, _, err = run(capsys, "prove", str(problem))
    assert code == 2  # file option caps the budget
    code, out, _ = run(capsys, "--budget", "10000", "prove", str(problem))
    assert code == 0  # explicit flag wins


def test_byte_identical_reruns(data_dir, capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--trace", "prove", str(data_dir / "fig2.fol"))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_budget_must_be_positive(data_dir, capsys):
    code, _, err = run(capsys, "--budget", "0", "prove", str(data_dir / "fig2.fol"))
    assert code == 3 and "budget" in err


def test_bindpatt_output_reparses(capsys):
    from craig.cli import _parse_methods
    from craig.access import AccessMethod
    code, out, _ = run(capsys, "bindpatt", "--formula",
                       "forall x y. R(x,y) -> S(x,y)")
    assert code == 0
    assert _parse_methods(out.strip()) == {
        AccessMethod("R", frozenset()), AccessMethod("S", frozenset({1, 2}))}


def test_beth_output_reparses(data_dir, capsys):
    code, out, _ = run(capsys, "beth", str(data_dir / "tallest.fol"),
                       "--define", "Tallest", "--tau", "Taller-than")
    assert code == 0
    formula_line = out.strip().splitlines()[1]
    assert parse(formula_line, {"Taller-than": 2}) is not None


def test_split_output_reparses(tmp_path, capsys):
    problem = tmp_path / "split.fol"
    problem.write_text("[theory]\nexists x. P(x)\nexists x. Q(x)\n")
    code, out, _ = run(capsys, "split", str(problem), "--sigma", "P", "--tau", "Q")
    assert code == 0
    for line in out.splitlines():
        if not line.startswith("["):
            assert parse(line) is not None


def test_subprocess_byte_determinism(data_dir):
    import subprocess, sys, os, pathlib
    import craig
    src = str(pathlib.Path(craig.__file__).parent.parent)
    for name in ("fig2.fol", "exists-order.fol"):
        results = set()
        for hashseed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "craig.cli", "--trace", "prove",
                     str(data_dir / name)],
                    capture_output=True, env=env)
                results.add((proc.returncode, proc.stdout))
        assert len(results) == 1, name
        assert results.pop()[0] == 0, name


def test_too_deep_input_exits_usage(tmp_path, capsys):
    # an unsatisfiable set: exit 1 would claim "satisfiable"
    problem = tmp_path / "deep.fol"
    problem.write_text("[left]\n" + "!" * 30000 + "P(a)\n[right]\n!P(a)\n")
    code, out, err = run(capsys, "prove", str(problem))
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def _malformed_option(tmp_path, data_dir):
    problem = tmp_path / "lots.fol"
    problem.write_text("[left]\nP(c)\n[right]\n!P(c)\n[options]\nbudget = lots\n")
    return ["prove", str(problem)]


def _directory(tmp_path, data_dir):
    return ["prove", str(tmp_path)]


def _truncated_structure(tmp_path, data_dir):
    text = (data_dir / "structure.json").read_text()
    structure = tmp_path / "truncated.json"
    structure.write_text(text[:len(text) // 2])
    return ["eval", str(structure), "--formula", "exists x. P(x)"]


def _eval_on(tmp_path, relations: dict, formula: str):
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps({"domain": 2, "relations": relations,
                                     "constants": {}}))
    return ["eval", str(structure), "--formula", formula]


# R is binary in the structure; an empty relation carries no arity and is
# not checked
def _unary_use_of_binary_exists(tmp_path, data_dir):
    return _eval_on(tmp_path, {"R": [[0, 1]]}, "exists x. R(x)")


def _unary_use_of_binary_forall(tmp_path, data_dir):
    return _eval_on(tmp_path, {"R": [[0, 1]]}, "forall x. !R(x)")


def _mixed_tuple_lengths(tmp_path, data_dir):
    return _eval_on(tmp_path, {"R": [[0], [0, 1]]}, "exists x. R(x)")


def _bad_method_position(tmp_path, data_dir):
    return ["accpart", str(data_dir / "structure.json"), "--methods", "P:a"]


def _zero_model_size(tmp_path, data_dir):
    return ["--max-model-size", "0", "find-model", str(data_dir / "sat.fol")]


def _negative_padoa_size(tmp_path, data_dir):
    return ["--max-model-size", "-1", "padoa", str(data_dir / "tallest.fol"),
            "--define", "Taller-than", "--tau", "Tallest"]


def _zero_size_option(tmp_path, data_dir):
    problem = tmp_path / "zero.fol"
    problem.write_text("[left]\nP(c)\n[options]\nmax-model-size = 0\n")
    return ["find-model", str(problem)]


def _zero_candidate_size(tmp_path, data_dir):
    return ["search-interpolant", str(data_dir / "example1.fol"), "--max-size", "0"]


def _unknown_option(tmp_path, data_dir):
    problem = tmp_path / "typo.fol"
    problem.write_text("[left]\nP(c)\n[right]\n!P(c)\n[options]\nbudgte = 1\n")
    return ["prove", str(problem)]


def _form_feed_inside_a_line(tmp_path, data_dir):
    problem = tmp_path / "form-feed.fol"
    problem.write_text("[left]\nP(a)\x0cQ(b)\n[right]\n!P(a)\n")
    return ["prove", str(problem)]


def _form_feed_at_a_line_start(tmp_path, data_dir):
    problem = tmp_path / "leading-form-feed.fol"
    problem.write_text("[left]\n\x0cP(a)\n[right]\n!P(a)\n")
    return ["prove", str(problem)]


def _monotone_rewrite_with_arity(tmp_path, relation: str, arity: str):
    problem = tmp_path / "monotone.fol"
    problem.write_text("[left]\nexists x. R(x)\n")  # R is unary
    return ["monotone-rewrite", str(problem), "--relation", relation, "--arity", arity]


def _arity_contradicts_sentence(tmp_path, data_dir):
    return _monotone_rewrite_with_arity(tmp_path, "R", "5")


def _negative_arity(tmp_path, data_dir):
    return _monotone_rewrite_with_arity(tmp_path, "Zed", "-1")


@pytest.mark.parametrize("argv", [_malformed_option, _directory,
                                  _truncated_structure, _bad_method_position,
                                  _zero_model_size, _negative_padoa_size,
                                  _zero_size_option, _zero_candidate_size,
                                  _unknown_option, _unary_use_of_binary_exists,
                                  _unary_use_of_binary_forall, _mixed_tuple_lengths,
                                  _arity_contradicts_sentence, _negative_arity,
                                  _form_feed_inside_a_line, _form_feed_at_a_line_start],
                         ids=lambda f: f.__name__.strip("_"))
def test_malformed_input_exits_usage(argv, tmp_path, data_dir, capsys):
    # exit 1 is a negative verdict; bad input must never produce one
    code, out, err = run(capsys, *argv(tmp_path, data_dir))
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value, column", [("1_0", 10), ("\u0663", 10), ("3\x0c", 10)])
def test_option_values_are_ascii_digits(value, column, tmp_path, capsys):
    # int() alone would read "1_0" as 10 and the Arabic-Indic three as 3
    problem = tmp_path / "budget.fol"
    problem.write_text(f"[left]\nP(c)\n[right]\n!P(c)\n[options]\nbudget = {value}\n",
                       encoding="utf-8")
    code, out, err = run(capsys, "prove", str(problem))
    assert (code, out) == (3, "")
    assert err == (f"parse error: 6:{column}: option budget must be a number "
                   f"in ASCII digits, found {value!r}\n")


@pytest.mark.parametrize("flag, value, number", [("--methods", "R:1_0", "1_0"),
                                                 ("--methods", "R:1,\u0661", "\u0661"),
                                                 ("--tuple", "0, 1", " 1")])
def test_accpart_numbers_are_ascii_digits(flag, value, number, data_dir, capsys):
    code, out, err = run(capsys, "accpart", str(data_dir / "structure.json"), flag, value)
    assert (code, out) == (3, "")
    assert err == f"parse error: expected a number in ASCII digits, found {number!r}\n"


def test_beth_rejects_zero_model_size(data_dir, capsys):
    # size 0 must be refused as a bad bound, not reported as a property of sigma
    code, out, err = run(capsys, "--max-model-size", "0", "beth",
                         str(data_dir / "tallest.fol"), "--define", "Taller-than",
                         "--tau", "Tallest")
    assert code == 3 and out == ""
    assert "max-model-size must be positive" in err


def _fresh_process(*argv):
    import os, pathlib, subprocess, sys
    import craig
    src = str(pathlib.Path(craig.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env)


def test_repeated_main_calls_match_fresh_processes(data_dir, monkeypatch):
    # main builds its parser once per process; no call may see another's
    # options, and usage errors and --help print where the caller redirects
    import contextlib, io
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
    example1, fig2 = str(data_dir / "example1.fol"), str(data_dir / "fig2.fol")
    sequence = (["no-such-command"], ["check-interpolant", example1], ["--help"],
                ["--simplify", "interpolate", example1], ["interpolate", example1],
                ["--budget", "1", "prove", fig2], ["prove", fig2])
    in_process = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        in_process.append((code, out.getvalue(), err.getvalue()))
    for argv, result in zip(sequence, in_process):
        proc = _fresh_process("-m", "craig.cli", *argv)
        assert result == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [code for code, _, _ in in_process] == [3, 3, 0, 0, 0, 2, 0]
    assert in_process[4][1] == "exists x0. false | Big(x0) & Cat(x0)\n"  # unsimplified


BUILD_COUNT = """
import argparse, contextlib, io
built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from craig.cli import main
at_import = built
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["classify", "--formula", "P(a)"], ["no-such-command"], ["--help"]):
        main(argv)
print(at_import, built)
"""


def test_parser_is_built_once_per_process_and_not_at_import():
    # a count, not a timing: one build is the top-level parser and its 16
    # subcommand parsers
    proc = _fresh_process("-c", BUILD_COUNT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(1 + 16)]


def test_main_calls_the_current_command_function(monkeypatch, capsys):
    # the parser is cached, so the command must be looked up on each call:
    # a tracer or a test may have replaced it since the parser was built
    from craig import cli
    assert run(capsys, "classify", "--formula", "P(a)")[0] == 0
    monkeypatch.setattr(cli, "cmd_classify", lambda args: 42)
    assert run(capsys, "classify", "--formula", "P(a)")[0] == 42
