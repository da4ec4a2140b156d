"""Command-line entry point.

Exit codes: 0 success / verdict positive, 1 verdict negative (not valid,
jointly consistent, not implicitly defined, not splittable, not entailed,
signature violation, none, false, undefined), 2 unknown / budget exhausted /
out of memory, 3 usage error or bad input of any kind (parse errors,
unreadable files, malformed structures or options, input nested too
deeply).  All diagnostics go to stderr; stdout carries only the
machine-readable result.

``main`` is the one place that reads input.  argparse checks the whole
command line first: numbers go through ``parser.parse_natural`` (ASCII
digits only), ``--formula`` through ``parse``, ``--methods`` through
``_parse_methods``, and comma lists become lists.  Then ``main`` reads FILE
(a problem file, into ``args.problem``) or STRUCT (a structure JSON, into
``args.structure``) once and dispatches; files are not argparse types, since
argparse would turn a decode error into its two-line usage error.  The
``cmd_*`` handlers only call the library and print.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .access import AccessMethod, accessible_part, bind_patt
from .definability import (
    Theory, explicit_definition, monotone_rewrite, padoa_counterexample,
    robinson_separator,
)
from .errors import NotProvedWithinBudget, ParseError, Refuted
from .formulas import conj, simplify
from .fragments import classify
from .interpolation import (
    Verdict, _verified_interpolant, lyndon_check, search_interpolant,
    verify_interpolant,
)
from .models import evaluate, find_model, structure_from_json, structure_to_json
from .parser import parse, parse_natural, parse_problem, print_formula
from .tableau import labeled, refute, render_trace
from .theory import split_theory, strong_interpolant, weak_interpolant

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

DEFAULT_BUDGET = 100_000
DEFAULT_MAX_MODEL_SIZE = 3
DEFAULT_MAX_SIZE = 8   # search-interpolant's candidate size; [options] has no such key


def _read(path: str, reader):
    with open(path, "r", encoding="utf-8") as fh:
        return reader(fh.read())


def _bound(args, option: str, default: int) -> int:
    """The --option flag, else the problem file's [options] value, else
    default.  A bound below 1 searches nothing, and "none" would read as a
    verdict."""
    value = getattr(args, option.replace("-", "_"))
    if value is None:
        # an [options] value is ASCII digits: parse_problem checks
        value = int(args.problem.options.get(option, default))
    if value < 1:
        raise ParseError(f"{option} must be positive")
    return value


def _names(text: str) -> list:
    return text.split(",") if text else []


def _emit_formula(args, theta) -> None:
    if getattr(args, "simplify", False):
        theta = simplify(theta)
    print(print_formula(theta))


def _parse_methods(spec: str) -> frozenset:
    methods = set()
    for part in spec.split():
        if ":" not in part:
            raise ParseError(f"access method {part!r} is not NAME:positions")
        name, positions = part.split(":", 1)
        if positions == "-":
            methods.add(AccessMethod(name, frozenset()))
        else:
            methods.add(AccessMethod(name, frozenset(
                map(parse_natural, positions.split(",")))))
    return frozenset(methods)


def _format_methods(methods) -> str:
    ordered = sorted(methods, key=lambda m: (m.relation, sorted(m.inputs)))
    return " ".join(map(repr, ordered))


def cmd_prove(args) -> int:
    problem = args.problem
    tableau = refute(labeled(problem.left, problem.right),
                     _bound(args, "budget", DEFAULT_BUDGET))
    if args.trace:
        sys.stdout.write(render_trace(tableau))
    else:
        print(f"closed: {tableau.branch_count()} branches, "
              f"{tableau.rule_applications} rule applications")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    phi = conj(args.problem.left)
    psi = conj(args.problem.right)
    theta, annotated = _verified_interpolant(phi, psi,
                                             _bound(args, "budget", DEFAULT_BUDGET))
    if args.emit_annotated:
        sys.stdout.write(render_trace(annotated.tableau, annotated.interpolants))
    _emit_formula(args, theta)
    return EXIT_OK


def cmd_check_interpolant(args) -> int:
    problem = args.problem
    theta = parse(args.theta, problem.arities)
    verdict = verify_interpolant(conj(problem.left), conj(problem.right), theta,
                                 _bound(args, "budget", DEFAULT_BUDGET))
    print(verdict.kind + (f": {verdict.details}" if verdict.details else ""))
    if verdict.structure is not None:
        print(structure_to_json(verdict.structure))
    if verdict.kind == Verdict.VERIFIED:
        return EXIT_OK
    if verdict.kind == Verdict.ENTAILMENT_UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_NEGATIVE


def cmd_lyndon(args) -> int:
    problem = args.problem
    theta = parse(args.theta, problem.arities)
    ok = lyndon_check(conj(problem.left), conj(problem.right), theta)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_search_interpolant(args) -> int:
    problem = args.problem
    theta = search_interpolant(conj(problem.left), conj(problem.right),
                               _bound(args, "max-size", DEFAULT_MAX_SIZE),
                               _bound(args, "budget", DEFAULT_BUDGET),
                               screen_size=_bound(args, "max-model-size",
                                                  DEFAULT_MAX_MODEL_SIZE))
    if theta is None:
        print("none")
        return EXIT_NEGATIVE
    _emit_formula(args, theta)
    return EXIT_OK


def cmd_beth(args) -> int:
    sigma = Theory(args.problem.theory)
    definition = explicit_definition(
        sigma, args.define, args.tau, _bound(args, "budget", DEFAULT_BUDGET),
        max_counterexample_size=_bound(args, "max-model-size", DEFAULT_MAX_MODEL_SIZE))
    print(f"# variables: {', '.join(definition.variables) or '(none)'}")
    _emit_formula(args, definition.formula)
    return EXIT_OK


def cmd_padoa(args) -> int:
    sigma = Theory(args.problem.theory)
    pair = padoa_counterexample(sigma, args.define, args.tau,
                                _bound(args, "max-model-size", DEFAULT_MAX_MODEL_SIZE))
    if pair is None:
        print("none")
        return EXIT_NEGATIVE
    for structure in pair:
        print(structure_to_json(structure))
    return EXIT_OK


def cmd_robinson(args) -> int:
    sigma1 = Theory(tuple(args.problem.left), "sigma1")
    sigma2 = Theory(tuple(args.problem.right), "sigma2")
    _emit_formula(args, robinson_separator(sigma1, sigma2,
                                           _bound(args, "budget", DEFAULT_BUDGET)))
    return EXIT_OK


def cmd_theory_interpolate(args) -> int:
    sigma = Theory(args.problem.theory)
    phi = conj(args.problem.left)
    psi = conj(args.problem.right)
    interpolant = strong_interpolant if args.mode == "strong" else weak_interpolant
    _emit_formula(args, interpolant(sigma, phi, psi,
                                    _bound(args, "budget", DEFAULT_BUDGET)))
    return EXIT_OK


def cmd_split(args) -> int:
    sigma = Theory(args.problem.theory)
    result = split_theory(sigma, set(args.sigma), set(args.tau))
    if result is None:
        print("none")
        return EXIT_NEGATIVE
    print("[sigma1]")
    for s in result.sigma1.sentences:
        print(print_formula(s))
    print("[sigma2]")
    for s in result.sigma2.sentences:
        print(print_formula(s))
    return EXIT_OK


def cmd_monotone_rewrite(args) -> int:
    theta = monotone_rewrite(conj(args.problem.left), args.relation,
                             _bound(args, "budget", DEFAULT_BUDGET), arity=args.arity)
    _emit_formula(args, theta)
    return EXIT_OK


def cmd_bindpatt(args) -> int:
    result = bind_patt(args.formula)
    if not result.defined:
        print("undefined")
        return EXIT_NEGATIVE
    print(_format_methods(result.methods) if result.methods else "(empty)")
    return EXIT_OK


def cmd_accpart(args) -> int:
    region = accessible_part(args.structure, args.methods, args.tuple)
    print(json.dumps(sorted(region)))
    return EXIT_OK


def cmd_classify(args) -> int:
    report = classify(args.formula, args.relativizers)
    for name, value in report.flags().items():
        print(f"{name}: {'yes' if value else 'no'}")
    for name in sorted(report.cip):
        print(f"cip {name}: {report.cip[name]}")
    return EXIT_OK


def cmd_eval(args) -> int:
    result = evaluate(args.structure, args.formula)
    print("true" if result else "false")
    return EXIT_OK if result else EXIT_NEGATIVE


def cmd_find_model(args) -> int:
    problem = args.problem
    sentences = problem.left + problem.right + problem.theory
    model = find_model(sentences, _bound(args, "max-model-size", DEFAULT_MAX_MODEL_SIZE))
    if model is None:
        print("none")
        return EXIT_NEGATIVE
    print(structure_to_json(model))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use.  It keeps no
    per-call state (parse_args returns a fresh Namespace), so every call of
    main shares it; callers must not modify it.  The converters look parse
    and parse_natural up when they run, as main looks up cmd_*, so a
    replaced binding (a tracer's wrapper, a test double) is the one called."""
    def natural(text: str) -> int:
        return parse_natural(text)

    def formula(text: str):
        return parse(text)

    top = argparse.ArgumentParser(
        prog="craig",
        description="Tableau proving and constructive interpolation for "
                    "equality-free, function-free first-order logic.")
    top.add_argument("--budget", type=natural, default=None,
                     help="rule-application budget (default 100000)")
    top.add_argument("--max-model-size", type=natural, default=None,
                     help="bound for finite-model search/screens (default 3)")
    top.add_argument("--simplify", action="store_true",
                     help="normalize emitted formulas (flatten, drop units)")
    top.add_argument("--emit-annotated", action="store_true",
                     help="dump the per-node interpolant trace")
    top.add_argument("--trace", action="store_true",
                     help="print the closed-tableau trace")
    sub = top.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser
    p = cmd("prove", help="refute [left]^L ∪ [right]^R by tableau")
    p.add_argument("file")
    p = cmd("interpolate", help="Craig interpolant for [left] -> [right]")
    p.add_argument("file")
    p = cmd("check-interpolant", help="verify a candidate interpolant")
    p.add_argument("file")
    p.add_argument("--theta", required=True)
    p = cmd("lyndon", help="Lyndon polarity check for a candidate")
    p.add_argument("file")
    p.add_argument("--theta", required=True)
    p = cmd("search-interpolant",
            help="brute-force interpolant search over the shared signature")
    p.add_argument("file")
    p.add_argument("--max-size", type=natural, default=None)
    p = cmd("beth", help="explicit definition of --define from --tau")
    p.add_argument("file")
    p.add_argument("--define", required=True)
    p.add_argument("--tau", type=_names, default="")
    p = cmd("padoa", help="Padoa counterexample pair search")
    p.add_argument("file")
    p.add_argument("--define", required=True)
    p.add_argument("--tau", type=_names, default="")
    p = cmd("robinson", help="separator for jointly unsatisfiable [left], [right]")
    p.add_argument("file")
    p = cmd("theory-interpolate",
            help="weak/strong interpolant under the [theory] section")
    p.add_argument("file")
    p.add_argument("--mode", choices=("weak", "strong"), default="weak")
    p = cmd("split", help="(sigma, tau)-split of the [theory] section")
    p.add_argument("file")
    p.add_argument("--sigma", type=_names, default="")
    p.add_argument("--tau", type=_names, default="")
    p = cmd("monotone-rewrite",
            help="rewrite [left] without negative occurrences of --relation")
    p.add_argument("file")
    p.add_argument("--relation", required=True)
    p.add_argument("--arity", type=natural, default=None)
    p = cmd("bindpatt", help="binding-pattern extraction")
    p.add_argument("--formula", type=formula, required=True)
    p = cmd("accpart", help="accessible part of a structure")
    p.add_argument("structure")
    p.add_argument("--methods", type=_parse_methods, default="")
    p.add_argument("--tuple", type=lambda text: tuple(map(parse_natural, _names(text))),
                   default="")
    p = cmd("classify", help="syntactic fragment report")
    p.add_argument("--formula", type=formula, required=True)
    p.add_argument("--relativizers", type=_names, default="")
    p = cmd("eval", help="evaluate a formula in a structure")
    p.add_argument("structure")
    p.add_argument("--formula", type=formula, required=True)
    p = cmd("find-model", help="smallest finite model of all sentences")
    p.add_argument("file")
    return top


def main(argv=None) -> int:
    try:
        # every argument is read and checked here, before any file is opened
        args = build_parser().parse_args(argv)
        if "file" in args:
            args.problem = _read(args.file, parse_problem)
        if "structure" in args:
            args.structure = _read(args.structure, structure_from_json)
        # looked up on each call, not bound into the cached parser, so a
        # replaced cmd_* function (a tracer's wrapper, a test double) runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as e:  # argparse's usage error, or --help
        return EXIT_USAGE if e.code not in (0, None) else 0
    except Refuted as e:
        for structure in e.witnesses:
            print(structure_to_json(structure))
        print(f"{e.verdict}: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NotProvedWithinBudget as e:
        print(f"unknown: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except MemoryError:  # the search ran out of room, not the input: no verdict
        print("unknown: out of memory", file=sys.stderr)
        return EXIT_UNKNOWN
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # any other bad input: exit 1 would read as a verdict
        reason = " ".join(str(e).split()) or type(e).__name__  # one line
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
