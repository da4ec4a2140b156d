"""The four benchmark workloads.

Each workload drives one layer of craig hard and leaves the others nearly
idle, so a change to one layer has a workload where it should show and one
where it should not.  ``build`` makes the items from the seed; an item's
``run`` is the timed work and its ``judge`` checks the answer afterwards,
outside the timed region, against a known answer the code under test did not
produce.  Items call craig through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Judgement:
    error: str | None    # why the answer is wrong, None when it is right
    decided: bool        # a definite verdict within budget
    nodes: int = 0       # nodes of the simplified interpolants in the answer
    apps: int = 0        # rule applications the answer reports


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], Judgement]
    known_defect: str | None = None   # a wrong answer this item is known to give
    scaling: bool = False   # run once per traced run, for per-layer metrics only


def _relations(c, phi) -> set:
    """Relation names in phi, collected here rather than by signature_of."""
    return {f.rel for f in c.formulas.walk(phi) if isinstance(f, c.formulas.Atom)}


def _labeled_refutation(c, premises, goal) -> list:
    ls = c.tableau.LabeledSentence
    to_nnf = c.formulas.to_nnf
    return [ls(to_nnf(p), "L") for p in premises] + \
        [ls(to_nnf(c.formulas.Not(goal)), "R")]


# ------------------------------------------------------ corpus-interpolate

# 2,000 instances per seed: at 500 the mix of instances alone moves a pass
# by 9% (quartile spread over nine seeds, measured in one process)
CORPUS_SIZE = 2_000
# 50x the longest proof in corpus(42, 500), 21 rule applications.  The odd
# instance the prover cannot close (instance 147 of seed 1) then costs
# milliseconds, not the second it takes to exhaust 20,000 applications.
CORPUS_BUDGET = 1_000
VERIFY_BUDGET = 20_000   # the acceptance suite's corpus budget


def build_corpus_interpolate(c, seed: int, root: Path) -> list:
    items = []
    for inst in c.corpus.corpus(seed, CORPUS_SIZE):
        def run(inst=inst):
            p = c.parser
            phi = p.parse(p.print_formula(inst.phi))
            psi = p.parse(p.print_formula(inst.psi))
            try:
                theta = c.interpolation.craig_interpolant(phi, psi, CORPUS_BUDGET)
            except c.errors.NotProvedWithinBudget:
                return phi, psi, None, None, None
            simple = c.formulas.simplify(theta)
            return phi, psi, theta, simple, c.interpolation.lyndon_check(phi, psi, simple)

        def judge(answer, inst=inst):
            phi, psi, theta, simple, lyndon = answer
            if phi != inst.phi or psi != inst.psi:
                return Judgement("print/parse round trip changed the formula", False)
            if theta is None:
                return Judgement(None, False)
            shared = _relations(c, inst.phi) & _relations(c, inst.psi)
            if not _relations(c, simple) <= shared:
                return Judgement("interpolant uses an unshared relation", True)
            if lyndon is not True:
                return Judgement("interpolant fails lyndon_check", True)
            return Judgement(None, True, c.corpus.formula_size(simple))

        items.append(Item(f"corpus{inst.index}", run, judge))
    return items


# ------------------------------------------------------ pelletier-prove

# The smallest budget at which every problem that closes within 10,000
# closes (P43 needs 1,416 applications); a pass then takes about 2 s.  The
# budget ladder of P46 up to 10,000 runs once per traced run.
PELLETIER_BUDGET = 1_500
P46_LADDER = (1_000, 2_500, 5_000, 10_000)
CHAIN_LENGTHS = (10, 50, 200)


def chain_problem(n: int) -> str:
    """P0(a) and P(i-1)(x) -> Pi(x) for i < n entail P(n-1)(a)."""
    lines = ["[left]", "P0(a)"]
    lines += [f"forall x. P{i - 1}(x) -> P{i}(x)" for i in range(1, n)]
    lines += ["[right]", f"P{n - 1}(a)"]
    return "\n".join(lines) + "\n"


def rule_applications(c, outcome) -> int:
    if isinstance(outcome, c.tableau.Closed):
        return outcome.tableau.rule_applications
    if isinstance(outcome, c.tableau.Unknown):
        return outcome.budget_spent
    return 0


def build_pelletier_prove(c, seed: int, root: Path) -> list:
    problems = []
    for path in sorted((root / "bench" / "pelletier").glob("p*.fol")):
        problems.append((f"P{int(path.stem[1:])}", path.read_text(encoding="utf-8")))
    problems += [(f"chain{n}", chain_problem(n)) for n in CHAIN_LENGTHS]

    def judge(outcome):
        # every problem here is a theorem
        apps = rule_applications(c, outcome)
        if isinstance(outcome, c.tableau.Satisfiable):
            return Judgement("Satisfiable verdict on a theorem", True)
        if not isinstance(outcome, c.tableau.Closed):
            return Judgement(None, False, apps=apps)
        tableau = outcome.tableau
        if not all(isinstance(leaf.rule, c.tableau.Closure) for leaf in tableau.leaves()):
            return Judgement("closed tableau has an open leaf", True)
        theta = c.interpolation.propagate(tableau).root_interpolant()
        return Judgement(None, True, c.corpus.formula_size(c.formulas.simplify(theta)), apps)

    items = []
    for name, text in problems:
        pf = c.parser.parse_problem(text)
        inputs = _labeled_refutation(c, pf.left, pf.right[0])
        items.append(Item(name, lambda i=inputs: c.tableau.prove(i, PELLETIER_BUDGET), judge))
        if name == "P46":
            items += [Item(f"P46.b{b}", lambda i=inputs, b=b: c.tableau.prove(i, b), judge,
                           scaling=True) for b in P46_LADDER]
    return items


def pelletier_item_metrics(times: dict, judged: dict) -> dict:
    """Microseconds per rule application of single items, from their untraced
    times and the applications their answers report."""
    def us_per_app(name):
        apps = judged[name].apps
        return times[name] * 1e6 / apps if apps else 0.0

    out = {f"tableau.us_per_app.{name}": us_per_app(name)
           for name in [f"P46.b{b}" for b in P46_LADDER] + ["P20", "chain200"]}
    low = out[f"tableau.us_per_app.P46.b{P46_LADDER[0]}"]
    out["tableau.us_per_app_growth"] = \
        out[f"tableau.us_per_app.P46.b{P46_LADDER[-1]}"] / low if low else 0.0
    return out


# ------------------------------------------------------ oracle-sweep

# The oracle's cost per instance spans three orders of magnitude: find_model
# enumerates 228 to 12,816 structures, and search_interpolant takes 2 ms to
# 1.5 s (the 3% of instances whose smallest interpolant has 4-5 nodes).  A
# fresh draw per seed that fits a 10 s run moves a pass by 15-40%, so the
# inputs are drawn once, with the acceptance suite's seed, and the workload
# seed only orders the items.
ORACLE_SEED = 42
ACCEPTANCE_CORPUS = 500   # the acceptance suite's corpus(42, 500)
ORACLE_DRAW = 24
ORACLE_MAX_SIZE = 3
SEARCH_INSTANCES = 50
SEARCH_MAX_SIZE = 7
TALLEST = "tests/data/tallest.fol"


def build_oracle_sweep(c, seed: int, root: Path) -> list:
    items = []
    indices = sorted(random.Random(ORACLE_SEED).sample(range(ACCEPTANCE_CORPUS), ORACLE_DRAW))
    for index in indices:
        inst = c.corpus.generate_instance(index, ORACLE_SEED)
        sentences = [inst.phi, c.formulas.Not(inst.psi)]

        def judge(model):
            # phi -> psi is valid by construction
            if model is not None:
                return Judgement("countermodel of a valid implication", True)
            return Judgement(None, True)

        items.append(Item(f"find_model{index}",
                          lambda s=sentences: c.models.find_model(s, ORACLE_MAX_SIZE), judge))

    tallest = c.parser.parse_problem((root / TALLEST).read_text(encoding="utf-8"))
    theory = c.definability.Theory(tuple(tallest.theory), "tallest")

    def judge_padoa(pair):
        if pair is None:
            return Judgement("no Padoa pair for Taller-than from Tallest", True)
        first, second = pair
        evaluate = c.models.evaluate
        if not all(evaluate(A, s) for A in pair for s in theory.sentences):
            return Judgement("Padoa pair member is not a model of the theory", True)
        if first.relations["Tallest"] != second.relations["Tallest"]:
            return Judgement("Padoa pair disagrees on Tallest", True)
        if first.relations["Taller-than"] == second.relations["Taller-than"]:
            return Judgement("Padoa pair agrees on Taller-than", True)
        return Judgement(None, True)

    items.append(Item("padoa.tallest", lambda: c.definability.padoa_counterexample(
        theory, "Taller-than", ["Tallest"], ORACLE_MAX_SIZE), judge_padoa))

    for inst in c.corpus.corpus(ORACLE_SEED, SEARCH_INSTANCES, small=True):
        def judge_search(theta, inst=inst):
            # alpha, of at most 6 nodes, is an interpolant in the search space
            limit = c.corpus.formula_size(inst.alpha)
            if theta is None:
                return Judgement(f"no interpolant found; alpha has {limit} nodes", False)
            if c.corpus.formula_size(theta) > limit:
                return Judgement("searched interpolant is larger than alpha", True)
            if not c.interpolation.verify_interpolant(inst.phi, inst.psi, theta,
                                                      VERIFY_BUDGET):
                return Judgement("searched interpolant fails verify_interpolant", True)
            return Judgement(None, True, c.corpus.formula_size(c.formulas.simplify(theta)))

        items.append(Item(f"search{inst.index}", lambda i=inst: c.interpolation.search_interpolant(
            i.phi, i.psi, SEARCH_MAX_SIZE, VERIFY_BUDGET), judge_search))
    return items


# ------------------------------------------------------ cli-mix

T = "tests/data/"
B = "bench/cli/"
P = "bench/pelletier/"
EX1_THETA = "exists x. Big(x) & Cat(x)"

# (name, argv, exit code from the README contract: 0 success or positive
# verdict, 1 negative verdict, 2 unknown or budget exhausted, 3 usage or
# parse error)
CLI_ITEMS = (
    ("prove.fig2", ["prove", T + "fig2.fol"], 0),
    ("prove.fig2.trace", ["--trace", "prove", T + "fig2.fol"], 0),
    ("prove.sat", ["prove", T + "sat.fol"], 1),
    ("prove.budget1", ["--budget", "1", "prove", T + "fig2.fol"], 2),
    ("prove.file-budget", ["prove", B + "budget-option.fol"], 2),
    ("prove.flag-beats-file", ["--budget", "10000", "prove", B + "budget-option.fol"], 0),
    ("prove.budget0", ["--budget", "0", "prove", T + "fig2.fol"], 3),
    ("prove.parse-error", ["prove", B + "parse-error.fol"], 3),
    ("prove.missing-file", ["prove", B + "no-such-file.fol"], 3),
    ("prove.deep-not", ["prove", B + "deep-not.fol"], 3),
    ("usage.unknown-command", ["no-such-command"], 3),
    ("interpolate.fig2", ["interpolate", T + "fig2-implication.fol"], 0),
    ("interpolate.example1.simplify", ["--simplify", "interpolate", T + "example1.fol"], 0),
    ("interpolate.fig2.annotated", ["--emit-annotated", "interpolate",
                                    T + "fig2-implication.fol"], 0),
    ("interpolate.not-valid", ["interpolate", B + "not-valid.fol"], 1),
    ("interpolate.P10", ["--simplify", "interpolate", P + "p10.fol"], 0),
    ("interpolate.P24", ["--simplify", "interpolate", P + "p24.fol"], 0),
    ("interpolate.P27", ["--simplify", "interpolate", P + "p27.fol"], 0),
    ("interpolate.P31", ["--simplify", "interpolate", P + "p31.fol"], 0),
    ("interpolate.P32", ["--simplify", "interpolate", P + "p32.fol"], 0),
    ("interpolate.P44", ["--simplify", "interpolate", P + "p44.fol"], 0),
    ("check-interpolant.verified", ["check-interpolant", T + "example1.fol",
                                    "--theta", EX1_THETA], 0),
    ("check-interpolant.violation", ["check-interpolant", T + "example1.fol",
                                     "--theta", "exists x. Green(x)"], 1),
    ("check-interpolant.budget1", ["--budget", "1", "check-interpolant", T + "example1.fol",
                                   "--theta", EX1_THETA], 2),
    ("lyndon.pass", ["lyndon", T + "example1.fol", "--theta", EX1_THETA], 0),
    ("lyndon.fail", ["lyndon", T + "example1.fol", "--theta",
                     "(exists x. Cat(x)) & forall x. Cat(x) -> Big(x)"], 1),
    ("search-interpolant.example1", ["search-interpolant", T + "example1.fol",
                                     "--max-size", "6"], 0),
    ("beth.tallest", ["beth", T + "tallest.fol", "--define", "Tallest",
                      "--tau", "Taller-than"], 0),
    ("beth.refuted", ["beth", T + "tallest.fol", "--define", "Taller-than",
                      "--tau", "Tallest"], 1),
    ("padoa.tallest", ["padoa", T + "tallest.fol", "--define", "Taller-than",
                       "--tau", "Tallest"], 0),
    ("padoa.absent", ["padoa", B + "pq-theory.fol", "--define", "P", "--tau", "Q"], 1),
    ("robinson.separator", ["robinson", B + "robinson.fol"], 0),
    ("robinson.consistent", ["robinson", B + "robinson-consistent.fol"], 1),
    ("theory-interpolate.weak", ["theory-interpolate", B + "theory-weak.fol"], 0),
    ("theory-interpolate.strong", ["--simplify", "theory-interpolate", "--mode", "strong",
                                   B + "theory-split.fol"], 0),
    ("theory-interpolate.not-splittable", ["theory-interpolate", "--mode", "strong",
                                           B + "theory-strong.fol"], 1),
    ("split", ["split", B + "split.fol", "--sigma", "P", "--tau", "Q"], 0),
    ("split.none", ["split", B + "theory-strong.fol", "--sigma", "P", "--tau", "Q"], 1),
    ("monotone-rewrite", ["--simplify", "monotone-rewrite", B + "monotone.fol",
                          "--relation", "R"], 0),
    ("monotone-rewrite.negative", ["--simplify", "monotone-rewrite",
                                   B + "monotone-negative.fol", "--relation", "R"], 0),
    ("bindpatt.defined", ["bindpatt", "--formula", "forall x y. R(x,y) -> S(x,y)"], 0),
    ("bindpatt.undefined", ["bindpatt", "--formula", "forall x. P(x)"], 1),
    ("accpart", ["accpart", T + "structure.json", "--methods", "R:1", "--tuple", "0"], 0),
    ("classify", ["classify", "--formula", "exists x y. R(x,y) & R(y,x)"], 0),
    ("classify.relativized", ["classify", "--formula",
                              "forall x. P(x) -> (exists y. Q(y) & R(x,y))",
                              "--relativizers", "P,Q"], 0),
    ("eval.true", ["eval", T + "structure.json", "--formula", "exists x. P(x)"], 0),
    ("eval.false", ["eval", T + "structure.json", "--formula", "forall x. P(x)"], 1),
    ("find-model.sat", ["find-model", T + "sat.fol"], 0),
    ("find-model.tallest", ["find-model", T + "tallest.fol"], 0),
    ("find-model.unsat", ["find-model", B + "unsat.fol"], 1),
)

# commands whose last stdout line on success is a formula, counted in
# interpolant_size
FORMULA_OUTPUT = ("interpolate.", "robinson.separator", "theory-interpolate.weak",
                  "theory-interpolate.strong", "monotone-rewrite",
                  "search-interpolant.", "beth.tallest")

KNOWN_DEFECTS = {
    "prove.deep-not": "30000 nested negations raise RecursionError out of main, "
                      "so the console script exits 1 (satisfiable) on an "
                      "unsatisfiable set",
}

GOLDEN = "bench/cli/golden.json"


def run_cli(c, argv: list) -> tuple:
    """Exit code and stdout of ``craig.cli.main(argv)``; an exception that
    escapes main exits 1, as the console script does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = c.cli.main(argv)
        except Exception:  # the console script's behaviour on any escape
            code = 1
    return code, out.getvalue()


def build_cli_mix(c, seed: int, root: Path) -> list:
    golden = json.loads((root / GOLDEN).read_text(encoding="utf-8"))
    items = []
    for name, argv, expected in CLI_ITEMS:
        def judge(answer, name=name, expected=expected):
            code, stdout = answer
            if code != expected:
                return Judgement(f"exit {code}, expected {expected}", False)
            if stdout != golden[name]:
                return Judgement("stdout differs from the golden output", False)
            nodes = 0
            if code == 0 and name.startswith(FORMULA_OUTPUT):
                nodes = c.corpus.formula_size(c.parser.parse(stdout.splitlines()[-1]))
            return Judgement(None, code in (0, 1), nodes)

        items.append(Item(f"cli.{name}", lambda a=argv: run_cli(c, a), judge,
                          KNOWN_DEFECTS.get(name)))
    return items


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    item_metrics: Callable | None = None


WORKLOADS = {w.name: w for w in (
    Workload("corpus-interpolate", build_corpus_interpolate),
    Workload("pelletier-prove", build_pelletier_prove, pelletier_item_metrics),
    Workload("oracle-sweep", build_oracle_sweep),
    Workload("cli-mix", build_cli_mix),
)}
