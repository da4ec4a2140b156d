"""Layered benchmark for craig.

    python3 bench/run.py --workload NAME [--seed 42] [--seconds 20] [--trace 0|1]
    python3 bench/run.py --workload all [--out FILE]

One workload per process.  Set-up (importing craig and building the inputs
from the seed) is repeated between the passes and its median reported as
``setup_s``.  Whole passes over the workload's items, in an order drawn
from the seed, run until ``--seconds`` of pass time are spent; each answer
is checked right after its item, untimed.  Item times are given in ``ref``,
the time of a fixed reference loop read every few milliseconds between the
items, so that the host's changes of speed cancel out; each item counts at
its median pass.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` half the time runs untraced
and half traced, and the object carries the per-layer metrics.  ``--workload all`` runs every
workload both ways, each in a fresh interpreter, and prints every metric
with its unit.  See README.md for the workloads and the metrics.

Seed 42 matches the acceptance suite; seed 4242 is held out for confirming a
claim made on seed 42.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import CALLS, INCL, LAYERS, SELF, YIELDS, Tracer
from workloads import WORKLOADS, Judgement

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = (5, 15)   # at least and at most; as many as fit in SETUP_SECONDS
SETUP_SECONDS = 2.0
REFERENCE_EVERY = 0.025   # seconds of item time between two reads of the reference loop
REFERENCE_WINDOW = 1.0    # an item's unit is the median read from this long before it to after it
MODULES = ("errors", "formulas", "parser", "models", "tableau", "interpolation",
           "definability", "theory", "access", "fragments", "cli", "corpus")

END_TO_END = {
    "setup_s": "s", "items_per_kref": "1/kref", "item_ref_p50": "ref", "item_ref_tail": "ref",
    "decided_share": "share", "correct_share": "share", "interpolant_size": "count",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("prove", "interpolate", "check-interpolant", "lyndon",
                "search-interpolant", "beth", "padoa", "robinson",
                "theory-interpolate", "split", "monotone-rewrite", "bindpatt",
                "accpart", "classify", "eval", "find-model")
PER_LAYER = {
    "parser.self_ms": "ms", "parser.chars_per_s": "char/s",
    "formulas.self_ms": "ms", "formulas.signature_of.calls": "count",
    "formulas.substitute_constant.calls": "count", "formulas.simplify.self_ms": "ms",
    "tableau.self_ms": "ms", "tableau.prove.calls": "count", "tableau.rule_apps": "count",
    "tableau.us_per_app": "us", "tableau.splits": "count", "tableau.branches": "count",
    "tableau.max_depth": "count",
    "tableau.us_per_app.P46.b1000": "us", "tableau.us_per_app.P46.b2500": "us",
    "tableau.us_per_app.P46.b5000": "us", "tableau.us_per_app.P46.b10000": "us",
    "tableau.us_per_app.P20": "us", "tableau.us_per_app.chain200": "us",
    "tableau.us_per_app_growth": "ratio",
    "interpolation.self_ms": "ms", "interpolation.propagate.self_ms": "ms",
    "interpolation.verify.self_ms": "ms", "interpolation.raw_nodes": "count",
    "interpolation.search.candidates": "count",
    "interpolation.search.verified_per_candidate": "ratio",
    "models.self_ms": "ms", "models.structures": "count", "models.us_per_structure": "us",
    "models.find_model.self_ms": "ms", "models.models_per_structure": "ratio",
    "definability.self_ms": "ms", "theory.self_ms": "ms", "access.self_ms": "ms",
    "fragments.self_ms": "ms", "cli.self_ms": "ms",
    **{f"cli.{name}.ms": "ms" for name in CLI_COMMANDS},
    "trace.overhead": "ratio",
}
# counts that must repeat exactly from pass to pass
DETERMINISTIC = ("formulas.signature_of.calls", "formulas.substitute_constant.calls",
                 "tableau.prove.calls", "tableau.rule_apps", "tableau.splits",
                 "tableau.branches", "tableau.max_depth", "interpolation.raw_nodes",
                 "interpolation.search.candidates", "models.structures")


def load_craig():
    """Import craig afresh from this checkout's src/ and return its modules."""
    for name in [n for n in sys.modules if n == "craig" or n.startswith("craig.")]:
        del sys.modules[name]
    importlib.import_module("craig")
    return argparse.Namespace(**{m: importlib.import_module(f"craig.{m}") for m in MODULES})


class Tally:
    """Judged answers: failures by item, and per pass the number of decided
    items and the interpolant nodes, which must repeat from pass to pass."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.decided, self.nodes = [0], [0]
        self.unexpected, self.known = {}, {}

    def add(self, item, answer) -> Judgement:
        if isinstance(answer, Exception):
            verdict = Judgement(f"crash: {type(answer).__name__}: {answer}", False)
        else:
            verdict = item.judge(answer)
        self.attempted += 1
        self.nodes[-1] += verdict.nodes
        if verdict.error is None:
            self.decided[-1] += verdict.decided
        elif item.known_defect:
            self.failed += 1
            self.known[item.name] = f"{verdict.error}; {item.known_defect}"
        else:
            self.failed += 1
            self.unexpected[item.name] = verdict.error
        return verdict

    def end_pass(self) -> None:
        self.decided.append(0)
        self.nodes.append(0)

    def passes(self, name: str) -> list:
        """``decided`` or ``nodes`` of each finished pass."""
        return getattr(self, name)[:-1]


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(f"p{i % 5}", ())
    return _Node("and" if i % 2 else "or", (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


def _walk(node: _Node):
    yield node
    for kid in node.kids:
        yield from _walk(kid)


_REFERENCE_TREE = _tree(6, 1)


def reference_loop() -> int:
    """Fixed work of the kind craig does, in code of the benchmark's own: walk
    a tree of frozen dataclass nodes with a recursive generator, hash every
    node, collect the leaves' names, and copy the results as a prover copies
    a branch.  Its time is the unit ``ref``."""
    seen, names = {}, set()
    for node in _walk(_REFERENCE_TREE):
        seen[node] = seen.get(node, 0) + 1
        if isinstance(node, _Node) and not node.kids:
            names.add(node.op)
    branch = list(seen)
    copies = [(list(branch), dict(seen), frozenset(names)) for _ in range(20)]
    return len(copies)


def read_reference(clock) -> float:
    """Seconds one reference loop takes now: the fastest of three, with the
    garbage collector off so that the items' young objects are not charged
    to it."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            t0 = clock()
            reference_loop()
            best = min(best, clock() - t0)
    finally:
        gc.enable()
    return best


@dataclass
class Passes:
    seconds: list    # per item, its time in each pass
    refs: list       # per item, its time in each pass in reference loops
    walls: list      # per pass, its wall time
    judged: list     # per item, the judgement of its answer in the last pass
    layers: list     # per pass, its per-layer metrics when traced


def run_passes(items: list, seconds: float, tally: Tally, tracer=None,
               after_pass=None) -> Passes:
    """Whole passes over the items until ``seconds`` of pass time are spent
    (at least one pass).  The reference loop is read before the first item
    and after every ``REFERENCE_EVERY`` of item time; each item's time is
    also divided by the median of the reads from ``REFERENCE_WINDOW`` before
    it to ``REFERENCE_WINDOW`` after it.  The host's speed changed by up to
    2x for seconds to minutes at a time, and the reference loop changes
    with it.

    Each answer is judged right after its item, untimed and untraced, and
    dropped; the garbage collector runs before every item, so that every
    item starts from the same collector state in every pass and pays only
    for its own garbage.  With a tracer, each pass's per-layer metrics are
    kept.  ``after_pass`` is called after every pass with the share of
    ``seconds`` spent so far."""
    out = Passes([[] for _ in items], [[] for _ in items], [], [None] * len(items), [])
    clock = time.perf_counter
    while not out.walls or sum(out.walls) < seconds:
        if tracer:
            tracer.reset_depth()
            before = tracer.snapshot()
        spans = []
        pass_start = clock()
        read_at, reads = [pass_start], [read_reference(clock)]
        spent = 0.0
        if tracer:
            tracer.paused = True
        gc.collect()
        for i, item in enumerate(items):
            if tracer:
                tracer.paused = False
            t0 = clock()
            try:
                answer = item.run()
            except Exception as exc:  # a crash is an answer, judged below
                answer = exc
            t1 = clock()
            if tracer:
                tracer.paused = True
            out.seconds[i].append(t1 - t0)
            out.judged[i] = tally.add(item, answer)
            del answer
            gc.collect()
            spans.append((t0, t1))
            spent += t1 - t0
            if spent >= REFERENCE_EVERY or i == len(items) - 1:
                read_at.append(clock())
                reads.append(read_reference(clock))
                spent = 0.0
        for i, (t0, t1) in enumerate(spans):
            low = bisect.bisect_left(read_at, t0 - REFERENCE_WINDOW)
            high = bisect.bisect_right(read_at, t1 + REFERENCE_WINDOW)
            out.refs[i].append((t1 - t0) / statistics.median(reads[low:high]))
        out.walls.append(clock() - pass_start)
        tally.end_pass()
        if tracer:
            out.layers.append(layer_metrics(*Tracer.delta(before, tracer.snapshot())))
        if after_pass:
            after_pass(sum(out.walls) / seconds if seconds else 1.0)
    return out


def percentile(values: list, p: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float:
    """The highest percentile with ten of n items beyond it: the 11th
    largest (the median when there are fewer than 21 items)."""
    return max(50.0, 100 * (n - 11) / (n - 1))


def layer_metrics(stats: dict, counters: dict) -> dict:
    def stat(name, field):
        return stats.get(name, [0, 0.0, 0.0, 0])[field]

    def self_s(prefix):
        return sum(v[SELF] for k, v in stats.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_ms": self_s(layer + ".") * 1e3 for layer in LAYERS}
    structures = stat("models.enumerate_structures", YIELDS)
    candidates = stat("interpolation.enumerate_shared_formulas", YIELDS)
    m.update({
        "parser.chars_per_s": ratio(counters["parser_chars"], self_s("parser.")),
        "formulas.signature_of.calls": stat("formulas.signature_of", CALLS),
        "formulas.substitute_constant.calls": stat("formulas.substitute_constant", CALLS),
        "formulas.simplify.self_ms": stat("formulas.simplify", SELF) * 1e3,
        "tableau.prove.calls": stat("tableau.prove", CALLS),
        "tableau.rule_apps": counters["rule_apps"],
        "tableau.us_per_app": ratio(stat("tableau.prove", INCL) * 1e6, counters["rule_apps"]),
        "tableau.splits": counters["splits"],
        "tableau.branches": counters["branches"],
        "tableau.max_depth": counters["max_depth"],
        "interpolation.propagate.self_ms": stat("interpolation.propagate", SELF) * 1e3,
        "interpolation.verify.self_ms": (stat("interpolation.verify_interpolant", SELF)
                                         + stat("interpolation.entails", SELF)) * 1e3,
        "interpolation.raw_nodes": counters["raw_nodes"],
        "interpolation.search.candidates": candidates,
        "interpolation.search.verified_per_candidate":
            ratio(counters["search_verified"], candidates),
        "models.structures": structures,
        "models.us_per_structure": ratio(self_s("models.") * 1e6, structures),
        "models.find_model.self_ms": stat("models.find_model", SELF) * 1e3,
        "models.models_per_structure": ratio(counters["evaluate_true"], structures),
    })
    for name in CLI_COMMANDS:
        m[f"cli.{name}.ms"] = stat("cli.cmd_" + name.replace("-", "_"), INCL) * 1e3
    return m


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_traced(craig, items: list, seconds: float, tally: Tally) -> Passes:
    """Passes with the tracer installed."""
    tracer = Tracer(craig)
    tracer.install()
    try:
        return run_passes(items, seconds, tally, tracer)
    finally:
        tracer.uninstall()


def set_up(workload, seed: int) -> tuple:
    """Import craig afresh and build the inputs; the seconds it took, craig's
    modules and the items."""
    gc.collect()    # the previous set-up's garbage is not charged to this one
    t0 = time.perf_counter()
    craig = load_craig()
    items = workload.build(craig, seed, ROOT)
    return time.perf_counter() - t0, craig, items


def run_workload(args) -> int:
    """Set-up is timed once before the passes and again between them, spread
    over the run in proportion to the pass time spent: the host's speed
    changes for seconds at a time, and set-ups taken back to back all fell
    in one spell.  A set-up between passes is thrown away afterwards, and
    the passes keep the first set-up's craig and items."""
    workload = WORKLOADS[args.workload]
    first, craig, items = set_up(workload, args.seed)
    setups = [first]
    repeats = 1 if args.trace else \
        min(max(SETUP_REPEATS[0], math.ceil(SETUP_SECONDS / first)), SETUP_REPEATS[1])
    modules = {name: m for name, m in sys.modules.items()
               if name == "craig" or name.startswith("craig.")}

    def set_up_again(share):
        due = min(repeats, math.ceil(repeats * share))
        if len(setups) < due:
            while len(setups) < due:
                setups.append(set_up(workload, args.seed)[0])
            sys.modules.update(modules)
            gc.collect()
            gc.freeze()

    gc.collect()
    gc.freeze()     # craig and the inputs are not scanned by the collections between items
    main = [item for item in items if not item.scaling]
    scaling = [item for item in items if item.scaling]
    random.Random(args.seed).shuffle(main)

    share = args.seconds / 2 if args.trace else args.seconds
    plain = Tally()
    tallies = [plain]
    passes = run_passes(main, share, plain, after_pass=set_up_again)
    item_refs = [statistics.median(t) for t in passes.refs]    # each item's median pass
    item_secs = [statistics.median(t) for t in passes.seconds]
    layers = {}
    if args.trace:
        item_times = {item.name: t for item, t in zip(main, item_secs)}
        item_judged = {item.name: j for item, j in zip(main, passes.judged)}
        if scaling:
            tallies.append(Tally())
            once = run_passes(scaling, 0, tallies[-1])
            item_times.update((item.name, t[0]) for item, t in zip(scaling, once.seconds))
            item_judged.update((item.name, j) for item, j in zip(scaling, once.judged))
        traced = Tally()
        tallies.append(traced)
        per_pass = run_traced(craig, main, share, traced)
        layers = {name: statistics.median(p.get(name, 0) for p in per_pass.layers)
                  for name in PER_LAYER}
        layers["trace.overhead"] = \
            sum(statistics.median(t) for t in per_pass.refs) / sum(item_refs)
        if workload.item_metrics:
            layers.update(workload.item_metrics(item_times, item_judged))

    unexpected = {k: v for t in tallies for k, v in t.unexpected.items()}
    known = {k: v for t in tallies for k, v in t.known.items()}
    repeated = [plain] + ([traced] if args.trace else [])
    drift = [name for name in ("decided", "nodes")
             if len({n for t in repeated for n in t.passes(name)}) > 1]
    if args.trace:
        drift += [name for name in DETERMINISTIC
                  if len({p[name] for p in per_pass.layers}) > 1]
    if drift:
        unexpected["determinism"] = "counts differ between passes: " + ", ".join(drift)

    tail = tail_percentile(len(main))
    ref_ms = statistics.median(s / r for item_s, item_r in zip(passes.seconds, passes.refs)
                               for s, r in zip(item_s, item_r)) * 1e3
    print(f"workload {args.workload}, seed {args.seed}: {len(passes.walls)} untraced "
          f"passes of {len(main)} items, {sum(passes.walls):.2f} s; each item is timed "
          f"at its median pass; item_ref_tail is p{tail:.2f} over the {len(main)} items")
    print(f"one ref (the reference loop) took {ref_ms:.4f} ms; in ms the item p50 was "
          f"{percentile(item_secs, 50) * 1e3:.4f} and the tail "
          f"{percentile(item_secs, tail) * 1e3:.4f}")
    for name, error in sorted(known.items()):
        print(f"known defect, counted as an error: {name}: {error}")
    for name, error in sorted(unexpected.items()):
        print(f"ERROR {name}: {error}")

    if args.trace:
        metrics = {name: metric(layers.get(name, 0), unit) for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_kref": len(main) * 1e3 / sum(item_refs),
            "item_ref_p50": percentile(item_refs, 50),
            "item_ref_tail": percentile(item_refs, tail),
            "decided_share": sum(plain.passes("decided")) / plain.attempted,
            "correct_share": 1 - plain.failed / plain.attempted,
            "interpolant_size": plain.nodes[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not unexpected,
                      "attempted": sum(t.attempted for t in tallies),
                      "failed": sum(t.failed for t in tallies), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("".join(f"  {line}\n" for line in lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
            entry.update({f"{k}_trace{trace}": result[k]
                          for k in ("correct", "attempted", "failed")})
            for metric_name, m in result["metrics"].items():
                print(f"{name:20} {metric_name:45} {m['value']:>16.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the report here as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "craig" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'craig'} not found; run from a craig checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
