"""Per-layer call tracing for the craig package, applied from outside it.

``Tracer.install`` replaces every public function of the layer modules by a
timing wrapper, wherever a ``craig`` module binds it (the defining module, the
modules that import it, the package namespace).  Each wrapped call is a span:
its name, start, end and parent (the innermost span still open).  A span is
folded into per-function totals when it closes, so memory stays constant:
calls, inclusive time, and self time, which is the span's duration minus the
part of it covered by child spans.  A call that re-enters the function of the
innermost open span (plain recursion) is folded into that span.  Generator
functions get one span per resumption, and their yields are counted.

While ``paused`` is set, wrapped calls run untraced; the benchmark sets it
while it judges answers.

Counters are read from return values through hooks.  A hook runs after its
span has closed and its time is taken out of the parent's self time, so the
bookkeeping is charged to no layer; it still shows in ``trace.overhead``.
Nothing under ``src/`` is changed; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import copy
import functools
import inspect
import sys
import time
import types

LAYERS = ("parser", "formulas", "tableau", "interpolation", "models",
          "definability", "theory", "access", "fragments", "cli")

CALLS, INCL, SELF, YIELDS = range(4)


class Tracer:
    def __init__(self, craig):
        self.craig = craig
        self._walk = craig.formulas.walk   # unwrapped, for counting in hooks
        self.stack: list = []          # open spans: [name, time covered by children]
        self.stats: dict = {}          # name -> [calls, inclusive s, self s, yields]
        self.counters: dict = {
            "rule_apps": 0, "splits": 0, "branches": 0, "max_depth": 0,
            "raw_nodes": 0, "search_verified": 0, "evaluate_true": 0,
            "parser_chars": 0,
        }
        self.hooks = {
            "tableau.prove": self._on_prove,
            "interpolation.interpolant_from_labeled": self._on_extract,
            "interpolation.verify_interpolant": self._on_verify,
            "models.evaluate": self._on_evaluate,
            "parser.parse": self._on_parse,
            "parser.parse_problem": self._on_parse,
        }
        self._restore: list = []
        self.paused = False

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrappers: dict = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "craig" or name.startswith("craig."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS or obj.__name__.startswith("_") \
                        or not obj.__module__.startswith("craig."):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        hook = self.hooks.get(name)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                return self._resume(fn(*args, **kwargs), name, stat)
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused or (stack and stack[-1][0] is name):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[CALLS] += 1
                stat[INCL] += duration
                stat[SELF] += duration - span[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook_start = clock()
                hook(result, args, parent)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        return traced

    def _resume(self, generator, name: str, stat: list):
        stack = self.stack
        clock = time.perf_counter
        stat[CALLS] += 1
        while True:
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                duration = clock() - start
                stack.pop()
                stat[INCL] += duration
                stat[SELF] += duration - span[1]
                if stack:
                    stack[-1][1] += duration
            stat[YIELDS] += 1
            yield item

    # ------------------------------------------------------------ hooks

    def _on_prove(self, outcome, args, parent) -> None:
        c = self.counters
        tableau_mod = self.craig.tableau
        if isinstance(outcome, tableau_mod.Unknown):
            c["rule_apps"] += outcome.budget_spent
        elif isinstance(outcome, tableau_mod.Closed):
            tableau = outcome.tableau
            c["rule_apps"] += tableau.rule_applications
            stack = [(tableau.root, 0)]
            while stack:
                node, depth = stack.pop()
                if len(node.children) > 1:
                    c["splits"] += 1
                if not node.children:
                    c["branches"] += 1
                    c["max_depth"] = max(c["max_depth"], depth)
                stack.extend((child, depth + 1) for child in node.children)

    def _on_extract(self, result, args, parent) -> None:
        self.counters["raw_nodes"] += sum(1 for _ in self._walk(result[0]))

    def _on_verify(self, verdict, args, parent) -> None:
        if parent == "interpolation.search_interpolant" and verdict:
            self.counters["search_verified"] += 1

    def _on_evaluate(self, value, args, parent) -> None:
        if value:
            self.counters["evaluate_true"] += 1

    def _on_parse(self, result, args, parent) -> None:
        # a parse called from parse_problem reads text already counted there
        if parent is None or not parent.startswith("parser."):
            self.counters["parser_chars"] += len(args[0])

    # ------------------------------------------------------------ reading

    def snapshot(self) -> tuple:
        return copy.deepcopy(self.stats), dict(self.counters)

    @staticmethod
    def delta(before: tuple, after: tuple) -> tuple:
        """Totals accumulated between two snapshots (max_depth is the later
        running maximum, reset by ``reset_depth``)."""
        stats = {}
        for name, values in after[0].items():
            old = before[0].get(name, [0, 0.0, 0.0, 0])
            stats[name] = [v - o for v, o in zip(values, old)]
        counters = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
        counters["max_depth"] = after[1]["max_depth"]
        return stats, counters

    def reset_depth(self) -> None:
        self.counters["max_depth"] = 0
