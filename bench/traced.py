"""Run one pumc command, or the survey step, with spans around pumc's layers.

Usage:
    python3 traced.py SPANS_JSON cli ARGS...      # as `python -m pumc.cli ARGS...`
    python3 traced.py SPANS_JSON survey ARGS...   # as `python3 survey.py ARGS...`

The tracer lives outside the program. After importing pumc it replaces each
public function listed in TARGETS by a timing wrapper, rebinding every
`pumc.*` module attribute that refers to the original, so names that modules
imported with `from .x import f` are wrapped as well. Spans (name, start,
end, parent) stay in memory and are written to SPANS_JSON when the command
returns; the exit code is the command's own.

A wrapped call made while a span of the same module is the innermost open
span belongs to that span and is not recorded again, so a layer's time is
the time inside its public entry points. Functions marked hot (called once
per record or per state) get one aggregate timer per parent span instead of
a span per call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

clock = time.perf_counter

# (module, function, metric, hot, count). `count` maps the bound arguments
# and the return value to counter increments; a hot function's count sees
# only the return value, which keeps its per-call cost low.
TARGETS = (
    ("serialize", "write_states_jsonl", "serialize.write_s", False,
     lambda a, r: {"serialize.bytes_written": os.path.getsize(a["path"]),
                   "serialize.records": len(a["states"]) + 1}),
    ("serialize", "read_states_jsonl", "serialize.read_s", False,
     lambda a, r: {"serialize.bytes_read": os.path.getsize(a["path"]),
                   "serialize.records": r[2].size + 1}),
    ("serialize", "load_matrix", "serialize.matrix_read_s", False,
     lambda a, r: {"serialize.bytes_read": os.path.getsize(a["path"])}),
    ("serialize", "dumps", "serialize.emit_s", True,
     lambda a, r: {"serialize.bytes_written": len(r), "serialize.records": 1}),
    ("serialize", "multigraph_to_dict", "serialize.emit_s", True, None),
    ("puniform", "iid_to_chain", "puniform.replay_s", False,
     lambda a, r: {"puniform.replay_steps": len(a["z"])}),
    ("puniform", "chain_to_iid", "puniform.to_iid_s", False, None),
    ("puniform", "detect_puniform", "puniform.detect_s", False, None),
    ("puniform", "detection_violation", "puniform.detect_s", False, None),
    ("puniform", "check_puniform", "puniform.check_s", False, None),
    ("core", "builtin_family", "core.family_s", False,
     lambda a, r: {"core.family_entries": r.size ** 2}),
    ("core", "identity_family", "core.family_s", False,
     lambda a, r: {"core.family_entries": r.size ** 2}),
    ("core", "invert_family", "core.family_s", False,
     lambda a, r: {"core.family_entries": r.size ** 2}),
    ("models", "density_chain", "models.build_s", False,
     lambda a, r: {"models.table_entries": r.family.size ** 2}),
    ("models", "stability_chain", "models.build_s", False,
     lambda a, r: {"models.table_entries": r.family.size ** 2}),
    ("models", "density_mef", "models.build_s", False,
     lambda a, r: {"models.table_entries": r.tau.size}),
    ("models", "stability_mef", "models.build_s", False,
     lambda a, r: {"models.table_entries": r.tau.size}),
    ("models", "transitivity_cef", "models.build_s", False,
     lambda a, r: {"models.table_entries": r.tau.size}),
    ("models", "reciprocity_cef", "models.build_s", False,
     lambda a, r: {"models.table_entries": r.tau.size}),
    ("expfam", "row_log_partitions", "expfam.survey_s", False,
     lambda a, r: {"expfam.survey_rows": a["cef"].space.size}),
    ("expfam", "cef_transition_matrix", "expfam.realize_s", False, None),
    ("netstat", "density_stat_table", "netstat.stat_table_s", False, None),
    ("netstat", "stability_stat_table", "netstat.stat_table_s", False, None),
    ("netstat", "sorted_degree_sequence", "netstat.stat_table_s", True, None),
    ("netstat", "iso_classes", "netstat.exchange_s", False, None),
    ("netstat", "exchangeability_transfer", "netstat.exchange_s", False, None),
    ("simulate", "sample_puniform_chain", "simulate.sample_s", False, None),
    ("simulate", "sample_chain", "simulate.sample_s", False, None),
    ("simulate", "convergence_report", "simulate.report_s", False, None),
    ("simulate", "stationary_distribution", "simulate.stationary_s", False,
     lambda a, r: {"simulate.stationary_iters": r.iterations}),
    ("ermgm", "mle_density_stability", "ermgm.mle_s", False, None),
    ("ermgm", "fast_log_partition_instrumented", "ermgm.partition_s", False,
     lambda a, r: {"ermgm.partition_terms": r.terms}),
    ("ermgm", "to_expfam", "ermgm.materialize_s", False, None),
    ("ermgm", "sample_multigraphs", "ermgm.sample_s", False, None),
    ("oracle", "brute_partition", "oracle.brute_s", False,
     lambda a, r: {"oracle.summands": a["fam"].space.size}),
)


class Tracer:
    """In-memory spans, per-parent aggregate timers and counters."""

    def __init__(self):
        self.spans: list[list] = []       # [metric, function, parent, start, end]
        self.stack: list[tuple] = []      # (span index, module) of open spans
        self.aggregates: dict = {}        # (metric, parent) -> [calls, seconds]
        self.counters: dict = {}

    def add(self, counts: dict):
        for name, k in counts.items():
            self.counters[name] = self.counters.get(name, 0) + int(k)

    def aggregate(self, metric: str, seconds: float):
        parent = self.stack[-1][0] if self.stack else -1
        entry = self.aggregates.setdefault((metric, parent), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def span(self, metric: str, function: str, module: str = ""):
        return _Span(self, metric, function, module)

    def wrap(self, module: str, fn, metric: str, hot: bool, count):
        signature = inspect.signature(fn)
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            if hot:
                t0 = clock()
                result = fn(*args, **kwargs)
                self.aggregate(metric, clock() - t0)
            else:
                with self.span(metric, fn.__name__, module):
                    result = fn(*args, **kwargs)
            if count:
                arguments = None
                if not hot:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                self.add(count(arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target and the rng stream factory in all loaded pumc modules."""
        replacements = {}
        for module, name, metric, hot, count in TARGETS:
            fn = getattr(importlib.import_module(f"pumc.{module}"), name)
            replacements[id(fn)] = self.wrap(module, fn, metric, hot, count)
        rng = importlib.import_module("pumc.rng")
        stream = rng.stream
        replacements[id(stream)] = lambda *a, **k: _TimedGenerator(stream(*a, **k), self)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pumc" or mod_name.startswith("pumc.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str):
        record = {
            "spans": self.spans,
            "aggregates": [[m, p, c, s] for (m, p), (c, s) in self.aggregates.items()],
            "counters": self.counters,
        }
        with open(path, "w") as fp:
            json.dump(record, fp)


class _Span:
    def __init__(self, tracer: Tracer, metric: str, function: str, module: str):
        self.tracer, self.metric, self.function, self.module = tracer, metric, function, module

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1][0] if t.stack else -1
        self.record = [self.metric, self.function, parent, clock(), None]
        t.stack.append((len(t.spans), self.module))
        t.spans.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[4] = clock()
        self.tracer.stack.pop()
        return False


class _TimedGenerator:
    """numpy Generator whose `random` draws are timed and counted."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        t0 = clock()
        out = self._gen.random(*args, **kwargs)
        self._tracer.aggregate("rng.draw_s", clock() - t0)
        self._tracer.add({"rng.draws": getattr(out, "size", 1)})
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def main(argv: list[str]) -> int:
    spans_path, kind, *args = argv
    tracer = Tracer()
    with tracer.span("process.import_s", "import"):
        import pumc.cli

        if kind == "survey":
            import survey
    tracer.install()
    with tracer.span("cli.self_s", kind):
        code = pumc.cli.main(args) if kind == "cli" else survey.main(args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
