"""Guard for the benchmark's per-layer tracer.

bench/traced.py wraps each (module, function) listed in its TARGETS table
and reads some of their arguments by name. A rename or a dropped parameter
in pumc would silently remove a layer from the breakdown, so these tests
resolve every entry against the package.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"pumc.{module}"), name, None)


def test_every_traced_target_is_a_pumc_callable():
    targets = _targets()
    assert targets
    for module, name, *_ in targets:
        assert callable(_resolve(module, name)), f"pumc.{module}.{name} is gone"
    assert callable(_resolve("rng", "stream"))


def test_arguments_the_tracer_reads_are_parameters():
    for module, name, _, _, count in _targets():
        if count is None:
            continue
        params = inspect.signature(_resolve(module, name)).parameters
        for arg in re.findall(r'a\["(\w+)"\]', inspect.getsource(count)):
            assert arg in params, f"pumc.{module}.{name} has no parameter {arg!r}"


def test_survey_runs_through_the_traced_row_log_partitions(monkeypatch):
    """validate_cef and mef_check reach the row normalizers through
    expfam.row_log_partitions, once per probe, so the tracer's
    expfam.survey_s layer holds the survey and survey_rows counts it."""
    metrics = {(module, name): metric for module, name, metric, *_ in _targets()}
    assert metrics[("expfam", "row_log_partitions")] == "expfam.survey_s"
    expfam = importlib.import_module("pumc.expfam")
    models = importlib.import_module("pumc.models")
    real = expfam.row_log_partitions
    calls = []

    def counting(cef, theta, *args, **kwargs):
        calls.append(theta)
        return real(cef, theta, *args, **kwargs)

    monkeypatch.setattr(expfam, "row_log_partitions", counting)
    cef = models.transitivity_cef(4)
    for check in (expfam.validate_cef, expfam.mef_check):
        for probes in (None, [0.5, -1.5, 3.0]):
            calls.clear()
            check(cef, probes)
            assert calls == (expfam.default_probes(cef.eta) if probes is None else probes)
