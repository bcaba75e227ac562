"""The benchmark's hooks into the package: ``perfbench/tracer.py`` wraps
functions by module and name, and ``perfbench/worker.py`` rebinds
``kfwer.cli.run_theorem_trials``. A rename in the package must fail here,
not only in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import kfwer.cli
import kfwer.verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer):
    """Each module's binding of each wrapped name, or None where it has none."""
    modules = [importlib.import_module(name) for name in tracer.MODULES]
    return {(module.__name__, name): getattr(module, name, None) for module in modules for _, name in tracer.WRAPPED}


def test_tracer_wraps_every_listed_function_and_restores_it():
    tracer = load_tracer()
    before = bindings(tracer)
    # Names are unique in WRAPPED; a listed name its module lacks fails here.
    originals = {name: getattr(importlib.import_module(home), name) for home, name in tracer.WRAPPED}
    spans = tracer.Tracer()
    spans.install()
    try:
        # Every namespace that bound a listed function, its own module
        # included, now binds a wrapper of it.
        for (module, name), value in before.items():
            if value is originals[name]:
                assert getattr(importlib.import_module(module), name).__wrapped__ is value, (module, name)
        # Theorems 4.2 and 4.4 share one trial, which must still reach each
        # rule and form through the wrapped names.
        for theorem in ("4.2", "4.4"):
            assert kfwer.cli.main(["verify", "--theorem", theorem, "--trials", "3", "--n-max", "6", "--seed", "1"]) == 0
        assert spans.counters["cli.main.calls"] == 2
        assert spans.counters["verify.run_theorem_trials.calls"] == 2
        assert spans.counters["procedures.stepdown.calls"] == 3
        assert spans.counters["procedures.stepup.calls"] == 3
        assert spans.counters["procedures.family.calls"] == 6
    finally:
        spans.uninstall()
    assert bindings(tracer) == before


def test_cli_binds_the_verify_harness_by_name():
    """The benchmark worker times each theorem by rebinding this name."""
    assert kfwer.cli.run_theorem_trials is kfwer.verify.run_theorem_trials
