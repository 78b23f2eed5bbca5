"""The names of the package the benchmark in bench/ reaches into.

bench/tracer.py wraps module-level names and reads a missing one as a
layer that costs nothing, and bench/pipeline.py calls the command layer
directly; a rename in src/ would silently zero a per-layer metric or stop
the benchmark.  These tests fail first.
"""

import importlib
import importlib.util
import os

from etacurv import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_exists():
    missing = [f"{modname}.{attr}" for modname, attr, _ in _load_tracer().WRAPPED
               if not hasattr(importlib.import_module(modname), attr)]
    assert missing == []


def test_config_echo_accepts_the_problem():
    # bench/pipeline.py passes the spec built from the config
    cfg = cli.load_config(os.path.join(ROOT, "demos", "configs", "cap.cfg"))
    spec = cli.build_problem(cfg)
    assert cli.config_echo(cfg, spec) == cli.config_echo(cfg)
