"""The benchmark's tracer (bench/tracing.py) patches functions by owner and
attribute name. These checks fail when a rename or a move would make
`bench/run.py --trace 1` trace nothing or raise."""

import importlib.util
from pathlib import Path

from statecover import cli, executor

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner():
    targets = load_tracing()._targets()
    assert targets
    for owner, attr, _name, _note in targets:
        assert attr in owner.__dict__, (owner, attr)


def test_cli_calls_the_traced_run_campaign():
    assert cli.run_campaign is executor.run_campaign
