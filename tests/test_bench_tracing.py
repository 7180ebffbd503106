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


def test_statecover_test_calls_the_command_lines_run_campaign(tmp_path, monkeypatch, capsys):
    """The tracer patches cli.run_campaign, so `statecover test` must call the
    campaign by that name."""
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)
        return executor.run_campaign(*args, **kwargs)

    monkeypatch.setattr(cli, "run_campaign", recorder)
    contracts, dot, seqs = (str(tmp_path / n) for n in
                            ("tournaments-contracts.yaml", "graph.dot", "seqs.json"))
    codes = [cli.main(argv) for argv in (
        ["fixtures", str(tmp_path)],
        ["explore", str(tmp_path / "tournaments-model.yaml"), dot],
        ["sequences", dot, seqs, "--spec", contracts],
        ["test", "--spec", contracts, "--sequences", seqs, "--spawn-demo"],
    )]
    assert codes == [0, 0, 0, 0]
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("calls=")
