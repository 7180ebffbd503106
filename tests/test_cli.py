import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import requests

from statecover import cli
from statecover.cli import derive_seed, main
from statecover.demo import DemoServer, tournaments_model_doc

from helpers import MISUSED_CLAUSES, add_clause


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, capsys):
    code, _, _ = run(capsys, "fixtures", str(tmp_path))
    assert code == 0
    return tmp_path


def write_tiny_model(tmp_path):
    """One player, no tournaments: a 3-state lifecycle, 1 covering sequence."""
    doc = tournaments_model_doc(players=("p1",), tournaments=(), enrolments=())
    path = tmp_path / "tiny-model.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
    return path


def prepare_sequences(tmp_path, capsys, model_path, seed="0", name="seqs.json"):
    dot = tmp_path / "graph.dot"
    contracts = tmp_path / "tournaments-contracts.yaml"
    code, _, _ = run(capsys, "explore", str(model_path), str(dot))
    assert code == 0
    seqs = tmp_path / name
    code, _, _ = run(capsys, "sequences", str(dot), str(seqs),
                     "--spec", str(contracts), "--seed", seed)
    assert code == 0
    return seqs


class TestSeedDerivation:
    def test_is_stable(self):
        assert derive_seed(7, "puts") == derive_seed(7, "puts")

    def test_domains_do_not_collide(self):
        assert derive_seed(7, "puts") != derive_seed(7, "inputs")
        assert derive_seed(7, "puts") != derive_seed(8, "puts")


class TestFixtures:
    def test_writes_the_four_files(self, workdir):
        names = {p.name for p in workdir.iterdir()}
        assert names >= {
            "tournaments-oas.yaml",
            "tournaments-contracts.yaml",
            "tournaments-model.yaml",
            "tournaments-model-2t.yaml",
        }

    def test_contracts_file_round_trips(self, workdir, capsys):
        first = (workdir / "tournaments-contracts.yaml").read_text()
        out2 = workdir / "again.yaml"
        code, _, _ = run(capsys, "gen-contracts",
                         str(workdir / "tournaments-contracts.yaml"), str(out2))
        assert code == 0
        assert "x-ensures" in first
        assert "x-invariants" in first


class TestPipeline:
    def test_explore_clean_sequences(self, workdir, capsys):
        dot = workdir / "graph.dot"
        code, out, _ = run(capsys, "explore",
                           str(workdir / "tournaments-model.yaml"), str(dot))
        assert code == 0
        assert "6 states, 10 transitions" in out

        code, out, _ = run(capsys, "clean", str(dot), str(dot))
        assert code == 0

        seqs = workdir / "seqs.json"
        code, out, _ = run(capsys, "sequences", str(dot), str(seqs),
                           "--spec", str(workdir / "tournaments-contracts.yaml"),
                           "--seed", "7")
        assert code == 0
        assert "100% state / 100% transition coverage" in out
        doc = json.loads(seqs.read_text())
        assert doc["seed"] == 7
        assert len(doc["sequences"]) == 6
        ops = {c["op"] for s in doc["sequences"] for c in s["calls"]}
        assert "postPlayer" in ops and "deleteEnrolment" in ops

    def test_puts_insertion_is_seed_stable(self, workdir, capsys):
        dot = workdir / "graph.dot"
        run(capsys, "explore", str(workdir / "tournaments-model.yaml"), str(dot))
        a, b, c = (workdir / n for n in ("a.json", "b.json", "c.json"))
        for target, seed in ((a, "7"), (b, "7"), (c, "8")):
            code, _, _ = run(capsys, "sequences", str(dot), str(target),
                             "--spec", str(workdir / "tournaments-contracts.yaml"),
                             "--seed", seed, "--puts-max", "2")
            assert code == 0
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()  # different seed, different puts

    def test_clean_reports_deduplication(self, workdir, capsys, tmp_path):
        dot = workdir / "graph.dot"
        run(capsys, "explore", str(workdir / "tournaments-model.yaml"), str(dot))
        lines = dot.read_text().strip().splitlines()
        interior = lines[1:-1]
        doubled = "\n".join([lines[0]] + interior + interior + [lines[-1]]) + "\n"
        dirty = tmp_path / "dirty.dot"
        dirty.write_text(doubled)
        code, out, _ = run(capsys, "clean", str(dirty), str(tmp_path / "clean.dot"))
        assert code == 0
        assert "removed 50.0%" in out
        # cleaning is also semantics-preserving: same sequence count
        seqs = tmp_path / "seqs.json"
        code, out, _ = run(capsys, "sequences", str(tmp_path / "clean.dot"),
                           str(seqs))
        assert code == 0
        assert len(json.loads(seqs.read_text())["sequences"]) == 6


    def test_clean_is_byte_stable_on_its_own_output(self, tmp_path, capsys):
        # \n is a model checker's line break inside a label; \\ and \" are
        # DOT escapes that parse_dot decodes
        label = r'/\\ a = 1\n/\\ b = 2 say \"hi\"'
        body = f'0 [label="{label}"];\n1 [label="final = TRUE"];\n0 -> 1 [label="go(x)"];\n'
        dirty = tmp_path / "dirty.dot"
        dirty.write_text("digraph G {\n" + body + body + "}\n")
        once, twice = tmp_path / "once.dot", tmp_path / "twice.dot"
        assert run(capsys, "clean", str(dirty), str(once))[0] == 0
        assert once.read_text() == "digraph G {\n" + body + "}\n"
        assert run(capsys, "clean", str(once), str(twice))[0] == 0
        assert twice.read_bytes() == once.read_bytes()


class TestCampaignCommand:
    def test_clean_service_exits_zero(self, workdir, capsys):
        model = write_tiny_model(workdir)
        seqs = prepare_sequences(workdir, capsys, model, seed="3")
        report_path = workdir / "report.json"
        code, out, _ = run(capsys, "test",
                           "--spec", str(workdir / "tournaments-contracts.yaml"),
                           "--sequences", str(seqs),
                           "--spawn-demo", "--report", str(report_path))
        assert code == 0
        assert "err=0" in out
        report = json.loads(report_path.read_text())
        assert report["seed"] == 3  # defaulted from the sequence file
        assert report["summary"]["err"] == 0
        assert report["summary"]["notTested"] == 0

    def test_explicit_seed_overrides_the_stored_one(self, workdir, capsys):
        model = write_tiny_model(workdir)
        seqs = prepare_sequences(workdir, capsys, model, seed="3")
        report_path = workdir / "report.json"
        code, _, _ = run(capsys, "test",
                         "--spec", str(workdir / "tournaments-contracts.yaml"),
                         "--sequences", str(seqs), "--seed", "11",
                         "--spawn-demo", "--report", str(report_path))
        assert code == 0
        assert json.loads(report_path.read_text())["seed"] == 11

    def test_faulty_service_exits_one_and_names_the_finding(self, workdir, capsys):
        model = write_tiny_model(workdir)
        seqs = prepare_sequences(workdir, capsys, model)
        code, out, err = run(capsys, "test",
                             "--spec", str(workdir / "tournaments-contracts.yaml"),
                             "--sequences", str(seqs),
                             "--spawn-demo", "--demo-fault", "delete_player_noop")
        assert code == 1
        assert "err=1" in out
        assert "deletePlayer" in err
        assert "res_code(GET /players/{pid}) = 404" in err


    def test_cleanup_failures_are_logged(self, workdir, capsys):
        calls = [("postPlayer", "POST", "/players", {"pid": "p1"}),
                 ("postTournament", "POST", "/tournaments", {"tid": "t1"}),
                 ("postEnrolment", "POST", "/enrolments",
                  {"eid": "e1", "pid": "p1", "tid": "t1"}),
                 ("deleteEnrolment", "DELETE", "/enrolments/{eid}", {"eid": "e1"})]
        seqs = workdir / "stale-member.json"
        seqs.write_text(json.dumps({"seed": 0, "sequences": [{"calls": [
            {"op": op, "verb": verb, "path": path, "params": params}
            for op, verb, path, params in calls]}]}))
        _, _, err = run(capsys, "--json-logs", "test",
                        "--spec", str(workdir / "tournaments-contracts.yaml"),
                        "--sequences", str(seqs), "--spawn-demo",
                        "--demo-fault", "delete_enrolment_no_backref")
        events = [json.loads(line) for line in err.splitlines() if line]
        failed = [e for e in events if e["event"] == "cleanup-failed"]
        assert len(failed) == 1
        assert "/tournaments/tid" in failed[0]["url"]
        assert failed[0]["status"] == 409 and failed[0]["sequenceIndex"] == 0

    def test_second_create_of_an_id_is_not_tested(self, workdir, capsys):
        post = {"op": "postPlayer", "verb": "POST", "path": "/players",
                "params": {"pid": "p1"}}
        seqs = workdir / "twice.json"
        seqs.write_text(json.dumps({"seed": 0, "sequences": [{"calls": [post, post]}]}))
        report_path = workdir / "report.json"
        argv = ("test", "--spec", str(workdir / "tournaments-contracts.yaml"),
                "--sequences", str(seqs), "--report", str(report_path))
        code, out, _ = run(capsys, *argv, "--spawn-demo")
        assert code == 0
        assert "ok=1" in out and "notTested=1" in out
        second = json.loads(report_path.read_text())["outcomes"][1]
        assert second["classification"] == "NOT_TESTED"
        assert second["reason"] == "p1 was already created in this sequence"
        with DemoServer() as server:
            code, _, _ = run(capsys, *argv, "--base-url", server.base_url)
            players = requests.get(server.base_url + "/players", timeout=5).json()
            seen = requests.get(server.base_url + "/_requests", timeout=5).json()
        assert code == 0
        assert players == []
        assert [r for r in seen if r.startswith("POST ")] == ["POST /players"]


class TestJsonLogs:
    def test_events_are_json_lines(self, workdir, capsys):
        dot = workdir / "graph.dot"
        code, _, err = run(capsys, "--json-logs", "explore",
                           str(workdir / "tournaments-model.yaml"), str(dot))
        assert code == 0
        events = [json.loads(line) for line in err.splitlines() if line]
        assert {"event": "explored", "states": 6, "transitions": 10,
                "finals": 1} in events


    def test_campaign_event_accounts_for_every_request(self, workdir, capsys):
        seqs = prepare_sequences(workdir, capsys, workdir / "tournaments-model.yaml")
        with DemoServer() as server:
            code, _, err = run(capsys, "--json-logs", "test",
                               "--spec", str(workdir / "tournaments-contracts.yaml"),
                               "--sequences", str(seqs), "--base-url", server.base_url,
                               "--report", str(workdir / "report.json"))
            seen = requests.get(server.base_url + "/_requests", timeout=5).json()
        assert code == 0
        events = [json.loads(line) for line in err.splitlines() if line]
        (campaign,) = [e for e in events if e["event"] == "campaign"]
        assert set(campaign) == {"event", "calls", "sends", "probes", "cleanups",
                                 "duration"}
        report = json.loads((workdir / "report.json").read_text())
        assert "probes" not in json.dumps(report)
        assert campaign["calls"] == campaign["sends"] == report["summary"]["calls"]
        assert campaign["duration"] == report["duration"]
        gets = [r for r in seen if r.startswith("GET ")]
        # every GET but the up-front service probe comes from a clause
        assert campaign["probes"] == len(gets) - 1 > 0
        assert campaign["sends"] + campaign["cleanups"] == len(seen) - len(gets)


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "explore", str(tmp_path / "nope.yaml"),
                           str(tmp_path / "out.dot"))
        assert code == 2
        assert "cannot read" in err

    def test_not_a_dot_file(self, workdir, capsys):
        code, _, err = run(capsys, "sequences",
                           str(workdir / "tournaments-oas.yaml"),
                           str(workdir / "out.json"))
        assert code == 2
        assert "digraph" in err

    def test_campaign_without_a_target(self, workdir, capsys):
        model = write_tiny_model(workdir)
        seqs = prepare_sequences(workdir, capsys, model)
        code, _, err = run(capsys, "test",
                           "--spec", str(workdir / "tournaments-contracts.yaml"),
                           "--sequences", str(seqs))
        assert code == 2
        assert "--base-url or --spawn-demo" in err

    def test_unreachable_service(self, workdir, capsys):
        model = write_tiny_model(workdir)
        seqs = prepare_sequences(workdir, capsys, model)
        code, _, err = run(capsys, "test",
                           "--spec", str(workdir / "tournaments-contracts.yaml"),
                           "--sequences", str(seqs),
                           "--base-url", "http://127.0.0.1:9",
                           "--timeout", "0.3")
        assert code == 2
        assert "probe" in err

    def test_bad_request_body_ref_fails_at_load(self, workdir, capsys):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        doc = yaml.safe_load((workdir / "tournaments-contracts.yaml").read_text())
        body = doc["paths"]["/players"]["post"]["requestBody"]
        body["content"]["application/json"]["schema"] = {
            "$ref": "#/components/schemas/Ghost"}
        bad = workdir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        for argv in (("gen-contracts", str(bad), str(workdir / "out.yaml")),
                     ("test", "--spec", str(bad), "--sequences", str(seqs),
                      "--spawn-demo")):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert "POST /players: request body: dangling $ref" in err

    @pytest.mark.parametrize("clause, message", [
        ("res_code(GET /players/req_body(@){pid}) = = 404", "at offset 42: "),
        ("res_code(DELETE /players/p1) = 200",
         "probe res_code(DELETE /players/p1) is not a GET"),
    ])
    def test_bad_clause_fails_at_load(self, workdir, capsys, clause, message):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        doc = yaml.safe_load((workdir / "tournaments-contracts.yaml").read_text())
        requires = doc["paths"]["/players"]["post"]["x-requires"]
        requires.append(clause)
        bad = workdir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        code, _, err = run(capsys, "test", "--spec", str(bad),
                           "--sequences", str(seqs), "--spawn-demo")
        assert code == 2
        where = f"POST /players: x-requires[{len(requires) - 1}]: "
        assert f"error: {where}{message}" in err

    @pytest.mark.parametrize("kind, clause, message", MISUSED_CLAUSES)
    def test_misused_clause_fails_at_load(self, workdir, capsys, monkeypatch,
                                          kind, clause, message):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        doc = yaml.safe_load((workdir / "tournaments-contracts.yaml").read_text())
        where = add_clause(doc, kind, clause)
        bad = workdir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        started = []
        monkeypatch.setattr(cli.demo_service, "DemoServer",
                            lambda **kwargs: started.append(kwargs))
        code, _, err = run(capsys, "test", "--spec", str(bad),
                           "--sequences", str(seqs), "--spawn-demo")
        assert (code, started) == (2, [])  # no service started, no request sent
        assert f"error: {where}{message}" in err

    @pytest.mark.parametrize("doc, where", [
        pytest.param({"sequences": [{"calls": [1]}]},
                     "sequences[0].calls[0]: expected an object", id="call"),
        pytest.param([1, 2], "top level: expected an object", id="top"),
        pytest.param({"sequences": [{"calls": [{"op": "postPlayer",
                                                 "params": {"pid": 1}}]}]},
                     "sequences[0].calls[0].params.pid: expected a string",
                     id="param"),
        pytest.param({"seed": [0], "sequences": []}, "seed: expected an integer",
                     id="seed"),
    ])
    def test_malformed_sequence_file(self, workdir, capsys, doc, where):
        seqs = workdir / "bad.json"
        seqs.write_text(json.dumps(doc))
        code, _, err = run(capsys, "test",
                           "--spec", str(workdir / "tournaments-contracts.yaml"),
                           "--sequences", str(seqs), "--spawn-demo")
        assert code == 2
        assert f"error: {seqs} is not a sequence file: {where}" in err

    @pytest.mark.parametrize("change, where", [
        pytest.param(lambda doc: doc.update(resources=[{"key": "pid"}]),
                     "resources[0]: missing 'name'", id="resource-name"),
        pytest.param(lambda doc: doc.update(resources=3),
                     "resources: expected a list", id="resources"),
        pytest.param(lambda doc: doc["actions"][0].pop("name"),
                     "actions[0]: missing 'name'", id="action-name"),
    ])
    def test_malformed_model(self, tmp_path, capsys, change, where):
        doc = tournaments_model_doc(players=("p1",), tournaments=(), enrolments=())
        change(doc)
        path = tmp_path / "bad-model.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        code, _, err = run(capsys, "explore", str(path), str(tmp_path / "out.dot"))
        assert code == 2
        assert f"error: {path}: {where}" in err

    @pytest.mark.parametrize("change, where", [
        pytest.param(lambda paths: paths.update({"/players": [paths["/players"]]}),
                     "/players: expected a mapping, got list", id="path-item"),
        pytest.param(lambda paths: paths["/players/{pid}"]["parameters"].append("pid"),
                     "/players/{pid}: parameters[1]: expected a mapping",
                     id="shared-parameter"),
        pytest.param(lambda paths: paths["/players"]["post"].update(parameters=[["pid"]]),
                     "POST /players: parameters[0]: expected a mapping",
                     id="operation-parameter"),
    ])
    def test_malformed_api_description(self, workdir, capsys, change, where):
        doc = yaml.safe_load((workdir / "tournaments-oas.yaml").read_text())
        change(doc["paths"])
        bad = workdir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        code, _, err = run(capsys, "gen-contracts", str(bad), str(workdir / "out.yaml"))
        assert code == 2
        assert f"error: {where}" in err

    def test_puts_max_out_of_range(self, workdir, capsys):
        dot = workdir / "graph.dot"
        run(capsys, "explore", str(workdir / "tournaments-model.yaml"), str(dot))
        for spec in (("--spec", str(workdir / "tournaments-contracts.yaml")), ()):
            code, _, err = run(capsys, "sequences", str(dot),
                               str(workdir / "out.json"), "--puts-max", "99", *spec)
            assert code == 2, spec
            assert "max_puts" in err

    def test_unreadable_edge_label(self, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        dot.write_text('digraph { 0 -> 1 [label="post player"]; 1 [label="final = TRUE"]; }')
        code, _, err = run(capsys, "sequences", str(dot), str(tmp_path / "out.json"))
        assert code == 2
        assert "error: edge 0 -> 1: cannot read label 'post player'" in err

    def test_model_invariant_violation_is_a_finding(self, tmp_path, capsys):
        doc = tournaments_model_doc(players=("p1",), tournaments=(),
                                    enrolments=())
        doc["invariants"].append({
            "name": "no_players_ever", "forall": "p", "in": "players",
            "check": "size(players) = 0",
        })
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        code, out, _ = run(capsys, "explore", str(path),
                           str(tmp_path / "out.dot"))
        assert code == 1
        assert "no_players_ever" in out
        assert "postPlayer(p1)" in out


REPO = Path(__file__).resolve().parent.parent


def load_pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with (REPO / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        """Run the declared console-script entry point from the source tree.

        The launcher is the one an installer writes for a
        ``[project.scripts]`` entry, so a misnamed module or callable fails
        here.  Building a wheel and putting the script on PATH is not
        checked.
        """
        project = load_pyproject()
        module, attr = project["project"]["scripts"]["statecover"].split(":")
        launcher = tmp_path / "statecover_launcher.py"
        launcher.write_text(
            f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")
        src = str(REPO / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, str(launcher), "fixtures", str(out)],
            capture_output=True, text=True, timeout=60,
            cwd=tmp_path, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert (out / "tournaments-model.yaml").exists()

        # An installed `statecover fixtures` reads its YAML from package
        # data, so every fixture must be covered by a package-data glob.
        package_dir = REPO / "src" / "statecover"
        shipped = {
            f for pattern in
            project["tool"]["setuptools"]["package-data"]["statecover"]
            for f in package_dir.glob(pattern)
        }
        fixtures = {f for f in (package_dir / "fixtures").rglob("*")
                    if f.is_file()}
        assert fixtures
        assert fixtures <= shipped, sorted(map(str, fixtures - shipped))
