import errno
import hashlib
import importlib.util
import json
import os
import signal
import socket
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml

import requests

from statecover import executor, lifecycle, speckit, ssg
from statecover.cli import derive_seed, main
from statecover.demo import FAULTS, DemoServer, tournaments_model_doc

from helpers import MISUSED_CLAUSES, add_clause, failing_on


DOTDUMP = Path(__file__).resolve().parent.parent / "bench" / "dotdump.py"


def _interrupt(seconds):
    raise KeyboardInterrupt


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

    def test_gen_contracts_of_its_own_output_is_byte_identical(self, workdir, capsys):
        once, twice = workdir / "once.yaml", workdir / "twice.yaml"
        code, _, _ = run(capsys, "gen-contracts", str(workdir / "tournaments-oas.yaml"), str(once))
        assert code == 0
        code, out, _ = run(capsys, "gen-contracts", str(once), str(twice))
        assert code == 0
        assert twice.read_bytes() == once.read_bytes()
        assert out == f"{twice}: contracts for 0 operations (0 clauses)\n"


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
        # DOT escapes, which clean keeps as written
        label = r'/\\ a = 1\n/\\ b = 2 say \"hi\"'
        body = f'0 [label="{label}"];\n1 [label="final = TRUE"];\n0 -> 1 [label="go(x)"];\n'
        dirty = tmp_path / "dirty.dot"
        dirty.write_text("digraph G {\n" + body + body + "}\n")
        once, twice = tmp_path / "once.dot", tmp_path / "twice.dot"
        assert run(capsys, "clean", str(dirty), str(once))[0] == 0
        assert once.read_text() == "digraph G {\n" + body + "}\n"
        assert run(capsys, "clean", str(once), str(twice))[0] == 0
        assert twice.read_bytes() == once.read_bytes()

    def test_clean_keeps_an_id_of_other_digits_quoted(self, tmp_path, capsys):
        # Arabic-Indic three is a digit to \d but no DOT numeral
        body = '"\u0663" [label="final = TRUE"];\n"\u0662" -> "\u0663" [label="go(x)"];\n'
        dirty = tmp_path / "dirty.dot"
        dirty.write_text("digraph G {\n" + body + "}\n", encoding="utf-8")
        out = tmp_path / "out.dot"
        assert run(capsys, "clean", str(dirty), str(out))[0] == 0
        assert out.read_text(encoding="utf-8") == "digraph G {\n" + body + "}\n"

    def test_clean_peaks_while_parsing_not_while_emitting(self, tmp_path, capsys, monkeypatch):
        """The tracemalloc peak of each step of clean on a 1.24 MB model
        checker's dump. Emitting holds the cleaned graph and its output, not
        the input text as well, and builds the output once: its peak is near
        0.6 of the parse step's, where holding the text or copying the output
        once more takes it to 0.9 and above."""
        spec = importlib.util.spec_from_file_location("bench_dotdump", DOTDUMP)
        dotdump = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(dotdump)
        dirty = tmp_path / "dirty.dot"
        dirty.write_text(dotdump.make_dump(1, 1200, 4)[0])
        peaks = {}

        def step(name, function):
            def measured(*args):
                tracemalloc.reset_peak()
                try:
                    return function(*args)
                finally:
                    peaks[name] = tracemalloc.get_traced_memory()[1]
            return measured
        monkeypatch.setattr("statecover.ssg.parse_dot", step("parse", ssg.parse_dot))
        monkeypatch.setattr("statecover.ssg.emit_dot", step("emit", ssg.emit_dot))
        tracemalloc.start()
        try:
            assert run(capsys, "clean", str(dirty), str(tmp_path / "out.dot"))[0] == 0
        finally:
            tracemalloc.stop()
        assert peaks["emit"] < 0.75 * peaks["parse"]

    def test_explore_peaks_in_the_search_not_in_writing_the_dot(self, tmp_path, capsys):
        """The tracemalloc peak of the explore command on the 1,657-state
        p3t2e3 model is that of lifecycle.explore: the DOT is written a line
        at a time, while a built DOT text and its statements would double it.
        One search runs first, untraced, so that neither peak holds what the
        interpreter allocates on a function's first calls."""
        doc = tournaments_model_doc(("p1", "p2", "p3"), ("t1", "t2"), ("e1", "e2", "e3"), (1, 2))
        model_path = tmp_path / "m.yaml"
        model_path.write_text(speckit.dump_yaml(doc), encoding="utf-8")
        model = lifecycle.load_model(doc)
        lifecycle.explore(model)

        def peak(function):
            tracemalloc.start()
            try:
                function()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        search = peak(lambda: lifecycle.explore(model))
        command = peak(lambda: run(capsys, "explore", str(model_path), str(tmp_path / "g.dot")))
        assert command <= 1.1 * search, (command, search)


def fixture_suite(workdir, capsys):
    """The fixture model's suite at seed 11 with up to two PUTs: 36 calls."""
    dot, seqs = workdir / "graph.dot", workdir / "suite.json"
    code, _, _ = run(capsys, "explore", str(workdir / "tournaments-model.yaml"), str(dot))
    assert code == 0
    code, _, _ = run(capsys, "sequences", str(dot), str(seqs),
                     "--spec", str(workdir / "tournaments-contracts.yaml"),
                     "--seed", "11", "--puts-max", "2")
    assert code == 0
    return seqs


def campaign_report(capsys, report_path, *argv):
    """The exit code of a spawned-demo campaign and its report."""
    code, _, _ = run(capsys, "test", *argv, "--spawn-demo", "--report", str(report_path))
    return code, json.loads(report_path.read_text())


CAMPAIGN_DOMAINS = (("p1",), ("t1",), ("e1",), (1, 2))


class TestSequenceFilesArePinned:
    """The suites that `sequences --spec` writes with the fixture contracts,
    byte for byte: the benchmark's campaign model (p1/t1/e1, capacities 1
    and 2) over seeds and --puts-max, and one p2t2e2 suite."""

    @pytest.mark.parametrize("domains, seed, puts, sha256", [
        *(pytest.param(CAMPAIGN_DOMAINS, seed, puts, sha256, id=f"p1t1e1-seed{seed}-puts{puts}")
          for seed, puts, sha256 in [
            (0, 0, "ada3257284a0f7160bc072126b36ea3ef391279740e2daba7195922ea6a45910"),
            (0, 2, "7c3bc3c93fa6f7f7ba5ab679aa54e781ea8bfec85062fceae6d5eae07a8a4de4"),
            (0, 3, "9269231e0e797a00b64d59c37fcb0f7907609883c4d55bb126d14e7e7d3bedcb"),
            (5, 0, "43e3d507c96b0f4252f12834356f768766265ce7146fb8fb345de8af914ce4a4"),
            (5, 2, "5284be249ce5d35329accc44b13d22e1d99258f5b6b9160639a46c05670c49b5"),
            (5, 3, "2b9143d29057decb6d99750370619d55a0da10b94004bfa2bd64233a09e96ad2"),
            (7, 0, "ab5d4ed044ef58bedad223439db7f9667f8009fb3b57960470fab7b2a8810958"),
            (7, 2, "63fab51f7b468e0a58ab92be2adeb709d6358080683b81750b438ceeb4dda1eb"),
            (7, 3, "16bf9e5f71fbfa1f7925fb0916381a6bdd1213c8a5d46158c3baea9d654cb27b"),
            (11, 0, "c6ba8312dc9701a366653c76e572550c3824331ef02331872316a28210e70b40"),
            (11, 2, "9017464d7218ad02cb8349092d34f3f87f0295f58210a91d6ab34b988bbf2d5f"),
            (11, 3, "22c227a87144a19aca4acfc49ac20e6da5bc42117efbc2a12fdaea5ab520855f"),
        ]),
        pytest.param((("p1", "p2"), ("t1", "t2"), ("e1", "e2"), (1, 2)), 7, 2,
                     "b207e585a9720106193ea6be884a83679a3f8b595b4d313a8dd4818cd7e211ec",
                     id="p2t2e2-seed7-puts2"),
    ])
    def test_sha256(self, workdir, capsys, domains, seed, puts, sha256):
        model, dot, seqs = workdir / "model.yaml", workdir / "graph.dot", workdir / "seqs.json"
        model.write_text(speckit.dump_yaml(tournaments_model_doc(*domains)), encoding="utf-8")
        assert run(capsys, "explore", str(model), str(dot))[0] == 0
        code, _, _ = run(capsys, "sequences", str(dot), str(seqs),
                         "--spec", str(workdir / "tournaments-contracts.yaml"),
                         "--puts-max", str(puts), "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(seqs.read_bytes()).hexdigest() == sha256


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

    def test_a_clause_past_the_budget_cannot_be_evaluated(self, workdir, capsys):
        code, report = campaign_report(
            capsys, workdir / "report.json", "--spec", str(workdir / "tournaments-contracts.yaml"),
            "--sequences", str(fixture_suite(workdir, capsys)), "--budget", "1")
        assert code == 1
        assert report["summary"] == {"ok": 19, "warn": 0, "err": 17, "notTested": 0, "calls": 36}
        for outcome in report["outcomes"]:
            if outcome["classification"] == "ERR":
                assert outcome["inv"] is None
                assert outcome["reason"].endswith(
                    "cannot evaluate: evaluation exceeded its budget of 1 requests")

    def test_a_clause_that_is_not_a_boolean_cannot_be_evaluated(self, workdir, capsys):
        doc = yaml.safe_load((workdir / "tournaments-contracts.yaml").read_text())
        doc["paths"]["/players"]["post"]["x-requires"].append("res_code(GET /players)")
        spec = workdir / "status-clause.yaml"
        spec.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        code, report = campaign_report(capsys, workdir / "report.json", "--spec", str(spec),
                                       "--sequences", str(fixture_suite(workdir, capsys)))
        assert code == 1
        errs = [o for o in report["outcomes"] if o["classification"] == "ERR"]
        assert len(errs) == report["summary"]["err"] == 5
        for outcome in errs:
            assert outcome["operationId"] == "postPlayer" and outcome["pre"] is None
            assert outcome["reason"] == ("res_code(GET /players): cannot evaluate: "
                                         "formula reduced to a non-boolean: 200")

    def test_infer_judges_as_the_generated_contracts_do(self, workdir, capsys):
        oas, inferred = str(workdir / "tournaments-oas.yaml"), str(workdir / "inferred.yaml")
        argv = ("--sequences", str(fixture_suite(workdir, capsys)),
                "--demo-fault", "delete_player_noop")
        code, _ = campaign_report(capsys, workdir / "plain.json", "--spec", oas, *argv)
        assert code == 0  # the bare description has no contracts to break
        code, by_flag = campaign_report(capsys, workdir / "infer.json",
                                        "--spec", oas, "--infer", *argv)
        assert code == 1 and by_flag["summary"]["err"] == 5
        assert run(capsys, "gen-contracts", oas, inferred)[0] == 0
        code, by_file = campaign_report(capsys, workdir / "gen.json", "--spec", inferred, *argv)
        assert code == 1
        for report in (by_flag, by_file):
            del report["duration"], report["baseUrl"]
        assert by_flag == by_file


class TestJsonLogs:
    def test_events_are_json_lines(self, workdir, capsys):
        dot = workdir / "graph.dot"
        code, _, err = run(capsys, "--json-logs", "explore",
                           str(workdir / "tournaments-model.yaml"), str(dot))
        assert code == 0
        events = [json.loads(line) for line in err.splitlines() if line]
        (explored,) = [e for e in events if e["event"] == "explored"]
        duration = explored.pop("duration_s")
        assert explored == {"event": "explored", "states": 6, "transitions": 10,
                            "finals": 1}
        assert isinstance(duration, float) and duration >= 0

    def test_gen_contracts_logs_diagnostics_and_skipped_operations(self, tmp_path, capsys):
        ok = {"200": {"description": "ok"}}
        doc = {
            "openapi": "3.0.3",
            "info": {"title": "t", "version": "1"},
            "paths": {"/jobs": {"post": {"operationId": "startJob", "responses": ok}}},
        }
        oas = tmp_path / "oas.yaml"
        oas.write_text(yaml.safe_dump(doc))
        code, _, err = run(capsys, "--json-logs", "gen-contracts", str(oas),
                           str(tmp_path / "out.yaml"))
        assert code == 0
        events = [json.loads(line) for line in err.splitlines()]
        assert [e for e in events if e["event"] in ("diagnostic", "skipped")] == [
            {"event": "diagnostic", "code": "no-request-body", "where": "POST /jobs",
             "message": "POST without a request body"},
            {"event": "skipped", "op": "startJob",
             "reason": "POST path /jobs has no /{key} item sibling"},
        ]

    def test_clean_event_reports_input_size_and_stage_times(self, tmp_path, capsys):
        body = '0 [label="final = FALSE"];\n1 [label="final = TRUE"];\n0 -> 1 [label="go(x)"];\n'
        dot = tmp_path / "graph.dot"
        dot.write_text("digraph G {\n" + body + body + "}\n")
        size = dot.stat().st_size
        # cleaned in place: the size reported is the input's
        code, _, err = run(capsys, "--json-logs", "clean", str(dot), str(dot))
        assert code == 0
        assert dot.stat().st_size < size
        (event,) = [json.loads(line) for line in err.splitlines() if line]
        times = {k: event.pop(k) for k in ("parse_s", "emit_s", "duration_s")}
        assert event == {"event": "cleaned", "nodes": 2, "edges": 1, "dedup_ratio": 0.5,
                         "bytes": size}
        assert all(isinstance(t, float) and t >= 0 for t in times.values())
        # the command's wall time holds both stages; each figure is rounded
        assert times["duration_s"] >= times["parse_s"] + times["emit_s"] - 2e-6

    def test_every_stage_closes_with_its_duration(self, tmp_path, capsys):
        def closing_event(*argv):
            code, _, err = run(capsys, "--json-logs", *argv)
            assert code == 0, argv
            event = json.loads(err.splitlines()[-1])
            duration = event.pop("duration_s")
            assert isinstance(duration, float) and duration >= 0, argv
            return event

        assert closing_event("fixtures", str(tmp_path)) == {
            "event": "fixtures", "files": 4}
        contracts = tmp_path / "contracts.yaml"
        assert closing_event("gen-contracts", str(tmp_path / "tournaments-oas.yaml"),
                             str(contracts)) == {
            "event": "contracts", "operations": 8, "clauses": 22, "skipped": 0}
        dot = tmp_path / "graph.dot"
        assert closing_event("explore", str(tmp_path / "tournaments-model.yaml"),
                             str(dot))["event"] == "explored"
        assert closing_event("sequences", str(dot), str(tmp_path / "seqs.json"),
                             "--spec", str(contracts)) == {
            "event": "sequences", "count": 6, "state_coverage": 100.0,
            "transition_coverage": 100.0}


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
                                 "requests", "request_s", "duration"}
        report = json.loads((workdir / "report.json").read_text())
        assert "probes" not in json.dumps(report)
        assert campaign["calls"] == campaign["sends"] == report["summary"]["calls"]
        assert campaign["duration"] == report["duration"]
        gets = [r for r in seen if r.startswith("GET ")]
        # every GET but the up-front service probe comes from a clause
        assert campaign["probes"] == len(gets) - 1 > 0
        assert campaign["sends"] + campaign["cleanups"] == len(seen) - len(gets)
        assert campaign["requests"] == len(seen)
        assert 0 < campaign["request_s"] <= campaign["duration"] + 0.001


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

    def test_base_url_and_spawn_demo_together(self, workdir, capsys, monkeypatch):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        started = []
        monkeypatch.setattr("statecover.demo.DemoServer",
                            lambda **kwargs: started.append(kwargs))
        code, _, err = run(capsys, "test",
                           "--spec", str(workdir / "tournaments-contracts.yaml"),
                           "--sequences", str(seqs), "--spawn-demo",
                           "--base-url", "http://127.0.0.1:9")
        assert (code, started) == (2, [])
        assert "error: --base-url and --spawn-demo exclude each other" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one(self, workdir, capsys, monkeypatch, budget):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        started = []
        monkeypatch.setattr("statecover.demo.DemoServer",
                            lambda **kwargs: started.append(kwargs))
        code, out, err = run(capsys, "test",
                             "--spec", str(workdir / "tournaments-contracts.yaml"),
                             "--sequences", str(seqs), "--spawn-demo", "--budget", budget)
        assert (code, out, started) == (2, "", [])
        assert f"error: --budget must be at least 1, got {budget}" in err

    @pytest.mark.parametrize("timeout", ["inf", "0", "-1", "nan", "1e300"])
    def test_timeout_not_a_usable_number(self, tmp_path, capsys, monkeypatch, timeout):
        started = []
        monkeypatch.setattr("statecover.demo.DemoServer",
                            lambda **kwargs: started.append(kwargs))
        # neither file exists: the option is refused before either is read
        code, out, err = run(capsys, "test", "--spec", str(tmp_path / "spec.yaml"),
                             "--sequences", str(tmp_path / "seqs.json"), "--spawn-demo",
                             "--timeout", timeout)
        assert (code, out, started) == (2, "", [])
        assert (f"error: --timeout must be a number of seconds above 0 and at most "
                f"1,000,000,000, got {float(timeout)}") in err

    @pytest.mark.parametrize("max_states", ["0", "-1"])
    def test_max_states_below_one(self, tmp_path, capsys, max_states):
        out_dot = tmp_path / "out.dot"
        code, out, err = run(capsys, "explore", str(tmp_path / "model.yaml"),
                             str(out_dot), "--max-states", max_states)
        assert (code, out, out_dot.exists()) == (2, "", False)
        assert f"error: --max-states must be at least 1, got {max_states}" in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["test", "--spec", "spec.yaml", "--sequences", "seqs.json",
                      "--spawn-demo", "--demo-fault", "no_such_fault"], id="test"),
        pytest.param(["demo-server", "--port", "0", "--fault", "no_such_fault"],
                     id="demo-server"),
    ])
    def test_unknown_fault_name(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # where neither file exists
        started = []
        monkeypatch.setattr("statecover.demo.DemoServer",
                            lambda **kwargs: started.append(kwargs))
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        err = capsys.readouterr().err
        assert (exit_.value.code, started) == (2, [])
        assert "invalid choice: 'no_such_fault'" in err
        assert all(repr(name) in err for name in FAULTS)

    @pytest.mark.parametrize("port, message", [
        ("70000", "must be 0 to 65535, got 70000"),
        ("-1", "must be 0 to 65535, got -1"),
        ("http", "not a port number: 'http'"),
    ])
    def test_port_not_usable(self, capsys, monkeypatch, port, message):
        started = []
        monkeypatch.setattr("statecover.demo.DemoServer",
                            lambda **kwargs: started.append(kwargs))
        with pytest.raises(SystemExit) as exit_:
            main(["demo-server", "--port", port])
        err = capsys.readouterr().err
        assert (exit_.value.code, started) == (2, [])
        assert "usage: statecover demo-server" in err
        assert f"argument --port: {message}" in err

    def test_port_in_use(self, capsys, monkeypatch):
        # were the port bound after all, the server would stop at once
        monkeypatch.setattr("statecover.cli.time.sleep", _interrupt)
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            code, out, err = run(capsys, "demo-server", "--port", str(port))
        assert (code, out) == (2, "")
        assert f"error: cannot listen on 127.0.0.1:{port}: [Errno {errno.EADDRINUSE}] " in err
        assert "Traceback" not in err

    def test_demo_server_serves_until_interrupted(self, tmp_path):
        # a child of a background job inherits an ignored SIGINT; the
        # interpreter's own handler is set again so that the signal interrupts
        code = ("import signal, sys\n"
                "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                "from statecover.cli import main\n"
                "sys.exit(main(['demo-server', '--port', '0']))\n")
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                              env=child_env()) as server:
            try:
                url = server.stdout.readline().strip()
                answer = requests.get(url + "/", timeout=5)
                server.send_signal(signal.SIGINT)
                out, err = server.communicate(timeout=30)
            finally:
                server.kill()
        assert url.startswith("http://127.0.0.1:")
        assert (answer.status_code, answer.json()) == (200, {"service": "tournaments"})
        assert (server.returncode, out) == (0, ""), err

    def test_an_interrupt_while_the_server_starts_stops_it(self, monkeypatch):
        urls = []

        def event(log, name, **fields):
            if name == "demo":
                urls.append(fields["url"])
                raise KeyboardInterrupt

        monkeypatch.setattr("statecover.cli.Log.event", event)
        try:
            code = main(["demo-server", "--port", "0"])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert code == 0
        port = int(urls[0].rsplit(":", 1)[1])
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5)

    def test_clean_into_a_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("g.dot").write_text('digraph G {\n0 -> 1;\n1 [label="final = TRUE"];\n}\n')
        Path("d").mkdir()
        code, out, err = run(capsys, "clean", "g.dot", "d")
        assert (code, out) == (2, "")
        assert err == f"error: cannot write d: [Errno {errno.EISDIR}] Is a directory: 'd'\n"

    def test_fixtures_under_a_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("f").write_text("")
        code, out, err = run(capsys, "fixtures", "f/sub")
        assert (code, out) == (2, "")
        assert err == (f"error: cannot create f/sub: [Errno {errno.ENOTDIR}] "
                       "Not a directory: 'f/sub'\n")

    def test_demo_fault_without_spawn_demo(self, workdir, capsys):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        with DemoServer() as server:
            code, _, err = run(capsys, "test",
                               "--spec", str(workdir / "tournaments-contracts.yaml"),
                               "--sequences", str(seqs), "--base-url", server.base_url,
                               "--demo-fault", "delete_player_noop")
            seen = requests.get(server.base_url + "/_requests", timeout=5).json()
        assert (code, seen) == (2, [])
        assert "error: --demo-fault needs --spawn-demo" in err

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

    @pytest.mark.parametrize("components, message", [
        ("[1, 2]", "components: expected a mapping, got list"),
        ("{schemas: [a, b]}", "components.schemas: expected a mapping, got list"),
    ])
    def test_components_of_the_wrong_shape_fail_at_load(self, tmp_path, capsys,
                                                        components, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"openapi: 3.0.3\npaths: {{}}\ncomponents: {components}\n")
        code, _, err = run(capsys, "gen-contracts", str(bad), str(tmp_path / "out.yaml"))
        assert (code, err) == (2, f"error: {bad}: {message}\n")

    @pytest.mark.parametrize("components", ["", "{schemas: null}"])
    def test_empty_components_read_as_none(self, tmp_path, capsys, components):
        bad = tmp_path / "empty.yaml"
        bad.write_text(f"openapi: 3.0.3\npaths: {{}}\ncomponents: {components}\n")
        code, out, _ = run(capsys, "gen-contracts", str(bad), str(tmp_path / "out.yaml"))
        assert (code, out) == (0, f"{tmp_path / 'out.yaml'}: contracts for 0 operations "
                                  "(0 clauses)\n")

    @pytest.mark.parametrize("schema, field, edit, message", [
        pytest.param("Player", "name", {"minLength": "3"}, "POST /players: request body: "
                     "properties.name.minLength: expected a non-negative integer, got '3'",
                     id="minLength"),
        pytest.param("Tournament", "capacity", {"maximum": "3"},
                     "POST /tournaments: request body: "
                     "properties.capacity.maximum: expected a finite number, got '3'", id="maximum"),
        pytest.param("Player", "tags",
                     {"type": "array", "items": {"type": "string"}, "maxItems": 1.5},
                     "POST /players: request body: "
                     "properties.tags.maxItems: expected a non-negative integer, got 1.5",
                     id="maxItems"),
    ])
    def test_a_mistyped_schema_keyword_fails_at_load(self, workdir, capsys, schema, field,
                                                     edit, message):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        doc = yaml.safe_load((workdir / "tournaments-contracts.yaml").read_text())
        doc["components"]["schemas"][schema]["properties"].setdefault(field, {}).update(edit)
        bad = workdir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        for argv in (("gen-contracts", str(bad), str(workdir / "out.yaml")),
                     ("test", "--spec", str(bad), "--sequences", str(seqs),
                      "--spawn-demo")):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (2, f"error: {bad}: {message}\n"), argv

    @pytest.mark.parametrize("clause, message", [
        ("res_code(GET /players/req_body(@){pid}) = = 404", "at offset 42: "),
        pytest.param("for t in res_body(GET /tournaments) :- "
                     "res_code(GET /players/{t.a.b}) = 200",
                     "at offset 61: malformed {placeholder} in URL", id="two-field-binder"),
        pytest.param("res_code(GET /players/req_body(@){pid}) = " + "9" * 400 + ".0",
                     "at offset 42: number out of range", id="float-overflow"),
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
        assert f"error: {bad}: {where}{message}" in err

    @pytest.mark.parametrize("kind, clause, message", MISUSED_CLAUSES)
    def test_misused_clause_fails_at_load(self, workdir, capsys, monkeypatch,
                                          kind, clause, message):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        doc = yaml.safe_load((workdir / "tournaments-contracts.yaml").read_text())
        where = add_clause(doc, kind, clause)
        bad = workdir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        started = []
        monkeypatch.setattr("statecover.demo.DemoServer",
                            lambda **kwargs: started.append(kwargs))
        code, _, err = run(capsys, "test", "--spec", str(bad),
                           "--sequences", str(seqs), "--spawn-demo")
        assert (code, started) == (2, [])  # no service started, no request sent
        assert f"error: {bad}: {where}{message}" in err

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
        pytest.param({"seed": True, "sequences": []},
                     "seed: expected an integer, got True", id="seed-bool"),
        pytest.param({"seed": 1.5, "sequences": []},
                     "seed: expected an integer, got 1.5", id="seed-float"),
        pytest.param({"seed": "7", "sequences": []},
                     "seed: expected an integer, got '7'", id="seed-string"),
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
        pytest.param(lambda doc: doc["resources"][0].update(name=["players"]),
                     "resources[0]: name: expected a string, got ['players']",
                     id="resource-name-list"),
        pytest.param(lambda doc: doc["resources"][0].update(ids=["p1", "p1"]),
                     "resource players: ids: 'p1' is listed twice", id="ids-repeat"),
        pytest.param(lambda doc: doc["actions"][0].update(
                         guard="pid not in players and pid not in tournaments"),
                     "action postPlayer: pid has kind id players, not id tournaments",
                     id="element-of-another-resource"),
        pytest.param(lambda doc: doc["actions"][2].update(
                         effect=["put tournaments[tid] = {ps: {}, c: 5}"]),
                     "action postTournament: tournaments.c = 5 is not one of the capacities [1]",
                     id="undeclared-capacity"),
    ])
    def test_malformed_model(self, tmp_path, capsys, change, where):
        doc = tournaments_model_doc(players=("p1",), tournaments=(), enrolments=())
        change(doc)
        path = tmp_path / "bad-model.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        code, _, err = run(capsys, "explore", str(path), str(tmp_path / "out.dot"))
        assert code == 2
        assert f"error: {path}: {where}" in err

    def test_a_digit_outside_ascii_is_refused_at_load(self, workdir, capsys):
        # U+0661, ARABIC-INDIC DIGIT ONE, which int() reads as 1
        text = (workdir / "tournaments-model.yaml").read_text(encoding="utf-8")
        assert text.count("c: any capacity}") == 1
        bad = workdir / "bad-model.yaml"
        bad.write_text(text.replace("c: any capacity}", "c: \u0661}"), encoding="utf-8")
        code, _, err = run(capsys, "explore", str(bad), str(workdir / "out.dot"))
        assert code == 2
        assert f"error: {bad}: action postTournament: cannot tokenize at '\u0661}}'" in err
        assert not (workdir / "out.dot").exists()

    # a DOT graph name is an identifier; anything else would be written into
    # a graph that sequences cannot read back
    @pytest.mark.parametrize("name", ["my-model", "tour naments", 2024, "", None])
    def test_model_name_dot_cannot_carry(self, tmp_path, capsys, name):
        doc = tournaments_model_doc(players=("p1",), tournaments=(), enrolments=())
        doc["name"] = name
        path = tmp_path / "model.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        code, _, err = run(capsys, "explore", str(path), str(tmp_path / "out.dot"))
        assert code == 2
        assert (f"error: {path}: name: expected a DOT graph name "
                f"([A-Za-z_][A-Za-z0-9_]*), got {name!r}") in err
        assert not (tmp_path / "out.dot").exists()

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
        assert f"error: {bad}: {where}" in err

    # a YAML document that is a string is not read as the path of a file
    @pytest.mark.parametrize("argv, message", [
        pytest.param(("explore", "{bad}", "{out}"),
                     "{bad}: model needs 'resources' and 'actions'", id="explore"),
        pytest.param(("gen-contracts", "{bad}", "{out}"),
                     "{bad}: document has no 'paths' object", id="gen-contracts"),
    ])
    def test_a_document_that_is_a_string(self, workdir, capsys, argv, message):
        bad = workdir / "bad.yaml"
        bad.write_text("tournaments-model.yaml\n")
        names = {"bad": bad, "out": workdir / "out"}
        code, _, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert (code, err) == (2, f"error: {message.format(**names)}\n")
        assert not (workdir / "out").exists()

    # every command that loads an API description refuses a clause entry
    # whose text is not a string, naming its place
    @pytest.mark.parametrize("text", [5, None])
    @pytest.mark.parametrize("argv", [
        pytest.param(("gen-contracts", "{bad}", "{out}"), id="gen-contracts"),
        pytest.param(("sequences", "{dot}", "{out}", "--spec", "{bad}"), id="sequences-spec"),
        pytest.param(("test", "--spec", "{bad}", "--sequences", "{seqs}", "--spawn-demo"),
                     id="test-spec"),
    ])
    def test_a_clause_text_that_is_not_a_string(self, workdir, capsys, argv, text):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        doc = yaml.safe_load((workdir / "tournaments-oas.yaml").read_text())
        doc["paths"]["/players"]["post"]["x-requires"] = [{"clause": text}]
        bad = workdir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        names = {"bad": bad, "out": workdir / "out", "dot": workdir / "graph.dot",
                 "seqs": seqs}
        code, _, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert code == 2
        assert err.endswith(f"error: {bad}: POST /players: x-requires[0]: malformed contract "
                            f"clause entry: {{'clause': {text!r}}}\n")
        assert not (workdir / "out").exists()

    # test reads an API description and a sequence file: its error says which
    @pytest.mark.parametrize("argv", [
        pytest.param(("gen-contracts", "{bad}", "{out}"), id="gen-contracts"),
        pytest.param(("test", "--spec", "{bad}", "--sequences", "{seqs}", "--spawn-demo"),
                     id="test-spec"),
    ])
    def test_a_spec_load_error_names_the_spec_file(self, workdir, capsys, argv):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        doc = yaml.safe_load((workdir / "tournaments-oas.yaml").read_text())
        doc["paths"]["/players"]["post"]["x-requires"] = ["res_code(POST /players) = 201"]
        bad = workdir / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        names = {"bad": bad, "out": workdir / "out", "seqs": seqs}
        code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert (code, out, err) == (2, "", f"error: {bad}: POST /players: x-requires[0]: "
                                           "probe res_code(POST /players) is not a GET\n")
        assert not (workdir / "out").exists()

    # the file named {bad} is not UTF-8; the others are valid inputs
    @pytest.mark.parametrize("argv", [
        pytest.param(("explore", "{bad}", "{out}"), id="explore"),
        pytest.param(("clean", "{bad}", "{out}"), id="clean"),
        pytest.param(("sequences", "{bad}", "{out}"), id="sequences"),
        pytest.param(("sequences", "{dot}", "{out}", "--spec", "{bad}"), id="sequences-spec"),
        pytest.param(("gen-contracts", "{bad}", "{out}"), id="gen-contracts"),
        pytest.param(("test", "--spec", "{bad}", "--sequences", "{seqs}", "--spawn-demo"),
                     id="test-spec"),
        pytest.param(("test", "--spec", "{contracts}", "--sequences", "{bad}", "--spawn-demo"),
                     id="test-sequences"),
    ])
    def test_a_file_that_is_not_utf8_is_named_with_the_line(self, workdir, capsys, argv):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        bad = workdir / "latin.txt"
        # past the first read buffer, and lines ended by \n, \r\n and \r
        bad.write_bytes(b"x\n" * 40000 + b"y\r\nz\rcaf\xe9\n")
        names = {"bad": bad, "out": workdir / "out", "dot": workdir / "graph.dot",
                 "seqs": seqs, "contracts": workdir / "tournaments-contracts.yaml"}
        code, _, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert code == 2
        assert err == (f"error: {bad}: line 40003: not UTF-8: byte 0xe9 "
                       "(invalid continuation byte)\n")
        assert not (workdir / "out").exists()

    # {src} with a UTF-8 byte-order mark before it reads as {src} does
    @pytest.mark.parametrize("argv, src", [
        pytest.param(("clean", "{src}", "{out}"), "graph.dot", id="clean"),
        pytest.param(("explore", "{src}", "{out}"), "tiny-model.yaml", id="explore"),
        pytest.param(("sequences", "{src}", "{out}"), "graph.dot", id="sequences"),
        pytest.param(("test", "--spec", "{contracts}", "--sequences", "{src}", "--spawn-demo",
                      "--report", "{out}"), "seqs.json", id="test-sequences"),
    ])
    def test_a_leading_byte_order_mark_is_not_content(self, workdir, capsys, argv, src):
        prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        plain = workdir / src
        bom = workdir / f"bom-{src}"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for source in (plain, bom):
            names = {"src": source, "out": workdir / f"out-{source.name}",
                     "contracts": workdir / "tournaments-contracts.yaml"}
            code, _, err = run(capsys, *(arg.format(**names) for arg in argv))
            assert code == 0, err
            outputs.append(json.loads(names["out"].read_text())["summary"]
                           if argv[0] == "test" else names["out"].read_bytes())
        assert outputs[0] == outputs[1]

    def test_a_byte_order_mark_keeps_the_not_utf8_line(self, tmp_path, capsys):
        bad = tmp_path / "graph.dot"
        bad.write_bytes(b"\xef\xbb\xbfdigraph {\n0 [label=\"caf\xe9\"];\n}\n")
        code, _, err = run(capsys, "clean", str(bad), str(tmp_path / "out.dot"))
        assert code == 2
        assert err == (f"error: {bad}: line 2: not UTF-8: byte 0xe9 "
                       "(invalid continuation byte)\n")

    def test_puts_max_out_of_range(self, workdir, capsys):
        dot = workdir / "graph.dot"
        run(capsys, "explore", str(workdir / "tournaments-model.yaml"), str(dot))
        for spec in (("--spec", str(workdir / "tournaments-contracts.yaml")), ()):
            code, _, err = run(capsys, "sequences", str(dot),
                               str(workdir / "out.json"), "--puts-max", "99", *spec)
            assert code == 2, spec
            assert "error: --puts-max must be in 0..3, got 99" in err

    @pytest.mark.parametrize("puts_max", ["-1", "4"])
    def test_puts_max_is_checked_before_the_dot_is_read(self, tmp_path, capsys, puts_max):
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, "sequences", str(tmp_path / "absent.dot"), str(out),
                                "--puts-max", puts_max)
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err == f"error: --puts-max must be in 0..3, got {puts_max}\n"

    def test_puts_max_help_names_the_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["sequences", "--help"])
        assert ("--puts-max PUTS_MAX insert up to this many updates per created "
                "resource (max 3)") in " ".join(capsys.readouterr().out.split())

    def test_clean_of_a_malformed_dot(self, tmp_path, capsys):
        dot = tmp_path / "bad.dot"
        dot.write_text("digraph {\n  0 -> ;\n}\n")
        code, _, err = run(capsys, "clean", str(dot), str(tmp_path / "out.dot"))
        assert code == 2
        assert f"error: {dot}: line 2: expected destination id after '->'" in err

    def test_explore_of_a_model_whose_exploration_fails(self, workdir, capsys):
        doc = yaml.safe_load((workdir / "tournaments-model.yaml").read_text(encoding="utf-8"))
        (delete_player,) = [a for a in doc["actions"] if a["name"] == "deletePlayer"]
        del delete_player["guard"]
        path = workdir / "unguarded.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False, width=10000))
        code, _, err = run(capsys, "explore", str(path), str(workdir / "out.dot"))
        assert code == 2
        assert f"error: {path}: action deletePlayer: del of absent players[p1]" in err
        assert not (workdir / "out.dot").exists()

    def test_a_file_that_is_not_yaml(self, tmp_path, capsys):
        path = tmp_path / "model.yaml"
        path.write_text("name: [unclosed\n")
        code, _, err = run(capsys, "explore", str(path), str(tmp_path / "out.dot"))
        assert code == 2
        assert f"error: {path} is not valid YAML: " in err

    # an input nested deeper than its reader's stack is refused, naming the
    # file, where a RecursionError would end in a traceback and exit 1
    @pytest.mark.parametrize("reader", ["sequences", "guard", "clause"])
    def test_an_input_nested_too_deeply(self, workdir, capsys, monkeypatch, reader):
        started = []
        monkeypatch.setattr("statecover.demo.DemoServer",
                            lambda **kwargs: started.append(kwargs))
        out = workdir / "out"
        if reader == "sequences":
            deep = workdir / "deep.json"
            deep.write_text('{"sequences": ' + "[" * 20_000 + "]" * 20_000 + "}")
            argv = ("test", "--spec", str(workdir / "tournaments-contracts.yaml"),
                    "--sequences", str(deep), "--spawn-demo")
            message = f"{deep} is not a sequence file: top level"
        elif reader == "guard":
            model = workdir / "tournaments-model.yaml"
            deep = workdir / "deep.yaml"
            deep.write_text(model.read_text().replace(
                "size(players[pid].ts)",
                "size(" + "players[" * 3000 + "pid" + "].ts" * 3000 + ")"))
            argv = ("explore", str(deep), str(out))
            message = f"{deep}: action deletePlayer"
        else:
            doc = yaml.safe_load((workdir / "tournaments-oas.yaml").read_text())
            doc["x-invariants"] = ["".join(f"for a{i} in res_body(GET /players) :- "
                                           for i in range(3000))
                                   + "res_code(GET /players) = 200"]
            deep = workdir / "deep.yaml"
            deep.write_text(yaml.safe_dump(doc, width=10000))
            argv = ("gen-contracts", str(deep), str(out))
            message = f"{deep}: x-invariants[0]"
        code, _, err = run(capsys, *argv)
        assert (code, err, started) == (2, f"error: {message}: nested too deeply to read\n", [])
        assert not out.exists()

    def test_yaml_nested_too_deeply_for_the_python_parser(self, tmp_path, capsys,
                                                          monkeypatch):
        # pyyaml's own parser recurses where libyaml's does not
        monkeypatch.setattr(speckit, "_YAML_LOADER", yaml.SafeLoader)
        deep = tmp_path / "deep.yaml"
        deep.write_text("a: " + "[" * 3000 + "]" * 3000 + "\n")
        code, _, err = run(capsys, "explore", str(deep), str(tmp_path / "out.dot"))
        assert (code, err) == (2, f"error: {deep}: nested too deeply to read\n")

    # libyaml's parser would crash the process on these, so they are read in a
    # child, where a crash fails the test without ending the test run
    @pytest.mark.parametrize("command, style", [
        ("explore", "flow"), ("explore", "block"), ("gen-contracts", "flow")])
    def test_yaml_nested_deeper_than_libyaml_survives(self, tmp_path, command, style):
        deep = tmp_path / "deep.yaml"
        deep.write_text({"flow": "a: " + "[" * 30_000 + "]" * 30_000 + "\n",
                         "block": "- " * 30_000 + "1\n"}[style])
        result = subprocess.run(
            [sys.executable, "-m", "statecover.cli", command, str(deep), str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {deep}: nested too deeply to read\n"

    def test_a_send_that_raises_ends_the_campaign(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(executor, "Connection", failing_on("POST"))
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        code, out, err = run(capsys, "test", "--spec", str(workdir / "tournaments-contracts.yaml"),
                             "--sequences", str(seqs), "--spawn-demo")
        assert (code, out) == (2, "")
        assert "error: POST /players: reset by peer" in err

    def test_unreadable_edge_label(self, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        dot.write_text('digraph { 0 -> 1 [label="post player"]; 1 [label="final = TRUE"]; }')
        code, _, err = run(capsys, "sequences", str(dot), str(tmp_path / "out.json"))
        assert code == 2
        assert f"error: {dot}: edge 0 -> 1: cannot read label 'post player'" in err

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


def child_env() -> dict:
    """The environment of a child interpreter that imports statecover from
    this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


# Only a campaign or a demo talks HTTP; certifi is left out because an
# interpreter's site may import it.
HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "http.server",
              "socketserver")

# What no module of the package imports: dataclasses (which loads inspect),
# and the socket, TLS and HTTP client stacks with the email parser that
# http.client brings. A campaign loads socket and select when it connects.
STARTUP_FREE = ("dataclasses", "inspect", "http.client", "ssl", "socket", "email")

# statecover's modules that the command line loads only for the commands
# that use them, and the YAML library that speckit brings
LOADED_PER_COMMAND = ("statecover.demo", "statecover.lifecycle", "statecover.speckit",
                      "statecover.ssg", "yaml")

_LOADED_AFTER_EACH_COMMAND = """
import json, sys
watched = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in watched if m in sys.modules)
import statecover.cli
seen = [[None, loaded()]]
for argv in json.loads(sys.argv[2]):
    seen.append([statecover.cli.main(argv), loaded()])
print(json.dumps(seen))
"""

# What importing the command line adds to a fresh interpreter
_ADDED_BY_THE_IMPORT = """
import json, sys
before = set(sys.modules)
import statecover.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# statecover's submodules loaded once the command line has run one command
_LOADED_BY_ONE_COMMAND = """
import json, sys
import statecover.cli
code = statecover.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("statecover."))]))
"""

# A process that holds the command line and the demo (a benchmark, a pytest
# run, test --spawn-demo) has loaded all of statecover but seqgen and the
# campaign path, which its first sequences and test commands load.
_ADDED_BY_A_CAMPAIGN = """
import json, sys
import statecover.cli, statecover.demo
where = sys.argv[1]
contracts = where + "/tournaments-contracts.yaml"
with statecover.demo.DemoServer() as server:
    before = set(sys.modules)
    codes = [statecover.cli.main(argv) for argv in (
        ["fixtures", where],
        ["explore", where + "/tournaments-model.yaml", where + "/graph.dot"],
        ["sequences", where + "/graph.dot", where + "/seqs.json", "--spec", contracts,
         "--puts-max", "2"],
        ["test", "--spec", contracts, "--sequences", where + "/seqs.json",
         "--base-url", server.base_url],
    )]
    added = sorted(set(sys.modules) - before)
print(json.dumps([codes, added]))
"""

# The whole pipeline, a spawned demo campaign included, in an interpreter
# where requests and urllib3 cannot be imported.
_WITHOUT_REQUESTS = """
import json, sys

class Unimportable:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("requests", "urllib3"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, Unimportable())
try:
    import requests
except ModuleNotFoundError:
    blocked = True
else:
    blocked = False
import statecover.cli
where = sys.argv[1]
contracts = where + "/tournaments-contracts.yaml"
codes = [statecover.cli.main(argv) for argv in (
    ["fixtures", where],
    ["explore", where + "/tournaments-model.yaml", where + "/graph.dot"],
    ["sequences", where + "/graph.dot", where + "/seqs.json", "--spec", contracts],
    ["test", "--spec", contracts, "--sequences", where + "/seqs.json", "--spawn-demo",
     "--report", where + "/report.json"],
)]
with open(where + "/report.json") as report:
    print(json.dumps([blocked, codes, json.load(report)["summary"]]))
"""


def run_child(script, *args, cwd):
    """The JSON value that a child interpreter running script prints last."""
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestStartup:
    """What a fresh interpreter loads. The HTTP client and server stacks load
    only when a campaign or a demo starts; statecover's own modules only when
    a command uses them."""

    @staticmethod
    def loaded_after(tmp_path, *commands, watched=HTTP_STACK):
        """[exit code, the watched modules loaded] after importing the
        command line (code None) and after each command, run in order."""
        return run_child(_LOADED_AFTER_EACH_COMMAND, json.dumps(watched),
                         json.dumps(commands), cwd=tmp_path)

    @staticmethod
    def offline_commands(tmp_path):
        dot, contracts = str(tmp_path / "graph.dot"), str(tmp_path / "contracts.yaml")
        return (
            ["fixtures", str(tmp_path)],
            ["gen-contracts", str(tmp_path / "tournaments-oas.yaml"), contracts],
            ["explore", str(tmp_path / "tournaments-model.yaml"), dot],
            ["clean", dot, dot],
            ["sequences", dot, str(tmp_path / "seqs.json"), "--spec", contracts],
        )

    def test_offline_commands_load_no_http_stack(self, tmp_path):
        seen = self.loaded_after(tmp_path, *self.offline_commands(tmp_path))
        assert seen == [[None, []]] + [[0, []]] * 5

    def test_the_command_line_loads_no_dataclasses_or_sockets(self, tmp_path):
        assert self.loaded_after(tmp_path, watched=STARTUP_FREE) == [[None, []]]

    def test_offline_commands_load_no_dataclasses_or_sockets(self, tmp_path):
        seen = self.loaded_after(tmp_path, *self.offline_commands(tmp_path),
                                 watched=STARTUP_FREE)
        assert seen == [[None, []]] + [[0, []]] * 5

    def test_a_spawned_demo_campaign_loads_both(self, workdir, capsys):
        seqs = prepare_sequences(workdir, capsys, write_tiny_model(workdir))
        assert len(json.loads(seqs.read_text())["sequences"]) == 1
        (_, at_import), (code, after) = self.loaded_after(
            workdir,
            ["test", "--spec", str(workdir / "tournaments-contracts.yaml"),
             "--sequences", str(seqs), "--spawn-demo"],
            watched=HTTP_STACK + ("netrc",),
        )
        assert (at_import, code) == ([], 0)
        assert "socketserver" in after
        assert not {"requests", "urllib3", "idna", "charset_normalizer", "netrc"} & set(after)

    def test_a_campaign_runs_without_requests_installed(self, tmp_path):
        blocked, codes, summary = run_child(_WITHOUT_REQUESTS, str(tmp_path), cwd=tmp_path)
        assert blocked and codes == [0, 0, 0, 0]
        assert summary["ok"] == summary["calls"] > 0

    def test_the_package_loads_no_submodule(self, tmp_path):
        loaded = run_child(
            "import json, sys, statecover\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('statecover'))))",
            cwd=tmp_path)
        assert loaded == ["statecover"]

    def test_the_model_checker_loads_the_graph_module_only(self, tmp_path):
        loaded = run_child(
            "import json, sys, statecover.lifecycle\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith(('statecover', 'yaml', '_yaml')))))",
            cwd=tmp_path)
        assert loaded == ["statecover", "statecover.lifecycle", "statecover.ssg"]

    def test_the_command_line_loads_no_other_module_of_the_package(self, tmp_path):
        # only what the import adds: an interpreter's site may load random
        added = run_child(_ADDED_BY_THE_IMPORT, cwd=tmp_path)
        assert [m for m in added if m.startswith("statecover")] == [
            "statecover", "statecover.cli"]
        assert not {"random", "string"} & set(added)

    @pytest.mark.parametrize("command, loaded", [
        ("clean", ["statecover.ssg"]),
        ("explore", ["statecover.glacier", "statecover.lifecycle", "statecover.speckit",
                     "statecover.ssg"]),
        ("gen-contracts", ["statecover.glacier", "statecover.speckit"]),
        ("sequences", ["statecover.glacier", "statecover.seqgen", "statecover.speckit",
                       "statecover.ssg"]),
        ("test", ["statecover.evaluator", "statecover.executor", "statecover.glacier",
                  "statecover.runtime", "statecover.seqgen", "statecover.speckit",
                  "statecover.transport"]),
    ])
    def test_each_command_loads_what_it_runs(self, workdir, capsys, command, loaded):
        model, contracts = (str(workdir / n) for n in
                            ("tournaments-model.yaml", "tournaments-contracts.yaml"))
        seqs = str(prepare_sequences(workdir, capsys, model))
        dot = str(workdir / "graph.dot")
        with DemoServer() as server:
            argv = {
                "clean": ["clean", dot, str(workdir / "clean.dot")],
                "explore": ["explore", model, str(workdir / "explored.dot")],
                "gen-contracts": ["gen-contracts", str(workdir / "tournaments-oas.yaml"),
                                  str(workdir / "contracts.yaml")],
                "sequences": ["sequences", dot, str(workdir / "again.json"),
                              "--spec", contracts],
                "test": ["test", "--spec", contracts, "--sequences", seqs,
                         "--base-url", server.base_url],
            }[command]
            seen = run_child(_LOADED_BY_ONE_COMMAND, json.dumps(argv), cwd=workdir)
        assert seen == [0, ["statecover.cli", *loaded]]

    def test_the_command_line_loads_no_hash_library(self, tmp_path):
        # derive_seed imports hashlib when a command first draws a seed
        assert self.loaded_after(tmp_path, watched=("hashlib", "_hashlib")) == [[None, []]]

    def test_clean_loads_the_graph_module_only(self, tmp_path):
        dot = tmp_path / "graph.dot"
        dot.write_text('digraph { 0 -> 1 [label="postPlayer(p1)"]; '
                       '0 -> 1 [label="postPlayer(p1)"]; 1 [label="final = TRUE"]; }')
        seen = self.loaded_after(tmp_path, ["clean", str(dot), str(dot)],
                                 watched=LOADED_PER_COMMAND)
        assert seen == [[None, []], [0, ["statecover.ssg"]]]

    def test_a_campaign_after_the_demo_loads_only_the_campaign_path(self, tmp_path):
        codes, added = run_child(_ADDED_BY_A_CAMPAIGN, str(tmp_path), cwd=tmp_path)
        assert codes == [0, 0, 0, 0]
        assert [m for m in added if m.split(".")[0] in ("statecover", "yaml")] == [
            "statecover.evaluator", "statecover.executor", "statecover.runtime",
            "statecover.seqgen"]


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
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, str(launcher), "fixtures", str(out)],
            capture_output=True, text=True, timeout=60,
            cwd=tmp_path, env=child_env(),
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
