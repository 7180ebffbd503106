"""Benchmark of statecover's commands on three workloads.

    python3 bench/run.py --workload ingest --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its `src`
directory and its commands are called in this process through
`statecover.cli.main`. Workloads:

    ingest    clean on a seeded model-checker DOT dump, every statement twice
    campaign  explore + sequences on a small model, then test --base-url
              against the demo service started in-process
    generate  explore + sequences on the 1657-state tournaments model (not
              in BENCHMARK.json)

A run makes a fixed number of whole rounds: --seconds divided by the
workload's nominal round time. Every round does the same work, so every run
of a workload does the same work however fast the machine is at the time.
The workload is set up afresh five times, before evenly spaced rounds, so
that set-up and rounds are both sampled across the whole run. Every round's
output is checked against the benchmark's own oracles (see checks.py). With
--trace 0 the last line of stdout holds the end-to-end metrics: setup_s
(the median set-up, including a fresh interpreter's import of the command
line), work_s (the mean round) and peak_rss_mb. With --trace 1 rounds go
untraced, traced, traced, untraced, ..., and the line holds the median
per-layer metrics of the traced rounds plus trace.overhead_s. See README.md for what each
metric is and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

try:
    import requests
    import yaml

    from statecover import cli, demo
except ImportError as exc:
    sys.exit(f"bench: cannot import statecover from {SRC}: {exc}")
if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"bench: statecover was imported from {cli.__file__}, not from {SRC}")

import checks  # noqa: E402
import dotdump  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

SETUPS = 5  # setup_s is the median of this many set-ups spread over the run
SUITE_SEED = "7"
PUTS_MAX = "2"
GENERATE_DOMAINS = (("p1", "p2", "p3"), ("t1", "t2"), ("e1", "e2", "e3"), (1, 2))
CAMPAIGN_DOMAINS = (("p1",), ("t1",), ("e1",), (1, 2))
DUMP_STATES, DUMP_OUT_DEGREE = 1200, 4
FAULT = "delete_enrolment_no_backref"


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the command line."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import statecover.cli"], env=env, check=True)
    return time.perf_counter() - started


def statecover(*argv) -> tuple[int, str]:
    """Run one statecover command in-process; (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json-logs", *argv])
    return code, err.getvalue()


def model_yaml(players, tournaments, enrolments, caps) -> str:
    """The tournaments lifecycle model over the given id domains."""
    doc = {
        "name": "tournaments",
        "resources": [
            {"name": "players", "key": "pid", "ids": list(players),
             "record": {"ts": {"set": "tournaments"}}},
            {"name": "tournaments", "key": "tid", "ids": list(tournaments),
             "record": {"ps": {"set": "players"}, "c": "capacity"}},
            {"name": "enrolments", "key": "eid", "ids": list(enrolments),
             "record": {"pid": {"ref": "players"}, "tid": {"ref": "tournaments"}}},
        ],
        "capacities": list(caps),
        "actions": [
            {"name": "postPlayer", "params": {"pid": "players"},
             "guard": "pid not in players",
             "effect": ["put players[pid] = {ts: {}}"],
             "unchanged": ["tournaments", "enrolments"]},
            {"name": "deletePlayer", "params": {"pid": "players"},
             "guard": "pid in players and size(players[pid].ts) = 0",
             "effect": ["del players[pid]"],
             "unchanged": ["tournaments", "enrolments"]},
            {"name": "postTournament", "params": {"tid": "tournaments"},
             "guard": "tid not in tournaments",
             "effect": ["put tournaments[tid] = {ps: {}, c: any capacity}"],
             "unchanged": ["players", "enrolments"]},
            {"name": "deleteTournament", "params": {"tid": "tournaments"},
             "guard": "tid in tournaments and size(tournaments[tid].ps) = 0",
             "effect": ["del tournaments[tid]"],
             "unchanged": ["players", "enrolments"]},
            {"name": "postEnrolment",
             "params": {"eid": "enrolments", "pid": "players", "tid": "tournaments"},
             "guard": ("eid not in enrolments and pid in players and tid in tournaments"
                       " and pid not in tournaments[tid].ps"
                       " and size(tournaments[tid].ps) < tournaments[tid].c"),
             "effect": ["put enrolments[eid] = {pid: pid, tid: tid}",
                        "add players[pid].ts tid",
                        "add tournaments[tid].ps pid"]},
            {"name": "deleteEnrolment", "params": {"eid": "enrolments"},
             "guard": "eid in enrolments",
             "effect": ["remove players[enrolments[eid].pid].ts enrolments[eid].tid",
                        "remove tournaments[enrolments[eid].tid].ps enrolments[eid].pid",
                        "del enrolments[eid]"]},
        ],
        "invariants": [
            {"name": "backrefs_live", "forall": "e", "in": "enrolments",
             "check": "enrolments[e].pid in players and enrolments[e].tid in tournaments"},
            {"name": "capacity_respected", "forall": "t", "in": "tournaments",
             "check": "size(tournaments[t].ps) <= tournaments[t].c"},
        ],
        "terminal": "all_empty",
    }
    return yaml.safe_dump(doc, sort_keys=False, width=10000)


def oracle_model(domains) -> dict:
    states, edges = oracle.enumerate_lifecycle(*domains)
    return {"states": states, "edges": edges, "caps": domains[3]}


class Workload:
    """One workload: set-up, one round of commands, and its checks."""

    round_s: float  # nominal round time; --seconds / round_s rounds per run

    def __init__(self, seed: int):
        self.seed = seed
        self.problems: list[str] = []
        self.tracer: tracing.Tracer | None = None
        self.checked: set[str] = set()

    def unchecked(self, data: bytes) -> bool:
        """True the first time these bytes are seen: a byte-identical output
        was already checked."""
        digest = hashlib.sha256(data).hexdigest()
        if digest in self.checked:
            return False
        self.checked.add(digest)
        return True

    def setup(self, where: Path) -> None:
        raise NotImplementedError

    def round(self) -> tuple[float, int, int]:
        """Run the commands once; (seconds, attempted, failed)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once per run, after the last round."""

    def close(self) -> None:
        """Release what the last set-up holds."""

    def counts(self) -> dict:
        """Exact work counts of a round: suite_calls and http_requests."""
        return {"suite_calls": 0, "http_requests": 0}

    def _commands(self, *commands) -> tuple[float, int, int, list[str]]:
        """Run and time the round's commands, traced when a tracer is set."""
        if self.tracer is not None:
            self.tracer.install()
        try:
            started = time.perf_counter()
            results = [statecover(*argv) for argv in commands]
            seconds = time.perf_counter() - started
        finally:
            if self.tracer is not None:
                self.tracer.remove()
        failed = 0
        for argv, (code, err) in zip(commands, results):
            if code != 0:
                failed += 1
                self.problems.append(f"statecover {argv[0]} exited {code}: {err.strip()[-300:]}")
        return seconds, len(commands), failed, [err for _, err in results]


class Generate(Workload):
    """explore, then sequences --seed 7 --puts-max 2, on p1-p3/t1-t2/e1-e3."""

    round_s = 7.5

    def setup(self, where):
        statecover("fixtures", str(where / "fixtures"))
        self.contracts = where / "fixtures" / "tournaments-contracts.yaml"
        self.model = where / "model.yaml"
        self.model.write_text(model_yaml(*GENERATE_DOMAINS), encoding="utf-8")
        self.dot, self.suite = where / "graph.dot", where / "suite.json"

    def round(self):
        self.dot.unlink(missing_ok=True)
        self.suite.unlink(missing_ok=True)
        seconds, attempted, failed, logs = self._commands(
            ("explore", str(self.model), str(self.dot)),
            ("sequences", str(self.dot), str(self.suite), "--spec", str(self.contracts),
             "--seed", SUITE_SEED, "--puts-max", PUTS_MAX))
        self._check(checks.log_events(logs[0]).get("explored"))
        return seconds, attempted, failed

    def _check(self, explored):
        if not hasattr(self, "oracle"):
            self.oracle = oracle_model(GENERATE_DOMAINS)
        self.problems.extend(checks.check_explored(explored, self.oracle))
        data = self.suite.read_bytes()
        if self.unchecked(data):
            doc = json.loads(data)
            self.problems.extend(checks.check_suite(doc, self.oracle))
            self.suite_calls = sum(map(len, checks.call_lists(doc)))

    def counts(self):
        return {"suite_calls": self.suite_calls, "http_requests": 0}


class Ingest(Workload):
    """clean on a seeded model-checker dump in which every statement is
    written twice."""

    round_s = 3.0

    def setup(self, where):
        text, self.nodes, self.edges = dotdump.make_dump(
            self.seed, DUMP_STATES, DUMP_OUT_DEGREE)
        self.ratio = 1 - (len(self.nodes) + len(self.edges)) / text.count(";")
        self.dump, self.out = where / "dump.dot", where / "clean.dot"
        self.dump.write_text(text, encoding="utf-8")

    def round(self):
        self.out.unlink(missing_ok=True)
        seconds, attempted, failed, logs = self._commands(
            ("clean", str(self.dump), str(self.out)))
        self.problems.extend(checks.check_clean(
            self.out.read_text(encoding="utf-8"), checks.log_events(logs[0]).get("cleaned"),
            self.nodes, self.edges, self.ratio))
        return seconds, attempted, failed


class Campaign(Workload):
    """explore and sequences --seed 7 --puts-max 2 on the p1/t1/e1 model with
    capacities (1, 2), then test --base-url with that suite against the
    clean demo."""

    round_s = 15.0

    def setup(self, where):
        statecover("fixtures", str(where / "fixtures"))
        self.contracts = str(where / "fixtures" / "tournaments-contracts.yaml")
        self.model = where / "model.yaml"
        self.model.write_text(model_yaml(*CAMPAIGN_DOMAINS), encoding="utf-8")
        self.dot, self.suite = where / "graph.dot", where / "suite.json"
        self.report = where / "report.json"
        self.server = demo.DemoServer(port=0, seed=0).start()
        self.where = where

    def close(self):
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None

    def _admin(self, method, path):
        response = requests.request(method, self.server.base_url + path, timeout=10)
        response.raise_for_status()
        return response.json()

    def round(self):
        self._admin("POST", "/_reset")
        for output in (self.dot, self.suite, self.report):
            output.unlink(missing_ok=True)
        seconds, _, _, logs = self._commands(
            ("explore", str(self.model), str(self.dot)),
            ("sequences", str(self.dot), str(self.suite), "--spec", self.contracts,
             "--seed", SUITE_SEED, "--puts-max", PUTS_MAX),
            ("test", "--spec", self.contracts, "--sequences", str(self.suite),
             "--base-url", self.server.base_url, "--report", str(self.report)))
        if not hasattr(self, "oracle"):
            self.oracle = oracle_model(CAMPAIGN_DOMAINS)
        self.problems.extend(checks.check_explored(
            checks.log_events(logs[0]).get("explored"), self.oracle))
        if not (self.suite.exists() and self.report.exists()):
            self.problems.append("the round wrote no suite or no report")
            return seconds, 1, 1
        data = self.suite.read_bytes()
        if self.unchecked(data):
            doc = json.loads(data)
            self.calls = sum(map(len, checks.call_lists(doc)))
            self.problems.extend(checks.check_suite(doc, self.oracle))
        report = json.loads(self.report.read_text(encoding="utf-8"))
        log = self._admin("GET", "/_requests")
        leftovers = {c: self._admin("GET", c) for c in checks.KEYS}
        self.problems.extend(checks.check_campaign(report, self.calls, log, leftovers))
        self.http_requests = len(log)
        return seconds, self.calls, self.calls - report["summary"]["ok"]

    def finish(self):
        """The same contracts still catch the seeded fault: run the first
        sequence that deletes an enrolment against the faulty demo."""
        doc = json.loads(self.suite.read_text(encoding="utf-8"))
        picked = next(s for s in doc["sequences"]
                      if any(c["op"] == "deleteEnrolment" for c in s["calls"]))
        suite, report = self.where / "fault-suite.json", self.where / "fault-report.json"
        suite.write_text(json.dumps({"seed": doc["seed"], "sequences": [picked]}),
                         encoding="utf-8")
        code, err = statecover("test", "--spec", self.contracts, "--sequences", str(suite),
                               "--spawn-demo", "--demo-fault", FAULT, "--report", str(report))
        if code != 1:
            self.problems.append(f"test against {FAULT} exited {code}, want 1: {err.strip()[-300:]}")
        self.problems.extend(checks.check_fault_found(json.loads(report.read_text(encoding="utf-8"))))

    def counts(self):
        return {"suite_calls": self.calls, "http_requests": self.http_requests}


# generate is not in BENCHMARK.json: on a shared 2-vCPU VM the spread of its
# work_s between runs reached 0.258, beyond the largest bound (see README.md).
# It stays runnable by hand and with --trace 1.
WORKLOADS = {"generate": Generate, "ingest": Ingest, "campaign": Campaign}


def run(workload: Workload, seconds: float, trace: bool, where: Path) -> dict:
    """Set up before evenly spaced rounds, so that set-up and rounds are
    both sampled across the whole run; a round uses the latest set-up."""
    setups, untraced, traced, layers, attempted, failed = [], [], [], [], 0, 0
    rounds = max(2 if trace else 1, round(seconds / workload.round_s))
    for n in range(rounds):
        for _ in range(sum(k * rounds // SETUPS == n for k in range(SETUPS))):
            # Tearing down the previous set-up is not set-up time: stopping
            # the demo waits up to 0.5 s for its server loop to poll.
            workload.close()
            started = time.perf_counter()
            target = where / f"setup{len(setups)}"
            target.mkdir()
            workload.setup(target)
            setups.append(import_seconds() + time.perf_counter() - started)
            print(f"bench: set-up {setups[-1]:.4f} s", file=sys.stderr)
        tracing_round = trace and n % 4 in (1, 2)  # U T T U: balances drift
        workload.tracer = tracing.Tracer() if tracing_round else None
        took, tried, bad = workload.round()
        attempted, failed = attempted + tried, failed + bad
        print(f"bench: round {n} {'traced ' if tracing_round else ''}work {took:.4f} s",
              file=sys.stderr)
        if tracing_round:
            traced.append(took)
            layers.append(tracing.layer_metrics(workload.tracer.spans))
            spans = workload.tracer.spans
        else:
            untraced.append(took)
    workload.finish()
    if trace:
        metrics = {**tracing.median_metrics(layers), **workload.counts(),
                   "trace.overhead_s": statistics.median(traced) - statistics.median(untraced)}
        (where / "trace.json").write_text(
            json.dumps([s.to_json() for s in spans]), encoding="utf-8")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            # The mean, not the median: the machine's speed changes in phases
            # of seconds to minutes, and a median flips to whichever phase
            # held more rounds, while the mean weighs each by its share.
            "work_s": statistics.fmean(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


UNITS = {
    "setup_s": "s", "work_s": "s", "peak_rss_mb": "MB",
    "lifecycle.explore_s": "s", "lifecycle.states_per_s": "states/s",
    "ssg.parse_dot_s": "s", "ssg.parse_mb_per_s": "MB/s", "ssg.clean_s": "s",
    "ssg.emit_dot_s": "s", "ssg.build_s": "s", "seqgen.select_s": "s",
    "seqgen.coverage_s": "s", "seqgen.label_s": "s", "seqgen.insert_puts_s": "s",
    "speckit.resolver_s": "s", "seqgen.to_json_s": "s", "seqgen.json_mb": "MB",
    "seqgen.sequences": "count", "seqgen.visited_per_transition": "ratio",
    "speckit.load_oas_s": "s", "speckit.op_profile_calls": "count",
    "speckit.op_profile_s": "s", "runtime.generate_s": "s",
    "evaluator.evaluations": "count", "evaluator.self_s": "s",
    "evaluator.probe_gets": "count", "evaluator.probe_gets_per_call": "ratio",
    "executor.sends": "count", "executor.cleanup_deletes": "count",
    "executor.self_s": "s", "executor.ms_per_call": "ms",
    "transport.request_ms_p50": "ms", "transport.request_ms_p95": "ms",
    "transport.wait_s": "s", "demo.handle_s": "s", "demo.handle_us_p50": "us",
    "suite_calls": "count", "http_requests": "count", "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    where = WORK / args.workload
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        result = run(workload, args.seconds, bool(args.trace), where)
    finally:
        workload.close()
    for problem in workload.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()},
    }))
    return 0 if not workload.problems else 1


if __name__ == "__main__":
    sys.exit(main())
