"""Command line front end for the whole pipeline.

    statecover explore model.yaml graph.dot
    statecover clean graph.dot graph.dot
    statecover sequences graph.dot seqs.json --spec api.yaml --seed 7
    statecover gen-contracts api.yaml api-contracts.yaml
    statecover test --spec api-contracts.yaml --sequences seqs.json \
        --base-url http://127.0.0.1:8080 --report report.json

Exit codes: 0 clean, 1 the tooling found a defect (a failing campaign or a
model invariant violation), 2 bad usage or unreadable input. Progress goes
to stderr (as JSON lines with --json-logs); stdout carries only the final
summary line of each command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import yaml

from . import demo as demo_service
from . import lifecycle, seqgen, speckit, ssg
from .evaluator import TransportFailure
from .executor import run_campaign


def derive_seed(seed: int, domain: str) -> int:
    """Independent per-purpose seed so the same --seed can feed several
    random choices without correlating them."""
    digest = hashlib.sha256(f"{seed}:{domain}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class UsageError(Exception):
    pass


class Log:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def event(self, name: str, **fields):
        if self.as_json:
            print(json.dumps({"event": name, **fields}), file=sys.stderr)
        else:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            print(f"[{name}] {detail}".rstrip(), file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _load_spec(path: str) -> speckit.ApiSpec:
    try:
        return speckit.load_oas(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise UsageError(f"{path} is not valid YAML: {exc}") from exc


# -- subcommands -------------------------------------------------------------


def cmd_gen_contracts(args, log: Log) -> int:
    spec = _load_spec(args.oas)
    for diag in spec.diagnostics:
        log.event("diagnostic", code=diag.code, where=diag.where, message=diag.message)
    report = speckit.infer_contracts(spec)
    for op_id, reason in report.skipped:
        log.event("skipped", op=op_id, reason=reason)
    _write_text(args.out, speckit.emit_extended(spec))
    clauses = sum(report.added.values())
    log.event("contracts", operations=len(report.added), clauses=clauses,
              skipped=len(report.skipped))
    print(f"{args.out}: contracts for {len(report.added)} operations "
          f"({clauses} clauses)")
    return 0


def cmd_explore(args, log: Log) -> int:
    try:
        doc = speckit.load_yaml(_read_text(args.model))
    except yaml.YAMLError as exc:
        raise UsageError(f"{args.model} is not valid YAML: {exc}") from exc
    try:
        model = lifecycle.load_model(doc)
    except lifecycle.ModelError as exc:
        raise UsageError(f"{args.model}: {exc}") from exc
    try:
        exploration = lifecycle.explore(model, max_states=args.max_states)
    except lifecycle.InvariantViolation as violation:
        log.event("invariant-violation", invariant=violation.name,
                  trace=list(violation.trace))
        print(f"invariant {violation.name} violated after: "
              + " -> ".join(violation.trace))
        return 1
    except lifecycle.ModelError as exc:
        raise UsageError(f"{args.model}: {exc}") from exc
    _write_text(args.out, exploration.to_dot())
    log.event("explored", states=exploration.state_count,
              transitions=exploration.transition_count,
              finals=len(exploration.finals))
    print(f"{args.out}: {exploration.state_count} states, "
          f"{exploration.transition_count} transitions")
    return 0


def cmd_clean(args, log: Log) -> int:
    try:
        raw = ssg.parse_dot(_read_text(args.dot))
    except ssg.DotParseError as exc:
        raise UsageError(f"{args.dot}: {exc}") from exc
    cleaned = ssg.clean(raw)
    _write_text(args.out, ssg.emit_dot(cleaned))
    before, after = raw.statement_count(), cleaned.statement_count()
    ratio = 0.0 if before == 0 else 1.0 - after / before
    log.event("cleaned", nodes=len(cleaned.nodes), edges=len(cleaned.edges),
              dedup_ratio=round(ratio, 4))
    print(f"{args.out}: {len(cleaned.nodes)} nodes, {len(cleaned.edges)} edges "
          f"(removed {ratio:.1%} duplicate statements)")
    return 0


def cmd_sequences(args, log: Log) -> int:
    try:
        raw = ssg.parse_dot(_read_text(args.dot))
        graph = ssg.build(raw, initial=args.initial, prune=args.prune)
    except (ssg.DotParseError, ssg.GraphError) as exc:
        raise UsageError(f"{args.dot}: {exc}") from exc
    paths = seqgen.select_sequences(graph)
    coverage = seqgen.coverage_report(graph, paths)
    resolver = None
    put_catalog: dict = {}
    if args.spec:
        spec = _load_spec(args.spec)
        resolver = spec.resolver()
        put_catalog = spec.put_catalog()
    sequences = seqgen.to_call_sequences(graph, paths, resolver=resolver)
    sequences = seqgen.insert_puts(
        sequences, put_catalog, args.puts_max, derive_seed(args.seed, "puts")
    )
    _write_text(args.out, seqgen.sequences_to_json(sequences, args.seed))
    log.event(
        "sequences",
        count=len(sequences),
        state_coverage=round(coverage.state_pct, 1),
        transition_coverage=round(coverage.transition_pct, 1),
    )
    print(f"{args.out}: {len(sequences)} sequences, "
          f"{coverage.state_pct:.0f}% state / "
          f"{coverage.transition_pct:.0f}% transition coverage")
    return 0


def cmd_test(args, log: Log) -> int:
    spec = _load_spec(args.spec)
    if args.infer:
        speckit.infer_contracts(spec)
    try:
        stored_seed, sequences = seqgen.sequences_from_json(
            _read_text(args.sequences)
        )
    except (json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"{args.sequences} is not a sequence file: {exc}") from exc
    seed = args.seed if args.seed is not None else stored_seed

    server = None
    if args.spawn_demo:
        server = demo_service.DemoServer(
            port=0, seed=args.demo_seed, fault=args.demo_fault
        ).start()
        base_url = server.base_url
        log.event("demo", url=base_url, fault=args.demo_fault or "none")
    elif args.base_url:
        base_url = args.base_url
    else:
        raise UsageError("either --base-url or --spawn-demo is required")

    traffic: dict = {}
    try:
        report = run_campaign(
            spec,
            sequences,
            base_url,
            seed=seed,
            timeout=args.timeout,
            cleanup=not args.no_cleanup,
            budget=args.budget,
            traffic=traffic,
        )
    except TransportFailure as exc:
        raise UsageError(str(exc)) from exc
    finally:
        if server is not None:
            server.stop()

    if args.report:
        _write_text(args.report, json.dumps(report, indent=2) + "\n")
        log.event("report", path=args.report)
    summary = report["summary"]
    log.event("campaign", calls=summary["calls"], **traffic,
              duration=report["duration"])
    for outcome in report["outcomes"]:
        if outcome["classification"] in ("ERR", "WARN"):
            log.event(
                "finding",
                classification=outcome["classification"],
                op=outcome["operationId"],
                sequence=outcome["sequenceIndex"],
                call=outcome["callIndex"],
                reason=outcome["reason"],
            )
    for failure in report["cleanupFailures"]:
        log.event("cleanup-failed", **failure)
    print(
        f"calls={summary['calls']} ok={summary['ok']} warn={summary['warn']} "
        f"err={summary['err']} notTested={summary['notTested']} "
        f"duration={report['duration']}s"
    )
    return 1 if summary["err"] else 0


def cmd_demo_server(args, log: Log) -> int:
    server = demo_service.DemoServer(
        port=args.port, seed=args.seed, fault=args.fault
    ).start()
    log.event("demo", url=server.base_url, fault=args.fault or "none")
    print(server.base_url, flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        server.stop()


def cmd_fixtures(args, log: Log) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create {outdir}: {exc}") from exc

    oas_text = speckit.fixture_path("tournaments_oas.yaml").read_text(encoding="utf-8")
    _write_text(str(outdir / "tournaments-oas.yaml"), oas_text)

    spec = demo_service.demo_spec()
    speckit.infer_contracts(spec)
    demo_service.add_manual_clauses(spec)
    _write_text(str(outdir / "tournaments-contracts.yaml"), speckit.emit_extended(spec))

    model_text = speckit.fixture_path("tournaments_p1t1e1.yaml").read_text(
        encoding="utf-8"
    )
    _write_text(str(outdir / "tournaments-model.yaml"), model_text)

    two_doc = demo_service.tournaments_model_doc(
        players=(), tournaments=("t1", "t2"), enrolments=()
    )
    _write_text(
        str(outdir / "tournaments-model-2t.yaml"),
        yaml.safe_dump(two_doc, sort_keys=False, width=10000),
    )

    names = [
        "tournaments-oas.yaml",
        "tournaments-contracts.yaml",
        "tournaments-model.yaml",
        "tournaments-model-2t.yaml",
    ]
    for name in names:
        log.event("fixture", path=str(outdir / name))
    print(f"{outdir}: wrote {', '.join(names)}")
    return 0


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecover",
        description="Model-derived call sequences and contract checking "
                    "for REST services.",
    )
    parser.add_argument("--json-logs", action="store_true",
                        help="emit progress to stderr as JSON lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-contracts",
                       help="attach inferred CRUD contracts to an API description")
    p.add_argument("oas", help="OpenAPI YAML file")
    p.add_argument("out", help="where to write the extended description")
    p.set_defaults(func=cmd_gen_contracts)

    p = sub.add_parser("explore", help="enumerate a lifecycle model's states")
    p.add_argument("model", help="lifecycle model YAML file")
    p.add_argument("out", help="where to write the state graph (DOT)")
    p.add_argument("--max-states", type=int, default=10000)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("clean", help="deduplicate a DOT state graph")
    p.add_argument("dot")
    p.add_argument("out")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("sequences",
                       help="derive covering call sequences from a state graph")
    p.add_argument("dot")
    p.add_argument("out", help="where to write the sequences (JSON)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--puts-max", type=int, default=0,
                   help=f"insert up to this many updates per created resource "
                        f"(max {seqgen.MAX_PUTS_LIMIT})")
    p.add_argument("--spec", help="API description used to name operations")
    p.add_argument("--initial", help="raw id of the initial state")
    p.add_argument("--prune", action="store_true",
                   help="drop unreachable states instead of failing")
    p.set_defaults(func=cmd_sequences)

    p = sub.add_parser("test", help="run sequences against a live service")
    p.add_argument("--spec", required=True)
    p.add_argument("--sequences", required=True)
    p.add_argument("--base-url")
    p.add_argument("--seed", type=int, default=None,
                   help="input generation seed (default: the one stored in "
                        "the sequence file)")
    p.add_argument("--report", help="write the full JSON report here")
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument("--budget", type=int, default=256,
                   help="max probe requests per clause evaluation")
    p.add_argument("--no-cleanup", action="store_true")
    p.add_argument("--infer", action="store_true",
                   help="infer CRUD contracts before testing")
    p.add_argument("--spawn-demo", action="store_true",
                   help="test against a freshly started demo service")
    p.add_argument("--demo-fault", choices=sorted(demo_service.FAULTS),
                   default=None)
    p.add_argument("--demo-seed", type=int, default=0)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("demo-server", help="run the demo service in the foreground")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault", choices=sorted(demo_service.FAULTS), default=None)
    p.set_defaults(func=cmd_demo_server)

    p = sub.add_parser("fixtures",
                       help="write the bundled example service's files")
    p.add_argument("outdir")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = Log(args.json_logs)
    try:
        return args.func(args, log)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
