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

Importing this module loads no other module of the package: a command
imports what it runs once it is dispatched. `clean` loads `ssg`;
`gen-contracts` `speckit` (with `glacier` and `yaml`); `explore`
`lifecycle`, `ssg` and `speckit`; `sequences` `seqgen` and `ssg`, and
`speckit` for --spec; `test` `seqgen`, `speckit` and the campaign path,
`executor` with `evaluator`, `runtime` and `transport`. `executor` loads on
the first call of this module's `run_campaign`, a name that a tracer can
patch. `demo` loads for --spawn-demo, `demo-server` and `fixtures`, and
with it `lifecycle`, `ssg`, `speckit` and `transport`. No module of the
package imports `dataclasses` (and with it `inspect`) or `http.client`;
`socket` and `select` load when a campaign connects, `ssl` when it first
speaks TLS.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from . import speckit


def derive_seed(seed: int, domain: str) -> int:
    """Independent per-purpose seed so the same --seed can feed several
    random choices without correlating them."""
    import hashlib  # only here, so that importing the command line skips it

    digest = hashlib.sha256(f"{seed}:{domain}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# The largest --timeout: sockets refuse a timeout past about 9.2e9 s, the
# range of the interpreter's nanosecond clock.
MAX_TIMEOUT_S = 1_000_000_000
# The largest --puts-max: updates inserted per created resource.
MAX_PUTS = 3


class UsageError(Exception):
    pass


class Log:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since the log was made, which main does as it dispatches
        the command: the duration_s of a command's closing event."""
        return round(time.perf_counter() - self.started, 6)

    def event(self, name: str, **fields):
        if self.as_json:
            print(json.dumps({"event": name, **fields}), file=sys.stderr)
        else:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            print(f"[{name}] {detail}".rstrip(), file=sys.stderr)


def _not_utf8(path: str, exc: UnicodeDecodeError) -> UsageError:
    """The error for a file that is not UTF-8, naming the 1-based line of its
    first bad byte. exc.object holds the whole file, as reading it decodes it
    at once."""
    before = exc.object[:exc.start]
    # line breaks as reading a text file sees them: \n, \r\n and \r
    line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
    return UsageError(f"{path}: line {line}: not UTF-8: byte "
                      f"0x{exc.object[exc.start]:02x} ({exc.reason})")


def _read_text(path: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _write_text(path: str, text: str | Iterable[str]) -> None:
    """Write a text, or its pieces one at a time, to a UTF-8 file."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _read_yaml(path: str):
    """The document of a UTF-8 YAML file, read by _read_text, as parsed: the
    loaders refuse one that is not a mapping."""
    import yaml

    from . import speckit

    try:
        return speckit.load_yaml(_read_text(path))
    except yaml.YAMLError as exc:
        raise UsageError(f"{path} is not valid YAML: {exc}") from exc
    except RecursionError:  # pyyaml's own parser, where libyaml is absent, recurses
        raise UsageError(f"{path}: nested too deeply to read") from None


def _load_spec(path: str) -> speckit.ApiSpec:
    from . import speckit

    try:
        return speckit.load_oas(_read_yaml(path))
    except speckit.SpecError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# -- subcommands -------------------------------------------------------------


def cmd_gen_contracts(args, log: Log) -> int:
    from . import speckit

    spec = _load_spec(args.oas)
    for diag in spec.diagnostics:
        log.event("diagnostic", code=diag.code, where=diag.where, message=diag.message)
    report = speckit.infer_contracts(spec)
    for op_id, reason in report.skipped:
        log.event("skipped", op=op_id, reason=reason)
    _write_text(args.out, speckit.emit_extended(spec))
    clauses = sum(report.added.values())
    log.event("contracts", operations=len(report.added), clauses=clauses,
              skipped=len(report.skipped), duration_s=log.elapsed())
    print(f"{args.out}: contracts for {len(report.added)} operations "
          f"({clauses} clauses)")
    return 0


def cmd_explore(args, log: Log) -> int:
    if args.max_states < 1:
        raise UsageError(f"--max-states must be at least 1, got {args.max_states}: "
                         "the initial state is always explored")
    from . import lifecycle

    doc = _read_yaml(args.model)
    try:
        exploration = lifecycle.explore(lifecycle.load_model(doc), max_states=args.max_states)
    except lifecycle.InvariantViolation as violation:
        log.event("invariant-violation", invariant=violation.name,
                  trace=list(violation.trace))
        print(f"invariant {violation.name} violated after: "
              + " -> ".join(violation.trace))
        return 1
    except lifecycle.ModelError as exc:
        raise UsageError(f"{args.model}: {exc}") from exc
    _write_text(args.out, exploration.dot_lines())
    log.event("explored", states=exploration.state_count,
              transitions=exploration.transition_count,
              finals=len(exploration.finals), duration_s=log.elapsed())
    print(f"{args.out}: {exploration.state_count} states, "
          f"{exploration.transition_count} transitions")
    return 0


def cmd_clean(args, log: Log) -> int:
    from . import ssg

    text = _read_text(args.dot)
    # taken before writing, since the output may be the input file
    size = Path(args.dot).stat().st_size
    started = time.perf_counter()
    try:
        raw = ssg.parse_dot(text)
    except ssg.DotParseError as exc:
        raise UsageError(f"{args.dot}: {exc}") from exc
    parse_s = time.perf_counter() - started
    del text  # so that emitting does not hold the input as well
    cleaned = ssg.clean(raw)
    started = time.perf_counter()
    out = ssg.emit_dot(cleaned)
    emit_s = time.perf_counter() - started
    _write_text(args.out, out)
    before, after = raw.statement_count(), cleaned.statement_count()
    ratio = 0.0 if before == 0 else 1.0 - after / before
    log.event("cleaned", nodes=len(cleaned.nodes), edges=len(cleaned.edges),
              dedup_ratio=round(ratio, 4), bytes=size,
              parse_s=round(parse_s, 6), emit_s=round(emit_s, 6),
              duration_s=log.elapsed())
    print(f"{args.out}: {len(cleaned.nodes)} nodes, {len(cleaned.edges)} edges "
          f"(removed {ratio:.1%} duplicate statements)")
    return 0


def cmd_sequences(args, log: Log) -> int:
    if not 0 <= args.puts_max <= MAX_PUTS:
        raise UsageError(f"--puts-max must be in 0..{MAX_PUTS}, got {args.puts_max}")
    from . import seqgen, ssg

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
        duration_s=log.elapsed(),
    )
    print(f"{args.out}: {len(sequences)} sequences, "
          f"{coverage.state_pct:.0f}% state / "
          f"{coverage.transition_pct:.0f}% transition coverage")
    return 0


def run_campaign(*args, **kwargs) -> dict:
    """executor.run_campaign, which loads the campaign path on the first
    call. `test` calls it by this module's name, so a tracer can patch it."""
    from . import executor

    return executor.run_campaign(*args, **kwargs)


def cmd_test(args, log: Log) -> int:
    if args.spawn_demo and args.base_url:
        raise UsageError("--base-url and --spawn-demo exclude each other: "
                         "test either a running service or a spawned demo")
    if args.demo_fault and not args.spawn_demo:
        raise UsageError("--demo-fault needs --spawn-demo: it seeds a fault "
                         "into the spawned demo service")
    if not (args.spawn_demo or args.base_url):
        raise UsageError("either --base-url or --spawn-demo is required")
    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}: "
                         "every clause that reads the service needs a request")
    if not 0 < args.timeout <= MAX_TIMEOUT_S:  # also false for nan
        raise UsageError(f"--timeout must be a number of seconds above 0 and at most "
                         f"{MAX_TIMEOUT_S:,}, got {args.timeout}")
    from . import seqgen
    from .evaluator import TransportFailure

    spec = _load_spec(args.spec)
    if args.infer:
        from . import speckit

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
        from .demo import DemoServer

        server = DemoServer(
            port=0, seed=args.demo_seed, fault=args.demo_fault
        ).start()
        base_url = server.base_url
        log.event("demo", url=base_url, fault=args.demo_fault or "none")
    else:
        base_url = args.base_url

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
    from .demo import DemoServer

    try:
        server = DemoServer(port=args.port, seed=args.seed, fault=args.fault)
    except OSError as exc:
        raise UsageError(f"cannot listen on 127.0.0.1:{args.port}: {exc}") from exc
    try:
        server.start()
        log.event("demo", url=server.base_url, fault=args.fault or "none")
        print(server.base_url, flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        server.stop()


def cmd_fixtures(args, log: Log) -> int:
    from . import demo, speckit

    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create {outdir}: {exc}") from exc

    spec = demo.demo_spec()
    speckit.infer_contracts(spec)
    demo.add_manual_clauses(spec)
    two_doc = demo.tournaments_model_doc(
        players=(), tournaments=("t1", "t2"), enrolments=()
    )
    files = [
        ("tournaments-oas.yaml",
         speckit.fixture_path("tournaments_oas.yaml").read_text(encoding="utf-8")),
        ("tournaments-contracts.yaml", speckit.emit_extended(spec)),
        ("tournaments-model.yaml",
         speckit.fixture_path("tournaments_p1t1e1.yaml").read_text(encoding="utf-8")),
        ("tournaments-model-2t.yaml", speckit.dump_yaml(two_doc)),
    ]
    for name, text in files:
        _write_text(str(outdir / name), text)
    for name, _ in files:
        log.event("fixture", path=str(outdir / name))
    log.event("fixtures", files=len(files), duration_s=log.elapsed())
    print(f"{outdir}: wrote {', '.join(name for name, _ in files)}")
    return 0


# -- argument parsing ----------------------------------------------------------


def _port(text: str) -> int:
    """A TCP port number for --port: 0 (any free port) to 65535."""
    try:
        port = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a port number: {text!r}") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0 to 65535, got {port}")
    return port


class _DemoFaults:
    """The demo's fault names (`demo.FAULTS`, sorted) as argparse choices.
    The demo loads only when a given name is checked or help lists them."""

    @staticmethod
    def _names() -> list[str]:
        from .demo import FAULTS

        return sorted(FAULTS)

    def __contains__(self, name) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


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
                   help="insert up to this many updates per created resource "
                        f"(max {MAX_PUTS})")
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
    p.add_argument("--demo-fault", choices=_DemoFaults(), metavar="FAULT",
                   help="seed this fault into the spawned demo: %(choices)s")
    p.add_argument("--demo-seed", type=int, default=0)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("demo-server", help="run the demo service in the foreground")
    p.add_argument("--port", type=_port, default=8080)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault", choices=_DemoFaults(), metavar="FAULT",
                   help="seed this fault into the demo: %(choices)s")
    p.set_defaults(func=cmd_demo_server)

    p = sub.add_parser("fixtures",
                       help="write the bundled example service's files")
    p.add_argument("outdir")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = Log(args.json_logs)  # starts the command's clock
    try:
        return args.func(args, log)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
