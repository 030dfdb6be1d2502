"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``cluster`` — cluster synthetic uncertain sensor data and print the
  probabilistic result (all algorithms and correlation schemes of the
  paper are exposed as flags).
* ``explain`` — sensitivity report for one output event.
* ``network`` — build the event network and print its statistics (or a
  Graphviz rendering with ``--dot``).
* ``serve`` — run the long-running HTTP/JSON query service: request
  batching plus a compiled-artifact cache over the scheme registry.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from .core.platform import ENFrame

SCHEME_CHOICES = ("independent", "positive", "mutex", "conditional")

#: NumPy's BLAS starts a thread pool on import that no subcommand uses;
#: a CLI process asks for one thread unless the user exported a count.
BLAS_THREAD_DEFAULTS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--objects", type=int, default=16,
                        help="number of uncertain data points (default 16)")
    parser.add_argument("--scheme", choices=SCHEME_CHOICES, default="mutex",
                        help="correlation scheme for the lineage (default mutex)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--group-size", type=int, default=4,
                        help="data points sharing identical lineage (default 4)")
    parser.add_argument("--variables", type=int, default=12,
                        help="variable budget (positive scheme only)")
    parser.add_argument("--mutex-size", type=int, default=4,
                        help="mutex set size (mutex scheme only)")
    parser.add_argument("--certain", type=float, default=0.0,
                        help="fraction of certain data points (default 0)")
    parser.add_argument("--k", type=int, default=2, help="number of clusters")
    parser.add_argument("--iterations", type=int, default=2,
                        help="clustering iterations (default 2)")


def _build_platform(args: argparse.Namespace) -> ENFrame:
    from .core.platform import ENFrame
    from .mining.kmedoids import KMedoidsSpec

    options = {"group_size": args.group_size, "certain_fraction": args.certain}
    if args.scheme == "positive":
        options["variables"] = args.variables
        options["literals"] = max(1, min(4, args.variables // 2))
    if args.scheme == "mutex":
        options["mutex_size"] = args.mutex_size
    platform = ENFrame.from_sensor_data(
        args.objects, scheme=args.scheme, seed=args.seed, **options
    )
    platform.kmedoids(
        KMedoidsSpec(k=args.k, iterations=args.iterations),
        targets=getattr(args, "targets", "medoids"),
        folded=getattr(args, "folded", False),
    )
    return platform


def _parse_evidence(raw: str) -> tuple:
    """``--evidence`` accepts ``INDEX``, ``INDEX=true|false``, or an
    event name bound on the network."""
    text = raw.strip()
    head, separator, tail = text.partition("=")
    if separator:
        try:
            index = int(head)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"evidence must be INDEX, INDEX=true|false, or an event "
                f"name, got {raw!r}"
            ) from None
        value = tail.strip().lower()
        if value in ("true", "1", "t", "yes"):
            return ("var", index, True)
        if value in ("false", "0", "f", "no"):
            return ("var", index, False)
        raise argparse.ArgumentTypeError(
            f"evidence truth value must be true/false, got {tail!r}"
        )
    try:
        return ("var", int(text), True)
    except ValueError:
        return ("event", text)


def _parse_job_size(raw: str) -> "int | str":
    """``--job-size`` accepts an integer depth or ``adaptive``."""
    if raw == "adaptive":
        return raw
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"job size must be an integer or 'adaptive', got {raw!r}"
        ) from None


def _kernel_line(extra: dict) -> str:
    """``kernel: <tier that ran>``, plus why any higher tier was rejected."""
    from .engine.kernels import BACKEND_ERRORS, KERNEL_TIER_CODES

    code = extra.get("kernel_tier")
    tier = next(
        (name for name, known in KERNEL_TIER_CODES.items() if known == code),
        "not reported",  # bulk schemes and the scalar oracles record none
    )
    rejected = "; ".join(
        f"{name}: {reason}" for name, reason in BACKEND_ERRORS.items()
    )
    return f"kernel: {tier}" + (f" ({rejected})" if rejected else "")


def _cluster_details(extra: dict) -> str:
    """The ``--verbose`` report: stealing, message waits, job sizing."""
    lines = [_kernel_line(extra), "distributed run details:"]
    if "steals" in extra:
        lines.append(
            f"  steals: {extra['steals']:.0f}  "
            f"recv wait: {extra.get('recv_wait_seconds', 0.0):.4f}s"
        )
    if "worker_failures" in extra:
        lines.append(
            f"  worker failures: {extra['worker_failures']:.0f}  "
            f"workers killed: {extra.get('workers_killed', 0.0):.0f}  "
            f"spawn: {extra.get('spawn_seconds', 0.0):.3f}s"
        )
    if "wire_bytes_sent" in extra:
        lines.append(
            f"  wire bytes: {extra['wire_bytes_sent']:.0f} sent, "
            f"{extra['wire_bytes_received']:.0f} received"
        )
    sizing = extra.get("job_sizing")
    if isinstance(sizing, dict):
        lines.append(
            f"  adaptive job sizing: final depth "
            f"{sizing['final_depth']:.0f}, EWMA cost "
            f"{sizing['ewma_cost']:.5f}s (target "
            f"{sizing['target_cost']:.5f}s), "
            f"{sizing['merges']:.0f} merges / {sizing['splits']:.0f} splits"
        )
        for number, wave in enumerate(sizing.get("waves", [])):
            lines.append(
                f"    wave {number}: depth {wave['depth']:.0f}, "
                f"{wave['jobs']:.0f} jobs, mean {wave['mean_cost']:.5f}s, "
                f"EWMA {wave['ewma_cost']:.5f}s -> depth "
                f"{wave['next_depth']:.0f}"
            )
    return "\n".join(lines)


def _command_cluster(args: argparse.Namespace) -> int:
    if args.connect is not None:
        # Worker mode: no dataset, no platform — join the coordinator
        # and serve jobs until its stop record (or disappearance).
        from .compile.transport import serve_worker

        print(f"joining cluster coordinator at {args.connect}")
        try:
            status = serve_worker(args.connect, retry_seconds=args.join_timeout)
        except (OSError, ValueError) as exc:
            print(f"could not join {args.connect}: {exc}", file=sys.stderr)
            return 2
        print("coordinator finished; worker exiting")
        return status
    execution = args.execution
    if args.listen is not None:
        execution = "process"
        if args.workers is None:
            print(
                "--listen requires --workers N (the number of --connect "
                "workers to wait for)",
                file=sys.stderr,
            )
            return 2
    platform = _build_platform(args)
    print(
        f"dataset: {args.objects} objects, "
        f"{platform.dataset.variable_count} variables ({args.scheme})"
    )
    if args.listen is not None:
        print(
            f"listening on {args.listen}; waiting for {args.workers} "
            "worker(s) to connect"
        )
    # The registry normalises options per scheme (epsilon is zeroed for
    # exact schemes, workers dropped for non-distributed ones).
    try:
        result = platform.run(
            scheme=args.algorithm,
            epsilon=args.epsilon,
            ordering=args.order,
            workers=args.workers,
            job_size=args.job_size,
            execution=execution,
            kernel=args.kernel,
            listen=args.listen,
            evidence=args.evidence,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(result.summary(limit=args.limit))
    if args.verbose:
        print(_cluster_details(result.raw.extra))
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    from .core.sensitivity import explain

    platform = _build_platform(args)
    result = platform.run(scheme="exact")
    target = args.target
    if target is None:
        target = min(
            result.targets,
            key=lambda name: abs(result.probability(name) - 0.5),
        )
        print(f"(most uncertain target: {target})")
    elif target not in result.targets:
        print(f"unknown target {target!r}; choose from {list(result.targets)[:8]}...",
              file=sys.stderr)
        return 2
    print(explain(platform.network, platform.dataset.pool, target, top=args.top))
    return 0


def _command_kernels(args: argparse.Namespace) -> int:
    from .engine.kernels import kernel_status

    status = kernel_status()
    env = status["env"]
    print("kernel tiers (this process):")
    for name, tier in sorted(status["tiers"].items()):
        state = "live" if tier["live"] else "unavailable"
        line = f"  {name:<12} {state}"
        if tier["error"]:
            line += f"  ({tier['error']})"
        print(line)
    print(f"default: {status['default']}  (auto resolves to {status['auto']})")
    if env is None:
        print("REPRO_KERNEL: unset")
    elif status["env_valid"]:
        print(f"REPRO_KERNEL: {env}")
    else:
        print(f"REPRO_KERNEL: {env!r} is not a known tier; 'auto' is used")
    return 0


def _parse_cache_bytes(raw: str) -> int:
    """``--cache-bytes`` accepts plain bytes or a k/m/g suffix."""
    scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    text = raw.strip().lower()
    factor = 1
    if text and text[-1] in scale:
        factor = scale[text[-1]]
        text = text[:-1]
    try:
        value = int(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cache size must be an integer with optional k/m/g suffix, "
            f"got {raw!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("cache size must be non-negative")
    return value


def _parse_named_path(raw: str) -> "tuple[str, str]":
    """``--network`` takes ``NAME=PATH`` (a saved network document)."""
    name, separator, path = raw.partition("=")
    if not separator or not name or not path:
        raise argparse.ArgumentTypeError(
            f"expected NAME=PATH, got {raw!r}"
        )
    return name, path


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .engine.registry import available_schemes
    from .serve.server import ReproServer

    async def _main() -> int:
        server = ReproServer(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            cache_bytes=args.cache_bytes,
        )
        for name, path in args.network or ():
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            info = server.put_network(name, document)
            print(f"registered network {name} ({info['hash'][:12]})")
        await server.start()
        print(
            f"serving on {server.host}:{server.port} "
            f"(max batch {args.max_batch}, queue cap {args.max_pending}, "
            f"cache {args.cache_bytes} bytes)"
        )
        print(f"schemes: {', '.join(available_schemes())}")
        report = await server.serve_forever()
        abandoned = int(report.get("requests_abandoned", 0))
        if abandoned:
            print(
                f"shutdown: {abandoned} request(s) abandoned before the "
                "drain deadline",
                file=sys.stderr,
            )
        else:
            print("shutdown: queue drained cleanly")
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        print("interrupted; server stopped")
        return 0
    except OSError as exc:
        print(f"could not serve on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2


def _command_network(args: argparse.Namespace) -> int:
    platform = _build_platform(args)
    stats = platform.network.stats()
    if args.dot:
        from .network.dot import to_dot

        print(to_dot(platform.network))
        return 0
    print("event network statistics:")
    for key in sorted(stats):
        print(f"  {key:>12}: {stats[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .compile.ordering import ORDER_NAMES
    from .engine.kernels import KERNEL_NAMES
    from .engine.registry import available_schemes

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ENFrame: process probabilistic data (EDBT 2014 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cluster = subparsers.add_parser(
        "cluster", help="cluster uncertain sensor data probabilistically"
    )
    _add_dataset_arguments(cluster)
    # Every scheme in the registry is a CLI algorithm; plugging a new scheme
    # into repro.engine.registry exposes it here with no CLI change.
    cluster.add_argument("--algorithm", choices=available_schemes(),
                         default="hybrid", help="probability computation scheme")
    cluster.add_argument("--epsilon", type=float, default=0.1,
                         help="absolute error budget for approximations")
    cluster.add_argument("--order", choices=ORDER_NAMES, default="frequency",
                         help="Shannon variable-ordering strategy "
                              "(dynamic = cone-aware influence)")
    cluster.add_argument("--workers", type=int, default=None,
                         help="enable distributed compilation with N workers")
    cluster.add_argument("--job-size", type=_parse_job_size, default=3,
                         help="distributed job size d, or 'adaptive' to pick "
                              "it from measured per-job costs (default 3)")
    cluster.add_argument("--execution",
                         choices=("simulate", "process"),
                         default="simulate",
                         help="distributed execution mode: deterministic "
                              "simulation or true multi-process workers "
                              "(default simulate)")
    cluster.add_argument("--listen", metavar="HOST:PORT", default=None,
                         help="wait for --workers N remote '--connect' "
                              "workers on this address instead of "
                              "spawning them (implies --execution process)")
    cluster.add_argument("--connect", metavar="HOST:PORT", default=None,
                         help="run as a cluster worker: join the "
                              "coordinator listening at this address and "
                              "serve jobs until it stops")
    cluster.add_argument("--join-timeout", type=float, default=10.0,
                         help="seconds a '--connect' worker retries the "
                              "coordinator before giving up (default 10)")
    cluster.add_argument("--verbose", action="store_true",
                         help="print distributed run details: work "
                              "stealing, message waits, adaptive job sizing")
    cluster.add_argument("--kernel", choices=KERNEL_NAMES, default=None,
                         help="evaluator kernel tier for kernel-capable "
                              "schemes: auto (default; native C, then "
                              "python), or an explicit tier")
    cluster.add_argument("--evidence", action="append", type=_parse_evidence,
                         default=None, metavar="VAR[=BOOL]|EVENT",
                         help="condition evidence-capable schemes "
                              "(exact-cond/lazy-cond) on a variable index, "
                              "a VAR=false assignment, or a named network "
                              "event (repeatable; ignored by other schemes)")
    cluster.add_argument("--targets", choices=("medoids", "assignments",
                                               "is_medoid"), default="medoids")
    cluster.add_argument("--folded", action="store_true",
                         help="use the folded (per-iteration) network encoding")
    cluster.add_argument("--limit", type=int, default=12,
                         help="targets to print (default 12)")
    cluster.set_defaults(handler=_command_cluster)

    explain = subparsers.add_parser(
        "explain", help="sensitivity analysis for one output event"
    )
    _add_dataset_arguments(explain)
    explain.add_argument("--target", default=None,
                         help="target name (default: most uncertain)")
    explain.add_argument("--top", type=int, default=5,
                         help="variables to report (default 5)")
    explain.set_defaults(handler=_command_explain)

    network = subparsers.add_parser(
        "network", help="inspect the compiled event network"
    )
    _add_dataset_arguments(network)
    network.add_argument("--dot", action="store_true",
                         help="emit Graphviz instead of statistics")
    network.set_defaults(handler=_command_network)

    serve = subparsers.add_parser(
        "serve",
        help="run the batched HTTP/JSON query service with an "
             "artifact cache",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks a free port (default 8080)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="most requests coalesced per batch (default 32)")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="admission cap: queued requests beyond this "
                            "are rejected with 503 (default 256)")
    serve.add_argument("--cache-bytes", type=_parse_cache_bytes,
                       default=64 << 20, metavar="BYTES",
                       help="artifact cache LRU byte cap, e.g. 64m "
                            "(default 64m)")
    serve.add_argument("--network", action="append", metavar="NAME=PATH",
                       type=_parse_named_path,
                       help="preload a saved network document (repeatable); "
                            "clients can also PUT /networks/<name>")
    serve.set_defaults(handler=_command_serve)

    kernels = subparsers.add_parser(
        "kernels", help="report kernel tier availability and the default"
    )
    kernels.set_defaults(handler=_command_kernels)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # Before build_parser, whose imports load NumPy.
    for name in BLAS_THREAD_DEFAULTS:
        os.environ.setdefault(name, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
