"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` .. ``table5``, ``figure1`` .. ``figure4``, ``headline`` —
  regenerate one experiment (optionally saving SVG artifacts).
* ``all`` — regenerate everything.
* ``analyze`` — run the inner solver on a NACA section.
* ``serve`` — run the batched analysis HTTP service.
* ``jobs`` — submit and track optimization jobs on a running server.
* ``cluster`` — route the serve API across multiple replicas.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.api import AnalyzeRequest, canonical_json, serialize_analysis
from repro.errors import ReproError
from repro.experiments.runner import experiment_names, run_all, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Evaluation of the Intel Xeon Phi and "
                     "NVIDIA K80 as accelerators for two-dimensional panel "
                     "codes' (Einkemmer)."),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in experiment_names():
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        sub.add_argument("--artifacts", metavar="DIR", default=None,
                         help="directory for SVG artifacts")

    sub_all = subparsers.add_parser("all", help="regenerate every experiment")
    sub_all.add_argument("--artifacts", metavar="DIR", default=None,
                         help="directory for SVG artifacts")

    subparsers.add_parser(
        "report", help="render the full EXPERIMENTS.md content to stdout"
    )

    sub_analyze = subparsers.add_parser(
        "analyze", help="analyze a NACA section with the panel method"
    )
    sub_analyze.add_argument("designation", help="e.g. 2412 or 23012")
    sub_analyze.add_argument("--alpha", type=float, default=0.0,
                             help="angle of attack in degrees")
    sub_analyze.add_argument("--reynolds", type=float, default=1e6,
                             help="chord Reynolds number (0 = inviscid only)")
    sub_analyze.add_argument("--panels", type=int, default=200,
                             help="number of panels")
    sub_analyze.add_argument("--json", action="store_true",
                             help="emit the canonical JSON record (same bytes "
                                  "as the serving API's /analyze response)")
    sub_analyze.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="abort the analysis if it does not finish "
                                  "within this many seconds (exit code 1)")
    sub_analyze.add_argument("--trace", action="store_true",
                             help="print a W/A/L/O stage breakdown of the "
                                  "evaluation to stderr (stdout stays "
                                  "byte-identical, so it composes with --json)")
    sub_analyze.add_argument("--assembly-kernel",
                             choices=["reference", "fused", "native"],
                             default=None,
                             help="influence-matrix kernel (default: the "
                                  "REPRO_ASSEMBLY_KERNEL env var, else fused; "
                                  "see docs/kernels.md)")

    sub_serve = subparsers.add_parser(
        "serve", help="run the batched analysis HTTP service"
    )
    sub_serve.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    sub_serve.add_argument("--port", type=int, default=8000,
                           help="bind port (0 picks a free port)")
    sub_serve.add_argument("--max-batch", type=int, default=None,
                           help="micro-batch size cap (default: derived from "
                                "the pipeline slicing heuristics)")
    sub_serve.add_argument("--max-wait-ms", type=float, default=None,
                           help="micro-batch flush deadline in milliseconds "
                                "(default: derived)")
    sub_serve.add_argument("--cache-size", type=int, default=1024,
                           help="LRU result-cache capacity (0 disables)")
    sub_serve.add_argument("--workers", type=int, default=2,
                           help="worker threads")
    sub_serve.add_argument("--queue-limit", type=int, default=256,
                           help="admission bound before load shedding")
    sub_serve.add_argument("--default-deadline-ms", type=float, default=None,
                           metavar="MS",
                           help="deadline applied to requests that do not "
                                "carry their own X-Repro-Deadline-Ms header "
                                "or deadline_ms field; expired requests are "
                                "dropped before solving and answered 504 "
                                "(default: no deadline)")
    sub_serve.add_argument("--trace-sample", type=float, default=1.0,
                           metavar="RATE",
                           help="fraction of requests to trace, 0..1 "
                                "(deterministic stride sampling; default 1.0)")
    sub_serve.add_argument("--trace-ring", type=int, default=256,
                           metavar="N",
                           help="completed traces retained for /debug/trace "
                                "(default 256)")
    sub_serve.add_argument("--log-format", choices=["json", "text", "off"],
                           default="json",
                           help="structured request log on stderr: one line "
                                "per completion/failure/shed (default json)")
    sub_serve.add_argument("--slo-latency-ms", type=float, default=250.0,
                           metavar="MS",
                           help="latency objective per request; slower "
                                "successes count against the latency SLO "
                                "burn rate in /metrics (default 250)")
    sub_serve.add_argument("--slo-target", type=float, default=0.99,
                           metavar="FRACTION",
                           help="availability/latency objective in (0, 1); "
                                "burn rate 1.0 = burning exactly the error "
                                "budget (default 0.99)")
    sub_serve.add_argument("--assembly-kernel",
                           choices=["reference", "fused", "native"],
                           default=None,
                           help="influence-matrix kernel pinned for every "
                                "evaluation (default: REPRO_ASSEMBLY_KERNEL, "
                                "else fused; native compiles a C kernel at "
                                "startup and falls back to fused if no "
                                "compiler is available — see docs/kernels.md)")
    sub_serve.add_argument("--jobs-dir", metavar="DIR", default=None,
                           help="enable the durable jobs subsystem, storing "
                                "journal and checkpoints under DIR; jobs "
                                "interrupted by a crash resume on restart "
                                "(default: jobs disabled)")
    sub_serve.add_argument("--job-slots", type=int, default=1, metavar="N",
                           help="optimization jobs run concurrently "
                                "(default 1)")
    sub_serve.add_argument("--autotune", choices=["off", "advise", "apply"],
                           default=None,
                           help="online autotuning of the batching policy: "
                                "advise journals recommendations, apply also "
                                "swaps the live policy (default: the "
                                "REPRO_AUTOTUNE env var, else off; see "
                                "docs/autotune.md)")
    sub_serve.add_argument("--autotune-interval", type=float, default=30.0,
                           metavar="SECONDS",
                           help="autotune control-loop period (default 30)")
    sub_serve.add_argument("--autotune-min-improvement", type=float,
                           default=0.10, metavar="FRACTION",
                           help="hysteresis: minimum predicted fractional "
                                "improvement before the autotuner acts "
                                "(default 0.10)")

    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument("--host", default="127.0.0.1",
                            help="server address (default 127.0.0.1)")
    connection.add_argument("--port", type=int, default=8000,
                            help="server port (default 8000)")
    connection.add_argument("--timeout", type=float, default=60.0,
                            help="socket timeout per HTTP call, seconds")

    sub_jobs = subparsers.add_parser(
        "jobs", help="submit and track optimization jobs on a running server"
    )
    jobs_sub = sub_jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_submit = jobs_sub.add_parser(
        "submit", parents=[connection],
        help="POST a job spec and print the created record",
    )
    jobs_submit.add_argument("--spec", default=None, metavar="JSON",
                             help="full job spec as inline JSON, or @FILE "
                                  "to read it from a file; the flags below "
                                  "override individual fields")
    jobs_submit.add_argument("--seed", type=int, default=None,
                             help="RNG seed (default 0)")
    jobs_submit.add_argument("--generations", type=int, default=None,
                             help="GA generations")
    jobs_submit.add_argument("--population", type=int, default=None,
                             help="GA population size")
    jobs_submit.add_argument("--checkpoint-every", type=int, default=None,
                             metavar="K", help="checkpoint every K generations")
    jobs_submit.add_argument("--watch", action="store_true",
                             help="stream progress until the job finishes")
    jobs_status = jobs_sub.add_parser(
        "status", parents=[connection], help="print one job record as JSON"
    )
    jobs_status.add_argument("job_id")
    jobs_watch = jobs_sub.add_parser(
        "watch", parents=[connection],
        help="stream per-generation progress until the job finishes",
    )
    jobs_watch.add_argument("job_id")
    jobs_watch.add_argument("--poll", type=float, default=0.2, metavar="S",
                            help="poll interval in seconds (default 0.2)")
    jobs_cancel = jobs_sub.add_parser(
        "cancel", parents=[connection], help="request cooperative cancellation"
    )
    jobs_cancel.add_argument("job_id")
    jobs_sub.add_parser("list", parents=[connection],
                        help="list every job the server knows about")

    sub_cluster = subparsers.add_parser(
        "cluster", help="route the serve API across multiple replicas"
    )
    cluster_sub = sub_cluster.add_subparsers(dest="cluster_command",
                                             required=True)
    cluster_route = cluster_sub.add_parser(
        "route", help="run the consistent-hash cluster router"
    )
    cluster_route.add_argument("--replica", action="append", dest="replicas",
                               metavar="URL[=JOBS_DIR]", default=None,
                               help="one backend serve replica, e.g. "
                                    "http://127.0.0.1:8001 — repeat per "
                                    "replica; append =JOBS_DIR to enable "
                                    "checkpoint staging when migrating that "
                                    "replica's jobs")
    cluster_route.add_argument("--host", default="127.0.0.1",
                               help="router bind address (default 127.0.0.1)")
    cluster_route.add_argument("--port", type=int, default=8100,
                               help="router bind port (0 picks a free port)")
    cluster_route.add_argument("--vnodes", type=int, default=None,
                               help="virtual nodes per replica on the hash "
                                    "ring (default 64)")
    cluster_route.add_argument("--health-interval-ms", type=float,
                               default=500.0, metavar="MS",
                               help="mean /healthz probe interval per replica "
                                    "(default 500)")
    cluster_route.add_argument("--down-after", type=int, default=3,
                               metavar="N",
                               help="consecutive probe failures before a "
                                    "replica is DOWN (default 3)")
    cluster_route.add_argument("--up-after", type=int, default=1, metavar="N",
                               help="consecutive probe successes before a "
                                    "DOWN replica returns (default 1)")
    cluster_route.add_argument("--state-dir", metavar="DIR", default=None,
                               help="directory for the placement journal; "
                                    "placements then survive a router "
                                    "restart (default: in-memory only)")
    cluster_route.add_argument("--timeout", type=float, default=60.0,
                               help="proxy timeout per replica attempt, "
                                    "seconds (default 60)")
    cluster_route.add_argument("--trace-sample", type=float, default=1.0,
                               metavar="RATE",
                               help="fraction of routed requests to trace "
                                    "cluster-wide; the router's decision "
                                    "propagates to every hop via the "
                                    "X-Repro-Trace header (default 1.0)")
    cluster_route.add_argument("--trace-ring", type=int, default=256,
                               metavar="N",
                               help="completed router traces retained for "
                                    "/debug/trace stitching (default 256)")
    cluster_route.add_argument("--log-format",
                               choices=["json", "text", "off"],
                               default="json",
                               help="structured cluster event log on stderr: "
                                    "health transitions, failovers, "
                                    "migrations (default json)")
    cluster_route.add_argument("--slo-latency-ms", type=float, default=250.0,
                               metavar="MS",
                               help="cluster latency objective measured at "
                                    "the router, routing and failover "
                                    "included (default 250)")
    cluster_route.add_argument("--slo-target", type=float, default=0.99,
                               metavar="FRACTION",
                               help="cluster availability/latency objective "
                                    "in (0, 1) (default 0.99)")
    cluster_route.add_argument("--autotune",
                               choices=["off", "advise", "apply"],
                               default=None,
                               help="per-replica routing-weight tuning: "
                                    "advise journals recommendations, apply "
                                    "also reweights the hash ring (default: "
                                    "REPRO_AUTOTUNE, else off)")
    cluster_route.add_argument("--autotune-interval", type=float,
                               default=30.0, metavar="SECONDS",
                               help="weight-tuning loop period (default 30)")
    cluster_route.add_argument("--autotune-min-improvement", type=float,
                               default=0.10, metavar="FRACTION",
                               help="minimum fraction of traffic a reweight "
                                    "must move before acting (default 0.10)")
    cluster_sub.add_parser(
        "status", parents=[connection],
        help="print a running router's /cluster/status document",
    )
    return parser


def run_serve(arguments) -> int:
    """The ``serve`` command: start the service and block until SIGINT."""
    from repro.obs.logging import make_logger
    from repro.serve import AnalysisService, start_server

    max_wait = (None if arguments.max_wait_ms is None
                else arguments.max_wait_ms / 1e3)
    service = AnalysisService(
        max_batch=arguments.max_batch, max_wait=max_wait,
        cache_size=arguments.cache_size, n_workers=arguments.workers,
        queue_limit=arguments.queue_limit,
        default_deadline_ms=arguments.default_deadline_ms,
        trace_sample=arguments.trace_sample,
        trace_ring=arguments.trace_ring,
        logger=make_logger(arguments.log_format),
        slo_latency_ms=arguments.slo_latency_ms,
        slo_target=arguments.slo_target,
        assembly_kernel=arguments.assembly_kernel,
        jobs_dir=arguments.jobs_dir, job_slots=arguments.job_slots,
        autotune=arguments.autotune,
        autotune_interval=arguments.autotune_interval,
        autotune_min_improvement=arguments.autotune_min_improvement,
    )
    server = start_server(service, host=arguments.host, port=arguments.port)
    policy = service.policy
    deadline = ("none" if service.default_deadline_ms is None
                else f"{service.default_deadline_ms:g} ms")
    jobs_info = ("off" if service.jobs is None
                 else f"{arguments.jobs_dir} x{arguments.job_slots}")
    print(f"repro serve listening on http://{arguments.host}:{server.port}  "
          f"(max_batch={policy.max_batch}, "
          f"max_wait={1e3 * policy.max_wait:.1f} ms, "
          f"cache={service.cache.capacity}, workers={arguments.workers}, "
          f"queue_limit={arguments.queue_limit}, "
          f"default_deadline={deadline}, "
          f"assembly_kernel={service.assembly_kernel}, "
          f"jobs={jobs_info}, "
          f"autotune={'off' if service.autotuner is None else service.autotuner.config.mode}, "
          f"trace_sample={arguments.trace_sample:g}, "
          f"log_format={arguments.log_format})", flush=True)
    try:
        while not server.wait(3600.0):
            pass
    except KeyboardInterrupt:
        print("\ndraining...", flush=True)
    finally:
        server.stop()
        drained = service.close()
        print("drained and stopped" if drained else "stopped (drain timed out)",
              flush=True)
    return 0


def run_jobs(arguments) -> int:
    """The ``jobs`` command group: talk to a running server's jobs API."""
    import json

    from repro.serve.client import ServeClient

    client = ServeClient(arguments.host, arguments.port,
                         timeout=arguments.timeout)
    action = arguments.jobs_command
    if action == "submit":
        spec = _build_job_spec(arguments)
        record = client.submit_job(spec)
        if arguments.watch:
            print(f"submitted {record['id']}", flush=True)
            return _watch_job(client, record["id"], poll=0.2)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if action == "status":
        print(json.dumps(client.job(arguments.job_id), indent=2,
                         sort_keys=True))
        return 0
    if action == "watch":
        return _watch_job(client, arguments.job_id, poll=arguments.poll)
    if action == "cancel":
        record = client.cancel_job(arguments.job_id)
        print(f"{record['id']} {record['state']} "
              f"(cancel_requested={record['cancel_requested']})")
        return 0
    # list
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    for record in jobs:
        print(f"{record['id']}  {record['state']:<9} "
              f"gen {record['generations_done']}/{record['total_generations']}"
              f"  resumes={record['resumes']}"
              + (f"  error={record['error']}" if record.get("error") else ""))
    return 0


def run_cluster(arguments) -> int:
    """The ``cluster`` command group: run or inspect the router."""
    import json

    if arguments.cluster_command == "status":
        from repro.serve.client import ServeClient

        client = ServeClient(arguments.host, arguments.port,
                             timeout=arguments.timeout)
        print(json.dumps(client.cluster_status(), indent=2, sort_keys=True))
        return 0

    # route
    from repro.cluster import DEFAULT_VNODES, ClusterRouter, start_cluster_server
    from repro.errors import ClusterError
    from repro.obs.logging import make_logger

    replicas = arguments.replicas or []
    if not replicas:
        raise ClusterError(
            "cluster route needs at least one --replica URL"
        )
    if not arguments.health_interval_ms > 0.0:
        raise ClusterError(
            f"--health-interval-ms must be positive, "
            f"got {arguments.health_interval_ms}"
        )
    vnodes = DEFAULT_VNODES if arguments.vnodes is None else arguments.vnodes
    # Topology validation happens here, before anything binds or
    # probes: a malformed or duplicate --replica is a startup error.
    router = ClusterRouter(
        replicas, vnodes=vnodes, state_dir=arguments.state_dir,
        health_interval=arguments.health_interval_ms / 1e3,
        down_after=arguments.down_after, up_after=arguments.up_after,
        timeout=arguments.timeout,
        trace_sample=arguments.trace_sample,
        trace_ring=arguments.trace_ring,
        logger=make_logger(arguments.log_format),
        slo_latency_ms=arguments.slo_latency_ms,
        slo_target=arguments.slo_target,
        autotune=arguments.autotune,
        autotune_interval=arguments.autotune_interval,
        autotune_min_improvement=arguments.autotune_min_improvement,
    )
    router.start()
    server = start_cluster_server(router, host=arguments.host,
                                  port=arguments.port)
    names = ",".join(sorted(router.replicas))
    print(f"repro cluster router listening on "
          f"http://{arguments.host}:{server.port}  "
          f"(replicas=[{names}], vnodes={vnodes}, "
          f"health_interval={arguments.health_interval_ms:g} ms, "
          f"down_after={arguments.down_after}, "
          f"state_dir={arguments.state_dir or 'none'}, "
          f"trace_sample={arguments.trace_sample:g}, "
          f"slo={arguments.slo_latency_ms:g}ms@{arguments.slo_target:g}, "
          f"autotune={'off' if router.autotuner is None else router.autotuner.config.mode}, "
          f"log_format={arguments.log_format})", flush=True)
    try:
        while not server.wait(3600.0):
            pass
    except KeyboardInterrupt:
        print("\nstopping router...", flush=True)
    finally:
        server.stop()
        router.close()
        print("router stopped", flush=True)
    return 0


def _build_job_spec(arguments) -> dict:
    """Merge ``jobs submit`` flags over an optional ``--spec`` document."""
    import json

    from repro.errors import ServeError

    spec: dict = {}
    if arguments.spec is not None:
        text = arguments.spec
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as error:
            raise ServeError(f"--spec is not valid JSON: {error}")
        if not isinstance(spec, dict):
            raise ServeError("--spec must be a JSON object")
    ga = dict(spec.get("ga", {}))
    if arguments.seed is not None:
        spec["seed"] = arguments.seed
    if arguments.generations is not None:
        ga["generations"] = arguments.generations
    if arguments.population is not None:
        ga["population_size"] = arguments.population
    if arguments.checkpoint_every is not None:
        spec["checkpoint_every"] = arguments.checkpoint_every
    spec.setdefault("seed", 0)
    if ga:
        spec["ga"] = ga
    return spec


def _watch_job(client, job_id: str, *, poll: float) -> int:
    """Stream progress events until *job_id* reaches a terminal state."""
    import time

    from repro.jobs import JobState

    since = 0
    while True:
        page = client.job_events(job_id, since=since)
        for event in page["events"]:
            best = event.get("best_fitness")
            mean = event.get("mean_fitness")
            best_text = "n/a" if best is None else f"{float(best):.6g}"
            mean_text = "n/a" if mean is None else f"{float(mean):.6g}"
            print(f"gen {event['generation'] + 1}: "
                  f"best={best_text} mean={mean_text}", flush=True)
        since = page["next_since"]
        if page["state"] in JobState.TERMINAL:
            record = client.job(job_id)
            line = f"{job_id} {record['state']}"
            if record["state"] == JobState.DONE:
                champion = record["result"]["champion"]
                line += (f": best fitness {champion['fitness']} "
                         f"after {record['generations_done']} generations")
            elif record.get("error"):
                line += f": {record['error']}"
            print(line, flush=True)
            return 0 if record["state"] == JobState.DONE else 1
        time.sleep(poll)


def _analyze_with_timeout(run, timeout: float):
    """Evaluate ``run()`` with a client-side wall-clock budget.

    The evaluation runs in a daemon thread behind a
    :class:`~repro.serve.workers.PendingResult`; if the budget expires
    first the waiter cancels (detaches) and raises
    :class:`~repro.errors.DeadlineExceededError` rather than blocking
    indefinitely on a pathological input.
    """
    import threading

    from repro.errors import DeadlineExceededError, ServeError
    from repro.serve.workers import PendingResult

    if not timeout > 0.0:
        raise ServeError(f"--timeout must be positive, got {timeout}")
    pending = PendingResult()

    def work() -> None:
        try:
            pending.resolve(run())
        except BaseException as error:
            pending.fail(error)

    threading.Thread(target=work, name="repro-analyze", daemon=True).start()
    try:
        return pending.result(timeout=timeout)
    except ServeError:
        if pending.cancel():
            raise DeadlineExceededError(
                f"analysis did not finish within --timeout={timeout:g}s"
            )
        # Finished in the race window: surface the real outcome.
        return pending.result(timeout=None)


def _traced_run(request: AnalyzeRequest, stamps: List,
                kernel=None) -> "object":
    """Evaluate *request* while collecting stage stamps into *stamps*.

    Each entry is ``(stage, start, end, count)`` straight from the
    :func:`~repro.core.api.evaluate_requests` stage hook.
    """
    from repro.core.api import evaluate_requests

    result = evaluate_requests(
        [request],
        stage_hook=lambda stage, start, end, count:
            stamps.append((stage, start, end, count)),
        kernel=kernel,
    )[0]
    if isinstance(result, Exception):
        raise result
    return result


def _print_stage_breakdown(stamps: List, wall_seconds: float) -> None:
    """Print the paper-vocabulary W/A/L/O breakdown to stderr.

    W is the measured wall time of the whole evaluation, A and L sum
    the assembly and solve stamps, and O = W - L is everything that is
    not the batched LU — the identity the serving tracer also reports.
    """
    totals: dict = {}
    for stage, start, end, _count in stamps:
        totals[stage] = totals.get(stage, 0.0) + max(0.0, end - start)
    assembly = totals.get("assembly", 0.0)
    solve = totals.get("solve", 0.0)
    print("trace: stage breakdown (seconds)", file=sys.stderr)
    for stage in ("assembly", "solve", "postprocess"):
        if stage in totals:
            print(f"trace:   {stage:<12} {totals[stage]:.6f}", file=sys.stderr)
    print(f"trace:   W (wall)     {wall_seconds:.6f}", file=sys.stderr)
    print(f"trace:   A (assembly) {assembly:.6f}", file=sys.stderr)
    print(f"trace:   L (solve)    {solve:.6f}", file=sys.stderr)
    print(f"trace:   O (overhead) {wall_seconds - solve:.6f}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        if arguments.command == "analyze":
            reynolds = arguments.reynolds if arguments.reynolds > 0 else None
            request = AnalyzeRequest(
                airfoil=arguments.designation, alpha_degrees=arguments.alpha,
                reynolds=reynolds, n_panels=arguments.panels,
            )
            stamps: List = []
            kernel = arguments.assembly_kernel
            if arguments.trace:
                import time as time_module

                runner = lambda: _traced_run(request, stamps, kernel)  # noqa: E731
                run_started = time_module.monotonic()
            else:
                runner = lambda: request.run(kernel=kernel)  # noqa: E731
            if arguments.timeout is not None:
                result = _analyze_with_timeout(runner, arguments.timeout)
            else:
                result = runner()
            if arguments.trace:
                _print_stage_breakdown(
                    stamps, time_module.monotonic() - run_started
                )
            if arguments.json:
                print(canonical_json(serialize_analysis(request, result)))
            else:
                print(result.summary())
            return 0
        if arguments.command == "serve":
            return run_serve(arguments)
        if arguments.command == "jobs":
            return run_jobs(arguments)
        if arguments.command == "cluster":
            return run_cluster(arguments)
        if arguments.command == "report":
            from repro.experiments.markdown import generate_experiments_markdown

            print(generate_experiments_markdown(), end="")
            return 0
        if arguments.command == "all":
            for result in run_all():
                print(result.text)
                print()
                if arguments.artifacts:
                    for path in result.save_artifacts(arguments.artifacts):
                        print(f"  wrote {path}")
            return 0
        result = run_experiment(arguments.command)
        print(result.text)
        if arguments.artifacts:
            for path in result.save_artifacts(arguments.artifacts):
                print(f"  wrote {path}")
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
