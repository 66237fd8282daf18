"""Command-line interface.

Usage::

    python -m repro.cli generate --content brain --out video.npz
    python -m repro.cli encode video.npz --qp 32 --search hexagon --tiles 2x2
    python -m repro.cli transcode video.npz [--baseline]
    python -m repro.cli serve --metrics-out metrics.json --trace-out trace.jsonl
    python -m repro.cli serve-net --port 9470 [--duration 10] [--journal-dir j]
    python -m repro.cli serve-fleet --workers 4 --journal-dir j [--port 9470]
    python -m repro.cli loadgen --port 9470 --sessions 3 [--max-reconnects 3]
    python -m repro.cli chaos --port 9471 --upstream-port 9470 --reset-rate 0.01
    python -m repro.cli metrics metrics.json [--prom]
    python -m repro.cli experiment table1|fig3|table2|fig4 [options...]

``generate`` writes a synthetic bio-medical video; ``encode`` runs the
codec substrate with a fixed configuration and reports PSNR/bitrate and
simulated CPU time; ``transcode`` runs the full content-aware pipeline
(or the [19] baseline); ``experiment`` regenerates one of the paper's
tables/figures (forwarding the remaining arguments to that harness).

``serve`` runs the multi-user serving simulation end-to-end (measure a
small corpus, pack users with Algorithm 2) and exports the
observability artifacts: ``--metrics-out`` writes the metrics registry
snapshot as JSON, ``--trace-out`` enables span tracing and writes the
trace buffer as JSONL.  ``metrics`` pretty-prints such a snapshot
(``--prom`` emits Prometheus text exposition instead).

``serve-net`` runs the real asyncio network front-end (admission
control, backpressure, online GOP encoding); ``loadgen`` drives it with
a seeded arrival process and content mix and prints a latency /
deadline-miss report.  ``--seed`` on ``serve``/``loadgen`` makes every
stochastic component (corpus, arrivals, content mix) reproducible.

``serve-net --journal-dir`` enables the fault-tolerance stack of
``DESIGN.md`` §11: per-session journals, RESUME after a connection
loss, SIGTERM graceful drain (parked sessions survive a restart) and a
warm LUT checkpoint.  ``loadgen --max-reconnects N`` makes the clients
fault tolerant (exponential backoff + seeded jitter, RESUME with the
server's token).  ``chaos`` interposes a seeded TCP fault proxy —
latency spikes, resets, corruption, half-open stalls, or a
deterministic mid-stream cut — between the two.

``serve-fleet`` runs the supervised multi-worker fleet of ``DESIGN.md``
§12: N worker processes behind one public port, heartbeat monitoring,
crash restarts with exponential backoff and a flap circuit breaker, and
cross-worker session adoption — a RESUME token whose owning worker died
is adopted by a survivor from the shared ``--journal-dir``.  The
long-running commands accept ``--run-dir`` so their pidfiles land in a
dedicated run directory instead of the CWD.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.codec.config import EncoderConfig, GopConfig
from repro.codec.encoder import VideoEncoder
from repro.motion.registry import SEARCH_REGISTRY
from repro.platform.cost_model import CostModel
from repro.platform.mpsoc import XEON_E5_2667
from repro.tiling.uniform import uniform_tiling
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video import io as video_io
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        width=args.width, height=args.height, num_frames=args.frames,
        fps=args.fps, content_class=ContentClass(args.content),
        motion=MotionPreset(args.motion), motion_magnitude=args.magnitude,
        seed=args.seed,
    )
    video = BioMedicalVideoGenerator(cfg).generate()
    video_io.save_npz(video, args.out)
    print(f"wrote {args.out}: {video.name}, {len(video)} frames "
          f"{video.width}x{video.height} @ {video.fps:g} fps")
    return 0


def _parse_tiles(spec: str):
    try:
        cols, rows = (int(x) for x in spec.lower().split("x"))
    except ValueError:
        raise SystemExit(f"invalid tiling {spec!r}; expected e.g. 2x2")
    return cols, rows


def _cmd_encode(args: argparse.Namespace) -> int:
    video = video_io.load_npz(args.video)
    cols, rows = _parse_tiles(args.tiles)
    grid = uniform_tiling(video.width, video.height, cols, rows)
    config = EncoderConfig(qp=args.qp, search=args.search,
                           search_window=args.window)
    encoder = VideoEncoder(config, GopConfig(args.gop))
    stats = encoder.encode(video, grid)
    cpu = CostModel().seconds(stats.ops, XEON_E5_2667.f_max)
    print(f"encoded {len(stats.frames)} frames "
          f"({cols}x{rows} tiles, QP {args.qp}, {args.search}/{args.window})")
    print(f"  PSNR   : {stats.average_psnr:.2f} dB")
    print(f"  bitrate: {stats.bitrate_mbps(video.fps):.3f} Mbps")
    print(f"  CPU    : {cpu:.3f} simulated seconds at f_max "
          f"({cpu / len(stats.frames) * 1e3:.1f} ms/frame)")
    return 0


def _cmd_transcode(args: argparse.Namespace) -> int:
    video = video_io.load_npz(args.video)
    if args.baseline:
        config = PipelineConfig.khan(fps=video.fps)
        label = "Khan et al. [19] baseline"
    else:
        config = PipelineConfig(fps=video.fps)
        label = "proposed content-aware pipeline"
    with StreamTranscoder(config) as transcoder:
        trace = transcoder.run(video)
    gop = trace.steady_state_gop()
    times = gop.mean_tile_cpu_times()
    print(f"transcoded with the {label}:")
    print(f"  PSNR   : {trace.average_psnr:.2f} dB "
          f"(min {trace.min_psnr:.2f} / max {trace.max_psnr:.2f})")
    print(f"  bitrate: {trace.bitrate_mbps:.3f} Mbps")
    print(f"  tiling : {len(gop.grid)} tiles, frame CPU {sum(times) * 1e3:.1f} ms")
    for content, cpu in zip(gop.contents, times):
        t = content.tile
        print(f"    ({t.x:>4},{t.y:>4}) {t.width:>4}x{t.height:<4} "
              f"{cpu * 1e3:6.2f} ms")
    return 0


def _parse_rungs(specs):
    rungs = []
    for spec in specs:
        try:
            w, h = (int(x) for x in spec.lower().split("x"))
        except ValueError:
            raise SystemExit(f"invalid rung {spec!r}; expected e.g. 480x360")
        rungs.append((w, h))
    return tuple(rungs)


def _cmd_ladder(args: argparse.Namespace) -> int:
    from repro.ladder import (
        LadderConfig,
        LadderRung,
        LadderSegmentWriter,
        LadderSession,
        default_rungs_for,
    )

    if args.video:
        video = video_io.load_npz(args.video)
    else:
        video = BioMedicalVideoGenerator(GeneratorConfig(
            width=args.width, height=args.height, num_frames=args.frames,
            fps=args.fps, content_class=ContentClass(args.content),
            seed=args.seed,
        )).generate()
    if args.rungs:
        rungs = tuple(LadderRung(w, h) for w, h in _parse_rungs(args.rungs))
    else:
        rungs = default_rungs_for(video.width, video.height)
    ladder_cfg = LadderConfig(
        rungs=rungs, prune=not args.no_prune,
        min_gain_db=args.min_gain_db, segment_gops=args.segment_gops,
    )
    pipeline = PipelineConfig(fps=video.fps, gop=GopConfig(args.gop))
    writer = None
    with LadderSession(base_config=pipeline, ladder=ladder_cfg) as session:
        for frame in video.frames:
            outputs = session.push(frame)
            if writer is None:
                # The plan exists after the first push (planning needs
                # the first frame's features).
                writer = LadderSegmentWriter(
                    args.out, session.plan, video.width, video.height,
                    gop=args.gop, segment_gops=args.segment_gops,
                    fps=video.fps,
                )
            for out in outputs:
                writer.add(out)
        session.finish()
        manifest = writer.finalize()
    print(f"wrote {args.out}: ladder of {len(manifest['rungs'])} rung(s) "
          f"from {video.width}x{video.height} "
          f"(complexity {manifest['complexity']:.3f})")
    for rung in manifest["rungs"]:
        frames = sum(s["frames"] for s in rung["segments"])
        print(f"  rung {rung['id']} {rung['name']:>5} "
              f"{rung['width']}x{rung['height']}: "
              f"{len(rung['segments'])} segment(s), {frames} frames")
    for pruned in manifest["pruned"]:
        print(f"  rung {pruned['id']} pruned "
              f"(predicted gain {pruned['predicted_gain_db']:.2f} dB "
              f"< {args.min_gain_db:g} dB)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.allocation.proposed import ProposedAllocator
    from repro.experiments.common import medical_corpus
    from repro.observability import (
        disable_tracing,
        enable_tracing,
        get_registry,
        get_tracer,
    )
    from repro.transcode.server import TranscodingServer
    from repro.workload.estimator import WorkloadEstimator

    server = TranscodingServer(fps=args.fps)
    if args.trace_out:
        enable_tracing()
    try:
        videos = medical_corpus(
            width=args.width, height=args.height, num_frames=args.frames,
            seed=args.seed, num_videos=args.videos,
        )
        estimator = WorkloadEstimator()
        traces = []
        for video in videos:
            config = PipelineConfig(fps=args.fps)
            with StreamTranscoder(config, estimator=estimator) as transcoder:
                traces.append(transcoder.run(video))
        report = server.serve(
            traces, ProposedAllocator(), num_users=args.users
        )
        print(f"served {report.num_users_served}/{report.num_users_requested} "
              f"users at {args.fps:g} fps "
              f"({report.average_power_w:.1f} W average)")
        if report.psnr_avg is not None:
            print(f"  PSNR   : {report.psnr_avg:.2f} dB avg")
        if report.bitrate_avg_mbps is not None:
            print(f"  bitrate: {report.bitrate_avg_mbps:.3f} Mbps avg")
        if args.metrics_out:
            with open(args.metrics_out, "w") as fh:
                fh.write(get_registry().to_json())
                fh.write("\n")
            print(f"wrote metrics snapshot to {args.metrics_out}")
        if args.trace_out:
            n = get_tracer().to_jsonl(args.trace_out)
            print(f"wrote {n} trace records to {args.trace_out}")
        return 0
    finally:
        if args.trace_out:
            disable_tracing()


def _enter_run_dir(run_dir: Optional[str], name: str) -> Optional[str]:
    """Materialise ``run_dir`` and drop ``<name>.pid`` into it.

    Long-running commands (``serve-net``, ``serve-fleet``, ``chaos``)
    own their runtime artifacts: the pidfile lands in the run directory
    instead of whatever the shell's CWD happens to be (historically the
    repo root), so harnesses that background them can find the pid
    without ``echo $! > server.pid`` debris.  Returns the pidfile path,
    or ``None`` when no run directory was requested.
    """
    if not run_dir:
        return None
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, f"{name}.pid")
    with open(path, "w") as fh:
        fh.write(f"{os.getpid()}\n")
    return path


def _cmd_serve_net(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.observability import get_registry
    from repro.serving.admission import AdmissionPolicy
    from repro.serving.server import NetworkServer, ServeNetConfig

    _enter_run_dir(args.run_dir, "server")
    config = ServeNetConfig(
        host=args.host, port=args.port, queue_frames=args.queue_frames,
        egress_frames=args.egress_frames,
        admission=AdmissionPolicy(utilization=args.utilization,
                                  park_capacity=args.park_capacity),
        journal_dir=args.journal_dir,
        watchdog_multiple=args.watchdog_multiple,
        watchdog_min_s=args.watchdog_min,
        drain_grace_s=args.drain_grace,
        policy_file=args.policy,
    )

    async def run() -> None:
        server = NetworkServer(config)
        await server.start()
        print(f"serving on {config.host}:{server.port} "
              f"(queue {config.queue_frames} frames)", flush=True)
        loop = asyncio.get_running_loop()
        term = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, term.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without signal handlers (e.g. Windows loop)
        try:
            forever = asyncio.ensure_future(server.serve_forever())
            stop = asyncio.ensure_future(term.wait())
            done, _ = await asyncio.wait(
                {forever, stop}, timeout=args.duration,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if stop in done:
                print("SIGTERM: draining (admissions stopped, "
                      "flushing in-flight sessions)", flush=True)
            for task in (forever, stop):
                task.cancel()
            await asyncio.gather(forever, stop, return_exceptions=True)
        finally:
            # Graceful path for every exit: journaled sessions park,
            # the LUT checkpoint lands next to the journals.
            await server.drain()
            if args.metrics_out:
                with open(args.metrics_out, "w") as fh:
                    fh.write(get_registry().to_json())
                    fh.write("\n")
                print(f"wrote metrics snapshot to {args.metrics_out}")
        print("drained; exiting", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shut down")
    return 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from repro.serving.admission import AdmissionPolicy
    from repro.serving.fleet import (
        FleetConfig,
        FleetSupervisor,
        RestartPolicy,
    )
    from repro.serving.server import ServeNetConfig

    _enter_run_dir(args.run_dir, "supervisor")
    server = ServeNetConfig(
        queue_frames=args.queue_frames,
        egress_frames=args.egress_frames,
        admission=AdmissionPolicy(utilization=args.utilization,
                                  park_capacity=args.park_capacity),
        journal_dir=args.journal_dir,
        drain_grace_s=args.drain_grace,
        policy_file=args.policy,
    )
    config = FleetConfig(
        workers=args.workers, host=args.host, port=args.port,
        heartbeat_s=args.heartbeat, server=server,
        restart=RestartPolicy(backoff_base_s=args.backoff_base,
                              breaker_threshold=args.breaker_threshold),
        drain_grace_s=args.drain_grace,
    )

    async def run() -> None:
        supervisor = FleetSupervisor(config)
        await supervisor.start()
        await supervisor.wait_ready()
        print(f"fleet serving on {config.host}:{supervisor.port} "
              f"({config.workers} workers)", flush=True)
        loop = asyncio.get_running_loop()
        term = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, term.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without signal handlers (e.g. Windows loop)
        try:
            stop = asyncio.ensure_future(term.wait())
            done, _ = await asyncio.wait({stop}, timeout=args.duration)
            if stop in done:
                print("SIGTERM: draining fleet (admissions stopped, "
                      "in-flight sessions parking)", flush=True)
            stop.cancel()
            await asyncio.gather(stop, return_exceptions=True)
        finally:
            await supervisor.drain()
            if args.metrics_out:
                with open(args.metrics_out, "w") as fh:
                    json.dump(supervisor.metrics_snapshot(), fh)
                    fh.write("\n")
                print(f"wrote metrics snapshot to {args.metrics_out}")
        print("fleet drained; exiting", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shut down")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.chaos import ChaosConfig, ChaosProxy

    _enter_run_dir(args.run_dir, "chaos")
    config = ChaosConfig(
        seed=args.seed,
        latency_spike_rate=args.latency_rate,
        latency_spike_s=args.latency_s,
        reset_rate=args.reset_rate,
        corrupt_rate=args.corrupt_rate,
        stall_rate=args.stall_rate,
        stall_s=args.stall_s,
        cut_after_c2s_bytes=args.cut_after,
        cut_connections=args.cut_connections,
    )

    async def run() -> None:
        proxy = ChaosProxy(args.upstream_host, args.upstream_port,
                           config, host=args.host, port=args.port)
        await proxy.start()
        print(f"chaos proxy on {proxy.host}:{proxy.port} -> "
              f"{args.upstream_host}:{args.upstream_port} "
              f"(seed {config.seed})", flush=True)
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            await proxy.stop()
            print("chaos proxy stopped; injected "
                  + (", ".join(f"{k}={v}"
                               for k, v in sorted(proxy.counts.items()))
                     or "nothing"), flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; proxy stopped")
    return 0


def _parse_weighted(specs) -> tuple:
    """Parse ``NAME[:WEIGHT]`` argument lists into weighted tuples."""
    if not specs:
        return ()
    pairs = []
    for spec in specs:
        name, _, weight = spec.partition(":")
        pairs.append((name, float(weight) if weight else 1.0))
    return tuple(pairs)


def _cmd_policy(args: argparse.Namespace) -> int:
    from repro.policy import PolicyError, compile_policy, load_policy_file

    try:
        policy = compile_policy(load_policy_file(args.file))
    except PolicyError as exc:
        print(f"policy invalid: {exc}", file=sys.stderr)
        return 1
    if args.action == "validate":
        print(f"{args.file}: OK ({len(policy.tenants)} tenants, "
              f"shed order {' -> '.join(policy.shed_order) or 'none'})")
        return 0
    # show: the compiled lowering, knob by knob.
    print(f"policy {args.file} (version {policy.version})")
    print(f"  default     : {policy.default_tenant}")
    print(f"  shed order  : {' -> '.join(policy.shed_order) or 'none'}")
    for name in policy.tenant_names():
        rt = policy.tenants[name]
        rungs = f", max {rt.max_rungs} rungs" if rt.max_rungs else ""
        print(f"  tenant {name:>8s}: rank {rt.rank}, "
              f"{rt.capacity_fraction:.0%} of cores, degradation <= "
              f"{rt.max_level.name.lower()} (escalate after "
              f"{rt.escalate_after}){rungs}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serving.loadgen import LoadGenConfig, run_loadgen
    from repro.video.generator import ContentClass as _CC

    mix = None
    if args.mix:
        pairs = []
        for spec in args.mix:
            name, _, weight = spec.partition(":")
            pairs.append((_CC(name), float(weight) if weight else 1.0))
        mix = tuple(pairs)
    config = LoadGenConfig(
        host=args.host, port=args.port, sessions=args.sessions,
        frames=args.frames, width=args.width, height=args.height,
        fps=args.fps, gop=args.gop, arrival=args.arrival,
        rate_hz=args.rate, burst_size=args.burst_size,
        frame_interval_s=args.frame_interval, seed=args.seed,
        max_reconnects=args.max_reconnects,
        backoff_base_s=args.backoff_base,
        backoff_max_s=args.backoff_max,
        backoff_jitter=args.backoff_jitter,
        ladder=_parse_rungs(args.ladder) if args.ladder else (),
        tenants=_parse_weighted(args.tenants),
        surge_tenants=_parse_weighted(args.surge_tenants),
        scenario=args.scenario,
        **({"mix": mix} if mix else {}),
    )
    report = run_loadgen(config)
    print(report.summary())
    if args.json_out:
        import json

        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote report to {args.json_out}")
    return 1 if (report.protocol_errors or report.errored) else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.observability.metrics import MetricsRegistry, format_metrics

    with open(args.snapshot) as fh:
        data = json.load(fh)
    if args.prom:
        print(MetricsRegistry.from_dict(data).to_prometheus_text(), end="")
    else:
        print(format_metrics(data))
    return 0


def _cmd_torture(args: argparse.Namespace) -> int:
    from repro.storage.torture import main as torture_main

    return torture_main(["--update-golden"] if args.update_golden else [])


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import fig3, fig4, table1, table2
    module = {"table1": table1, "fig3": fig3, "table2": table2,
              "fig4": fig4}[args.name]
    module.main(args.rest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic bio-medical video")
    g.add_argument("--out", required=True)
    g.add_argument("--content", default="brain",
                   choices=[c.value for c in ContentClass])
    g.add_argument("--motion", default="pan_right",
                   choices=[m.value for m in MotionPreset])
    g.add_argument("--magnitude", type=float, default=1.5)
    g.add_argument("--width", type=int, default=640)
    g.add_argument("--height", type=int, default=480)
    g.add_argument("--frames", type=int, default=48)
    g.add_argument("--fps", type=float, default=24.0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_generate)

    e = sub.add_parser("encode", help="encode with a fixed configuration")
    e.add_argument("video", help="input .npz (from `generate`)")
    e.add_argument("--qp", type=int, default=32)
    e.add_argument("--search", default="hexagon",
                   choices=sorted(SEARCH_REGISTRY))
    e.add_argument("--window", type=int, default=64)
    e.add_argument("--tiles", default="1x1")
    e.add_argument("--gop", type=int, default=8)
    e.set_defaults(func=_cmd_encode)

    t = sub.add_parser("transcode", help="run the full pipeline")
    t.add_argument("video")
    t.add_argument("--baseline", action="store_true",
                   help="use the Khan et al. [19] baseline instead")
    t.set_defaults(func=_cmd_transcode)

    la = sub.add_parser(
        "ladder",
        help="encode a rendition ladder into GOP-aligned segments",
    )
    la.add_argument("--video", default=None,
                    help="input .npz (from `generate`); omitted = synthesize")
    la.add_argument("--out", required=True, metavar="DIR",
                    help="segment directory (manifest.json + rung*/...)")
    la.add_argument("--content", default="brain",
                    choices=[c.value for c in ContentClass])
    la.add_argument("--width", type=int, default=640)
    la.add_argument("--height", type=int, default=480)
    la.add_argument("--frames", type=int, default=16)
    la.add_argument("--fps", type=float, default=24.0)
    la.add_argument("--seed", type=int, default=0)
    la.add_argument("--gop", type=int, default=8)
    la.add_argument("--segment-gops", type=int, default=2,
                    help="segment length in GOPs (boundaries stay "
                         "GOP-aligned)")
    la.add_argument("--rungs", nargs="+", default=None, metavar="WxH",
                    help="ladder rungs, largest first (default: full, "
                         "3/4 and 1/2 scale of the ingest)")
    la.add_argument("--no-prune", action="store_true",
                    help="disable Green-VCA content pruning")
    la.add_argument("--min-gain-db", type=float, default=1.0,
                    help="minimum predicted gain an intermediate rung "
                         "must buy to survive pruning")
    la.set_defaults(func=_cmd_ladder)

    s = sub.add_parser(
        "serve",
        help="run the serving simulation and export metrics/traces",
    )
    s.add_argument("--videos", type=int, default=2,
                   help="corpus size (representative measured streams)")
    s.add_argument("--frames", type=int, default=8)
    s.add_argument("--width", type=int, default=96)
    s.add_argument("--height", type=int, default=80)
    s.add_argument("--fps", type=float, default=24.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--users", type=int, default=None,
                   help="requested users (default: saturated queue)")
    s.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the metrics registry snapshot as JSON")
    s.add_argument("--trace-out", default=None, metavar="PATH",
                   help="enable span tracing and write JSONL records")
    s.set_defaults(func=_cmd_serve)

    sn = sub.add_parser(
        "serve-net",
        help="run the asyncio network serving front-end",
    )
    sn.add_argument("--host", default="127.0.0.1")
    sn.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral; the bound port is printed)")
    sn.add_argument("--queue-frames", type=int, default=16,
                    help="per-session ingest queue bound")
    sn.add_argument("--egress-frames", type=int, default=32,
                    help="per-session egress queue bound")
    sn.add_argument("--utilization", type=float, default=1.0,
                    help="fraction of cores admission may fill")
    sn.add_argument("--park-capacity", type=int, default=2,
                    help="waiting-room size for parked sessions")
    sn.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                    help="stop after this long (default: run until ^C)")
    sn.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the metrics snapshot as JSON on shutdown")
    sn.add_argument("--journal-dir", default=None, metavar="DIR",
                    help="per-session journal directory (enables RESUME, "
                         "drain parking and the warm LUT checkpoint)")
    sn.add_argument("--watchdog-multiple", type=float, default=0.0,
                    help="cancel an encode exceeding this multiple of the "
                         "GOP real-time budget (0 = watchdog off)")
    sn.add_argument("--watchdog-min", type=float, default=0.25,
                    metavar="SECONDS", help="watchdog deadline floor")
    sn.add_argument("--drain-grace", type=float, default=10.0,
                    metavar="SECONDS",
                    help="SIGTERM drain: max wait for in-flight sessions")
    sn.add_argument("--policy", default=None, metavar="FILE",
                    help="tenant policy document (YAML/JSON); compiles "
                         "into admission weights, shed order, "
                         "degradation caps and ladder caps")
    sn.add_argument("--run-dir", default=None, metavar="DIR",
                    help="directory for runtime artifacts (pidfile); "
                         "created if missing")
    sn.set_defaults(func=_cmd_serve_net)

    sf = sub.add_parser(
        "serve-fleet",
        help="supervised multi-worker serving fleet with crash failover",
    )
    sf.add_argument("--workers", type=int, default=2,
                    help="number of worker processes")
    sf.add_argument("--host", default="127.0.0.1")
    sf.add_argument("--port", type=int, default=0,
                    help="public TCP port of the router (0 = ephemeral)")
    sf.add_argument("--queue-frames", type=int, default=16)
    sf.add_argument("--egress-frames", type=int, default=32)
    sf.add_argument("--utilization", type=float, default=1.0,
                    help="fraction of cores admission may fill, split "
                         "evenly across workers")
    sf.add_argument("--park-capacity", type=int, default=2,
                    help="per-worker waiting-room size (the fleet-wide "
                         "park scales with live workers)")
    sf.add_argument("--journal-dir", required=True, metavar="DIR",
                    help="shared state directory (journals, leases, LUT "
                         "checkpoint); required — adoption needs it")
    sf.add_argument("--heartbeat", type=float, default=0.25,
                    metavar="SECONDS", help="worker heartbeat interval")
    sf.add_argument("--backoff-base", type=float, default=0.25,
                    metavar="SECONDS", help="first restart backoff delay")
    sf.add_argument("--breaker-threshold", type=int, default=5,
                    help="worker deaths in the flap window before the "
                         "slot's circuit breaker opens")
    sf.add_argument("--drain-grace", type=float, default=10.0,
                    metavar="SECONDS")
    sf.add_argument("--duration", type=float, default=None,
                    metavar="SECONDS",
                    help="stop after this long (default: run until ^C)")
    sf.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the merged fleet metrics snapshot as "
                         "JSON on shutdown")
    sf.add_argument("--policy", default=None, metavar="FILE",
                    help="tenant policy document; the router enforces "
                         "fleet-wide entitlements and every worker "
                         "enforces it locally")
    sf.add_argument("--run-dir", default=None, metavar="DIR",
                    help="directory for runtime artifacts (pidfile); "
                         "created if missing")
    sf.set_defaults(func=_cmd_serve_fleet)

    ch = sub.add_parser(
        "chaos",
        help="seeded TCP chaos proxy in front of serve-net",
    )
    ch.add_argument("--host", default="127.0.0.1")
    ch.add_argument("--port", type=int, default=0,
                    help="listen port (0 = ephemeral; printed on start)")
    ch.add_argument("--upstream-host", default="127.0.0.1")
    ch.add_argument("--upstream-port", type=int, required=True)
    ch.add_argument("--seed", type=int, default=0,
                    help="seed of the per-connection fault schedule")
    ch.add_argument("--latency-rate", type=float, default=0.0,
                    help="per-chunk latency-spike probability")
    ch.add_argument("--latency-s", type=float, default=0.05)
    ch.add_argument("--reset-rate", type=float, default=0.0,
                    help="per-chunk connection-reset probability")
    ch.add_argument("--corrupt-rate", type=float, default=0.0,
                    help="per-chunk byte-corruption probability")
    ch.add_argument("--stall-rate", type=float, default=0.0,
                    help="per-chunk half-open stall probability")
    ch.add_argument("--stall-s", type=float, default=0.25)
    ch.add_argument("--cut-after", type=int, default=0, metavar="BYTES",
                    help="deterministic cut after exactly this many "
                         "client->server bytes (0 = off)")
    ch.add_argument("--cut-connections", type=int, default=1,
                    help="only the first N connections suffer the cut")
    ch.add_argument("--duration", type=float, default=None,
                    metavar="SECONDS",
                    help="stop after this long (default: run until ^C)")
    ch.add_argument("--run-dir", default=None, metavar="DIR",
                    help="directory for runtime artifacts (pidfile); "
                         "created if missing")
    ch.set_defaults(func=_cmd_chaos)

    lg = sub.add_parser(
        "loadgen",
        help="drive serve-net with a seeded arrival process",
    )
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, required=True)
    lg.add_argument("--sessions", type=int, default=3)
    lg.add_argument("--frames", type=int, default=16,
                    help="frames per session (default: two GOPs)")
    lg.add_argument("--width", type=int, default=96)
    lg.add_argument("--height", type=int, default=96)
    lg.add_argument("--fps", type=float, default=24.0)
    lg.add_argument("--gop", type=int, default=8)
    lg.add_argument("--arrival", default="poisson",
                    choices=["poisson", "burst"])
    lg.add_argument("--rate", type=float, default=20.0,
                    help="mean session arrival rate (sessions/s)")
    lg.add_argument("--burst-size", type=int, default=4)
    lg.add_argument("--frame-interval", type=float, default=0.0,
                    help="inter-frame pacing in seconds (0 = flat out)")
    lg.add_argument("--mix", nargs="+", default=None, metavar="CLASS[:W]",
                    help="weighted content mix, e.g. brain:2 lung:1")
    lg.add_argument("--seed", type=int, default=0,
                    help="seed for arrivals, content mix and video synthesis")
    lg.add_argument("--json-out", default=None, metavar="PATH",
                    help="also write the report as JSON")
    lg.add_argument("--max-reconnects", type=int, default=0,
                    help="per-session reconnect budget (0 = give up on "
                         "the first connection loss)")
    lg.add_argument("--backoff-base", type=float, default=0.05,
                    metavar="SECONDS", help="initial reconnect backoff")
    lg.add_argument("--backoff-max", type=float, default=2.0,
                    metavar="SECONDS", help="reconnect backoff ceiling")
    lg.add_argument("--ladder", nargs="+", default=None, metavar="WxH",
                    help="request a rendition ladder per session "
                         "(rungs largest first, e.g. 96x96 72x72 48x48)")
    lg.add_argument("--tenants", nargs="+", default=None,
                    metavar="NAME[:W]",
                    help="weighted tenant mix sessions bill to "
                         "(omit for pre-policy HELLOs)")
    lg.add_argument("--surge-tenants", nargs="+", default=None,
                    metavar="NAME[:W]",
                    help="tenant mix of the surge cohort "
                         "(scenario=surge; defaults to --tenants)")
    lg.add_argument("--scenario", default="",
                    choices=["", "surge", "diurnal"],
                    help="load shape: mixed-tenant mid-run surge, or "
                         "diurnal hospital-shift arrivals")
    lg.add_argument("--backoff-jitter", type=float, default=0.5,
                    help="seeded jitter fraction applied to each backoff")
    lg.set_defaults(func=_cmd_loadgen)

    po = sub.add_parser(
        "policy",
        help="validate or inspect a tenant policy document",
    )
    po.add_argument("action", choices=["validate", "show"],
                    help="validate: parse+compile; show: print the "
                         "compiled knobs")
    po.add_argument("file", help="policy document (YAML or JSON)")
    po.set_defaults(func=_cmd_policy)

    m = sub.add_parser(
        "metrics",
        help="pretty-print a metrics.json snapshot",
    )
    m.add_argument("snapshot", help="metrics JSON written by `serve`")
    m.add_argument("--prom", action="store_true",
                   help="emit Prometheus text exposition instead")
    m.set_defaults(func=_cmd_metrics)

    to = sub.add_parser(
        "torture",
        help="crash-consistency torture harness over the storage layer",
    )
    to.add_argument("--update-golden", action="store_true",
                    dest="update_golden",
                    help="rewrite tests/golden/torture_points.json from "
                         "this run's write-point digest")
    to.set_defaults(func=_cmd_torture)

    x = sub.add_parser("experiment", help="regenerate a paper table/figure")
    x.add_argument("name", choices=["table1", "fig3", "table2", "fig4"])
    x.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments forwarded to the harness")
    x.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; treat as a clean exit,
        # and detach stdout so the interpreter's shutdown flush does not
        # raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
