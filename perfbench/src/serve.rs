//! The socket serving workloads: an in-process `Server` with one
//! worker, two sessions on one connection each, open-loop load.

use crate::loadgen::{run_phase, Client, PhasePlan, PhaseResult, RoutePose};
use crate::report::{self, Checks, Metrics};
use crate::stats;
use coterie_server::stream::Listener;
use coterie_server::{Server, ServerConfig, ServiceCore};
use coterie_telemetry::{
    chrome_trace_json_full, validate_chrome_trace, SpanEvent, TelemetryConfig, TelemetrySink,
    WallClock, VSYNC_BUDGET_MS,
};
use coterie_world::{GameId, GameSpec, Trajectory};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the server's worlds. Fixed: the benchmark seed varies only
/// the poses the sessions send.
pub const WORLD_SEED: u64 = 42;

/// Game-clock interval between consecutive poses of a route, ms.
const POSE_INTERVAL_MS: f64 = 1000.0 / 60.0;

/// A serving workload.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Workload name.
    pub name: &'static str,
    /// `(game, room)` of each session.
    pub sessions: Vec<(GameId, u32)>,
    /// Poses in each session's route; sessions replay their route
    /// cyclically.
    pub route_poses: usize,
    /// Frame-store byte budget.
    pub store_bytes: u64,
    /// Replay every route once, untimed, before any timed phase.
    pub warm: bool,
}

impl ServeWorkload {
    /// Two sessions in one Corridor room, store warmed: the reply path.
    pub fn hot() -> ServeWorkload {
        ServeWorkload {
            name: "serve_hot",
            sessions: vec![(GameId::Corridor, 0), (GameId::Corridor, 0)],
            // 10 s of walking per session: every pose's payload fits
            // the service's payload cache, so a warmed store serves
            // real hits.
            route_poses: 600,
            store_bytes: ServerConfig::default().store_bytes,
            warm: true,
        }
    }

    /// One Racing Mountain and one DS session, a store of a few
    /// frames: nearly every reply renders and encodes.
    pub fn cold() -> ServeWorkload {
        ServeWorkload {
            name: "serve_cold",
            sessions: vec![(GameId::RacingMountain, 0), (GameId::Ds, 0)],
            route_poses: 3600,
            store_bytes: 8 * 1024,
            warm: false,
        }
    }

    fn config(&self) -> ServerConfig {
        ServerConfig {
            workers: 1,
            store_bytes: self.store_bytes,
            world_seed: WORLD_SEED,
            ..ServerConfig::default()
        }
    }

    /// Each session's route for `seed`. Sessions sharing a game share
    /// one scene and are players of one party.
    pub fn routes(&self, seed: u64) -> Vec<Vec<RoutePose>> {
        let duration_s = self.route_poses as f64 * POSE_INTERVAL_MS / 1000.0;
        self.sessions
            .iter()
            .enumerate()
            .map(|(s, &(game, _))| {
                let party: Vec<usize> = (0..self.sessions.len())
                    .filter(|&o| self.sessions[o].0 == game)
                    .collect();
                let player = party.iter().position(|&o| o == s).expect("in party");
                let spec = GameSpec::for_game(game);
                let scene = spec.build_scene(WORLD_SEED);
                let traj = Trajectory::generate(
                    &scene,
                    &spec,
                    player,
                    party.len(),
                    duration_s,
                    seed ^ (game as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                (0..self.route_poses)
                    .map(|i| {
                        let t = i as f64 * POSE_INTERVAL_MS / 1000.0;
                        RoutePose {
                            t_ms: t * 1000.0,
                            pos: traj.position(t),
                            yaw: traj.heading(t),
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Where the benchmark keeps its sockets and traces.
pub fn run_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-run")
}

/// A fresh server with every session connected.
struct Live {
    server: Server,
    clients: Vec<Client>,
    path: PathBuf,
}

fn socket_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = run_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark's run directory");
    dir.join(format!(
        "{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Starts a fresh server, joins every session and round-trips each
/// session's first pose. Returns the live harness and the set-up time:
/// `Server::start` until every session is welcomed and its first frame
/// decoded.
fn start(
    w: &ServeWorkload,
    routes: &[Vec<RoutePose>],
    telemetry: TelemetrySink,
    seed: u64,
    checks: &mut Checks,
) -> (Live, f64) {
    let path = socket_path(w.name);
    let listener = Listener::bind_uds(&path).expect("bind the server socket");
    let t0 = Instant::now();
    let server = Server::start(listener, w.config(), telemetry).expect("start the server");
    let mut clients: Vec<Client> = w
        .sessions
        .iter()
        .map(|&(game, room)| Client::connect(&path, game, room, seed).expect("join a session"))
        .collect();
    for (c, route) in clients.iter_mut().zip(routes) {
        let ok = c.round_trip(route[0]).expect("first frame");
        checks.check(ok, "first frame fails its checks");
    }
    let setup_s = t0.elapsed().as_secs_f64();
    (
        Live {
            server,
            clients,
            path,
        },
        setup_s,
    )
}

/// Replays every route once, closed loop, so the store holds a frame
/// for every pose of the timed phases.
fn warm(live: &mut Live, routes: &[Vec<RoutePose>], checks: &mut Checks) {
    let route_len = routes[0].len();
    checks.attempt(route_len * live.clients.len());
    for i in 1..=route_len {
        for (c, route) in live.clients.iter_mut().zip(routes) {
            let ok = c.round_trip(route[i % route.len()]).expect("warm-up frame");
            checks.check(ok, "warm-up frame fails its checks");
        }
    }
}

/// Closes every session, stops the server and reconciles the client's
/// counts with the server's.
fn finish(live: Live, checks: &mut Checks) {
    let Live {
        server,
        clients,
        path,
    } = live;
    let mut poses = 0u64;
    let mut frames = 0u64;
    for c in clients {
        poses += c.poses_sent;
        match c.close() {
            Ok(received) => frames += received,
            Err(e) => checks.check(false, &format!("session did not close cleanly: {e}")),
        }
    }
    let service = server.service().stats();
    let store = server.service().store().stats();
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);
    checks.check(
        stats.poses == poses,
        &format!("server counted {} poses, clients sent {poses}", stats.poses),
    );
    checks.check(
        stats.frames_sent == frames,
        &format!(
            "server queued {} frames, clients received {frames}",
            stats.frames_sent
        ),
    );
    checks.check(
        stats.frames_sent + stats.frames_dropped == stats.poses,
        &format!(
            "{} frames queued + {} dropped for {} poses",
            stats.frames_sent, stats.frames_dropped, stats.poses
        ),
    );
    checks.check(
        stats.protocol_errors == 0,
        &format!("{} protocol errors", stats.protocol_errors),
    );
    checks.check(
        service.frames_served == stats.poses
            && service.store_hits + service.store_misses == service.frames_served,
        &format!(
            "service stats {service:?} do not add up to {} poses",
            stats.poses
        ),
    );
    checks.check(
        store.hits + store.misses == service.frames_served,
        &format!(
            "store saw {} lookups for {} frames served",
            store.hits + store.misses,
            service.frames_served
        ),
    );
}

/// Runs one open-loop phase on a fresh server (warmed when the
/// workload says so) and reconciles it.
fn fresh_phase(
    w: &ServeWorkload,
    routes: &[Vec<RoutePose>],
    plan: &PhasePlan,
    telemetry: TelemetrySink,
    seed: u64,
    checks: &mut Checks,
) -> (PhaseResult, ServerSide) {
    let (mut live, _) = start(w, routes, telemetry, seed, checks);
    if w.warm {
        warm(&mut live, routes, checks);
    }
    let service = live.server.service().clone();
    let sink = service.telemetry().clone();
    let from_ms = sink.now_ms();
    let before = live.server.stats();
    let served_before = service.stats().frames_served;
    let cpu0 = report::process_cpu_s();
    let t0 = Instant::now();
    let result = run_phase(&mut live.clients, routes, plan, &live.server);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = report::process_cpu_s() - cpu0;
    let during = live.server.stats();
    for note in &result.failure_notes {
        checks.note(note);
    }
    checks.count(result.failures);
    finish(live, checks);
    let spans = sink
        .spans_snapshot()
        .into_iter()
        .filter(|s| s.start_ms >= from_ms)
        .collect();
    (
        result,
        ServerSide {
            spans,
            spans_dropped: sink.summary().map_or(0, |t| t.spans_dropped),
            sink,
            frames_served: service.stats().frames_served - served_before,
            frames_dropped: during.frames_dropped - before.frames_dropped,
            degrades_sent: during.degrades_sent - before.degrades_sent,
            peak_queue_bytes: during.peak_queue_bytes,
            store_hit_ratio: service.store().stats().hit_ratio(),
            store_bytes: service.store().bytes(),
            cpu_util: cpu / (wall * report::nproc() as f64),
        },
    )
}

/// The server's side of one phase.
struct ServerSide {
    /// The server's telemetry sink.
    sink: TelemetrySink,
    /// Spans the server recorded during the phase.
    spans: Vec<SpanEvent>,
    /// Spans the sink lost to ring overwrites over the server's life.
    spans_dropped: u64,
    /// Frames the service served during the phase.
    frames_served: u64,
    frames_dropped: u64,
    degrades_sent: u64,
    /// Largest egress queue over the server's life, bytes.
    peak_queue_bytes: u64,
    store_hit_ratio: f64,
    store_bytes: u64,
    /// Process CPU time over the phase ÷ (wall × cores).
    cpu_util: f64,
}

impl ServerSide {
    /// Count and total duration (µs) of the phase's spans named `name`.
    fn span_totals(&self, name: &str) -> (f64, f64) {
        let durs = self.spans.iter().filter(|s| s.name == name);
        durs.fold((0.0, 0.0), |(n, us), s| (n + 1.0, us + s.dur_ms * 1000.0))
    }
}

/// Poses per window of `frame_p99_ms`: the fewest that leave ten
/// samples beyond a p99.
const P99_WINDOW: usize = 1000;

/// A phase's `frame_p99_ms`: the median, over consecutive windows of
/// [`P99_WINDOW`] scheduled poses, of each window's p99. On a virtual
/// machine whose vCPUs are preempted for a few milliseconds about once
/// a second, the pooled p99 of a sub-millisecond service measures
/// those preemptions; the windowed median measures the program.
pub fn frame_p99_ms(r: &PhaseResult) -> f64 {
    stats::windowed_percentile(&r.by_pose_ms, 99.0, P99_WINDOW)
}

/// The capacity criterion: `frame_p99_ms` within the vsync budget, at
/// least 99 % of poses on time, no frame failing a check, and a
/// generator that does not fall further behind.
pub fn phase_passes(r: &PhaseResult) -> bool {
    if r.aborted || r.failures > 0 || r.scheduled == 0 {
        return false;
    }
    frame_p99_ms(r) <= VSYNC_BUDGET_MS && r.on_time_ratio() >= 0.99 && r.lateness_growth_ms < 1.0
}

/// Search resolution: the bracket closes when `hi / lo` falls below
/// `1 + CAPACITY_RESOLUTION`.
pub const CAPACITY_RESOLUTION: f64 = 0.02;

/// The highest rate at which `passes` held: ramp geometrically by
/// `ramp` from `start` until the outcome flips, then bisect
/// (geometrically) until the bracket is narrower than `resolution`.
/// Returns the highest rate seen to pass, or 0 when none passed
/// within twelve steps down.
pub fn search_capacity(
    start: f64,
    ramp: f64,
    resolution: f64,
    mut passes: impl FnMut(f64) -> bool,
) -> f64 {
    // Twelve steps down without a pass: the system serves next to
    // nothing, and no rate is shown to pass.
    let floor = start / ramp.powi(12);
    let (mut lo, mut hi) = if passes(start) {
        let mut lo = start;
        loop {
            let r = lo * ramp;
            if passes(r) {
                lo = r;
            } else {
                break (lo, r);
            }
        }
    } else {
        let mut hi = start;
        loop {
            let r = hi / ramp;
            if r < floor {
                return 0.0;
            }
            if passes(r) {
                break (r, hi);
            }
            hi = r;
        }
    };
    while hi / lo > 1.0 + resolution {
        let mid = (lo * hi).sqrt();
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Settings a serve run derives from the command line.
#[derive(Debug, Clone, Copy)]
pub struct ServeSettings {
    /// The workload's nominal offered rate, poses/s.
    pub nominal_rate: f64,
    /// Seconds the run may spend measuring.
    pub seconds: f64,
    /// Benchmark seed.
    pub seed: u64,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;

/// `setup_s`: the median of [`SETUPS`] set-ups, each on a fresh server.
pub fn measure_setup(w: &ServeWorkload, s: ServeSettings, m: &mut Metrics, checks: &mut Checks) {
    let routes = w.routes(s.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (live, setup_s) = start(w, &routes, TelemetrySink::disabled(), s.seed, checks);
        setups.push(setup_s);
        finish(live, checks);
    }
    checks.attempt(SETUPS * w.sessions.len());
    m.put("setup_s", stats::median(&setups), "s");
}

/// What one nominal-rate phase measured.
pub struct Nominal {
    p50_ms: f64,
    on_time_ratio: f64,
    egress_bytes_per_frame: f64,
    scale_pm_mean: f64,
}

/// One open-loop phase at the nominal rate on a fresh server, lasting
/// 10 % of the run.
pub fn nominal_round(
    w: &ServeWorkload,
    s: ServeSettings,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Nominal {
    let routes = w.routes(s.seed);
    let n = w.sessions.len();
    let plan = PhasePlan {
        rate: s.nominal_rate,
        poses_per_session: ((s.nominal_rate * s.seconds * 0.1) as usize / n).max(1),
        detail: false,
        stall: None,
    };
    let (r, _) = fresh_phase(w, &routes, &plan, TelemetrySink::disabled(), s.seed, checks);
    checks.attempt(r.scheduled);
    let lat = &r.by_pose_ms;
    checks.check(
        stats::reportable(lat.len(), 99.0),
        &format!("{} poses cannot carry a p99", lat.len()),
    );
    let tail = stats::tail_percentile(lat.len()).unwrap_or(50.0);
    m.note(format!(
        "nominal phase: {} poses at {:.0}/s, {} frames, {} store-hit flags; n={}, so the \
         highest reportable percentile is p{tail} = {:.3} ms; p90 {:.3} ms, pooled p99 {:.3} ms, \
         windowed frame_p99_ms {:.3} ms; generator lateness p99 {:.3} ms",
        r.scheduled,
        s.nominal_rate,
        r.frames,
        r.store_hits,
        lat.len(),
        stats::percentile(lat, tail),
        stats::percentile(lat, 90.0),
        stats::percentile(lat, 99.0),
        frame_p99_ms(&r),
        stats::percentile(&r.lateness_ms, 99.0)
    ));
    Nominal {
        p50_ms: stats::percentile(lat, 50.0),
        on_time_ratio: r.on_time_ratio(),
        egress_bytes_per_frame: r.wire_bytes as f64 / r.frames.max(1) as f64,
        scale_pm_mean: r.scale_pm_sum as f64 / r.frames.max(1) as f64,
    }
}

/// Reports the median of each nominal-phase metric over the rounds.
pub fn report_nominal(rounds: &[Nominal], m: &mut Metrics) {
    let median = |f: fn(&Nominal) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    m.put("frame_p50_ms", median(|r| r.p50_ms), "ms");
    m.put("on_time_ratio", median(|r| r.on_time_ratio), "ratio");
    m.put(
        "egress_bytes_per_frame",
        median(|r| r.egress_bytes_per_frame),
        "B",
    );
    m.put("scale_pm_mean", median(|r| r.scale_pm_mean), "pm");
}

/// Trial length: about 5000 poses, within 0.3–1 s.
fn trial_s(rate: f64) -> f64 {
    (5000.0 / rate).clamp(0.3, 1.0)
}

/// One capacity search, each trial on a fresh server (warmed when the
/// workload warms). A rate fails only when two trials in a row fail,
/// so one stall of the machine does not cap the search.
pub fn capacity_round(
    w: &ServeWorkload,
    s: ServeSettings,
    start: f64,
    ramp: f64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> f64 {
    let routes = w.routes(s.seed);
    let n = w.sessions.len();
    let mut trials = Vec::new();
    let capacity = search_capacity(start, ramp, CAPACITY_RESOLUTION, |rate| {
        let plan = PhasePlan {
            rate,
            poses_per_session: ((rate * trial_s(rate)) as usize / n).max(1),
            detail: false,
            stall: None,
        };
        (0..2).any(|_| {
            let (r, _) = fresh_phase(w, &routes, &plan, TelemetrySink::disabled(), s.seed, checks);
            checks.attempt(r.scheduled);
            let ok = phase_passes(&r);
            trials.push(format!("{rate:.0}{}", if ok { "+" } else { "-" }));
            ok
        })
    });
    m.note(format!(
        "capacity search from {start:.0}/s, ramp ×{ramp}: {} → {capacity:.0}/s",
        trials.join(" ")
    ));
    capacity
}

/// A wall-clock recording sink with rings big enough that a traced
/// phase drops no span.
fn roomy_telemetry() -> TelemetrySink {
    TelemetrySink::recording_with_clock(
        TelemetryConfig {
            span_capacity: 1 << 18,
            span_shards: 4,
            frame_capacity: 1 << 10,
            counter_capacity: 1 << 14,
            ..TelemetryConfig::default()
        },
        Arc::new(WallClock::new()),
    )
}

/// Events per validation chunk. `validate_chrome_trace` checks every
/// event on its own, but its JSON parser takes time quadratic in the
/// document's length (a 2.3 MB trace takes over a minute), so the
/// benchmark validates the exported events in bounded chunks.
const VALIDATE_CHUNK: usize = 32;

/// Exports, validates and writes a sink's Chrome trace.
pub fn export_trace(sink: &TelemetrySink, file: &Path, checks: &mut Checks) {
    let spans = sink.spans_snapshot();
    let frames = sink.frames_snapshot();
    let counters = sink.counters_snapshot();
    let budget = sink.budget_ms();
    let mut events = 0usize;
    let mut validate = |json: String, checks: &mut Checks| match validate_chrome_trace(&json) {
        Ok(check) => events += check.events,
        Err(e) => checks.check(false, &format!("Chrome trace invalid: {e}")),
    };
    for chunk in spans.chunks(VALIDATE_CHUNK) {
        validate(chrome_trace_json_full(chunk, &[], &[], budget), checks);
    }
    for chunk in frames.chunks(VALIDATE_CHUNK) {
        validate(chrome_trace_json_full(&[], chunk, &[], budget), checks);
    }
    for chunk in counters.chunks(VALIDATE_CHUNK) {
        validate(chrome_trace_json_full(&[], &[], chunk, budget), checks);
    }
    checks.check(events > 0, "Chrome trace has no events");
    let json = chrome_trace_json_full(&spans, &frames, &counters, budget);
    if let Some(dir) = file.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    checks.check(
        std::fs::write(file, json).is_ok(),
        &format!("cannot write {}", file.display()),
    );
}

/// One replay of the routes straight through `ServiceCore`.
#[derive(Default)]
struct Replay {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    /// Flagged hits during which the core still rendered a frame.
    hits_rendered: usize,
    wall_s: f64,
    render_encode_us: f64,
    spans_dropped: u64,
}

/// Replays the phase's pose stream through `ServiceCore::join`,
/// `frame_for` and `maintain`, timing every `frame_for`; the warm-up
/// pass (when the workload warms) is not timed. With a recording sink,
/// the core's `far-render` spans tell which flagged hits still
/// rendered.
fn replay(w: &ServeWorkload, routes: &[Vec<RoutePose>], telemetry: TelemetrySink) -> Replay {
    let core = ServiceCore::new(w.store_bytes, WORLD_SEED, telemetry.clone());
    for &(game, room) in &w.sessions {
        core.join(game, room);
    }
    let mut out = Replay::default();
    // (start, end) of every timed flagged hit on the sink's clock.
    let mut hit_windows: Vec<(f64, f64)> = Vec::new();
    let mut pass = |timed: bool, out: &mut Replay| {
        for i in 0..w.route_poses {
            for (&(game, room), route) in w.sessions.iter().zip(routes) {
                let from_ms = telemetry.now_ms();
                let t = Instant::now();
                let reply = core.frame_for(game, room, route[i].pos, 0);
                let us = t.elapsed().as_secs_f64() * 1e6;
                if timed {
                    if reply.store_hit {
                        out.hit_us.push(us);
                        hit_windows.push((from_ms, telemetry.now_ms()));
                    } else {
                        out.miss_us.push(us);
                    }
                }
                core.maintain(0);
            }
        }
    };
    if w.warm {
        pass(false, &mut out);
    }
    // Enough timed passes for 5000 calls, so the wall-time ratio of
    // traced and untraced replays rests on more than clock noise.
    let calls_per_pass = w.route_poses * w.sessions.len();
    let timed_from_ms = telemetry.now_ms();
    let t0 = Instant::now();
    for _ in 0..5_000usize.div_ceil(calls_per_pass) {
        pass(true, &mut out);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    let spans: Vec<SpanEvent> = telemetry
        .spans_snapshot()
        .into_iter()
        .filter(|s| s.start_ms >= timed_from_ms)
        .collect();
    out.render_encode_us = spans
        .iter()
        .filter(|s| s.name == "far-render" || s.name == "far-encode")
        .map(|s| s.dur_ms * 1000.0)
        .sum();
    let renders: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "far-render")
        .map(|s| s.start_ms)
        .collect();
    out.hits_rendered = hit_windows
        .iter()
        .filter(|&&(from, to)| {
            let i = renders.partition_point(|&t| t < from);
            renders.get(i).is_some_and(|&t| t <= to)
        })
        .count();
    out.spans_dropped = telemetry.summary().map_or(0, |t| t.spans_dropped);
    out
}

/// The traced serve measurement: per-layer numbers of the serving
/// path. Returns the dropped-span count.
pub fn measure_layers(
    w: &ServeWorkload,
    s: ServeSettings,
    m: &mut Metrics,
    checks: &mut Checks,
) -> u64 {
    let routes = w.routes(s.seed);
    let n = w.sessions.len();
    let phase_s = (s.seconds * 0.25).max(1.0);
    let plan = PhasePlan {
        rate: s.nominal_rate,
        poses_per_session: ((s.nominal_rate * phase_s) as usize / n).max(1),
        detail: false,
        stall: None,
    };

    report::progress("serve: untraced phase");
    // Untraced: transport time, CPU use and the server's own counters.
    let (plain, plain_server) =
        fresh_phase(w, &routes, &plan, TelemetrySink::disabled(), s.seed, checks);
    checks.attempt(plain.scheduled);

    report::progress("serve: traced phase");
    // Traced: the server records its spans, the client times its calls.
    let traced_plan = PhasePlan {
        detail: true,
        ..plan.clone()
    };
    let (traced, server) = fresh_phase(w, &routes, &traced_plan, roomy_telemetry(), s.seed, checks);
    checks.attempt(traced.scheduled);

    report::progress("serve: replay through ServiceCore");
    // Direct replays through the serving core run untraced, traced,
    // traced, untraced, so a steady drift in the machine's speed
    // cancels out of the overhead ratio.
    let direct = replay(w, &routes, TelemetrySink::disabled());
    let direct_traced = replay(w, &routes, roomy_telemetry());
    let traced_s = direct_traced.wall_s + replay(w, &routes, roomy_telemetry()).wall_s;
    let plain_s = direct.wall_s + replay(w, &routes, TelemetrySink::disabled()).wall_s;
    let overhead_ratio = traced_s / plain_s.max(1e-9);
    let all_us: Vec<f64> = direct
        .hit_us
        .iter()
        .chain(&direct.miss_us)
        .copied()
        .collect();
    let traced_all_us: f64 = direct_traced
        .hit_us
        .iter()
        .chain(&direct_traced.miss_us)
        .sum();

    m.put(
        "frame_p90_ms",
        stats::percentile(&plain.by_pose_ms, 90.0),
        "ms",
    );
    m.put("frame_p99_ms", frame_p99_ms(&plain), "ms");
    m.put(
        "loadgen.lateness_p99_ms",
        stats::percentile(&traced.lateness_ms, 99.0),
        "ms",
    );
    m.put(
        "net.wire.pose_encode_us",
        stats::median(&traced.pose_encode_us),
        "us",
    );
    m.put(
        "net.wire.frame_assemble_us",
        stats::median(&traced.assemble_us),
        "us",
    );
    m.put("codec.decode_us", stats::median(&traced.decode_us), "us");
    for (name, v) in [("hit", &direct.hit_us), ("miss", &direct.miss_us)] {
        for p in [50.0, 90.0] {
            m.put(
                &format!("server.service.frame_for_{name}_us.p{p:.0}"),
                stats::percentile(v, p),
                "us",
            );
        }
        m.put(
            &format!("server.service.frame_for_{name}_count"),
            v.len() as f64,
            "count",
        );
    }
    m.put(
        "server.service.hit_render_ratio",
        direct_traced.hits_rendered as f64 / direct_traced.hit_us.len().max(1) as f64,
        "ratio",
    );
    m.put(
        "server.service.render_encode_share",
        direct_traced.render_encode_us / traced_all_us.max(1e-9),
        "ratio",
    );
    for (metric, span) in [
        ("store_lookup", "store-lookup"),
        ("render", "far-render"),
        ("encode", "far-encode"),
        ("farm_drain", "farm-drain"),
    ] {
        let (count, total_us) = server.span_totals(span);
        m.put(&format!("server.service.{metric}_count"), count, "count");
        m.put(&format!("server.service.{metric}_us"), total_us, "us");
    }
    let (renders, _) = server.span_totals("far-render");
    m.put(
        "server.service.flagged_hit_ratio",
        traced.store_hits as f64 / traced.frames.max(1) as f64,
        "ratio",
    );
    m.put(
        "server.service.renders_per_frame",
        renders / server.frames_served.max(1) as f64,
        "ratio",
    );
    m.put(
        "server.transport_us",
        stats::percentile(&plain.rtt_ms, 50.0) * 1000.0 - stats::percentile(&all_us, 50.0),
        "us",
    );
    m.put(
        "server.frames_dropped",
        plain_server.frames_dropped as f64,
        "count",
    );
    m.put(
        "server.peak_queue_bytes",
        plain_server.peak_queue_bytes as f64,
        "B",
    );
    m.put(
        "server.degrades_sent",
        plain_server.degrades_sent as f64,
        "count",
    );
    m.put("server.cpu_util", plain_server.cpu_util, "ratio");
    m.put(
        "serve.store.hit_ratio",
        plain_server.store_hit_ratio,
        "ratio",
    );
    m.put("serve.store.bytes", plain_server.store_bytes as f64, "B");
    m.put("telemetry.trace_overhead_ratio", overhead_ratio, "ratio");
    m.note(format!(
        "{}: replay {} flagged hits ({} still rendered) / {} misses through ServiceCore; \
         traced socket phase {} frames, {} flagged hits, {renders} far-render spans",
        w.name,
        direct_traced.hit_us.len(),
        direct_traced.hits_rendered,
        direct.miss_us.len(),
        traced.frames,
        traced.store_hits,
    ));

    report::progress("serve: Chrome trace");
    let file = run_dir().join(format!("{}-serve-trace.json", w.name));
    export_trace(&server.sink, &file, checks);
    m.note(format!("serve Chrome trace: {}", file.display()));
    server.spans_dropped + direct_traced.spans_dropped
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The search against a pass/fail oracle that holds up to `cap`.
    fn search(cap: f64, start: f64) -> (f64, usize) {
        let mut trials = 0;
        let found = search_capacity(start, 1.25, CAPACITY_RESOLUTION, |r| {
            trials += 1;
            r <= cap
        });
        (found, trials)
    }

    #[test]
    fn capacity_search_lands_within_resolution_below_the_limit() {
        for cap in [900.0, 5_000.0, 5_437.0, 37_000.0, 123_456.0] {
            for start in [cap / 7.0, cap * 0.99, cap * 1.01, cap * 7.0] {
                let (found, trials) = search(cap, start);
                assert!(found <= cap, "cap {cap} start {start}: {found}");
                assert!(
                    found * (1.0 + CAPACITY_RESOLUTION) >= cap,
                    "cap {cap} start {start}: {found} too coarse"
                );
                assert!(trials < 40, "{trials} trials");
            }
        }
    }

    #[test]
    fn capacity_search_reports_zero_when_nothing_passes() {
        assert_eq!(
            search_capacity(10_000.0, 1.25, CAPACITY_RESOLUTION, |_| false),
            0.0
        );
    }

    #[test]
    fn capacity_search_is_monotone() {
        let caps: Vec<f64> = (0..200).map(|i| 2_000.0 * 1.013f64.powi(i)).collect();
        for start in [3_000.0, 9_000.0] {
            let found: Vec<f64> = caps.iter().map(|&c| search(c, start).0).collect();
            for pair in found.windows(2) {
                assert!(pair[0] <= pair[1], "not monotone: {pair:?} (start {start})");
            }
        }
    }

    #[test]
    fn capacity_criterion_counts_missing_frames_as_late() {
        let mut r = PhaseResult {
            scheduled: 8000,
            frames: 8000,
            by_pose_ms: vec![0.5; 8000],
            on_time: 8000,
            ..PhaseResult::default()
        };
        assert!(phase_passes(&r));
        // Every hundredth frame never came back: each window's p99
        // is now a miss.
        for k in (0..8000).step_by(50) {
            r.by_pose_ms[k] = 1000.0;
        }
        r.on_time = 8000 - 160;
        assert!(!phase_passes(&r));
        r.by_pose_ms = vec![0.5; 8000];
        r.on_time = 8000;
        r.lateness_growth_ms = 5.0;
        assert!(!phase_passes(&r), "a generator falling behind fails");
    }
}
