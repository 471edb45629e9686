//! The simulator fleet phase: `Fleet::new` then `Fleet::run`, timed
//! in wall-clock only. The fleet's modeled outputs (FPS, egress, hit
//! ratio) are checked for determinism and never reported as
//! performance.

use crate::report::{self, Checks, Metrics};
use crate::serve::{export_trace, run_dir};
use crate::stats;
use coterie_codec::{Encoder, Quality};
use coterie_core::{CutoffConfig, CutoffMap};
use coterie_device::DeviceProfile;
use coterie_render::{RenderFilter, RenderOptions, Renderer};
use coterie_serve::{Fleet, FleetConfig, FleetReport};
use coterie_telemetry::{TelemetryConfig, TelemetrySink};
use coterie_world::{GameId, GameSpec, TraceSet};
use std::time::Instant;

/// Games the fleet's rooms cycle through.
const GAMES: [GameId; 2] = [GameId::VikingVillage, GameId::Fps];

/// Size-measurement samples per player, as the fleet's default.
const SIZE_SAMPLES: usize = 8;

/// Simulated session length, s. Long enough that `Fleet::run` lasts
/// about 2 s of wall time, so a half-second slowdown of the machine
/// cannot halve the measured rate.
const DURATION_S: f64 = 180.0;

/// The fleet: 8 rooms × 2 players cycling Viking Village and FPS, one
/// shared store.
pub fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        rooms: 8,
        players: 2,
        games: GAMES.to_vec(),
        duration_s: DURATION_S,
        seed,
        size_samples: SIZE_SAMPLES,
        ..FleetConfig::default()
    }
}

/// One timed build and run.
struct Outcome {
    setup_s: f64,
    run_s: f64,
    setup_cpu_util: f64,
    report: FleetReport,
}

fn build_and_run(seed: u64, telemetry: TelemetrySink) -> Outcome {
    let cpu0 = report::process_cpu_s();
    let t0 = Instant::now();
    let fleet = Fleet::new_with_telemetry(config(seed), telemetry);
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_cpu = report::process_cpu_s() - cpu0;
    let t1 = Instant::now();
    let report = fleet.run();
    Outcome {
        setup_s,
        run_s: t1.elapsed().as_secs_f64(),
        setup_cpu_util: setup_cpu / (setup_s * report::nproc() as f64),
        report,
    }
}

/// Simulated displayed frames of a run: each player's session length
/// over its mean frame interval.
fn sim_frames(report: &FleetReport) -> f64 {
    report
        .rooms
        .iter()
        .flat_map(|r| {
            let ms = r.session.duration_s * 1000.0;
            r.session
                .players
                .iter()
                .filter(|p| p.inter_frame_ms > 0.0)
                .map(move |p| (ms / p.inter_frame_ms).round())
        })
        .sum()
}

/// FNV-1a digest of the modeled fleet metrics (telemetry summary
/// excluded) and the store counters.
pub fn digest(report: &FleetReport) -> u64 {
    let mut metrics = report.metrics.clone();
    metrics.telemetry = None;
    let text = format!("{metrics:?}|{:?}", report.store_stats);
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks one run's internal consistency: every room lookup is a store
/// hit or miss.
fn check_run(report: &FleetReport, checks: &mut Checks) {
    let lookups: u64 = report
        .rooms
        .iter()
        .map(|r| r.store_hits + r.store_misses)
        .sum();
    let s = report.store_stats;
    checks.attempt(1);
    checks.check(
        s.hits + s.misses == lookups,
        &format!(
            "fleet store counted {} hits + {} misses for {lookups} room lookups",
            s.hits, s.misses
        ),
    );
    checks.check(sim_frames(report) > 0.0, "fleet displayed no frame");
}

/// One untraced build and run: wall times, simulated frame rate and
/// the modeled report's digest.
pub struct Round {
    setup_s: f64,
    frames_per_s: f64,
    digest: u64,
}

/// Builds and runs the fleet once, untraced, and checks the run.
pub fn round(seed: u64, checks: &mut Checks) -> Round {
    let o = build_and_run(seed, TelemetrySink::disabled());
    check_run(&o.report, checks);
    Round {
        setup_s: o.setup_s,
        frames_per_s: sim_frames(&o.report) / o.run_s,
        digest: digest(&o.report),
    }
}

/// Reports the rounds' medians and checks that every round of one
/// seed modeled the same fleet.
pub fn report_rounds(rounds: &[Round], m: &mut Metrics, checks: &mut Checks) {
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.frames_per_s).collect();
    checks.attempt(1);
    checks.check(
        rounds.windows(2).all(|w| w[0].digest == w[1].digest),
        "fleet runs of one seed modeled different fleets",
    );
    m.put("fleet_setup_s", stats::median(&setups), "s");
    m.put("sim_frames_per_s", stats::median(&rates), "1/s");
    m.note(format!(
        "fleet: digest {:016x}, Fleet::new {setups:.3?} s, Fleet::run {rates:.0?} frames/s",
        rounds.first().map_or(0, |r| r.digest)
    ));
}

/// Telemetry rings big enough that a traced fleet drops no span.
fn roomy_telemetry() -> TelemetrySink {
    TelemetrySink::recording(TelemetryConfig {
        span_capacity: 1 << 20,
        span_shards: 8,
        frame_capacity: 1 << 18,
        counter_capacity: 1 << 12,
        ..TelemetryConfig::default()
    })
}

fn span_mean_ms(sink: &TelemetrySink, name: &str) -> (f64, usize) {
    let durs: Vec<f64> = sink
        .spans_snapshot()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ms)
        .collect();
    (stats::mean(&durs), durs.len())
}

fn metric_game(game: GameId) -> &'static str {
    match game {
        GameId::VikingVillage => "viking",
        GameId::Fps => "fps",
        _ => "other",
    }
}

/// The traced fleet measurement: per-layer numbers of set-up and the
/// epoch loop. Returns the dropped-span count.
pub fn measure_layers(seed: u64, m: &mut Metrics, checks: &mut Checks) -> u64 {
    report::progress("fleet: untraced build and run");
    let plain = build_and_run(seed, TelemetrySink::disabled());
    check_run(&plain.report, checks);
    report::progress("fleet: traced build and run");
    let sink = roomy_telemetry();
    let traced = build_and_run(seed, sink.clone());
    check_run(&traced.report, checks);
    checks.attempt(1);
    checks.check(
        digest(&plain.report) == digest(&traced.report),
        "tracing changed the fleet's modeled report",
    );

    m.put("parallel.setup_cpu_util", plain.setup_cpu_util, "ratio");
    m.put("render.band_ms", span_mean_ms(&sink, "render-band").0, "ms");
    m.put(
        "serve.room.tick_ms",
        span_mean_ms(&sink, "room-tick").0,
        "ms",
    );
    m.put(
        "serve.farm.drain_ms",
        span_mean_ms(&sink, "farm-drain").0,
        "ms",
    );
    let s = plain.report.store_stats;
    m.put(
        "serve.farm.spec_used_ratio",
        s.spec_used as f64 / s.spec_rendered.max(1) as f64,
        "ratio",
    );
    m.put("serve.store.evictions", s.evictions as f64, "count");

    report::progress("fleet: set-up layers one by one");
    // Set-up's layers, called one by one from outside.
    let device = DeviceProfile::pixel2();
    let renderer = Renderer::new(RenderOptions::fast());
    let encoder = Encoder::new(Quality::CRF25);
    let mut traces_ms = Vec::new();
    let mut calcs = 0u64;
    let mut pano_ms = Vec::new();
    let mut encode_us = Vec::new();
    for game in GAMES {
        let spec = GameSpec::for_game(game);
        let t = Instant::now();
        let scene = spec.build_scene(seed);
        m.put(
            &format!("world.build_scene_ms.{}", metric_game(game)),
            t.elapsed().as_secs_f64() * 1000.0,
            "ms",
        );
        let t = Instant::now();
        let set = TraceSet::generate(&scene, &spec, 2, DURATION_S, 1.0 / 60.0, seed);
        traces_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        let t = Instant::now();
        let map = CutoffMap::compute(&scene, &device, &CutoffConfig::for_spec(&spec), seed);
        m.put(
            &format!("core.cutoff_compute_ms.{}", metric_game(game)),
            t.elapsed().as_secs_f64() * 1000.0,
            "ms",
        );
        calcs += map.calc_count();
        // The measurement positions: evenly strided trace points.
        for trace in set.traces() {
            let pts = trace.points();
            let stride = (pts.len() / SIZE_SAMPLES).max(1);
            for p in pts.iter().step_by(stride).take(SIZE_SAMPLES) {
                let (_, cutoff, _) = map.lookup_params(p.position);
                let t = Instant::now();
                let pano = renderer.render_panorama(
                    &scene,
                    scene.eye(p.position),
                    RenderFilter::FarOnly { cutoff },
                );
                pano_ms.push(t.elapsed().as_secs_f64() * 1000.0);
                let t = Instant::now();
                let encoded = std::hint::black_box(encoder.encode(&pano.frame));
                encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                checks.attempt(1);
                checks.check(
                    encoder.decode(&encoded).is_ok(),
                    "a rendered panorama does not round-trip the codec",
                );
            }
        }
    }
    m.put("world.traces_ms", stats::mean(&traces_ms), "ms");
    m.put("core.cutoff_calcs", calcs as f64, "count");
    m.put("render.panorama_ms", stats::median(&pano_ms), "ms");
    m.put("codec.encode_us", stats::median(&encode_us), "us");

    report::progress("fleet: Chrome trace");
    let file = run_dir().join("fleet-trace.json");
    export_trace(&sink, &file, checks);
    m.note(format!("fleet Chrome trace: {}", file.display()));
    sink.summary().map_or(0, |t| t.spans_dropped)
}
