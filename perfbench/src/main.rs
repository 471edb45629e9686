//! The repository benchmark: open-loop pose→frame serving on a hot and
//! a cold store, plus the simulator fleet.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --hot-rate <poses/s> --cold-rate <poses/s> \
//!     --workload serve_hot|serve_cold --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` prints every
//! per-layer metric from a separate traced run. The last line of
//! standard output is the JSON result; the lines before it are the
//! human-readable report and the environment record. See README.md.

mod fleet;
mod loadgen;
mod report;
mod serve;
mod stats;

use report::{Checks, Metrics};
use serve::{ServeSettings, ServeWorkload};
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [&str; 9] = [
    "frame_p50_ms",
    "on_time_ratio",
    "capacity_fps",
    "egress_bytes_per_frame",
    "scale_pm_mean",
    "sim_frames_per_s",
    "fleet_setup_s",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [&str; 48] = [
    "frame_p90_ms",
    "frame_p99_ms",
    "loadgen.lateness_p99_ms",
    "net.wire.pose_encode_us",
    "net.wire.frame_assemble_us",
    "codec.decode_us",
    "server.service.frame_for_hit_us.p50",
    "server.service.frame_for_hit_us.p90",
    "server.service.frame_for_hit_count",
    "server.service.frame_for_miss_us.p50",
    "server.service.frame_for_miss_us.p90",
    "server.service.frame_for_miss_count",
    "server.service.hit_render_ratio",
    "server.service.render_encode_share",
    "server.service.store_lookup_count",
    "server.service.store_lookup_us",
    "server.service.render_count",
    "server.service.render_us",
    "server.service.encode_count",
    "server.service.encode_us",
    "server.service.farm_drain_count",
    "server.service.farm_drain_us",
    "server.service.flagged_hit_ratio",
    "server.service.renders_per_frame",
    "server.transport_us",
    "server.frames_dropped",
    "server.peak_queue_bytes",
    "server.degrades_sent",
    "server.cpu_util",
    "serve.store.hit_ratio",
    "serve.store.bytes",
    "world.build_scene_ms.viking",
    "world.build_scene_ms.fps",
    "world.traces_ms",
    "core.cutoff_compute_ms.viking",
    "core.cutoff_compute_ms.fps",
    "core.cutoff_calcs",
    "render.panorama_ms",
    "render.band_ms",
    "codec.encode_us",
    "parallel.setup_cpu_util",
    "serve.room.tick_ms",
    "serve.farm.drain_ms",
    "serve.farm.spec_used_ratio",
    "serve.store.evictions",
    "telemetry.trace_overhead_ratio",
    "telemetry.spans_dropped",
    "error_ratio",
];

/// Nominal-rate phases, capacity searches and fleet builds per
/// untraced run; each reports the median of its rounds.
const ROUNDS: usize = 3;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    hot_rate: f64,
    cold_rate: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str, v: String| -> Result<f64, String> {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or(format!("{flag} must be a positive number, got {v:?}"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed must be an unsigned integer, got {seed:?}"))?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let hot_rate = num("--hot-rate", get("--hot-rate")?)?;
    let cold_rate = num("--cold-rate", get("--cold-rate")?)?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        hot_rate,
        cold_rate,
    })
}

/// The environment every result is recorded with.
fn environment() -> String {
    let simd = coterie_parallel::simd::detected_level().name();
    let simd_env = std::env::var("COTERIE_SIMD").unwrap_or_else(|_| "unset".into());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let git =
        run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none (not a git checkout)".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "environment: nproc={} simd={simd} COTERIE_SIMD={simd_env} git={git} rustc=\"{rustc}\"",
        report::nproc()
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (workload, rate) = match args.workload.as_str() {
        "serve_hot" => (ServeWorkload::hot(), args.hot_rate),
        "serve_cold" => (ServeWorkload::cold(), args.cold_rate),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (serve_hot, serve_cold)");
            return ExitCode::from(2);
        }
    };
    let settings = ServeSettings {
        nominal_rate: rate,
        seconds: args.seconds,
        seed: args.seed,
    };

    let env = environment();
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let names: &[&str] = if args.trace {
        let dropped = serve::measure_layers(&workload, settings, &mut m, &mut checks)
            + fleet::measure_layers(args.seed, &mut m, &mut checks);
        m.put("telemetry.spans_dropped", dropped as f64, "count");
        checks.check(dropped == 0, &format!("{dropped} spans dropped"));
        &PER_LAYER
    } else {
        serve::measure_setup(&workload, settings, &mut m, &mut checks);
        // Nominal phases alternate with capacity searches, so a slow
        // spell of the machine spoils at most one of each three.
        let mut nominal = Vec::new();
        let mut capacities = Vec::new();
        for round in 0..ROUNDS {
            nominal.push(serve::nominal_round(
                &workload,
                settings,
                &mut m,
                &mut checks,
            ));
            let (start, ramp) = match round {
                0 => (rate * 2.0, 1.25),
                _ => (stats::median(&capacities), 1.1),
            };
            capacities.push(serve::capacity_round(
                &workload,
                settings,
                start,
                ramp,
                &mut m,
                &mut checks,
            ));
        }
        serve::report_nominal(&nominal, &mut m);
        m.put("capacity_fps", stats::median(&capacities), "1/s");
        m.note(format!(
            "VmHWM after the serve phases: {:.1} MB",
            report::peak_rss_mb()
        ));
        let fleets: Vec<fleet::Round> = (0..ROUNDS)
            .map(|_| fleet::round(args.seed, &mut checks))
            .collect();
        fleet::report_rounds(&fleets, &mut m, &mut checks);
        m.put("peak_rss_mb", report::peak_rss_mb(), "MB");
        &END_TO_END
    };
    let error_ratio = checks.failed() as f64 / checks.attempted().max(1) as f64;
    m.put("error_ratio", error_ratio, "ratio");

    let (selected, missing) = m.select(names);
    for name in &missing {
        checks.check(false, &format!("metric {name} was not measured"));
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} nominal_rate={}/s",
        workload.name, args.seed, args.seconds, args.trace as u8, rate
    );
    println!("{env}");
    for line in m.notes() {
        println!("  {line}");
    }
    for (name, value, unit) in &selected {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    println!(
        "  error_ratio {:.6} ({} failed of {} attempted)",
        checks.failed() as f64 / checks.attempted().max(1) as f64,
        checks.failed(),
        checks.attempted()
    );
    for note in checks.notes() {
        println!("  FAILED: {note}");
    }
    let correct = checks.failed() == 0;
    println!(
        "{}",
        report::result_json(correct, checks.attempted(), checks.failed(), &selected)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
