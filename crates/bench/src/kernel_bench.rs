//! Dependency-free timing of the hot kernels (render, SSIM, codec, DCT,
//! quantize) with a machine-readable JSON report.
//!
//! Criterion gives interactive numbers; this module gives the *committed*
//! perf trajectory: `experiments bench-json` writes `BENCH_render.json`
//! with the median, p10 and p90 nanoseconds per kernel and the sample
//! count, so every PR can be compared to the last against the spread.
//! The binary cannot use criterion (a dev-dependency), so this is a
//! deliberately simple warmup + sorted-samples harness.
//!
//! Besides the default-dispatch `kernels` section, the report carries a
//! `simd` section with the codec and SSIM kernels timed at every
//! dispatch level the CPU supports (`scalar`, `avx2`). The scalar
//! entries are the pre-SIMD baselines (the kernels are bit-identical
//! across levels, so scalar timing is the old code path's timing),
//! making the AVX2-vs-scalar speedup of every kept AVX2 body auditable
//! from the committed file alone. The renderer does not dispatch, so its
//! rows appear only in `kernels`.

use coterie_codec::{Encoder, Quality};
use coterie_frame::{ssim_with_simd, LumaFrame, SsimOptions};
use coterie_parallel::simd::{self, SimdLevel};
use coterie_render::{RenderFilter, RenderOptions, Renderer};
use coterie_world::{GameId, GameSpec, Vec2};
use std::time::Instant;

/// One timed kernel: wall-clock nanoseconds per call over the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Kernel name as it appears in the JSON report.
    pub name: String,
    /// Median nanoseconds per call over all samples.
    pub median_ns: u64,
    /// 10th-percentile nanoseconds per call (nearest rank).
    pub p10_ns: u64,
    /// 90th-percentile nanoseconds per call (nearest rank).
    pub p90_ns: u64,
    /// Number of timed samples (after warmup).
    pub samples: usize,
}

/// Per-dispatch-level timings: `level` is the [`SimdLevel`] name.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdTimings {
    /// Dispatch level name (`scalar`, `avx2`).
    pub level: String,
    /// Kernel timings at that level.
    pub timings: Vec<KernelTiming>,
}

/// Blocks per sample for the 8×8 block kernels (`dct_8x8`,
/// `quantize_8x8`, `dequantize_8x8`, `zigzag_gather`, `any_abs_above`):
/// a single block operation is below timer resolution, so each sample
/// times this many back-to-back blocks.
const BLOCK_BATCH: usize = 4096;

/// Times `f` over `samples` runs after one warmup call.
fn time_kernel<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) -> KernelTiming {
    // Warmup: populate caches (scene index, trig tables) off the clock.
    std::hint::black_box(f());
    let mut runs: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    runs.sort_unstable();
    let rank = |pct: usize| runs[((runs.len() - 1) * pct + 50) / 100];
    KernelTiming {
        name: name.to_string(),
        median_ns: runs[runs.len() / 2],
        p10_ns: rank(10),
        p90_ns: rank(90),
        samples,
    }
}

/// The fixed bench workload: a VikingVillage viewpoint pair at the
/// default 256×128 options.
struct Workload {
    scene: coterie_world::Scene,
    eye: coterie_world::Vec3,
    /// Whole-BE frame from `eye`.
    frame_a: LumaFrame,
    /// Whole-BE frame from a 0.4 m-shifted viewpoint.
    frame_b: LumaFrame,
}

fn workload() -> Workload {
    let spec = GameSpec::for_game(GameId::VikingVillage);
    let scene = spec.build_scene(7);
    let renderer = Renderer::new(RenderOptions::default());
    let eye = scene.eye(scene.bounds().center());
    let eye_b = scene.eye(scene.bounds().center() + Vec2::new(0.4, 0.0));
    let frame_a = renderer
        .render_panorama(&scene, eye, RenderFilter::All)
        .frame;
    let frame_b = renderer
        .render_panorama(&scene, eye_b, RenderFilter::All)
        .frame;
    Workload {
        scene,
        eye,
        frame_a,
        frame_b,
    }
}

/// Times the renderer, which has one (scalar) implementation.
fn render_kernels(samples: usize, wl: &Workload) -> Vec<KernelTiming> {
    let cutoff = 10.0;
    let renderer = Renderer::new(RenderOptions::default());
    vec![
        time_kernel("render_all_256x128", samples, || {
            renderer.render_panorama(&wl.scene, wl.eye, RenderFilter::All)
        }),
        time_kernel("render_near_256x128", samples, || {
            renderer.render_panorama(&wl.scene, wl.eye, RenderFilter::NearOnly { cutoff })
        }),
        time_kernel("render_far_256x128", samples, || {
            renderer.render_panorama(&wl.scene, wl.eye, RenderFilter::FarOnly { cutoff })
        }),
    ]
}

/// Times one dispatch level's codec and SSIM kernels against the shared
/// workload.
fn dispatched_kernels(samples: usize, wl: &Workload, level: SimdLevel) -> Vec<KernelTiming> {
    let encoder = Encoder::with_simd_level(Quality::default(), level);
    let encoded = encoder.encode(&wl.frame_a);
    let dct = simd::Dct8x8::new();
    // A mid-texture block and the default-quality table for the block
    // kernels.
    let mut block = [0.0f32; 64];
    for (i, v) in block.iter_mut().enumerate() {
        *v = wl.frame_a.data()[i * 37 % wl.frame_a.data().len()] - 0.5;
    }
    let mut coeffs = [0.0f32; 64];
    dct.forward(&block, &mut coeffs, level);
    let qtable: [f32; 64] = std::array::from_fn(|i| 1.0 + (i as f32) * 0.25);
    let mut quantized = [0i32; 64];
    simd::quantize_8x8(&coeffs, &qtable, &mut quantized, level);
    // A full-block permutation stands in for the codec's zig-zag table.
    let order: [i32; 64] = std::array::from_fn(|i| (i * 29 % 64) as i32);
    // A residual block under the delta codec's skip threshold: the
    // common static-pixel case, where the test scans every lane.
    let residual: [f32; 64] = std::array::from_fn(|i| block[i] * 1e-7);
    let opts = SsimOptions::default();

    vec![
        time_kernel("ssim_default_256x128", samples, || {
            ssim_with_simd(&wl.frame_a, &wl.frame_b, &opts, level)
        }),
        time_kernel("codec_encode_256x128", samples, || {
            encoder.encode(&wl.frame_a)
        }),
        time_kernel("codec_decode_256x128", samples, || {
            encoder.decode(&encoded).unwrap()
        }),
        time_kernel("dct_8x8", samples, || {
            let mut c = [0.0f32; 64];
            for _ in 0..BLOCK_BATCH {
                dct.forward(std::hint::black_box(&block), &mut c, level);
            }
            c
        }),
        time_kernel("quantize_8x8", samples, || {
            let mut q = [0i32; 64];
            for _ in 0..BLOCK_BATCH {
                simd::quantize_8x8(std::hint::black_box(&coeffs), &qtable, &mut q, level);
            }
            q
        }),
        time_kernel("dequantize_8x8", samples, || {
            let mut d = [0.0f32; 64];
            for _ in 0..BLOCK_BATCH {
                simd::dequantize_8x8(std::hint::black_box(&quantized), &qtable, &mut d, level);
            }
            d
        }),
        time_kernel("zigzag_gather", samples, || {
            let mut z = [0i32; 64];
            for _ in 0..BLOCK_BATCH {
                simd::zigzag_gather(std::hint::black_box(&quantized), &order, &mut z, level);
            }
            z
        }),
        time_kernel("any_abs_above", samples, || {
            let mut hits = 0usize;
            for _ in 0..BLOCK_BATCH {
                hits += usize::from(simd::any_abs_above(
                    std::hint::black_box(&residual),
                    1e-6,
                    level,
                ));
            }
            hits
        }),
    ]
}

/// Benchmarks the hot kernels at the acceptance-criteria configuration
/// (default 256×128 options, VikingVillage scene): the renderer, then
/// the codec and SSIM kernels under the process-wide detected dispatch
/// level.
pub fn run(samples: usize) -> Vec<KernelTiming> {
    let wl = workload();
    let mut timings = render_kernels(samples, &wl);
    timings.extend(dispatched_kernels(samples, &wl, simd::detected_level()));
    timings
}

/// Benchmarks the codec and SSIM kernels at every dispatch level the
/// CPU supports, scalar first.
pub fn run_levels(samples: usize) -> Vec<SimdTimings> {
    let wl = workload();
    simd::available_levels()
        .into_iter()
        .map(|level| SimdTimings {
            level: level.name().to_string(),
            timings: dispatched_kernels(samples, &wl, level),
        })
        .collect()
}

fn json_entries(timings: &[KernelTiming], indent: &str, s: &mut String) {
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        s.push_str(&format!(
            "{indent}\"{}\": {{ \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}, \"samples\": {} }}{comma}\n",
            t.name, t.median_ns, t.p10_ns, t.p90_ns, t.samples
        ));
    }
}

/// Renders the timings as the committed `BENCH_render.json` document:
/// the default-dispatch `kernels` section plus a `simd` section keyed by
/// dispatch level.
pub fn to_json(timings: &[KernelTiming], levels: &[SimdTimings]) -> String {
    let mut s = String::from("{\n  \"kernels\": {\n");
    json_entries(timings, "    ", &mut s);
    s.push_str("  },\n  \"simd\": {\n");
    for (i, lt) in levels.iter().enumerate() {
        let comma = if i + 1 < levels.len() { "," } else { "" };
        s.push_str(&format!("    \"{}\": {{\n", lt.level));
        json_entries(&lt.timings, "      ", &mut s);
        s.push_str(&format!("    }}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_positive_and_json_well_formed() {
        let wl = workload();
        let mut timings = render_kernels(3, &wl);
        timings.extend(dispatched_kernels(3, &wl, simd::detected_level()));
        assert_eq!(timings.len(), 11);
        for t in &timings {
            assert!(t.median_ns > 0, "{} must take measurable time", t.name);
            assert!(
                t.p10_ns <= t.median_ns && t.median_ns <= t.p90_ns,
                "{}: p10 {} <= median {} <= p90 {}",
                t.name,
                t.p10_ns,
                t.median_ns,
                t.p90_ns
            );
            assert_eq!(t.samples, 3);
        }
        let levels = vec![SimdTimings {
            level: "scalar".to_string(),
            timings: dispatched_kernels(3, &wl, SimdLevel::Scalar),
        }];
        let json = to_json(&timings, &levels);
        let doc = coterie_telemetry::parse_json(&json).expect("valid JSON");
        let kernels = doc.get("kernels").expect("kernels section");
        let scalar = doc
            .get("simd")
            .and_then(|s| s.get("scalar"))
            .expect("simd.scalar section");
        for name in [
            "render_all_256x128",
            "ssim_default_256x128",
            "codec_encode_256x128",
            "codec_decode_256x128",
            "dct_8x8",
            "quantize_8x8",
            "dequantize_8x8",
            "zigzag_gather",
            "any_abs_above",
        ] {
            assert!(kernels.get(name).is_some(), "kernels.{name} missing");
        }
        assert!(scalar.get("render_all_256x128").is_none());
        assert!(scalar.get("any_abs_above").is_some());
        // Every entry, in both sections, carries its spread and count.
        for (section, entries) in [(kernels, &timings), (scalar, &levels[0].timings)] {
            for t in entries.iter() {
                let entry = section.get(&t.name).expect("entry present");
                for (field, want) in [
                    ("median_ns", t.median_ns),
                    ("p10_ns", t.p10_ns),
                    ("p90_ns", t.p90_ns),
                    ("samples", t.samples as u64),
                ] {
                    let got = entry.get(field).and_then(|v| v.as_f64());
                    assert_eq!(got, Some(want as f64), "{}.{field}", t.name);
                }
            }
        }
    }
}
