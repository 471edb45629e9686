//! Golden-frame regression guard for the renderer hot path.
//!
//! The hashes below were produced by the scalar pre-optimization
//! renderer (per-pixel `sin_cos`/`atan2`/`asin`, no banding) at the
//! default 256×128 options. The optimized trig-table + band renderer
//! must reproduce every panorama byte-for-byte, at any worker count —
//! the determinism claim the band decomposition is built on.
//!
//! Regenerate with:
//! `cargo test -p coterie-render --test golden print_golden_hashes -- --ignored --nocapture`

use coterie_render::{Panorama, RenderFilter, RenderOptions, Renderer};
use coterie_world::{GameCatalog, GameId};

const SCENE_SEED: u64 = 3;
const CUTOFF: f64 = 10.0;

/// FNV-1a over the frame's f32 bit patterns followed by the mask bytes.
fn pano_hash(p: &Panorama) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    };
    for v in p.frame.data() {
        for b in v.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    for &m in &p.mask {
        eat(m);
    }
    h
}

fn filters() -> [(&'static str, RenderFilter); 3] {
    [
        ("All", RenderFilter::All),
        ("NearOnly", RenderFilter::NearOnly { cutoff: CUTOFF }),
        ("FarOnly", RenderFilter::FarOnly { cutoff: CUTOFF }),
    ]
}

/// `(game, filter, hash)` captured from the pre-refactor scalar renderer.
const GOLDEN: &[(GameId, &str, u64)] = &[
    // GENERATED — do not edit by hand; see module docs.
    (GameId::RacingMountain, "All", 0xf45cc34594db6661),
    (GameId::RacingMountain, "NearOnly", 0x4a0aac9299030a8f),
    (GameId::RacingMountain, "FarOnly", 0x6eeae70730c80bdf),
    (GameId::Ds, "All", 0xa7bf866be01902be),
    (GameId::Ds, "NearOnly", 0x45c4b713e29d3cb4),
    (GameId::Ds, "FarOnly", 0x8c17273fd0a4510e),
    (GameId::VikingVillage, "All", 0x40bb6478764b42bc),
    (GameId::VikingVillage, "NearOnly", 0xf6a34fee02df0bbd),
    (GameId::VikingVillage, "FarOnly", 0xfa5471060fe09e85),
    (GameId::Cts, "All", 0xaf799805eedba03c),
    (GameId::Cts, "NearOnly", 0x3fe8d5ad374eedcc),
    (GameId::Cts, "FarOnly", 0x51c7277835b5f781),
    (GameId::Fps, "All", 0x684f67b12845e021),
    (GameId::Fps, "NearOnly", 0x8ee53c901564ae0b),
    (GameId::Fps, "FarOnly", 0xde1d53ffc5ce4d4b),
    (GameId::Soccer, "All", 0x5ea7b8a807d21192),
    (GameId::Soccer, "NearOnly", 0x6dc1e54f5df95da9),
    (GameId::Soccer, "FarOnly", 0x89e311bce5fbd88d),
    (GameId::Pool, "All", 0x92bb2428c9898d19),
    (GameId::Pool, "NearOnly", 0x2beb46f444076a72),
    (GameId::Pool, "FarOnly", 0x4b936d3914300831),
    (GameId::Bowling, "All", 0x8b49836185f56322),
    (GameId::Bowling, "NearOnly", 0xa42dff96439d6b37),
    (GameId::Bowling, "FarOnly", 0x4e4597a36fd10ee6),
    (GameId::Corridor, "All", 0x8acf63a590f620e9),
    (GameId::Corridor, "NearOnly", 0x7c8c49d651c4b77c),
    (GameId::Corridor, "FarOnly", 0x5c90ce89f66c980f),
];

#[test]
#[ignore = "generator: prints the GOLDEN table for this file"]
fn print_golden_hashes() {
    let renderer = Renderer::new(RenderOptions::default());
    for spec in GameCatalog::all() {
        let scene = spec.build_scene(SCENE_SEED);
        let eye = scene.eye(scene.bounds().center());
        for (name, filter) in filters() {
            let hash = pano_hash(&renderer.render_panorama(&scene, eye, filter));
            println!("    (GameId::{:?}, \"{name}\", 0x{hash:016x}),", spec.id);
        }
    }
}

#[test]
fn optimized_renderer_matches_scalar_golden_hashes() {
    for &workers in &[1usize, 2, 8] {
        let renderer = Renderer::new(RenderOptions::default()).with_workers(workers);
        for spec in GameCatalog::all() {
            let scene = spec.build_scene(SCENE_SEED);
            let eye = scene.eye(scene.bounds().center());
            for (name, filter) in filters() {
                let pano = renderer.render_panorama(&scene, eye, filter);
                let hash = pano_hash(&pano);
                let expected = GOLDEN
                    .iter()
                    .find(|(g, f, _)| *g == spec.id && *f == name)
                    .map(|(_, _, h)| *h)
                    .unwrap_or_else(|| panic!("no golden entry for {:?}/{name}", spec.id));
                assert_eq!(
                    hash, expected,
                    "{:?}/{name} diverged from the scalar renderer at {workers} workers",
                    spec.id
                );
            }
        }
    }
}
