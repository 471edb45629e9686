//! Equirectangular panorama rendering with near/far filtering.
//!
//! # Hot-path design
//!
//! Rendering cost is the mobile-VR bottleneck the paper is built around
//! (§4.3), and every experiment in this repro funnels through this
//! rasterizer, so it is engineered as a hot kernel:
//!
//! * **Trig tables.** The pixel grid is fixed by [`RenderOptions`], so
//!   every per-pixel transcendental — the `sin_cos` pair behind each
//!   pixel's direction vector, the `atan2`/`asin` of the sky and object
//!   hit tests — is a function of the pixel's row/column alone. They are
//!   computed once per renderer (lazily, shared across clones) and every
//!   frame after that is table lookups plus arithmetic.
//! * **Row hoisting.** A pixel row shares one elevation, so the ground
//!   ray length, the fog attenuation `exp`, and the sky gradient are
//!   lifted out of the column loop.
//! * **Object binning.** Scene/FI objects are projected to their angular
//!   row/column spans once per frame ([`coterie_world::AngularExtent`])
//!   and only rasterized over the rows they can touch.
//! * **Band parallelism.** The panorama splits into horizontal bands
//!   that own disjoint `frame`/`mask`/`depth` slices; bands run on the
//!   shared [`coterie_parallel`] substrate. Rows are computed
//!   independently (background first, then objects in a fixed order), so
//!   output is bit-identical at any worker count — the golden-frame test
//!   pins this against the original scalar renderer's hashes.

use coterie_frame::LumaFrame;
use coterie_parallel::par_for_each;
use coterie_telemetry::{Stage, TelemetrySink, TrackId, KERNEL_PID};
use coterie_world::noise::{value_noise, value_noise_cached, NoiseCellCache};
use coterie_world::{ObjectKind, Scene, SceneObject, Terrain, Vec3};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Restricts which part of the background environment is rendered.
///
/// Coterie splits the BE at a *cutoff radius*: objects within the radius
/// are the near BE (rendered on the phone), objects outside are the far
/// BE (pre-rendered on the server and prefetched) — Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RenderFilter {
    /// Render everything (whole BE — the Furion/Multi-Furion baseline and
    /// the ground-truth frame).
    All,
    /// Render only content within the cutoff radius (near BE).
    NearOnly {
        /// Cutoff radius in meters.
        cutoff: f64,
    },
    /// Render only content outside the cutoff radius (far BE), leaving a
    /// void inside the radius to be filled by the locally rendered near
    /// BE at merge time.
    FarOnly {
        /// Cutoff radius in meters.
        cutoff: f64,
    },
}

impl RenderFilter {
    /// Whether content at ground distance `d` from the eye is included.
    #[inline]
    pub fn includes(&self, d: f64) -> bool {
        match *self {
            RenderFilter::All => true,
            RenderFilter::NearOnly { cutoff } => d < cutoff,
            RenderFilter::FarOnly { cutoff } => d >= cutoff,
        }
    }

    /// The sky is part of the far BE (it is infinitely far away).
    #[inline]
    fn includes_sky(&self) -> bool {
        !matches!(self, RenderFilter::NearOnly { .. })
    }
}

/// Renderer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RenderOptions {
    /// Panorama width in pixels (one full turn of azimuth).
    pub width: u32,
    /// Panorama height in pixels (zenith to nadir).
    pub height: u32,
    /// Maximum object/ground render distance in meters (view culling).
    pub render_distance: f64,
    /// Fog half-distance in meters: scene luma blends toward the horizon
    /// value with `exp(-distance / fog_distance)`.
    pub fog_distance: f64,
    /// Luma the fog converges to.
    pub fog_luma: f32,
    /// Objects whose angular diameter falls below this many pixels are
    /// culled (they could not change any pixel).
    pub min_pixel_size: f64,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            width: 256,
            height: 128,
            render_distance: 400.0,
            fog_distance: 90.0,
            fog_luma: 0.72,
            min_pixel_size: 0.5,
        }
    }
}

impl RenderOptions {
    /// A reduced-resolution profile for bulk similarity sweeps.
    pub fn fast() -> Self {
        RenderOptions {
            width: 192,
            height: 96,
            ..Default::default()
        }
    }
}

/// A rendered panorama: luma plus per-pixel coverage.
///
/// `mask[i] != 0` where the filter actually rendered content; void pixels
/// (e.g. the inside of the cutoff radius in a far-BE frame) carry mask 0
/// and are filled from the other layer at merge time.
#[derive(Debug, Clone, PartialEq)]
pub struct Panorama {
    /// Rendered luma.
    pub frame: LumaFrame,
    /// Per-pixel coverage flags, row-major, same size as `frame`.
    pub mask: Vec<u8>,
}

impl Panorama {
    /// Fraction of pixels covered by the rendered layer.
    pub fn coverage(&self) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        self.mask.iter().filter(|&&m| m != 0).count() as f64 / self.mask.len() as f64
    }
}

/// Per-options trig tables (see the module docs).
///
/// Each entry reproduces, bit-exactly, the value the scalar renderer
/// computed per pixel: `col_*`/`row_*` are the `sin_cos` factors of
/// [`Renderer::pixel_dir`], `azimuth` is `dir.x.atan2(dir.z)` and
/// `elevation` is `dir.y.asin()`. The azimuth roundtrip picks up the
/// row's `cos(elevation)` factor in its low bits, so it is a full
/// per-pixel map rather than a per-column table; `elevation` depends on
/// the row alone.
#[derive(Debug)]
struct TrigTables {
    /// `sin(azimuth)` per column.
    col_sin: Vec<f64>,
    /// `cos(azimuth)` per column.
    col_cos: Vec<f64>,
    /// `sin(elevation)` per row (this is `dir.y`).
    row_sin: Vec<f64>,
    /// `cos(elevation)` per row.
    row_cos: Vec<f64>,
    /// `dir.x.atan2(dir.z)` per pixel, row-major.
    azimuth: Vec<f64>,
    /// `dir.y.asin()` per row.
    elevation: Vec<f64>,
}

impl TrigTables {
    fn build(opts: &RenderOptions) -> Self {
        let w = opts.width as usize;
        let h = opts.height as usize;
        let mut col_sin = Vec::with_capacity(w);
        let mut col_cos = Vec::with_capacity(w);
        for px in 0..w {
            let azimuth = ((px as f64 + 0.5) / opts.width as f64) * std::f64::consts::TAU
                - std::f64::consts::PI;
            let (sa, ca) = azimuth.sin_cos();
            col_sin.push(sa);
            col_cos.push(ca);
        }
        let mut row_sin = Vec::with_capacity(h);
        let mut row_cos = Vec::with_capacity(h);
        let mut elevation = Vec::with_capacity(h);
        for py in 0..h {
            let elev = std::f64::consts::FRAC_PI_2
                - ((py as f64 + 0.5) / opts.height as f64) * std::f64::consts::PI;
            let (se, ce) = elev.sin_cos();
            row_sin.push(se);
            row_cos.push(ce);
            elevation.push(se.asin());
        }
        let mut azimuth = Vec::with_capacity(w * h);
        for &ce in row_cos.iter().take(h) {
            for (&cs, &cc) in col_sin.iter().zip(&col_cos) {
                azimuth.push((cs * ce).atan2(cc * ce));
            }
        }
        TrigTables {
            col_sin,
            col_cos,
            row_sin,
            row_cos,
            azimuth,
            elevation,
        }
    }

    /// Direction of the pixel center `(px, py)` — the same products
    /// `pixel_dir` evaluates, with the `sin_cos` factors looked up.
    #[inline]
    fn dir(&self, px: usize, py: usize) -> Vec3 {
        let ce = self.row_cos[py];
        Vec3::new(
            self.col_sin[px] * ce,
            self.row_sin[py],
            self.col_cos[px] * ce,
        )
    }
}

/// One frame-binned paint job: an object plus its projected pixel spans
/// and every per-object quantity the scalar inner loop recomputed per
/// pixel (hit-test cosine, fog attenuation, texture normalization).
struct ObjectJob<'a> {
    obj: &'a SceneObject,
    /// Eye-to-center vector.
    v: Vec3,
    dist: f64,
    half_width: f64,
    /// `half_width.cos()` — the sphere hit-test threshold.
    cos_half_width: f64,
    base_elevation: f64,
    top_elevation: f64,
    center_azimuth: f64,
    /// Fractional center column.
    cx: f64,
    half_w_px: i64,
    /// Candidate row span (unclamped; bands clip it).
    py_top: i64,
    py_bot: i64,
    /// `exp(-dist / fog_distance) as f32`, hoisted out of the pixel loop.
    fog_k: f32,
    /// `bounding_radius().max(1e-6)` — texture-space normalization.
    bounding: f64,
}

/// A horizontal band owning disjoint slices of the output buffers.
struct Band<'a> {
    /// First row of the band.
    y0: usize,
    rows: usize,
    frame: &'a mut [f32],
    mask: &'a mut [u8],
    depth: &'a mut [f32],
}

/// The software panoramic renderer.
#[derive(Debug, Clone, Default)]
pub struct Renderer {
    opts: RenderOptions,
    /// Requested band-parallel worker count; `0`/`1` renders serially.
    workers: usize,
    /// Lazily built trig tables, shared across clones of this renderer.
    tables: OnceLock<Arc<TrigTables>>,
    /// Telemetry sink for per-band render spans; disabled (a single
    /// branch per band) unless installed with [`Renderer::with_telemetry`].
    telemetry: TelemetrySink,
}

impl Renderer {
    /// Creates a renderer with explicit options.
    pub fn new(opts: RenderOptions) -> Self {
        Renderer {
            opts,
            workers: 1,
            tables: OnceLock::new(),
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Installs a telemetry sink: each rendered band emits one span on
    /// the kernel lane (wall-clock duration — bands are real compute,
    /// not simulated time).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Sets the band-parallel worker count. The panorama is split into
    /// that many horizontal bands rendered concurrently on scoped
    /// threads; output is bit-identical at any count. Defaults to 1
    /// (serial) so nested parallelism — e.g. the pre-render farm mapping
    /// over frames — stays under the caller's control.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Renderer options.
    pub fn options(&self) -> &RenderOptions {
        &self.opts
    }

    /// Effective band-parallel worker count.
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    fn tables(&self) -> &Arc<TrigTables> {
        self.tables.get_or_init(|| {
            let t = Arc::new(TrigTables::build(&self.opts));
            // The tables must reproduce pixel_dir bit-for-bit; spot-check
            // the corners and center so a drifted formula fails fast.
            for &(px, py) in &[
                (0u32, 0u32),
                (self.opts.width - 1, 0),
                (0, self.opts.height - 1),
                (self.opts.width / 2, self.opts.height / 2),
            ] {
                debug_assert_eq!(
                    t.dir(px as usize, py as usize),
                    self.pixel_dir(px, py),
                    "trig table drifted from pixel_dir at ({px},{py})"
                );
            }
            t
        })
    }

    /// Renders the background environment seen from `eye`, restricted by
    /// `filter`.
    pub fn render_panorama(&self, scene: &Scene, eye: Vec3, filter: RenderFilter) -> Panorama {
        self.render_panorama_with(scene, eye, filter, &[])
    }

    /// Renders the BE plus extra dynamic objects (foreground interactions:
    /// avatars, cars). FI objects are always rendered regardless of the
    /// distance filter, mirroring Coterie's architecture where FI is
    /// always drawn locally.
    pub fn render_panorama_with(
        &self,
        scene: &Scene,
        eye: Vec3,
        filter: RenderFilter,
        fi_objects: &[SceneObject],
    ) -> Panorama {
        let w = self.opts.width;
        let h = self.opts.height;
        let tables = Arc::clone(self.tables());
        let mut frame = LumaFrame::new(w, h);
        let mut mask = vec![0u8; (w * h) as usize];
        let mut depth = vec![f32::INFINITY; (w * h) as usize];

        // Bin the frame's objects by angular span, preserving the scalar
        // renderer's paint order: filtered BE objects first, FI last.
        let mut jobs: Vec<ObjectJob<'_>> = Vec::new();
        for obj in scene.objects_within(eye.ground(), self.opts.render_distance) {
            let d = obj.ground_distance(eye);
            if !filter.includes(d) {
                continue;
            }
            if let Some(job) = self.object_job(obj, eye) {
                jobs.push(job);
            }
        }
        for obj in fi_objects {
            if obj.ground_distance(eye) <= self.opts.render_distance {
                if let Some(job) = self.object_job(obj, eye) {
                    jobs.push(job);
                }
            }
        }

        // Split the output buffers into per-band row ranges; every band
        // paints its rows completely (background, then objects clipped to
        // the band), so bands never touch each other's memory.
        let band_count = self.workers().min(h as usize).max(1);
        let rows_per_band = (h as usize).div_ceil(band_count);
        let mut bands: Vec<Band<'_>> = Vec::with_capacity(band_count);
        {
            let mut frame_rest = frame.data_mut();
            let mut mask_rest = mask.as_mut_slice();
            let mut depth_rest = depth.as_mut_slice();
            let mut y0 = 0usize;
            while y0 < h as usize {
                let rows = rows_per_band.min(h as usize - y0);
                let take = rows * w as usize;
                let (f_head, f_tail) = frame_rest.split_at_mut(take);
                let (m_head, m_tail) = mask_rest.split_at_mut(take);
                let (d_head, d_tail) = depth_rest.split_at_mut(take);
                frame_rest = f_tail;
                mask_rest = m_tail;
                depth_rest = d_tail;
                bands.push(Band {
                    y0,
                    rows,
                    frame: f_head,
                    mask: m_head,
                    depth: d_head,
                });
                y0 += rows;
            }
        }
        par_for_each(bands, |mut band| {
            let started = self.telemetry.is_enabled().then(std::time::Instant::now);
            self.paint_background_band(scene, eye, filter, &tables, &mut band);
            let band_end = (band.y0 + band.rows) as i64;
            for job in &jobs {
                if job.py_bot < band.y0 as i64 || job.py_top >= band_end {
                    continue;
                }
                self.paint_object_band(job, &tables, &mut band);
            }
            if let Some(t0) = started {
                self.telemetry.span(
                    TrackId {
                        pid: KERNEL_PID,
                        tid: (band.y0 / rows_per_band) as u32,
                    },
                    Stage::Render,
                    "render-band",
                    self.telemetry.now_ms(),
                    t0.elapsed().as_secs_f64() * 1000.0,
                    0,
                );
            }
        });
        Panorama { frame, mask }
    }

    /// Direction of the panorama pixel center `(px, py)`.
    ///
    /// The table-driven fast path reproduces this exactly; it remains the
    /// readable reference definition (and the source of truth the tables
    /// are checked against).
    #[inline]
    fn pixel_dir(&self, px: u32, py: u32) -> Vec3 {
        let azimuth = ((px as f64 + 0.5) / self.opts.width as f64) * std::f64::consts::TAU
            - std::f64::consts::PI;
        let elevation = std::f64::consts::FRAC_PI_2
            - ((py as f64 + 0.5) / self.opts.height as f64) * std::f64::consts::PI;
        let (sa, ca) = azimuth.sin_cos();
        let (se, ce) = elevation.sin_cos();
        Vec3::new(sa * ce, se, ca * ce)
    }

    /// Pixel coordinates of a world direction; returns fractional
    /// `(x, y)`.
    #[inline]
    fn dir_to_pixel(&self, dir: Vec3) -> (f64, f64) {
        let azimuth = dir.x.atan2(dir.z);
        let elevation = (dir.y / dir.length().max(1e-12)).asin();
        let x = (azimuth + std::f64::consts::PI) / std::f64::consts::TAU * self.opts.width as f64;
        let y = (std::f64::consts::FRAC_PI_2 - elevation) / std::f64::consts::PI
            * self.opts.height as f64;
        (x, y)
    }

    /// Fog blend with a precomputed attenuation factor
    /// `k = exp(-dist / fog_distance) as f32`.
    #[inline]
    fn fog_apply(&self, base: f32, k: f32) -> f32 {
        base * k + self.opts.fog_luma * (1.0 - k)
    }

    fn fog_k(&self, dist: f64) -> f32 {
        (-dist / self.opts.fog_distance).exp() as f32
    }

    /// Projects an object to its pixel-space paint job, or `None` when
    /// it is degenerate or spans less than `min_pixel_size` pixels.
    fn object_job<'a>(&self, obj: &'a SceneObject, eye: Vec3) -> Option<ObjectJob<'a>> {
        let ext = obj.angular_extent(eye)?;
        // Angular diameter in pixels; cull sub-pixel specks.
        let px_per_rad = self.opts.width as f64 / std::f64::consts::TAU;
        if 2.0 * ext.half_width * px_per_rad < self.opts.min_pixel_size {
            return None;
        }
        let v = obj.center() - eye;
        let cos_mid = ((ext.base_elevation + ext.top_elevation) * 0.5)
            .cos()
            .abs()
            .max(0.05);
        let half_w_px = (ext.half_width / cos_mid * px_per_rad).ceil() as i64 + 1;
        let (cx, _) = self.dir_to_pixel(v);
        let py_top = ((std::f64::consts::FRAC_PI_2 - ext.top_elevation) / std::f64::consts::PI
            * self.opts.height as f64)
            .floor() as i64
            - 1;
        let py_bot = ((std::f64::consts::FRAC_PI_2 - ext.base_elevation) / std::f64::consts::PI
            * self.opts.height as f64)
            .ceil() as i64
            + 1;
        Some(ObjectJob {
            obj,
            v,
            dist: ext.distance,
            half_width: ext.half_width,
            cos_half_width: ext.half_width.cos(),
            base_elevation: ext.base_elevation,
            top_elevation: ext.top_elevation,
            center_azimuth: ext.center_azimuth,
            cx,
            half_w_px,
            py_top: py_top.max(0),
            py_bot: py_bot.min(self.opts.height as i64 - 1),
            fog_k: self.fog_k(ext.distance),
            bounding: obj.bounding_radius().max(1e-6),
        })
    }

    fn paint_background_band(
        &self,
        scene: &Scene,
        eye: Vec3,
        filter: RenderFilter,
        tables: &TrigTables,
        band: &mut Band<'_>,
    ) {
        let w = self.opts.width as usize;
        let terrain: &Terrain = scene.terrain();
        let local_ground = terrain.height(eye.ground());
        let eye_above = (eye.y - local_ground).max(0.2);
        let include_sky = filter.includes_sky();
        let mountain_seed = 0x304E_7411u64;
        // Hoisted: the scalar renderer rebuilt this unit vector per pixel.
        let light = Vec3::new(0.35, 0.85, 0.40).normalized();
        // Cell-cached noise: consecutive pixels share lattice cells, so
        // these skip nearly all hashing while returning identical values.
        let mut sampler = terrain.sampler();
        let mut ridge_broad = NoiseCellCache::new();
        let mut ridge_fine = NoiseCellCache::new();
        let mut mountain_tex = NoiseCellCache::new();
        let mut cloud_tex = NoiseCellCache::new();

        for row in 0..band.rows {
            let py = band.y0 + row;
            let se = tables.row_sin[py];
            let row_off = row * w;
            if se >= -1e-4 {
                // Sky or distant mountain silhouette: both at infinite
                // distance, part of the far BE. One elevation per row.
                if !include_sky {
                    continue;
                }
                let elevation = tables.elevation[py];
                let t = (elevation / std::f64::consts::FRAC_PI_2).clamp(0.0, 1.0);
                let sky_base = 0.80 + 0.12 * t;
                let az_row = &tables.azimuth[py * w..(py + 1) * w];
                for (px, &azimuth) in az_row.iter().enumerate() {
                    let ridge = 0.02
                        + 0.06
                            * value_noise_cached(
                                &mut ridge_broad,
                                mountain_seed,
                                azimuth * 2.2 + 9.0,
                                0.0,
                            )
                        + 0.03
                            * value_noise_cached(
                                &mut ridge_fine,
                                mountain_seed ^ 1,
                                azimuth * 7.0,
                                0.3,
                            );
                    let v = if elevation < ridge {
                        // Mountain band.
                        (0.45
                            + 0.12
                                * value_noise_cached(
                                    &mut mountain_tex,
                                    mountain_seed ^ 2,
                                    azimuth * 5.0,
                                    elevation * 30.0,
                                )) as f32
                    } else {
                        // Sky gradient with faint clouds.
                        (sky_base
                            + 0.05
                                * value_noise_cached(
                                    &mut cloud_tex,
                                    mountain_seed ^ 3,
                                    azimuth * 3.0,
                                    elevation * 6.0,
                                )) as f32
                    };
                    let idx = row_off + px;
                    band.frame[idx] = v.clamp(0.0, 1.0);
                    band.mask[idx] = 1;
                    band.depth[idx] = f32::INFINITY;
                }
            } else {
                // Ground: intersect the local ground plane, then shade
                // from the terrain albedo at the hit point. This gives
                // true ground parallax — the near ground texture
                // streams past a moving viewpoint, far ground barely
                // moves. The ray length `t` is shared by the whole row.
                let t = eye_above / (-se);
                if t > self.opts.render_distance {
                    if !include_sky {
                        continue;
                    }
                    // Beyond the render distance the ground fades into
                    // fog (treated as far BE): three row-wide fills
                    // instead of a per-pixel store loop.
                    let fog = self.opts.fog_luma.clamp(0.0, 1.0);
                    band.frame[row_off..row_off + w].fill(fog);
                    band.mask[row_off..row_off + w].fill(1);
                    band.depth[row_off..row_off + w].fill(self.opts.render_distance as f32);
                    continue;
                }
                let fog_k = self.fog_k(t);
                // The cutoff radius is horizontal (Figure 4), so the
                // filter tests the ground-plane distance of the hit. With
                // the `All` filter that distance is never consumed, so
                // skip computing it (a sqrt per pixel).
                let filtered = !matches!(filter, RenderFilter::All);
                for px in 0..w {
                    let dir = tables.dir(px, py);
                    if filtered {
                        let ground_dist = t * dir.ground().length();
                        if !filter.includes(ground_dist) {
                            continue;
                        }
                    }
                    let hit = eye + dir * t;
                    let albedo = sampler.albedo(hit.ground()) as f32;
                    // Slope shading from the terrain normal.
                    let n = sampler.normal(hit.ground());
                    let lambert = n.dot(light).max(0.0) as f32;
                    let v = self.fog_apply(albedo * (0.45 + 0.55 * lambert), fog_k);
                    let idx = row_off + px;
                    band.frame[idx] = v.clamp(0.0, 1.0);
                    band.mask[idx] = 1;
                    band.depth[idx] = t as f32;
                }
            }
        }
    }

    fn paint_object_band(&self, job: &ObjectJob<'_>, tables: &TrigTables, band: &mut Band<'_>) {
        let w = self.opts.width as i64;
        let wu = self.opts.width as usize;
        let band_end = (band.y0 + band.rows) as i64;
        let tex_scale = 14.0;
        let dist_f32 = job.dist as f32;
        for py in job.py_top.max(band.y0 as i64)..=job.py_bot.min(band_end - 1) {
            let pyu = py as usize;
            // The slab hit test's elevation half is row-constant; rows in
            // the conservative [py_top, py_bot] margin that miss it reject
            // every column, so skip them wholesale.
            if matches!(job.obj.kind, ObjectKind::Cylinder | ObjectKind::Box) {
                let elevation = tables.elevation[pyu];
                if !(job.base_elevation..=job.top_elevation).contains(&elevation) {
                    continue;
                }
            }
            let row_off = (pyu - band.y0) * wu;
            // Columns `cx + dxi` for `dxi in -half_w_px..=half_w_px`,
            // wrapped at the panorama seam; stepping the column avoids an
            // integer division per pixel.
            let mut next_px = (job.cx as i64 - job.half_w_px).rem_euclid(w) as usize;
            for _ in -job.half_w_px..=job.half_w_px {
                let px = next_px;
                next_px = if px + 1 == wu { 0 } else { px + 1 };
                let dir = tables.dir(px, pyu);
                let hit = match job.obj.kind {
                    ObjectKind::Sphere => {
                        let cosang = dir.dot(job.v) / job.dist;
                        cosang >= job.cos_half_width
                    }
                    ObjectKind::Cylinder | ObjectKind::Box => {
                        // Elevation containment already held for this row.
                        let azimuth = tables.azimuth[pyu * wu + px];
                        let mut da = azimuth - job.center_azimuth;
                        while da > std::f64::consts::PI {
                            da -= std::f64::consts::TAU;
                        }
                        while da < -std::f64::consts::PI {
                            da += std::f64::consts::TAU;
                        }
                        da.abs() <= job.half_width
                    }
                };
                if !hit {
                    continue;
                }
                let idx = row_off + px;
                if band.depth[idx] <= dist_f32 {
                    continue;
                }
                // World-anchored-ish texture: parameterize by the viewing
                // direction relative to the object center. Far objects see
                // a stable parameterization; near objects' texture slides
                // quickly with viewpoint — amplifying the near-object
                // effect exactly as real parallax does.
                let rel = (dir * job.dist - job.v) / job.bounding;
                let tex = value_noise(
                    job.obj.texture_seed,
                    (rel.x + rel.y * 0.7) * tex_scale,
                    (rel.z - rel.y * 0.4) * tex_scale,
                );
                let shade = (job.obj.albedo * (0.55 + 0.45 * tex)) as f32;
                band.frame[idx] = self.fog_apply(shade, job.fog_k).clamp(0.0, 1.0);
                band.mask[idx] = 1;
                band.depth[idx] = dist_f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_world::{GameCatalog, GameId, GameSpec, Vec2};

    fn fps_scene() -> (Scene, GameSpec) {
        let spec = GameSpec::for_game(GameId::Fps);
        (spec.build_scene(1), spec)
    }

    #[test]
    fn full_render_covers_every_pixel() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let pano = r.render_panorama(&scene, eye, RenderFilter::All);
        assert_eq!(pano.coverage(), 1.0);
    }

    #[test]
    fn near_and_far_partition_coverage() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let cutoff = 10.0;
        let near = r.render_panorama(&scene, eye, RenderFilter::NearOnly { cutoff });
        let far = r.render_panorama(&scene, eye, RenderFilter::FarOnly { cutoff });
        // Every pixel is covered by at least one layer, and the near layer
        // is a strict subset.
        for i in 0..near.mask.len() {
            assert!(near.mask[i] != 0 || far.mask[i] != 0, "hole at {i}");
        }
        assert!(near.coverage() > 0.0);
        assert!(near.coverage() < 1.0);
        assert!(far.coverage() < 1.0);
    }

    #[test]
    fn sky_is_far_be() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let near = r.render_panorama(&scene, eye, RenderFilter::NearOnly { cutoff: 5.0 });
        // Top row is sky: never part of near BE.
        for px in 0..r.options().width {
            assert_eq!(near.mask[px as usize], 0);
        }
        let far = r.render_panorama(&scene, eye, RenderFilter::FarOnly { cutoff: 5.0 });
        for px in 0..r.options().width {
            assert_eq!(far.mask[px as usize], 1);
        }
    }

    #[test]
    fn renders_are_deterministic() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let a = r.render_panorama(&scene, eye, RenderFilter::All);
        let b = r.render_panorama(&scene, eye, RenderFilter::All);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(7);
        let eye = scene.eye(scene.bounds().center());
        let serial = Renderer::default();
        let reference = serial.render_panorama(&scene, eye, RenderFilter::All);
        for workers in [2usize, 3, 8, 64] {
            let banded = Renderer::default().with_workers(workers);
            for filter in [
                RenderFilter::All,
                RenderFilter::NearOnly { cutoff: 10.0 },
                RenderFilter::FarOnly { cutoff: 10.0 },
            ] {
                let a = serial.render_panorama(&scene, eye, filter);
                let b = banded.render_panorama(&scene, eye, filter);
                assert_eq!(a, b, "filter {filter:?} diverged at {workers} workers");
            }
            let again = banded.render_panorama(&scene, eye, RenderFilter::All);
            assert_eq!(reference, again);
        }
    }

    #[test]
    fn near_object_effect_emerges_from_projection() {
        // The decisive property (Figure 3 / §4.2): moving the viewpoint
        // slightly must change far-BE frames much less than whole-BE
        // frames when near objects exist.
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(7);
        let r = Renderer::default();
        // Find a location with nearby objects.
        let mut probe = scene.bounds().center();
        'search: for i in 0..400 {
            let p = Vec2::new(10.0 + (i % 20) as f64 * 8.5, 10.0 + (i / 20) as f64 * 5.5);
            if scene.bounds().contains(p) && scene.triangles_within(p, 6.0) > 20_000 {
                probe = p;
                break 'search;
            }
        }
        let eye_a = scene.eye(probe);
        let eye_b = scene.eye(probe + Vec2::new(0.5, 0.0));
        let whole_a = r.render_panorama(&scene, eye_a, RenderFilter::All);
        let whole_b = r.render_panorama(&scene, eye_b, RenderFilter::All);
        let far_a = r.render_panorama(&scene, eye_a, RenderFilter::FarOnly { cutoff: 12.0 });
        let far_b = r.render_panorama(&scene, eye_b, RenderFilter::FarOnly { cutoff: 12.0 });
        let s_whole = coterie_frame::ssim(&whole_a.frame, &whole_b.frame);
        let s_far = coterie_frame::ssim(&far_a.frame, &far_b.frame);
        assert!(
            s_far > s_whole,
            "far-BE similarity ({s_far:.3}) must exceed whole-BE similarity ({s_whole:.3})"
        );
    }

    #[test]
    fn larger_cutoff_increases_far_similarity() {
        // Figure 5: SSIM between adjacent far-BE frames increases
        // monotonically (in trend) with the cutoff radius.
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(7);
        let r = Renderer::default();
        let p = scene.bounds().center();
        let eye_a = scene.eye(p);
        let eye_b = scene.eye(p + Vec2::new(0.4, 0.0));
        let mut last = -1.0;
        let mut increases = 0;
        let cutoffs = [0.0, 2.0, 6.0, 16.0];
        for &c in &cutoffs {
            let a = r.render_panorama(&scene, eye_a, RenderFilter::FarOnly { cutoff: c });
            let b = r.render_panorama(&scene, eye_b, RenderFilter::FarOnly { cutoff: c });
            let s = coterie_frame::ssim(&a.frame, &b.frame);
            if s >= last {
                increases += 1;
            }
            last = s;
        }
        assert!(increases >= 3, "similarity should rise with cutoff");
    }

    #[test]
    fn fi_objects_render_regardless_of_filter() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let avatar = SceneObject {
            id: coterie_world::ObjectId(u32::MAX),
            position: (eye.ground() + Vec2::new(2.0, 2.0)).with_y(0.0),
            radius: 0.5,
            height: 1.8,
            triangles: 5000,
            albedo: 0.95,
            kind: ObjectKind::Cylinder,
            texture_seed: 1,
        };
        let without = r.render_panorama(&scene, eye, RenderFilter::FarOnly { cutoff: 50.0 });
        let with = r.render_panorama_with(
            &scene,
            eye,
            RenderFilter::FarOnly { cutoff: 50.0 },
            std::slice::from_ref(&avatar),
        );
        assert_ne!(without.frame, with.frame, "FI avatar must appear");
    }

    #[test]
    fn every_game_renders_without_panic() {
        let r = Renderer::new(RenderOptions::fast());
        for spec in GameCatalog::all() {
            let scene = spec.build_scene(3);
            let eye = scene.eye(scene.bounds().center());
            let pano = r.render_panorama(&scene, eye, RenderFilter::All);
            assert_eq!(pano.coverage(), 1.0, "{}", spec.id);
            let mean = pano.frame.mean();
            assert!(
                (0.05..0.95).contains(&mean),
                "{}: implausible mean luma {mean}",
                spec.id
            );
        }
    }

    #[test]
    fn pixel_dir_roundtrip() {
        let r = Renderer::default();
        for &(px, py) in &[(0u32, 0u32), (100, 60), (255, 127), (128, 64)] {
            let dir = r.pixel_dir(px, py);
            assert!((dir.length() - 1.0).abs() < 1e-9);
            let (x, y) = r.dir_to_pixel(dir);
            assert!((x - (px as f64 + 0.5)).abs() < 0.51, "px {px} -> {x}");
            assert!((y - (py as f64 + 0.5)).abs() < 0.51, "py {py} -> {y}");
        }
    }

    #[test]
    fn trig_tables_match_pixel_dir_everywhere() {
        let r = Renderer::default();
        let tables = r.tables();
        for py in 0..r.opts.height {
            for px in 0..r.opts.width {
                assert_eq!(
                    tables.dir(px as usize, py as usize),
                    r.pixel_dir(px, py),
                    "table dir drifted at ({px},{py})"
                );
            }
        }
        // The azimuth/elevation maps must be the exact roundtrips the
        // scalar hit tests computed.
        for py in (0..r.opts.height as usize).step_by(7) {
            for px in (0..r.opts.width as usize).step_by(11) {
                let dir = tables.dir(px, py);
                assert_eq!(tables.azimuth[py * r.opts.width as usize + px], {
                    dir.x.atan2(dir.z)
                });
                assert_eq!(tables.elevation[py], dir.y.asin());
            }
        }
    }

    #[test]
    fn filter_includes_semantics() {
        assert!(RenderFilter::All.includes(1e9));
        let near = RenderFilter::NearOnly { cutoff: 5.0 };
        assert!(near.includes(4.9));
        assert!(!near.includes(5.0));
        let far = RenderFilter::FarOnly { cutoff: 5.0 };
        assert!(far.includes(5.0));
        assert!(!far.includes(4.9));
    }
}
