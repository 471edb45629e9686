//! Runtime-dispatched SIMD kernels for the server's hot loops: the
//! transform codec and SSIM.
//!
//! Every kernel here has two implementations — portable scalar and
//! 256-bit AVX2 — selected at runtime by a [`SimdLevel`] argument. The
//! scalar path is the *reference semantics*, and the only path that runs
//! on the paper's ARM clients: the AVX2 path replicates the scalar
//! per-lane IEEE operation order exactly (same multiply/add association,
//! no FMA contraction), so for every kernel in this module both levels
//! produce **bit-identical** results. That is what keeps
//! `COTERIE_SIMD=scalar` output byte-identical to the historical scalar
//! code, and what lets the codec parity proptests compare whole
//! bitstreams across levels.
//!
//! Only kernels whose AVX2 body pays for itself on `BENCH_render.json`
//! live here (scalar/avx2 medians: DCT 3.1×, quantize 15×, dequantize
//! 1.7×, zig-zag 1.7×, `any_abs_above` 7.2×, SSIM 4.3×, and codec
//! encode 3.2× / decode 1.6×, which carry the plane ops). The renderer
//! has no kernels here: vectorized hit tests bought it ~3%.
//!
//! Dispatch policy:
//!
//! * [`cpu_level`] — what the CPU supports (`is_x86_feature_detected!`,
//!   evaluated per call but cheap): `Avx2` when present, else `Scalar`.
//! * [`detected_level`] — the process-wide default: the
//!   `COTERIE_SIMD=scalar|avx2` env override (read once, cached in a
//!   `OnceLock`) clamped to [`cpu_level`]. Any other value — including
//!   the retired `sse2` — auto-detects, so a stale override changes
//!   speed, never behaviour.
//! * Every public kernel takes an explicit `level` and internally
//!   clamps it to [`cpu_level`], so passing `Avx2` on a non-AVX2 box is
//!   safe (it runs the scalar path) and tests can exercise both levels
//!   in-process via [`available_levels`] without touching global state.
//!
//! Safety: the `unsafe` intrinsic bodies live in the private `x86`
//! module; each dispatch site's `unsafe` block carries the argument for
//! why the call is sound (AVX2 support proven by the clamp, in-bounds
//! offsets asserted before dispatch).

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// A SIMD instruction-set tier, ordered from narrowest to widest.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar Rust — the reference semantics for every kernel.
    Scalar,
    /// 256-bit AVX2 paths.
    Avx2,
}

impl SimdLevel {
    /// Lower-case name as accepted by the `COTERIE_SIMD` env var.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The widest level this CPU supports.
pub fn cpu_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// Parses a `COTERIE_SIMD` value (case-insensitive). Unknown values —
/// including the retired `sse2` tier — return `None`, which means
/// auto-detect: a stale or typo'd override must not change behaviour,
/// only speed.
fn parse_level(value: &str) -> Option<SimdLevel> {
    match value.to_ascii_lowercase().as_str() {
        "scalar" => Some(SimdLevel::Scalar),
        "avx2" => Some(SimdLevel::Avx2),
        _ => None,
    }
}

/// The process-wide default level: the `COTERIE_SIMD` override (read
/// once) clamped to what the CPU supports.
pub fn detected_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let cap = cpu_level();
        let requested = std::env::var("COTERIE_SIMD")
            .ok()
            .and_then(|v| parse_level(&v));
        requested.unwrap_or(cap).min(cap)
    })
}

/// Every level the CPU can run, narrowest first (always starts with
/// `Scalar`). Tests iterate this to assert cross-level parity.
pub fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= cpu_level())
        .collect()
}

/// Clamps a requested level to CPU capability; the proof obligation for
/// every `unsafe` dispatch below.
#[inline]
fn clamp_level(level: SimdLevel) -> SimdLevel {
    level.min(cpu_level())
}

// ---------------------------------------------------------------------
// 8×8 DCT-II
// ---------------------------------------------------------------------

/// Orthonormal 8×8 DCT-II with a precomputed basis and its transpose
/// (the layout the SIMD row pass needs), built once per codec instance
/// instead of per block.
#[derive(Clone, Debug)]
pub struct Dct8x8 {
    /// `basis[u][x] = c(u) * cos((2x+1) u π / 16)`.
    basis: [[f32; 8]; 8],
    /// `basis_t[x][u] = basis[u][x]`.
    basis_t: [[f32; 8]; 8],
}

impl Default for Dct8x8 {
    fn default() -> Self {
        Self::new()
    }
}

impl Dct8x8 {
    /// Builds the cosine basis with the orthonormal scaling
    /// `c(0)=sqrt(1/8)`, `c(u)=sqrt(2/8)` (in f64, rounded once to f32 —
    /// the same construction the historical per-block `OnceLock` used).
    pub fn new() -> Self {
        let mut basis = [[0.0f32; 8]; 8];
        for (u, row) in basis.iter_mut().enumerate() {
            let c = if u == 0 {
                (1.0f64 / 8.0).sqrt()
            } else {
                (2.0f64 / 8.0).sqrt()
            };
            for (x, v) in row.iter_mut().enumerate() {
                *v = (c * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos())
                    as f32;
            }
        }
        let mut basis_t = [[0.0f32; 8]; 8];
        for u in 0..8 {
            for x in 0..8 {
                basis_t[x][u] = basis[u][x];
            }
        }
        Dct8x8 { basis, basis_t }
    }

    /// Forward 2-D DCT of an 8×8 block (row-major).
    pub fn forward(&self, input: &[f32; 64], output: &mut [f32; 64], level: SimdLevel) {
        match clamp_level(level) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: clamp_level caps the request at cpu_level(), which
            // only reports Avx2 when the CPU has it; all buffers
            // are fixed-size arrays, so every offset is in bounds.
            SimdLevel::Avx2 => unsafe {
                x86::dct_forward_avx2(&self.basis, &self.basis_t, input, output)
            },
            _ => self.forward_scalar(input, output),
        }
    }

    /// Inverse 2-D DCT of an 8×8 coefficient block (row-major).
    pub fn inverse(&self, coeffs: &[f32; 64], output: &mut [f32; 64], level: SimdLevel) {
        match clamp_level(level) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: level clamped to CPU capability; fixed-size arrays.
            SimdLevel::Avx2 => unsafe { x86::dct_inverse_avx2(&self.basis, coeffs, output) },
            _ => self.inverse_scalar(coeffs, output),
        }
    }

    fn forward_scalar(&self, input: &[f32; 64], output: &mut [f32; 64]) {
        let b = &self.basis;
        // Rows first.
        let mut tmp = [0.0f32; 64];
        for y in 0..8 {
            for u in 0..8 {
                let mut acc = 0.0f32;
                for x in 0..8 {
                    acc += input[y * 8 + x] * b[u][x];
                }
                tmp[y * 8 + u] = acc;
            }
        }
        // Then columns.
        for u in 0..8 {
            for v in 0..8 {
                let mut acc = 0.0f32;
                for y in 0..8 {
                    acc += tmp[y * 8 + u] * b[v][y];
                }
                output[v * 8 + u] = acc;
            }
        }
    }

    fn inverse_scalar(&self, coeffs: &[f32; 64], output: &mut [f32; 64]) {
        let b = &self.basis;
        let mut tmp = [0.0f32; 64];
        // Columns first (transpose of forward).
        for u in 0..8 {
            for y in 0..8 {
                let mut acc = 0.0f32;
                for v in 0..8 {
                    acc += coeffs[v * 8 + u] * b[v][y];
                }
                tmp[y * 8 + u] = acc;
            }
        }
        for y in 0..8 {
            for x in 0..8 {
                let mut acc = 0.0f32;
                for u in 0..8 {
                    acc += tmp[y * 8 + u] * b[u][x];
                }
                output[y * 8 + x] = acc;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Quantization, zig-zag
// ---------------------------------------------------------------------

/// Quantizes an 8×8 coefficient block: `out[i] = (coeffs[i] /
/// qtable[i]).round() as i32` (round half away from zero, exactly as
/// `f32::round`). Returns `true` when every output is zero.
///
/// The SIMD paths assume `|coeffs[i] / qtable[i]| < 2^23` and no NaNs —
/// trivially true for DCT output of frames in `[-0.5, 0.5]` divided by
/// the codec's quantization tables (the scalar `as i32` saturating cast
/// and `cvttps` only diverge far outside that domain).
pub fn quantize_8x8(
    coeffs: &[f32; 64],
    qtable: &[f32; 64],
    out: &mut [i32; 64],
    level: SimdLevel,
) -> bool {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; fixed-size arrays.
        SimdLevel::Avx2 => unsafe { x86::quantize_avx2(coeffs, qtable, out) },
        _ => quantize_scalar(coeffs, qtable, out),
    }
}

fn quantize_scalar(coeffs: &[f32; 64], qtable: &[f32; 64], out: &mut [i32; 64]) -> bool {
    let mut all_zero = true;
    for i in 0..64 {
        out[i] = (coeffs[i] / qtable[i]).round() as i32;
        all_zero &= out[i] == 0;
    }
    all_zero
}

/// Dequantizes an 8×8 block: `out[i] = q[i] as f32 * qtable[i]`.
pub fn dequantize_8x8(q: &[i32; 64], qtable: &[f32; 64], out: &mut [f32; 64], level: SimdLevel) {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; fixed-size arrays.
        SimdLevel::Avx2 => unsafe { x86::dequantize_avx2(q, qtable, out) },
        _ => dequantize_scalar(q, qtable, out),
    }
}

fn dequantize_scalar(q: &[i32; 64], qtable: &[f32; 64], out: &mut [f32; 64]) {
    for i in 0..64 {
        out[i] = q[i] as f32 * qtable[i];
    }
}

/// Gathers an 8×8 block into scan order: `out[i] = src[order[i] & 63]`
/// (the mask keeps the gather in bounds for any index table; the
/// codec's zig-zag entries are already in `0..64`, so it is a no-op
/// there).
pub fn zigzag_gather(src: &[i32; 64], order: &[i32; 64], out: &mut [i32; 64], level: SimdLevel) {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; gather indices are
        // masked to 0..64 inside the kernel, so every lane stays inside
        // the fixed-size `src` array.
        SimdLevel::Avx2 => unsafe { x86::zigzag_avx2(src, order, out) },
        _ => zigzag_scalar(src, order, out),
    }
}

fn zigzag_scalar(src: &[i32; 64], order: &[i32; 64], out: &mut [i32; 64]) {
    for i in 0..64 {
        out[i] = src[(order[i] & 63) as usize];
    }
}

// ---------------------------------------------------------------------
// f32 plane ops (codec residual/centering planes)
// ---------------------------------------------------------------------

/// Element-wise `out[i] = a[i] - b[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_planes_f32(a: &[f32], b: &[f32], out: &mut [f32], level: SimdLevel) {
    assert_eq!(a.len(), b.len(), "plane lengths differ");
    assert_eq!(a.len(), out.len(), "output length differs");
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; equal lengths
        // asserted above keep every vector load/store in bounds.
        SimdLevel::Avx2 => unsafe { x86::sub_planes_avx2(a, b, out) },
        _ => sub_planes_scalar(a, b, out),
    }
}

fn sub_planes_scalar(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// Element-wise in-place `dst[i] += src[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_planes_f32(dst: &mut [f32], src: &[f32], level: SimdLevel) {
    assert_eq!(dst.len(), src.len(), "plane lengths differ");
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; equal lengths asserted.
        SimdLevel::Avx2 => unsafe { x86::add_planes_avx2(dst, src) },
        _ => add_planes_scalar(dst, src),
    }
}

fn add_planes_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Element-wise `out[i] = src[i] - s`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_scalar_f32(src: &[f32], s: f32, out: &mut [f32], level: SimdLevel) {
    assert_eq!(src.len(), out.len(), "plane lengths differ");
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; equal lengths asserted.
        SimdLevel::Avx2 => unsafe { x86::sub_scalar_avx2(src, s, out) },
        _ => sub_scalar_scalar(src, s, out),
    }
}

fn sub_scalar_scalar(src: &[f32], s: f32, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = v - s;
    }
}

/// Element-wise in-place `dst[i] += s`.
pub fn add_scalar_f32(dst: &mut [f32], s: f32, level: SimdLevel) {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; single slice, offsets
        // bounded by its length.
        SimdLevel::Avx2 => unsafe { x86::add_scalar_avx2(dst, s) },
        _ => add_scalar_scalar(dst, s),
    }
}

fn add_scalar_scalar(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d += s;
    }
}

/// Element-wise in-place `dst[i] = dst[i].clamp(0.0, 1.0)`.
///
/// The SIMD paths use compare-and-select rather than min/max, so the
/// edge cases match scalar `f32::clamp` bit-for-bit: `-0.0` is kept
/// (it is not `< 0.0`) and NaN passes through unchanged.
pub fn clamp_unit_f32(dst: &mut [f32], level: SimdLevel) {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; single slice, offsets
        // bounded by its length.
        SimdLevel::Avx2 => unsafe { x86::clamp_unit_avx2(dst) },
        _ => clamp_unit_scalar(dst),
    }
}

fn clamp_unit_scalar(dst: &mut [f32]) {
    for d in dst.iter_mut() {
        *d = d.clamp(0.0, 1.0);
    }
}

/// Fused `dst[i] = (dst[i] + s).clamp(0.0, 1.0)` — one pass over the
/// plane instead of [`add_scalar_f32`] followed by [`clamp_unit_f32`]
/// (the decoder's un-center + clamp epilogue; value-for-value identical
/// to the two passes, just half the memory traffic).
pub fn add_clamp_unit_f32(dst: &mut [f32], s: f32, level: SimdLevel) {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; single slice, offsets
        // bounded by its length.
        SimdLevel::Avx2 => unsafe { x86::add_clamp_unit_avx2(dst, s) },
        _ => add_clamp_unit_scalar(dst, s),
    }
}

fn add_clamp_unit_scalar(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d = (*d + s).clamp(0.0, 1.0);
    }
}

/// Returns `true` if any `|src[i]| > thresh` (strict; NaN compares
/// false on every path, matching scalar `f32::abs` + `>`).
pub fn any_abs_above(src: &[f32], thresh: f32, level: SimdLevel) -> bool {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; single slice.
        SimdLevel::Avx2 => unsafe { x86::any_abs_above_avx2(src, thresh) },
        _ => any_abs_above_scalar(src, thresh),
    }
}

fn any_abs_above_scalar(src: &[f32], thresh: f32) -> bool {
    src.iter().any(|&v| v.abs() > thresh)
}

// ---------------------------------------------------------------------
// SSIM moment kernels (f64)
// ---------------------------------------------------------------------

/// The five SSIM moment planes for one row of window centers, in
/// structure-of-arrays layout: weighted sums of `a`, `b`, `a²`, `b²`
/// and `ab`.
#[derive(Debug)]
pub struct MomentRowsMut<'a> {
    /// Σ k·a per center.
    pub a: &'a mut [f64],
    /// Σ k·b per center.
    pub b: &'a mut [f64],
    /// Σ (k·a)·a per center.
    pub aa: &'a mut [f64],
    /// Σ (k·b)·b per center.
    pub bb: &'a mut [f64],
    /// Σ (k·a)·b per center.
    pub ab: &'a mut [f64],
}

/// Horizontal SSIM moment pass for one pixel row: for each window
/// center `ci`, accumulates the five Gaussian-weighted moments over
/// `a_row[ci..ci + kernel.len()]` (and likewise `b_row`), replicating
/// the scalar association exactly (each `f32` pixel widened to `f64` —
/// exact — then `k*a`, `(k*a)*a`, `(k*a)*b`, `k*b`, `(k*b)*b`,
/// accumulated in kernel-tap order from 0.0).
///
/// # Panics
///
/// Panics if the five output slices differ in length or the input rows
/// are shorter than `out.a.len() + kernel.len() - 1`.
pub fn ssim_moments_row(
    a_row: &[f32],
    b_row: &[f32],
    kernel: &[f64],
    out: &mut MomentRowsMut<'_>,
    level: SimdLevel,
) {
    let n = out.a.len();
    assert_eq!(out.b.len(), n, "moment plane lengths differ");
    assert_eq!(out.aa.len(), n, "moment plane lengths differ");
    assert_eq!(out.bb.len(), n, "moment plane lengths differ");
    assert_eq!(out.ab.len(), n, "moment plane lengths differ");
    assert!(!kernel.is_empty(), "empty kernel");
    assert!(
        a_row.len() >= n + kernel.len() - 1 && b_row.len() >= n + kernel.len() - 1,
        "input rows too short for {} centers with a {}-tap kernel",
        n,
        kernel.len()
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; the length asserts
        // above guarantee every `ci + ki + lanes` load stays inside the
        // input rows and every store inside the five output planes.
        SimdLevel::Avx2 => unsafe { x86::ssim_moments_avx2(a_row, b_row, kernel, out) },
        _ => ssim_moments_scalar(a_row, b_row, kernel, out, 0),
    }
}

/// Scalar moment pass from center `start` to the end; also the tail
/// handler for the SIMD paths.
fn ssim_moments_scalar(
    a_row: &[f32],
    b_row: &[f32],
    kernel: &[f64],
    out: &mut MomentRowsMut<'_>,
    start: usize,
) {
    for ci in start..out.a.len() {
        let mut m = [0.0f64; 5];
        for (ki, &kx) in kernel.iter().enumerate() {
            let va = a_row[ci + ki] as f64;
            let vb = b_row[ci + ki] as f64;
            m[0] += kx * va;
            m[1] += kx * vb;
            m[2] += kx * va * va;
            m[3] += kx * vb * vb;
            m[4] += kx * va * vb;
        }
        out.a[ci] = m[0];
        out.b[ci] = m[1];
        out.aa[ci] = m[2];
        out.bb[ci] = m[3];
        out.ab[ci] = m[4];
    }
}

/// Shared-ref view of `klen` consecutive blurred moment rows (the
/// vertical window of one output row), each `stride` centers wide, in
/// the same five-plane layout as [`MomentRowsMut`].
#[derive(Debug)]
pub struct MomentRows<'a> {
    /// Σ k·a rows.
    pub a: &'a [f64],
    /// Σ k·b rows.
    pub b: &'a [f64],
    /// Σ (k·a)·a rows.
    pub aa: &'a [f64],
    /// Σ (k·b)·b rows.
    pub bb: &'a [f64],
    /// Σ (k·a)·b rows.
    pub ab: &'a [f64],
}

/// Vertical SSIM pass fused with the per-window formula: for each
/// center `ci`, combines `kernel.len()` blurred moment rows
/// (`rows.a[ki * stride + ci]`, …) with the vertical kernel — the same
/// register-accumulated tap order as the scalar walk — and evaluates
/// the SSIM term with stabilizers `c1`/`c2` straight out of registers:
///
/// ```text
/// ssim = ((2·μa·μb + c1)(2·cov + c2)) / ((μa² + μb² + c1)(σa² + σb² + c2))
/// ```
///
/// with variances clamped at zero. Every operation replicates the
/// scalar association per lane (division is exactly rounded, and the
/// clamp is compare-and-select), so all dispatch levels produce
/// bit-identical maps.
///
/// # Panics
///
/// Panics if the five row slices differ in length, the kernel is empty,
/// `out` is wider than `stride`, or the rows are shorter than the
/// `kernel.len()` vertical taps need.
pub fn ssim_windows_row(
    rows: &MomentRows<'_>,
    stride: usize,
    kernel: &[f64],
    c1: f64,
    c2: f64,
    out: &mut [f64],
    level: SimdLevel,
) {
    let n = out.len();
    assert_eq!(rows.b.len(), rows.a.len(), "moment row lengths differ");
    assert_eq!(rows.aa.len(), rows.a.len(), "moment row lengths differ");
    assert_eq!(rows.bb.len(), rows.a.len(), "moment row lengths differ");
    assert_eq!(rows.ab.len(), rows.a.len(), "moment row lengths differ");
    assert!(!kernel.is_empty(), "empty kernel");
    assert!(n <= stride, "output row wider than the plane stride");
    assert!(
        rows.a.len() >= (kernel.len() - 1) * stride + n,
        "moment rows too short for {} vertical taps over {} centers",
        kernel.len(),
        n
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; the asserts above
        // guarantee every `ki * stride + ci + lanes` load stays inside
        // the five row slices and every store inside `out`.
        SimdLevel::Avx2 => unsafe { x86::ssim_windows_avx2(rows, stride, kernel, c1, c2, out) },
        _ => ssim_windows_scalar(rows, stride, kernel, c1, c2, out, 0),
    }
}

/// Scalar vertical-pass + formula from center `start`; also the tail
/// handler for the SIMD paths.
// Indexing `out[ci]` alongside `ki * stride + ci` keeps the center/tap
// addressing symmetric with the SIMD bodies.
#[allow(clippy::needless_range_loop)]
fn ssim_windows_scalar(
    rows: &MomentRows<'_>,
    stride: usize,
    kernel: &[f64],
    c1: f64,
    c2: f64,
    out: &mut [f64],
    start: usize,
) {
    for ci in start..out.len() {
        let mut m = [0.0f64; 5];
        for (ki, &ky) in kernel.iter().enumerate() {
            let o = ki * stride + ci;
            m[0] += ky * rows.a[o];
            m[1] += ky * rows.b[o];
            m[2] += ky * rows.aa[o];
            m[3] += ky * rows.bb[o];
            m[4] += ky * rows.ab[o];
        }
        let [mu_a, mu_b, aa, bb, ab] = m;
        let var_a = (aa - mu_a * mu_a).max(0.0);
        let var_b = (bb - mu_b * mu_b).max(0.0);
        let cov = ab - mu_a * mu_b;
        let numerator = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2);
        let denominator = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2);
        out[ci] = numerator / denominator;
    }
}

/// The `std::arch` kernel bodies. Everything here is `pub(super)`,
/// reachable only through the `SimdLevel::Avx2` arms of the clamped
/// dispatchers above, and every fn is `#[target_feature(enable = "avx2")]`.
///
/// Bit-identity argument shared by all kernels: lanes are independent,
/// each lane performs the same IEEE-754 single/double operations in the
/// same order as the scalar reference (multiplies and adds are emitted
/// as separate intrinsics — never FMA — and comparisons are
/// ordered-quiet, matching Rust's `>=`/`>`/`<` on floats), and loads,
/// stores and conversions are value-exact. Per-kernel deviations (e.g.
/// the quantizer's explicit round-half-away sequence) are argued at the
/// fn.
#[cfg(target_arch = "x86_64")]
mod x86 {
    // The DCT loops index `basis[v][y]` with both loop variables on
    // purpose — the code mirrors the Σ notation of the transform, and
    // iterator chains over two index axes would obscure the lane
    // schedule the bit-identity argument depends on.
    #![allow(clippy::needless_range_loop)]

    use super::{MomentRows, MomentRowsMut};
    use std::arch::x86_64::*;

    // ---- 8×8 DCT ----------------------------------------------------

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dct_forward_avx2(
        basis: &[[f32; 8]; 8],
        basis_t: &[[f32; 8]; 8],
        input: &[f32; 64],
        output: &mut [f32; 64],
    ) {
        // One 8-lane vector is one row of outputs (lanes = u). Stage 1:
        // tmp[y*8+u] = Σ_x input[y*8+x] * basis[u][x], accumulated in x
        // order from 0.0 — the transposed basis makes basis_t[x] the
        // per-x vector over u.
        let mut tmp = [0.0f32; 64];
        for y in 0..8 {
            let mut acc = _mm256_setzero_ps();
            for x in 0..8 {
                let s = _mm256_set1_ps(input[y * 8 + x]);
                let bt = _mm256_loadu_ps(basis_t[x].as_ptr());
                acc = _mm256_add_ps(acc, _mm256_mul_ps(s, bt));
            }
            _mm256_storeu_ps(tmp.as_mut_ptr().add(y * 8), acc);
        }
        // Stage 2: output[v*8+u] = Σ_y tmp[y*8+u] * basis[v][y].
        for v in 0..8 {
            let mut acc = _mm256_setzero_ps();
            for y in 0..8 {
                let t = _mm256_loadu_ps(tmp.as_ptr().add(y * 8));
                let b = _mm256_set1_ps(basis[v][y]);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(t, b));
            }
            _mm256_storeu_ps(output.as_mut_ptr().add(v * 8), acc);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dct_inverse_avx2(
        basis: &[[f32; 8]; 8],
        coeffs: &[f32; 64],
        output: &mut [f32; 64],
    ) {
        // Stage 1 (columns): tmp[y*8+u] = Σ_v coeffs[v*8+u]*basis[v][y],
        // lanes = u. Stage 2 (rows): output[y*8+x] = Σ_u
        // tmp[y*8+u]*basis[u][x], lanes = x.
        let mut tmp = [0.0f32; 64];
        for y in 0..8 {
            let mut acc = _mm256_setzero_ps();
            for v in 0..8 {
                let c = _mm256_loadu_ps(coeffs.as_ptr().add(v * 8));
                let b = _mm256_set1_ps(basis[v][y]);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(c, b));
            }
            _mm256_storeu_ps(tmp.as_mut_ptr().add(y * 8), acc);
        }
        for y in 0..8 {
            let mut acc = _mm256_setzero_ps();
            for u in 0..8 {
                let t = _mm256_set1_ps(tmp[y * 8 + u]);
                let b = _mm256_loadu_ps(basis[u].as_ptr());
                acc = _mm256_add_ps(acc, _mm256_mul_ps(t, b));
            }
            _mm256_storeu_ps(output.as_mut_ptr().add(y * 8), acc);
        }
    }

    // ---- quantize / dequantize / zig-zag ----------------------------
    //
    // Rounding bit-identity: `f32::round` is round-half-away-from-zero.
    // `v + 0.5` then truncate is NOT equivalent (it fails at e.g.
    // v = 0.5 - 2^-25, where the add rounds up to 0.5 under
    // ties-to-even). Instead: t = trunc(v); diff = v - t is EXACT for
    // |v| < 2^24 (Sterbenz for |t| >= 1, trivial for t = 0), so
    // comparing |diff| >= 0.5 and adding sign(v)·1 reproduces
    // `f32::round` bit-for-bit in the codec's domain.

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_avx2(
        coeffs: &[f32; 64],
        qtable: &[f32; 64],
        out: &mut [i32; 64],
    ) -> bool {
        let half = _mm256_set1_ps(0.5);
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let one = _mm256_set1_epi32(1);
        let zero_f = _mm256_setzero_ps();
        let mut nonzero = _mm256_setzero_si256();
        for i in (0..64).step_by(8) {
            let c = _mm256_loadu_ps(coeffs.as_ptr().add(i));
            let q = _mm256_loadu_ps(qtable.as_ptr().add(i));
            let v = _mm256_div_ps(c, q);
            let t = _mm256_cvttps_epi32(v);
            let tf = _mm256_cvtepi32_ps(t);
            let diff = _mm256_sub_ps(v, tf);
            let ad = _mm256_and_ps(diff, absmask);
            let round_up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(ad, half));
            let adj = _mm256_and_si256(round_up, one);
            let neg = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(v, zero_f));
            // (adj ^ neg) - neg = ±adj: the two's-complement negate of
            // adj exactly where v < 0.
            let signed = _mm256_sub_epi32(_mm256_xor_si256(adj, neg), neg);
            let r = _mm256_add_epi32(t, signed);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), r);
            nonzero = _mm256_or_si256(nonzero, r);
        }
        let z = _mm256_cmpeq_epi32(nonzero, _mm256_setzero_si256());
        _mm256_movemask_epi8(z) == -1
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dequantize_avx2(q: &[i32; 64], qtable: &[f32; 64], out: &mut [f32; 64]) {
        // `i32 as f32` and cvtepi32_ps are both round-to-nearest-even:
        // exact match.
        for i in (0..64).step_by(8) {
            let qi = _mm256_loadu_si256(q.as_ptr().add(i).cast());
            let qt = _mm256_loadu_ps(qtable.as_ptr().add(i));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_mul_ps(_mm256_cvtepi32_ps(qi), qt),
            );
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn zigzag_avx2(src: &[i32; 64], order: &[i32; 64], out: &mut [i32; 64]) {
        // Indices are masked to 0..64 (matching the scalar `& 63`), so
        // every gathered lane reads inside `src`.
        let m = _mm256_set1_epi32(63);
        for i in (0..64).step_by(8) {
            let idx = _mm256_and_si256(_mm256_loadu_si256(order.as_ptr().add(i).cast()), m);
            let g = _mm256_i32gather_epi32::<4>(src.as_ptr(), idx);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), g);
        }
    }

    // ---- f32 plane ops ----------------------------------------------

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_planes_avx2(a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len() & !7;
        for i in (0..n).step_by(8) {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_sub_ps(va, vb));
        }
        super::sub_planes_scalar(&a[n..], &b[n..], &mut out[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_planes_avx2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len() & !7;
        for i in (0..n).step_by(8) {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, s));
        }
        super::add_planes_scalar(&mut dst[n..], &src[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_scalar_avx2(src: &[f32], s: f32, out: &mut [f32]) {
        let sv = _mm256_set1_ps(s);
        let n = out.len() & !7;
        for i in (0..n).step_by(8) {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_sub_ps(v, sv));
        }
        super::sub_scalar_scalar(&src[n..], s, &mut out[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_scalar_avx2(dst: &mut [f32], s: f32) {
        let sv = _mm256_set1_ps(s);
        let n = dst.len() & !7;
        for i in (0..n).step_by(8) {
            let v = _mm256_loadu_ps(dst.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(v, sv));
        }
        super::add_scalar_scalar(&mut dst[n..], s);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn clamp_unit_avx2(dst: &mut [f32]) {
        // Compare-and-select (not min/max: those would replace NaN and
        // flip -0.0 to +0.0, unlike scalar `clamp`).
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let n = dst.len() & !7;
        for i in (0..n).step_by(8) {
            let mut v = _mm256_loadu_ps(dst.as_ptr().add(i));
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero);
            v = _mm256_andnot_ps(lt, v);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, one);
            v = _mm256_or_ps(_mm256_and_ps(gt, one), _mm256_andnot_ps(gt, v));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
        }
        super::clamp_unit_scalar(&mut dst[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_clamp_unit_avx2(dst: &mut [f32], s: f32) {
        // Add, then the same compare-and-select clamp as
        // `clamp_unit_avx2` — per lane exactly the two-pass sequence.
        let sv = _mm256_set1_ps(s);
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let n = dst.len() & !7;
        for i in (0..n).step_by(8) {
            let mut v = _mm256_add_ps(_mm256_loadu_ps(dst.as_ptr().add(i)), sv);
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero);
            v = _mm256_andnot_ps(lt, v);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, one);
            v = _mm256_or_ps(_mm256_and_ps(gt, one), _mm256_andnot_ps(gt, v));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
        }
        super::add_clamp_unit_scalar(&mut dst[n..], s);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn any_abs_above_avx2(src: &[f32], thresh: f32) -> bool {
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let t = _mm256_set1_ps(thresh);
        let n = src.len() & !7;
        for i in (0..n).step_by(8) {
            let v = _mm256_and_ps(_mm256_loadu_ps(src.as_ptr().add(i)), absmask);
            // GT_OQ is false on NaN, like the scalar `>`.
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(v, t)) != 0 {
                return true;
            }
        }
        super::any_abs_above_scalar(&src[n..], thresh)
    }

    // ---- SSIM moment kernels (f64) ----------------------------------

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ssim_moments_avx2(
        a_row: &[f32],
        b_row: &[f32],
        kernel: &[f64],
        out: &mut MomentRowsMut<'_>,
    ) {
        // Lanes are window centers. Pixels load as f32 and widen in
        // register (cvtps_pd is exact, matching the scalar `as f64`).
        // Per tap: kva = kx*va, kvb = kx*vb; the squared moments are
        // (kx*va)*va etc. — the scalar left-association of
        // `kx * va * va`.
        let n = out.a.len();
        let nv = n & !3;
        for ci in (0..nv).step_by(4) {
            let mut ma = _mm256_setzero_pd();
            let mut mb = _mm256_setzero_pd();
            let mut maa = _mm256_setzero_pd();
            let mut mbb = _mm256_setzero_pd();
            let mut mab = _mm256_setzero_pd();
            for (ki, &k) in kernel.iter().enumerate() {
                let kx = _mm256_set1_pd(k);
                let va = _mm256_cvtps_pd(_mm_loadu_ps(a_row.as_ptr().add(ci + ki)));
                let vb = _mm256_cvtps_pd(_mm_loadu_ps(b_row.as_ptr().add(ci + ki)));
                let kva = _mm256_mul_pd(kx, va);
                let kvb = _mm256_mul_pd(kx, vb);
                ma = _mm256_add_pd(ma, kva);
                mb = _mm256_add_pd(mb, kvb);
                maa = _mm256_add_pd(maa, _mm256_mul_pd(kva, va));
                mbb = _mm256_add_pd(mbb, _mm256_mul_pd(kvb, vb));
                mab = _mm256_add_pd(mab, _mm256_mul_pd(kva, vb));
            }
            _mm256_storeu_pd(out.a.as_mut_ptr().add(ci), ma);
            _mm256_storeu_pd(out.b.as_mut_ptr().add(ci), mb);
            _mm256_storeu_pd(out.aa.as_mut_ptr().add(ci), maa);
            _mm256_storeu_pd(out.bb.as_mut_ptr().add(ci), mbb);
            _mm256_storeu_pd(out.ab.as_mut_ptr().add(ci), mab);
        }
        super::ssim_moments_scalar(a_row, b_row, kernel, out, nv);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ssim_windows_avx2(
        rows: &MomentRows<'_>,
        stride: usize,
        kernel: &[f64],
        c1: f64,
        c2: f64,
        out: &mut [f64],
    ) {
        // Lanes are window centers. The vertical taps accumulate in
        // registers exactly like the scalar `m[k] += ky * src[k]`
        // (tap-ascending, plane order a/b/aa/bb/ab), then the formula
        // runs per lane in the scalar association: every add/sub/mul/div
        // is exactly rounded lane-wise, and the variance clamp is a
        // compare-and-select (GT against +0.0, matching
        // `f64::max(0.0)`: negatives and NaN go to +0.0).
        let c1v = _mm256_set1_pd(c1);
        let c2v = _mm256_set1_pd(c2);
        let two = _mm256_set1_pd(2.0);
        let zero = _mm256_setzero_pd();
        let n = out.len();
        let nv = n & !3;
        for ci in (0..nv).step_by(4) {
            let mut ma = _mm256_setzero_pd();
            let mut mb = _mm256_setzero_pd();
            let mut maa = _mm256_setzero_pd();
            let mut mbb = _mm256_setzero_pd();
            let mut mab = _mm256_setzero_pd();
            for (ki, &k) in kernel.iter().enumerate() {
                let ky = _mm256_set1_pd(k);
                let o = ki * stride + ci;
                ma = _mm256_add_pd(
                    ma,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.a.as_ptr().add(o))),
                );
                mb = _mm256_add_pd(
                    mb,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.b.as_ptr().add(o))),
                );
                maa = _mm256_add_pd(
                    maa,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.aa.as_ptr().add(o))),
                );
                mbb = _mm256_add_pd(
                    mbb,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.bb.as_ptr().add(o))),
                );
                mab = _mm256_add_pd(
                    mab,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.ab.as_ptr().add(o))),
                );
            }
            let mu_ab = _mm256_mul_pd(ma, mb);
            let var_a = _mm256_sub_pd(maa, _mm256_mul_pd(ma, ma));
            let var_a = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(var_a, zero), var_a);
            let var_b = _mm256_sub_pd(mbb, _mm256_mul_pd(mb, mb));
            let var_b = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(var_b, zero), var_b);
            let cov = _mm256_sub_pd(mab, mu_ab);
            let num = _mm256_mul_pd(
                _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(two, ma), mb), c1v),
                _mm256_add_pd(_mm256_mul_pd(two, cov), c2v),
            );
            let den = _mm256_mul_pd(
                _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(ma, ma), _mm256_mul_pd(mb, mb)),
                    c1v,
                ),
                _mm256_add_pd(_mm256_add_pd(var_a, var_b), c2v),
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(ci), _mm256_div_pd(num, den));
        }
        super::ssim_windows_scalar(rows, stride, kernel, c1, c2, out, nv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f32 stream in roughly [-1, 1].
    fn noise(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    fn noise64(seed: u64, n: usize) -> Vec<f64> {
        noise(seed, n).into_iter().map(f64::from).collect()
    }

    fn simd_levels() -> Vec<SimdLevel> {
        available_levels().into_iter().skip(1).collect()
    }

    #[test]
    fn dispatch_is_clamped_and_ordered() {
        assert!(detected_level() <= cpu_level());
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
    }

    #[test]
    fn simd_override_parses_two_tiers_and_ignores_the_rest() {
        assert_eq!(parse_level("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(parse_level("AVX2"), Some(SimdLevel::Avx2));
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            assert_eq!(parse_level(level.name()), Some(level));
        }
        // A stale `sse2` override, an empty value and garbage all mean
        // auto-detect.
        for stale in ["sse2", "SSE2", "", "avx512", "fast"] {
            assert_eq!(parse_level(stale), None, "{stale:?}");
        }
    }

    #[test]
    fn dct_levels_are_bit_identical() {
        let dct = Dct8x8::new();
        let src = noise(1, 64);
        let mut input = [0.0f32; 64];
        input.copy_from_slice(&src);
        let mut want_f = [0.0f32; 64];
        let mut want_i = [0.0f32; 64];
        dct.forward(&input, &mut want_f, SimdLevel::Scalar);
        dct.inverse(&want_f, &mut want_i, SimdLevel::Scalar);
        for level in simd_levels() {
            let mut got_f = [0.0f32; 64];
            let mut got_i = [0.0f32; 64];
            dct.forward(&input, &mut got_f, level);
            dct.inverse(&want_f, &mut got_i, level);
            for i in 0..64 {
                assert_eq!(
                    want_f[i].to_bits(),
                    got_f[i].to_bits(),
                    "fwd {level:?} idx {i}"
                );
                assert_eq!(
                    want_i[i].to_bits(),
                    got_i[i].to_bits(),
                    "inv {level:?} idx {i}"
                );
            }
        }
    }

    #[test]
    fn quantize_levels_are_bit_identical_including_half_ties() {
        // qtable of ones makes v == coeffs, so the tricky rounding
        // inputs are exercised verbatim: exact halves, and the
        // ties-to-even trap value 0.5 - 2^-25 where `v + 0.5` would
        // round the wrong way.
        let mut coeffs = [0.0f32; 64];
        let tricky = [
            0.5f32,
            -0.5,
            2.5,
            -2.5,
            0.5 - f32::EPSILON / 4.0,
            -(0.5 - f32::EPSILON / 4.0),
            0.499_999_97,
            1.499_999_9,
            -127.5,
            127.5,
            0.0,
            -0.0,
        ];
        coeffs[..tricky.len()].copy_from_slice(&tricky);
        for (i, v) in noise(2, 64 - tricky.len()).iter().enumerate() {
            coeffs[tricky.len() + i] = v * 200.0;
        }
        let qtable = [1.0f32; 64];
        let mut want = [0i32; 64];
        let want_zero = quantize_8x8(&coeffs, &qtable, &mut want, SimdLevel::Scalar);
        for (i, &c) in coeffs.iter().enumerate() {
            assert_eq!(want[i], c.round() as i32, "scalar ref idx {i}");
        }
        for level in simd_levels() {
            let mut got = [0i32; 64];
            let got_zero = quantize_8x8(&coeffs, &qtable, &mut got, level);
            assert_eq!(want, got, "{level:?}");
            assert_eq!(want_zero, got_zero, "{level:?} all_zero");
        }
        // And the all-zero path: tiny coefficients over a real qtable.
        let small: Vec<f32> = noise(3, 64).iter().map(|v| v * 1e-4).collect();
        coeffs.copy_from_slice(&small);
        let qt: Vec<f32> = (0..64).map(|i| 0.05 + i as f32 * 0.01).collect();
        let mut qtable2 = [0.0f32; 64];
        qtable2.copy_from_slice(&qt);
        let wz = quantize_8x8(&coeffs, &qtable2, &mut want, SimdLevel::Scalar);
        assert!(wz);
        for level in simd_levels() {
            let mut got = [0i32; 64];
            assert!(
                quantize_8x8(&coeffs, &qtable2, &mut got, level),
                "{level:?}"
            );
            assert_eq!(want, got, "{level:?}");
        }
    }

    #[test]
    fn dequantize_and_zigzag_levels_match() {
        let mut q = [0i32; 64];
        for (i, v) in q.iter_mut().enumerate() {
            *v = (i as i32 - 31) * 7;
        }
        let mut qtable = [0.0f32; 64];
        for (i, v) in qtable.iter_mut().enumerate() {
            *v = 0.02 + i as f32 * 0.013;
        }
        let mut want = [0.0f32; 64];
        dequantize_8x8(&q, &qtable, &mut want, SimdLevel::Scalar);
        let mut order = [0i32; 64];
        for (i, v) in order.iter_mut().enumerate() {
            *v = ((i * 29) % 64) as i32;
        }
        let mut want_z = [0i32; 64];
        zigzag_gather(&q, &order, &mut want_z, SimdLevel::Scalar);
        for level in simd_levels() {
            let mut got = [0.0f32; 64];
            dequantize_8x8(&q, &qtable, &mut got, level);
            for i in 0..64 {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{level:?} idx {i}");
            }
            let mut got_z = [0i32; 64];
            zigzag_gather(&q, &order, &mut got_z, level);
            assert_eq!(want_z, got_z, "{level:?}");
        }
    }

    #[test]
    fn plane_ops_levels_are_bit_identical() {
        // Odd length exercises the scalar tails.
        let n = 1003;
        let a = noise(4, n);
        let b = noise(5, n);
        let mut want_sub = vec![0.0f32; n];
        sub_planes_scalar(&a, &b, &mut want_sub);
        let mut want_add = a.clone();
        add_planes_scalar(&mut want_add, &b);
        let mut want_subs = vec![0.0f32; n];
        sub_scalar_scalar(&a, 0.5, &mut want_subs);
        let mut want_adds = a.clone();
        add_scalar_scalar(&mut want_adds, 0.5);
        for level in simd_levels() {
            let mut got = vec![0.0f32; n];
            sub_planes_f32(&a, &b, &mut got, level);
            assert!(
                got.iter()
                    .zip(&want_sub)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "sub {level:?}"
            );
            let mut got2 = a.clone();
            add_planes_f32(&mut got2, &b, level);
            assert!(
                got2.iter()
                    .zip(&want_add)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "add {level:?}"
            );
            let mut got3 = vec![0.0f32; n];
            sub_scalar_f32(&a, 0.5, &mut got3, level);
            assert!(
                got3.iter()
                    .zip(&want_subs)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "subs {level:?}"
            );
            let mut got4 = a.clone();
            add_scalar_f32(&mut got4, 0.5, level);
            assert!(
                got4.iter()
                    .zip(&want_adds)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "adds {level:?}"
            );
        }
    }

    #[test]
    fn clamp_unit_levels_are_bit_identical() {
        let n = 203;
        let mut base = noise(20, n).iter().map(|v| v * 2.0).collect::<Vec<f32>>();
        // Edge cases: -0.0 survives (it is not < 0.0), NaN passes
        // through, and the bounds themselves are kept.
        base[0] = -0.0;
        base[1] = f32::NAN;
        base[2] = 0.0;
        base[3] = 1.0;
        base[4] = 1.0 + f32::EPSILON;
        base[5] = -f32::MIN_POSITIVE;
        let mut want = base.clone();
        clamp_unit_scalar(&mut want);
        assert_eq!(want[0].to_bits(), (-0.0f32).to_bits());
        for level in simd_levels() {
            let mut got = base.clone();
            clamp_unit_f32(&mut got, level);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{level:?} idx {i}");
            }
        }
    }

    #[test]
    fn add_clamp_unit_matches_two_pass_sequence() {
        let n = 203; // odd tail
        let mut base = noise(26, n)
            .iter()
            .map(|v| v * 2.0 - 0.5)
            .collect::<Vec<f32>>();
        base[0] = -0.5; // lands exactly on 0.0 after the +0.5 shift
        base[1] = f32::NAN;
        base[2] = 0.5; // lands exactly on 1.0
        base[3] = -0.5 - f32::EPSILON;
        // The fused kernel must equal add-then-clamp bit-for-bit, at
        // every level.
        let mut want = base.clone();
        add_scalar_scalar(&mut want, 0.5);
        clamp_unit_scalar(&mut want);
        for level in available_levels() {
            let mut got = base.clone();
            add_clamp_unit_f32(&mut got, 0.5, level);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{level:?} idx {i}");
            }
        }
    }

    #[test]
    fn any_abs_above_levels_agree() {
        let n = 517;
        let mut v = vec![1e-9f32; n];
        for level in available_levels() {
            assert!(!any_abs_above(&v, 1e-6, level), "{level:?} clean");
        }
        // A single spike anywhere must be found, including in the tail.
        for pos in [0, 63, 64, n - 1] {
            v[pos] = -2e-6;
            for level in available_levels() {
                assert!(any_abs_above(&v, 1e-6, level), "{level:?} spike at {pos}");
            }
            v[pos] = 1e-9;
        }
        // Threshold is strict.
        v[10] = 1e-6;
        for level in available_levels() {
            assert!(!any_abs_above(&v, 1e-6, level), "{level:?} equal-to-thresh");
        }
    }

    #[test]
    fn ssim_moments_levels_are_bit_identical() {
        let klen = 11;
        let n = 97; // odd: exercises both vector body and scalar tail
        let a = noise(9, n + klen - 1);
        let b = noise(10, n + klen - 1);
        let kernel = noise64(11, klen)
            .iter()
            .map(|v| v.abs() + 0.01)
            .collect::<Vec<_>>();
        let run = |level: SimdLevel| {
            let mut planes = vec![vec![0.0f64; n]; 5];
            let (pa, rest) = planes.split_at_mut(1);
            let (pb, rest) = rest.split_at_mut(1);
            let (paa, rest) = rest.split_at_mut(1);
            let (pbb, pab) = rest.split_at_mut(1);
            let mut out = MomentRowsMut {
                a: &mut pa[0],
                b: &mut pb[0],
                aa: &mut paa[0],
                bb: &mut pbb[0],
                ab: &mut pab[0],
            };
            ssim_moments_row(&a, &b, &kernel, &mut out, level);
            planes
        };
        let want = run(SimdLevel::Scalar);
        for level in simd_levels() {
            let got = run(level);
            for (p, (wp, gp)) in want.iter().zip(&got).enumerate() {
                for i in 0..n {
                    assert_eq!(
                        wp[i].to_bits(),
                        gp[i].to_bits(),
                        "{level:?} plane {p} center {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn ssim_windows_levels_are_bit_identical() {
        let klen = 11;
        let stride = 101;
        let n = 97; // odd: exercises both vector body and scalar tail
                    // Build plausible moment planes: squared moments must dominate
                    // the mean products so variances land on both sides of the
                    // clamp (negatives exercise the compare-and-select path).
        let a = noise64(20, klen * stride);
        let b = noise64(21, klen * stride);
        let aa: Vec<f64> = noise64(22, klen * stride).iter().map(|v| v * v).collect();
        let bb: Vec<f64> = noise64(23, klen * stride).iter().map(|v| v * v).collect();
        let ab = noise64(24, klen * stride);
        let kernel: Vec<f64> = noise64(25, klen).iter().map(|v| v.abs() + 0.01).collect();
        let rows = MomentRows {
            a: &a,
            b: &b,
            aa: &aa,
            bb: &bb,
            ab: &ab,
        };
        let run = |level: SimdLevel| {
            let mut out = vec![0.0f64; n];
            ssim_windows_row(
                &rows, stride, &kernel, 6.5025e-5, 5.8523e-4, &mut out, level,
            );
            out
        };
        let want = run(SimdLevel::Scalar);
        for level in simd_levels() {
            let got = run(level);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{level:?} center {i}");
            }
        }
    }
}
