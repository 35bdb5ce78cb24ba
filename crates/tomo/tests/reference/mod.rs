//! Pre-plan reference implementations: the test oracles of the plan
//! engine.
//!
//! These are the kernels as they existed before the plan-and-scratch
//! engine (`als_tomo::plan`) landed: the ramp response is rebuilt (and
//! re-FFT'd) once per `filter_sinogram` call, every real row gets its
//! own complex FFT with a full-buffer clear, backprojection recomputes
//! the affine detector coordinate per pixel with no extent hoisting,
//! forward projection always walks the full ±diagonal, and volume
//! reconstruction is a sequential slice loop collected through an
//! intermediate image copy. [`sirt_slice`] is the pre-`IterPlan` SIRT,
//! and [`sample_bilinear`] the per-sample interpolation that the
//! library's projector kernel inlines for all of its lanes.
//!
//! They live here, beside the equivalence gates in `plan_equivalence.rs`
//! (and, for SIRT, `tests/pipeline_equivalence.rs` at the workspace
//! root), and nowhere in the library — do not optimise them.

mod sirt;
pub use sirt::sirt_slice;

use als_tomo::fft::{fft, fft2_inplace, ifft, next_pow2, Complex};
use als_tomo::radon::apply_disk_mask;
use als_tomo::{
    FbpConfig, FilterKind, Geometry, GridrecConfig, Image, Sinogram, TomoError, Volume,
};

/// Pre-plan row-at-a-time sinogram filtering: rebuilds the frequency
/// response per call, clears the whole padded buffer per row, one full
/// complex FFT round trip per real row.
pub fn filter_sinogram(sino: &Sinogram, kind: FilterKind) -> Sinogram {
    if kind == FilterKind::None {
        return sino.clone();
    }
    let pad = next_pow2(2 * sino.n_det);
    let response = kind.response(pad);
    let mut out = Sinogram::zeros(sino.n_angles, sino.n_det);
    let mut buf = vec![Complex::ZERO; pad];
    for a in 0..sino.n_angles {
        for c in buf.iter_mut() {
            *c = Complex::ZERO;
        }
        for (c, &v) in buf.iter_mut().zip(sino.row(a).iter()) {
            *c = Complex::from_re(v as f64);
        }
        fft(&mut buf);
        for (c, &r) in buf.iter_mut().zip(response.iter()) {
            *c = c.scale(r);
        }
        ifft(&mut buf);
        for (o, c) in out.row_mut(a).iter_mut().zip(buf.iter()) {
            *o = c.re as f32;
        }
    }
    out
}

/// The unfused preprocessing chain, one full sinogram sweep (and
/// allocation) per step: `normalize → remove_zingers → minus_log →
/// remove_stripes → paganin_filter`, each stage optional after the
/// first. This is the equivalence baseline for the fused
/// `SinoPostPlan` pass.
pub fn prep_chain(
    raw: &Sinogram,
    dark: &[f32],
    flat: &[f32],
    zinger_threshold: Option<f32>,
    ring_window: Option<usize>,
    paganin_delta_beta: Option<f64>,
) -> Sinogram {
    let mut s = als_tomo::prep::normalize(raw, dark, flat);
    if let Some(thr) = zinger_threshold {
        s = als_tomo::prep::remove_zingers(&s, thr);
    }
    s = als_tomo::prep::minus_log(&s);
    if let Some(w) = ring_window {
        s = als_tomo::prep::remove_stripes(&s, w);
    }
    if let Some(db) = paganin_delta_beta {
        s = als_tomo::prep::paganin_filter(&s, db);
    }
    s
}

/// Bilinear sample of `img` at fractional coordinates; 0 unless the whole
/// 2×2 footprint is inside the image.
fn sample_bilinear(img: &Image, x: f64, y: f64) -> f64 {
    if x < 0.0 || y < 0.0 {
        return 0.0;
    }
    let x0 = x.floor() as usize;
    let y0 = y.floor() as usize;
    if x0 + 1 >= img.width || y0 + 1 >= img.height {
        return 0.0;
    }
    let fx = x - x0 as f64;
    let fy = y - y0 as f64;
    let v00 = img.get(x0, y0) as f64;
    let v10 = img.get(x0 + 1, y0) as f64;
    let v01 = img.get(x0, y0 + 1) as f64;
    let v11 = img.get(x0 + 1, y0 + 1) as f64;
    v00 * (1.0 - fx) * (1.0 - fy) + v10 * fx * (1.0 - fy) + v01 * (1.0 - fx) * fy + v11 * fx * fy
}

#[test]
fn bilinear_interpolates_linearly() {
    let img = Image::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
    assert_eq!(sample_bilinear(&img, 0.5, 0.0), 0.5);
    assert_eq!(sample_bilinear(&img, 0.0, 0.5), 1.0);
    assert_eq!(sample_bilinear(&img, 0.5, 0.5), 1.5);
    assert_eq!(sample_bilinear(&img, -1.0, 0.0), 0.0);
    assert_eq!(sample_bilinear(&img, 5.0, 0.0), 0.0);
}

/// Pre-plan forward projection: every ray walks the full ±image-diagonal
/// integration range, sampling (mostly zeros) outside the image too.
pub fn forward_project_into(img: &Image, geom: &Geometry, sino: &mut Sinogram) {
    assert_eq!(sino.n_angles, geom.n_angles());
    assert_eq!(sino.n_det, geom.n_det);
    let cx = (img.width as f64 - 1.0) / 2.0;
    let cy = (img.height as f64 - 1.0) / 2.0;
    let half_len =
        (((img.width * img.width + img.height * img.height) as f64).sqrt() / 2.0).ceil() as i64;
    for (a, &theta) in geom.angles.iter().enumerate() {
        let (sin_t, cos_t) = theta.sin_cos();
        let row = sino.row_mut(a);
        for (t, out) in row.iter_mut().enumerate() {
            let s = t as f64 - geom.center;
            let bx = cx + s * cos_t;
            let by = cy + s * sin_t;
            let mut acc = 0.0f64;
            for r in -half_len..=half_len {
                let rf = r as f64;
                let x = bx - rf * sin_t;
                let y = by + rf * cos_t;
                acc += sample_bilinear(img, x, y);
            }
            *out = acc as f32;
        }
    }
}

/// Pre-plan single-slice FBP: per-call response rebuild + per-pixel
/// affine backprojection through [`backproject`].
pub fn fbp_slice(sino: &Sinogram, geom: &Geometry, cfg: &FbpConfig) -> Result<Image, TomoError> {
    geom.validate(sino.n_angles, sino.n_det)?;
    if geom.n_angles() == 0 {
        return Err(TomoError::BadParameter("no projection angles".into()));
    }
    let filtered = filter_sinogram(sino, cfg.filter);
    let scale = std::f64::consts::PI / geom.n_angles() as f64;
    let mut img = backproject(&filtered, geom, geom.n_det, scale);
    if cfg.mask_disk {
        apply_disk_mask(&mut img);
    }
    Ok(img)
}

/// Pre-plan volume FBP: sequential slice loop, each slice collected
/// into an intermediate `Image` and copied into the volume.
pub fn fbp_volume(
    sinos: &[Sinogram],
    geom: &Geometry,
    cfg: &FbpConfig,
) -> Result<Volume, TomoError> {
    if sinos.is_empty() {
        return Err(TomoError::BadParameter("empty sinogram stack".into()));
    }
    let n = geom.n_det;
    let slices: Result<Vec<Image>, TomoError> =
        sinos.iter().map(|s| fbp_slice(s, geom, cfg)).collect();
    let slices = slices?;
    let mut vol = Volume::zeros(n, n, slices.len());
    for (z, img) in slices.iter().enumerate() {
        vol.set_slice_xy(z, img);
    }
    Ok(vol)
}

/// Pre-plan gridrec: per-call spectra FFTs with recursive twiddles and
/// a per-cell `atan2`/`sqrt`/`cis` polar→Cartesian gather.
pub fn gridrec_slice(
    sino: &Sinogram,
    geom: &Geometry,
    cfg: &GridrecConfig,
) -> Result<Image, TomoError> {
    geom.validate(sino.n_angles, sino.n_det)?;
    let n_angles = geom.n_angles();
    if n_angles < 2 {
        return Err(TomoError::BadParameter(
            "gridrec needs at least two angles".into(),
        ));
    }
    let n = geom.n_det;
    let m = next_pow2(cfg.oversample.max(1) * n);
    let mf = m as f64;
    let tau = 2.0 * std::f64::consts::PI;

    // 1) FFT every projection, phase-shifted so the rotation axis is the
    //    spatial origin: F(k) = e^{+i 2π k c / M} · FFT(p)(k).
    let mut spectra = vec![Complex::ZERO; n_angles * m];
    let mut buf = vec![Complex::ZERO; m];
    for a in 0..n_angles {
        buf.iter_mut().for_each(|c| *c = Complex::ZERO);
        for (c, &v) in buf.iter_mut().zip(sino.row(a).iter()) {
            *c = Complex::from_re(v as f64);
        }
        fft(&mut buf);
        for (k, c) in buf.iter().enumerate() {
            let q = signed_index(k, m) as f64;
            let phase = Complex::cis(tau * q * geom.center / mf);
            spectra[a * m + k] = *c * phase;
        }
    }

    let sample_radial = |a: usize, rho: f64| -> Complex {
        let idx = rho.rem_euclid(mf);
        let i0 = idx.floor() as usize % m;
        let i1 = (i0 + 1) % m;
        let f = idx - idx.floor();
        let c0 = spectra[a * m + i0];
        let c1 = spectra[a * m + i1];
        c0.scale(1.0 - f) + c1.scale(f)
    };

    // 2) Gather the Cartesian spectrum from the polar samples.
    let dtheta = std::f64::consts::PI / n_angles as f64;
    let nyq = mf / 2.0;
    let cx = (n as f64 - 1.0) / 2.0;
    let mut grid = vec![Complex::ZERO; m * m];
    for j in 0..m {
        let qy = signed_index(j, m) as f64;
        for k in 0..m {
            let qx = signed_index(k, m) as f64;
            let mut rho = (qx * qx + qy * qy).sqrt();
            if rho > nyq {
                continue;
            }
            let mut theta = qy.atan2(qx);
            if theta < 0.0 {
                theta += std::f64::consts::PI;
                rho = -rho;
            }
            if theta >= std::f64::consts::PI {
                theta -= std::f64::consts::PI;
                rho = -rho;
            }
            let pos = theta / dtheta;
            let a0 = pos.floor() as usize;
            let w = pos - a0 as f64;
            let a0 = a0.min(n_angles - 1);
            let v0 = sample_radial(a0, rho);
            let v1 = if a0 + 1 < n_angles {
                sample_radial(a0 + 1, rho)
            } else {
                // wrap past the last angle: θ → θ - π flips the ray
                sample_radial(0, -rho)
            };
            let mut val = v0.scale(1.0 - w) + v1.scale(w);
            let wgain = match cfg.window {
                FilterKind::None | FilterKind::RamLak => 1.0,
                other => window_gain(other, rho.abs() / nyq),
            };
            let shift = Complex::cis(-tau * (qx * cx + qy * cx) / mf);
            val = val.scale(wgain) * shift;
            grid[j * m + k] = val;
        }
    }

    // 3) Inverse 2D FFT and crop.
    fft2_inplace(&mut grid, m, true);
    let mut img = Image::square(n);
    for y in 0..n {
        for x in 0..n {
            img.set(x, y, grid[y * m + x].re as f32);
        }
    }
    if cfg.mask_disk {
        apply_disk_mask(&mut img);
    }
    Ok(img)
}

/// Pre-plan unfiltered back projection: smear every sinogram row back
/// across an `n × n` image, recomputing the detector coordinate per
/// pixel. `scale` is applied per angle (FBP passes `π / n_angles`).
pub fn backproject(sino: &Sinogram, geom: &Geometry, n: usize, scale: f64) -> Image {
    assert_eq!(sino.n_angles, geom.n_angles());
    assert_eq!(sino.n_det, geom.n_det);
    let mut img = Image::square(n);
    let cx = (img.width as f64 - 1.0) / 2.0;
    let cy = (img.height as f64 - 1.0) / 2.0;
    let width = img.width;
    for (a, &theta) in geom.angles.iter().enumerate() {
        let (sin_t, cos_t) = theta.sin_cos();
        for y in 0..img.height {
            let yr = y as f64 - cy;
            let row_base = y * width;
            for x in 0..width {
                let xr = x as f64 - cx;
                let t = xr * cos_t + yr * sin_t + geom.center;
                if t >= 0.0 && t <= (geom.n_det - 1) as f64 {
                    let v = sino.sample_row(a, t);
                    img.data[row_base + x] += (v * scale) as f32;
                }
            }
        }
    }
    img
}

/// Signed frequency index of FFT bin `k` of `m`.
fn signed_index(k: usize, m: usize) -> i64 {
    if k < m / 2 {
        k as i64
    } else {
        k as i64 - m as i64
    }
}

/// Radial apodization gain of `kind` at normalised frequency `w`.
fn window_gain(kind: FilterKind, w: f64) -> f64 {
    use std::f64::consts::PI;
    match kind {
        FilterKind::SheppLogan => {
            if w == 0.0 {
                1.0
            } else {
                let x = PI * w / 2.0;
                x.sin() / x
            }
        }
        FilterKind::Cosine => (PI * w / 2.0).cos(),
        FilterKind::Hamming => 0.54 + 0.46 * (PI * w).cos(),
        FilterKind::Hann => 0.5 * (1.0 + (PI * w).cos()),
        FilterKind::Butterworth => 1.0 / (1.0 + (w / 0.5).powi(4)),
        FilterKind::RamLak | FilterKind::None => 1.0,
    }
}
