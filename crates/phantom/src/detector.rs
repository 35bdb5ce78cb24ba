//! Area-detector and scan simulation.
//!
//! Models the beamline 8.3.2 acquisition chain: for each projection angle
//! the X-ray transmission through the sample is converted to 16-bit
//! detector counts with incident flux `I0`, dark current, and Poisson
//! photon noise — the same raw material the EPICS IOC publishes frame by
//! frame. The streaming and file-writer services downstream consume these
//! [`Frame`]s exactly as they would PVA monitor updates.

use als_simcore::SimRng;
use als_tomo::{forward_project_volume, Geometry, Sinogram, Volume};
use serde::{Deserialize, Serialize};

/// Detector and illumination parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Incident photons per pixel per frame.
    pub i0: f64,
    /// Mean dark-current counts.
    pub dark_counts: f64,
    /// Apply Poisson photon noise.
    pub noise: bool,
    /// Scale from phantom line integrals to optical depth (controls
    /// contrast; keep `max(line integral) · mu_scale ≲ 4` to avoid
    /// photon starvation).
    pub mu_scale: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            i0: 20_000.0,
            dark_counts: 100.0,
            noise: true,
            mu_scale: 0.04,
        }
    }
}

/// Metadata attached to every frame, mirroring the embedded HDF5 metadata
/// the paper's file writer validates before writing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameMeta {
    /// Scan-unique frame index (0-based).
    pub frame_id: usize,
    /// Projection angle in radians.
    pub angle_rad: f64,
    /// Total frames expected in this scan.
    pub n_angles: usize,
    /// Detector rows in this frame.
    pub rows: usize,
    /// Detector columns in this frame.
    pub cols: usize,
}

impl FrameMeta {
    /// Validate internal consistency (the file-writing service rejects
    /// frames whose metadata is malformed before writing them).
    pub fn validate(&self) -> Result<(), String> {
        if self.rows == 0 || self.cols == 0 {
            return Err("empty frame shape".into());
        }
        if self.frame_id >= self.n_angles {
            return Err(format!(
                "frame_id {} out of range (n_angles {})",
                self.frame_id, self.n_angles
            ));
        }
        if !self.angle_rad.is_finite() {
            return Err("non-finite angle".into());
        }
        Ok(())
    }
}

/// A single 16-bit detector frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    pub meta: FrameMeta,
    /// Row-major `rows × cols` counts.
    pub data: Vec<u16>,
}

impl Frame {
    /// Size of the pixel payload in bytes.
    pub fn nbytes(&self) -> usize {
        self.data.len() * 2
    }
}

/// Simulates a complete 180° scan of a phantom volume.
///
/// Projections are precomputed for the whole volume at construction
/// ([`forward_project_volume`]: four slices per ray walk, slice groups
/// spread across cores, one sinogram per slice), then re-sliced into
/// per-angle frames: `frame[r][c]` is detector row `r` (slice `r` of the
/// volume) and column `c`.
pub struct ScanSimulator {
    geom: Geometry,
    cfg: DetectorConfig,
    /// One sinogram per volume slice.
    sinos: Vec<Sinogram>,
    dark: Vec<u16>,
    flat: Vec<u16>,
    rng: SimRng,
    rows: usize,
}

impl ScanSimulator {
    /// Prepare a scan of `vol` with the given geometry.
    pub fn new(vol: &Volume, geom: Geometry, cfg: DetectorConfig, seed: u64) -> Self {
        assert_eq!(
            geom.n_det, vol.nx,
            "detector width must match the phantom side"
        );
        assert_eq!(vol.nx, vol.ny, "phantom slices must be square");
        let sinos = forward_project_volume(vol, &geom);
        let mut rng = SimRng::seeded(seed);
        let rows = vol.nz;
        let cols = geom.n_det;
        // reference fields captured before the scan, like the real beamline
        let mut dark = Vec::with_capacity(rows * cols);
        let mut flat = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            dark.push(sample_counts(cfg.dark_counts, cfg.noise, &mut rng));
            flat.push(sample_counts(cfg.dark_counts + cfg.i0, cfg.noise, &mut rng));
        }
        ScanSimulator {
            geom,
            cfg,
            sinos,
            dark,
            flat,
            rng,
            rows,
        }
    }

    pub fn n_frames(&self) -> usize {
        self.geom.n_angles()
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.geom.n_det
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The dark-field reference frame (detector with shutter closed).
    pub fn dark_field(&self) -> &[u16] {
        &self.dark
    }

    /// The flat-field reference frame (beam on, no sample).
    pub fn flat_field(&self) -> &[u16] {
        &self.flat
    }

    /// Generate frame `a` (projection at the `a`-th angle).
    pub fn frame(&mut self, a: usize) -> Frame {
        let cols = self.geom.n_det;
        let mut data = vec![0u16; self.rows * cols];
        let meta = self.fill_frame(a, &mut data);
        Frame { meta, data }
    }

    /// Generate frame `a` directly into a caller-provided buffer (a
    /// recycled slab), avoiding the per-frame allocation of [`frame`].
    /// `out` must hold exactly `rows × cols` pixels.
    pub fn fill_frame(&mut self, a: usize, out: &mut [u16]) -> FrameMeta {
        assert!(a < self.geom.n_angles(), "frame index out of range");
        let cols = self.geom.n_det;
        assert_eq!(out.len(), self.rows * cols, "slab size mismatch");
        for r in 0..self.rows {
            let row = self.sinos[r].row(a);
            let dst = &mut out[r * cols..(r + 1) * cols];
            for (d, &p) in dst.iter_mut().zip(row.iter()) {
                let transmission = (-(p as f64) * self.cfg.mu_scale).exp();
                let expected = self.cfg.dark_counts + self.cfg.i0 * transmission;
                *d = sample_counts(expected, self.cfg.noise, &mut self.rng);
            }
        }
        FrameMeta {
            frame_id: a,
            angle_rad: self.geom.angles[a],
            n_angles: self.geom.n_angles(),
            rows: self.rows,
            cols,
        }
    }

    /// Generate all frames in acquisition order.
    pub fn all_frames(&mut self) -> Vec<Frame> {
        (0..self.n_frames()).map(|a| self.frame(a)).collect()
    }
}

fn sample_counts(expected: f64, noise: bool, rng: &mut SimRng) -> u16 {
    let v = if noise {
        sample_poisson(expected, rng)
    } else {
        expected
    };
    v.round().clamp(0.0, u16::MAX as f64) as u16
}

/// Poisson sample: Knuth's method for small λ, normal approximation above.
fn sample_poisson(lambda: f64, rng: &mut SimRng) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    if lambda > 30.0 {
        return rng.normal_pos(lambda, lambda.sqrt());
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.unit();
        if p <= l {
            return k as f64;
        }
        k += 1;
        if k > 10_000 {
            return lambda;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shepp::shepp_logan_volume;
    use als_tomo::forward_project;

    /// Convert raw counts back to attenuation line integrals using the dark
    /// and flat references — the inverse of the detector model.
    fn frames_to_sinogram(
        frames: &[Frame],
        dark: &[u16],
        flat: &[u16],
        slice_row: usize,
        mu_scale: f64,
    ) -> Sinogram {
        assert!(!frames.is_empty(), "no frames");
        let cols = frames[0].meta.cols;
        let n_angles = frames.len();
        let mut sino = Sinogram::zeros(n_angles, cols);
        for (a, frame) in frames.iter().enumerate() {
            let base = slice_row * cols;
            for c in 0..cols {
                let raw = frame.data[base + c] as f64;
                let d = dark[base + c] as f64;
                let f = flat[base + c] as f64;
                let t = ((raw - d) / (f - d).max(1.0)).clamp(1e-6, 1.0);
                sino.set(a, c, (-(t.ln()) / mu_scale) as f32);
            }
        }
        sino
    }

    fn small_scan(noise: bool) -> ScanSimulator {
        let vol = shepp_logan_volume(32, 4);
        let geom = Geometry::parallel_180(24, 32);
        let cfg = DetectorConfig {
            noise,
            ..Default::default()
        };
        ScanSimulator::new(&vol, geom, cfg, 77)
    }

    #[test]
    fn frames_have_consistent_metadata() {
        let mut sim = small_scan(false);
        for a in 0..sim.n_frames() {
            let f = sim.frame(a);
            assert_eq!(f.meta.frame_id, a);
            assert_eq!(f.meta.rows, 4);
            assert_eq!(f.meta.cols, 32);
            assert_eq!(f.data.len(), 4 * 32);
            f.meta.validate().unwrap();
        }
    }

    #[test]
    fn attenuation_reduces_counts() {
        let mut sim = small_scan(false);
        let f = sim.frame(0);
        // the phantom's center casts a shadow: center column counts are
        // below the flat level, edge columns near it
        let flat_level = 20_000.0 + 100.0;
        let center = f.data[2 * 32 + 16] as f64;
        let edge = f.data[2 * 32] as f64;
        assert!(center < flat_level * 0.9, "center {center}");
        assert!(edge > flat_level * 0.95, "edge {edge}");
    }

    #[test]
    fn roundtrip_recovers_line_integrals() {
        let vol = shepp_logan_volume(32, 3);
        let geom = Geometry::parallel_180(24, 32);
        let cfg = DetectorConfig {
            noise: false,
            ..Default::default()
        };
        let truth = forward_project(&vol.slice_xy(1), &geom);
        let mut sim = ScanSimulator::new(&vol, geom, cfg, 1);
        let frames = sim.all_frames();
        let rec = frames_to_sinogram(&frames, sim.dark_field(), sim.flat_field(), 1, cfg.mu_scale);
        for i in 0..truth.data.len() {
            assert!(
                (rec.data[i] - truth.data[i]).abs() < 1.0,
                "bin {i}: {} vs {}",
                rec.data[i],
                truth.data[i]
            );
        }
    }

    #[test]
    fn frames_match_per_slice_projection() {
        // five rows: one full lane group and a partial one with idle lanes
        let vol = shepp_logan_volume(32, 5);
        let geom = Geometry::parallel_180(24, 32);
        let mut sim = ScanSimulator::new(&vol, geom.clone(), DetectorConfig::default(), 9);
        let mut per_slice = ScanSimulator::new(&vol, geom.clone(), DetectorConfig::default(), 9);
        per_slice.sinos = (0..vol.nz)
            .map(|z| forward_project(&vol.slice_xy(z), &geom))
            .collect();
        for (z, (a, b)) in sim.sinos.iter().zip(&per_slice.sinos).enumerate() {
            let bits = |s: &Sinogram| s.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "slice {z}");
        }
        assert_eq!(sim.dark_field(), per_slice.dark_field());
        assert_eq!(sim.flat_field(), per_slice.flat_field());
        assert_eq!(sim.all_frames(), per_slice.all_frames());
    }

    #[test]
    fn noise_perturbs_but_preserves_mean() {
        let mut noisy = small_scan(true);
        let mut clean = small_scan(false);
        let fa = noisy.frame(0);
        let fb = clean.frame(0);
        assert_ne!(fa.data, fb.data);
        let mean_a: f64 = fa.data.iter().map(|&v| v as f64).sum::<f64>() / fa.data.len() as f64;
        let mean_b: f64 = fb.data.iter().map(|&v| v as f64).sum::<f64>() / fb.data.len() as f64;
        assert!((mean_a - mean_b).abs() / mean_b < 0.02);
    }

    #[test]
    fn poisson_small_lambda_matches_mean() {
        let mut rng = SimRng::seeded(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| sample_poisson(3.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn meta_validation_catches_garbage() {
        let mut m = FrameMeta {
            frame_id: 0,
            angle_rad: 0.0,
            n_angles: 10,
            rows: 4,
            cols: 8,
        };
        assert!(m.validate().is_ok());
        m.frame_id = 10;
        assert!(m.validate().is_err());
        m.frame_id = 0;
        m.angle_rad = f64::NAN;
        assert!(m.validate().is_err());
        m.angle_rad = 0.0;
        m.rows = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn frame_nbytes_is_two_per_pixel() {
        let mut sim = small_scan(false);
        assert_eq!(sim.frame(0).nbytes(), 4 * 32 * 2);
    }
}
