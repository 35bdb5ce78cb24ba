//! Calibrated reconstruction cost models.
//!
//! The discrete-event simulation needs to know how long a paper-scale
//! reconstruction takes without actually allocating a 50 GB volume. The
//! models here count the dominant inner-loop operations (back-projection
//! samples, FFT butterflies, iterative sweeps) and divide by a device
//! throughput. The default throughputs are chosen so the paper's reference
//! scan — 1969 projections of 2160×2560, reconstructed on the 4 GPUs of a
//! NERSC node — lands in the reported 7–8 s window, and a 128-core CPU
//! node lands in the file-based branch's tens-of-minutes window; real
//! small-scale measurements can re-calibrate them.

use als_simcore::{ByteSize, SimDuration};
use serde::{Deserialize, Serialize};

/// Dimensions of an acquisition at paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanDims {
    /// Number of projection angles.
    pub n_angles: usize,
    /// Detector rows (→ number of reconstructed slices).
    pub det_rows: usize,
    /// Detector columns (→ reconstructed slice side).
    pub det_cols: usize,
}

impl ScanDims {
    /// The reference scan from §5.2: "1969 16-bit projection images of
    /// size 2160×2560 (∼20 GB)".
    pub fn paper_reference() -> ScanDims {
        ScanDims {
            n_angles: 1969,
            det_rows: 2160,
            det_cols: 2560,
        }
    }

    /// Raw data size at 16-bit depth.
    pub fn raw_bytes(&self) -> ByteSize {
        ByteSize::from_bytes((self.n_angles * self.det_rows * self.det_cols * 2) as u64)
    }

    /// Reconstructed volume size at 32-bit depth
    /// (`det_rows × det_cols × det_cols` voxels).
    pub fn volume_bytes(&self) -> ByteSize {
        ByteSize::from_bytes((self.det_rows * self.det_cols * self.det_cols * 4) as u64)
    }

    /// Voxels in the reconstructed volume.
    pub fn voxels(&self) -> u64 {
        (self.det_rows * self.det_cols * self.det_cols) as u64
    }

    /// Back-projection inner-loop operations for one full FBP pass:
    /// every voxel gathers one sample per angle.
    pub fn backproj_ops(&self) -> u64 {
        self.voxels() * self.n_angles as u64
    }

    /// Scale every dimension by `f` (used to derive laptop-scale replicas
    /// with the same aspect ratio).
    pub fn scaled(&self, f: f64) -> ScanDims {
        let s = |v: usize| ((v as f64 * f).round() as usize).max(2);
        ScanDims {
            n_angles: s(self.n_angles),
            det_rows: s(self.det_rows),
            det_cols: s(self.det_cols),
        }
    }
}

/// Reconstruction device classes present in the paper's deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Back-projection samples per second, aggregated over the device.
    pub backproj_ops_per_sec: f64,
    /// Human-readable description for reports.
    pub devices: usize,
}

impl DeviceModel {
    /// A NERSC Perlmutter GPU node: 4 × A100. Calibrated so the paper's
    /// reference scan takes ≈7.5 s (§5.2 reports 7–8 s).
    pub fn nersc_gpu_node() -> DeviceModel {
        let ref_ops = ScanDims::paper_reference().backproj_ops() as f64;
        DeviceModel {
            backproj_ops_per_sec: ref_ops / 7.5,
            devices: 4,
        }
    }

    /// A NERSC Perlmutter CPU node: 128 cores running tomopy/gridrec-class
    /// code. Calibrated roughly 60× slower than the 4-GPU node, which puts
    /// a full-quality iterative reconstruction of a 25 GB scan in the
    /// 10–20 min band the file-based flows exhibit.
    pub fn nersc_cpu_node() -> DeviceModel {
        DeviceModel {
            backproj_ops_per_sec: DeviceModel::nersc_gpu_node().backproj_ops_per_sec / 60.0,
            devices: 128,
        }
    }

    /// Calibrate a model from a real measurement: `ops` inner-loop
    /// operations observed to take `wall` seconds.
    pub fn calibrated(ops: u64, wall: SimDuration) -> DeviceModel {
        let secs = wall.as_secs_f64().max(1e-9);
        DeviceModel {
            backproj_ops_per_sec: ops as f64 / secs,
            devices: 1,
        }
    }
}

/// Reconstruction algorithm classes with their cost multipliers relative
/// to one plain back-projection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconClass {
    /// Streaming FBP: one filtered back-projection pass.
    StreamingFbp,
    /// Gridrec-style direct Fourier: cheaper than FBP per voxel.
    Gridrec,
    /// Full file-based pipeline: preprocessing + iterative refinement.
    /// `sweeps` counts forward+back pairs (e.g. SIRT iterations).
    Iterative { sweeps: u32 },
}

impl ReconClass {
    /// Cost in units of back-projection passes.
    pub fn pass_factor(&self) -> f64 {
        match self {
            // filtering adds ~15% on top of the back projection
            ReconClass::StreamingFbp => 1.15,
            // gridding + 2D FFT ≈ 40% of a BP pass at production sizes
            ReconClass::Gridrec => 0.4,
            // each sweep is a forward + back pair, plus preprocessing
            ReconClass::Iterative { sweeps } => 1.3 + 2.0 * *sweeps as f64,
        }
    }
}

/// Estimate the wall time of a reconstruction of `dims` with `class` on
/// `device`.
pub fn estimate_recon_time(
    dims: &ScanDims,
    class: ReconClass,
    device: &DeviceModel,
) -> SimDuration {
    let ops = dims.backproj_ops() as f64 * class.pass_factor();
    SimDuration::from_secs_f64(ops / device.backproj_ops_per_sec.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_sizes_match_section_5_2() {
        let dims = ScanDims::paper_reference();
        // "∼20 GB" raw
        let raw_gib = dims.raw_bytes().as_gib_f64();
        assert!((18.0..23.0).contains(&raw_gib), "raw {raw_gib} GiB");
        // "∼50 GB" reconstructed volume
        let vol_gib = dims.volume_bytes().as_gib_f64();
        assert!((47.0..56.0).contains(&vol_gib), "volume {vol_gib} GiB");
    }

    #[test]
    fn streaming_recon_hits_7_to_8_seconds() {
        let t = estimate_recon_time(
            &ScanDims::paper_reference(),
            ReconClass::StreamingFbp,
            &DeviceModel::nersc_gpu_node(),
        );
        let secs = t.as_secs_f64();
        assert!((7.0..10.0).contains(&secs), "streaming recon {secs} s");
    }

    #[test]
    fn file_based_recon_is_minutes_not_seconds() {
        let t = estimate_recon_time(
            &ScanDims::paper_reference(),
            ReconClass::Iterative { sweeps: 2 },
            &DeviceModel::nersc_cpu_node(),
        );
        let mins = t.as_secs_f64() / 60.0;
        assert!(
            (10.0..60.0).contains(&mins),
            "file-based recon {mins} min should be tens of minutes"
        );
    }

    #[test]
    fn gridrec_is_cheaper_than_fbp() {
        let dims = ScanDims::paper_reference();
        let dev = DeviceModel::nersc_cpu_node();
        let fbp = estimate_recon_time(&dims, ReconClass::StreamingFbp, &dev);
        let grid = estimate_recon_time(&dims, ReconClass::Gridrec, &dev);
        assert!(grid < fbp);
    }

    #[test]
    fn iterative_cost_scales_with_sweeps() {
        let dims = ScanDims::paper_reference().scaled(0.1);
        let dev = DeviceModel::nersc_cpu_node();
        let t2 = estimate_recon_time(&dims, ReconClass::Iterative { sweeps: 2 }, &dev);
        let t8 = estimate_recon_time(&dims, ReconClass::Iterative { sweeps: 8 }, &dev);
        let ratio = t8.as_secs_f64() / t2.as_secs_f64();
        assert!((2.5..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scaled_dims_preserve_aspect() {
        let d = ScanDims::paper_reference().scaled(0.05);
        assert!(d.n_angles >= 2 && d.det_rows >= 2 && d.det_cols >= 2);
        let ar_orig = 2560.0 / 2160.0;
        let ar = d.det_cols as f64 / d.det_rows as f64;
        assert!((ar - ar_orig).abs() < 0.1);
    }

    #[test]
    fn calibration_roundtrips() {
        let dev = DeviceModel::calibrated(1_000_000, SimDuration::from_secs(2));
        assert!((dev.backproj_ops_per_sec - 500_000.0).abs() < 1.0);
    }
}
