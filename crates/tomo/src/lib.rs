//! # als-tomo
//!
//! A from-scratch parallel-beam tomographic reconstruction library — the
//! workspace's substitute for the TomoPy / tomocupy / streamtomocupy stack
//! the paper runs at NERSC and ALCF.
//!
//! The crate covers the full beamline processing chain:
//!
//! * [`prep`] — dark/flat-field normalization, −log transform, zinger
//!   (outlier) removal, ring-artifact suppression, Paganin-style phase
//!   filtering;
//! * [`cor`] — center-of-rotation search;
//! * [`gridrec`] — Fourier-slice ("gridrec"-style) reconstruction, the fast
//!   CPU algorithm TomoPy defaults to;
//! * [`iterative`] — SIRT, the "higher quality owing to the
//!   preprocessing and iterative algorithms" branch of the paper;
//! * [`radon`] — the forward projector (one kernel: a single image, or a
//!   volume four slices per ray walk across cores) and the
//!   reconstruction-disk mask shared by everything;
//! * [`fft`] — an in-house radix-2 FFT (no external FFT dependency), with
//!   table-driven [`fft::FftPlan`]s for hot loops;
//! * [`plan`] — the plan-and-scratch reconstruction engine and the one
//!   filtered back projection path ([`ReconPlan`], with the classic
//!   window family: ram-lak, Shepp-Logan, cosine, Hamming, Hann,
//!   Butterworth): per-geometry cached filter responses, FFT tables,
//!   trig tables, disk-mask extents, and reusable per-thread scratch
//!   (the CPU analogue of streamtomocupy's persistent GPU plans);
//! * [`pipeline`] — the chunked scan-to-archive engine: slab transpose,
//!   fused prep, slice-parallel reconstruction, and archive sinks on a
//!   dedicated I/O thread, connected by bounded channels so the stages
//!   overlap;
//! * [`simd`] — runtime-dispatched wide kernels (AVX2/FMA with a scalar
//!   fallback) shared by the plan engine, FFT stages, and filter multiply;
//! * [`quality`] — MSE/PSNR/SSIM metrics used by the quality experiments;
//! * [`throughput`] — calibrated cost models that let the discrete-event
//!   simulation report paper-scale (2160×2560×1969) reconstruction times.
//!
//! Slice-level operations are single-threaded; volume-level entry points
//! parallelize across slices with rayon, mirroring how tomopy distributes
//! sinograms across cores on the 128-core NERSC nodes.

pub mod cor;
pub mod fft;
pub mod filter;
pub mod geometry;
pub mod gridrec;
pub mod image;
pub mod iterative;
pub mod pipeline;
pub mod plan;
pub mod prep;
pub mod quality;
pub mod radon;
pub mod simd;
pub mod throughput;

pub use filter::{FilterKind, FilterPlan};
pub use geometry::Geometry;
pub use gridrec::{gridrec_slice, GridrecConfig};
pub use image::{Image, Sinogram, Volume};
pub use iterative::{IterConfig, IterPlan, IterScratch};
pub use pipeline::{
    PipelineConfig, PipelineError, PipelineReport, ProjectionSource, ReconKind, SliceSink,
    VolumeSink,
};
pub use plan::{
    FbpAccumulator, FbpConfig, GridrecPlan, GridrecScratch, LaneVolume, ReconPlan, ReconScratch,
};
pub use prep::{PaganinPlan, RawPrepPlan, SinoPostPlan, SinoPostScratch};
pub use quality::{mse, psnr, ssim};
pub use radon::{forward_project, forward_project_volume};
pub use simd::SimdPath;

/// Errors produced by reconstruction entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TomoError {
    /// Input dimensions do not match the geometry.
    ShapeMismatch {
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// A parameter was outside its valid range.
    BadParameter(String),
}

impl std::fmt::Display for TomoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TomoError::ShapeMismatch { expected, got } => write!(
                f,
                "shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            TomoError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl std::error::Error for TomoError {}
