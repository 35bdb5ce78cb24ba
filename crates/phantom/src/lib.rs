//! # als-phantom
//!
//! Synthetic samples and a detector model for the microtomography beamline
//! simulation. The paper's experiments run on real specimens (feathers,
//! fracking proppant); since no beamline is attached, this crate generates
//! phantoms with the same *analysis-relevant* structure:
//!
//! * [`shepp`] — the classic Shepp-Logan head phantom (2D and volumetric),
//!   the standard reconstruction-quality reference;
//! * [`feather`] — chicken-like (straight barbules) vs sandgrouse-like
//!   (coiled, water-holding barbules) feather phantoms for Case Study 1;
//! * [`proppant`] — proppant grains propping a fracture between shale
//!   walls, for Case Study 2's retrospective;
//! * [`detector`] — a 16-bit area-detector model: flat/dark fields,
//!   photon (Poisson) noise, and per-frame metadata, producing the same
//!   frame stream the beamline's EPICS IOC publishes;
//! * [`morphology`] — quantitative descriptors (porosity, in-plane
//!   anisotropy, coil index) used to *measure* the Figure 1 comparison
//!   instead of eyeballing it.

pub mod detector;
pub mod feather;
pub mod morphology;
pub mod proppant;
pub mod shepp;

pub use detector::{DetectorConfig, Frame, FrameMeta, ScanSimulator};
pub use feather::{feather_volume, FeatherSpecies};
pub use morphology::MorphologyReport;
pub use proppant::proppant_volume;
pub use shepp::{shepp_logan_2d, shepp_logan_volume};
