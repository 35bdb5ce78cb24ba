//! # als-scidata
//!
//! Scientific data containers for the beamline pipeline — the workspace's
//! substitute for the HDF5 / TIFF / Zarr stack the paper uses:
//!
//! * [`checksum`] — CRC-32 and streaming digests; Globus-style transfer
//!   verification is built on these;
//! * [`container`] — **SDF**, a hierarchical HDF5-like container (groups,
//!   typed datasets, attributes) with a compact binary encoding and
//!   per-dataset checksums;
//! * [`scanfile`] — the beamline scan layout inside an SDF container
//!   (`/exchange/data`, `/exchange/data_white`, `/exchange/data_dark`,
//!   acquisition metadata), mirroring the DataExchange HDF5 layout ALS
//!   writes;
//! * [`tiff`] — a minimal but spec-conforming little-endian TIFF writer
//!   for reconstructed slices (the paper's per-slice TIFF stacks);
//! * [`multiscale`] — a Zarr-like chunked multiscale volume store backed
//!   by a directory tree, powering the itk-vtk-viewer-style access layer;
//! * [`sink`] — streaming archive writers (TIFF stack, multiscale store)
//!   plus the `ProjectionSource` adapter that lets the scan-to-archive
//!   pipeline (`als_tomo::pipeline`) read a [`ScanFile`] directly.

pub mod checksum;
pub mod container;
pub mod multiscale;
pub mod scanfile;
pub mod sink;
pub mod tiff;

pub use checksum::{crc32, Crc32};
pub use container::{Attribute, Dataset, DatasetData, Group, SdfError, SdfFile};
pub use multiscale::MultiscaleStore;
pub use scanfile::ScanFile;
pub use sink::{MultiscaleWriter, TiffStackSink};
