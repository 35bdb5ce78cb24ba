//! # als-catalog
//!
//! Metadata catalogue — the SciCat substitute. "Metadata for each scan is
//! searchable in SciCat"; datasets carry instrument metadata, FAIR-style
//! persistent identifiers, and provenance links from derived data (the
//! reconstruction) back to raw data (the scan).
//!
//! §5.3 also flags the *absence of standardized sample metadata* as a
//! limitation; [`SampleMetadata`] models the missing fields, and the JSON
//! export carries them.

use als_simcore::{ByteSize, SimInstant};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Persistent dataset identifier (SciCat PID substitute).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DatasetPid(pub String);

/// Raw vs derived dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Raw acquisition (the HDF5 scan file).
    Raw,
    /// Derived data (reconstruction, segmentation, ...).
    Derived,
}

/// Instrument metadata captured automatically per scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct InstrumentMetadata {
    pub beamline: String,
    pub n_angles: usize,
    pub detector_rows: usize,
    pub detector_cols: usize,
    pub pixel_size_um: f64,
    pub exposure_ms: f64,
}

/// The sample metadata the paper says is *not* yet standardized:
/// "provenance, preparation methods, in situ conditions, and material
/// classifications". All optional.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SampleMetadata {
    pub description: Option<String>,
    pub preparation: Option<String>,
    pub in_situ_conditions: Option<String>,
    pub material_class: Option<String>,
}

/// A catalogued dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    pub pid: DatasetPid,
    pub kind: DatasetKind,
    pub name: String,
    pub owner: String,
    pub created: SimInstant,
    pub size: ByteSize,
    pub instrument: InstrumentMetadata,
    pub sample: SampleMetadata,
    /// PIDs of the datasets this one was derived from.
    pub derived_from: Vec<DatasetPid>,
    /// Free-form scientific metadata.
    pub scientific: BTreeMap<String, String>,
}

/// Errors from catalogue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    DuplicatePid(String),
    NotFound(String),
    /// A provenance link points at a PID the catalogue has never seen.
    DanglingProvenance(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicatePid(p) => write!(f, "duplicate pid: {p}"),
            CatalogError::NotFound(p) => write!(f, "dataset not found: {p}"),
            CatalogError::DanglingProvenance(p) => write!(f, "dangling provenance link: {p}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// The catalogue.
#[derive(Debug, Default)]
pub struct Catalog {
    datasets: BTreeMap<DatasetPid, Dataset>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest a dataset. Provenance links must reference existing PIDs.
    pub fn ingest(&mut self, ds: Dataset) -> Result<(), CatalogError> {
        if self.datasets.contains_key(&ds.pid) {
            return Err(CatalogError::DuplicatePid(ds.pid.0.clone()));
        }
        for parent in &ds.derived_from {
            if !self.datasets.contains_key(parent) {
                return Err(CatalogError::DanglingProvenance(parent.0.clone()));
            }
        }
        self.datasets.insert(ds.pid.clone(), ds);
        Ok(())
    }

    pub fn get(&self, pid: &DatasetPid) -> Result<&Dataset, CatalogError> {
        self.datasets
            .get(pid)
            .ok_or_else(|| CatalogError::NotFound(pid.0.clone()))
    }

    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    /// Case-insensitive free-text search over names, owners, and
    /// scientific metadata values.
    pub fn search(&self, query: &str) -> Vec<&Dataset> {
        let q = query.to_ascii_lowercase();
        self.datasets
            .values()
            .filter(|d| {
                d.name.to_ascii_lowercase().contains(&q)
                    || d.owner.to_ascii_lowercase().contains(&q)
                    || d.scientific
                        .values()
                        .any(|v| v.to_ascii_lowercase().contains(&q))
            })
            .collect()
    }

    /// Datasets derived (transitively) from `pid` — the forward provenance
    /// graph a user follows from a raw scan to its products.
    pub fn derived_chain(&self, pid: &DatasetPid) -> Vec<&Dataset> {
        let mut out = Vec::new();
        let mut frontier = vec![pid.clone()];
        while let Some(cur) = frontier.pop() {
            for d in self.datasets.values() {
                if d.derived_from.contains(&cur) && !out.iter().any(|o: &&Dataset| o.pid == d.pid) {
                    out.push(d);
                    frontier.push(d.pid.clone());
                }
            }
        }
        out
    }

    /// Export the full catalogue as JSON — the FAIR "machine-readable
    /// metadata" requirement of the DOE Public Access Plan.
    pub fn export_json(&self) -> String {
        let all: Vec<&Dataset> = self.datasets.values().collect();
        serde_json::to_string_pretty(&all).expect("datasets serialize")
    }
}

/// Convenience constructor for a raw-scan dataset.
pub fn raw_scan_dataset(
    scan_id: &str,
    owner: &str,
    created: SimInstant,
    size: ByteSize,
    instrument: InstrumentMetadata,
) -> Dataset {
    Dataset {
        pid: DatasetPid(format!("als/8.3.2/raw/{scan_id}")),
        kind: DatasetKind::Raw,
        name: scan_id.to_string(),
        owner: owner.to_string(),
        created,
        size,
        instrument,
        sample: SampleMetadata::default(),
        derived_from: Vec::new(),
        scientific: BTreeMap::new(),
    }
}

/// Convenience constructor for a reconstruction derived from a raw scan.
pub fn recon_dataset(
    scan_id: &str,
    facility: &str,
    raw: &DatasetPid,
    created: SimInstant,
    size: ByteSize,
) -> Dataset {
    Dataset {
        pid: DatasetPid(format!("als/8.3.2/recon/{facility}/{scan_id}")),
        kind: DatasetKind::Derived,
        name: format!("{scan_id}_recon_{facility}"),
        owner: "als-pipeline".to_string(),
        created,
        size,
        instrument: InstrumentMetadata::default(),
        sample: SampleMetadata::default(),
        derived_from: vec![raw.clone()],
        scientific: BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instrument() -> InstrumentMetadata {
        InstrumentMetadata {
            beamline: "8.3.2".into(),
            n_angles: 1969,
            detector_rows: 2160,
            detector_cols: 2560,
            pixel_size_um: 0.65,
            exposure_ms: 30.0,
        }
    }

    #[test]
    fn ingest_and_get() {
        let mut cat = Catalog::new();
        let ds = raw_scan_dataset(
            "scan_0001",
            "ahexemer",
            SimInstant::ZERO,
            ByteSize::from_gib(22),
            instrument(),
        );
        let pid = ds.pid.clone();
        cat.ingest(ds).unwrap();
        assert_eq!(cat.get(&pid).unwrap().instrument.n_angles, 1969);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn duplicate_pids_rejected() {
        let mut cat = Catalog::new();
        let ds = raw_scan_dataset("s", "o", SimInstant::ZERO, ByteSize::ZERO, instrument());
        cat.ingest(ds.clone()).unwrap();
        assert!(matches!(cat.ingest(ds), Err(CatalogError::DuplicatePid(_))));
    }

    #[test]
    fn provenance_must_exist() {
        let mut cat = Catalog::new();
        let orphan = recon_dataset(
            "sX",
            "nersc",
            &DatasetPid("missing".into()),
            SimInstant::ZERO,
            ByteSize::ZERO,
        );
        assert!(matches!(
            cat.ingest(orphan),
            Err(CatalogError::DanglingProvenance(_))
        ));
    }

    #[test]
    fn derived_chain_walks_transitively() {
        let mut cat = Catalog::new();
        let raw = raw_scan_dataset(
            "s1",
            "o",
            SimInstant::ZERO,
            ByteSize::from_gib(20),
            instrument(),
        );
        let raw_pid = raw.pid.clone();
        cat.ingest(raw).unwrap();
        let rec = recon_dataset(
            "s1",
            "nersc",
            &raw_pid,
            SimInstant::ZERO,
            ByteSize::from_gib(50),
        );
        let rec_pid = rec.pid.clone();
        cat.ingest(rec).unwrap();
        // segmentation derived from the reconstruction
        let mut seg = recon_dataset(
            "s1",
            "mlx-seg",
            &rec_pid,
            SimInstant::ZERO,
            ByteSize::from_gib(2),
        );
        seg.pid = DatasetPid("als/8.3.2/seg/s1".into());
        cat.ingest(seg).unwrap();
        let chain = cat.derived_chain(&raw_pid);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn search_is_case_insensitive_and_covers_metadata() {
        let mut cat = Catalog::new();
        let mut ds = raw_scan_dataset(
            "feather_scan",
            "namyi",
            SimInstant::ZERO,
            ByteSize::ZERO,
            instrument(),
        );
        ds.scientific.insert("species".into(), "Sandgrouse".into());
        cat.ingest(ds).unwrap();
        assert_eq!(cat.search("FEATHER").len(), 1);
        assert_eq!(cat.search("sandgrouse").len(), 1);
        assert_eq!(cat.search("namyi").len(), 1);
        assert!(cat.search("chicken").is_empty());
    }

    #[test]
    fn json_export_is_parseable_and_complete() {
        let mut cat = Catalog::new();
        cat.ingest(raw_scan_dataset(
            "s1",
            "o",
            SimInstant::ZERO,
            ByteSize::from_gib(1),
            instrument(),
        ))
        .unwrap();
        let json = cat.export_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 1);
        assert!(json.contains("als/8.3.2/raw/s1"));
    }
}
