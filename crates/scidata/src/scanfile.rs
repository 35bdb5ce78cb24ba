//! The beamline scan file: raw projections, reference fields, and
//! acquisition metadata in the DataExchange-style layout ALS 8.3.2 writes
//! (`/exchange/data`, `/exchange/data_white`, `/exchange/data_dark`).

use crate::container::{Attribute, Dataset, DatasetData, SdfError, SdfFile};
use als_phantom::Frame;

/// A typed wrapper over an [`SdfFile`] holding one complete acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanFile {
    inner: SdfFile,
}

impl ScanFile {
    /// Assemble a scan file from acquired frames and reference fields.
    ///
    /// `frames` must all share the same shape and be in acquisition order;
    /// `dark`/`flat` are `rows × cols` reference images.
    pub fn from_frames(
        scan_name: &str,
        frames: &[Frame],
        dark: &[u16],
        flat: &[u16],
        angles: &[f64],
    ) -> Result<ScanFile, SdfError> {
        if frames.is_empty() {
            return Err(SdfError::Corrupt("scan has no frames".into()));
        }
        let rows = frames[0].meta.rows;
        let cols = frames[0].meta.cols;
        for f in frames {
            if f.meta.rows != rows || f.meta.cols != cols {
                return Err(SdfError::Corrupt("inconsistent frame shapes".into()));
            }
        }
        if angles.len() != frames.len() {
            return Err(SdfError::Corrupt(format!(
                "{} angles for {} frames",
                angles.len(),
                frames.len()
            )));
        }
        let mut data = Vec::with_capacity(frames.len() * rows * cols);
        for f in frames {
            data.extend_from_slice(&f.data);
        }
        Self::from_raw_parts(
            scan_name,
            frames.len(),
            rows,
            cols,
            data,
            dark,
            flat,
            angles,
        )
    }

    /// Assemble a scan file from an already-contiguous projection stack.
    ///
    /// This is the zero-copy streaming path: the file writer appends each
    /// validated frame's pixels into one growing buffer as they arrive and
    /// hands the buffer over here by value — no per-frame `Frame` clones
    /// and no second whole-scan copy at completion time.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        scan_name: &str,
        n_frames: usize,
        rows: usize,
        cols: usize,
        data: Vec<u16>,
        dark: &[u16],
        flat: &[u16],
        angles: &[f64],
    ) -> Result<ScanFile, SdfError> {
        if n_frames == 0 {
            return Err(SdfError::Corrupt("scan has no frames".into()));
        }
        if data.len() != n_frames * rows * cols {
            return Err(SdfError::Corrupt(format!(
                "projection stack holds {} pixels, expected {}x{}x{}",
                data.len(),
                n_frames,
                rows,
                cols
            )));
        }
        if angles.len() != n_frames {
            return Err(SdfError::Corrupt(format!(
                "{} angles for {} frames",
                angles.len(),
                n_frames
            )));
        }
        let mut file = SdfFile::new();
        file.write_dataset(
            "/exchange/data",
            Dataset::new(vec![n_frames, rows, cols], DatasetData::U16(data))?,
        )?;
        file.write_dataset(
            "/exchange/data_dark",
            Dataset::new(vec![1, rows, cols], DatasetData::U16(dark.to_vec()))?,
        )?;
        file.write_dataset(
            "/exchange/data_white",
            Dataset::new(vec![1, rows, cols], DatasetData::U16(flat.to_vec()))?,
        )?;
        file.write_dataset(
            "/exchange/theta",
            Dataset::new(vec![angles.len()], DatasetData::F64(angles.to_vec()))?,
        )?;
        file.set_attr("/", "scan_name", Attribute::Str(scan_name.to_string()))?;
        file.set_attr("/", "beamline", Attribute::Str("8.3.2".into()))?;
        file.set_attr(
            "/process/acquisition",
            "n_angles",
            Attribute::Int(n_frames as i64),
        )?;
        file.set_attr("/process/acquisition", "rows", Attribute::Int(rows as i64))?;
        file.set_attr("/process/acquisition", "cols", Attribute::Int(cols as i64))?;
        Ok(ScanFile { inner: file })
    }

    /// Wrap an existing container, validating the layout.
    pub fn from_container(inner: SdfFile) -> Result<ScanFile, SdfError> {
        for required in [
            "/exchange/data",
            "/exchange/data_dark",
            "/exchange/data_white",
        ] {
            inner.dataset(required)?;
        }
        Ok(ScanFile { inner })
    }

    pub fn scan_name(&self) -> String {
        match self.inner.attr("/", "scan_name") {
            Ok(Attribute::Str(s)) => s.clone(),
            _ => "unnamed".to_string(),
        }
    }

    /// (n_angles, rows, cols).
    pub fn shape(&self) -> (usize, usize, usize) {
        let ds = self
            .inner
            .dataset("/exchange/data")
            .expect("validated layout");
        (ds.shape[0], ds.shape[1], ds.shape[2])
    }

    /// Raw projection counts for frame `a`, row-major `rows × cols`.
    pub fn frame_data(&self, a: usize) -> &[u16] {
        let ds = self
            .inner
            .dataset("/exchange/data")
            .expect("validated layout");
        let (n, rows, cols) = (ds.shape[0], ds.shape[1], ds.shape[2]);
        assert!(a < n, "frame index {a} out of range ({n})");
        match &ds.data {
            DatasetData::U16(v) => &v[a * rows * cols..(a + 1) * rows * cols],
            _ => unreachable!("exchange/data is always u16"),
        }
    }

    pub fn dark(&self) -> &[u16] {
        match &self.inner.dataset("/exchange/data_dark").unwrap().data {
            DatasetData::U16(v) => v,
            _ => unreachable!(),
        }
    }

    pub fn flat(&self) -> &[u16] {
        match &self.inner.dataset("/exchange/data_white").unwrap().data {
            DatasetData::U16(v) => v,
            _ => unreachable!(),
        }
    }

    pub fn angles(&self) -> Vec<f64> {
        match self.inner.dataset("/exchange/theta") {
            Ok(ds) => match &ds.data {
                DatasetData::F64(v) => v.clone(),
                _ => Vec::new(),
            },
            Err(_) => Vec::new(),
        }
    }

    /// The raw payload size (what Globus would move).
    pub fn nbytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    pub fn container(&self) -> &SdfFile {
        &self.inner
    }

    pub fn save(&self, path: &std::path::Path) -> Result<(), SdfError> {
        self.inner.save(path)
    }

    pub fn load(path: &std::path::Path) -> Result<ScanFile, SdfError> {
        ScanFile::from_container(SdfFile::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
    use als_tomo::Geometry;

    fn make_scan() -> (ScanFile, ScanSimulator) {
        let vol = shepp_logan_volume(32, 3);
        let geom = Geometry::parallel_180(12, 32);
        let mut sim = ScanSimulator::new(&vol, geom.clone(), DetectorConfig::default(), 5);
        let frames = sim.all_frames();
        let scan = ScanFile::from_frames(
            "20260704_120000_test",
            &frames,
            sim.dark_field(),
            sim.flat_field(),
            &geom.angles,
        )
        .unwrap();
        (scan, sim)
    }

    #[test]
    fn layout_matches_dataexchange() {
        let (scan, _) = make_scan();
        let paths = scan.container().dataset_paths();
        assert!(paths.contains(&"/exchange/data".to_string()));
        assert!(paths.contains(&"/exchange/data_dark".to_string()));
        assert!(paths.contains(&"/exchange/data_white".to_string()));
        assert!(paths.contains(&"/exchange/theta".to_string()));
        assert_eq!(scan.shape(), (12, 3, 32));
        assert_eq!(scan.scan_name(), "20260704_120000_test");
    }

    #[test]
    fn frame_data_matches_original_frames() {
        let vol = shepp_logan_volume(32, 2);
        let geom = Geometry::parallel_180(6, 32);
        let cfg = DetectorConfig {
            noise: false,
            ..Default::default()
        };
        let mut sim = ScanSimulator::new(&vol, geom.clone(), cfg, 9);
        let frames = sim.all_frames();
        let scan = ScanFile::from_frames(
            "t",
            &frames,
            sim.dark_field(),
            sim.flat_field(),
            &geom.angles,
        )
        .unwrap();
        for (a, f) in frames.iter().enumerate() {
            assert_eq!(scan.frame_data(a), &f.data[..]);
        }
        assert_eq!(scan.angles(), geom.angles);
    }

    #[test]
    fn disk_roundtrip() {
        let (scan, _) = make_scan();
        let dir = std::env::temp_dir().join("scanfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.sdf");
        scan.save(&path).unwrap();
        let loaded = ScanFile::load(&path).unwrap();
        assert_eq!(loaded, scan);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_empty_and_mismatched_input() {
        assert!(ScanFile::from_frames("x", &[], &[], &[], &[]).is_err());
        let (scan, sim) = make_scan();
        // wrong angle count
        let frames: Vec<Frame> = (0..scan.shape().0)
            .map(|a| Frame {
                meta: als_phantom::FrameMeta {
                    frame_id: a,
                    angle_rad: 0.0,
                    n_angles: scan.shape().0,
                    rows: 3,
                    cols: 32,
                },
                data: vec![0; 96],
            })
            .collect();
        assert!(
            ScanFile::from_frames("x", &frames, sim.dark_field(), sim.flat_field(), &[0.0])
                .is_err()
        );
    }

    #[test]
    fn from_container_validates_layout() {
        let empty = SdfFile::new();
        assert!(ScanFile::from_container(empty).is_err());
    }
}
