//! Zarr-like multiscale chunked volume store.
//!
//! The file-based flows produce "a multi-scale reconstructed volume (Zarr
//! format)" for the itk-vtk-viewer web app. This store mirrors the layout:
//! a directory containing a JSON metadata document plus one binary file
//! per chunk per resolution level (`L{level}/{cz}.{cy}.{cx}`), each chunk
//! CRC-protected. Level 0 is full resolution; each higher level halves
//! every axis (box-filtered), which is what progressive web viewers pull.

use crate::checksum::crc32;
use als_tomo::Volume;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Errors from the multiscale store.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    Corrupt(String),
    Meta(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt chunk: {m}"),
            StoreError::Meta(m) => write!(f, "bad metadata: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Per-level metadata.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct LevelMeta {
    pub shape: [usize; 3],
    pub chunk: [usize; 3],
}

/// Store metadata document (`.mzarr.json`).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct StoreMeta {
    pub name: String,
    pub dtype: String,
    pub levels: Vec<LevelMeta>,
}

/// A multiscale volume store rooted at a directory.
#[derive(Debug, Clone)]
pub struct MultiscaleStore {
    root: PathBuf,
    meta: StoreMeta,
}

fn chunk_grid(shape: [usize; 3], chunk: [usize; 3]) -> [usize; 3] {
    [
        shape[0].div_ceil(chunk[0]),
        shape[1].div_ceil(chunk[1]),
        shape[2].div_ceil(chunk[2]),
    ]
}

impl MultiscaleStore {
    /// Build a pyramid from `vol` with `n_levels` levels (level 0 = full
    /// resolution, each level halves all axes) and write it under `root`.
    pub fn create(
        root: &Path,
        name: &str,
        vol: &Volume,
        chunk: [usize; 3],
        n_levels: usize,
    ) -> Result<MultiscaleStore, StoreError> {
        assert!(n_levels >= 1, "need at least one level");
        assert!(chunk.iter().all(|&c| c > 0), "chunk dims must be nonzero");
        std::fs::create_dir_all(root)?;
        let mut levels = Vec::with_capacity(n_levels);
        let mut current = vol.clone();
        for level in 0..n_levels {
            let shape = [current.nz, current.ny, current.nx];
            levels.push(LevelMeta { shape, chunk });
            write_level(root, level, &current, chunk)?;
            if level + 1 < n_levels {
                current = downsample2(&current);
            }
        }
        let meta = StoreMeta {
            name: name.to_string(),
            dtype: "f32".into(),
            levels,
        };
        let meta_json =
            serde_json::to_string_pretty(&meta).map_err(|e| StoreError::Meta(e.to_string()))?;
        std::fs::write(root.join(".mzarr.json"), meta_json)?;
        Ok(MultiscaleStore {
            root: root.to_path_buf(),
            meta,
        })
    }

    /// Open an existing store.
    pub fn open(root: &Path) -> Result<MultiscaleStore, StoreError> {
        let meta_raw = std::fs::read_to_string(root.join(".mzarr.json"))?;
        let meta: StoreMeta =
            serde_json::from_str(&meta_raw).map_err(|e| StoreError::Meta(e.to_string()))?;
        if meta.dtype != "f32" {
            return Err(StoreError::Meta(format!(
                "unsupported dtype {}",
                meta.dtype
            )));
        }
        if let Some(lm) = meta.levels.iter().find(|lm| lm.chunk.contains(&0)) {
            return Err(StoreError::Meta(format!(
                "zero chunk dimension {:?}",
                lm.chunk
            )));
        }
        Ok(MultiscaleStore {
            root: root.to_path_buf(),
            meta,
        })
    }

    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    pub fn n_levels(&self) -> usize {
        self.meta.levels.len()
    }

    /// Read back an entire level as a volume, validating every chunk
    /// checksum.
    pub fn read_level(&self, level: usize) -> Result<Volume, StoreError> {
        let lm = self
            .meta
            .levels
            .get(level)
            .ok_or_else(|| StoreError::Meta(format!("no level {level}")))?;
        let [nz, ny, nx] = lm.shape;
        // the shape comes off disk: size it with checked arithmetic, and
        // allocate only once every chunk file is there at full length
        nx.checked_mul(ny)
            .and_then(|n| n.checked_mul(nz))
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| StoreError::Meta(format!("level shape {:?} overflows", lm.shape)))?;
        let chunks = || {
            let [gz, gy, gx] = chunk_grid(lm.shape, lm.chunk);
            (0..gz)
                .flat_map(move |cz| (0..gy).flat_map(move |cy| (0..gx).map(move |cx| (cz, cy, cx))))
        };
        for c in chunks() {
            let path = self.chunk_path(level, c);
            let len = std::fs::metadata(&path)?.len();
            let [lz, ly, lx] = chunk_extent(lm, c);
            let expected = 4 + 4 * lz * ly * lx;
            if len != expected as u64 {
                return Err(StoreError::Corrupt(format!(
                    "{path:?} holds {len} bytes, expected {expected}"
                )));
            }
        }
        let mut vol = Volume::zeros(nx, ny, nz);
        for c in chunks() {
            let path = self.chunk_path(level, c);
            let mut buf = Vec::new();
            std::fs::File::open(&path)?.read_to_end(&mut buf)?;
            if buf.len() < 4 {
                return Err(StoreError::Corrupt(format!("{path:?} truncated")));
            }
            let stored = u32::from_le_bytes(buf[..4].try_into().unwrap());
            let payload = &buf[4..];
            if crc32(payload) != stored {
                return Err(StoreError::Corrupt(format!("{path:?} checksum mismatch")));
            }
            let vals: Vec<f32> = payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            scatter_chunk(&mut vol, lm, c, &vals)?;
        }
        Ok(vol)
    }

    /// Total bytes across all chunk files (payloads + checksums).
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .filter_map(|e| e.ok())
                        .map(|e| {
                            let p = e.path();
                            if p.is_dir() {
                                walk(&p)
                            } else {
                                e.metadata().map(|m| m.len()).unwrap_or(0)
                            }
                        })
                        .sum()
                })
                .unwrap_or(0)
        }
        walk(&self.root)
    }

    fn chunk_path(&self, level: usize, (cz, cy, cx): (usize, usize, usize)) -> PathBuf {
        self.root
            .join(format!("L{level}"))
            .join(format!("{cz}.{cy}.{cx}"))
    }
}

fn write_level(
    root: &Path,
    level: usize,
    vol: &Volume,
    chunk: [usize; 3],
) -> Result<(), StoreError> {
    let dir = root.join(format!("L{level}"));
    std::fs::create_dir_all(&dir)?;
    let shape = [vol.nz, vol.ny, vol.nx];
    let grid = chunk_grid(shape, chunk);
    for cz in 0..grid[0] {
        for cy in 0..grid[1] {
            for cx in 0..grid[2] {
                let mut payload: Vec<u8> = Vec::new();
                let z0 = cz * chunk[0];
                let y0 = cy * chunk[1];
                let x0 = cx * chunk[2];
                for dz in 0..chunk[0].min(shape[0] - z0) {
                    for dy in 0..chunk[1].min(shape[1] - y0) {
                        for dx in 0..chunk[2].min(shape[2] - x0) {
                            payload.extend_from_slice(
                                &vol.get(x0 + dx, y0 + dy, z0 + dz).to_le_bytes(),
                            );
                        }
                    }
                }
                let mut f = std::fs::File::create(dir.join(format!("{cz}.{cy}.{cx}")))?;
                f.write_all(&crc32(&payload).to_le_bytes())?;
                f.write_all(&payload)?;
            }
        }
    }
    Ok(())
}

/// Voxels along (z, y, x) of chunk `(cz, cy, cx)`: the chunk shape,
/// clipped at the level's far edges.
fn chunk_extent(lm: &LevelMeta, (cz, cy, cx): (usize, usize, usize)) -> [usize; 3] {
    let [nz, ny, nx] = lm.shape;
    let chunk = lm.chunk;
    [
        chunk[0].min(nz - cz * chunk[0]),
        chunk[1].min(ny - cy * chunk[1]),
        chunk[2].min(nx - cx * chunk[2]),
    ]
}

fn scatter_chunk(
    vol: &mut Volume,
    lm: &LevelMeta,
    (cz, cy, cx): (usize, usize, usize),
    vals: &[f32],
) -> Result<(), StoreError> {
    let [z0, y0, x0] = [cz * lm.chunk[0], cy * lm.chunk[1], cx * lm.chunk[2]];
    let [lz, ly, lx] = chunk_extent(lm, (cz, cy, cx));
    if vals.len() != lz * ly * lx {
        return Err(StoreError::Corrupt(format!(
            "chunk ({cz},{cy},{cx}) has {} values, expected {}",
            vals.len(),
            lz * ly * lx
        )));
    }
    let mut i = 0;
    for dz in 0..lz {
        for dy in 0..ly {
            for dx in 0..lx {
                vol.set(x0 + dx, y0 + dy, z0 + dz, vals[i]);
                i += 1;
            }
        }
    }
    Ok(())
}

/// Halve every axis with 2×2×2 box averaging. Output slices are
/// independent, so the work is parallelized over output z (each voxel's
/// accumulation order is unchanged — results are identical at any
/// thread count).
pub fn downsample2(vol: &Volume) -> Volume {
    use rayon::prelude::*;
    let nx = (vol.nx / 2).max(1);
    let ny = (vol.ny / 2).max(1);
    let nz = (vol.nz / 2).max(1);
    let mut out = Volume::zeros(nx, ny, nz);
    out.data
        .par_chunks_mut(nx * ny)
        .enumerate()
        .for_each(|(z, slice)| {
            for y in 0..ny {
                for x in 0..nx {
                    let mut acc = 0.0f64;
                    let mut cnt = 0u32;
                    for dz in 0..2 {
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let sx = x * 2 + dx;
                                let sy = y * 2 + dy;
                                let sz = z * 2 + dz;
                                if sx < vol.nx && sy < vol.ny && sz < vol.nz {
                                    acc += vol.get(sx, sy, sz) as f64;
                                    cnt += 1;
                                }
                            }
                        }
                    }
                    slice[y * nx + x] = (acc / cnt.max(1) as f64) as f32;
                }
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_volume() -> Volume {
        let mut vol = Volume::zeros(20, 18, 10);
        for z in 0..10 {
            for y in 0..18 {
                for x in 0..20 {
                    vol.set(x, y, z, (x + 10 * y + 100 * z) as f32);
                }
            }
        }
        vol
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mzarr_{name}"));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn level0_roundtrips_exactly() {
        let dir = tmpdir("roundtrip");
        let vol = test_volume();
        let store = MultiscaleStore::create(&dir, "test", &vol, [4, 8, 8], 3).unwrap();
        let back = store.read_level(0).unwrap();
        assert_eq!(back, vol);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pyramid_shapes_halve() {
        let dir = tmpdir("shapes");
        let vol = test_volume();
        let store = MultiscaleStore::create(&dir, "test", &vol, [4, 4, 4], 3).unwrap();
        assert_eq!(store.meta().levels[0].shape, [10, 18, 20]);
        assert_eq!(store.meta().levels[1].shape, [5, 9, 10]);
        assert_eq!(store.meta().levels[2].shape, [2, 4, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sees_created_metadata() {
        let dir = tmpdir("open");
        let vol = test_volume();
        let created = MultiscaleStore::create(&dir, "scan42", &vol, [4, 8, 8], 2).unwrap();
        let opened = MultiscaleStore::open(&dir).unwrap();
        assert_eq!(opened.meta(), created.meta());
        assert_eq!(opened.meta().name, "scan42");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn downsample_preserves_mean() {
        let vol = test_volume();
        let ds = downsample2(&vol);
        let mean_full: f64 =
            vol.data.iter().map(|&v| v as f64).sum::<f64>() / vol.data.len() as f64;
        let mean_ds: f64 = ds.data.iter().map(|&v| v as f64).sum::<f64>() / ds.data.len() as f64;
        assert!((mean_full - mean_ds).abs() / mean_full < 0.05);
    }

    #[test]
    fn chunk_corruption_detected_on_read() {
        let dir = tmpdir("corrupt");
        let vol = test_volume();
        let store = MultiscaleStore::create(&dir, "t", &vol, [4, 8, 8], 1).unwrap();
        // tamper with one chunk payload byte
        let victim = dir.join("L0").join("0.0.0");
        let mut bytes = std::fs::read(&victim).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&victim, bytes).unwrap();
        match store.read_level(0) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_usage_shrinks_per_level() {
        let dir = tmpdir("usage");
        let vol = test_volume();
        MultiscaleStore::create(&dir, "t", &vol, [4, 8, 8], 2).unwrap();
        let l0: u64 = walkdir_size(&dir.join("L0"));
        let l1: u64 = walkdir_size(&dir.join("L1"));
        assert!(l1 < l0 / 4, "L1 {l1} should be ~1/8 of L0 {l0}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn walkdir_size(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.metadata().unwrap().len())
            .sum()
    }

    #[test]
    fn zero_chunk_dimension_is_refused_at_open() {
        let dir = tmpdir("zero_chunk");
        let vol = test_volume();
        let store = MultiscaleStore::create(&dir, "t", &vol, [4, 4, 4], 1).unwrap();
        let mut meta = store.meta().clone();
        meta.levels[0].chunk = [0, 4, 4];
        let meta_json = serde_json::to_string_pretty(&meta).unwrap();
        std::fs::write(dir.join(".mzarr.json"), meta_json).unwrap();
        // a store that opened would divide by the zero reading the level
        let read = MultiscaleStore::open(&dir).and_then(|s| s.read_level(0));
        match read {
            Err(StoreError::Meta(m)) => assert!(m.contains("zero chunk"), "{m}"),
            other => panic!("expected a metadata error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_declared_shape_is_an_error_not_an_abort() {
        let dir = tmpdir("huge_shape");
        std::fs::create_dir_all(&dir).unwrap();
        // 2^50 voxels (4 PiB of f32) with no chunk on disk, then a shape
        // whose voxel count overflows usize
        for shape in [[1 << 20, 1 << 20, 1024], [usize::MAX, 2, 1]] {
            let meta = StoreMeta {
                name: "huge".into(),
                dtype: "f32".into(),
                levels: vec![LevelMeta {
                    shape,
                    chunk: [64, 64, 64],
                }],
            };
            let meta_json = serde_json::to_string_pretty(&meta).unwrap();
            std::fs::write(dir.join(".mzarr.json"), meta_json).unwrap();
            let store = MultiscaleStore::open(&dir).unwrap();
            assert!(store.read_level(0).is_err(), "{shape:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_chunk_is_corrupt() {
        let dir = tmpdir("short_chunk");
        let store = MultiscaleStore::create(&dir, "t", &test_volume(), [4, 4, 4], 1).unwrap();
        let path = dir.join("L0").join("0.0.0");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        match store.read_level(0) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("expected"), "{m}"),
            other => panic!("expected a corrupt chunk, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_store_fails_to_open() {
        assert!(MultiscaleStore::open(Path::new("/nonexistent/store")).is_err());
    }
}
