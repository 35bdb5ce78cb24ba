//! SDF — a small hierarchical scientific container (HDF5 substitute).
//!
//! Groups form a tree addressed with `/`-separated paths; each group holds
//! attributes and child groups/datasets; datasets are typed n-dimensional
//! arrays. The binary encoding is little-endian with length-prefixed
//! strings and a CRC-32 per dataset payload, so corruption is detected on
//! load — the property the transfer-verification experiments rely on.

use crate::checksum::crc32;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// Errors from container operations.
#[derive(Debug)]
pub enum SdfError {
    /// Path does not exist.
    NotFound(String),
    /// Path exists but is the wrong kind (group vs dataset) or type.
    WrongType(String),
    /// Binary payload failed validation.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::NotFound(p) => write!(f, "path not found: {p}"),
            SdfError::WrongType(p) => write!(f, "wrong node type at: {p}"),
            SdfError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            SdfError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for SdfError {}

impl From<std::io::Error> for SdfError {
    fn from(e: std::io::Error) -> Self {
        SdfError::Io(e)
    }
}

/// A scalar attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Attribute {
    Str(String),
    Int(i64),
    Float(f64),
}

/// Typed dataset payload.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetData {
    U16(Vec<u16>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    I64(Vec<i64>),
    Bytes(Vec<u8>),
}

impl DatasetData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            DatasetData::U16(v) => v.len(),
            DatasetData::F32(v) => v.len(),
            DatasetData::F64(v) => v.len(),
            DatasetData::I64(v) => v.len(),
            DatasetData::Bytes(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes of the payload.
    pub fn nbytes(&self) -> usize {
        match self {
            DatasetData::U16(v) => v.len() * 2,
            DatasetData::F32(v) => v.len() * 4,
            DatasetData::F64(v) => v.len() * 8,
            DatasetData::I64(v) => v.len() * 8,
            DatasetData::Bytes(v) => v.len(),
        }
    }

    fn type_tag(&self) -> u8 {
        match self {
            DatasetData::U16(_) => 0,
            DatasetData::F32(_) => 1,
            DatasetData::F64(_) => 2,
            DatasetData::I64(_) => 3,
            DatasetData::Bytes(_) => 4,
        }
    }

    fn to_le_bytes(&self) -> Vec<u8> {
        match self {
            DatasetData::U16(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            DatasetData::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            DatasetData::F64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            DatasetData::I64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            DatasetData::Bytes(v) => v.clone(),
        }
    }

    fn from_le_bytes(tag: u8, bytes: &[u8]) -> Result<DatasetData, SdfError> {
        let chunked = |n: usize| -> Result<(), SdfError> {
            if bytes.len() % n != 0 {
                Err(SdfError::Corrupt(format!(
                    "payload length {} not a multiple of {n}",
                    bytes.len()
                )))
            } else {
                Ok(())
            }
        };
        Ok(match tag {
            0 => {
                chunked(2)?;
                DatasetData::U16(
                    bytes
                        .chunks_exact(2)
                        .map(|c| u16::from_le_bytes([c[0], c[1]]))
                        .collect(),
                )
            }
            1 => {
                chunked(4)?;
                DatasetData::F32(
                    bytes
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                )
            }
            2 => {
                chunked(8)?;
                DatasetData::F64(
                    bytes
                        .chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            3 => {
                chunked(8)?;
                DatasetData::I64(
                    bytes
                        .chunks_exact(8)
                        .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            4 => DatasetData::Bytes(bytes.to_vec()),
            t => return Err(SdfError::Corrupt(format!("unknown dataset type tag {t}"))),
        })
    }
}

/// An n-dimensional typed array.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dimensions, outermost first.
    pub shape: Vec<usize>,
    pub data: DatasetData,
}

impl Dataset {
    /// Build with shape validation.
    pub fn new(shape: Vec<usize>, data: DatasetData) -> Result<Dataset, SdfError> {
        let expected = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if expected != Some(data.len()) {
            return Err(SdfError::Corrupt(format!(
                "shape {:?} implies {} elements, payload has {}",
                shape,
                expected.map_or("more than usize::MAX".into(), |n| n.to_string()),
                data.len()
            )));
        }
        Ok(Dataset { shape, data })
    }

    pub fn f32_1d(v: Vec<f32>) -> Dataset {
        Dataset {
            shape: vec![v.len()],
            data: DatasetData::F32(v),
        }
    }

    pub fn u16_3d(d0: usize, d1: usize, d2: usize, v: Vec<u16>) -> Result<Dataset, SdfError> {
        Dataset::new(vec![d0, d1, d2], DatasetData::U16(v))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Group(Group),
    Dataset(Dataset),
}

/// A group: attributes plus named children.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Group {
    pub attrs: BTreeMap<String, Attribute>,
    children: BTreeMap<String, Node>,
}

/// An in-memory SDF container.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SdfFile {
    root: Group,
}

fn split_path(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

impl SdfFile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create all groups along `path` (like `mkdir -p`).
    pub fn create_group(&mut self, path: &str) -> Result<(), SdfError> {
        let mut cur = &mut self.root;
        for part in split_path(path) {
            let entry = cur
                .children
                .entry(part.to_string())
                .or_insert_with(|| Node::Group(Group::default()));
            match entry {
                Node::Group(g) => cur = g,
                Node::Dataset(_) => return Err(SdfError::WrongType(path.to_string())),
            }
        }
        Ok(())
    }

    fn group_mut(&mut self, path: &str) -> Result<&mut Group, SdfError> {
        let mut cur = &mut self.root;
        for part in split_path(path) {
            match cur.children.get_mut(part) {
                Some(Node::Group(g)) => cur = g,
                Some(Node::Dataset(_)) => return Err(SdfError::WrongType(path.to_string())),
                None => return Err(SdfError::NotFound(path.to_string())),
            }
        }
        Ok(cur)
    }

    /// Immutable group lookup. The empty path / `"/"` is the root.
    pub fn group(&self, path: &str) -> Result<&Group, SdfError> {
        let mut cur = &self.root;
        for part in split_path(path) {
            match cur.children.get(part) {
                Some(Node::Group(g)) => cur = g,
                Some(Node::Dataset(_)) => return Err(SdfError::WrongType(path.to_string())),
                None => return Err(SdfError::NotFound(path.to_string())),
            }
        }
        Ok(cur)
    }

    /// Write a dataset at `path`, creating parent groups as needed.
    /// Overwrites an existing dataset at the same path.
    pub fn write_dataset(&mut self, path: &str, ds: Dataset) -> Result<(), SdfError> {
        let parts = split_path(path);
        let (name, parents) = parts
            .split_last()
            .ok_or_else(|| SdfError::WrongType("empty dataset path".into()))?;
        let parent_path = parents.join("/");
        self.create_group(&parent_path)?;
        let parent = self.group_mut(&parent_path)?;
        if let Some(Node::Group(_)) = parent.children.get(*name) {
            return Err(SdfError::WrongType(path.to_string()));
        }
        parent.children.insert(name.to_string(), Node::Dataset(ds));
        Ok(())
    }

    /// Read a dataset.
    pub fn dataset(&self, path: &str) -> Result<&Dataset, SdfError> {
        let parts = split_path(path);
        let (name, parents) = parts
            .split_last()
            .ok_or_else(|| SdfError::NotFound(path.to_string()))?;
        let parent = self.group(&parents.join("/"))?;
        match parent.children.get(*name) {
            Some(Node::Dataset(d)) => Ok(d),
            Some(Node::Group(_)) => Err(SdfError::WrongType(path.to_string())),
            None => Err(SdfError::NotFound(path.to_string())),
        }
    }

    /// Set an attribute on a group (creating the group if needed).
    pub fn set_attr(&mut self, group: &str, name: &str, value: Attribute) -> Result<(), SdfError> {
        self.create_group(group)?;
        self.group_mut(group)?.attrs.insert(name.to_string(), value);
        Ok(())
    }

    /// Read an attribute.
    pub fn attr(&self, group: &str, name: &str) -> Result<&Attribute, SdfError> {
        self.group(group)?
            .attrs
            .get(name)
            .ok_or_else(|| SdfError::NotFound(format!("{group}@{name}")))
    }

    /// Walk the tree and return every dataset path, sorted.
    pub fn dataset_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(g: &Group, prefix: &str, out: &mut Vec<String>) {
            for (name, node) in &g.children {
                let p = format!("{prefix}/{name}");
                match node {
                    Node::Dataset(_) => out.push(p),
                    Node::Group(child) => walk(child, &p, out),
                }
            }
        }
        walk(&self.root, "", &mut out);
        out
    }

    /// Total payload bytes across all datasets.
    pub fn total_bytes(&self) -> u64 {
        fn walk(g: &Group) -> u64 {
            g.children
                .values()
                .map(|n| match n {
                    Node::Dataset(d) => d.data.nbytes() as u64,
                    Node::Group(child) => walk(child),
                })
                .sum()
        }
        walk(&self.root)
    }

    // ---- binary encoding ----

    const MAGIC: &'static [u8; 4] = b"SDF1";

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(Self::MAGIC);
        encode_group(&self.root, &mut out);
        out
    }

    /// Deserialize, validating magic and per-dataset checksums.
    pub fn from_bytes(bytes: &[u8]) -> Result<SdfFile, SdfError> {
        if bytes.len() < 4 || &bytes[..4] != Self::MAGIC {
            return Err(SdfError::Corrupt("bad magic".into()));
        }
        let mut cursor = 4usize;
        let root = decode_group(bytes, &mut cursor, 0)?;
        Ok(SdfFile { root })
    }

    /// Write to a file.
    pub fn save(&self, path: &Path) -> Result<(), SdfError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Read from a file.
    pub fn load(path: &Path) -> Result<SdfFile, SdfError> {
        let mut f = std::fs::File::open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        SdfFile::from_bytes(&buf)
    }
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_group(g: &Group, out: &mut Vec<u8>) {
    out.extend_from_slice(&(g.attrs.len() as u32).to_le_bytes());
    for (name, attr) in &g.attrs {
        put_str(name, out);
        match attr {
            Attribute::Str(s) => {
                out.push(0);
                put_str(s, out);
            }
            Attribute::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Attribute::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&(g.children.len() as u32).to_le_bytes());
    for (name, node) in &g.children {
        put_str(name, out);
        match node {
            Node::Group(child) => {
                out.push(0);
                encode_group(child, out);
            }
            Node::Dataset(d) => {
                out.push(1);
                out.push(d.data.type_tag());
                out.extend_from_slice(&(d.shape.len() as u32).to_le_bytes());
                for &dim in &d.shape {
                    out.extend_from_slice(&(dim as u64).to_le_bytes());
                }
                let payload = d.data.to_le_bytes();
                out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                out.extend_from_slice(&crc32(&payload).to_le_bytes());
                out.extend_from_slice(&payload);
            }
        }
    }
}

/// Deepest group nesting the decoder follows. Real files are a few
/// levels deep; the limit keeps a hostile file from recursing the
/// decoder off the end of the thread's stack.
const MAX_GROUP_DEPTH: usize = 64;

fn take<'a>(bytes: &'a [u8], cursor: &mut usize, n: usize) -> Result<&'a [u8], SdfError> {
    let end = cursor
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| SdfError::Corrupt("unexpected end of data".into()))?;
    let s = &bytes[*cursor..end];
    *cursor = end;
    Ok(s)
}

/// Refuse a file-declared element count that the bytes left after
/// `cursor` cannot hold at `min_bytes` per element, before anything is
/// sized from it.
fn declared_count(
    bytes: &[u8],
    cursor: usize,
    count: u32,
    min_bytes: usize,
    what: &str,
) -> Result<usize, SdfError> {
    let count = count as usize;
    let remaining = bytes.len().saturating_sub(cursor);
    if count > remaining / min_bytes {
        return Err(SdfError::Corrupt(format!(
            "{what} count {count} exceeds the {remaining} bytes left"
        )));
    }
    Ok(count)
}

fn get_u32(bytes: &[u8], cursor: &mut usize) -> Result<u32, SdfError> {
    Ok(u32::from_le_bytes(
        take(bytes, cursor, 4)?.try_into().unwrap(),
    ))
}

fn get_u64(bytes: &[u8], cursor: &mut usize) -> Result<u64, SdfError> {
    Ok(u64::from_le_bytes(
        take(bytes, cursor, 8)?.try_into().unwrap(),
    ))
}

fn get_str(bytes: &[u8], cursor: &mut usize) -> Result<String, SdfError> {
    let len = get_u32(bytes, cursor)? as usize;
    let s = take(bytes, cursor, len)?;
    String::from_utf8(s.to_vec()).map_err(|_| SdfError::Corrupt("invalid utf-8".into()))
}

fn decode_group(bytes: &[u8], cursor: &mut usize, depth: usize) -> Result<Group, SdfError> {
    if depth > MAX_GROUP_DEPTH {
        return Err(SdfError::Corrupt(format!(
            "groups nested deeper than {MAX_GROUP_DEPTH}"
        )));
    }
    let mut g = Group::default();
    // an attribute is at least a name length and a tag
    let n_attrs = get_u32(bytes, cursor)?;
    for _ in 0..declared_count(bytes, *cursor, n_attrs, 5, "attribute")? {
        let name = get_str(bytes, cursor)?;
        let tag = take(bytes, cursor, 1)?[0];
        let attr = match tag {
            0 => Attribute::Str(get_str(bytes, cursor)?),
            1 => Attribute::Int(i64::from_le_bytes(
                take(bytes, cursor, 8)?.try_into().unwrap(),
            )),
            2 => Attribute::Float(f64::from_le_bytes(
                take(bytes, cursor, 8)?.try_into().unwrap(),
            )),
            t => return Err(SdfError::Corrupt(format!("unknown attr tag {t}"))),
        };
        g.attrs.insert(name, attr);
    }
    // a child is at least a name length and a tag
    let n_children = get_u32(bytes, cursor)?;
    for _ in 0..declared_count(bytes, *cursor, n_children, 5, "child")? {
        let name = get_str(bytes, cursor)?;
        let tag = take(bytes, cursor, 1)?[0];
        let node = match tag {
            0 => Node::Group(decode_group(bytes, cursor, depth + 1)?),
            1 => {
                let type_tag = take(bytes, cursor, 1)?[0];
                let ndim = get_u32(bytes, cursor)?;
                let ndim = declared_count(bytes, *cursor, ndim, 8, "dimension")?;
                let mut shape = Vec::with_capacity(ndim);
                for _ in 0..ndim {
                    shape.push(get_u64(bytes, cursor)? as usize);
                }
                let payload_len = get_u64(bytes, cursor)? as usize;
                let stored_crc = get_u32(bytes, cursor)?;
                let payload = take(bytes, cursor, payload_len)?;
                if crc32(payload) != stored_crc {
                    return Err(SdfError::Corrupt(format!(
                        "checksum mismatch in dataset '{name}'"
                    )));
                }
                let data = DatasetData::from_le_bytes(type_tag, payload)?;
                Node::Dataset(Dataset::new(shape, data)?)
            }
            t => return Err(SdfError::Corrupt(format!("unknown node tag {t}"))),
        };
        g.children.insert(name, node);
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> SdfFile {
        let mut f = SdfFile::new();
        f.create_group("/exchange").unwrap();
        f.set_attr("/exchange", "facility", Attribute::Str("ALS 8.3.2".into()))
            .unwrap();
        f.set_attr("/exchange", "n_angles", Attribute::Int(1969))
            .unwrap();
        f.set_attr("/exchange", "pixel_um", Attribute::Float(0.65))
            .unwrap();
        f.write_dataset(
            "/exchange/data",
            Dataset::u16_3d(2, 2, 3, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]).unwrap(),
        )
        .unwrap();
        f.write_dataset("/process/angles", Dataset::f32_1d(vec![0.0, 0.5, 1.0]))
            .unwrap();
        f
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let f = sample_file();
        let bytes = f.to_bytes();
        let g = SdfFile::from_bytes(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn file_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("sdf_test_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.sdf");
        let f = sample_file();
        f.save(&path).unwrap();
        let g = SdfFile::load(&path).unwrap();
        assert_eq!(f, g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attrs_are_typed() {
        let f = sample_file();
        assert_eq!(
            f.attr("/exchange", "facility").unwrap(),
            &Attribute::Str("ALS 8.3.2".into())
        );
        assert_eq!(
            f.attr("/exchange", "n_angles").unwrap(),
            &Attribute::Int(1969)
        );
        assert!(f.attr("/exchange", "missing").is_err());
    }

    #[test]
    fn dataset_paths_are_sorted_and_complete() {
        let f = sample_file();
        assert_eq!(
            f.dataset_paths(),
            vec!["/exchange/data".to_string(), "/process/angles".to_string()]
        );
    }

    #[test]
    fn total_bytes_counts_payloads() {
        let f = sample_file();
        // 12 u16 = 24 bytes + 3 f32 = 12 bytes
        assert_eq!(f.total_bytes(), 36);
    }

    #[test]
    fn corruption_is_detected() {
        let f = sample_file();
        let mut bytes = f.to_bytes();
        // flip a byte near the end (inside a dataset payload)
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        match SdfFile::from_bytes(&bytes) {
            Err(SdfError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            SdfFile::from_bytes(b"NOPE"),
            Err(SdfError::Corrupt(_))
        ));
        assert!(matches!(
            SdfFile::from_bytes(b""),
            Err(SdfError::Corrupt(_))
        ));
    }

    /// `SDF1`, an attribute-free root holding one unnamed dataset whose
    /// header is `ndim` followed by `rest`.
    fn one_dataset(ndim: u32, rest: &[u8]) -> Vec<u8> {
        let mut b = b"SDF1".to_vec();
        b.extend_from_slice(&0u32.to_le_bytes()); // root attributes
        b.extend_from_slice(&1u32.to_le_bytes()); // root children
        b.extend_from_slice(&0u32.to_le_bytes()); // name ""
        b.extend_from_slice(&[1, 0]); // dataset, u16
        b.extend_from_slice(&ndim.to_le_bytes());
        b.extend_from_slice(rest);
        b
    }

    #[test]
    fn huge_declared_ndim_is_refused_before_allocating() {
        // 22 bytes asking for u32::MAX dimensions: 34 GB of shape vector
        let bytes = one_dataset(u32::MAX, &[]);
        assert_eq!(bytes.len(), 22);
        assert!(matches!(
            SdfFile::from_bytes(&bytes),
            Err(SdfError::Corrupt(_))
        ));
        // the same for attribute and child counts
        let mut counts = b"SDF1".to_vec();
        counts.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(SdfFile::from_bytes(&counts).is_err());
        let mut counts = b"SDF1".to_vec();
        counts.extend_from_slice(&0u32.to_le_bytes());
        counts.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(SdfFile::from_bytes(&counts).is_err());
    }

    #[test]
    fn deeply_nested_groups_are_refused_not_recursed() {
        // 20,000 nested empty groups, 260 KB
        let depth = 20_000;
        let mut bytes = b"SDF1".to_vec();
        for _ in 0..depth {
            bytes.extend_from_slice(&0u32.to_le_bytes()); // attributes
            bytes.extend_from_slice(&1u32.to_le_bytes()); // children
            bytes.extend_from_slice(&0u32.to_le_bytes()); // name ""
            bytes.push(0); // group
        }
        bytes.extend_from_slice(&[0; 8]); // innermost: no attributes, no children
        assert_eq!(bytes.len(), 260_012);
        assert!(matches!(
            SdfFile::from_bytes(&bytes),
            Err(SdfError::Corrupt(_))
        ));
        // nesting up to the limit still decodes
        let mut f = SdfFile::new();
        let path: String = (0..MAX_GROUP_DEPTH).map(|i| format!("/g{i}")).collect();
        f.create_group(&path).unwrap();
        assert_eq!(SdfFile::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn overflowing_payload_length_is_an_error() {
        let mut rest = Vec::new();
        rest.extend_from_slice(&1u64.to_le_bytes()); // shape [1]
        rest.extend_from_slice(&(u64::MAX - 2).to_le_bytes()); // payload_len
        rest.extend_from_slice(&0u32.to_le_bytes()); // crc
        rest.extend_from_slice(&[7, 0]);
        assert!(matches!(
            SdfFile::from_bytes(&one_dataset(1, &rest)),
            Err(SdfError::Corrupt(_))
        ));
        // a shape whose element count overflows usize
        let mut rest = Vec::new();
        rest.extend_from_slice(&u64::MAX.to_le_bytes());
        rest.extend_from_slice(&2u64.to_le_bytes());
        rest.extend_from_slice(&0u64.to_le_bytes()); // empty payload
        rest.extend_from_slice(&crc32(&[]).to_le_bytes());
        assert!(matches!(
            SdfFile::from_bytes(&one_dataset(2, &rest)),
            Err(SdfError::Corrupt(_))
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        assert!(Dataset::new(vec![2, 3], DatasetData::F32(vec![0.0; 5])).is_err());
        assert!(Dataset::new(vec![2, 3], DatasetData::F32(vec![0.0; 6])).is_ok());
    }

    #[test]
    fn dataset_cannot_shadow_group() {
        let mut f = SdfFile::new();
        f.create_group("/a/b").unwrap();
        assert!(matches!(
            f.write_dataset("/a", Dataset::f32_1d(vec![1.0])),
            Err(SdfError::WrongType(_))
        ));
        // and a group cannot be created through a dataset
        f.write_dataset("/x", Dataset::f32_1d(vec![1.0])).unwrap();
        assert!(f.create_group("/x/y").is_err());
    }

    #[test]
    fn overwrite_replaces_dataset() {
        let mut f = SdfFile::new();
        f.write_dataset("/d", Dataset::f32_1d(vec![1.0])).unwrap();
        f.write_dataset("/d", Dataset::f32_1d(vec![2.0, 3.0]))
            .unwrap();
        assert_eq!(f.dataset("/d").unwrap().shape, vec![2]);
    }

    #[test]
    fn empty_container_roundtrips() {
        let f = SdfFile::new();
        assert_eq!(SdfFile::from_bytes(&f.to_bytes()).unwrap(), f);
        assert!(f.dataset_paths().is_empty());
        assert_eq!(f.total_bytes(), 0);
    }
}
