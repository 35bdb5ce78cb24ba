//! Minimal little-endian TIFF writer/reader for reconstructed slices.
//!
//! The file-based flows publish "a stack of TIFF images" per scan; this
//! module writes spec-conforming single-strip grayscale TIFFs (32-bit
//! float, sample format IEEE FP) plus a reader that round-trips the files
//! it writes — enough for ImageJ-class consumption of the slice stacks.

use als_tomo::Image;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Errors from TIFF I/O.
#[derive(Debug)]
pub enum TiffError {
    Io(std::io::Error),
    Malformed(String),
    Unsupported(String),
}

impl std::fmt::Display for TiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TiffError::Io(e) => write!(f, "io: {e}"),
            TiffError::Malformed(m) => write!(f, "malformed tiff: {m}"),
            TiffError::Unsupported(m) => write!(f, "unsupported tiff feature: {m}"),
        }
    }
}

impl std::error::Error for TiffError {}

impl From<std::io::Error> for TiffError {
    fn from(e: std::io::Error) -> Self {
        TiffError::Io(e)
    }
}

// TIFF tag ids
const TAG_WIDTH: u16 = 256;
const TAG_HEIGHT: u16 = 257;
const TAG_BITS_PER_SAMPLE: u16 = 258;
const TAG_COMPRESSION: u16 = 259;
const TAG_PHOTOMETRIC: u16 = 262;
const TAG_STRIP_OFFSETS: u16 = 273;
const TAG_ROWS_PER_STRIP: u16 = 278;
const TAG_STRIP_BYTE_COUNTS: u16 = 279;
const TAG_SAMPLE_FORMAT: u16 = 339;

const TYPE_SHORT: u16 = 3;
const TYPE_LONG: u16 = 4;

struct IfdEntry {
    tag: u16,
    typ: u16,
    count: u32,
    value: u32,
}

/// Encode an image as a 32-bit float grayscale TIFF.
pub fn encode_f32(img: &Image) -> Vec<u8> {
    let pixel_bytes: Vec<u8> = img.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let n_entries: u16 = 9;
    // layout: 8-byte header | pixel data | IFD
    let data_offset = 8u32;
    let ifd_offset = data_offset + pixel_bytes.len() as u32;

    let entries = [
        IfdEntry {
            tag: TAG_WIDTH,
            typ: TYPE_LONG,
            count: 1,
            value: img.width as u32,
        },
        IfdEntry {
            tag: TAG_HEIGHT,
            typ: TYPE_LONG,
            count: 1,
            value: img.height as u32,
        },
        IfdEntry {
            tag: TAG_BITS_PER_SAMPLE,
            typ: TYPE_SHORT,
            count: 1,
            value: 32,
        },
        IfdEntry {
            tag: TAG_COMPRESSION,
            typ: TYPE_SHORT,
            count: 1,
            value: 1,
        }, // none
        IfdEntry {
            tag: TAG_PHOTOMETRIC,
            typ: TYPE_SHORT,
            count: 1,
            value: 1,
        }, // min-is-black
        IfdEntry {
            tag: TAG_STRIP_OFFSETS,
            typ: TYPE_LONG,
            count: 1,
            value: data_offset,
        },
        IfdEntry {
            tag: TAG_ROWS_PER_STRIP,
            typ: TYPE_LONG,
            count: 1,
            value: img.height as u32,
        },
        IfdEntry {
            tag: TAG_STRIP_BYTE_COUNTS,
            typ: TYPE_LONG,
            count: 1,
            value: pixel_bytes.len() as u32,
        },
        IfdEntry {
            tag: TAG_SAMPLE_FORMAT,
            typ: TYPE_SHORT,
            count: 1,
            value: 3,
        }, // IEEE float
    ];

    let mut out = Vec::with_capacity(8 + pixel_bytes.len() + 2 + 12 * n_entries as usize + 4);
    // header: II, magic 42, offset of first IFD
    out.extend_from_slice(b"II");
    out.extend_from_slice(&42u16.to_le_bytes());
    out.extend_from_slice(&ifd_offset.to_le_bytes());
    out.extend_from_slice(&pixel_bytes);
    // IFD
    out.extend_from_slice(&n_entries.to_le_bytes());
    for e in &entries {
        out.extend_from_slice(&e.tag.to_le_bytes());
        out.extend_from_slice(&e.typ.to_le_bytes());
        out.extend_from_slice(&e.count.to_le_bytes());
        // SHORT values are left-justified in the 4-byte field
        if e.typ == TYPE_SHORT {
            out.extend_from_slice(&(e.value as u16).to_le_bytes());
            out.extend_from_slice(&0u16.to_le_bytes());
        } else {
            out.extend_from_slice(&e.value.to_le_bytes());
        }
    }
    out.extend_from_slice(&0u32.to_le_bytes()); // no next IFD
    out
}

/// Decode a TIFF produced by [`encode_f32`] (single strip, f32, LE).
pub fn decode_f32(bytes: &[u8]) -> Result<Image, TiffError> {
    if bytes.len() < 8 || &bytes[0..2] != b"II" {
        return Err(TiffError::Malformed("not a little-endian TIFF".into()));
    }
    let magic = u16::from_le_bytes([bytes[2], bytes[3]]);
    if magic != 42 {
        return Err(TiffError::Malformed(format!("bad magic {magic}")));
    }
    let ifd = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    if ifd + 2 > bytes.len() {
        return Err(TiffError::Malformed("IFD offset out of range".into()));
    }
    let n = u16::from_le_bytes([bytes[ifd], bytes[ifd + 1]]) as usize;
    let mut width = 0u32;
    let mut height = 0u32;
    let mut offset = 0u32;
    let mut count = 0u32;
    let mut bits = 0u32;
    let mut fmt = 1u32;
    for i in 0..n {
        let at = ifd + 2 + i * 12;
        if at + 12 > bytes.len() {
            return Err(TiffError::Malformed("truncated IFD".into()));
        }
        let tag = u16::from_le_bytes([bytes[at], bytes[at + 1]]);
        let typ = u16::from_le_bytes([bytes[at + 2], bytes[at + 3]]);
        let value = if typ == TYPE_SHORT {
            u16::from_le_bytes([bytes[at + 8], bytes[at + 9]]) as u32
        } else {
            u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap())
        };
        match tag {
            TAG_WIDTH => width = value,
            TAG_HEIGHT => height = value,
            TAG_STRIP_OFFSETS => offset = value,
            TAG_STRIP_BYTE_COUNTS => count = value,
            TAG_BITS_PER_SAMPLE => bits = value,
            TAG_SAMPLE_FORMAT => fmt = value,
            TAG_COMPRESSION if value != 1 => {
                return Err(TiffError::Unsupported("compressed tiff".into()))
            }
            _ => {}
        }
    }
    if bits != 32 || fmt != 3 {
        return Err(TiffError::Unsupported(format!(
            "only 32-bit float supported (bits={bits}, fmt={fmt})"
        )));
    }
    // the dimensions come from the file: checked, so a 65536 × 65536
    // header cannot wrap to a small (or zero) pixel count
    let expected = (width as usize)
        .checked_mul(height as usize)
        .and_then(|px| px.checked_mul(4))
        .ok_or_else(|| TiffError::Malformed("image size overflows".into()))?;
    if count as usize != expected {
        return Err(TiffError::Malformed("strip byte count mismatch".into()));
    }
    let start = offset as usize;
    let end = start
        .checked_add(expected)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| TiffError::Malformed("pixel data out of range".into()))?;
    let data: Vec<f32> = bytes[start..end]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    Ok(Image::from_vec(width as usize, height as usize, data))
}

/// Write a stack of slices into `dir` as `slice_0000.tif`, ... Returns
/// the written paths.
pub fn write_stack(dir: &Path, slices: &[Image]) -> Result<Vec<PathBuf>, TiffError> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(slices.len());
    for (i, img) in slices.iter().enumerate() {
        let p = dir.join(format!("slice_{i:04}.tif"));
        let mut f = std::fs::File::create(&p)?;
        f.write_all(&encode_f32(img))?;
        paths.push(p);
    }
    Ok(paths)
}

/// Read back a stack written by [`write_stack`], in slice order.
pub fn read_stack(dir: &Path) -> Result<Vec<Image>, TiffError> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tif"))
        .collect();
    names.sort();
    let mut out = Vec::with_capacity(names.len());
    for p in names {
        let mut buf = Vec::new();
        std::fs::File::open(&p)?.read_to_end(&mut buf)?;
        out.push(decode_f32(&buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> Image {
        let mut img = Image::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, (x * 10 + y) as f32 * 0.25 - 3.0);
            }
        }
        img
    }

    #[test]
    fn encode_decode_roundtrip() {
        let img = gradient(17, 9);
        let bytes = encode_f32(&img);
        let back = decode_f32(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn header_is_valid_tiff() {
        let bytes = encode_f32(&gradient(4, 4));
        assert_eq!(&bytes[0..2], b"II");
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 42);
    }

    #[test]
    fn negative_and_special_values_survive() {
        let mut img = Image::zeros(3, 1);
        img.data = vec![-1.5e-20, 0.0, 3.4e20];
        let back = decode_f32(&encode_f32(&img)).unwrap();
        assert_eq!(back.data, img.data);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode_f32(b"").is_err());
        assert!(decode_f32(b"MM\x00\x2a").is_err());
        assert!(decode_f32(&[0u8; 64]).is_err());
    }

    #[test]
    fn huge_declared_dimensions_are_an_error_not_a_panic() {
        // 86 bytes: header + a six-entry IFD declaring 65536 × 65536 f32
        // pixels in a strip of 0 bytes; 65536² · 4 wraps a u32 to 0
        let mut bytes = b"II".to_vec();
        bytes.extend_from_slice(&42u16.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&6u16.to_le_bytes());
        for (tag, typ, value) in [
            (TAG_WIDTH, TYPE_LONG, 65536u32),
            (TAG_HEIGHT, TYPE_LONG, 65536),
            (TAG_BITS_PER_SAMPLE, TYPE_SHORT, 32),
            (TAG_STRIP_OFFSETS, TYPE_LONG, 8),
            (TAG_STRIP_BYTE_COUNTS, TYPE_LONG, 0),
            (TAG_SAMPLE_FORMAT, TYPE_SHORT, 3),
        ] {
            bytes.extend_from_slice(&tag.to_le_bytes());
            bytes.extend_from_slice(&typ.to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(bytes.len(), 86);
        assert!(matches!(decode_f32(&bytes), Err(TiffError::Malformed(_))));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = encode_f32(&gradient(8, 8));
        assert!(decode_f32(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn stack_roundtrip_preserves_order() {
        let dir = std::env::temp_dir().join("tiff_stack_test");
        std::fs::remove_dir_all(&dir).ok();
        let slices: Vec<Image> = (0..12)
            .map(|i| {
                let mut img = gradient(6, 6);
                img.set(0, 0, i as f32);
                img
            })
            .collect();
        let paths = write_stack(&dir, &slices).unwrap();
        assert_eq!(paths.len(), 12);
        assert!(paths[3]
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("0003"));
        let back = read_stack(&dir).unwrap();
        assert_eq!(back, slices);
        std::fs::remove_dir_all(&dir).ok();
    }
}
