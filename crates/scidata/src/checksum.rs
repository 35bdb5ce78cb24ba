//! CRC-32 (IEEE 802.3 polynomial) with a streaming interface.
//!
//! The paper enables "checksum verification to ensure data integrity when
//! moving files and folders between locations"; the transfer layer uses
//! these digests the way Globus uses MD5.

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `t[0]` is the bytewise table, and `t[k][i]` is
/// the CRC of byte `i` followed by `k` zero bytes, so a 16-byte block
/// folds into the state with one lookup per byte and no dependency
/// between the lookups.
fn tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes: 16 at a time (byte `j` of a block, with the
    /// state folded into its first four, looked up in `t[15 − j]`), then
    /// the tail bytewise.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let mut x: [u8; 16] = block.try_into().expect("a 16-byte block");
            for (b, s) in x.iter_mut().zip(c.to_le_bytes()) {
                *b ^= s;
            }
            c = x
                .iter()
                .zip(t.iter().rev())
                .fold(0, |acc, (&b, tk)| acc ^ tk[b as usize]);
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Finish and return the digest.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // standard CRC-32 check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    /// The CRC bit by bit, with no table.
    fn bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn blocks_and_tails_match_the_bitwise_crc() {
        let data: Vec<u8> = (0..1usize << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // every tail length around one to four blocks, at every alignment
        for offset in 0..=3 {
            for len in 0..=67 {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    bitwise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
        // 1 MiB fed in odd-sized pieces, so blocks straddle the updates
        let mut c = Crc32::new();
        let mut rest = &data[..];
        for &piece in [1usize, 3, 15, 17, 31, 33, 255, 4097].iter().cycle() {
            let (head, tail) = rest.split_at(piece.min(rest.len()));
            c.update(head);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(c.finalize(), bitwise(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let base = crc32(&data);
        for i in (0..data.len()).step_by(17) {
            let mut tampered = data.clone();
            tampered[i] ^= 0x01;
            assert_ne!(crc32(&tampered), base, "flip at byte {i} undetected");
        }
    }
}
