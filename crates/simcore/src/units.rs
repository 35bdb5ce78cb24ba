//! Byte sizes and data rates.
//!
//! Scan sizes in the paper range from "a few MB" (cropped test scans) to
//! over 30 GB (full-resolution scans), and links range from the beamline's
//! 10 Gbps NIC to ESnet backbone capacity. Keeping both as dedicated types
//! prevents the classic bits/bytes and MB/MiB mix-ups in the cost models.

use crate::clock::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A size in bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

impl ByteSize {
    pub const ZERO: ByteSize = ByteSize(0);

    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    pub const fn from_mib(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }

    pub const fn from_gib(g: u64) -> Self {
        ByteSize(g * 1024 * 1024 * 1024)
    }

    pub const fn from_tib(t: u64) -> Self {
        ByteSize(t * 1024 * 1024 * 1024 * 1024)
    }

    /// From fractional GiB (workload models sample sizes as floats).
    pub fn from_gib_f64(g: f64) -> Self {
        ByteSize((g.max(0.0) * (1u64 << 30) as f64) as u64)
    }

    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Mul<f64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: f64) -> ByteSize {
        ByteSize((self.0 as f64 * rhs.max(0.0)) as u64)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: f64 = 1024.0;
        let b = self.0 as f64;
        if b < KIB {
            write!(f, "{}B", self.0)
        } else if b < KIB * KIB {
            write!(f, "{:.1}KiB", b / KIB)
        } else if b < KIB * KIB * KIB {
            write!(f, "{:.1}MiB", b / (KIB * KIB))
        } else if b < KIB * KIB * KIB * KIB {
            write!(f, "{:.2}GiB", b / (KIB * KIB * KIB))
        } else {
            write!(f, "{:.2}TiB", b / (KIB * KIB * KIB * KIB))
        }
    }
}

/// A data rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct DataRate(f64);

impl DataRate {
    pub const ZERO: DataRate = DataRate(0.0);

    /// Bytes per second.
    pub fn from_bytes_per_sec(b: f64) -> Self {
        DataRate(b.max(0.0))
    }

    /// Megabytes (decimal, as network gear reports) per second.
    pub fn from_mbps_bytes(mb: f64) -> Self {
        DataRate((mb * 1e6).max(0.0))
    }

    /// Gigabits per second — the unit NICs and WAN links are quoted in
    /// (e.g. the beamline VM's 10 Gbps VMXNET3 NIC).
    pub fn from_gbit_per_sec(gbit: f64) -> Self {
        DataRate((gbit * 1e9 / 8.0).max(0.0))
    }

    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    pub fn as_gbit_per_sec(self) -> f64 {
        self.0 * 8.0 / 1e9
    }

    /// Time to move `size` at this rate. Returns `None` for a zero rate
    /// (a stalled link never completes — callers must handle it).
    pub fn transfer_time(self, size: ByteSize) -> Option<SimDuration> {
        if self.0 <= 0.0 {
            return None;
        }
        Some(SimDuration::from_secs_f64(size.as_bytes() as f64 / self.0))
    }

    /// Bytes moved in `dt` at this rate.
    pub fn bytes_in(self, dt: SimDuration) -> ByteSize {
        ByteSize::from_bytes((self.0 * dt.as_secs_f64()) as u64)
    }

    /// Split this rate evenly across `n` concurrent flows (the fair-share
    /// model `netsim` uses for contended links).
    pub fn shared(self, n: usize) -> DataRate {
        if n <= 1 {
            self
        } else {
            DataRate(self.0 / n as f64)
        }
    }

    pub fn min(self, other: DataRate) -> DataRate {
        DataRate(self.0.min(other.0))
    }
}

impl Mul<f64> for DataRate {
    type Output = DataRate;
    fn mul(self, rhs: f64) -> DataRate {
        DataRate((self.0 * rhs).max(0.0))
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Gbps", self.as_gbit_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(ByteSize::from_kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::from_mib(1).as_bytes(), 1 << 20);
        assert_eq!(ByteSize::from_gib(1).as_bytes(), 1 << 30);
        assert_eq!(ByteSize::from_tib(1).as_bytes(), 1u64 << 40);
        assert!((ByteSize::from_gib(30).as_gib_f64() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", ByteSize::from_bytes(12)), "12B");
        assert_eq!(format!("{}", ByteSize::from_mib(25)), "25.0MiB");
        assert_eq!(format!("{}", ByteSize::from_gib(30)), "30.00GiB");
        assert_eq!(format!("{}", ByteSize::from_tib(5)), "5.00TiB");
    }

    #[test]
    fn gbit_rate_roundtrips() {
        let r = DataRate::from_gbit_per_sec(10.0);
        assert!((r.as_gbit_per_sec() - 10.0).abs() < 1e-9);
        // 10 Gbps == 1.25 GB/s
        assert!((r.as_bytes_per_sec() - 1.25e9).abs() < 1.0);
    }

    #[test]
    fn transfer_time_matches_hand_calc() {
        // 20 GB over 10 Gbps ~= 17.18 s (GiB vs decimal gigabit)
        let r = DataRate::from_gbit_per_sec(10.0);
        let t = r.transfer_time(ByteSize::from_gib(20)).unwrap();
        assert!((t.as_secs_f64() - 17.18).abs() < 0.01, "{t}");
    }

    #[test]
    fn zero_rate_never_completes() {
        assert!(DataRate::ZERO
            .transfer_time(ByteSize::from_mib(1))
            .is_none());
    }

    #[test]
    fn fair_share_divides_rate() {
        let r = DataRate::from_gbit_per_sec(8.0).shared(4);
        assert!((r.as_gbit_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_in_inverts_transfer_time() {
        let r = DataRate::from_mbps_bytes(250.0);
        let size = ByteSize::from_mib(100);
        let t = r.transfer_time(size).unwrap();
        let moved = r.bytes_in(t);
        let err = moved.as_bytes().abs_diff(size.as_bytes());
        assert!(err <= 512, "moved {moved} vs {size}");
    }
}
