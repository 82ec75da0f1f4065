//! Core network value types: identifiers, bandwidth, priority bands.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a host (index into the topology's host table).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Identifier of a shared fabric link (index into the topology's
/// fabric-link table). Host NICs are addressed by [`HostId`] plus a
/// direction; `LinkId` names only the fabric tier between them — rack
/// uplinks and downlinks in a leaf–spine build. A non-blocking fabric has
/// no links to name.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Identifier of a flow within a [`crate::fluid::FluidNet`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A strict-priority band. Band 0 is the *highest* priority, matching the
/// numbering of Linux `tc` prio/htb classes; larger numbers yield.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Band(pub u8);

impl Band {
    /// The highest priority band.
    pub const HIGHEST: Band = Band(0);
    /// The number of distinct bands Linux `tc` realistically offers; the
    /// paper uses "up to six distinct priority bands".
    pub const TC_BAND_LIMIT: u8 = 6;
    /// The hard ceiling on band counts the tc hierarchy accepts — the
    /// single source of truth for every band-count validation (policies,
    /// [`TcConfig`](crate::tc::TcConfig), ablation sweeps). `TC_BAND_LIMIT`
    /// is the paper's operating point; this is the qdisc budget.
    pub const MAX_TC_BANDS: u8 = 8;

    /// True if `count` bands can be realised as a tc hierarchy.
    pub const fn valid_band_count(count: u8) -> bool {
        count >= 1 && count <= Band::MAX_TC_BANDS
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "band{}", self.0)
    }
}

/// Egress scheduling discipline of the chunk-level
/// [`PacketNet`](crate::pnet::PacketNet) (ingress is always FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressDiscipline {
    /// Round-robin across ready flows (models fair TCP sharing through
    /// pfifo_fast).
    FifoFair,
    /// Strict priority by band, round-robin within a band (htb/prio).
    Priority,
}

/// Link bandwidth in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From bytes per second.
    pub fn from_bytes_per_sec(v: f64) -> Self {
        assert!(v > 0.0 && v.is_finite(), "invalid bandwidth {v}");
        Bandwidth(v)
    }

    /// From gigabits per second (the paper's links are 10 Gbps).
    pub fn from_gbps(g: f64) -> Self {
        Self::from_bytes_per_sec(g * 1e9 / 8.0)
    }

    /// From megabits per second.
    pub fn from_mbps(m: f64) -> Self {
        Self::from_bytes_per_sec(m * 1e6 / 8.0)
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Gigabits per second.
    pub fn gbps(self) -> f64 {
        self.0 * 8.0 / 1e9
    }

    /// Time to transfer `bytes` at this full bandwidth, in seconds.
    pub fn transfer_secs(self, bytes: f64) -> f64 {
        bytes / self.0
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gbps", self.gbps())
    }
}

/// Convenience constructors for data sizes in bytes.
pub mod size {
    /// Kilobytes (10^3).
    pub const fn kb(v: u64) -> u64 {
        v * 1_000
    }
    /// Megabytes (10^6).
    pub const fn mb(v: u64) -> u64 {
        v * 1_000_000
    }
    /// Gigabytes (10^9).
    pub const fn gb(v: u64) -> u64 {
        v * 1_000_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth::from_gbps(10.0);
        assert!((b.bytes_per_sec() - 1.25e9).abs() < 1.0);
        assert!((b.gbps() - 10.0).abs() < 1e-9);
        let m = Bandwidth::from_mbps(100.0);
        assert!((m.bytes_per_sec() - 12.5e6).abs() < 1.0);
    }

    #[test]
    fn transfer_time() {
        let b = Bandwidth::from_gbps(10.0);
        // 1.25 GB at 1.25 GB/s = 1 second.
        assert!((b.transfer_secs(1.25e9) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::from_bytes_per_sec(0.0);
    }

    #[test]
    fn band_ordering_matches_tc() {
        assert!(Band::HIGHEST < Band(1));
        assert_eq!(Band::TC_BAND_LIMIT, 6);
        const { assert!(Band::TC_BAND_LIMIT <= Band::MAX_TC_BANDS) }
        assert!(Band::valid_band_count(1) && Band::valid_band_count(Band::MAX_TC_BANDS));
        assert!(!Band::valid_band_count(0) && !Band::valid_band_count(Band::MAX_TC_BANDS + 1));
    }

    #[test]
    fn size_helpers() {
        assert_eq!(size::kb(2), 2_000);
        assert_eq!(size::mb(3), 3_000_000);
        assert_eq!(size::gb(1), 1_000_000_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", HostId(3)), "h3");
        assert_eq!(format!("{}", LinkId(4)), "l4");
        assert_eq!(format!("{}", FlowId(9)), "f9");
        assert_eq!(format!("{}", Band(2)), "band2");
        assert_eq!(format!("{}", Bandwidth::from_gbps(10.0)), "10.000Gbps");
    }
}
