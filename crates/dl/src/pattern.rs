//! Traffic patterns and topology shapes for a simulation run.
//!
//! The paper's experiments all use the PS-star pattern on a single
//! non-blocking switch; this module names those defaults and the
//! alternatives the fabric experiments sweep over:
//!
//! * [`TrafficPattern`] — how one job's iteration traffic is laid out on
//!   the network (PS star, ring all-reduce, hierarchical rack-local
//!   reduction);
//! * [`TopologySpec`] — the link graph the run is simulated on (single
//!   switch, or a leaf–spine fabric with configurable oversubscription).
//!
//! Both parse from the CLI-flag syntax used by `repro --pattern` /
//! `--topology` and carry serde derives for scenario files.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use tl_net::{Bandwidth, Topology, TopologyBuilder};

/// How a job's per-iteration traffic is laid out on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TrafficPattern {
    /// Parameter-server star (the paper's pattern, and the default): every
    /// worker exchanges model/gradient slices with the PS shard hosts.
    #[default]
    PsStar,
    /// Ring all-reduce: no PS traffic; the `k` workers pass `1/k`-sized
    /// slices around a ring in `2(k-1)` barrier-synchronized steps
    /// (reduce-scatter then all-gather).
    Ring,
    /// Hierarchical PS: workers reduce rack-locally to a leader (the
    /// lowest-indexed worker in the rack), only leaders exchange full
    /// updates with the PS across the spine, and models fan back out
    /// leader → members. On a single-switch topology this degenerates to
    /// one group.
    Hierarchical,
}

impl TrafficPattern {
    /// All patterns, in sweep order.
    pub fn all() -> [TrafficPattern; 3] {
        [
            TrafficPattern::PsStar,
            TrafficPattern::Ring,
            TrafficPattern::Hierarchical,
        ]
    }

    /// The CLI / JSON name of this pattern.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::PsStar => "ps-star",
            TrafficPattern::Ring => "ring",
            TrafficPattern::Hierarchical => "hierarchical",
        }
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TrafficPattern {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ps-star" | "star" => Ok(TrafficPattern::PsStar),
            "ring" => Ok(TrafficPattern::Ring),
            "hierarchical" | "hier" => Ok(TrafficPattern::Hierarchical),
            other => Err(format!(
                "unknown traffic pattern '{other}' (expected ps-star, ring, or hierarchical)"
            )),
        }
    }
}

/// The link graph a simulation runs over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum TopologySpec {
    /// One non-blocking switch (the paper's testbed, and the default):
    /// flows contend only at host NICs.
    #[default]
    SingleSwitch,
    /// A two-tier leaf–spine fabric: `racks × hosts_per_rack` hosts, each
    /// rack's uplink/downlink carrying `hosts_per_rack × link / oversub`.
    /// `oversub = 1.0` is a non-blocking fabric (identical to the single
    /// switch); larger values make cross-rack bandwidth scarce.
    LeafSpine {
        /// Number of racks.
        racks: u32,
        /// Hosts per rack.
        hosts_per_rack: u32,
        /// Oversubscription ratio (≥ 1.0).
        oversub: f64,
    },
}

impl TopologySpec {
    /// The most hosts a leaf–spine spec may have: one million, 100× the
    /// 10,000-host XL cell. Every host costs per-host state in both network
    /// engines and the CPU engine, so a larger fabric would fail on
    /// allocation rather than run; [`FromStr`] rejects it instead.
    pub const MAX_HOSTS: u32 = 1_000_000;

    /// Build the topology for a cluster needing at least `min_hosts`
    /// hosts with `link`-speed NICs and an optional legacy aggregate core
    /// cap. A leaf–spine spec must be large enough for the placement;
    /// extra hosts simply idle.
    pub fn build(&self, min_hosts: usize, link: Bandwidth, core: Option<Bandwidth>) -> Topology {
        let mut b = match *self {
            TopologySpec::SingleSwitch => TopologyBuilder::single_switch(min_hosts),
            TopologySpec::LeafSpine {
                racks,
                hosts_per_rack,
                oversub,
            } => {
                assert!(
                    racks as usize * hosts_per_rack as usize >= min_hosts,
                    "leaf-spine {racks}x{hosts_per_rack} has fewer hosts than the \
                     placement needs ({min_hosts})"
                );
                TopologyBuilder::leaf_spine(racks, hosts_per_rack, oversub)
            }
        };
        b = b.link(link);
        if let Some(core) = core {
            b = b.core_capacity(core);
        }
        b.build()
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::SingleSwitch => f.write_str("single-switch"),
            TopologySpec::LeafSpine {
                racks,
                hosts_per_rack,
                oversub,
            } => write!(f, "leaf-spine:{racks}x{hosts_per_rack}@{oversub}"),
        }
    }
}

impl FromStr for TopologySpec {
    type Err = String;

    /// Parses `single-switch` or `leaf-spine:<racks>x<hosts>@<oversub>`
    /// (e.g. `leaf-spine:3x4@2`; `@<oversub>` defaults to 1).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "single-switch" || s == "flat" {
            return Ok(TopologySpec::SingleSwitch);
        }
        let Some(shape) = s.strip_prefix("leaf-spine:") else {
            return Err(format!(
                "unknown topology '{s}' (expected single-switch or leaf-spine:<racks>x<hosts>[@<oversub>])"
            ));
        };
        let (grid, oversub) = match shape.split_once('@') {
            Some((g, o)) => (
                g,
                o.parse::<f64>()
                    .map_err(|e| format!("bad oversubscription '{o}': {e}"))?,
            ),
            None => (shape, 1.0),
        };
        let (racks, hosts) = grid
            .split_once('x')
            .ok_or_else(|| format!("bad leaf-spine shape '{grid}' (expected <racks>x<hosts>)"))?;
        let racks = racks
            .parse::<u32>()
            .map_err(|e| format!("bad rack count '{racks}': {e}"))?;
        let hosts_per_rack = hosts
            .parse::<u32>()
            .map_err(|e| format!("bad hosts-per-rack '{hosts}': {e}"))?;
        if racks == 0 || hosts_per_rack == 0 {
            return Err(format!("leaf-spine shape '{grid}' must be nonzero"));
        }
        if u64::from(racks) * u64::from(hosts_per_rack) > u64::from(Self::MAX_HOSTS) {
            return Err(format!(
                "leaf-spine shape '{grid}' has more than {} hosts",
                Self::MAX_HOSTS
            ));
        }
        // `is_finite` rejects NaN as well as infinity.
        if !oversub.is_finite() || oversub < 1.0 {
            return Err(format!("oversubscription {oversub} must be finite and >= 1.0"));
        }
        Ok(TopologySpec::LeafSpine {
            racks,
            hosts_per_rack,
            oversub,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_roundtrips_through_names() {
        for p in TrafficPattern::all() {
            assert_eq!(p.name().parse::<TrafficPattern>().unwrap(), p);
        }
        assert!("gossip".parse::<TrafficPattern>().is_err());
    }

    #[test]
    fn topology_spec_parses_cli_syntax() {
        assert_eq!(
            "single-switch".parse::<TopologySpec>().unwrap(),
            TopologySpec::SingleSwitch
        );
        assert_eq!(
            "leaf-spine:3x4@2".parse::<TopologySpec>().unwrap(),
            TopologySpec::LeafSpine {
                racks: 3,
                hosts_per_rack: 4,
                oversub: 2.0
            }
        );
        // Oversubscription defaults to a non-blocking fabric.
        assert_eq!(
            "leaf-spine:2x8".parse::<TopologySpec>().unwrap(),
            TopologySpec::LeafSpine {
                racks: 2,
                hosts_per_rack: 8,
                oversub: 1.0
            }
        );
        assert!("leaf-spine:3x4@0.5".parse::<TopologySpec>().is_err());
        assert!("mesh".parse::<TopologySpec>().is_err());
    }

    #[test]
    fn topology_spec_rejects_unbuildable_shapes() {
        // Each parses as numbers but cannot be built: an infinite
        // oversubscription, host counts past the u32 `HostId` range, and
        // one that fits a u32 but not the host cap.
        for bad in [
            "leaf-spine:3x7@inf",
            "leaf-spine:3x7@NaN",
            "leaf-spine:100000x100000",
            "leaf-spine:65536x65536@2",
            "leaf-spine:65535x65537",
            "leaf-spine:1000x1001",
        ] {
            assert!(bad.parse::<TopologySpec>().is_err(), "{bad} parsed");
        }
        // The cap itself is accepted.
        assert_eq!(
            "leaf-spine:1000x1000".parse::<TopologySpec>(),
            Ok(TopologySpec::LeafSpine {
                racks: 1000,
                hosts_per_rack: 1000,
                oversub: 1.0,
            })
        );
    }

    #[test]
    fn build_respects_shape_and_minimum() {
        let t = TopologySpec::SingleSwitch.build(5, Bandwidth::from_gbps(10.0), None);
        assert_eq!(t.num_hosts(), 5);
        assert_eq!(t.num_fabric_links(), 0);
        let spec = TopologySpec::LeafSpine {
            racks: 3,
            hosts_per_rack: 4,
            oversub: 2.0,
        };
        let t = spec.build(10, Bandwidth::from_gbps(10.0), None);
        assert_eq!(t.num_hosts(), 12);
        assert_eq!(t.num_fabric_links(), 6);
        assert_eq!(format!("{spec}"), "leaf-spine:3x4@2");
    }

    #[test]
    fn build_threads_the_legacy_core_cap() {
        let core = Bandwidth::from_gbps(40.0);
        let t = TopologySpec::SingleSwitch.build(8, Bandwidth::from_gbps(10.0), Some(core));
        assert_eq!(t.core_capacity(), Some(core));
    }

    #[test]
    #[should_panic(expected = "fewer hosts than the placement")]
    fn build_rejects_undersized_fabric() {
        let spec = TopologySpec::LeafSpine {
            racks: 2,
            hosts_per_rack: 2,
            oversub: 1.0,
        };
        let _ = spec.build(5, Bandwidth::from_gbps(10.0), None);
    }
}
