//! Chunk-level single-link scheduling simulator.
//!
//! While the fluid model captures rate sharing exactly, it abstracts away
//! serialization order. This engine simulates one egress link (the host with
//! colocated PSes — the paper's Figure 4a) at the granularity of fixed-size
//! chunks, with the qdisc disciplines the paper discusses:
//!
//! * [`Qdisc::PfifoFast`] — the Linux default. Multiple bulk TCP streams
//!   through one FIFO share the link in an interleaved, approximately fair
//!   way; we model that as chunk-level round-robin over active transfers
//!   (Figure 4b).
//! * [`Qdisc::Prio`] — strict priority by band, round-robin within a band;
//!   the behaviour of the paper's htb configuration (Figure 4c), and with
//!   rotations, TLs-RR (Figure 4d).
//! * [`Qdisc::Drr`] — deficit round-robin across tags (per-*job* fair
//!   queueing), an ablation baseline separating "per-job grouping" from
//!   "strict priority".
//!
//! Outputs are per-transfer completion times plus a chunk-departure timeline
//! suitable for rendering Figure-4-style diagrams.

use crate::types::{Band, Bandwidth};
use simcore::{SimDuration, SimTime};

/// Queueing discipline at the simulated egress link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Qdisc {
    /// Default FIFO: fair chunk interleaving across all active transfers.
    PfifoFast,
    /// Strict priority by band; fair interleaving within a band.
    Prio,
    /// Deficit round-robin across tags with the given quantum (bytes).
    Drr {
        /// Bytes a tag may send per round-robin turn.
        quantum_bytes: u64,
    },
}

/// One transfer to be scheduled on the link.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    /// Grouping tag (the owning job).
    pub tag: u64,
    /// Receiver identifier (opaque to the engine; e.g. worker index).
    pub dst: u32,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Initial priority band.
    pub band: Band,
    /// Arrival time at the qdisc.
    pub arrival: SimTime,
}

/// A scheduled band change (TLs-RR rotation): at `at`, each `(tag, band)`
/// pair reassigns every transfer of `tag` to `band`.
#[derive(Debug, Clone)]
pub struct Rotation {
    /// When the rotation takes effect (applied at chunk granularity).
    pub at: SimTime,
    /// New band per tag.
    pub assignment: Vec<(u64, Band)>,
}

/// Completion record for one transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// Grouping tag from the input.
    pub tag: u64,
    /// Receiver from the input.
    pub dst: u32,
    /// Arrival time from the input.
    pub arrival: SimTime,
    /// When the first chunk of this transfer started transmitting.
    pub first_service: SimTime,
    /// When the final chunk finished transmitting.
    pub finished: SimTime,
    /// Size from the input.
    pub bytes: u64,
}

/// One chunk departure, for timeline rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEntry {
    /// When the chunk finished serializing onto the link.
    pub time: SimTime,
    /// Owning transfer's tag.
    pub tag: u64,
    /// Owning transfer's receiver.
    pub dst: u32,
    /// Chunk size in bytes.
    pub bytes: u64,
}

/// Result of a packet-level run.
#[derive(Debug, Clone)]
pub struct PacketRun {
    /// Per-transfer outcomes, in input order.
    pub outcomes: Vec<TransferOutcome>,
    /// Chunk departures in time order.
    pub timeline: Vec<TimelineEntry>,
}

impl PacketRun {
    /// Finish time of the last transfer belonging to `tag`, if any — the
    /// iteration-relevant quantity (a job's slowest model update).
    pub fn last_finish_of_tag(&self, tag: u64) -> Option<SimTime> {
        self.outcomes
            .iter()
            .filter(|o| o.tag == tag)
            .map(|o| o.finished)
            .max()
    }
}

/// The single-link chunk simulator.
#[derive(Debug, Clone, Copy)]
pub struct PacketSim {
    /// Link bandwidth.
    pub link: Bandwidth,
    /// Chunk granularity in bytes (default 64 KiB).
    pub chunk_bytes: u64,
    /// Scheduling discipline.
    pub qdisc: Qdisc,
}

#[derive(Debug)]
struct Live {
    idx: usize,
    tag: u64,
    dst: u32,
    band: Band,
    remaining: u64,
}

impl PacketSim {
    /// Construct with the default 64 KiB chunk size.
    pub fn new(link: Bandwidth, qdisc: Qdisc) -> Self {
        PacketSim {
            link,
            chunk_bytes: 64 * 1024,
            qdisc,
        }
    }

    /// Run to completion and return outcomes plus the departure timeline.
    ///
    /// `rotations` must be sorted by time; they are applied at chunk
    /// boundaries (a chunk in flight is never preempted, as on a real NIC).
    pub fn run(&self, transfers: &[Transfer], rotations: &[Rotation]) -> PacketRun {
        assert!(self.chunk_bytes > 0, "chunk size must be positive");
        debug_assert!(
            rotations.windows(2).all(|w| w[0].at <= w[1].at),
            "rotations must be sorted by time"
        );

        let mut arrivals: Vec<usize> = (0..transfers.len()).collect();
        arrivals.sort_by_key(|&i| (transfers[i].arrival, i));
        let mut next_arrival = 0usize;

        let mut outcomes: Vec<TransferOutcome> = transfers
            .iter()
            .map(|t| TransferOutcome {
                tag: t.tag,
                dst: t.dst,
                arrival: t.arrival,
                first_service: SimTime::MAX,
                finished: SimTime::MAX,
                bytes: t.bytes,
            })
            .collect();

        let mut live: Vec<Live> = Vec::new();
        let mut timeline = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_rotation = 0usize;
        let mut rr_cursor: usize = 0; // index into `live` of the next candidate
        let mut drr_tag_cursor: usize = 0;
        let mut drr_topped_up = false;
        let mut drr_deficit: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        // Rotations are filter changes: they must also classify transfers
        // that arrive *after* the rotation fired.
        let mut band_override: std::collections::HashMap<u64, Band> =
            std::collections::HashMap::new();
        let bps = self.link.bytes_per_sec();

        loop {
            // Admit arrivals that have occurred.
            while next_arrival < arrivals.len() && transfers[arrivals[next_arrival]].arrival <= now
            {
                let i = arrivals[next_arrival];
                let t = &transfers[i];
                if t.bytes > 0 {
                    live.push(Live {
                        idx: i,
                        tag: t.tag,
                        dst: t.dst,
                        band: band_override.get(&t.tag).copied().unwrap_or(t.band),
                        remaining: t.bytes,
                    });
                } else {
                    // Zero-byte transfers complete instantly on arrival.
                    outcomes[i].first_service = now;
                    outcomes[i].finished = now;
                }
                next_arrival += 1;
            }
            // Apply due rotations.
            while next_rotation < rotations.len() && rotations[next_rotation].at <= now {
                for &(tag, band) in &rotations[next_rotation].assignment {
                    band_override.insert(tag, band);
                    for l in live.iter_mut().filter(|l| l.tag == tag) {
                        l.band = band;
                    }
                }
                next_rotation += 1;
            }

            if live.is_empty() {
                if next_arrival < arrivals.len() {
                    now = transfers[arrivals[next_arrival]].arrival;
                    continue;
                }
                break;
            }

            // Pick the next transfer to serve one chunk.
            let pick = match self.qdisc {
                Qdisc::PfifoFast => {
                    rr_cursor %= live.len();
                    let p = rr_cursor;
                    rr_cursor += 1;
                    p
                }
                Qdisc::Prio => {
                    let best_band = live.iter().map(|l| l.band).min().expect("live non-empty");
                    // Round-robin among the best band's members.
                    rr_cursor %= live.len();
                    let mut p = rr_cursor;
                    while live[p].band != best_band {
                        p = (p + 1) % live.len();
                    }
                    rr_cursor = p + 1;
                    p
                }
                Qdisc::Drr { quantum_bytes } => {
                    assert!(quantum_bytes > 0, "DRR quantum must be positive");
                    // Ordered list of distinct live tags (first-seen order).
                    let mut tags: Vec<u64> = Vec::new();
                    for l in &live {
                        if !tags.contains(&l.tag) {
                            tags.push(l.tag);
                        }
                    }
                    drr_tag_cursor %= tags.len();
                    // Classic DRR across tags: on entering a tag, top its
                    // deficit up by one quantum; serve chunks while the
                    // deficit covers them; then move to the next tag.
                    // Terminates because each full pass adds a quantum.
                    loop {
                        let tag = tags[drr_tag_cursor];
                        let head = live
                            .iter()
                            .position(|l| l.tag == tag)
                            .expect("tag has a live transfer");
                        let need = self.chunk_bytes.min(live[head].remaining);
                        let deficit = drr_deficit.entry(tag).or_insert(0);
                        if *deficit >= need {
                            break head;
                        }
                        if !drr_topped_up {
                            *deficit += quantum_bytes;
                            drr_topped_up = true;
                            if *deficit >= need {
                                break head;
                            }
                        }
                        drr_tag_cursor = (drr_tag_cursor + 1) % tags.len();
                        drr_topped_up = false;
                    }
                }
            };

            // Transmit one chunk.
            let size = self.chunk_bytes.min(live[pick].remaining);
            let idx = live[pick].idx;
            if outcomes[idx].first_service == SimTime::MAX {
                outcomes[idx].first_service = now;
            }
            now += SimDuration::from_secs_f64(size as f64 / bps);
            live[pick].remaining -= size;
            if let Qdisc::Drr { .. } = self.qdisc {
                let d = drr_deficit
                    .get_mut(&live[pick].tag)
                    .expect("picked tag has a deficit entry");
                *d = d.saturating_sub(size);
            }
            timeline.push(TimelineEntry {
                time: now,
                tag: live[pick].tag,
                dst: live[pick].dst,
                bytes: size,
            });
            if live[pick].remaining == 0 {
                outcomes[idx].finished = now;
                let tag = live[pick].tag;
                live.remove(pick);
                if rr_cursor > pick {
                    rr_cursor -= 1;
                }
                // An emptied DRR queue forfeits its deficit (classic DRR).
                if !live.iter().any(|l| l.tag == tag) {
                    drr_deficit.remove(&tag);
                    drr_topped_up = false;
                }
            }
        }

        PacketRun { outcomes, timeline }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS10: f64 = 1.25e9;

    fn sim(qdisc: Qdisc) -> PacketSim {
        PacketSim::new(Bandwidth::from_gbps(10.0), qdisc)
    }

    fn xfer(tag: u64, dst: u32, mb: u64, band: u8) -> Transfer {
        Transfer {
            tag,
            dst,
            bytes: mb * 1_000_000,
            band: Band(band),
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn lone_transfer_takes_serialization_time() {
        let run = sim(Qdisc::PfifoFast).run(&[xfer(1, 0, 125, 0)], &[]);
        let want = 125e6 / GBPS10;
        assert!((run.outcomes[0].finished.as_secs_f64() - want).abs() < 1e-6);
        assert_eq!(run.outcomes[0].first_service, SimTime::ZERO);
    }

    #[test]
    fn fifo_interleaves_both_finish_late() {
        // Figure 4b: both jobs' updates interleave; both finish ~at the end.
        let run = sim(Qdisc::PfifoFast).run(&[xfer(1, 0, 125, 0), xfer(2, 1, 125, 0)], &[]);
        let total = 250e6 / GBPS10;
        for o in &run.outcomes {
            assert!(
                (o.finished.as_secs_f64() - total).abs() < 0.01,
                "both jobs straggle under FIFO: {}",
                o.finished
            );
        }
    }

    #[test]
    fn prio_serializes_jobs() {
        // Figure 4c: job 1 finishes at T/2, job 2 at T.
        let run = sim(Qdisc::Prio).run(&[xfer(1, 0, 125, 0), xfer(2, 1, 125, 1)], &[]);
        let half = 125e6 / GBPS10;
        assert!((run.outcomes[0].finished.as_secs_f64() - half).abs() < 0.01);
        assert!((run.outcomes[1].finished.as_secs_f64() - 2.0 * half).abs() < 0.01);
    }

    #[test]
    fn prio_matches_fifo_total() {
        let fifo = sim(Qdisc::PfifoFast).run(&[xfer(1, 0, 100, 0), xfer(2, 1, 100, 0)], &[]);
        let prio = sim(Qdisc::Prio).run(&[xfer(1, 0, 100, 0), xfer(2, 1, 100, 1)], &[]);
        let f_last = fifo.last_finish_of_tag(2).unwrap();
        let p_last = prio.last_finish_of_tag(2).unwrap();
        assert!((f_last.as_secs_f64() - p_last.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn prio_halves_winning_jobs_delivery() {
        // One job with 4 workers contending against an equal job. Under FIFO
        // every update of both jobs is delivered only near the very end
        // (Figure 4b); under priority the winning job has *all* its updates
        // delivered at the halfway point (Figure 4c), so none of its workers
        // straggles.
        let job1: Vec<Transfer> = (0..4).map(|w| xfer(1, w, 25, 0)).collect();
        let job2: Vec<Transfer> = (0..4).map(|w| xfer(2, 4 + w, 25, 1)).collect();
        let all: Vec<Transfer> = job1.iter().chain(job2.iter()).copied().collect();
        let prio = sim(Qdisc::Prio).run(&all, &[]);

        let fifo_all: Vec<Transfer> = all
            .iter()
            .map(|t| Transfer {
                band: Band(0),
                ..*t
            })
            .collect();
        let fifo = sim(Qdisc::PfifoFast).run(&fifo_all, &[]);

        let total = 200e6 / GBPS10;
        let fifo_job1 = fifo.last_finish_of_tag(1).unwrap().as_secs_f64();
        let prio_job1 = prio.last_finish_of_tag(1).unwrap().as_secs_f64();
        assert!(
            (fifo_job1 - total).abs() < 0.01,
            "FIFO: job 1 late ({fifo_job1})"
        );
        assert!(
            (prio_job1 - total / 2.0).abs() < 0.01,
            "prio: job 1 done at midpoint ({prio_job1})"
        );
        // The yielding job is no worse off than under FIFO.
        let fifo_job2 = fifo.last_finish_of_tag(2).unwrap().as_secs_f64();
        let prio_job2 = prio.last_finish_of_tag(2).unwrap().as_secs_f64();
        assert!((fifo_job2 - prio_job2).abs() < 1e-9);
    }

    #[test]
    fn rotation_swaps_service() {
        // Two long transfers; rotation at the midpoint flips the winner.
        let t1 = xfer(1, 0, 100, 0);
        let t2 = xfer(2, 1, 100, 1);
        let half = SimTime::from_secs_f64(50e6 / GBPS10);
        let rot = Rotation {
            at: half,
            assignment: vec![(1, Band(1)), (2, Band(0))],
        };
        let run = sim(Qdisc::Prio).run(&[t1, t2], &[rot]);
        // After rotation, tag 2 runs alone until it finishes all 100 MB,
        // then tag 1 finishes its remaining 50 MB.
        let f1 = run.outcomes[0].finished.as_secs_f64();
        let f2 = run.outcomes[1].finished.as_secs_f64();
        assert!(f2 < f1, "rotation promoted tag 2: f1={f1} f2={f2}");
        let total = 200e6 / GBPS10;
        assert!((f1 - total).abs() < 0.01);
    }

    #[test]
    fn drr_is_fair_across_tags() {
        // Tag 1 has four transfers, tag 2 has one; DRR gives each *tag* an
        // equal share, so tag 2's single transfer finishes first.
        let mut ts: Vec<Transfer> = (0..4).map(|w| xfer(1, w, 50, 0)).collect();
        ts.push(xfer(2, 9, 50, 0));
        let run = sim(Qdisc::Drr {
            quantum_bytes: 64 * 1024,
        })
        .run(&ts, &[]);
        let t2 = run.outcomes[4].finished.as_secs_f64();
        let t1_last = run.last_finish_of_tag(1).unwrap().as_secs_f64();
        // Tag 2 gets ~half the link: 50 MB at 625 MB/s = 0.08 s.
        assert!((t2 - 0.08).abs() < 0.01, "tag2 at {t2}");
        assert!(t1_last > t2, "tag 1's queue drains later");
    }

    #[test]
    fn late_arrival_waits_for_link() {
        let t1 = xfer(1, 0, 125, 0);
        let mut t2 = xfer(2, 1, 1, 0);
        t2.arrival = SimTime::from_secs_f64(0.2);
        let run = sim(Qdisc::PfifoFast).run(&[t1, t2], &[]);
        assert!(run.outcomes[1].first_service >= t2.arrival);
        assert!(run.outcomes[1].finished > t2.arrival);
    }

    #[test]
    fn idle_gap_jumps_to_next_arrival() {
        let t1 = xfer(1, 0, 1, 0);
        let mut t2 = xfer(2, 1, 1, 0);
        t2.arrival = SimTime::from_secs(5);
        let run = sim(Qdisc::PfifoFast).run(&[t1, t2], &[]);
        assert_eq!(run.outcomes[1].first_service, SimTime::from_secs(5));
    }

    #[test]
    fn zero_byte_transfer_completes_instantly() {
        let t = Transfer {
            tag: 1,
            dst: 0,
            bytes: 0,
            band: Band(0),
            arrival: SimTime::from_secs(1),
        };
        let run = sim(Qdisc::PfifoFast).run(&[t], &[]);
        assert_eq!(run.outcomes[0].finished, SimTime::from_secs(1));
    }

    #[test]
    fn rotation_before_any_arrival_applies_on_first_service() {
        // The rotation fires at t=0 but the transfers arrive later; the
        // reassigned bands must hold from the first chunk.
        let mut t1 = xfer(1, 0, 10, 0);
        let mut t2 = xfer(2, 1, 10, 1);
        t1.arrival = SimTime::from_secs(1);
        t2.arrival = SimTime::from_secs(1);
        let rot = Rotation {
            at: SimTime::ZERO,
            assignment: vec![(1, Band(1)), (2, Band(0))],
        };
        let run = sim(Qdisc::Prio).run(&[t1, t2], &[rot]);
        // Tag 2 was promoted before service started: it finishes first.
        assert!(run.outcomes[1].finished < run.outcomes[0].finished);
    }

    #[test]
    fn drr_serves_within_tag_in_fifo_order() {
        // Two transfers of one tag against one of another: the tag's first
        // transfer completes before its second starts finishing.
        let ts = [xfer(1, 0, 10, 0), xfer(1, 1, 10, 0), xfer(2, 2, 20, 0)];
        let run = sim(Qdisc::Drr {
            quantum_bytes: 64 * 1024,
        })
        .run(&ts, &[]);
        assert!(run.outcomes[0].finished < run.outcomes[1].finished);
        // Tag 1's aggregate (20 MB) and tag 2's 20 MB finish together-ish.
        let t1_last = run.last_finish_of_tag(1).unwrap().as_secs_f64();
        let t2 = run.last_finish_of_tag(2).unwrap().as_secs_f64();
        assert!((t1_last - t2).abs() < 0.01, "{t1_last} vs {t2}");
    }

    #[test]
    fn timeline_is_monotone_and_complete() {
        let ts = [xfer(1, 0, 10, 0), xfer(2, 1, 10, 1)];
        let run = sim(Qdisc::Prio).run(&ts, &[]);
        assert!(run.timeline.windows(2).all(|w| w[0].time <= w[1].time));
        let total: u64 = run.timeline.iter().map(|e| e.bytes).sum();
        assert_eq!(total, 20_000_000);
    }

    #[test]
    fn conservation_across_disciplines() {
        let ts = [xfer(1, 0, 30, 0), xfer(2, 1, 20, 1), xfer(3, 2, 10, 2)];
        for q in [
            Qdisc::PfifoFast,
            Qdisc::Prio,
            Qdisc::Drr {
                quantum_bytes: 64 * 1024,
            },
        ] {
            let run = sim(q).run(&ts, &[]);
            let last = run.outcomes.iter().map(|o| o.finished).max().unwrap();
            let want = 60e6 / GBPS10;
            assert!(
                (last.as_secs_f64() - want).abs() < 1e-6,
                "work conservation under {q:?}"
            );
        }
    }
}
