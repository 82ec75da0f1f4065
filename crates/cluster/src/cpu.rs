//! Processor-sharing CPU model.
//!
//! Each host's cores are shared among its runnable tasks by capped max-min:
//! a task receives `min(its parallelism cap, fair share)` cores, with the
//! slack from capped tasks redistributed. This captures the paper's testbed
//! reality that ~21 colocated single-threaded worker tasks contend for 12
//! hardware threads: when stragglers idle some workers, the remaining ones
//! speed up — and overall CPU utilization drops, which is exactly the
//! Table II effect.
//!
//! Like [`tl_net::FluidNet`], the engine is driven externally: mutate →
//! ask for the next completion → advance/collect.

use crate::host::HostSpec;
use simcore::{SimDuration, SimTime};

/// Identifier of a compute task within a [`CpuEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuTaskId(pub u64);

/// A finished compute task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedTask {
    /// The task's id.
    pub id: CpuTaskId,
    /// Caller-defined tag (we use job/worker identifiers).
    pub tag: u64,
    /// Host it ran on.
    pub host: usize,
    /// When it was submitted.
    pub started: SimTime,
    /// When its demand was fully served.
    pub finished: SimTime,
}

#[derive(Debug)]
struct TaskState {
    host: usize,
    tag: u64,
    remaining: f64, // core-seconds
    cap: f64,       // max cores usable in parallel
    rate: f64,      // currently allocated cores
    started: SimTime,
}

/// Core-seconds below which a task counts as complete (ns-resolution slack).
const DONE_EPS: f64 = 1e-7;

/// Slab slot: the generation disambiguates reused slots so stale
/// [`CpuTaskId`]s never alias a newer task.
#[derive(Debug)]
struct SlotEntry {
    gen: u32,
    state: Option<TaskState>,
}

fn slot_of(id: u64) -> usize {
    (id & 0xFFFF_FFFF) as usize
}

fn make_id(gen: u32, slot: usize) -> u64 {
    // The slot occupies the low 32 bits; a wider index would alias
    // another slot's ids.
    assert!(
        slot <= u32::MAX as usize,
        "slot {slot} does not fit the 32-bit id field"
    );
    ((gen as u64) << 32) | slot as u64
}

/// Retire a slot generation on recycle. Checked: a wrapped generation
/// would let a [`CpuTaskId`] issued 2^32 reuses ago resolve to an
/// unrelated task, so overflow fails loudly instead.
fn bump_gen(gen: u32) -> u32 {
    gen.checked_add(1)
        .expect("task slot generation counter overflow — stale CpuTaskIds would alias")
}

/// Add `host` to the dirty list unless its flag says it is already there.
fn mark_dirty(is_dirty: &mut [bool], dirty_hosts: &mut Vec<usize>, host: usize) {
    if !is_dirty[host] {
        is_dirty[host] = true;
        dirty_hosts.push(host);
    }
}

/// Event-driven processor-sharing engine over a set of hosts.
///
/// Tasks live in a generational slab (ids are `(generation << 32) | slot`),
/// and shares are recomputed incrementally: hosts are independent, so a
/// task arrival or completion only re-runs the water-filling pass on its
/// own host. The next-completion time is cached between mutations — it is
/// an absolute time, invariant under [`CpuEngine::advance`] while shares
/// are unchanged.
#[derive(Debug)]
pub struct CpuEngine {
    specs: Vec<HostSpec>,
    slots: Vec<SlotEntry>,
    /// Free slab slots available for reuse.
    free: Vec<u32>,
    /// Active slots in creation order (deterministic iteration).
    active: Vec<u32>,
    last_advance: SimTime,
    /// Hosts whose shares must be recomputed before the next query, in
    /// first-marked order; `is_dirty[h]` deduplicates the list, so a
    /// refresh costs O(active tasks + dirty hosts), never O(hosts).
    dirty_hosts: Vec<usize>,
    is_dirty: Vec<bool>,
    /// Cached `next_event_time` result; cleared on any mutation.
    next_cache: Option<Option<SimTime>>,
    /// Reusable per-host task grouping for the water-filling pass.
    per_host: Vec<Vec<u32>>,
    /// Reusable water-filling worklist.
    unfrozen: Vec<u32>,
    /// Cumulative busy core-seconds per host (for utilization).
    busy_core_secs: Vec<f64>,
}

impl CpuEngine {
    /// Create an engine over the given hosts.
    pub fn new(specs: Vec<HostSpec>) -> Self {
        assert!(!specs.is_empty(), "need at least one host");
        let n = specs.len();
        CpuEngine {
            specs,
            slots: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
            last_advance: SimTime::ZERO,
            dirty_hosts: Vec::new(),
            is_dirty: vec![false; n],
            next_cache: None,
            per_host: vec![Vec::new(); n],
            unfrozen: Vec::new(),
            busy_core_secs: vec![0.0; n],
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.specs.len()
    }

    /// Number of currently runnable tasks.
    pub fn active_task_count(&self) -> usize {
        self.active.len()
    }

    /// Cumulative busy core-seconds per host since engine creation.
    pub fn busy_core_secs(&self) -> &[f64] {
        &self.busy_core_secs
    }

    /// Submit a task demanding `core_secs` of compute on `host`, able to use
    /// at most `cap` cores in parallel.
    pub fn start_task(
        &mut self,
        now: SimTime,
        host: usize,
        core_secs: f64,
        cap: f64,
        tag: u64,
    ) -> CpuTaskId {
        assert!(host < self.specs.len(), "host {host} out of range");
        assert!(
            core_secs > 0.0 && core_secs.is_finite(),
            "invalid demand {core_secs}"
        );
        assert!(cap > 0.0 && cap.is_finite(), "invalid cap {cap}");
        self.advance(now);
        let state = TaskState {
            host,
            tag,
            remaining: core_secs,
            cap,
            rate: 0.0,
            started: now,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                debug_assert!(entry.state.is_none(), "free slot still occupied");
                entry.state = Some(state);
                s as usize
            }
            None => {
                self.slots.push(SlotEntry {
                    gen: 0,
                    state: Some(state),
                });
                self.slots.len() - 1
            }
        };
        self.active.push(slot as u32);
        mark_dirty(&mut self.is_dirty, &mut self.dirty_hosts, host);
        self.next_cache = None;
        CpuTaskId(make_id(self.slots[slot].gen, slot))
    }

    /// Integrate progress up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "cpu engine cannot move backwards: {now} < {}",
            self.last_advance
        );
        if now == self.last_advance {
            return;
        }
        self.refresh_rates();
        let dt = now.since(self.last_advance).as_secs_f64();
        let slots = &mut self.slots;
        let busy = &mut self.busy_core_secs;
        for &slot in &self.active {
            let t = slots[slot as usize]
                .state
                .as_mut()
                .expect("active task missing");
            if t.rate > 0.0 {
                let done = (t.rate * dt).min(t.remaining);
                t.remaining -= done;
                busy[t.host] += done;
            }
        }
        self.last_advance = now;
    }

    /// The earliest time a task completes under current shares, if any.
    ///
    /// The result is cached: while no task arrives or completes, shares —
    /// and thus the absolute completion time — are unchanged, so repeated
    /// calls (one per simulator event) cost nothing.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        if let Some(cached) = self.next_cache {
            return cached;
        }
        self.refresh_rates();
        let mut best: Option<f64> = None;
        for &slot in &self.active {
            let t = self.slots[slot as usize]
                .state
                .as_ref()
                .expect("active task missing");
            if t.rate > 0.0 {
                let secs = (t.remaining / t.rate).max(0.0);
                best = Some(match best {
                    Some(b) => b.min(secs),
                    None => secs,
                });
            }
        }
        let when = best.map(|secs| {
            self.last_advance + SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(1)
        });
        self.next_cache = Some(when);
        when
    }

    /// Advance to `now` and drain finished tasks in creation order.
    pub fn take_completions(&mut self, now: SimTime) -> Vec<CompletedTask> {
        self.advance(now);
        let mut done = Vec::new();
        let slots = &mut self.slots;
        let free = &mut self.free;
        let is_dirty = &mut self.is_dirty;
        let dirty_hosts = &mut self.dirty_hosts;
        self.active.retain(|&slot| {
            let entry = &mut slots[slot as usize];
            let t = entry.state.as_ref().expect("active task missing");
            if t.remaining <= DONE_EPS {
                let t = entry.state.take().expect("task vanished");
                done.push(CompletedTask {
                    id: CpuTaskId(make_id(entry.gen, slot as usize)),
                    tag: t.tag,
                    host: t.host,
                    started: t.started,
                    finished: now,
                });
                entry.gen = bump_gen(entry.gen);
                free.push(slot);
                mark_dirty(is_dirty, dirty_hosts, t.host);
                false
            } else {
                true
            }
        });
        if !done.is_empty() {
            self.next_cache = None;
        }
        done
    }

    /// Change `host`'s core count at time `now` (a compute-straggler
    /// window, or its end). Running tasks are integrated under the old
    /// shares first, then re-shared at the new capacity.
    pub fn set_host_cores(&mut self, now: SimTime, host: usize, cores: f64) {
        assert!(host < self.specs.len(), "host {host} out of range");
        assert!(cores > 0.0 && cores.is_finite(), "invalid cores {cores}");
        self.advance(now);
        self.specs[host].cores = cores;
        mark_dirty(&mut self.is_dirty, &mut self.dirty_hosts, host);
        self.next_cache = None;
    }

    /// Current core count of `host` (nominal or fault-degraded).
    pub fn host_cores(&self, host: usize) -> f64 {
        self.specs[host].cores
    }

    /// Abort every runnable task for which `pred(id, host, tag)` holds
    /// (e.g. all tasks on a crashed host). Partially served demand is
    /// discarded; aborted ids no longer resolve. Returns the aborted
    /// `(id, tag)` pairs in creation order.
    pub fn abort_tasks_where(
        &mut self,
        now: SimTime,
        mut pred: impl FnMut(CpuTaskId, usize, u64) -> bool,
    ) -> Vec<(CpuTaskId, u64)> {
        self.advance(now);
        let mut aborted = Vec::new();
        let slots = &mut self.slots;
        let free = &mut self.free;
        let is_dirty = &mut self.is_dirty;
        let dirty_hosts = &mut self.dirty_hosts;
        self.active.retain(|&slot| {
            let entry = &mut slots[slot as usize];
            let id = CpuTaskId(make_id(entry.gen, slot as usize));
            let (host, tag) = {
                let t = entry.state.as_ref().expect("active task missing");
                (t.host, t.tag)
            };
            if pred(id, host, tag) {
                entry.state = None;
                entry.gen = bump_gen(entry.gen);
                free.push(slot);
                mark_dirty(is_dirty, dirty_hosts, host);
                aborted.push((id, tag));
                false
            } else {
                true
            }
        });
        if !aborted.is_empty() {
            self.next_cache = None;
        }
        aborted
    }

    /// Currently allocated cores for a task (None once completed).
    pub fn rate_of(&mut self, id: CpuTaskId) -> Option<f64> {
        self.refresh_rates();
        let slot = slot_of(id.0);
        let entry = self.slots.get(slot)?;
        if make_id(entry.gen, slot) != id.0 {
            return None;
        }
        entry.state.as_ref().map(|t| t.rate)
    }

    /// Capped max-min share of each host's cores among its runnable tasks.
    ///
    /// Hosts are independent, so only hosts marked dirty since the last
    /// refresh are re-shared, in any order, without changing a bit;
    /// everyone else keeps their rates.
    fn refresh_rates(&mut self) {
        if self.dirty_hosts.is_empty() {
            return;
        }
        // Group the dirty hosts' active tasks (creation order preserved).
        let mut per_host = std::mem::take(&mut self.per_host);
        for &h in &self.dirty_hosts {
            per_host[h].clear();
        }
        for &slot in &self.active {
            let h = self.slots[slot as usize]
                .state
                .as_ref()
                .expect("active task missing")
                .host;
            if self.is_dirty[h] {
                per_host[h].push(slot);
            }
        }
        let mut unfrozen = std::mem::take(&mut self.unfrozen);
        for &h in &self.dirty_hosts {
            let ids = &per_host[h];
            if ids.is_empty() {
                continue;
            }
            let mut remaining_cores = self.specs[h].cores;
            unfrozen.clear();
            unfrozen.extend_from_slice(ids);
            // Capped water-filling: tasks below the fair share take their
            // cap and release the slack to the rest.
            while !unfrozen.is_empty() {
                let fair = remaining_cores / unfrozen.len() as f64;
                let mut froze_any = false;
                unfrozen.retain(|&slot| {
                    let t = self.slots[slot as usize]
                        .state
                        .as_mut()
                        .expect("task missing");
                    if t.cap <= fair {
                        t.rate = t.cap;
                        remaining_cores -= t.cap;
                        froze_any = true;
                        false
                    } else {
                        true
                    }
                });
                if !froze_any {
                    for &slot in &unfrozen {
                        self.slots[slot as usize]
                            .state
                            .as_mut()
                            .expect("task missing")
                            .rate = fair;
                    }
                    break;
                }
            }
        }
        self.unfrozen = unfrozen;
        self.per_host = per_host;
        for h in self.dirty_hosts.drain(..) {
            self.is_dirty[h] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(hosts: usize, cores: f64) -> CpuEngine {
        CpuEngine::new(vec![HostSpec::with_cores(cores); hosts])
    }

    #[test]
    fn lone_task_runs_at_cap() {
        let mut e = engine(1, 12.0);
        // 2 core-seconds at cap 1 core -> 2 seconds wall.
        let id = e.start_task(SimTime::ZERO, 0, 2.0, 1.0, 7);
        assert_eq!(e.rate_of(id), Some(1.0));
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
        let done = e.take_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
    }

    #[test]
    fn oversubscription_slows_tasks() {
        // 21 single-core tasks on 12 cores: each gets 12/21 cores.
        let mut e = engine(1, 12.0);
        for i in 0..21 {
            e.start_task(SimTime::ZERO, 0, 1.0, 1.0, i);
        }
        let t = e.next_event_time().unwrap();
        let want = 21.0 / 12.0; // 1 core-sec at 12/21 cores
        assert!((t.as_secs_f64() - want).abs() < 1e-6, "got {t}");
        let done = e.take_completions(t);
        assert_eq!(done.len(), 21, "all equal tasks finish together");
    }

    #[test]
    fn undersubscription_leaves_cores_idle() {
        // 4 single-core tasks on 12 cores: each runs at its cap of 1.
        let mut e = engine(1, 12.0);
        for i in 0..4 {
            e.start_task(SimTime::ZERO, 0, 3.0, 1.0, i);
        }
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
        e.take_completions(t);
        // Busy core-time: 4 tasks × 3 core-secs.
        assert!((e.busy_core_secs()[0] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn capped_task_releases_slack() {
        // One cap-1 task and one cap-8 task on 4 cores: fair = 2, so the
        // cap-1 task takes 1 and the wide task gets 3.
        let mut e = engine(1, 4.0);
        let narrow = e.start_task(SimTime::ZERO, 0, 10.0, 1.0, 1);
        let wide = e.start_task(SimTime::ZERO, 0, 10.0, 8.0, 2);
        assert_eq!(e.rate_of(narrow), Some(1.0));
        assert_eq!(e.rate_of(wide), Some(3.0));
    }

    #[test]
    fn wide_task_is_limited_by_host_cores() {
        let mut e = engine(1, 12.0);
        let id = e.start_task(SimTime::ZERO, 0, 24.0, 16.0, 0);
        assert_eq!(
            e.rate_of(id),
            Some(12.0),
            "capped by the host, not the task"
        );
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn completion_speeds_up_survivors() {
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 1); // done at t=2 (half core)
        e.start_task(SimTime::ZERO, 0, 2.0, 1.0, 2);
        let t1 = e.next_event_time().unwrap();
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-6);
        let done = e.take_completions(t1);
        assert_eq!(done[0].tag, 1);
        // Task 2 has 1 core-sec left, now at a full core: done at t=3.
        let t2 = e.next_event_time().unwrap();
        assert!((t2.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn hosts_are_independent() {
        let mut e = engine(2, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 1);
        e.start_task(SimTime::ZERO, 1, 1.0, 1.0, 2);
        let t = e.next_event_time().unwrap();
        assert!(
            (t.as_secs_f64() - 1.0).abs() < 1e-6,
            "no cross-host sharing"
        );
        let done = e.take_completions(t);
        assert_eq!(done.len(), 2);
        assert!((e.busy_core_secs()[0] - 1.0).abs() < 1e-6);
        assert!((e.busy_core_secs()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn busy_accounting_partial_window() {
        let mut e = engine(1, 2.0);
        e.start_task(SimTime::ZERO, 0, 10.0, 1.0, 1);
        e.advance(SimTime::from_secs(3));
        assert!((e.busy_core_secs()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_reshares() {
        let mut e = engine(1, 1.0);
        let a = e.start_task(SimTime::ZERO, 0, 2.0, 1.0, 1);
        e.start_task(SimTime::from_secs(1), 0, 2.0, 1.0, 2);
        // Task a: 1 core-sec left at t=1, then half core.
        assert_eq!(e.rate_of(a), Some(0.5));
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn core_change_reshapes_running_tasks() {
        let mut e = engine(1, 4.0);
        let id = e.start_task(SimTime::ZERO, 0, 8.0, 8.0, 1);
        assert_eq!(e.rate_of(id), Some(4.0));
        // 1s at 4 cores: 4 core-secs left. Halve the host.
        e.set_host_cores(SimTime::from_secs(1), 0, 2.0);
        assert_eq!(e.rate_of(id), Some(2.0));
        assert!((e.host_cores(0) - 2.0).abs() < 1e-12);
        // 4 core-secs at 2 cores: finishes at t=3.
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6, "got {t}");
        // Restore; no tasks left, engine stays consistent.
        e.take_completions(t);
        e.set_host_cores(t, 0, 4.0);
        assert_eq!(e.active_task_count(), 0);
    }

    #[test]
    fn abort_discards_tasks_and_ids() {
        let mut e = engine(2, 1.0);
        let a = e.start_task(SimTime::ZERO, 0, 5.0, 1.0, 1);
        let b = e.start_task(SimTime::ZERO, 0, 5.0, 1.0, 2);
        let c = e.start_task(SimTime::ZERO, 1, 5.0, 1.0, 3);
        let aborted = e.abort_tasks_where(SimTime::from_secs(1), |_, host, _| host == 0);
        assert_eq!(aborted, vec![(a, 1), (b, 2)]);
        assert_eq!(e.active_task_count(), 1);
        assert!(e.rate_of(a).is_none());
        assert!(e.rate_of(b).is_none());
        assert_eq!(e.rate_of(c), Some(1.0));
        // The survivor completes on schedule.
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-6);
        assert_eq!(e.take_completions(t).len(), 1);
    }

    #[test]
    #[should_panic(expected = "generation counter overflow")]
    fn generation_overflow_fails_loudly() {
        // A slot generation at u32::MAX has handed out ids for 2^32
        // tasks; one more recycle would make the oldest id resolve to the
        // newest task. The recycle must panic instead.
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 0);
        e.slots[0].gen = u32::MAX;
        let t = e.next_event_time().unwrap();
        e.take_completions(t);
    }

    #[test]
    #[should_panic(expected = "generation counter overflow")]
    fn abort_generation_overflow_fails_loudly() {
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 0);
        e.slots[0].gen = u32::MAX;
        e.abort_tasks_where(SimTime::ZERO, |_, _, _| true);
    }

    #[test]
    #[should_panic(expected = "does not fit the 32-bit id field")]
    fn task_id_packing_rejects_oversized_slots() {
        let _ = make_id(0, (u32::MAX as usize) + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_host() {
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 1, 1.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "invalid demand")]
    fn rejects_zero_demand() {
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 0, 0.0, 1.0, 0);
    }
}
