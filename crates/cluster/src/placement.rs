//! Task placement: where each job's PS and workers run.
//!
//! Reproduces the paper's Table I — eight PS placements for 21 concurrent
//! jobs on 21 hosts, from fully colocated ("21") to fully spread
//! ("1, ..., 1") — plus the general strategies a cluster scheduler might
//! use (random, PS-aware spread).

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tl_net::HostId;

/// The PS shard hosts of one job, primary first: shard 0 is the primary
/// parameter server, shards `1..` are the paper's "more general case where
/// one DL job has multiple PSes, each PS communicates with remote workers
/// in a similar way". Always non-empty; the common single-PS job has
/// exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PsShards {
    hosts: Vec<HostId>,
}

impl PsShards {
    /// A single-shard PS on `primary`.
    pub fn single(primary: HostId) -> Self {
        PsShards {
            hosts: vec![primary],
        }
    }

    /// A sharded PS: the primary plus one extra shard per host in
    /// `extras` (shard `k` lives on `extras[k-1]`).
    pub fn sharded(primary: HostId, extras: Vec<HostId>) -> Self {
        let mut hosts = Vec::with_capacity(1 + extras.len());
        hosts.push(primary);
        hosts.extend(extras);
        PsShards { hosts }
    }

    /// Host of the primary shard (shard 0).
    pub fn primary(&self) -> HostId {
        self.hosts[0]
    }

    /// Number of shards (at least 1).
    pub fn count(&self) -> u32 {
        self.hosts.len() as u32
    }

    /// Host of shard `s`.
    pub fn host(&self, s: u32) -> HostId {
        self.hosts[s as usize]
    }

    /// All shard hosts, primary first.
    pub fn iter(&self) -> impl Iterator<Item = HostId> + '_ {
        self.hosts.iter().copied()
    }
}

/// Placement of one job: its PS shards and its workers' hosts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobPlacement {
    /// The PS shard hosts (primary first).
    pub ps: PsShards,
    /// Hosts running the workers (index = worker index within the job).
    pub worker_hosts: Vec<HostId>,
}

impl JobPlacement {
    /// A single-PS placement.
    pub fn new(ps_host: HostId, worker_hosts: Vec<HostId>) -> Self {
        JobPlacement {
            ps: PsShards::single(ps_host),
            worker_hosts,
        }
    }

    /// Add PS shards on the given hosts (model parameters are split evenly
    /// across all shards).
    pub fn with_extra_ps(mut self, hosts: Vec<HostId>) -> Self {
        self.ps = PsShards::sharded(self.ps.primary(), hosts);
        self
    }

    /// Host of the primary PS shard.
    pub fn ps_host(&self) -> HostId {
        self.ps.primary()
    }
}

/// Placement of a set of concurrent jobs (indexed by job).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Per-job placements.
    pub jobs: Vec<JobPlacement>,
}

impl Placement {
    /// How many PSes each host carries.
    pub fn ps_colocation_counts(&self) -> BTreeMap<HostId, usize> {
        let mut counts = BTreeMap::new();
        for j in &self.jobs {
            *counts.entry(j.ps_host()).or_insert(0) += 1;
        }
        counts
    }

    /// Hosts carrying two or more PSes — the hosts where the paper
    /// configures `tc` ("we only need to configure tc on the hosts with
    /// contending PSes").
    pub fn hosts_with_contending_ps(&self) -> Vec<HostId> {
        self.ps_colocation_counts()
            .into_iter()
            .filter(|&(_, c)| c >= 2)
            .map(|(h, _)| h)
            .collect()
    }

    /// Jobs whose PS lives on `host`, in job order.
    pub fn jobs_with_ps_on(&self, host: HostId) -> Vec<usize> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.ps_host() == host)
            .map(|(i, _)| i)
            .collect()
    }

    /// The largest PS colocation group size (contention intensity proxy).
    pub fn max_colocation(&self) -> usize {
        self.ps_colocation_counts()
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// The eight placements of the paper's Table I, by 1-based index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1Index(pub u8);

impl Table1Index {
    /// All eight indexes, in order.
    pub fn all() -> [Table1Index; 8] {
        [1, 2, 3, 4, 5, 6, 7, 8].map(Table1Index)
    }
}

/// Split `total` into `k` near-equal group sizes, small groups first —
/// matches Table I's "5, 5, 5, 6" and "4, 4, 4, 4, 5" conventions.
fn even_groups(total: u32, k: u32) -> Vec<u32> {
    assert!(k >= 1 && k <= total, "cannot split {total} into {k} groups");
    let base = total / k;
    let extra = total % k;
    (0..k)
        .map(|i| if i < k - extra { base } else { base + 1 })
        .collect()
}

/// The PS colocation group sizes for a Table I index, generalized to any
/// job count. For the paper's 21 jobs this reproduces Table I exactly:
/// `21 / 5,16 / 10,11 / 7,7,7 / 5,5,5,6 / 4,4,4,4,5 / 3×7 / 1×21`.
pub fn table1_group_sizes(index: Table1Index, num_jobs: u32) -> Vec<u32> {
    assert!(num_jobs >= 1, "need at least one job");
    match index.0 {
        1 => vec![num_jobs],
        2 => {
            // A small group and the large remainder (21 -> 5, 16).
            let small = ((num_jobs as f64 * 5.0 / 21.0).round() as u32).clamp(1, num_jobs - 1);
            vec![small, num_jobs - small]
        }
        3 => even_groups(num_jobs, 2),
        4 => even_groups(num_jobs, 3),
        5 => even_groups(num_jobs, 4),
        6 => even_groups(num_jobs, 5),
        7 => even_groups(num_jobs, 7.min(num_jobs)),
        8 => vec![1; num_jobs as usize],
        i => panic!("Table I index must be 1..=8, got {i}"),
    }
}

/// Place jobs per the paper's scheme: PS groups on distinct hosts (group
/// `k` on host `k`), and each job's workers spread over every *other* host.
///
/// With the paper's shape (`num_hosts = workers_per_job + 1`) every host
/// carries exactly one worker per job, as in §III. With fewer workers the
/// worker hosts are the cyclic run starting just past the PS host, rotated
/// by job index for balance.
pub fn grouped_placement(num_hosts: u32, workers_per_job: u32, groups: &[u32]) -> Placement {
    let num_jobs: u32 = groups.iter().sum();
    assert!(num_jobs >= 1, "need at least one job");
    assert!(
        groups.len() as u32 <= num_hosts,
        "more PS groups than hosts"
    );
    assert!(
        workers_per_job < num_hosts,
        "workers per job ({workers_per_job}) exceed non-PS hosts ({})",
        num_hosts - 1
    );
    assert!(groups.iter().all(|&g| g >= 1), "empty PS group");

    let mut jobs = Vec::with_capacity(num_jobs as usize);
    let mut job_idx = 0u32;
    for (host, &gsize) in groups.iter().enumerate() {
        for _ in 0..gsize {
            let ps_host = HostId(host as u32);
            let mut worker_hosts = Vec::with_capacity(workers_per_job as usize);
            // Cyclic run over non-PS hosts, starting offset by the job index.
            let candidates = num_hosts - 1;
            for w in 0..workers_per_job {
                let slot = (w + job_idx) % candidates;
                let mut h = (ps_host.0 + 1 + slot) % num_hosts;
                if h == ps_host.0 {
                    h = (h + 1) % num_hosts;
                }
                worker_hosts.push(HostId(h));
            }
            jobs.push(JobPlacement::new(ps_host, worker_hosts));
            job_idx += 1;
        }
    }
    Placement { jobs }
}

/// Convenience: placement for a Table I index with the paper's shape.
pub fn table1_placement(index: Table1Index, num_hosts: u32, num_jobs: u32) -> Placement {
    let workers = num_hosts - 1;
    grouped_placement(num_hosts, workers, &table1_group_sizes(index, num_jobs))
}

/// General placement strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// One of the paper's Table I placements.
    Table1(Table1Index),
    /// All PSes colocated on host 0 (equivalent to Table1(#1)).
    Colocated,
    /// PS-aware spread: PS of job `j` on host `j mod num_hosts` — the
    /// cluster-scheduler mitigation discussed in the paper's future work.
    Spread,
    /// PS host drawn uniformly at random per job (what a functionality-
    /// agnostic scheduler effectively does).
    Random,
}

/// Materialize a strategy into a placement. `rng` is only used by
/// [`PlacementStrategy::Random`].
pub fn make_placement<R: Rng + ?Sized>(
    strategy: PlacementStrategy,
    num_hosts: u32,
    num_jobs: u32,
    workers_per_job: u32,
    rng: &mut R,
) -> Placement {
    match strategy {
        PlacementStrategy::Table1(i) => {
            grouped_placement(num_hosts, workers_per_job, &table1_group_sizes(i, num_jobs))
        }
        PlacementStrategy::Colocated => grouped_placement(num_hosts, workers_per_job, &[num_jobs]),
        PlacementStrategy::Spread => {
            // Round-robin PS hosts; reuse grouped_placement by building the
            // per-host counts.
            let k = num_hosts.min(num_jobs) as usize;
            let mut groups = vec![0u32; k];
            for j in 0..num_jobs {
                groups[(j % num_hosts) as usize % k] += 1;
            }
            grouped_placement(num_hosts, workers_per_job, &groups)
        }
        PlacementStrategy::Random => {
            let mut jobs = Vec::with_capacity(num_jobs as usize);
            let all_hosts: Vec<u32> = (0..num_hosts).collect();
            for _ in 0..num_jobs {
                let ps_host = HostId(rng.gen_range(0..num_hosts));
                let mut others: Vec<u32> = all_hosts
                    .iter()
                    .copied()
                    .filter(|&h| h != ps_host.0)
                    .collect();
                others.shuffle(rng);
                let worker_hosts = others
                    .into_iter()
                    .take(workers_per_job as usize)
                    .map(HostId)
                    .collect();
                jobs.push(JobPlacement::new(ps_host, worker_hosts));
            }
            Placement { jobs }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table1_exact_group_sizes_for_paper_config() {
        let want: [&[u32]; 8] = [
            &[21],
            &[5, 16],
            &[10, 11],
            &[7, 7, 7],
            &[5, 5, 5, 6],
            &[4, 4, 4, 4, 5],
            &[3, 3, 3, 3, 3, 3, 3],
            &[1; 21],
        ];
        for (i, w) in want.iter().enumerate() {
            let got = table1_group_sizes(Table1Index(i as u8 + 1), 21);
            assert_eq!(&got[..], *w, "index #{}", i + 1);
        }
    }

    #[test]
    fn group_sizes_always_sum_to_jobs() {
        for idx in Table1Index::all() {
            for jobs in [7u32, 10, 21, 30] {
                let g = table1_group_sizes(idx, jobs);
                assert_eq!(g.iter().sum::<u32>(), jobs, "idx {idx:?} jobs {jobs}");
                assert!(g.iter().all(|&x| x >= 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be 1..=8")]
    fn rejects_bad_index() {
        let _ = table1_group_sizes(Table1Index(9), 21);
    }

    #[test]
    fn paper_placement_shape() {
        let p = table1_placement(Table1Index(1), 21, 21);
        assert_eq!(p.jobs.len(), 21);
        // All PSes on host 0.
        assert!(p.jobs.iter().all(|j| j.ps_host() == HostId(0)));
        assert_eq!(p.max_colocation(), 21);
        // Each job's 20 workers cover all hosts except the PS host.
        for j in &p.jobs {
            assert_eq!(j.worker_hosts.len(), 20);
            let mut hosts: Vec<u32> = j.worker_hosts.iter().map(|h| h.0).collect();
            hosts.sort_unstable();
            hosts.dedup();
            assert_eq!(hosts.len(), 20, "workers on distinct hosts");
            assert!(!hosts.contains(&0), "no worker on the PS host");
        }
    }

    #[test]
    fn placement8_has_no_contending_hosts() {
        let p = table1_placement(Table1Index(8), 21, 21);
        assert!(p.hosts_with_contending_ps().is_empty());
        assert_eq!(p.max_colocation(), 1);
        // Every host has exactly one PS.
        assert_eq!(p.ps_colocation_counts().len(), 21);
    }

    #[test]
    fn placement2_contention_structure() {
        let p = table1_placement(Table1Index(2), 21, 21);
        let counts = p.ps_colocation_counts();
        assert_eq!(counts[&HostId(0)], 5);
        assert_eq!(counts[&HostId(1)], 16);
        assert_eq!(p.hosts_with_contending_ps(), vec![HostId(0), HostId(1)]);
        assert_eq!(p.jobs_with_ps_on(HostId(0)).len(), 5);
    }

    #[test]
    fn every_host_carries_one_worker_per_job_in_paper_shape() {
        // §III: "each host has one worker task" (per job, except PS host).
        let p = table1_placement(Table1Index(4), 21, 21);
        for host in 0..21u32 {
            for (ji, j) in p.jobs.iter().enumerate() {
                let n = j.worker_hosts.iter().filter(|h| h.0 == host).count();
                if j.ps_host().0 == host {
                    assert_eq!(n, 0, "job {ji} has no worker on its PS host");
                } else {
                    assert_eq!(n, 1, "job {ji} has one worker on host {host}");
                }
            }
        }
    }

    #[test]
    fn spread_strategy_minimizes_colocation() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let p = make_placement(PlacementStrategy::Spread, 21, 21, 20, &mut rng);
        assert_eq!(p.max_colocation(), 1);
    }

    #[test]
    fn colocated_strategy_matches_table1_1() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let a = make_placement(PlacementStrategy::Colocated, 21, 21, 20, &mut rng);
        let b = table1_placement(Table1Index(1), 21, 21);
        assert_eq!(a, b);
    }

    #[test]
    fn random_strategy_is_valid_and_seed_deterministic() {
        let mut r1 = rand::rngs::SmallRng::seed_from_u64(9);
        let mut r2 = rand::rngs::SmallRng::seed_from_u64(9);
        let a = make_placement(PlacementStrategy::Random, 10, 8, 6, &mut r1);
        let b = make_placement(PlacementStrategy::Random, 10, 8, 6, &mut r2);
        assert_eq!(a, b);
        for j in &a.jobs {
            assert_eq!(j.worker_hosts.len(), 6);
            assert!(j.worker_hosts.iter().all(|h| h.0 < 10));
            assert!(!j.worker_hosts.contains(&j.ps_host()));
        }
    }

    #[test]
    fn fewer_workers_than_hosts_is_balanced() {
        let p = grouped_placement(10, 4, &[3, 3]);
        for j in &p.jobs {
            assert_eq!(j.worker_hosts.len(), 4);
            assert!(!j.worker_hosts.contains(&j.ps_host()));
        }
        // Jobs rotate their worker sets, so total load is spread.
        let mut counts = vec![0; 10];
        for j in &p.jobs {
            for h in &j.worker_hosts {
                counts[h.0 as usize] += 1;
            }
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().filter(|&&c| c > 0).min().unwrap();
        assert!(max - min <= 2, "balanced-ish: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "exceed non-PS hosts")]
    fn rejects_too_many_workers() {
        let _ = grouped_placement(5, 5, &[1]);
    }
}
