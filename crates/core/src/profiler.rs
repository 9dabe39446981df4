//! The Performance Profiler (paper §3.1): remembers, for every job, the
//! iteration time at every processor configuration it has run on, the
//! measured redistribution costs between configurations, and the possible
//! shrink points with their expected performance degradation.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::job::JobId;
use crate::topology::ProcessorConfig;

/// One recorded iteration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerfRecord {
    pub config: ProcessorConfig,
    pub iter_time: f64,
    /// Redistribution cost paid just before this iteration (0 if none).
    pub redist_time: f64,
}

/// The most recent resize a job performed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Resize {
    Expanded {
        from: ProcessorConfig,
        to: ProcessorConfig,
    },
    Shrunk {
        from: ProcessorConfig,
        to: ProcessorConfig,
    },
}

/// A configuration a job could shrink to, with the anticipated impact.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShrinkPoint {
    pub config: ProcessorConfig,
    /// Processors the job would relinquish relative to its current size.
    pub frees: usize,
    /// Expected iteration-time increase (seconds; negative would mean the
    /// smaller configuration was actually faster).
    pub degradation: f64,
}

/// Per-job performance bookkeeping.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct JobProfile {
    history: Vec<PerfRecord>,
    /// Aggregated (sum, count) iteration time per configuration. Ordered
    /// maps keep the profile's `Debug` form (and so a `CoreSnapshot`'s)
    /// stable across processes.
    stats: BTreeMap<ProcessorConfig, (f64, usize)>,
    /// Configurations in first-visit order.
    visited: Vec<ProcessorConfig>,
    /// Measured redistribution seconds between configuration pairs.
    redist_costs: BTreeMap<(ProcessorConfig, ProcessorConfig), f64>,
    last_resize: Option<Resize>,
    /// Set when the job's most recent expansion attempt could not be
    /// actuated (spawn failure) and the job reverted to `from`. Cleared by
    /// the next successful resize or a phase change.
    failed_expansion: Option<(ProcessorConfig, ProcessorConfig)>,
}

impl JobProfile {
    /// Mean iteration time observed at `config`.
    pub fn time_at(&self, config: ProcessorConfig) -> Option<f64> {
        self.stats.get(&config).map(|&(sum, n)| sum / n as f64)
    }

    pub fn visited(&self) -> &[ProcessorConfig] {
        &self.visited
    }

    pub fn history(&self) -> &[PerfRecord] {
        &self.history
    }

    pub fn last_resize(&self) -> Option<Resize> {
        self.last_resize
    }

    /// Has this job ever grown its processor set?
    pub fn ever_expanded(&self) -> bool {
        self.history
            .windows(2)
            .any(|w| w[1].config.procs() > w[0].config.procs())
            || matches!(self.last_resize, Some(Resize::Expanded { .. }))
    }

    /// The expansion that most recently failed to actuate, as `(from, to)`,
    /// if the job is currently under a failed-expansion verdict.
    pub fn failed_expansion(&self) -> Option<(ProcessorConfig, ProcessorConfig)> {
        self.failed_expansion
    }

    /// Did the most recent expansion reduce the iteration time? `None` if
    /// the job never expanded or the expanded configuration has not been
    /// measured yet.
    pub fn last_expansion_improved(&self) -> Option<bool> {
        // An expansion that could not even be actuated (spawn failure) is
        // judged "did not help", so the §3.1 policy stops re-probing it.
        if self.failed_expansion.is_some() {
            return Some(false);
        }
        // If the latest resize was an expansion, judge it directly.
        if let Some(Resize::Expanded { from, to }) = self.last_resize {
            if self.time_at(to).is_some() {
                return Some(self.expansion_improved(from, to));
            }
            // Not measured yet (cannot happen through the normal
            // record-then-decide flow); fall through to the history scan.
        }
        // Otherwise find the most recent processor-count increase in the
        // iteration history (the latest resize may have been a shrink).
        let mut last_exp: Option<(ProcessorConfig, ProcessorConfig)> = None;
        for w in self.history.windows(2) {
            if w[1].config.procs() > w[0].config.procs() {
                last_exp = Some((w[0].config, w[1].config));
            }
        }
        last_exp.map(|(f, t)| self.expansion_improved(f, t))
    }

    fn expansion_improved(&self, from: ProcessorConfig, to: ProcessorConfig) -> bool {
        match (self.time_at(from), self.time_at(to)) {
            (Some(a), Some(b)) => b < a,
            // Not measured yet: be optimistic, matching the paper's "grow
            // while improving" probe.
            _ => true,
        }
    }

    /// Shrink points relative to `current`: every previously visited smaller
    /// configuration, largest first, with the expected degradation
    /// ("applications can only shrink to processor configurations on which
    /// they have previously run").
    pub fn shrink_points(&self, current: ProcessorConfig) -> Vec<ShrinkPoint> {
        let cur_time = self.time_at(current);
        let mut pts: Vec<ShrinkPoint> = self
            .visited
            .iter()
            .filter(|c| c.procs() < current.procs())
            .map(|&c| ShrinkPoint {
                config: c,
                frees: current.procs() - c.procs(),
                degradation: match (self.time_at(c), cur_time) {
                    (Some(t), Some(ct)) => t - ct,
                    _ => 0.0,
                },
            })
            .collect();
        pts.sort_by_key(|pt| std::cmp::Reverse(pt.config.procs()));
        pts
    }

    /// The smallest configuration ever used (the job's "starting processor
    /// set" in the paper's smallest-shrink-point rule).
    pub fn smallest_visited(&self) -> Option<ProcessorConfig> {
        self.visited.iter().copied().min_by_key(|c| c.procs())
    }

    /// Measured redistribution cost between two configurations, if any.
    pub fn redist_cost(&self, from: ProcessorConfig, to: ProcessorConfig) -> Option<f64> {
        self.redist_costs.get(&(from, to)).copied()
    }
}

/// The profiler proper: one [`JobProfile`] per job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profiler {
    jobs: HashMap<JobId, JobProfile>,
}

impl Profiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed iteration (called from the Remap Scheduler when an
    /// application checks in at a resize point).
    pub fn record_iteration(
        &mut self,
        job: JobId,
        config: ProcessorConfig,
        iter_time: f64,
        redist_time: f64,
    ) {
        let p = self.jobs.entry(job).or_default();
        if !p.visited.contains(&config) {
            p.visited.push(config);
        }
        let (sum, n) = p.stats.entry(config).or_insert((0.0, 0));
        *sum += iter_time;
        *n += 1;
        p.history.push(PerfRecord {
            config,
            iter_time,
            redist_time,
        });
    }

    /// Record an actuated resize and its measured redistribution cost.
    pub fn record_resize(&mut self, job: JobId, resize: Resize, redist_seconds: f64) {
        let p = self.jobs.entry(job).or_default();
        let (from, to) = match resize {
            Resize::Expanded { from, to } | Resize::Shrunk { from, to } => (from, to),
        };
        p.redist_costs.insert((from, to), redist_seconds);
        p.last_resize = Some(resize);
        // A successfully actuated resize supersedes any failed-expansion
        // verdict.
        p.failed_expansion = None;
    }

    /// Record that `job`'s expansion `from -> to` failed to actuate and the
    /// job reverted to `from`. Until the next successful resize (or a phase
    /// change) the profile reports `last_expansion_improved() == Some(false)`
    /// so the Remap Scheduler treats the attempt exactly like an expansion
    /// that did not help.
    pub fn mark_expansion_failed(
        &mut self,
        job: JobId,
        from: ProcessorConfig,
        to: ProcessorConfig,
    ) {
        let p = self.jobs.entry(job).or_default();
        p.failed_expansion = Some((from, to));
        p.last_resize = None;
    }

    pub fn profile(&self, job: JobId) -> Option<&JobProfile> {
        self.jobs.get(&job)
    }

    /// Every tracked job with its profile (iteration order unspecified).
    pub fn profiles(&self) -> impl Iterator<Item = (&JobId, &JobProfile)> {
        self.jobs.iter()
    }

    /// Profile accessor that creates an empty profile on first touch.
    pub fn profile_mut(&mut self, job: JobId) -> &mut JobProfile {
        self.jobs.entry(job).or_default()
    }

    pub fn forget(&mut self, job: JobId) {
        self.jobs.remove(&job);
    }

    /// Drop a job's timing history (iteration records, per-config stats,
    /// visited configurations, last-resize verdict) while keeping its
    /// measured redistribution costs. Used at application phase changes,
    /// where previous iteration times stop being predictive.
    pub fn reset_timing(&mut self, job: JobId) {
        if let Some(p) = self.jobs.get_mut(&job) {
            p.history.clear();
            p.stats.clear();
            p.visited.clear();
            p.last_resize = None;
            p.failed_expansion = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(r: usize, c: usize) -> ProcessorConfig {
        ProcessorConfig::new(r, c)
    }

    #[test]
    fn records_and_averages() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(1, 2), 10.0, 0.0);
        p.record_iteration(j, cfg(1, 2), 12.0, 0.0);
        let prof = p.profile(j).unwrap();
        assert_eq!(prof.time_at(cfg(1, 2)), Some(11.0));
        assert_eq!(prof.visited(), &[cfg(1, 2)]);
        assert_eq!(prof.history().len(), 2);
    }

    #[test]
    fn expansion_improvement_detection() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(1, 2), 100.0, 0.0);
        assert_eq!(p.profile(j).unwrap().last_expansion_improved(), None);
        assert!(!p.profile(j).unwrap().ever_expanded());

        p.record_resize(
            j,
            Resize::Expanded {
                from: cfg(1, 2),
                to: cfg(2, 2),
            },
            5.0,
        );
        p.record_iteration(j, cfg(2, 2), 80.0, 5.0);
        let prof = p.profile(j).unwrap();
        assert!(prof.ever_expanded());
        assert_eq!(prof.last_expansion_improved(), Some(true));
        assert_eq!(prof.redist_cost(cfg(1, 2), cfg(2, 2)), Some(5.0));
    }

    #[test]
    fn failed_expansion_detected() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(3, 4), 69.85, 0.0);
        p.record_resize(
            j,
            Resize::Expanded {
                from: cfg(3, 4),
                to: cfg(4, 4),
            },
            4.41,
        );
        p.record_iteration(j, cfg(4, 4), 74.91, 4.41);
        assert_eq!(p.profile(j).unwrap().last_expansion_improved(), Some(false));
    }

    #[test]
    fn shrink_points_are_visited_configs_largest_first() {
        let mut p = Profiler::new();
        let j = JobId(1);
        for (c, t) in [(cfg(1, 2), 100.0), (cfg(2, 2), 70.0), (cfg(2, 3), 55.0), (cfg(3, 3), 50.0)] {
            p.record_iteration(j, c, t, 0.0);
        }
        let pts = p.profile(j).unwrap().shrink_points(cfg(3, 3));
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].config, cfg(2, 3));
        assert_eq!(pts[0].frees, 3);
        assert!((pts[0].degradation - 5.0).abs() < 1e-12);
        assert_eq!(pts[2].config, cfg(1, 2));
        assert_eq!(pts[2].frees, 7);
        assert_eq!(
            p.profile(j).unwrap().smallest_visited(),
            Some(cfg(1, 2))
        );
    }

    #[test]
    fn unexpanded_job_has_no_expansion_verdict() {
        let mut p = Profiler::new();
        let j = JobId(9);
        p.record_iteration(j, cfg(2, 2), 50.0, 0.0);
        // A shrink does not count as an expansion.
        p.record_resize(
            j,
            Resize::Shrunk {
                from: cfg(2, 2),
                to: cfg(1, 2),
            },
            2.0,
        );
        p.record_iteration(j, cfg(1, 2), 90.0, 2.0);
        assert_eq!(p.profile(j).unwrap().last_expansion_improved(), None);
    }

    #[test]
    fn expansion_after_shrink_uses_latest_expansion() {
        let mut p = Profiler::new();
        let j = JobId(2);
        p.record_iteration(j, cfg(2, 2), 50.0, 0.0);
        p.record_resize(j, Resize::Expanded { from: cfg(2, 2), to: cfg(2, 3) }, 1.0);
        p.record_iteration(j, cfg(2, 3), 40.0, 1.0);
        p.record_resize(j, Resize::Shrunk { from: cfg(2, 3), to: cfg(2, 2) }, 1.0);
        p.record_iteration(j, cfg(2, 2), 50.0, 1.0);
        // Latest expansion (2x2 -> 2x3) improved, so the job may grow again.
        assert_eq!(p.profile(j).unwrap().last_expansion_improved(), Some(true));
    }

    #[test]
    fn reset_timing_keeps_redistribution_costs() {
        let mut p = Profiler::new();
        let j = JobId(3);
        p.record_iteration(j, cfg(2, 2), 50.0, 0.0);
        p.record_resize(j, Resize::Expanded { from: cfg(2, 2), to: cfg(2, 3) }, 4.0);
        p.record_iteration(j, cfg(2, 3), 40.0, 4.0);
        p.reset_timing(j);
        let prof = p.profile(j).unwrap();
        assert!(prof.history().is_empty());
        assert!(prof.visited().is_empty());
        assert_eq!(prof.last_resize(), None);
        assert_eq!(prof.last_expansion_improved(), None);
        // The measured cost survives — it is layout physics, not phase
        // performance.
        assert_eq!(prof.redist_cost(cfg(2, 2), cfg(2, 3)), Some(4.0));
    }

    #[test]
    fn failed_expansion_counts_as_not_improved() {
        let mut p = Profiler::new();
        let j = JobId(5);
        p.record_iteration(j, cfg(2, 2), 50.0, 0.0);
        p.mark_expansion_failed(j, cfg(2, 2), cfg(2, 4));
        let prof = p.profile(j).unwrap();
        assert_eq!(prof.failed_expansion(), Some((cfg(2, 2), cfg(2, 4))));
        assert_eq!(prof.last_expansion_improved(), Some(false));
        // A later successful resize clears the verdict.
        p.record_resize(j, Resize::Expanded { from: cfg(2, 2), to: cfg(4, 4) }, 1.0);
        assert_eq!(p.profile(j).unwrap().failed_expansion(), None);
        // ...and a phase change does too.
        p.mark_expansion_failed(j, cfg(2, 2), cfg(2, 4));
        p.reset_timing(j);
        assert_eq!(p.profile(j).unwrap().failed_expansion(), None);
        assert_eq!(p.profile(j).unwrap().last_expansion_improved(), None);
    }

    #[test]
    fn reset_timing_on_unknown_job_is_noop() {
        let mut p = Profiler::new();
        p.reset_timing(JobId(99));
        assert!(p.profile(JobId(99)).is_none());
    }

    #[test]
    fn forget_clears_state() {
        let mut p = Profiler::new();
        p.record_iteration(JobId(1), cfg(1, 2), 1.0, 0.0);
        p.forget(JobId(1));
        assert!(p.profile(JobId(1)).is_none());
    }
}
