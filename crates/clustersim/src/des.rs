//! The scale path of the discrete-event simulator: [`run_scale`] sweeps
//! clusters of up to tens of thousands of nodes and millions of jobs in
//! one process. A single driver pops the global [`EventQueue`] and steps
//! the real [`SchedulerCore`] (no per-rank threads), with `O(log n)`
//! queue operations and periodic folding of terminal-job state
//! ([`SchedulerCore::prune_terminal`]) so memory stays bounded by the
//! *live* job count, not the trace length.
//!
//! # Determinism contract
//!
//! The queue's pop order is a total order on `(time, tie-key, seq)` (see
//! [`crate::event`]): two runs that push the same events in the same
//! program order pop them in the same order, execute the same driver code
//! against the same [`SchedulerCore`] state, and therefore produce
//! byte-identical results — floating point included, because the sequence
//! of arithmetic is identical. `sim.rs` relies on the same contract to keep
//! [`crate::ClusterSim::run`] pinned to its recorded snapshots.
//!
//! # Clock-source rules
//!
//! Drivers stamp everything — scheduler calls, telemetry, trace spans —
//! with the popped event's virtual time, never wall time, and may only
//! schedule at `time >= now` (`EventQueue::schedule` asserts: a causality
//! back-edge is always a bug). Wall time exists solely *outside* the event
//! loop, to report how fast the simulator itself ran
//! ([`ScaleReport::wall_seconds`]).

use std::collections::HashMap;

use reshape_core::{
    Directive, JobId, JobSpec, JobState, ProcessorConfig, QueuePolicy, SchedulerCore,
    TopologyPref,
};
use serde::{Deserialize, Serialize};

use crate::event::{mix, EventQueue, TieBreak};

/// Configuration of a [`run_scale`] sweep. The seed fully determines the
/// synthetic job stream (sizes, lengths, arrival gaps), so a report is
/// reproducible bit for bit.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScaleConfig {
    /// Cluster processors.
    pub nodes: usize,
    /// Jobs in the arrival stream.
    pub jobs: u64,
    pub seed: u64,
    /// Percentage of jobs that are resizable master–worker style
    /// applications (the rest run statically).
    pub resizable_percent: u8,
    /// Iterations per job are drawn from `1..=max_iterations`.
    pub max_iterations: usize,
    /// Offered load: arrival gaps are paced so the stream demands about
    /// this fraction of the cluster's cpu-seconds.
    pub target_utilization: f64,
    /// Ordering among simultaneous events. [`TieBreak::Fifo`] is the
    /// recorded-baseline order; a seeded tie-break permutes same-timestamp
    /// events to flush order-dependent policy assumptions at scale.
    #[serde(default = "default_tie_break")]
    pub tie_break: TieBreak,
}

fn default_tie_break() -> TieBreak {
    TieBreak::Fifo
}

impl ScaleConfig {
    pub fn new(nodes: usize, jobs: u64) -> Self {
        ScaleConfig {
            nodes,
            jobs,
            seed: 1,
            resizable_percent: 10,
            max_iterations: 3,
            target_utilization: 0.7,
            tie_break: TieBreak::Fifo,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_tie_break(mut self, tie: TieBreak) -> Self {
        self.tie_break = tie;
        self
    }
}

/// Headline numbers of one [`run_scale`] sweep. Everything except
/// `wall_seconds`/`events_per_sec` is virtual and bit-deterministic for a
/// fixed config.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleReport {
    pub nodes: usize,
    pub jobs: u64,
    pub seed: u64,
    pub makespan: f64,
    pub utilization: f64,
    pub jobs_finished: u64,
    pub jobs_failed: u64,
    pub jobs_cancelled: u64,
    pub expansions: u64,
    pub shrinks: u64,
    pub peak_queue_depth: usize,
    /// Terminal-job records folded out of the scheduler mid-run to keep
    /// memory bounded.
    pub records_pruned: u64,
    pub events_processed: u64,
    pub wall_seconds: f64,
    pub events_per_sec: f64,
}

/// Flat spawn cost charged to every actuated resize in the scale sweep
/// (virtual seconds). The sweep's job mix carries no redistribution-priced
/// data (master–worker), so this stands in for process startup.
const SCALE_SPAWN_COST: f64 = 1.0;

/// Terminal records accumulated before the driver folds scheduler state
/// (drops the event trace, prunes terminal jobs).
const FOLD_THRESHOLD: usize = 16_384;

#[derive(Debug)]
enum ScaleEv {
    Arrival(u64),
    IterationEnd(JobId),
}

fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-job knobs, a pure function of `(seed, index)`.
struct ScaleJobParams {
    procs: usize,
    iterations: usize,
    /// Sequential work per iteration; iteration time is `work / procs`.
    work: f64,
    resizable: bool,
}

fn job_params(cfg: &ScaleConfig, i: u64) -> ScaleJobParams {
    let h = mix(cfg.seed ^ mix(i.wrapping_add(1)));
    let resizable = h % 100 < cfg.resizable_percent as u64;
    let h2 = mix(h);
    let procs = if resizable { 2 } else { 1 + (h2 % 4) as usize };
    let iterations = 1 + (mix(h2) % cfg.max_iterations.max(1) as u64) as usize;
    // Initial iteration time 20–100 virtual seconds.
    let iter_time = 20.0 + u01(mix(h ^ 0xD1F3)) * 80.0;
    ScaleJobParams {
        procs,
        iterations,
        work: iter_time * procs as f64,
        resizable,
    }
}

/// Mean arrival gap that offers `target_utilization` of the cluster's
/// cpu-seconds, from the job mix's expected demand.
fn mean_gap(cfg: &ScaleConfig) -> f64 {
    let rp = cfg.resizable_percent as f64 / 100.0;
    let mean_procs = rp * 2.0 + (1.0 - rp) * 2.5;
    let mean_iters = (1.0 + cfg.max_iterations.max(1) as f64) / 2.0;
    let mean_iter_time = 60.0;
    let cpu_seconds_per_job = mean_procs * mean_iters * mean_iter_time;
    cpu_seconds_per_job / (cfg.target_utilization * cfg.nodes as f64)
}

struct LiveScaleJob {
    work: f64,
    remaining: usize,
    last_redist: f64,
}

/// The scale sweep's driver: arrival source and per-job driver in one,
/// against the real scheduler.
struct ScaleDriver {
    cfg: ScaleConfig,
    core: SchedulerCore,
    live: HashMap<JobId, LiveScaleJob>,
    mean_gap: f64,
    last_now: f64,
    terminal_since_fold: usize,
    // Outcome counters, taken from the scheduler calls and directives the
    // driver sees (the trace is capped, so it cannot be the source).
    finished: u64,
    failed: u64,
    cancelled: u64,
    expansions: u64,
    shrinks: u64,
    peak_queue_depth: usize,
    records_pruned: u64,
}

impl ScaleDriver {
    fn new(cfg: ScaleConfig) -> Self {
        ScaleDriver {
            mean_gap: mean_gap(&cfg),
            core: SchedulerCore::new(cfg.nodes, QueuePolicy::Fcfs),
            cfg,
            live: HashMap::new(),
            last_now: 0.0,
            terminal_since_fold: 0,
            finished: 0,
            failed: 0,
            cancelled: 0,
            expansions: 0,
            shrinks: 0,
            peak_queue_depth: 0,
            records_pruned: 0,
        }
    }

    fn spec_for(&self, i: u64, p: &ScaleJobParams) -> JobSpec {
        let name = format!("j{i}");
        if p.resizable {
            JobSpec::new(
                name,
                TopologyPref::AnyCount {
                    min: 2,
                    max: 8,
                    step: 2,
                },
                ProcessorConfig::linear(p.procs),
                p.iterations,
            )
        } else {
            JobSpec::new(
                name,
                TopologyPref::AnyCount {
                    min: 1,
                    max: 8,
                    step: 1,
                },
                ProcessorConfig::linear(p.procs),
                p.iterations,
            )
            .static_job()
        }
    }

    /// Schedule the first iteration of newly started jobs.
    fn handle_starts(
        &mut self,
        starts: Vec<reshape_core::StartAction>,
        now: f64,
        queue: &mut EventQueue<ScaleEv>,
    ) {
        for s in starts {
            let j = self.live.get_mut(&s.job).expect("started job was submitted");
            j.last_redist = 0.0;
            queue.schedule(
                now,
                now + j.work / s.config.procs() as f64,
                ScaleEv::IterationEnd(s.job),
            );
        }
    }

    /// Drop the scheduler trace and terminal-job state so a million-job
    /// sweep runs in bounded memory.
    fn fold(&mut self) {
        self.core.drain_events();
        self.records_pruned += self.core.prune_terminal() as u64;
        self.terminal_since_fold = 0;
    }

    fn handle(&mut self, ev: ScaleEv, now: f64, queue: &mut EventQueue<ScaleEv>) {
        self.last_now = now;
        match ev {
            ScaleEv::Arrival(i) => {
                let p = job_params(&self.cfg, i);
                let spec = self.spec_for(i, &p);
                let (id, starts) = self.core.submit(spec, now);
                self.live.insert(
                    id,
                    LiveScaleJob {
                        work: p.work,
                        remaining: p.iterations,
                        last_redist: 0.0,
                    },
                );
                self.handle_starts(starts, now, queue);
                self.peak_queue_depth = self.peak_queue_depth.max(self.core.queue_len());
                if i + 1 < self.cfg.jobs {
                    let gap = -self.mean_gap * u01(mix(self.cfg.seed ^ mix(i) ^ 0xA5A5)).max(1e-12).ln();
                    queue.schedule(now, now + gap, ScaleEv::Arrival(i + 1));
                }
                if self.terminal_since_fold >= FOLD_THRESHOLD {
                    self.fold();
                }
            }
            ScaleEv::IterationEnd(id) => {
                let (work, remaining) = {
                    let j = self.live.get_mut(&id).expect("iteration end for live job");
                    j.remaining -= 1;
                    (j.work, j.remaining)
                };
                if remaining == 0 {
                    let starts = self.core.on_finished(id, now);
                    self.finished += 1;
                    self.live.remove(&id);
                    self.terminal_since_fold += 1;
                    self.handle_starts(starts, now, queue);
                    return;
                }
                let config = match self.core.job(id).map(|r| &r.state) {
                    Some(JobState::Running { config }) => *config,
                    _ => {
                        // Nothing in the scale stream cancels or fails jobs;
                        // a non-running record here would be a driver bug.
                        unreachable!("live job {id:?} is not running");
                    }
                };
                let iter_time = work / config.procs() as f64;
                let last_redist = self.live[&id].last_redist;
                let (directive, starts) = self.core.resize_point(id, iter_time, last_redist, now);
                let (next_procs, redist) = match directive {
                    Directive::NoChange => (config.procs(), 0.0),
                    Directive::Terminate => {
                        self.cancelled += 1;
                        self.live.remove(&id);
                        self.terminal_since_fold += 1;
                        self.handle_starts(starts, now, queue);
                        return;
                    }
                    Directive::Expand { to, .. } | Directive::Shrink { to } => {
                        if matches!(directive, Directive::Expand { .. }) {
                            self.expansions += 1;
                        } else {
                            self.shrinks += 1;
                        }
                        self.core
                            .note_redist_cost(id, config, to, SCALE_SPAWN_COST);
                        (to.procs(), SCALE_SPAWN_COST)
                    }
                };
                {
                    let j = self.live.get_mut(&id).expect("still live");
                    j.last_redist = redist;
                }
                queue.schedule(
                    now,
                    now + redist + work / next_procs as f64,
                    ScaleEv::IterationEnd(id),
                );
                self.handle_starts(starts, now, queue);
            }
        }
    }
}

/// Sweep a synthetic seeded job stream through the real scheduler on the
/// DES event queue: single process, single thread, `O(log n)` queue
/// operations, bounded memory. See [`ScaleConfig`] / [`ScaleReport`].
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    assert!(cfg.nodes >= 8, "need at least 8 nodes");
    let wall_start = std::time::Instant::now();
    let mut d = ScaleDriver::new(*cfg);
    let mut queue = EventQueue::with_tie_break(cfg.tie_break);
    if cfg.jobs > 0 {
        queue.push(0.0, ScaleEv::Arrival(0));
    }
    let mut events_processed = 0u64;
    while let Some((now, ev)) = queue.pop() {
        events_processed += 1;
        d.handle(ev, now, &mut queue);
    }
    d.fold();
    assert!(d.live.is_empty(), "every job must terminate");
    assert_eq!(
        d.finished + d.failed + d.cancelled,
        cfg.jobs,
        "every job must be counted terminal"
    );
    let makespan = d.last_now;
    let utilization = d.core.utilization(makespan);
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    ScaleReport {
        nodes: cfg.nodes,
        jobs: cfg.jobs,
        seed: cfg.seed,
        makespan,
        utilization,
        jobs_finished: d.finished,
        jobs_failed: d.failed,
        jobs_cancelled: d.cancelled,
        expansions: d.expansions,
        shrinks: d.shrinks,
        peak_queue_depth: d.peak_queue_depth,
        records_pruned: d.records_pruned,
        events_processed,
        wall_seconds,
        events_per_sec: events_processed as f64 / wall_seconds.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sweep_is_deterministic_and_complete() {
        let cfg = ScaleConfig::new(64, 400).with_seed(9);
        let a = run_scale(&cfg);
        let b = run_scale(&cfg);
        assert_eq!(a.jobs_finished + a.jobs_failed + a.jobs_cancelled, 400);
        assert_eq!(a.jobs_finished, b.jobs_finished);
        assert_eq!(a.makespan, b.makespan, "virtual results are bit-stable");
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.events_processed, b.events_processed);
        assert!(a.utilization > 0.0 && a.utilization <= 1.0);
        assert!(a.events_processed >= 400 * 2, "arrival + at least one iteration each");
    }

    #[test]
    fn scale_sweep_exercises_resizes_and_prunes_memory() {
        let cfg = ScaleConfig {
            resizable_percent: 50,
            ..ScaleConfig::new(128, 40_000).with_seed(3)
        };
        let r = run_scale(&cfg);
        assert_eq!(r.jobs_finished, 40_000, "{r:?}");
        assert!(r.expansions > 0, "resizable jobs on a paced cluster must expand: {r:?}");
        assert!(
            r.records_pruned > 0,
            "a 40k-job sweep must fold terminal records mid-run: {r:?}"
        );
        assert!(r.events_per_sec > 0.0 && r.wall_seconds > 0.0);
    }
}
