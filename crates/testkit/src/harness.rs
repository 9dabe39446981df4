//! The deterministic harness: drives a [`SchedulerCore`] through a seeded
//! [`Scenario`], injecting the scheduled faults, and runs the invariant
//! oracle after **every** scheduler transition plus the trace oracle at the
//! end. Any violation is reported with the scenario seed so the run can be
//! reproduced exactly.
//!
//! The harness is exposed at two granularities: [`run_scenario`] drives a
//! run to completion, while [`Driver`] executes one transition per
//! [`Driver::step`] call so crash-restart drills can stop mid-run, recover
//! a core from its write-ahead log, splice it in with
//! [`Driver::swap_core`], and continue under the same oracles.
//!
//! # Event order
//!
//! The driver runs on the discrete-event queue from `reshape-clustersim`.
//! Its order is "earliest of the next submission or the earliest
//! check-in, ties to the submission, then to the lowest job id", encoded
//! on [`EventQueue::push_keyed`]:
//!
//! * every submission is queued up-front at its arrival time with key `0`
//!   (arrivals are non-decreasing and pushed in index order, so the FIFO
//!   `seq` tie keeps submissions in submission order);
//! * a check-in for job `j` is queued with key `1 + j.0` — job ids start
//!   at 1, so any simultaneous submission outranks it, and simultaneous
//!   check-ins drain lowest-id first.
//!
//! A job has exactly one *valid* pending check-in at a time; re-pacing
//! (cancel → `now + 0.01`, hang → watchdog deadline, node loss → survivor
//! pace) bumps a per-job generation counter, and pops whose generation is
//! stale are skipped without counting as transitions. `tests/des_sweep.rs`
//! pins every seed's statistics and final core snapshot as recorded
//! digests.

use std::collections::BTreeMap;

use reshape_clustersim::EventQueue;
use reshape_core::{Directive, EventKind, JobId, JobState, SchedulerCore, StartAction};

use crate::oracle;
use crate::scenario::{generate, Fault, Scenario};

/// What a run did — used by the harness tests to prove the generated
/// schedules actually exercise the interesting paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    pub transitions: usize,
    pub starts: usize,
    pub expansions: usize,
    pub shrinks: usize,
    pub expand_failures: usize,
    pub job_failures: usize,
    pub cancellations: usize,
    /// Hangs injected by [`Fault::HangAtCheckin`].
    pub hangs_injected: usize,
    /// Hung jobs killed by the harness's virtual-time watchdog model. A
    /// clean run has `watchdog_kills == hangs_injected`: every hang is
    /// detected, and no healthy job is ever killed.
    pub watchdog_kills: usize,
    /// Node losses the job outlived via forced shrink
    /// ([`Fault::NodeLoss`] with the buddy intact).
    pub node_losses_survived: usize,
}

/// Virtual seconds a hung job sits silent before the modeled watchdog
/// kills it (the deadline a real deployment derives from the profiled
/// iteration time; a constant is fine for the virtual-time harness).
const WATCHDOG_DEADLINE: f64 = 500.0;

/// Upper bound on scheduler transitions per run; generated workloads use a
/// few hundred, so hitting this means a livelock.
const MAX_TRANSITIONS: usize = 100_000;

/// Expand `seed` and drive it. See [`run_scenario`].
pub fn run_seed(seed: u64) -> Result<RunStats, String> {
    run_scenario(&generate(seed))
}

/// Drive `scenario` to completion. Returns the first invariant violation
/// (prefixed with the seed) or the run's statistics.
pub fn run_scenario(sc: &Scenario) -> Result<RunStats, String> {
    run_scenario_on(sc, SchedulerCore::new(sc.total_procs, sc.policy))
}

/// [`run_scenario`] on a caller-prepared core — the planted-bug tests use
/// this to hand in a core with a chaos hook enabled and prove the oracle
/// notices.
pub fn run_scenario_on(sc: &Scenario, core: SchedulerCore) -> Result<RunStats, String> {
    Driver::new(sc, core).finish().map(|(stats, _)| stats)
}

/// One event on the harness clock.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Submit scenario job `index`.
    Submit(usize),
    /// Check-in (or watchdog deadline) for a running job. `gen` is the
    /// pacing generation it was scheduled under; a mismatch means the job
    /// was re-paced (or removed) after this event was queued, and the pop
    /// is ignored.
    Checkin { job: JobId, gen: u64 },
}

/// Per-running-job bookkeeping of the simulated application side.
struct Live {
    plan: usize,
    checkins: usize,
    expand_fault_armed: bool,
    hung: bool,
    /// Pacing generation of the job's one valid pending check-in.
    gen: u64,
}

/// Step-able scenario executor. Each [`Driver::step`] performs exactly one
/// scheduler transition (a submission, a check-in, or a watchdog kill) and
/// runs the invariant oracle; [`Driver::finish`] runs the remainder plus
/// the end-of-run trace oracle.
pub struct Driver<'a> {
    sc: &'a Scenario,
    core: SchedulerCore,
    live: BTreeMap<JobId, Live>,
    ids: Vec<Option<JobId>>,
    queue: EventQueue<Ev>,
    transitions: usize,
    hangs_injected: usize,
    watchdog_kills: usize,
    node_losses_survived: usize,
}

impl<'a> Driver<'a> {
    pub fn new(sc: &'a Scenario, core: SchedulerCore) -> Self {
        let mut queue = EventQueue::new();
        for (i, plan) in sc.jobs.iter().enumerate() {
            queue.push_keyed(plan.arrival, 0, Ev::Submit(i));
        }
        Driver {
            sc,
            core,
            live: BTreeMap::new(),
            ids: vec![None; sc.jobs.len()],
            queue,
            transitions: 0,
            hangs_injected: 0,
            watchdog_kills: 0,
            node_losses_survived: 0,
        }
    }

    /// Transitions executed so far (stale pops excluded).
    pub fn transitions(&self) -> usize {
        self.transitions
    }

    pub fn core(&self) -> &SchedulerCore {
        &self.core
    }

    pub fn core_mut(&mut self) -> &mut SchedulerCore {
        &mut self.core
    }

    /// Replace the scheduler mid-run (crash-restart drills splice in a core
    /// recovered from the crashed one's WAL) and return the old core. The
    /// application side (live bookkeeping and pending check-ins) is
    /// untouched: the simulated jobs kept running while the scheduler was
    /// down, exactly like the paper's decoupled resize library.
    pub fn swap_core(&mut self, core: SchedulerCore) -> SchedulerCore {
        std::mem::replace(&mut self.core, core)
    }

    /// Execute one transition. `Ok(true)` means progress was made,
    /// `Ok(false)` means the event queue is drained.
    pub fn step(&mut self) -> Result<bool, String> {
        loop {
            let Some((now, ev)) = self.queue.pop() else {
                return Ok(false);
            };
            match ev {
                Ev::Submit(index) => {
                    self.transition_guard()?;
                    let plan = &self.sc.jobs[index];
                    let (id, starts) = self.core.submit(plan.spec.clone(), now);
                    self.ids[index] = Some(id);
                    self.register(&starts, now);
                    break;
                }
                Ev::Checkin { job, gen } => {
                    // Stale pacing generation: the job was re-paced or went
                    // terminal after this event was queued.
                    if self.live.get(&job).is_none_or(|l| l.gen != gen) {
                        continue;
                    }
                    self.transition_guard()?;
                    self.checkin(job, now)?;
                    break;
                }
            }
        }
        oracle::check_invariants(&self.core).map_err(|e| self.fail(e))?;
        Ok(true)
    }

    /// Run the remaining transitions and the end-of-run trace oracle.
    /// Returns the statistics and the final core (crash drills compare its
    /// snapshot against an uninterrupted run's).
    pub fn finish(mut self) -> Result<(RunStats, SchedulerCore), String> {
        while self.step()? {}
        let need: BTreeMap<JobId, usize> = self
            .ids
            .iter()
            .zip(&self.sc.jobs)
            .filter_map(|(id, p)| id.map(|id| (id, p.spec.initial.procs())))
            .collect();
        oracle::check_trace(&self.core, self.core.events(), &need, self.sc.policy)
            .map_err(|e| self.fail(e))?;
        let mut st = stats(self.transitions, self.core.events());
        st.hangs_injected = self.hangs_injected;
        st.watchdog_kills = self.watchdog_kills;
        // Cross-check the harness's own count against the event trace: a
        // forced shrink that never produced a NodeFailed event (or vice
        // versa) would be a reporting bug.
        if st.node_losses_survived != self.node_losses_survived {
            return Err(self.fail(format!(
                "node-loss accounting diverged: {} reported, {} in the trace",
                self.node_losses_survived, st.node_losses_survived
            )));
        }
        Ok((st, self.core))
    }

    fn transition_guard(&mut self) -> Result<(), String> {
        self.transitions += 1;
        if self.transitions > MAX_TRANSITIONS {
            return Err(self.fail(format!(
                "no progress after {MAX_TRANSITIONS} transitions — livelock"
            )));
        }
        Ok(())
    }

    fn fail(&self, msg: String) -> String {
        format!("seed {}: {}", self.sc.seed, msg)
    }

    /// Re-pace `id`: bump its generation and queue the one valid pending
    /// check-in at `at`, ranked below simultaneous submissions and among
    /// simultaneous check-ins by job id.
    fn pace(&mut self, id: JobId, at: f64) {
        let l = self.live.get_mut(&id).expect("pacing a live job");
        l.gen += 1;
        let gen = l.gen;
        self.queue.push_keyed(at, 1 + id.0, Ev::Checkin { job: id, gen });
    }

    /// Record scheduler-started jobs as live applications and queue their
    /// first check-ins.
    fn register(&mut self, starts: &[StartAction], now: f64) {
        for s in starts {
            let plan = self
                .ids
                .iter()
                .position(|i| *i == Some(s.job))
                .expect("started job was submitted");
            let work = self.sc.jobs[plan].work;
            self.live.insert(
                s.job,
                Live {
                    plan,
                    checkins: 0,
                    expand_fault_armed: true,
                    hung: false,
                    gen: 0,
                },
            );
            self.pace(s.job, now + work / s.config.procs() as f64);
        }
    }

    /// Process one application check-in (or watchdog deadline), firing any
    /// due fault.
    fn checkin(&mut self, id: JobId, now: f64) -> Result<(), String> {
        let (plan_idx, checkins, armed, hung) = {
            let l = self.live.get_mut(&id).expect("checkin for live job");
            if !l.hung {
                l.checkins += 1;
            }
            (l.plan, l.checkins, l.expand_fault_armed, l.hung)
        };
        let plan = &self.sc.jobs[plan_idx];

        if hung {
            let starts = self
                .core
                .on_failed(id, "hung: missed watchdog heartbeat deadline".into(), now);
            self.live.remove(&id);
            self.register(&starts, now);
            self.watchdog_kills += 1;
            return Ok(());
        }

        // A job cancelled at an earlier check-in comes back one more time to
        // pick up its Terminate directive, like a real driver would.
        let config = match self.core.job(id).map(|r| r.state.clone()) {
            Some(JobState::Running { config }) => config,
            _ => {
                let (d, starts) = self.core.resize_point(id, 0.0, 0.0, now);
                self.register(&starts, now);
                if d != Directive::Terminate {
                    return Err(format!("{id}: expected Terminate after cancel, got {d:?}"));
                }
                self.live.remove(&id);
                return Ok(());
            }
        };

        match plan.fault {
            Some(Fault::FailAtCheckin(k)) if k == checkins => {
                let starts = self.core.on_failed(id, "injected node failure".into(), now);
                self.live.remove(&id);
                self.register(&starts, now);
                return Ok(());
            }
            Some(Fault::CancelAtCheckin(k)) if k == checkins => {
                let starts = self.core.cancel(id, now);
                self.register(&starts, now);
                // One more check-in to receive Terminate.
                self.pace(id, now + 0.01);
                return Ok(());
            }
            Some(Fault::HangAtCheckin(k)) if k == checkins => {
                self.live.get_mut(&id).expect("still live").hung = true;
                self.pace(id, now + WATCHDOG_DEADLINE);
                self.hangs_injected += 1;
                return Ok(());
            }
            Some(Fault::NodeLoss { checkin: k, buddy_intact }) if k == checkins => {
                if buddy_intact && config.procs() > 1 {
                    let dead = [*self
                        .core
                        .job(id)
                        .expect("running job holds slots")
                        .slots
                        .last()
                        .expect("running job holds at least one slot")];
                    let to = reshape_core::ProcessorConfig::new(1, config.procs() - 1);
                    let starts = self.core.on_node_failed(id, &dead, to, now);
                    self.register(&starts, now);
                    self.node_losses_survived += 1;
                    self.pace(id, now + plan.work / to.procs() as f64);
                } else {
                    let starts =
                        self.core
                            .on_failed(id, "node lost with its buddy".into(), now);
                    self.live.remove(&id);
                    self.register(&starts, now);
                }
                return Ok(());
            }
            _ => {}
        }

        let iter_time = plan.work / config.procs() as f64;
        let (directive, starts) = self.core.resize_point(id, iter_time, 0.0, now);
        self.register(&starts, now);
        if let Directive::Expand { .. } = directive {
            if armed && matches!(plan.fault, Some(Fault::ExpandFailure)) {
                let starts = self.core.on_expand_failed(id, now);
                self.register(&starts, now);
                self.live.get_mut(&id).expect("still live").expand_fault_armed = false;
            }
        }

        if checkins >= plan.spec.iterations {
            let starts = self.core.on_finished(id, now);
            self.live.remove(&id);
            self.register(&starts, now);
        } else {
            let procs = match self.core.job(id).map(|r| r.state.clone()) {
                Some(JobState::Running { config }) => config.procs(),
                _ => config.procs(),
            };
            self.pace(id, now + plan.work / procs as f64);
        }
        Ok(())
    }
}

fn stats(transitions: usize, events: &[reshape_core::SchedEvent]) -> RunStats {
    let mut st = RunStats {
        transitions,
        ..Default::default()
    };
    for e in events {
        match e.kind {
            EventKind::Started { .. } => st.starts += 1,
            EventKind::Expanded { .. } => st.expansions += 1,
            EventKind::Shrunk { .. } => st.shrinks += 1,
            EventKind::ExpandFailed { .. } => st.expand_failures += 1,
            EventKind::Failed { .. } => st.job_failures += 1,
            EventKind::Cancelled => st.cancellations += 1,
            EventKind::NodeFailed { .. } => st.node_losses_survived += 1,
            _ => {}
        }
    }
    st
}
