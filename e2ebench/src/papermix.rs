//! `paper-mix`: the paper's own experiment (Table 4) at many jobs — a
//! seeded stream of LU, MM, Jacobi, FFT and master–worker jobs, with the
//! calibrated System X models of `random_workload`, through
//! `ClusterSim::run` on 36 processors.

use std::time::Instant;

use reshape_clustersim::{random_workload, ClusterSim, MachineParams, SimResult};

use crate::out::{another_call, tail, CheckKind, Outcome};
use crate::spans::Spans;

const PROCS: usize = 36;
/// Enough jobs that the scheduler's event trace passes its retention cap
/// many times over, as a long production run would.
const JOBS: usize = 10_000;
/// Set-up ends with a warm-up call on this share of the stream, which pays
/// allocator and table growth before timing.
const WARMUP_DIVISOR: usize = 10;
const SETUP_REPS: usize = 9;

/// Peak number of jobs submitted but not yet started.
fn peak_queue_depth(res: &SimResult) -> usize {
    let mut edges: Vec<(f64, i64)> = Vec::with_capacity(2 * res.jobs.len());
    for j in &res.jobs {
        edges.push((j.submitted, 1));
        edges.push((j.started, -1));
    }
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let (mut depth, mut peak) = (0i64, 0i64);
    for (i, &(t, d)) in edges.iter().enumerate() {
        depth += d;
        // Judge depth only once every edge at this instant is applied: a
        // job submitted and started at the same time never queued.
        if edges.get(i + 1).is_none_or(|n| n.0 != t) {
            peak = peak.max(depth);
        }
    }
    peak as usize
}

/// Expansions plus shrinks, from each job's profiler history (one record
/// per iteration, with the configuration it ran on).
fn resizes(res: &SimResult) -> usize {
    res.jobs
        .iter()
        .map(|j| {
            j.iter_log
                .windows(2)
                .filter(|w| w[0].config != w[1].config)
                .count()
        })
        .sum()
}

pub fn run(seed: u64, seconds: f64, spans: &Spans) -> Outcome {
    let mut o = Outcome::default();
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let w = random_workload(seed, JOBS, PROCS);
        let sim = ClusterSim::new(PROCS, MachineParams::system_x());
        std::hint::black_box(sim.run(&w.jobs[..JOBS / WARMUP_DIVISOR]));
        o.setup_s.push(t.elapsed().as_secs_f64());
        input = Some((w, sim));
    }
    let (w, sim) = input.expect("at least one set-up");
    o.env
        .push(("paper_mix", format!("{JOBS} jobs on {PROCS} processors")));

    let dropped = reshape_telemetry::counter("core.sched_events_dropped");
    let t_run = Instant::now();
    let mut first: Option<SimResult> = None;
    let mut diverged = 0;
    while another_call(t_run, &o.walls, seconds) {
        let dropped0 = dropped.get();
        let s0 = spans.now();
        let t = Instant::now();
        let res = sim.run(&w.jobs);
        o.walls.push(t.elapsed().as_secs_f64());
        spans.record(1, 0, "ClusterSim::run", "paper-mix", s0, spans.now());
        if spans.on() {
            o.drain_program_spans();
        }
        let finished = res.jobs.iter().filter(|j| j.finished.is_finite()).count();
        o.items += finished as u64;
        o.attempted += JOBS as u64;
        o.failed += (JOBS - finished) as u64;
        match &first {
            Some(f) => {
                let same = f.makespan.to_bits() == res.makespan.to_bits()
                    && f.utilization.to_bits() == res.utilization.to_bits()
                    && f.telemetry.mean_turnaround.to_bits()
                        == res.telemetry.mean_turnaround.to_bits();
                diverged += usize::from(!same);
            }
            None => {
                o.layer(
                    "core.sched_events_dropped",
                    (dropped.get() - dropped0) as f64,
                );
                first = Some(res);
            }
        }
    }
    let res = first.expect("at least one call");
    let calls = o.walls.len();

    let terminal = res.jobs.iter().filter(|j| j.finished.is_finite()).count();
    o.check(
        "paper_mix.outcomes_terminal",
        CheckKind::Output,
        res.jobs.len() == JOBS && terminal == JOBS,
        format!(
            "{terminal} of {JOBS} job outcomes finished ({} returned)",
            res.jobs.len()
        ),
    );
    o.check(
        "paper_mix.deterministic",
        CheckKind::Output,
        diverged == 0,
        format!(
            "{diverged} of {} repeat calls changed a virtual result",
            calls - 1
        ),
    );
    let tel = &res.telemetry;
    let counted = tel.jobs_finished + tel.jobs_failed + tel.jobs_cancelled;
    o.check(
        "paper_mix.telemetry_terminal_count",
        CheckKind::Accounting,
        counted == JOBS,
        format!(
            "telemetry counts {counted} terminal jobs of {JOBS} (gap {}): SimResult::telemetry \
             counts the scheduler event trace, capped at DEFAULT_EVENT_CAP and drained once",
            JOBS - counted.min(JOBS)
        ),
    );

    let turnarounds: Vec<f64> = res
        .jobs
        .iter()
        .map(|j| j.turnaround)
        .filter(|t| t.is_finite())
        .collect();
    let mean = turnarounds.iter().sum::<f64>() / turnarounds.len() as f64;
    o.report("jobs_per_s", o.items_per_s(), "jobs/s");
    o.report("turnaround_mean_s", mean, "s");
    if let Some((v, pct)) = tail(&turnarounds) {
        o.report("turnaround_tail_s", v, "s");
        o.report("turnaround_tail_percentile", pct, "%");
    }
    o.report("turnaround_n", turnarounds.len() as f64, "jobs");
    o.report("utilization", res.utilization, "ratio");
    o.report("makespan_s", res.makespan, "s");
    o.report(
        "failed_ratio",
        o.failed as f64 / o.attempted as f64,
        "ratio",
    );
    o.virtual_s = res.makespan;

    let events = JOBS + w.jobs.iter().map(|j| j.spec.iterations).sum::<usize>();
    o.layer("clustersim.events", events as f64);
    o.layer(
        "clustersim.ns_per_event",
        reshape_perfbase::median(&o.walls) / events as f64 * 1e9,
    );
    o.layer("core.peak_queue_depth", peak_queue_depth(&res) as f64);
    o.layer("core.resizes", resizes(&res) as f64);
    o.layer(
        "core.trace_unaccounted_jobs",
        (JOBS - counted.min(JOBS)) as f64,
    );
    o.layer(
        "perfmodel.bytes_redistributed",
        tel.bytes_redistributed as f64,
    );
    o
}
