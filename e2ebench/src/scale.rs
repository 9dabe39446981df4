//! `scale-saturated`: `run_scale` with arrivals above capacity and about
//! half the jobs resizable, so the queue stays thousands deep and the
//! shrink-for-queued half of the paper's §3.1 policy runs.

use std::time::Instant;

use reshape_clustersim::{run_scale, ScaleConfig, ScaleReport};
use reshape_testkit::SplitMix64;

use crate::out::{another_call, CheckKind, Outcome};
use crate::spans::Spans;

/// Per stream. Twice the jobs on twice the nodes doubles the queue depth,
/// but such streams lost 18 % of their speed to a memory-heavy process on
/// the other core, where these lose none: the run-to-run spread on a shared
/// host follows.
const NODES: usize = 500;
const JOBS: u64 = 5_000;
/// Offered load over capacity: the queue never drains until arrivals stop.
const TARGET_UTILIZATION: f64 = 1.5;
const RESIZABLE_PERCENT: u8 = 50;
/// Independent job streams per unit of work. A stream's cost rises steeply
/// with its own peak queue depth, which differs by several percent from
/// stream to stream; a unit of several streams averages that out, so one
/// seed's unit costs about what another's does.
const STREAMS: usize = 8;
/// `run_scale` generates its job stream inside the call, so its set-up is
/// a warm-up call on this share of one stream, which pays allocator and
/// table growth before timing.
const WARMUP_DIVISOR: u64 = 2;
const SETUP_REPS: usize = 9;

fn config(seed: u64, jobs: u64) -> ScaleConfig {
    let mut cfg = ScaleConfig::new(NODES, jobs).with_seed(seed);
    cfg.target_utilization = TARGET_UTILIZATION;
    cfg.resizable_percent = RESIZABLE_PERCENT;
    cfg
}

/// The virtual outcome of a stream, which repeat calls must reproduce.
fn fingerprint(r: &ScaleReport) -> (u64, u64, u64, usize) {
    (
        r.makespan.to_bits(),
        r.utilization.to_bits(),
        r.events_processed,
        r.peak_queue_depth,
    )
}

pub fn run(seed: u64, seconds: f64, spans: &Spans) -> Outcome {
    let mut o = Outcome::default();
    let mut rng = SplitMix64::new(seed);
    let cfgs: Vec<ScaleConfig> = (0..STREAMS).map(|_| config(rng.next_u64(), JOBS)).collect();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(run_scale(&config(cfgs[0].seed, JOBS / WARMUP_DIVISOR)));
        o.setup_s.push(t.elapsed().as_secs_f64());
    }
    o.env.push((
        "scale_saturated",
        format!(
            "{STREAMS} streams of {JOBS} jobs on {NODES} nodes, target utilization \
             {TARGET_UTILIZATION}, {RESIZABLE_PERCENT}% resizable"
        ),
    ));

    let dropped = reshape_telemetry::counter("core.sched_events_dropped");
    let t_run = Instant::now();
    let mut first: Option<Vec<ScaleReport>> = None;
    let mut diverged = 0;
    while another_call(t_run, &o.walls, seconds) {
        let dropped0 = dropped.get();
        let mut unit = Vec::with_capacity(STREAMS);
        let t = Instant::now();
        for cfg in &cfgs {
            let s0 = spans.now();
            // `run_scale` asserts that every job reached a terminal state,
            // so a returned report means all `JOBS` are terminal.
            unit.push(run_scale(cfg));
            spans.record(1, 0, "run_scale", "scale-saturated", s0, spans.now());
        }
        o.walls.push(t.elapsed().as_secs_f64());
        if spans.on() {
            o.drain_program_spans();
        }
        o.items += JOBS * STREAMS as u64;
        o.attempted += JOBS * STREAMS as u64;
        match &first {
            Some(f) => {
                let same = f
                    .iter()
                    .zip(&unit)
                    .all(|(a, b)| fingerprint(a) == fingerprint(b));
                diverged += usize::from(!same);
            }
            None => {
                o.layer(
                    "core.sched_events_dropped",
                    (dropped.get() - dropped0) as f64,
                );
                first = Some(unit);
            }
        }
    }
    let reps = first.expect("at least one call");
    let units = o.walls.len();

    o.check(
        "scale.deterministic",
        CheckKind::Output,
        diverged == 0,
        format!(
            "{diverged} of {} repeat units changed a virtual result",
            units - 1
        ),
    );
    let counted: u64 = reps
        .iter()
        .map(|r| r.jobs_finished + r.jobs_failed + r.jobs_cancelled)
        .sum();
    let jobs = JOBS * STREAMS as u64;
    o.check(
        "scale.report_terminal_count",
        CheckKind::Accounting,
        counted == jobs,
        format!(
            "ScaleReport counts {counted} terminal jobs of {jobs} (gap {}): the driver folds the \
             capped scheduler trace only on arrivals",
            jobs - counted.min(jobs)
        ),
    );

    let mean = |f: &dyn Fn(&ScaleReport) -> f64| reps.iter().map(f).sum::<f64>() / STREAMS as f64;
    o.report("jobs_per_s", o.items_per_s(), "jobs/s");
    o.report("utilization", mean(&|r| r.utilization), "ratio");
    o.report("makespan_s", mean(&|r| r.makespan), "s");
    o.report(
        "failed_ratio",
        o.failed as f64 / o.attempted as f64,
        "ratio",
    );
    o.virtual_s = mean(&|r| r.makespan);

    let events: u64 = reps.iter().map(|r| r.events_processed).sum();
    o.layer("clustersim.events", events as f64);
    o.layer(
        "clustersim.ns_per_event",
        reshape_perfbase::median(&o.walls) / events as f64 * 1e9,
    );
    o.layer(
        "core.peak_queue_depth",
        reps.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0) as f64,
    );
    o.layer(
        "core.resizes",
        reps.iter().map(|r| r.expansions + r.shrinks).sum::<u64>() as f64,
    );
    o.layer(
        "core.trace_unaccounted_jobs",
        (jobs - counted.min(jobs)) as f64,
    );
    o
}
