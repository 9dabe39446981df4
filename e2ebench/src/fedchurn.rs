//! `federation-churn`: a seeded multi-tenant job stream through
//! `federation::sim::run_with` on shards of unequal size. Quotas bind, so
//! the router queues; some jobs are wider than the smallest shard, so
//! leases get lent; one scripted shard kill is recovered from its WAL and
//! one partition window is healed. No data moves.

use std::time::Instant;

use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};
use reshape_federation::sim::{
    run_with_fed, FedJob, FedReport, FedSimConfig, KillPlan, PartitionPlan,
};
use reshape_federation::{Federation, TenantConfig};
use reshape_testkit::{check_ledger, SplitMix64};

use crate::out::{another_call, tail, CheckKind, Outcome};
use crate::spans::Spans;

/// Unequal shards, 512 processors in all; the smallest is 40 wide.
const SHARDS: [usize; 8] = [40, 48, 56, 64, 64, 72, 80, 88];
const JOBS: usize = 60_000;
const TENANTS: usize = 6;
/// Widest job: wider than the smallest shard, so placing it there needs a
/// lease.
const WIDE: usize = 48;
/// Mean virtual seconds between arrivals.
const MEAN_GAP: f64 = 0.2;
const LEASE_TERM: f64 = 300.0;
/// Set-up ends with a warm-up call on this share of the stream (without
/// the kill and the partition), which pays allocator and table growth
/// before timing.
const WARMUP_DIVISOR: usize = 10;
const SETUP_REPS: usize = 9;

fn generate(seed: u64) -> FedSimConfig {
    let mut ten = SplitMix64::new(seed ^ 0xE2E0_0001);
    let mut jobs_rng = SplitMix64::new(seed ^ 0xE2E0_0002);
    // Quotas well under each tenant's demand: admissions wait at the
    // router. Queue bounds no stream reaches: nothing is shed.
    let tenants: Vec<TenantConfig> = (0..TENANTS)
        .map(|_| {
            TenantConfig::new(
                ten.usize_range(96, 128),
                *ten.pick(&[0.5, 1.0, 2.0]),
                1 << 30,
            )
        })
        .collect();
    let mut arrival = 0.0;
    let jobs: Vec<FedJob> = (0..JOBS)
        .map(|i| {
            arrival += -MEAN_GAP * (1.0 - jobs_rng.f64_range(0.0, 1.0)).ln();
            let width = if jobs_rng.chance(1, 50) {
                jobs_rng.usize_range(SHARDS[0] + 1, WIDE)
            } else {
                jobs_rng.usize_range(1, 8)
            };
            FedJob {
                tenant: jobs_rng.usize_range(0, TENANTS - 1) as u32,
                spec: JobSpec::new(
                    format!("churn-{i}"),
                    TopologyPref::AnyCount {
                        min: 1,
                        max: 64,
                        step: 1,
                    },
                    ProcessorConfig::linear(width),
                    jobs_rng.usize_range(1, 4),
                ),
                arrival,
                work: jobs_rng.f64_range(2.0, 8.0) * width as f64,
                fail_at: None,
                cancel_at: None,
            }
        })
        .collect();
    let mut cfg = FedSimConfig::new(SHARDS.to_vec(), tenants, jobs);
    // A term longer than any job runs: a wide job never loses borrowed
    // processors it cannot shrink off, which would fail it.
    cfg.lease.term = LEASE_TERM;
    cfg.kills = vec![KillPlan {
        at_transition: 2 * JOBS as u64,
        shard: 3,
        down_for: 15.0,
    }];
    let mid = arrival * 0.6;
    cfg.partitions = vec![PartitionPlan {
        groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
        t_start: mid,
        t_heal: mid + 40.0,
    }];
    cfg
}

/// Wall time between consecutive hook calls — one federation event each —
/// and the events in which a shard came back up (its WAL replay).
#[derive(Default)]
struct EventClock {
    /// Record a span per event (the first traced call only: one call's
    /// spans already run to hundreds of thousands).
    record: bool,
    last: Option<Instant>,
    gaps_ns: Vec<f64>,
    recover_s: f64,
    down: Vec<bool>,
}

impl EventClock {
    fn tick(&mut self, fed: &Federation, spans: &Spans, s_last: &mut f64) {
        let now = Instant::now();
        let dt = self
            .last
            .map_or(0.0, |l| now.duration_since(l).as_secs_f64());
        self.last = Some(now);
        self.gaps_ns.push(dt * 1e9);
        let down: Vec<bool> = fed.shards().iter().map(|s| !s.is_live()).collect();
        let recovered = self.down.iter().zip(&down).any(|(was, is)| *was && !*is);
        if recovered {
            self.recover_s += dt;
        }
        self.down = down;
        if self.record {
            let s_now = spans.now();
            let name = if recovered {
                "event (recovery)"
            } else {
                "event"
            };
            spans.record(1, 0, name, "federation-churn", *s_last, s_now);
            *s_last = s_now;
        }
    }
}

pub fn run(seed: u64, seconds: f64, spans: &Spans) -> Outcome {
    let mut o = Outcome::default();
    let mut cfg = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let full = generate(seed);
        let mut warm = full.clone();
        warm.jobs.truncate(JOBS / WARMUP_DIVISOR);
        warm.kills.clear();
        warm.partitions.clear();
        std::hint::black_box(run_with_fed(warm, |_, _| {}));
        cfg = Some(full);
        o.setup_s.push(t.elapsed().as_secs_f64());
    }
    let cfg = cfg.expect("at least one set-up");
    o.env.push((
        "federation_churn",
        format!("{JOBS} jobs, {TENANTS} tenants, shards {SHARDS:?}, one kill, one partition"),
    ));

    let t_run = Instant::now();
    let mut first: Option<(FedReport, Federation, EventClock)> = None;
    let mut diverged = 0;
    while another_call(t_run, &o.walls, seconds) {
        let input = cfg.clone();
        let mut clock = EventClock {
            record: spans.on() && first.is_none(),
            ..EventClock::default()
        };
        let mut s_last = spans.now();
        let t = Instant::now();
        let (rep, fed) = if spans.on() {
            run_with_fed(input, |fed, _| clock.tick(fed, spans, &mut s_last))
        } else {
            run_with_fed(input, |_, _| {})
        };
        o.walls.push(t.elapsed().as_secs_f64());
        if spans.on() {
            o.drain_program_spans();
        }
        let good = rep.finished;
        o.items += good;
        o.attempted += rep.submitted;
        o.failed += rep.submitted - good.min(rep.submitted);
        match &first {
            Some((f, _, _)) => {
                let same = f.makespan.to_bits() == rep.makespan.to_bits()
                    && f.transitions == rep.transitions
                    && f.leases_granted == rep.leases_granted;
                diverged += usize::from(!same);
            }
            None => first = Some((rep, fed, clock)),
        }
    }
    let (rep, fed, clock) = first.expect("at least one call");
    let calls = o.walls.len();

    o.check(
        "federation.admission_accounting",
        CheckKind::Output,
        rep.submitted == JOBS as u64 && rep.submitted == rep.admitted + rep.shed,
        format!(
            "submitted {} = admitted {} + shed {}",
            rep.submitted, rep.admitted, rep.shed
        ),
    );
    let terminal = rep.finished + rep.failed + rep.cancelled + rep.evict_failed + rep.shed;
    o.check(
        "federation.all_finished",
        CheckKind::Output,
        rep.finished == rep.submitted,
        format!(
            "finished {} of {} (failed {}, cancelled {}, evict-failed {}, shed {}; terminal {terminal})",
            rep.finished, rep.submitted, rep.failed, rep.cancelled, rep.evict_failed, rep.shed
        ),
    );
    o.check(
        "federation.recoveries_matched",
        CheckKind::Output,
        rep.recoveries_matched && rep.shard_kills == 1 && rep.shard_recoveries == 1,
        format!(
            "{} kills, {} WAL recoveries, replay matched its snapshot: {}",
            rep.shard_kills, rep.shard_recoveries, rep.recoveries_matched
        ),
    );
    let ledger = check_ledger(&fed);
    o.check(
        "federation.ledger",
        CheckKind::Output,
        ledger.is_ok() && rep.leases_granted == rep.leases_reclaimed && fed.quiesced(),
        format!(
            "ledger {:?}; {} leases granted, {} reclaimed; quiesced {}",
            ledger.err().unwrap_or_else(|| "ok".into()),
            rep.leases_granted,
            rep.leases_reclaimed,
            fed.quiesced()
        ),
    );
    o.check(
        "federation.deterministic",
        CheckKind::Output,
        diverged == 0,
        format!(
            "{diverged} of {} repeat calls changed a virtual result",
            calls - 1
        ),
    );

    let waits: Vec<f64> = rep.slo.admits.iter().map(|&(_, _, w)| w).collect();
    o.report("jobs_per_s", o.items_per_s(), "jobs/s");
    o.report("admit_wait_p50_s", reshape_perfbase::median(&waits), "s");
    if let Some((v, pct)) = tail(&waits) {
        o.report("admit_wait_tail_s", v, "s");
        o.report("admit_wait_tail_percentile", pct, "%");
    }
    o.report("admit_wait_n", waits.len() as f64, "jobs");
    o.report("makespan_s", rep.makespan, "s");
    o.report(
        "failed_ratio",
        o.failed as f64 / o.attempted as f64,
        "ratio",
    );
    o.virtual_s = rep.makespan;

    o.layer("federation.transitions", rep.transitions as f64);
    if spans.on() {
        let gaps = &clock.gaps_ns[1..];
        o.layer(
            "federation.ns_per_event.p50",
            reshape_perfbase::median(gaps),
        );
        o.layer(
            "federation.ns_per_event.tail",
            tail(gaps).map_or(0.0, |(v, _)| v),
        );
        o.layer("federation.recover_s", clock.recover_s);
    }
    o.layer("federation.leases_granted", rep.leases_granted as f64);
    o.layer("federation.leases_reclaimed", rep.leases_reclaimed as f64);
    o.layer("federation.router_queued", rep.router_queued as f64);
    o.layer("federation.shed", rep.shed as f64);
    o
}
