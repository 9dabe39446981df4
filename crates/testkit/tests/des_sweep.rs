//! Recorded-snapshot sweep for the scenario executor
//! ([`reshape_testkit::Driver`] on the discrete-event queue).
//!
//! Each of the 256 seeds is pinned as an FNV-1a digest of the run's
//! `RunStats` `Debug` string followed by the final `CoreSnapshot` `Debug`
//! string (every map in the snapshot is ordered, so the string is stable
//! across processes). The digests were recorded while a second, scan-based
//! executor still ran beside this one and agreed with it on every seed;
//! they are committed at `tests/snapshots/scenario_digests.txt` and
//! re-checked here, so any change to a transition, a fault arm or the
//! tie order of simultaneous events fails the sweep.
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-testkit --test des_sweep
//! ```
//!
//! and commit the rewritten file (the bless run fails on purpose so a
//! stale green is impossible).

use std::collections::BTreeMap;

use reshape_core::SchedulerCore;
use reshape_testkit::{generate, Driver, RunStats};

const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/scenario_digests.txt"
);

/// FNV-1a over the run statistics and the final scheduler snapshot.
fn digest(stats: &RunStats, core: &SchedulerCore) -> String {
    let text = format!("{stats:?}{:?}", core.snapshot());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn run(seed: u64) -> (RunStats, SchedulerCore) {
    let sc = generate(seed);
    Driver::new(&sc, SchedulerCore::new(sc.total_procs, sc.policy))
        .finish()
        .unwrap_or_else(|e| panic!("scenario run failed: {e}"))
}

fn recorded() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(SNAPSHOT_PATH)
        .unwrap_or_else(|e| panic!("cannot read {SNAPSHOT_PATH}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hash) = l.rsplit_once(' ').expect("snapshot line: <label> <digest>");
            (label.to_string(), hash.to_string())
        })
        .collect()
}

/// The fixed 256-seed sweep plus, when set, the `TESTKIT_SEED` one.
fn seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..256).collect();
    if let Ok(s) = std::env::var("TESTKIT_SEED") {
        if let Ok(s) = s.parse::<u64>() {
            seeds.push(s);
        }
    }
    seeds
}

/// Every fixed seed must reproduce its recorded digest.
#[test]
fn driver_matches_recorded_digests() {
    let digests: Vec<(String, String)> = (0..256u64)
        .map(|seed| {
            let (stats, core) = run(seed);
            (format!("seed-{seed}"), digest(&stats, &core))
        })
        .collect();
    if std::env::var("RESHAPE_BLESS").is_ok() {
        let mut out = String::from(
            "# FNV-1a digests of each seed's RunStats + final CoreSnapshot Debug strings;\n\
             # re-record with RESHAPE_BLESS=1 cargo test -p reshape-testkit --test des_sweep\n",
        );
        for (label, d) in &digests {
            out.push_str(&format!("{label} {d}\n"));
        }
        std::fs::write(SNAPSHOT_PATH, out).expect("write snapshot file");
        panic!("digests re-recorded at {SNAPSHOT_PATH}; inspect the diff and commit");
    }
    let want = recorded();
    assert_eq!(want.len(), digests.len(), "snapshot count mismatch");
    let diverged: Vec<String> = digests
        .iter()
        .filter_map(|(label, got)| match want.get(label) {
            Some(w) if w == got => None,
            Some(w) => Some(format!("{label}: recorded {w}, got {got}")),
            None => Some(format!("{label}: missing from snapshot file")),
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "{} seeds diverged from recorded digests:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

/// A fresh seed (CI passes `TESTKIT_SEED=$GITHUB_RUN_ID`) has no recorded
/// digest; two runs of it must at least agree bit for bit.
#[test]
fn env_seed_replays_deterministically() {
    for seed in seeds().into_iter().skip(256) {
        let (a_stats, a_core) = run(seed);
        let (b_stats, b_core) = run(seed);
        assert_eq!(
            digest(&a_stats, &a_core),
            digest(&b_stats, &b_core),
            "seed {seed}: two runs diverged"
        );
    }
}

/// The sweep must actually exercise every fault path — otherwise the
/// digests pin nothing for the untouched arms.
#[test]
fn sweep_covers_every_fault_path() {
    let mut agg = RunStats::default();
    for seed in seeds() {
        let st = reshape_testkit::run_seed(seed).unwrap_or_else(|e| panic!("run failed: {e}"));
        agg.starts += st.starts;
        agg.expansions += st.expansions;
        agg.shrinks += st.shrinks;
        agg.expand_failures += st.expand_failures;
        agg.job_failures += st.job_failures;
        agg.cancellations += st.cancellations;
        agg.hangs_injected += st.hangs_injected;
        agg.watchdog_kills += st.watchdog_kills;
        agg.node_losses_survived += st.node_losses_survived;
    }
    assert!(agg.expansions > 0, "sweep never expanded");
    assert!(agg.shrinks > 0, "sweep never shrank");
    assert!(agg.expand_failures > 0, "sweep never failed an expansion");
    assert!(agg.job_failures > 0, "sweep never failed a job");
    assert!(agg.cancellations > 0, "sweep never cancelled");
    assert!(agg.hangs_injected > 0, "sweep never hung a job");
    assert_eq!(
        agg.hangs_injected, agg.watchdog_kills,
        "every hang must be watchdog-killed and no healthy job killed"
    );
    assert!(agg.node_losses_survived > 0, "sweep never survived a node loss");
}
