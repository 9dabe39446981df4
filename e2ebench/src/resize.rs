//! `resize-cycle`: ranks on mpisim's Gigabit Ethernet model grow and
//! shrink one block-cyclic matrix through a fixed cycle of grids. Each
//! expansion goes through `Comm::spawn_merge`, each shrink moves the data
//! onto the low ranks and splits the rest off, and every step runs
//! `plan_2d` + `redistribute_2d`, as the driver's `expand_processors` /
//! `shrink_processors` do. The only workload where real data moves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{Comm, NetModel, NodeId, SpawnCtx, Universe};
use reshape_redist::{plan_2d, redistribute_2d};

use crate::out::{tail, CheckKind, Outcome};
use crate::spans::Spans;

/// Global matrix order: 4096² doubles are 128 MiB, far past any per-core
/// L2 and about half of a 300 MiB LLC.
const N: usize = 4096;
/// Block sizes the seed chooses among: the plan's message count and the
/// pack/unpack granularity change with it, the bytes moved barely do.
const BLOCKS: [usize; 5] = [48, 56, 64, 72, 80];
/// The grid cycle: grow 4 → 6 → 12 → 16 ranks, shrink 16 → 8 → 4.
const GRIDS: [(usize, usize); 6] = [(2, 2), (2, 3), (3, 4), (4, 4), (2, 4), (2, 2)];
const STEPS: usize = GRIDS.len() - 1;
const MAX_RANKS: usize = 16;
const SETUP_REPS: usize = 8;
/// Span-id tag of a step's parent span; rank spans draw small ids.
const STEP_SPAN_BIT: u64 = 1 << 40;

/// One rank's view of one step.
#[derive(Clone, Copy)]
struct RankStep {
    step: usize,
    enter: f64,
    exit: f64,
    venter: f64,
    vexit: f64,
    /// `spawn_merge` on parents, `merge` on spawned ranks; 0 on shrinks.
    spawn_s: f64,
    spawn_v: f64,
    plan_s: f64,
    exec_s: f64,
    /// Elements of the rank's new panel that differ from the fill.
    bad: u64,
}

struct Shared {
    seed_salt: u64,
    nb: usize,
    spans: Arc<Spans>,
    epoch: Instant,
    /// Wall seconds of the measured phase; 0 for a set-up-only launch.
    seconds: f64,
    /// Wall seconds since `epoch` when every rank had filled its panel.
    ready_at: Mutex<f64>,
    fill_s: Mutex<Vec<f64>>,
    steps: Mutex<Vec<RankStep>>,
    steps_run: AtomicU64,
}

impl Shared {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn desc(&self, (r, c): (usize, usize)) -> Descriptor {
        Descriptor::square(N, self.nb, r, c)
    }

    /// The matrix element at global `(i, j)`: distinct for every index, so
    /// a misplaced block shows.
    fn value(&self, i: usize, j: usize) -> f64 {
        ((i * N + j) as u64 ^ self.seed_salt) as f64
    }

    fn mismatches(&self, m: &DistMatrix<f64>) -> u64 {
        let d = m.desc;
        let mut bad = 0;
        for li in 0..m.local_rows() {
            let gi = d.local_to_global_row(li, m.myrow);
            for lj in 0..m.local_cols() {
                let gj = d.local_to_global_col(lj, m.mycol);
                bad += u64::from(m.get_local(li, lj) != self.value(gi, gj));
            }
        }
        bad
    }

    fn rank_span(&self, step: usize, rank: usize, name: &str, start: f64, end: f64) {
        let track = format!("rank{rank}");
        self.spans.record(
            step as u64 + 1,
            STEP_SPAN_BIT | step as u64,
            name,
            &track,
            start,
            end,
        );
    }
}

/// Spawned ranks' entry: merge into the grown communicator, receive the
/// new panel, then carry on with the cycle as members.
fn spawned_main(sh: Arc<Shared>, ctx: SpawnCtx, step: usize, cycle_step: usize) {
    let enter = sh.now();
    let venter = ctx.world.vtime();
    let merged = ctx.parent.merge();
    let t_plan = sh.now();
    let spawn_v = merged.vtime() - venter;
    let to = sh.desc(GRIDS[cycle_step + 1]);
    let plan = plan_2d(sh.desc(GRIDS[cycle_step]), to);
    let t_exec = sh.now();
    let mat =
        redistribute_2d::<f64>(&merged, &plan, None).expect("spawned ranks join the new grid");
    let exit = sh.now();
    let rank = merged.rank();
    sh.rank_span(step, rank, "merge", enter, t_plan);
    sh.rank_span(step, rank, "plan_2d", t_plan, t_exec);
    sh.rank_span(step, rank, "redistribute_2d", t_exec, exit);
    let bad = sh.mismatches(&mat);
    sh.steps.lock().expect("step log lock").push(RankStep {
        step,
        enter,
        exit,
        venter,
        vexit: merged.vtime(),
        spawn_s: t_plan - enter,
        spawn_v,
        plan_s: t_exec - t_plan,
        exec_s: exit - t_exec,
        bad,
    });
    member_loop(sh, merged, mat, step + 1);
}

/// Run steps as a member of the current grid, from global step `step`,
/// until this rank departs in a shrink or the measured time is up.
fn member_loop(sh: Arc<Shared>, mut comm: Comm, mut mat: DistMatrix<f64>, mut step: usize) {
    loop {
        let s = step % STEPS;
        if s == 0 {
            // Back on the starting grid: rank 0 decides whether to run
            // another cycle, and tells the others.
            let more = step == 0
                || (comm.rank() == 0
                    && sh.now() - *sh.ready_at.lock().expect("ready lock") < sh.seconds);
            let more = u64::from(more);
            let more: Vec<u64> = comm.bcast(0, &[more]);
            if more[0] == 0 {
                return;
            }
        }
        let (from, to) = (GRIDS[s], GRIDS[s + 1]);
        let (p, q) = (from.0 * from.1, to.0 * to.1);
        comm.barrier();
        let enter = sh.now();
        let venter = comm.vtime();
        let rank = comm.rank();
        let mut rec = RankStep {
            step,
            enter,
            exit: 0.0,
            venter,
            vexit: 0.0,
            spawn_s: 0.0,
            spawn_v: 0.0,
            plan_s: 0.0,
            exec_s: 0.0,
            bad: 0,
        };
        let next = if q > p {
            let nodes = (rank == 0).then(|| (p..q).map(|r| NodeId(r as u32)).collect());
            let sh2 = Arc::clone(&sh);
            let merged = comm.spawn_merge(q - p, nodes, "e2ebench-grow", move |ctx| {
                spawned_main(Arc::clone(&sh2), ctx, step, s)
            });
            let t_plan = sh.now();
            rec.spawn_s = t_plan - enter;
            rec.spawn_v = merged.vtime() - venter;
            let plan = plan_2d(sh.desc(from), sh.desc(to));
            let t_exec = sh.now();
            let out = redistribute_2d(&merged, &plan, Some(&mat));
            rec.exit = sh.now();
            rec.vexit = merged.vtime();
            rec.plan_s = t_exec - t_plan;
            rec.exec_s = rec.exit - t_exec;
            sh.rank_span(step, rank, "spawn_merge", enter, t_plan);
            sh.rank_span(step, rank, "plan_2d", t_plan, t_exec);
            sh.rank_span(step, rank, "redistribute_2d", t_exec, rec.exit);
            Some((merged, out.expect("parents stay in the grown grid")))
        } else {
            let plan = plan_2d(sh.desc(from), sh.desc(to));
            let t_exec = sh.now();
            let out = redistribute_2d(&comm, &plan, Some(&mat));
            let t_split = sh.now();
            let keep = rank < q;
            let sub = comm.split(keep.then_some(0), rank as i64);
            rec.exit = sh.now();
            rec.vexit = comm.vtime();
            rec.plan_s = t_exec - enter;
            rec.exec_s = t_split - t_exec;
            sh.rank_span(step, rank, "plan_2d", enter, t_exec);
            sh.rank_span(step, rank, "redistribute_2d", t_exec, t_split);
            sh.rank_span(step, rank, "split", t_split, rec.exit);
            keep.then(|| {
                (
                    sub.expect("retained ranks form the smaller communicator"),
                    out.expect("retained ranks receive their panels"),
                )
            })
        };
        if let Some((_, m)) = &next {
            rec.bad = sh.mismatches(m);
        }
        sh.steps.lock().expect("step log lock").push(rec);
        match next {
            Some((c, m)) => {
                comm = c;
                mat = m;
            }
            None => return,
        }
        step += 1;
        sh.steps_run.fetch_max(step as u64, Ordering::Relaxed);
    }
}

/// Launch the starting grid and fill its panels; with `sh.seconds > 0`
/// also run the measured cycles. Returns the set-up wall seconds: universe
/// launch to every panel filled.
fn launch(sh: &Arc<Shared>) -> f64 {
    let t0 = sh.now();
    let uni = Universe::new(MAX_RANKS, 1, NetModel::gigabit_ethernet());
    let (r0, c0) = GRIDS[0];
    let p0 = r0 * c0;
    let sh2 = Arc::clone(sh);
    let handle = uni.launch(
        p0,
        Some((0..p0).map(|r| NodeId(r as u32)).collect()),
        "e2ebench",
        move |comm| {
            let sh = Arc::clone(&sh2);
            let rank = comm.rank();
            let t_fill = sh.now();
            let mat = DistMatrix::from_fn(sh.desc(GRIDS[0]), rank / c0, rank % c0, |i, j| {
                sh.value(i, j)
            });
            sh.fill_s.lock().expect("fill lock").push(sh.now() - t_fill);
            comm.barrier();
            if rank == 0 {
                *sh.ready_at.lock().expect("ready lock") = sh.now();
            }
            comm.barrier();
            if sh.seconds > 0.0 {
                member_loop(sh, comm, mat, 0);
            }
        },
    );
    handle.join_ok();
    uni.join_spawned();
    let ready = *sh.ready_at.lock().expect("ready lock");
    ready - t0
}

pub fn run(seed: u64, seconds: f64, spans: &Arc<Spans>) -> Outcome {
    let mut o = Outcome::default();
    let h = reshape_testkit::SplitMix64::new(seed).next_u64();
    let shared = |seconds: f64| {
        Arc::new(Shared {
            seed_salt: h & 0xFFFF_FFFF,
            nb: BLOCKS[(h >> 32) as usize % BLOCKS.len()],
            spans: Arc::clone(spans),
            epoch: Instant::now(),
            seconds,
            ready_at: Mutex::new(0.0),
            fill_s: Mutex::new(Vec::new()),
            steps: Mutex::new(Vec::new()),
            steps_run: AtomicU64::new(0),
        })
    };
    for _ in 0..SETUP_REPS {
        o.setup_s.push(launch(&shared(0.0)));
    }
    let sh = shared(seconds);
    o.setup_s.push(launch(&sh));
    let nb = sh.nb;
    let matrix_bytes = N * N * std::mem::size_of::<f64>();
    o.env.push((
        "resize_cycle",
        format!(
            "n={N} nb={nb}: {matrix_bytes} matrix bytes ({:.0} MiB); ranks {:?}",
            matrix_bytes as f64 / (1 << 20) as f64,
            GRIDS.iter().map(|(r, c)| r * c).collect::<Vec<_>>()
        ),
    ));

    let recs = sh.steps.lock().expect("step log lock").clone();
    let steps = sh.steps_run.load(Ordering::Relaxed) as usize;
    let cycles = steps / STEPS;
    // Per step: wall from the first rank entering to the last rank holding
    // its new blocks; virtual time likewise; failed if any panel is wrong.
    let mut walls = Vec::with_capacity(steps);
    let mut cycle_wall = vec![0.0f64; cycles];
    let mut cycle_v = vec![0.0f64; cycles];
    let (mut spawn_s, mut spawn_v, mut plan_s, mut skew_s) = (vec![], vec![], vec![], vec![]);
    let (mut exec_expand, mut exec_shrink) = (vec![], vec![]);
    let mut exec_total = 0.0;
    let mut failed = 0u64;
    for step in 0..steps {
        let rs: Vec<&RankStep> = recs.iter().filter(|r| r.step == step).collect();
        let max = |f: &dyn Fn(&RankStep) -> f64| rs.iter().map(|r| f(r)).fold(f64::MIN, f64::max);
        let min = |f: &dyn Fn(&RankStep) -> f64| rs.iter().map(|r| f(r)).fold(f64::MAX, f64::min);
        let (enter, exit) = (min(&|r| r.enter), max(&|r| r.exit));
        walls.push(exit - enter);
        spans.record_as(
            STEP_SPAN_BIT | step as u64,
            step as u64 + 1,
            0,
            &format!(
                "step {step}: {:?} -> {:?}",
                GRIDS[step % STEPS],
                GRIDS[step % STEPS + 1]
            ),
            "resize-cycle",
            enter,
            exit,
        );
        cycle_wall[step / STEPS] += exit - enter;
        cycle_v[step / STEPS] += max(&|r| r.vexit) - min(&|r| r.venter);
        failed += u64::from(rs.iter().any(|r| r.bad > 0));
        let (from, to) = (GRIDS[step % STEPS], GRIDS[step % STEPS + 1]);
        let expand = to.0 * to.1 > from.0 * from.1;
        if expand {
            spawn_s.push(max(&|r| r.spawn_s));
            spawn_v.push(max(&|r| r.spawn_v));
            exec_expand.push(max(&|r| r.exec_s));
        } else {
            exec_shrink.push(max(&|r| r.exec_s));
        }
        exec_total += max(&|r| r.exec_s);
        plan_s.push(max(&|r| r.plan_s));
        skew_s.push(max(&|r| r.exec_s) - min(&|r| r.exec_s));
    }
    let bad: u64 = recs.iter().map(|r| r.bad).sum();
    o.check(
        "resize_cycle.blocks_match_fill",
        CheckKind::Output,
        bad == 0,
        format!("{bad} misplaced elements over {steps} steps ({failed} steps failed)"),
    );
    // Later cycles start at a later virtual time, so their sums differ from
    // the first cycle's in the last bits only.
    let drift = cycle_v
        .iter()
        .map(|v| (v - cycle_v[0]).abs() / cycle_v[0])
        .fold(0.0, f64::max);
    o.check(
        "resize_cycle.deterministic",
        CheckKind::Output,
        cycles >= 1 && drift < 1e-9,
        format!("{cycles} cycles; largest relative change of virtual seconds per cycle {drift:e}"),
    );
    o.walls = cycle_wall;
    o.items = steps as u64 - failed;
    o.attempted = steps as u64;
    o.failed = failed;
    o.virtual_s = cycle_v.first().copied().unwrap_or(0.0);

    let median = reshape_perfbase::median;
    o.report("resize_p50_s", median(&walls), "s");
    if let Some((v, pct)) = tail(&walls) {
        o.report("resize_tail_s", v, "s");
        o.report("resize_tail_percentile", pct, "%");
    }
    o.report("resize_steps", steps as f64, "count");
    o.report("resize_mad_s", reshape_perfbase::summarize(&walls).mad, "s");
    o.report("resize_virtual_s", o.virtual_s, "s");
    o.report("failed_ratio", failed as f64 / steps.max(1) as f64, "ratio");

    // Counts computed from the plans of one cycle: bytes and messages that
    // cross between different ranks.
    let (mut bytes, mut messages) = (0usize, 0usize);
    for s in 0..STEPS {
        let plan = plan_2d(sh.desc(GRIDS[s]), sh.desc(GRIDS[s + 1]));
        bytes += plan.network_bytes(std::mem::size_of::<f64>());
        messages += plan
            .steps
            .iter()
            .flatten()
            .filter(|t| plan.src_rank(t.src) != plan.dst_rank(t.dst))
            .count();
    }
    let exec_per_cycle = exec_total / cycles.max(1) as f64;
    o.layer("mpisim.spawn_merge_s", median(&spawn_s));
    o.layer("mpisim.spawn_virtual_s", median(&spawn_v));
    o.layer("redist.plan_s", median(&plan_s));
    o.layer("redist.exec_s.expand", median(&exec_expand));
    o.layer("redist.exec_s.shrink", median(&exec_shrink));
    o.layer("redist.rank_skew_s", median(&skew_s));
    o.layer("redist.bytes", bytes as f64);
    o.layer("redist.messages", messages as f64);
    o.layer("redist.gb_per_s", bytes as f64 / exec_per_cycle / 1e9);
    o.layer(
        "blockcyclic.fill_s",
        sh.fill_s
            .lock()
            .expect("fill lock")
            .iter()
            .copied()
            .fold(0.0, f64::max),
    );
    o
}
