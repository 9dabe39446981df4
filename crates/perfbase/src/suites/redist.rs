//! Area `redist`: the redistribution data plane, micro to macro.
//!
//! * planning (`plan_1d` / `plan_2d` / `plan_general_1d`) and analytic
//!   pricing (`evaluate_2d`) — wall clock, pure computation;
//! * pack/unpack — the per-block copy loops (`get_block`/`set_block`)
//!   every executor runs, wall clock;
//! * end-to-end `redistribute_2d` over mpisim — *virtual* seconds on the
//!   Gigabit-Ethernet model (deterministic) plus host wall seconds;
//! * the node-loss recovery round trip (buddy replicate + restore vs the
//!   checkpoint funnel) — virtual seconds.

use std::sync::{Arc, Mutex};

use reshape_blockcyclic::{recover_matrix, BuddyStore, Descriptor, DistMatrix};
use reshape_mpisim::{NetModel, Universe};
use reshape_redist::{
    checkpoint_redistribute, evaluate_2d, plan_1d, plan_2d, plan_general_1d, redistribute_2d,
    CheckpointParams,
};

use crate::report::MetricKind;
use crate::runner::Recorder;
use crate::suites::SuiteOpts;

const NB: usize = 64;

pub fn run(rec: &mut Recorder, opts: SuiteOpts) {
    planning(rec, opts);
    pack_unpack(rec, opts);
    end_to_end(rec, opts);
    recovery_roundtrip(rec, opts);
}

fn planning(rec: &mut Recorder, opts: SuiteOpts) {
    let n1 = if opts.quick { 1 << 20 } else { 1 << 23 };
    rec.wall("plan1d_seconds", || {
        std::hint::black_box(plan_1d(n1, NB, 12, 16));
    });

    let n2 = if opts.quick { 4096 } else { 12288 };
    let src = Descriptor::square(n2, NB, 3, 4);
    let dst = Descriptor::square(n2, NB, 4, 4);
    rec.wall("plan2d_seconds", || {
        std::hint::black_box(plan_2d(src, dst));
    });
    let plan = plan_2d(src, dst);
    let total: usize = plan.steps.iter().map(Vec::len).sum();
    rec.single("plan2d_transfers", "ops", MetricKind::Count, total as f64);

    // Pricing one 16 → 25 expansion of a 24000² matrix, the call the
    // cluster simulator's performance model makes per resize.
    let plan = plan_2d(
        Descriptor::square(24000, 100, 4, 4),
        Descriptor::square(24000, 100, 5, 5),
    );
    let net = NetModel::gigabit_ethernet();
    rec.wall("evaluate2d_24000_16to25_seconds", || {
        std::hint::black_box(evaluate_2d(&plan, 8, &net));
    });

    // A block-size-changing plan, which needs the Konig edge colouring.
    let (n, b1, p, b2, q) = if opts.quick {
        (100_000, 100, 8, 250, 12)
    } else {
        (1_000_000, 1000, 16, 750, 20)
    };
    rec.wall("plan_general_1d_seconds", || {
        std::hint::black_box(plan_general_1d(n, b1, p, b2, q));
    });
}

fn pack_unpack(rec: &mut Recorder, opts: SuiteOpts) {
    // Rank (0,0) of a 2×2 grid walks all of its blocks through the
    // executor's pack (get_block) and unpack (set_block) primitives.
    let n = if opts.quick { 1536 } else { 4096 };
    let desc = Descriptor::square(n, NB, 2, 2);
    let src = DistMatrix::from_fn(desc, 0, 0, |i, j| (i * n + j) as f64);
    let mut dst = DistMatrix::<f64>::new(desc, 0, 0);
    let nblocks = n.div_ceil(NB);
    let my_blocks: Vec<(usize, usize)> = (0..nblocks)
        .step_by(2)
        .flat_map(|bi| (0..nblocks).step_by(2).map(move |bj| (bi, bj)))
        .collect();
    let ops = my_blocks.len() as u64;
    rec.wall_per_op("pack_ns_per_block", ops, || {
        for &(bi, bj) in &my_blocks {
            std::hint::black_box(src.get_block(bi, bj));
        }
    });
    let packed: Vec<Vec<f64>> = my_blocks.iter().map(|&(bi, bj)| src.get_block(bi, bj)).collect();
    rec.wall_per_op("unpack_ns_per_block", ops, || {
        for (&(bi, bj), blk) in my_blocks.iter().zip(&packed) {
            dst.set_block(bi, bj, blk);
        }
        std::hint::black_box(&dst);
    });
    rec.single(
        "pack_bytes_per_rank",
        "bytes",
        MetricKind::Count,
        packed.iter().map(|b| b.len() * 8).sum::<usize>() as f64,
    );
}

/// One end-to-end expansion on the simulated cluster: `n × n` doubles move
/// from a 2×2 to a 2×3 grid (quick) or 3×4 (full). Returns per-sample
/// (virtual seconds, wall seconds).
fn e2e_once(n: usize, qr: usize, qc: usize) -> (f64, f64) {
    let (pr, pc) = (2, 2);
    let world = (pr * pc).max(qr * qc);
    let uni = Universe::new(world, 1, NetModel::gigabit_ethernet());
    let deltas: Arc<Mutex<Vec<f64>>> = Arc::default();
    let sink = Arc::clone(&deltas);
    let t_wall = std::time::Instant::now();
    uni.launch(world, None, "perfbase-redist", move |comm| {
        let me = comm.rank();
        let src_desc = Descriptor::square(n, NB, pr, pc);
        let dst_desc = Descriptor::square(n, NB, qr, qc);
        let src = (me < pr * pc)
            .then(|| DistMatrix::from_fn(src_desc, me / pc, me % pc, |i, j| (i * n + j) as f64));
        let plan = plan_2d(src_desc, dst_desc);
        let t0 = comm.vtime();
        let out = redistribute_2d(&comm, &plan, src.as_ref());
        let dt = comm.vtime() - t0;
        assert_eq!(out.is_some(), me < qr * qc);
        sink.lock().expect("delta sink").push(dt);
    })
    .join_ok();
    let wall = t_wall.elapsed().as_secs_f64();
    let virt = deltas
        .lock()
        .expect("delta sink")
        .iter()
        .fold(0.0f64, |a, &b| a.max(b));
    (virt, wall)
}

fn end_to_end(rec: &mut Recorder, opts: SuiteOpts) {
    let (n, qr, qc) = if opts.quick { (768, 2, 3) } else { (2048, 3, 4) };
    let mut walls = Vec::new();
    rec.value("e2e_expand_virtual_s", "s", MetricKind::Virtual, || {
        let (virt, wall) = e2e_once(n, qr, qc);
        walls.push(wall);
        virt
    });
    let wall_median = crate::stats::median(&walls);
    rec.single("e2e_expand_wall_s", "s", MetricKind::Wall, wall_median);
}

/// The recovery round trip of the `recovery` bench, sized down: 4 ranks on
/// a 2×2 grid, rank 3 dies, survivors rebuild onto 1×3 — buddy path vs the
/// checkpoint funnel, in virtual seconds.
fn recovery_roundtrip(rec: &mut Recorder, opts: SuiteOpts) {
    let n = if opts.quick { 512 } else { 2048 };
    let run_once = || -> (f64, f64, f64) {
        let uni = Universe::new(4, 1, NetModel::gigabit_ethernet());
        let deltas: Arc<Mutex<Vec<(f64, f64, f64)>>> = Arc::default();
        let sink = Arc::clone(&deltas);
        uni.launch(4, None, "perfbase-recovery", move |comm| {
            let me = comm.rank();
            let s = Descriptor::square(n, NB, 2, 2);
            let d = Descriptor::new(n, n, NB, NB, 1, 3);
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * n + j) as f64);
            let t0 = comm.vtime();
            let store = BuddyStore::replicate(&comm, std::slice::from_ref(&src));
            let t_rep = comm.vtime() - t0;
            let t0 = comm.vtime();
            let out = checkpoint_redistribute(
                &comm,
                s,
                d,
                Some(&src),
                &CheckpointParams::default(),
                None,
            );
            let t_ck = comm.vtime() - t0;
            assert_eq!(out.is_some(), me < 3);
            let mut t_rec = 0.0;
            if me != 3 {
                let survivors = [0usize, 1, 2];
                let mine = store.own_snapshot(0);
                let t0 = comm.vtime();
                recover_matrix(&comm, &survivors, &mine, &store, 0, d)
                    .expect("rank 3's buddy is alive")
                    .expect("every survivor owns part of the 1x3 layout");
                t_rec = comm.vtime() - t0;
            }
            sink.lock().expect("delta sink").push((t_rep, t_ck, t_rec));
        })
        .join_ok();
        let deltas = deltas.lock().expect("delta sink");
        let max = |f: &dyn Fn(&(f64, f64, f64)) -> f64| deltas.iter().map(f).fold(0.0, f64::max);
        (max(&|d| d.0), max(&|d| d.1), max(&|d| d.2))
    };
    let mut restores = Vec::new();
    let mut ckpts = Vec::new();
    rec.value("recovery_buddy_replicate_virtual_s", "s", MetricKind::Virtual, || {
        let (rep, ck, res) = run_once();
        restores.push(res);
        ckpts.push(ck);
        rep
    });
    rec.single(
        "recovery_buddy_restore_virtual_s",
        "s",
        MetricKind::Virtual,
        crate::stats::median(&restores),
    );
    rec.single(
        "recovery_ckpt_roundtrip_virtual_s",
        "s",
        MetricKind::Virtual,
        crate::stats::median(&ckpts),
    );
}
