//! Area `mpisim`: the simulated MPI substrate every resize runs on —
//! point-to-point round trips, the collectives the applications and the
//! redistribution executor call, and the two communicator operations of
//! the resize path (`spawn_merge` to expand, `split` to carve
//! sub-communicators). Each sample launches a fresh universe on the ideal
//! network, so the rows are host wall seconds of thread hand-off and
//! message copying, not modelled network time.

use reshape_mpisim::{Comm, NetModel, ReduceOp, Universe};

use crate::runner::Recorder;
use crate::suites::SuiteOpts;

pub fn run(rec: &mut Recorder, _opts: SuiteOpts) {
    for (name, bytes) in [
        ("p2p_pingpong_1kib_s", 1usize << 10),
        ("p2p_pingpong_1mib_s", 1 << 20),
    ] {
        rec.wall(name, || ping_pong(bytes));
    }
    rec.wall("bcast_64kib_8ranks_s", || {
        run_ranks(8, |comm| {
            let data = if comm.rank() == 0 {
                vec![1.0f64; 8192]
            } else {
                vec![]
            };
            for _ in 0..8 {
                std::hint::black_box(comm.bcast(0, &data));
            }
        });
    });
    rec.wall("allreduce_8kib_8ranks_s", || {
        run_ranks(8, |comm| {
            let data = vec![comm.rank() as f64; 1024];
            for _ in 0..8 {
                std::hint::black_box(comm.allreduce(ReduceOp::Sum, &data));
            }
        });
    });
    rec.wall("alltoallv_8x8kib_s", || {
        run_ranks(8, |comm| {
            let parts: Vec<Vec<f64>> = (0..8).map(|d| vec![d as f64; 1024]).collect();
            for _ in 0..4 {
                std::hint::black_box(comm.alltoallv(&parts));
            }
        });
    });
    rec.wall("spawn_merge_4plus4_s", || {
        let uni = Universe::new(8, 1, NetModel::ideal());
        uni.launch(4, None, "perfbase-sm", |comm| {
            let merged = comm.spawn_merge(4, None, "perfbase-sm-kids", |ctx| {
                ctx.parent.merge().barrier();
            });
            merged.barrier();
        })
        .join_ok();
        uni.join_spawned();
    });
    rec.wall("comm_split_16ranks_s", || {
        run_ranks(16, |comm| {
            for round in 0..4u32 {
                let color = (comm.rank() as u32 + round) % 4;
                std::hint::black_box(comm.split(Some(color), comm.rank() as i64));
            }
        });
    });
}

/// 16 round trips of a `bytes`-sized message between two ranks.
fn ping_pong(bytes: usize) {
    run_ranks(2, move |comm| {
        let data = vec![1.0f64; bytes / 8];
        for _ in 0..16 {
            if comm.rank() == 0 {
                comm.send(1, 1, &data);
                let _: Vec<f64> = comm.recv(1, 2);
            } else {
                let v: Vec<f64> = comm.recv(0, 1);
                comm.send(0, 2, &v);
            }
        }
    });
}

/// Launch `ranks` ranks on a fresh ideal-network universe and join them.
fn run_ranks<F>(ranks: usize, body: F)
where
    F: Fn(Comm) + Send + Sync + 'static,
{
    Universe::new(ranks, 1, NetModel::ideal())
        .launch(ranks, None, "perfbase-mpisim", body)
        .join_ok();
}
