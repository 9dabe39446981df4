//! # reshape-clustersim — discrete-event simulation of ReSHAPE at paper scale
//!
//! The paper's evaluation ran on 36–50 processors of System X with matrices
//! up to 24000². This crate reproduces those experiments by driving the
//! *real* scheduler state machine (`reshape_core::SchedulerCore` — queue
//! policies, Performance Profiler, Remap Scheduler policy) with:
//!
//! * calibrated analytic iteration-time models per application
//!   ([`AppModel`]), and
//! * redistribution costs computed from the *actual* contention-free
//!   communication schedules (`reshape-redist`) priced under the Gigabit
//!   Ethernet network model.
//!
//! [`workloads`] encodes the paper's workloads W1 and W2 and the
//! single-application experiments of Figure 3; `reshape-bench` turns
//! simulation results into the paper's tables and figures.

pub mod dashboard;
pub mod des;
pub mod event;
pub mod perfmodel;
pub mod sim;
pub mod workloads;

pub use des::{run_scale, ScaleConfig, ScaleReport};
pub use event::{EventQueue, TieBreak};
pub use perfmodel::{AppModel, MachineParams, RedistProfile, MODEL_BLOCK};
pub use sim::{ClusterSim, JobOutcome, RedistMode, SimJob, SimResult, SimTelemetry, WindowSample};
pub use workloads::{
    fig3a_job, fig3b_jobs, random_workload, random_workload_with_faults, workload1, workload2,
    Workload,
};
