//! # bcast-core — MPI broadcast algorithms, native and bandwidth-tuned
//!
//! Reproduction of *"A Bandwidth-saving Optimization for MPI Broadcast
//! Collective Operation"* (Zhou, Marjanovic, Niethammer, Gracia — ICPP 2015,
//! arXiv:1603.06809).
//!
//! MPICH3 broadcasts long messages (and medium messages on non-power-of-two
//! worlds) by binomial-scattering the buffer and then running a ring
//! allgather. The stock ring is *enclosed*: it re-delivers chunks that
//! non-leaf ranks of the scatter tree already hold, moving `P·(P−1)` messages.
//! The paper's tuned ring lets each rank compute, from its position in the
//! scatter tree, the step at which it may stop sending or receiving —
//! skipping exactly the redundant transfers while keeping the same `P−1`
//! step count and deadlock-free matching.
//!
//! This crate implements, against the [`mpsim::Communicator`] trait:
//!
//! * the paper's contribution: [`ring_tuned::tuned_ring_ops`] /
//!   [`bcast::bcast_opt`],
//! * every MPICH3 baseline it is compared with: [`bcast::bcast_native`]
//!   (enclosed ring), [`binomial::bcast_binomial`] (smsg), scatter +
//!   recursive doubling ([`rd_allgather::rd_ops`], mmsg-pof2), with MPICH3's
//!   selection logic in [`bcast::bcast_auto`],
//! * the multi-core-aware three-phase variant ([`smp::bcast_smp`]) and a
//!   segmented pipeline-chain broadcast ([`pipeline::bcast_pipeline`]),
//! * an analytic traffic model ([`traffic`]) reproducing the paper's
//!   Section IV transfer arithmetic (56 → 44 at `P = 8`, 90 → 75 at
//!   `P = 10`), validated against instrumented runs,
//! * the standalone allgather baselines ([`allgather`]: ring /
//!   recursive-doubling / Bruck).
//!
//! Each broadcast phase is defined once, as a per-rank stream of
//! [`SchedOp`]s; [`interp::Interp`] executes a rank's stream against a
//! communicator and [`bcast::bcast_schedule`] collects the same streams
//! over all ranks for static analysis ([`schedule`]).
//!
//! ## Quickstart
//!
//! ```
//! use mpsim::{Communicator, ThreadWorld};
//! use bcast_core::bcast::bcast_opt;
//!
//! let message = b"hello collective world".to_vec();
//! let n = message.len();
//! let out = ThreadWorld::run(8, |comm| {
//!     let mut buf = if comm.rank() == 0 { message.clone() } else { vec![0u8; n] };
//!     bcast_opt(comm, &mut buf, 0).unwrap();
//!     buf
//! });
//! assert!(out.results.iter().all(|buf| buf == &message));
//! // the tuned ring moved 44 allgather messages + 7 scatter messages
//! assert_eq!(out.traffic.total_msgs(), 51);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allgather;
pub mod bcast;
pub mod binomial;
pub mod chunks;
pub mod coalesce;
pub mod epoch_guard;
pub mod event_launch;
pub mod interp;
pub mod pipeline;
pub mod rd_allgather;
pub mod recovery;
pub mod ring;
pub mod ring_tuned;
pub mod scatter;
pub mod schedule;
pub mod smp;
pub mod traffic;
pub mod verify;

pub use bcast::{
    bcast_auto, bcast_auto_async, bcast_native, bcast_opt, bcast_opt_async, bcast_with,
    bcast_with_async, select_algorithm, Algorithm, Regime, Thresholds,
};
pub use binomial::{
    bcast_binomial, bcast_binomial_async, bcast_binomial_copy, bcast_binomial_copy_async,
};
pub use chunks::ChunkLayout;
pub use coalesce::{
    bcast_opt_coalesced, bcast_opt_coalesced_async, coalesced_envelope_count, coalesced_ring_ops,
    coalesced_schedule, CoalescePolicy,
};
pub use epoch_guard::{EpochComm, GuardedComm};
pub use event_launch::{
    bcast_coalesced_event_world, bcast_event_world, check_recovery_outcome,
    reconcile_crashed_traffic, recovery_elapsed_bound, self_healing_bcast_event_world,
    self_healing_rank_task, RankRun, RecoverySpec, EVENT_LAUNCH_SEED,
};
pub use interp::Interp;
pub use recovery::{
    agreement_schedule, branch, degraded_bcast_schedule, membership_digest, pairwise_schedule,
    self_healing_bcast, self_healing_bcast_async, self_healing_bcast_traced_async,
    self_healing_bcast_with, self_healing_bcast_with_async, Healed, RecoveryConfig, RecoveryDrill,
    RecoveryTrace,
};
pub use ring_tuned::{step_flag, Endpoint};
pub use scatter::{binomial_scatter_shared_async, owned_chunks};
pub use schedule::{all_sources, RankSchedule, SchedOp, Schedule, ScheduleSource};
pub use smp::{bcast_smp, bcast_smp_async, NodeMap};
