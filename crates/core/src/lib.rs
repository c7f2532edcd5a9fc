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
//! This crate implements, against the [`mpsim::AsyncCommunicator`] trait:
//!
//! * the paper's contribution: [`ring_tuned::tuned_ring_ops`] /
//!   [`bcast::bcast_opt_async`] (`MPI_Bcast_opt`),
//! * every MPICH3 baseline it is compared with:
//!   [`Algorithm::ScatterRingNative`] (`MPI_Bcast_native`, the enclosed
//!   ring), [`Algorithm::Binomial`] (smsg), scatter + recursive doubling
//!   ([`rd_allgather::rd_ops`], mmsg-pof2), with MPICH3's selection logic in
//!   [`bcast::bcast_auto_async`],
//! * the multi-core-aware three-phase variant ([`smp::bcast_smp_async`]) and
//!   a segmented pipeline-chain broadcast ([`pipeline::bcast_pipeline_async`]),
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
//! The one blocking entry point is [`bcast_with`], which takes an
//! [`mpsim::Communicator`] (a `ThreadWorld` or `SimWorld` rank) and runs
//! [`bcast_with_async`] through [`mpsim::SyncComm`] +
//! [`mpsim::complete_now`]; blocking code reaches every other collective
//! through the same bridge.
//!
//! ## Quickstart
//!
//! ```
//! use mpsim::{Communicator, ThreadWorld};
//! use bcast_core::{bcast_with, Algorithm};
//!
//! let message = b"hello collective world".to_vec();
//! let n = message.len();
//! let out = ThreadWorld::run(8, |comm| {
//!     let mut buf = if comm.rank() == 0 { message.clone() } else { vec![0u8; n] };
//!     // `MPI_Bcast_opt`: binomial scatter + the tuned ring allgather
//!     bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned).unwrap();
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
    bcast_auto_async, bcast_opt_async, bcast_with, bcast_with_async, select_algorithm, Algorithm,
    Regime, Thresholds,
};
pub use binomial::{bcast_binomial_async, bcast_binomial_copy_async};
pub use chunks::ChunkLayout;
pub use coalesce::{
    bcast_opt_coalesced_async, coalesced_envelope_count, coalesced_ring_ops, CoalescePolicy,
};
pub use epoch_guard::{EpochComm, GuardedComm};
pub use event_launch::{
    bcast_event_world, check_recovery_outcome, reconcile_crashed_traffic, recovery_elapsed_bound,
    self_healing_bcast_event_world, self_healing_rank_task, RankRun, RecoverySpec,
    EVENT_LAUNCH_SEED,
};
pub use interp::Interp;
pub use recovery::{
    agreement_schedule, branch, degraded_bcast_schedule, membership_digest, pairwise_schedule,
    self_healing_bcast_async, self_healing_bcast_traced_async, Healed, RecoveryConfig,
    RecoveryDrill, RecoveryTrace,
};
pub use ring_tuned::{step_flag, Endpoint};
pub use scatter::{binomial_scatter_shared_async, owned_chunks};
pub use schedule::{Collective, RankSchedule, SchedOp, Schedule};
pub use smp::{bcast_smp_async, NodeMap};
