//! # mpsim — an MPI-like message-passing runtime for collective-algorithm research
//!
//! This crate provides the point-to-point substrate on which the broadcast
//! collectives of the paper *"A Bandwidth-saving Optimization for MPI Broadcast
//! Collective Operation"* (Zhou et al., ICPP 2015) are implemented and measured.
//!
//! It deliberately mirrors the small slice of MPI semantics the paper's
//! pseudo-code relies on:
//!
//! * a fixed-size *world* of `P` ranks (`0..P`),
//! * blocking, tag-matched [`Communicator::send`] / [`Communicator::recv`] with
//!   per-`(source, tag)` FIFO ordering (MPI's non-overtaking rule),
//! * a combined [`Communicator::sendrecv`] (the workhorse of ring allgather),
//! * a [`Communicator::barrier`],
//! * per-rank traffic accounting ([`TrafficStats`]) so that the paper's
//!   transfer-count arithmetic (`P·(P−1)` vs the tuned count) can be *measured*
//!   rather than merely asserted.
//!
//! Three executors implement the point-to-point surface:
//!
//! * [`ThreadWorld`] (this crate): one OS thread per rank with real byte
//!   movement through mailboxes — used for correctness tests and wall-clock
//!   (intra-node-style) benchmarks;
//! * `netsim::SimWorld` (sibling crate): the same trait over a virtual-time
//!   cluster simulator standing in for the paper's Cray XC40;
//! * [`EventWorld`] (this crate): a single-threaded discrete-event reactor
//!   where ranks are cooperatively scheduled futures over
//!   [`AsyncCommunicator`] — used for cluster-scale worlds (P in the
//!   thousands) that OS threads cannot reach.
//!
//! Everything above the executors — the decorators ([`SubComm`],
//! [`ReliableComm`], `netsim::FaultyComm`) and the collective algorithms — is
//! written once against [`AsyncCommunicator`] and runs unchanged on all of
//! them, exactly like the paper's "user-level" implementation runs on both of
//! its machines; the two blocking executors enter through [`SyncComm`] +
//! [`complete_now`].
//!
//! ## Example
//!
//! ```
//! use mpsim::{ThreadWorld, Communicator, Tag};
//!
//! let outcome = ThreadWorld::run(4, |comm| {
//!     // rank 0 sends its rank to everyone else
//!     if comm.rank() == 0 {
//!         for peer in 1..comm.size() {
//!             comm.send(&[42], peer, Tag(7)).unwrap();
//!         }
//!         42u8
//!     } else {
//!         let mut buf = [0u8; 1];
//!         comm.recv(&mut buf, 0, Tag(7)).unwrap();
//!         buf[0]
//!     }
//! });
//! assert!(outcome.results.iter().all(|&v| v == 42));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod acomm;
pub mod barrier;
pub mod comm;
pub mod counters;
pub mod error;
pub mod event_comm;
pub mod event_mailbox;
pub mod event_timer;
#[cfg(test)]
mod lane_prop;
pub mod mailbox;
pub mod pool;
pub mod proto;
pub mod rank;
pub mod reliable;
pub mod sub_comm;
pub mod sync;
pub mod thread_comm;

pub use acomm::{complete_now, deadline_after, AsyncCommunicator, SyncComm};
pub use barrier::StopBarrier;
pub use comm::Communicator;
pub use counters::{PeerTraffic, ReactorStats, TrafficStats, WakeupStats, WorldTraffic};
pub use error::{CommError, Result};
pub use event_comm::{EventComm, EventWorld};
pub use event_mailbox::LaneMailbox;
pub use event_timer::{TimerHandle, TimerWheel};
pub use pool::{BufferPool, Payload, PoolStats, PooledBuf, SharedBuf};
pub use rank::{
    absolute_rank, ceil_div, ceil_log2, ceil_pof2, is_pof2, relative_rank, ring_left, ring_right,
    Rank, Tag,
};
pub use reliable::{ReliableComm, RetryConfig};
pub use sub_comm::SubComm;
pub use thread_comm::{ThreadComm, ThreadWorld, WorldOutcome};
