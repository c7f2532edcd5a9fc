//! # netsim — a virtual-time multi-core cluster simulator
//!
//! This crate stands in for the paper's evaluation hardware (a Cray XC40 and
//! an InfiniBand NEC cluster, neither of which this reproduction has).
//! It executes *unmodified* collective algorithms written against
//! [`mpsim::Communicator`] on a simulated cluster of multi-core nodes and
//! reports virtual completion times, from which the benchmark harness
//! derives the paper's bandwidth and speedup figures.
//!
//! The model captures exactly the mechanisms the paper's argument rests on:
//!
//! * two communication levels (intra-node memory copies vs inter-node
//!   interconnect messages) with distinct Hockney α–β costs,
//! * per-node resource contention — a node's NIC injects/ejects one message
//!   at a time and a node's memory system is shared — so *fewer messages*
//!   translates into *less queueing*, which is how the tuned broadcast's
//!   transfer savings become time savings,
//! * eager vs rendezvous protocols with the double-copy penalty on eager
//!   receives,
//! * LLC-pressure degradation of intra-node bandwidth (via
//!   [`presets::MachinePreset::model_for`]) reproducing the cache knees in
//!   the paper's Figure 6.
//!
//! ## Example
//!
//! ```
//! use netsim::{SimWorld, presets};
//! use mpsim::{Communicator, Tag};
//!
//! let preset = presets::hornet();
//! let model = preset.model_for(1 << 20, 48);
//! let out = SimWorld::run(model, preset.placement(), 48, |comm| {
//!     // rank 0 pings rank 47 (a different node: 24 cores/node)
//!     let mut buf = vec![0u8; 1 << 20];
//!     if comm.rank() == 0 {
//!         comm.send(&buf, 47, Tag(1)).unwrap();
//!     } else if comm.rank() == 47 {
//!         comm.recv(&mut buf, 0, Tag(1)).unwrap();
//!     }
//!     comm.now_ns()
//! });
//! // the receiver's virtual clock advanced by at least the serialization time
//! assert!(out.results[47] > 100_000);
//! assert_eq!(out.results[1], 0); // uninvolved ranks never move
//! ```

// Library code answers a peer death or timeout with a `CommError`, never a
// panic, and reads time only from the world's virtual clock (the wall-clock
// calls are listed in `clippy.toml`). Unit tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::let_underscore_must_use,
        clippy::disallowed_methods
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod events;
pub mod fabric;
pub mod fault;
pub mod model;
pub mod presets;
pub mod resources;
pub mod sim_comm;
pub mod topology;

pub use events::{summarize, TraceSummary, TransferEvent};
pub use fabric::{Fabric, SimTime};
pub use fault::{FaultAction, FaultPlan, FaultyComm, LinkFaults};
pub use model::{LevelCosts, NetworkModel, Protocol};
pub use presets::MachinePreset;
pub use resources::Timeline;
pub use sim_comm::{SimComm, SimOutcome, SimWorld, TimeBreakdown};
pub use topology::{Level, Placement};
