//! # bcast-opt — umbrella crate for the broadcast-optimization reproduction
//!
//! Reproduction of *"A Bandwidth-saving Optimization for MPI Broadcast
//! Collective Operation"* (Zhou, Marjanovic, Niethammer, Gracia — ICPP 2015).
//!
//! This crate re-exports the three layers of the workspace and hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`):
//!
//! * [`mpsim`] — the MPI-like point-to-point substrate (threaded executor,
//!   traffic counters, sub-communicators),
//! * [`netsim`] — the virtual-time cluster simulator standing in for the
//!   paper's Cray XC40,
//! * [`core`] (crate `bcast-core`) — the broadcast algorithms: MPICH3's
//!   native scatter-ring-allgather, the paper's tuned variant, the binomial
//!   and recursive-doubling paths, the selection logic, the SMP-aware
//!   three-phase scheme, and the analytic traffic model.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results of every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bcast_core as core;
pub use mpsim;
pub use netsim;
