//! The simulated executor: one OS thread per rank, each carrying a virtual
//! clock, all sharing one [`Fabric`].
//!
//! `SimWorld::run` mirrors `mpsim::ThreadWorld::run` — the same collective
//! code runs on both, and both launch their ranks through
//! [`mpsim::thread_comm::run_rank_threads`] — but time is *virtual*:
//! `Communicator::now_ns` returns the rank's simulated clock, and
//! [`SimOutcome`] reports per-rank finish times and the makespan of the
//! run, which the benchmark harness converts into the paper's bandwidth
//! numbers. A rank that returns is marked done in the fabric and departs
//! both barrier phases; a rank that panics stops the fabric and both
//! barriers.
//!
//! `SimComm` writes only the envelope core — `post` and `take` of one
//! payload, and an `exchange` that posts both fabric offers before waiting
//! on either — so every copying, shared and timed call is the trait's own
//! and costs the same fabric operations as on the other executors.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use mpsim::sync::Mutex;

use mpsim::barrier::StopBarrier;
use mpsim::counters::CounterCell;
use mpsim::pool::{Payload, SharedBuf};
use mpsim::thread_comm::run_rank_threads;
use mpsim::{ceil_log2, CommError, Communicator, Rank, Result, Tag, WorldTraffic};

use crate::fabric::{Fabric, SimTime};
use crate::model::NetworkModel;
use crate::topology::Placement;

/// Everything a simulated world run produced.
#[derive(Debug)]
pub struct SimOutcome<R> {
    /// Per-rank return values of the user closure, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank traffic statistics.
    pub traffic: WorldTraffic,
    /// Per-rank final virtual times in nanoseconds.
    pub finish_ns: Vec<f64>,
    /// Maximum finish time — the simulated wall-clock of the whole run.
    pub makespan_ns: f64,
    /// Per-rank time breakdown (communication vs modelled compute).
    pub breakdown: Vec<TimeBreakdown>,
    /// Final counters of the fabric's payload buffer pool.
    pub pool: mpsim::PoolStats,
}

/// Where a rank's virtual time went.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Time spent inside communication calls (including blocking waits).
    pub comm_ns: f64,
    /// Time added by [`SimComm::compute`].
    pub compute_ns: f64,
}

impl TimeBreakdown {
    /// Fraction of the rank's total busy time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.comm_ns + self.compute_ns;
        if total > 0.0 {
            self.comm_ns / total
        } else {
            0.0
        }
    }
}

struct BarrierState {
    vtimes: Vec<SimTime>,
}

struct Shared {
    fabric: Fabric,
    enter: StopBarrier,
    leave: StopBarrier,
    barrier_state: Mutex<BarrierState>,
}

/// Entry point for simulated runs.
pub struct SimWorld;

impl SimWorld {
    /// Run `f` on `n` simulated ranks placed on a cluster of
    /// `placement.cores_per_node`-core nodes with network `model`.
    ///
    /// Panics in rank closures are propagated after the world is torn down,
    /// exactly like the threaded backend.
    pub fn run<R, F>(model: NetworkModel, placement: Placement, n: usize, f: F) -> SimOutcome<R>
    where
        R: Send,
        F: Fn(&SimComm) -> R + Sync,
    {
        Self::run_inner(model, placement, n, f, false).0
    }

    /// Like [`run`](Self::run), additionally recording every transfer —
    /// see [`crate::events`] for the analysis helpers.
    pub fn run_traced<R, F>(
        model: NetworkModel,
        placement: Placement,
        n: usize,
        f: F,
    ) -> (SimOutcome<R>, Vec<crate::events::TransferEvent>)
    where
        R: Send,
        F: Fn(&SimComm) -> R + Sync,
    {
        Self::run_inner(model, placement, n, f, true)
    }

    fn run_inner<R, F>(
        model: NetworkModel,
        placement: Placement,
        n: usize,
        f: F,
        traced: bool,
    ) -> (SimOutcome<R>, Vec<crate::events::TransferEvent>)
    where
        R: Send,
        F: Fn(&SimComm) -> R + Sync,
    {
        assert!(n >= 1, "world needs at least one rank");
        let shared = Arc::new(Shared {
            fabric: Fabric::with_trace(model, placement, n, traced),
            enter: StopBarrier::new(n),
            leave: StopBarrier::new(n),
            barrier_state: Mutex::new(BarrierState { vtimes: vec![0.0; n] }),
        });

        let ranks = run_rank_threads(
            n,
            |rank| {
                let comm = SimComm {
                    rank,
                    size: n,
                    shared: Arc::clone(&shared),
                    clock: Cell::new(0.0),
                    counters: CounterCell::default(),
                    breakdown: Cell::new(TimeBreakdown::default()),
                };
                (f(&comm), comm.counters.take(), comm.clock.get(), comm.breakdown.get())
            },
            |rank| {
                // This rank will never communicate again: fail operations
                // that need it instead of letting peers block forever (the
                // failure detector the self-healing collectives rely on).
                shared.fabric.rank_done(rank);
                shared.enter.depart(rank);
                shared.leave.depart(rank);
            },
            || {
                shared.fabric.stop();
                shared.enter.stop();
                shared.leave.stop();
            },
        );

        let mut results = Vec::with_capacity(n);
        let mut traffic = Vec::with_capacity(n);
        let mut finish_ns = Vec::with_capacity(n);
        let mut breakdown = Vec::with_capacity(n);
        for (r, t, v, b) in ranks {
            results.push(r);
            traffic.push(t);
            finish_ns.push(v);
            breakdown.push(b);
        }
        let makespan_ns = finish_ns.iter().copied().fold(0.0, f64::max);
        let events = shared.fabric.take_trace();
        let pool = shared.fabric.pool_stats();
        (
            SimOutcome {
                results,
                traffic: WorldTraffic::new(traffic),
                finish_ns,
                makespan_ns,
                breakdown,
                pool,
            },
            events,
        )
    }
}

/// Rank-local communicator handle for the simulated backend.
pub struct SimComm {
    rank: Rank,
    size: usize,
    shared: Arc<Shared>,
    clock: Cell<SimTime>,
    counters: CounterCell,
    breakdown: Cell<TimeBreakdown>,
}

impl SimComm {
    /// This rank's current virtual time in nanoseconds (`f64` precision;
    /// [`Communicator::now_ns`] rounds).
    pub fn vtime(&self) -> SimTime {
        self.clock.get()
    }

    /// Advance this rank's clock by `ns` of local computation.
    ///
    /// Lets workloads model compute phases between communication calls
    /// (e.g. the matrix-multiply example's local GEMM).
    pub fn compute(&self, ns: f64) {
        assert!(ns >= 0.0, "cannot compute for negative time");
        self.clock.set(self.clock.get() + ns);
        let mut b = self.breakdown.get();
        b.compute_ns += ns;
        self.breakdown.set(b);
    }

    /// Run one communication call from the current clock and charge the
    /// clock's movement across it to communication, whether or not it
    /// succeeds.
    fn comm_call<T>(&self, call: impl FnOnce(SimTime) -> Result<T>) -> Result<T> {
        let from = self.vtime();
        let result = call(from);
        let mut b = self.breakdown.get();
        b.comm_ns += self.clock.get() - from;
        self.breakdown.set(b);
        result
    }

    /// Start a post ready at `ready`: the CPU overhead that got the clock
    /// there is spent even if the post or its wait fails, so the clock
    /// moves first. This keeps the rank's post times monotone, which the
    /// fabric's pruning relies on.
    fn start_post(&self, ready: SimTime) -> SimTime {
        self.advance_to(ready);
        ready
    }

    /// The placement this world is simulated on.
    pub fn placement(&self) -> Placement {
        self.shared.fabric.placement()
    }

    /// Move the clock forward to `t` if `t` is later; earlier completions
    /// (e.g. a transfer that finished while we were busy) leave the
    /// clock untouched.
    fn advance_to(&self, t: SimTime) {
        self.clock.set(self.clock.get().max(t));
    }
}

impl Communicator for SimComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn now_ns(&self) -> u64 {
        self.vtime().round() as u64
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        // One counted copy stages the bytes into a fabric-pool rental;
        // every post of it is a refcount clone.
        self.counters.record_copy(data.len());
        SharedBuf::new(self.shared.fabric.rent_copy(data))
    }

    fn note_copy(&self, bytes: usize) {
        self.counters.record_copy(bytes);
    }

    /// The payload itself is injected into the fabric — no byte moves, only
    /// the simulated wire time is paid. Counted once the fabric accepted the
    /// offer, like a post on the other executors, whatever the wait brings.
    fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        let fabric = &self.shared.fabric;
        self.comm_call(|from| {
            // LogGP o: the CPU is busy issuing the message before it can move.
            let ready = self.start_post(from + fabric.model().o_send_ns);
            let len = payload.len();
            let h = fabric.post_send_buf(self.rank, dest, tag, payload, ready)?;
            self.counters.record_send(dest, len);
            self.advance_to(fabric.wait_send(&h)?);
            Ok(())
        })
    }

    /// The fabric hands the in-flight payload through uncopied. A bounded
    /// take waits on the *wall clock* — the simulator has no virtual-time
    /// event for "no message by T", so the timeout fires only when no
    /// matching send materializes in real time (in fault scenarios, because
    /// the sender crashed or the fault plan dropped the message). On expiry
    /// the receive offer is withdrawn, nothing is consumed, and this rank's
    /// virtual clock advances by the timeout so the wait remains visible in
    /// the simulated timeline.
    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Payload> {
        self.check_rank(src)?;
        let fabric = &self.shared.fabric;
        self.comm_call(|from| {
            let ready = self.start_post(from + fabric.model().o_recv_ns);
            let h = fabric.post_recv(src, self.rank, tag, capacity, ready)?;
            let result = match timeout {
                None => fabric.wait_recv(&h),
                Some(timeout) => match fabric.wait_recv_timeout(&h, timeout) {
                    Some(r) => r,
                    None => {
                        if fabric.cancel_recv(src, self.rank, tag, &h) {
                            self.advance_to(ready + timeout.as_secs_f64() * 1e9);
                            return Err(CommError::Timeout { peer: src });
                        }
                        // A send matched while we were timing out: the
                        // transfer is committed, so take its result rather
                        // than drop data.
                        fabric.wait_recv(&h)
                    }
                },
            };
            let (data, done) = result?;
            self.advance_to(done);
            self.counters.record_recv(src, data.len());
            Ok(data)
        })
    }

    /// Both fabric offers are posted before either is awaited — the property
    /// that keeps rings of rendezvous-size exchanges deadlock-free
    /// (MPI_Sendrecv). The CPU issues the send, then posts the receive: both
    /// overheads serialize on this rank even though the transfers overlap.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<Payload> {
        self.check_rank(dest)?;
        self.check_rank(src)?;
        let fabric = &self.shared.fabric;
        let model = fabric.model();
        self.comm_call(|now| {
            let send_ready = self.start_post(now + model.o_send_ns);
            let len = payload.len();
            let sh = fabric.post_send_buf(self.rank, dest, sendtag, payload, send_ready)?;
            self.counters.record_send(dest, len);
            let recv_ready = self.start_post(send_ready + model.o_recv_ns);
            let rh = fabric.post_recv(src, self.rank, recvtag, capacity, recv_ready)?;
            let send_done = fabric.wait_send(&sh)?;
            let (data, recv_done) = fabric.wait_recv(&rh)?;
            self.advance_to(send_done.max(recv_done));
            self.counters.record_recv(src, data.len());
            Ok(data)
        })
    }

    /// Barrier: all clocks jump to the latest participant plus a
    /// dissemination cost of `barrier_alpha_ns · ceil(log2 n)`.
    fn barrier(&self) -> Result<()> {
        if self.size == 1 {
            return Ok(());
        }
        self.shared.barrier_state.lock().vtimes[self.rank] = self.vtime();
        self.shared.enter.wait()?;
        let max = {
            let st = self.shared.barrier_state.lock();
            st.vtimes.iter().copied().fold(0.0, f64::max)
        };
        // Second phase keeps anyone from writing the next barrier's time
        // before every rank has read this one's maximum.
        self.shared.leave.wait()?;
        let cost = self.shared.fabric.model().barrier_alpha_ns * f64::from(ceil_log2(self.size));
        self.comm_call(|_| {
            self.advance_to(max + cost);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_world(alpha: f64, beta: f64, cores: usize, _n: usize) -> (NetworkModel, Placement) {
        (NetworkModel::uniform(alpha, beta), Placement::new(cores))
    }

    #[test]
    fn pingpong_virtual_times() {
        let (m, p) = uniform_world(1000.0, 1.0, 8, 2);
        let out = SimWorld::run(m, p, 2, |comm| {
            let mut buf = [0u8; 100];
            if comm.rank() == 0 {
                comm.send(&[7u8; 100], 1, Tag(0)).unwrap();
                comm.recv(&mut buf, 1, Tag(1)).unwrap();
            } else {
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
                comm.send(&buf, 0, Tag(1)).unwrap();
            }
            comm.vtime()
        });
        // each hop: α + 100β = 1100; round trip = 2200 (rendezvous intra:
        // both sides leave at transfer end)
        assert_eq!(out.finish_ns, vec![2200.0, 2200.0]);
        assert_eq!(out.makespan_ns, 2200.0);
        assert_eq!(out.traffic.total_bytes(), 200);
    }

    #[test]
    fn sendrecv_ring_no_deadlock_under_rendezvous() {
        // uniform → rendezvous everywhere: a naive send-then-recv would
        // deadlock; the fused sendrecv must not.
        let n = 8;
        let (m, p) = uniform_world(10.0, 1.0, 4, n);
        let out = SimWorld::run(m, p, n, |comm| {
            let sbuf = [comm.rank() as u8; 16];
            let mut rbuf = [0u8; 16];
            let right = mpsim::ring_right(comm.rank(), comm.size());
            let left = mpsim::ring_left(comm.rank(), comm.size());
            comm.sendrecv(&sbuf, right, Tag(0), &mut rbuf, left, Tag(0)).unwrap();
            rbuf[0]
        });
        for (rank, &got) in out.results.iter().enumerate() {
            assert_eq!(got as usize, mpsim::ring_left(rank, n));
        }
        // all ranks advance by exactly one transfer: 10 + 16 = 26
        assert!(out.finish_ns.iter().all(|&t| t == 26.0), "{:?}", out.finish_ns);
    }

    #[test]
    fn clocks_are_deterministic_without_contention() {
        let run = || {
            let (m, p) = uniform_world(50.0, 2.0, 4, 6);
            SimWorld::run(m, p, 6, |comm| {
                let mut buf = vec![0u8; 64];
                if comm.rank() == 0 {
                    buf = (0..64u8).collect();
                }
                bcast_like(comm, &mut buf);
                comm.vtime()
            })
            .finish_ns
        };
        // simple deterministic chain broadcast for the test
        fn bcast_like(comm: &SimComm, buf: &mut [u8]) {
            let r = comm.rank();
            if r > 0 {
                comm.recv(buf, r - 1, Tag(9)).unwrap();
            }
            if r + 1 < comm.size() {
                comm.send(buf, r + 1, Tag(9)).unwrap();
            }
        }
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // chain: each hop adds 50 + 128 = 178
        assert_eq!(a[5], 5.0 * 178.0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let (m, p) = uniform_world(100.0, 0.0, 4, 4);
        let out = SimWorld::run(m, p, 4, |comm| {
            comm.compute(1000.0 * comm.rank() as f64);
            comm.barrier().unwrap();
            comm.vtime()
        });
        // max vtime 3000 + barrier cost 100·log2(4)=200
        assert!(out.results.iter().all(|&t| t == 3200.0), "{:?}", out.results);
    }

    #[test]
    fn compute_advances_clock() {
        let (m, p) = uniform_world(0.0, 0.0, 1, 1);
        let out = SimWorld::run(m, p, 1, |comm| {
            comm.compute(123.0);
            comm.compute(877.0);
            comm.vtime()
        });
        assert_eq!(out.results[0], 1000.0);
        assert_eq!(out.breakdown[0].compute_ns, 1000.0);
        assert_eq!(out.breakdown[0].comm_ns, 0.0);
        assert_eq!(out.breakdown[0].comm_fraction(), 0.0);
    }

    #[test]
    fn breakdown_attributes_comm_and_compute() {
        let (m, p) = uniform_world(100.0, 1.0, 4, 2);
        let out = SimWorld::run(m, p, 2, |comm| {
            comm.compute(500.0);
            let mut buf = [0u8; 50];
            if comm.rank() == 0 {
                comm.send(&[1u8; 50], 1, Tag(0)).unwrap();
            } else {
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
            }
        });
        for b in &out.breakdown {
            assert_eq!(b.compute_ns, 500.0);
            // rendezvous: both sides leave at 500 + 150 → 150ns of comm
            assert_eq!(b.comm_ns, 150.0);
            assert!((b.comm_fraction() - 150.0 / 650.0).abs() < 1e-12);
        }
    }

    #[test]
    fn breakdown_counts_blocking_wait_as_comm() {
        // rank 1 computes for 10_000 first; rank 0's send blocks that long
        let (m, p) = uniform_world(0.0, 1.0, 4, 2);
        let out = SimWorld::run(m, p, 2, |comm| {
            let mut buf = [0u8; 10];
            if comm.rank() == 0 {
                comm.send(&[1u8; 10], 1, Tag(0)).unwrap();
            } else {
                comm.compute(10_000.0);
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
            }
        });
        assert_eq!(out.breakdown[0].comm_ns, 10_010.0); // blocked on receiver
        assert_eq!(out.breakdown[1].comm_ns, 10.0);
    }

    #[test]
    fn intra_vs_inter_costs_differ() {
        let model = NetworkModel {
            intra: crate::model::LevelCosts { alpha_ns: 10.0, beta_ns_per_byte: 0.1 },
            inter: crate::model::LevelCosts { alpha_ns: 1000.0, beta_ns_per_byte: 1.0 },
            eager_threshold: 0,
            rendezvous_handshake_ns: 0.0,
            eager_unpack_copy: false,
            contention: false,
            mem_channels: 1.0,
            barrier_alpha_ns: 0.0,
            o_send_ns: 0.0,
            o_recv_ns: 0.0,
            eager_credits: usize::MAX,
            backbone_beta_ns_per_byte: 0.0,
        };
        let out = SimWorld::run(model, Placement::new(2), 4, |comm| {
            let mut buf = [0u8; 100];
            match comm.rank() {
                0 => comm.send(&[1u8; 100], 1, Tag(0)).unwrap(), // intra (node 0)
                1 => {
                    comm.recv(&mut buf, 0, Tag(0)).unwrap();
                }
                2 => comm.send(&[1u8; 100], 3, Tag(1)).unwrap(), // intra (node 1)
                _ => {
                    comm.recv(&mut buf, 2, Tag(1)).unwrap();
                }
            }
            comm.vtime()
        });
        assert_eq!(out.results[1], 10.0 + 10.0); // α + 100·0.1
                                                 // now inter-node
        let model = NetworkModel {
            intra: crate::model::LevelCosts { alpha_ns: 10.0, beta_ns_per_byte: 0.1 },
            inter: crate::model::LevelCosts { alpha_ns: 1000.0, beta_ns_per_byte: 1.0 },
            eager_threshold: 0,
            rendezvous_handshake_ns: 0.0,
            eager_unpack_copy: false,
            contention: false,
            mem_channels: 1.0,
            barrier_alpha_ns: 0.0,
            o_send_ns: 0.0,
            o_recv_ns: 0.0,
            eager_credits: usize::MAX,
            backbone_beta_ns_per_byte: 0.0,
        };
        let out = SimWorld::run(model, Placement::new(1), 2, |comm| {
            let mut buf = [0u8; 100];
            if comm.rank() == 0 {
                comm.send(&[1u8; 100], 1, Tag(0)).unwrap();
            } else {
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
            }
            comm.vtime()
        });
        assert_eq!(out.results[1], 1000.0 + 100.0);
    }

    #[test]
    fn panic_propagates_and_unblocks() {
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (m, p) = uniform_world(0.0, 0.0, 4, 3);
            SimWorld::run(m, p, 3, |comm| {
                if comm.rank() == 2 {
                    panic!("sim rank exploded");
                }
                let mut buf = [0u8; 1];
                let _ = comm.recv(&mut buf, 2, Tag(0));
                let _ = comm.barrier();
            })
        }));
        assert!(res.is_err());
    }

    #[test]
    fn recv_timeout_expires_when_no_message_comes() {
        let (m, p) = uniform_world(0.0, 0.0, 4, 2);
        let out = SimWorld::run(m, p, 2, |comm| {
            let mut buf = [0u8; 8];
            if comm.rank() == 1 {
                // nothing is ever sent on Tag(7); rank 0 stays alive blocked
                // on Tag(1), so this must be a genuine timeout, not PeerFailed
                let got =
                    comm.recv_timeout(&mut buf, 0, Tag(7), std::time::Duration::from_millis(50));
                comm.send(&[1], 0, Tag(1)).unwrap();
                got.unwrap_err()
            } else {
                comm.recv(&mut buf, 1, Tag(1)).unwrap();
                CommError::WorldStopped // placeholder, unchecked
            }
        });
        assert_eq!(out.results[1], CommError::Timeout { peer: 0 });
    }

    #[test]
    fn recv_timeout_delivers_message_arriving_in_time() {
        let (m, p) = uniform_world(10.0, 1.0, 4, 2);
        let out = SimWorld::run(m, p, 2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[42u8; 16], 1, Tag(0)).unwrap();
                0
            } else {
                let mut buf = [0u8; 16];
                let n = comm
                    .recv_timeout(&mut buf, 0, Tag(0), std::time::Duration::from_secs(30))
                    .unwrap();
                assert_eq!(&buf[..n], &[42u8; 16]);
                n
            }
        });
        assert_eq!(out.results[1], 16);
        assert_eq!(out.traffic.total_bytes(), 16);
    }

    #[test]
    fn recv_from_done_rank_fails_instead_of_hanging() {
        let (m, p) = uniform_world(0.0, 0.0, 4, 2);
        let out = SimWorld::run(m, p, 2, |comm| {
            if comm.rank() == 1 {
                return None; // exits immediately without sending
            }
            let mut buf = [0u8; 8];
            Some(comm.recv(&mut buf, 1, Tag(0)).unwrap_err())
        });
        assert_eq!(out.results[0], Some(CommError::PeerFailed { rank: 1 }));
    }

    #[test]
    fn messages_sent_before_exit_are_still_delivered() {
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.eager_threshold = usize::MAX; // sender completes without the receiver
        let out = SimWorld::run(m, Placement::new(4), 2, |comm| {
            if comm.rank() == 1 {
                comm.send(&[1u8; 4], 0, Tag(0)).unwrap();
                comm.send(&[2u8; 4], 0, Tag(0)).unwrap();
                return (0, None);
            }
            let mut buf = [0u8; 4];
            comm.recv(&mut buf, 1, Tag(0)).unwrap();
            let first = buf[0];
            comm.recv(&mut buf, 1, Tag(0)).unwrap();
            assert_eq!((first, buf[0]), (1, 2));
            // queue drained: the third receive observes the exit
            ((first + buf[0]) as usize, Some(comm.recv(&mut buf, 1, Tag(0)).unwrap_err()))
        });
        assert_eq!(out.results[0], (3, Some(CommError::PeerFailed { rank: 1 })));
    }

    #[test]
    fn barrier_after_peer_exit_fails_instead_of_hanging() {
        let (m, p) = uniform_world(0.0, 0.0, 4, 3);
        let out = SimWorld::run(m, p, 3, |comm| {
            if comm.rank() == 2 {
                return None;
            }
            // rank 2 never arrives; without departure tracking this would
            // deadlock the world
            Some(comm.barrier().unwrap_err())
        });
        assert_eq!(out.results[0], Some(CommError::PeerFailed { rank: 2 }));
        assert_eq!(out.results[1], Some(CommError::PeerFailed { rank: 2 }));
        assert_eq!(out.results[2], None);
    }

    #[test]
    fn rendezvous_send_to_exited_rank_fails_instead_of_hanging() {
        let (m, p) = uniform_world(0.0, 1.0, 4, 2); // uniform → rendezvous
        let out = SimWorld::run(m, p, 2, |comm| {
            if comm.rank() == 1 {
                return None;
            }
            Some(comm.send(&[0u8; 64], 1, Tag(0)).unwrap_err())
        });
        assert_eq!(out.results[0], Some(CommError::PeerFailed { rank: 1 }));
    }

    #[test]
    fn run_traced_records_every_transfer() {
        let (m, p) = uniform_world(10.0, 1.0, 2, 4);
        let (out, events) = SimWorld::run_traced(m, p, 4, |comm| {
            if comm.rank() == 0 {
                for peer in 1..comm.size() {
                    comm.send(&vec![0u8; peer * 10], peer, Tag(0)).unwrap();
                }
            } else {
                let mut buf = vec![0u8; comm.rank() * 10];
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
            }
        });
        assert_eq!(events.len() as u64, out.traffic.total_msgs());
        let summary = crate::events::summarize(&events);
        assert_eq!(summary.intra_msgs + summary.inter_msgs, 3);
        assert_eq!(summary.intra_bytes + summary.inter_bytes, 60);
        // ranks 0,1 share node 0; ranks 2,3 are on node 1
        assert_eq!(summary.intra_msgs, 1);
        assert!(events.iter().all(|e| e.delivered_ns >= e.sender_ready_ns));
        // plain run() records nothing
        let (m, p) = uniform_world(10.0, 1.0, 2, 2);
        let out = SimWorld::run(m, p, 2, |comm| comm.rank());
        assert_eq!(out.results, vec![0, 1]);
    }

    #[test]
    fn traffic_counted_same_as_threaded_backend() {
        let (m, p) = uniform_world(5.0, 1.0, 4, 4);
        let out = SimWorld::run(m, p, 4, |comm| {
            if comm.rank() == 0 {
                for peer in 1..comm.size() {
                    comm.send(&[0u8; 8], peer, Tag(0)).unwrap();
                }
            } else {
                let mut buf = [0u8; 8];
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
            }
        });
        assert_eq!(out.traffic.total_msgs(), 3);
        assert_eq!(out.traffic.total_bytes(), 24);
        assert!(out.traffic.is_balanced());
    }

    #[test]
    fn shared_send_owned_recv_pays_only_the_staging_copy() {
        // The zero-copy surface on the simulator: one counted staging copy
        // covers any number of refcounted sends, and an owned receive takes
        // the in-flight envelope without touching RAM at all.
        let (m, p) = uniform_world(10.0, 1.0, 4, 2);
        let out = SimWorld::run(m, p, 2, |comm| {
            if comm.rank() == 0 {
                let shared = comm.make_shared(&[0xAB; 64]);
                comm.send_shared(&shared, 1, Tag(0)).unwrap();
                comm.send_shared(&shared, 1, Tag(1)).unwrap();
            } else {
                let a = comm.recv_owned(64, 0, Tag(0)).unwrap();
                let b = comm.recv_owned(64, 0, Tag(1)).unwrap();
                assert_eq!(&a[..], &[0xAB; 64]);
                assert_eq!(&b[..], &[0xAB; 64]);
            }
        });
        assert_eq!(out.traffic.per_rank[0].bytes_copied, 64, "one staging copy, two sends");
        assert_eq!(out.traffic.per_rank[1].bytes_copied, 0, "owned receives copy nothing");
        assert_eq!(out.traffic.total_bytes(), 128, "wire accounting is unchanged");
    }
}
