//! The threaded executor: one OS thread per rank, real byte movement.
//!
//! This backend plays the role of the paper's *user-level* implementation
//! running on real hardware: sends genuinely copy payload bytes through
//! memory, so a broadcast algorithm that moves fewer bytes does measurably
//! less work — which is precisely the intra-node effect the paper describes
//! ("the point-to-point operation is implemented via memory copying, which
//! [...] can be minimized in the tuned ring allgather algorithm").
//!
//! Posts are *eager*: the payload moves into the destination [`Mailbox`]
//! as-is and the sender continues immediately. This makes the default
//! [`Communicator::exchange`] (post then take) deadlock-free. `ThreadComm`
//! writes only the envelope core; every copying, shared and timed call is
//! the trait's own. Each mailbox matches with the reactor's
//! [`LaneMailbox`](crate::LaneMailbox), sized by the world.
//!
//! [`run_rank_threads`] is the one spawn → `catch_unwind` → join protocol
//! for thread-per-rank executors; `ThreadWorld` and netsim's `SimWorld`
//! both launch their ranks through it.

#![allow(
    clippy::disallowed_methods,
    reason = "ThreadWorld runs on real threads: its clock and timeouts are the wall clock"
)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::barrier::StopBarrier;
use crate::comm::Communicator;
use crate::counters::{CounterCell, ReactorStats, TrafficStats, WorldTraffic};
use crate::error::{CommError, Result};
use crate::mailbox::Mailbox;
use crate::pool::{BufferPool, Payload, PoolStats, SharedBuf};
use crate::rank::{Rank, Tag};

/// Everything a world run produced.
#[derive(Debug)]
pub struct WorldOutcome<R> {
    /// Per-rank return values of the user closure, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank traffic statistics, indexed by rank.
    pub traffic: WorldTraffic,
    /// Final buffer-pool counters for the world's shared [`BufferPool`].
    ///
    /// After a steady-state workload, `misses` stops growing and
    /// [`PoolStats::hit_rate`] approaches 1.0 — every message rides a
    /// recycled buffer instead of a fresh heap allocation.
    pub pool: PoolStats,
    /// Wall-clock duration of the whole run (spawn to last join).
    pub elapsed: Duration,
    /// Reactor introspection counters ([`ReactorStats`]). A thread world
    /// has no reactor: only `mailbox_spills` and `queued_peak`, summed over
    /// the ranks' mailboxes, are measured; the scheduler counters stay zero.
    pub reactor: ReactorStats,
}

/// Run `rank_main(rank)` for every rank of an `n`-rank world, one scoped
/// OS thread each, and return the results indexed by rank.
///
/// A rank whose `rank_main` returns has its result stored, then runs
/// `on_exit(rank)` — the executor's hook for failing peers that still wait
/// on it. A rank that panics runs `on_stop()` instead, which must unblock
/// every peer; once all threads have joined, the first panic (in rank
/// order) is re-raised in the caller.
pub fn run_rank_threads<R: Send>(
    n: usize,
    rank_main: impl Fn(Rank) -> R + Sync,
    on_exit: impl Fn(Rank) + Sync,
    on_stop: impl Fn() + Sync,
) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut panicked: Option<Box<dyn Any + Send>> = None;
    std::thread::scope(|scope| {
        let (rank_main, on_exit, on_stop) = (&rank_main, &on_exit, &on_stop);
        let handles: Vec<_> = slots
            .iter_mut()
            .enumerate()
            .map(|(rank, slot)| {
                scope.spawn(move || match catch_unwind(AssertUnwindSafe(|| rank_main(rank))) {
                    Ok(r) => {
                        *slot = Some(r);
                        on_exit(rank);
                        None
                    }
                    Err(payload) => {
                        on_stop();
                        Some(payload)
                    }
                })
            })
            .collect();
        for h in handles {
            #[allow(clippy::expect_used, reason = "a panicking rank must abort the whole world")]
            if let Some(payload) = h.join().expect("rank thread poisoned the scope") {
                panicked.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
    #[allow(clippy::expect_used, reason = "a rank panic was already re-thrown by join above")]
    let finished = |slot: Option<R>| slot.expect("rank finished without result despite no panic");
    slots.into_iter().map(finished).collect()
}

struct Shared {
    mailboxes: Vec<Mailbox>,
    barrier: StopBarrier,
    pool: Arc<BufferPool>,
    start: Instant,
    /// Per-rank "left the world for good" flags, set when a rank's closure
    /// returns. A peer blocked receiving from an exited rank can never be
    /// satisfied (messages sent before the exit are still drained first), so
    /// it is failed with [`CommError::PeerFailed`] instead of hanging.
    exited: Vec<AtomicBool>,
}

/// Entry point for threaded runs.
///
/// See [`ThreadWorld::run`].
pub struct ThreadWorld;

impl ThreadWorld {
    /// Run `f` on `n` ranks, each on its own OS thread, and gather results.
    ///
    /// If any rank panics, the world is stopped (unblocking peers with
    /// [`CommError::WorldStopped`]) and the panic is propagated to the
    /// caller once all threads have joined.
    pub fn run<R, F>(n: usize, f: F) -> WorldOutcome<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        assert!(n >= 1, "world needs at least one rank");
        let shared = Arc::new(Shared {
            mailboxes: (0..n).map(|_| Mailbox::for_world(n)).collect(),
            barrier: StopBarrier::new(n),
            pool: BufferPool::new(),
            start: Instant::now(),
            exited: (0..n).map(|_| AtomicBool::new(false)).collect(),
        });
        let ranks = run_rank_threads(
            n,
            |rank| {
                let comm = ThreadComm {
                    rank,
                    shared: Arc::clone(&shared),
                    counters: CounterCell::default(),
                };
                (f(&comm), comm.counters.take())
            },
            |rank| {
                // Wake any peer blocked on the departed rank: in a receive
                // (it re-checks the exited flag via its watch) or in the
                // world barrier (which can never complete again).
                shared.exited[rank].store(true, Ordering::SeqCst);
                shared.barrier.depart(rank);
                shared.mailboxes.iter().for_each(Mailbox::wake_all);
            },
            || {
                shared.mailboxes.iter().for_each(Mailbox::stop);
                shared.barrier.stop();
            },
        );
        let elapsed = shared.start.elapsed();
        let (results, traffic) = ranks.into_iter().unzip();
        let mailbox_spills = shared.mailboxes.iter().map(Mailbox::spills).sum();
        let queued_peak = shared.mailboxes.iter().map(Mailbox::queued_peak).sum();
        WorldOutcome {
            results,
            traffic: WorldTraffic::new(traffic),
            pool: shared.pool.stats(),
            elapsed,
            reactor: ReactorStats { mailbox_spills, queued_peak, ..ReactorStats::default() },
        }
    }
}

/// Rank-local communicator handle for the threaded backend.
///
/// One instance exists per rank and stays on that rank's thread.
pub struct ThreadComm {
    rank: Rank,
    shared: Arc<Shared>,
    counters: CounterCell,
}

impl ThreadComm {
    /// Snapshot of this rank's traffic so far (final values are returned in
    /// [`WorldOutcome::traffic`]).
    pub fn traffic(&self) -> TrafficStats {
        self.counters.snapshot()
    }

    /// Snapshot of the world-shared buffer pool's counters.
    ///
    /// All ranks share one pool, so the numbers are global. Useful for
    /// asserting steady-state behaviour mid-run (e.g. "no new allocations
    /// happened between these two barriers").
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.mailboxes.len()
    }

    fn now_ns(&self) -> u64 {
        self.shared.start.elapsed().as_nanos() as u64
    }

    fn barrier(&self) -> Result<()> {
        self.shared.barrier.wait()
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        // One counted copy stages the user bytes into a pool rental (in
        // steady state a freelist pop + memcpy); every post of (a slice of)
        // it is a refcount bump.
        self.counters.record_copy(data.len());
        SharedBuf::new(self.shared.pool.rent_copy(data))
    }

    fn note_copy(&self, bytes: usize) {
        self.counters.record_copy(bytes);
    }

    fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        self.counters.record_send(dest, payload.len());
        // Zero-copy: the mailbox receives the payload itself — no bytes move
        // until (unless) the receiver lands them.
        self.shared.mailboxes[dest].push(self.rank, tag, payload);
        Ok(())
    }

    /// Blocking, deadline-bounded and exited-peer-aware: the watch predicate
    /// fails the pop with [`CommError::PeerFailed`] when `src` has left the
    /// world (its closure returned) and its queued messages are exhausted —
    /// the fast failure-detection path the self-healing collectives rely
    /// on. Self-receives skip the watch: this rank is trivially alive.
    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Payload> {
        self.check_rank(src)?;
        // A deadline past the end of `Instant`'s range is no deadline.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let shared = &self.shared;
        let me = self.rank;
        let env = shared.mailboxes[me].pop_watch(src, tag, deadline, || {
            (src != me && shared.exited[src].load(Ordering::SeqCst))
                .then_some(CommError::PeerFailed { rank: src })
        })?;
        if env.data.len() > capacity {
            return Err(CommError::Truncation { capacity, incoming: env.data.len() });
        }
        self.counters.record_recv(src, env.data.len());
        Ok(env.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_of_one_runs() {
        let out = ThreadWorld::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier().unwrap();
            7u32
        });
        assert_eq!(out.results, vec![7]);
        assert_eq!(out.traffic.total_msgs(), 0);
    }

    #[test]
    fn pingpong_roundtrip() {
        let out = ThreadWorld::run(2, |comm| {
            let mut buf = [0u8; 4];
            if comm.rank() == 0 {
                comm.send(&[1, 2, 3, 4], 1, Tag(1)).unwrap();
                comm.recv(&mut buf, 1, Tag(2)).unwrap();
            } else {
                comm.recv(&mut buf, 0, Tag(1)).unwrap();
                comm.send(&buf, 0, Tag(2)).unwrap();
            }
            buf
        });
        assert_eq!(out.results[0], [1, 2, 3, 4]);
        assert_eq!(out.results[1], [1, 2, 3, 4]);
        assert!(out.traffic.is_balanced());
        assert_eq!(out.traffic.total_msgs(), 2);
        assert_eq!(out.traffic.total_bytes(), 8);
    }

    #[test]
    fn nonovertaking_order_per_pair() {
        let out = ThreadWorld::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u8 {
                    comm.send(&[i], 1, Tag(0)).unwrap();
                }
                vec![]
            } else {
                let mut got = Vec::new();
                let mut buf = [0u8; 1];
                for _ in 0..100 {
                    comm.recv(&mut buf, 0, Tag(0)).unwrap();
                    got.push(buf[0]);
                }
                got
            }
        });
        assert_eq!(out.results[1], (0..100u8).collect::<Vec<_>>());
    }

    #[test]
    fn tags_demultiplex() {
        let out = ThreadWorld::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1], 1, Tag(10)).unwrap();
                comm.send(&[2], 1, Tag(20)).unwrap();
                (0, 0)
            } else {
                let mut a = [0u8; 1];
                let mut b = [0u8; 1];
                // receive in the opposite order of sending
                comm.recv(&mut a, 0, Tag(20)).unwrap();
                comm.recv(&mut b, 0, Tag(10)).unwrap();
                (a[0], b[0])
            }
        });
        assert_eq!(out.results[1], (2, 1));
    }

    #[test]
    fn sendrecv_ring_does_not_deadlock() {
        let n = 8;
        let out = ThreadWorld::run(n, |comm| {
            let right = crate::rank::ring_right(comm.rank(), comm.size());
            let left = crate::rank::ring_left(comm.rank(), comm.size());
            let sbuf = [comm.rank() as u8];
            let mut rbuf = [0u8; 1];
            comm.sendrecv(&sbuf, right, Tag(0), &mut rbuf, left, Tag(0)).unwrap();
            rbuf[0] as usize
        });
        for (rank, &got) in out.results.iter().enumerate() {
            assert_eq!(got, crate::rank::ring_left(rank, n));
        }
    }

    #[test]
    fn self_send_loops_back() {
        let out = ThreadWorld::run(1, |comm| {
            comm.send(&[9, 9], 0, Tag(3)).unwrap();
            let mut buf = [0u8; 2];
            comm.recv(&mut buf, 0, Tag(3)).unwrap();
            buf
        });
        assert_eq!(out.results[0], [9, 9]);
    }

    #[test]
    fn truncation_reported() {
        let out = ThreadWorld::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[0; 16], 1, Tag(0)).unwrap();
                Ok(0)
            } else {
                let mut small = [0u8; 4];
                comm.recv(&mut small, 0, Tag(0)).map(|_| 0)
            }
        });
        assert_eq!(out.results[1], Err(CommError::Truncation { capacity: 4, incoming: 16 }));
    }

    #[test]
    fn short_receive_into_larger_buffer_reports_true_length() {
        let out = ThreadWorld::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[5; 3], 1, Tag(0)).unwrap();
                0
            } else {
                let mut buf = [0xAAu8; 10];
                let n = comm.recv(&mut buf, 0, Tag(0)).unwrap();
                assert_eq!(&buf[..3], &[5, 5, 5]);
                assert_eq!(buf[3], 0xAA); // untouched tail
                n
            }
        });
        assert_eq!(out.results[1], 3);
    }

    #[test]
    fn invalid_rank_rejected() {
        let out = ThreadWorld::run(1, |comm| comm.send(&[], 5, Tag(0)));
        assert_eq!(out.results[0], Err(CommError::InvalidRank { rank: 5, size: 1 }));
    }

    #[test]
    fn barrier_synchronizes_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        ThreadWorld::run(6, |comm| {
            arrived.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            assert_eq!(arrived.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn traffic_counters_match_activity() {
        let out = ThreadWorld::run(3, |comm| {
            // each rank sends its rank+1 bytes to every other rank
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    comm.send(&vec![0u8; comm.rank() + 1], peer, Tag(0)).unwrap();
                }
            }
            let mut buf = [0u8; 8];
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    comm.recv(&mut buf, peer, Tag(0)).unwrap();
                }
            }
        });
        assert!(out.traffic.is_balanced());
        assert_eq!(out.traffic.total_msgs(), 6);
        // bytes: rank r sends 2*(r+1) bytes total: 2*1 + 2*2 + 2*3 = 12
        assert_eq!(out.traffic.total_bytes(), 12);
        assert_eq!(out.traffic.per_rank[0].msgs_sent, 2);
        assert_eq!(out.traffic.per_rank[2].bytes_sent, 6);
    }

    #[test]
    fn panic_in_one_rank_propagates_and_unblocks_peers() {
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ThreadWorld::run(3, |comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                // Peers block forever unless teardown unblocks them.
                let mut buf = [0u8; 1];
                let _ = comm.recv(&mut buf, 1, Tag(0));
            })
        }));
        assert!(res.is_err());
    }

    #[test]
    fn recv_timeout_expires_when_no_message_comes() {
        let out = ThreadWorld::run(2, |comm| {
            let mut buf = [0u8; 1];
            if comm.rank() == 0 {
                let t0 = Instant::now();
                let err =
                    comm.recv_timeout(&mut buf, 1, Tag(0), Duration::from_millis(40)).unwrap_err();
                // rank 1 is still alive (blocked in its own receive below),
                // so this must be a genuine deadline expiry, not PeerFailed.
                assert!(t0.elapsed() >= Duration::from_millis(30));
                comm.send(&[0], 1, Tag(1)).unwrap();
                err
            } else {
                // Stay alive until rank 0's deadline has expired.
                comm.recv(&mut buf, 0, Tag(1)).unwrap();
                CommError::Timeout { peer: 99 } // placeholder
            }
        });
        assert_eq!(out.results[0], CommError::Timeout { peer: 1 });
    }

    #[test]
    fn recv_timeout_delivers_message_arriving_in_time() {
        let out = ThreadWorld::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[42], 1, Tag(7)).unwrap();
                0
            } else {
                let mut buf = [0u8; 1];
                comm.recv_timeout(&mut buf, 0, Tag(7), Duration::from_secs(10)).unwrap();
                buf[0]
            }
        });
        assert_eq!(out.results[1], 42);
    }

    #[test]
    fn recv_from_exited_rank_fails_instead_of_hanging() {
        // Regression: a rank that returns early (e.g. an error path bailing
        // with `?`) used to leave peers blocked in `recv` until process
        // teardown. It must now surface as PeerFailed.
        let out = ThreadWorld::run(3, |comm| {
            if comm.rank() == 1 {
                return Ok(0); // exits immediately, sends nothing
            }
            let mut buf = [0u8; 1];
            comm.recv(&mut buf, 1, Tag(0)).map(|_| 1)
        });
        assert_eq!(out.results[0], Err(CommError::PeerFailed { rank: 1 }));
        assert_eq!(out.results[2], Err(CommError::PeerFailed { rank: 1 }));
    }

    #[test]
    fn messages_sent_before_exit_are_still_delivered() {
        // Draining semantics: data queued before the peer left must not be
        // discarded by the failure detector.
        let out = ThreadWorld::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1], 1, Tag(0)).unwrap();
                comm.send(&[2], 1, Tag(0)).unwrap();
                vec![]
            } else {
                // Let rank 0 exit first so both deliveries race its flag.
                std::thread::sleep(Duration::from_millis(20));
                let mut buf = [0u8; 1];
                let mut got = Vec::new();
                for _ in 0..2 {
                    comm.recv(&mut buf, 0, Tag(0)).unwrap();
                    got.push(buf[0]);
                }
                // ...but a third receive can never be satisfied.
                assert_eq!(
                    comm.recv(&mut buf, 0, Tag(0)).unwrap_err(),
                    CommError::PeerFailed { rank: 0 }
                );
                got
            }
        });
        assert_eq!(out.results[1], vec![1, 2]);
    }

    #[test]
    fn barrier_after_peer_exit_fails_instead_of_hanging() {
        let out = ThreadWorld::run(3, |comm| {
            if comm.rank() == 2 {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
            comm.barrier()
        });
        assert_eq!(out.results[0], Err(CommError::PeerFailed { rank: 2 }));
        assert_eq!(out.results[1], Err(CommError::PeerFailed { rank: 2 }));
    }

    #[test]
    fn now_ns_is_monotone() {
        ThreadWorld::run(2, |comm| {
            let a = comm.now_ns();
            comm.barrier().unwrap();
            let b = comm.now_ns();
            assert!(b >= a);
        });
    }
}
