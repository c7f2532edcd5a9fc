//! The [`Communicator`] trait — what the two *blocking* executors
//! ([`ThreadComm`](crate::ThreadComm), `netsim::SimComm`) implement and what
//! `bcast_core::bcast_with`, the one blocking entry point of the collectives,
//! accepts.
//!
//! It is the same envelope core as
//! [`AsyncCommunicator`](crate::AsyncCommunicator), with blocking calls:
//! an executor writes how one [`Payload`] is posted and taken (and, where
//! post-then-take could deadlock, how the two fuse), plus identity, clock,
//! barrier and copy accounting. Every copying, shared and timed call is a
//! provided one-liner that runs the async variant of the same name through
//! [`SyncComm`] + [`complete_now`], so each variant's semantics is written
//! once, in `acomm.rs`, for all three executors.
//!
//! Nothing above the executors implements this trait, and only `bcast_with`
//! takes it: decorators and collectives are written once against
//! `AsyncCommunicator`, and a blocking backend enters that code through the
//! same bridge — `complete_now(x_async(&SyncComm::new(comm), …))`.

use std::time::Duration;

use crate::acomm::{complete_now, AsyncCommunicator, SyncComm};
use crate::error::Result;
use crate::pool::{Payload, SharedBuf};
use crate::rank::{Rank, Tag};

/// Blocking, tag-matched point-to-point communication within a fixed world.
///
/// The contract mirrors the slice of MPI used by MPICH's broadcast code:
///
/// * Messages between a given `(sender, receiver, tag)` triple are
///   **non-overtaking**: they are received in the order they were sent.
/// * [`take`](Communicator::take) blocks until a matching envelope arrives;
///   one longer than `capacity` is consumed and fails with
///   [`CommError::Truncation`](crate::CommError::Truncation).
/// * [`post`](Communicator::post) may be buffered (eager) or synchronous
///   (rendezvous) depending on the backend and message size — exactly the
///   freedom MPI gives implementations. Algorithms must not rely on either.
/// * [`exchange`](Communicator::exchange) behaves like a post and a take
///   executing *concurrently*, so rings of exchanges cannot deadlock
///   (MPI_Sendrecv semantics).
///
/// Self-messaging (`dest == rank`) is permitted and loops back locally.
pub trait Communicator {
    /// This process's rank, in `0..size()`.
    fn rank(&self) -> Rank;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Current time in nanoseconds on this backend's clock.
    ///
    /// Wall-clock backends return real elapsed time since world start;
    /// simulator backends return this rank's *virtual* time. Benchmarks use
    /// differences of `now_ns` around an operation uniformly on both.
    fn now_ns(&self) -> u64;

    /// Block until every rank in the world has entered the barrier.
    fn barrier(&self) -> Result<()>;

    /// Stage `data` into a pooled, shareable envelope payload — **one** copy,
    /// recorded against this rank's `bytes_copied`. Everything posted from
    /// the returned [`SharedBuf`] (or its [`slice`](SharedBuf::slice)
    /// sub-views) afterwards moves refcounts, not bytes.
    fn make_shared(&self, data: &[u8]) -> SharedBuf;

    /// Record `bytes` of payload this rank memcpy'd *outside* the
    /// communicator — the collectives' landing copy of a received envelope
    /// into the user buffer — against `TrafficStats::bytes_copied`.
    fn note_copy(&self, bytes: usize);

    /// Post `payload` to `dest` as ONE envelope on `tag`, counted as a send
    /// of `payload.len()` bytes. The payload travels as-is: no byte moves.
    fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()>;

    /// Take the next envelope from `src` on `tag`. `capacity` bounds its
    /// length exactly like a receive buffer's; `timeout`, when given, bounds
    /// the wait, failing with [`CommError::Timeout`](crate::CommError::Timeout)
    /// with nothing consumed (a timeout too long to represent waits without
    /// bound). Backends that know the peer can no longer send (it exited or
    /// crashed) fail early with
    /// [`CommError::PeerFailed`](crate::CommError::PeerFailed) — the failure
    /// detector the self-healing collectives in `bcast-core` are built on.
    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Payload>;

    /// Post `payload` to `(dest, sendtag)` while taking the envelope from
    /// `(src, recvtag)`. The default — post, then an unbounded take — is
    /// correct only for backends whose posts never block on the receiver;
    /// a rendezvous backend overrides it with a genuinely concurrent one.
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
        self.post(payload, dest, sendtag)?;
        self.take(capacity, src, recvtag, None)
    }

    // Provided over the core through the bridge; no implementor overrides
    // any of these. Each is documented on its `AsyncCommunicator` namesake.

    /// [`AsyncCommunicator::check_rank`].
    fn check_rank(&self, rank: Rank) -> Result<()> {
        SyncComm::new(self).check_rank(rank)
    }

    /// [`AsyncCommunicator::send`].
    fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        complete_now(SyncComm::new(self).send(buf, dest, tag))
    }

    /// [`AsyncCommunicator::recv`].
    fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        complete_now(SyncComm::new(self).recv(buf, src, tag))
    }

    /// [`AsyncCommunicator::recv_timeout`].
    fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<usize> {
        complete_now(SyncComm::new(self).recv_timeout(buf, src, tag, timeout))
    }

    /// [`AsyncCommunicator::sendrecv`].
    fn sendrecv(
        &self,
        sendbuf: &[u8],
        dest: Rank,
        sendtag: Tag,
        recvbuf: &mut [u8],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        complete_now(SyncComm::new(self).sendrecv(sendbuf, dest, sendtag, recvbuf, src, recvtag))
    }

    /// [`AsyncCommunicator::send_shared`].
    fn send_shared(&self, buf: &SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        complete_now(SyncComm::new(self).send_shared(buf, dest, tag))
    }

    /// [`AsyncCommunicator::recv_owned`].
    fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<SharedBuf> {
        complete_now(SyncComm::new(self).recv_owned(capacity, src, tag))
    }

    /// [`AsyncCommunicator::sendrecv_shared`].
    #[allow(clippy::too_many_arguments)]
    fn sendrecv_shared(
        &self,
        sendbuf: &SharedBuf,
        dest: Rank,
        sendtag: Tag,
        recv_capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<SharedBuf> {
        complete_now(SyncComm::new(self).sendrecv_shared(
            sendbuf,
            dest,
            sendtag,
            recv_capacity,
            src,
            recvtag,
        ))
    }
}
