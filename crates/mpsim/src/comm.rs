//! The [`Communicator`] trait — what the two *blocking* executors
//! ([`ThreadComm`](crate::ThreadComm), `netsim::SimComm`) implement and what
//! the blocking entry points of the collectives accept.
//!
//! Nothing above the executors implements this trait: decorators and
//! collectives are written once against
//! [`AsyncCommunicator`](crate::AsyncCommunicator), and a blocking backend
//! enters that code through [`SyncComm`](crate::SyncComm) +
//! [`complete_now`](crate::complete_now) (`acomm.rs` is the only module that
//! knows a blocking backend exists).

use crate::error::{CommError, Result};
use crate::pool::SharedBuf;
use crate::rank::{Rank, Tag};

/// Blocking, tag-matched point-to-point communication within a fixed world.
///
/// The contract mirrors the slice of MPI used by MPICH's broadcast code:
///
/// * Messages between a given `(sender, receiver, tag)` triple are
///   **non-overtaking**: they are received in the order they were sent.
/// * [`recv`](Communicator::recv) blocks until a matching message arrives and
///   returns the actual payload length; the payload must fit in the provided
///   buffer or [`CommError::Truncation`] is returned.
/// * [`send`](Communicator::send) may be buffered (eager) or synchronous
///   (rendezvous) depending on the backend and message size — exactly the
///   freedom MPI gives implementations. Algorithms must not rely on either.
/// * [`sendrecv`](Communicator::sendrecv) behaves like a send and a receive
///   executing *concurrently*, so rings of `sendrecv` cannot deadlock
///   (MPI_Sendrecv semantics).
///
/// Self-messaging (`dest == rank`) is permitted and loops back locally.
pub trait Communicator {
    /// This process's rank, in `0..size()`.
    fn rank(&self) -> Rank;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Blocking tagged send of `buf` to `dest`.
    fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()>;

    /// Blocking tagged receive from `src` into `buf`.
    ///
    /// Returns the number of payload bytes written (which may be smaller than
    /// `buf.len()`, like an MPI receive with a larger count).
    fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize>;

    /// Deadline-bounded receive: like [`recv`](Communicator::recv), but
    /// failing with [`CommError::Timeout`] if no matching message arrives
    /// within `timeout`.
    ///
    /// On expiry nothing has been consumed: a message that arrives later
    /// stays queued for the next matching receive. Backends that know the
    /// peer can no longer send (it exited or crashed) may fail early with
    /// [`CommError::PeerFailed`] instead of waiting out the deadline — this
    /// is the failure detector the self-healing collectives in `bcast-core`
    /// are built on.
    fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: std::time::Duration,
    ) -> Result<usize>;

    /// Combined concurrent send+receive (MPI_Sendrecv).
    ///
    /// The default implementation is only correct for backends whose `send`
    /// never blocks on the receiver (eager/buffered); synchronous backends
    /// must override it with a genuinely concurrent implementation.
    fn sendrecv(
        &self,
        sendbuf: &[u8],
        dest: Rank,
        sendtag: Tag,
        recvbuf: &mut [u8],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        self.send(sendbuf, dest, sendtag)?;
        self.recv(recvbuf, src, recvtag)
    }

    /// Block until every rank in the world has entered the barrier.
    fn barrier(&self) -> Result<()>;

    /// Current time in nanoseconds on this backend's clock.
    ///
    /// Wall-clock backends return real elapsed time since world start;
    /// simulator backends return this rank's *virtual* time. Benchmarks use
    /// differences of `now_ns` around an operation uniformly on both.
    fn now_ns(&self) -> u64;

    /// Validate that `rank` names a member of this world.
    fn check_rank(&self, rank: Rank) -> Result<()> {
        if rank < self.size() {
            Ok(())
        } else {
            Err(CommError::InvalidRank { rank, size: self.size() })
        }
    }

    /// Stage `data` into a pooled, shareable envelope payload — **one** copy,
    /// recorded against this rank's `bytes_copied`. Everything sent from the
    /// returned [`SharedBuf`] (or its [`slice`](SharedBuf::slice) sub-views)
    /// afterwards moves refcounts, not bytes.
    ///
    /// The default stages into a plain allocation; pooled backends override
    /// it to rent from their buffer pool.
    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.note_copy(data.len());
        SharedBuf::from(data.to_vec())
    }

    /// Record `bytes` of payload this rank memcpy'd *outside* the
    /// communicator — the collectives' final copy-out of a received
    /// [`SharedBuf`] into the user buffer. Counting backends override this
    /// to feed `TrafficStats::bytes_copied`; the default is a no-op.
    fn note_copy(&self, _bytes: usize) {}

    /// Zero-copy send: enqueue a refcount clone of `buf` for `dest` instead
    /// of staging the bytes into a fresh envelope.
    ///
    /// Wire accounting is identical to [`send`](Communicator::send) of the
    /// same bytes — only `bytes_copied` differs. The default falls back to
    /// copy semantics so decorators (retransmission, fault injection, rank
    /// translation) keep working unchanged.
    fn send_shared(&self, buf: &SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        self.send(buf, dest, tag)
    }

    /// Owned receive: take the arriving envelope itself instead of copying
    /// its bytes out into a caller buffer.
    ///
    /// `capacity` plays the role of the receive buffer length: a longer
    /// message fails with [`CommError::Truncation`], exactly like
    /// [`recv`](Communicator::recv) into a `capacity`-byte buffer. The
    /// returned view is immutable and may alias the sender's `SharedBuf`
    /// (that is the point); it returns to the owning pool when dropped.
    fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<SharedBuf> {
        let mut tmp = vec![0u8; capacity];
        let n = self.recv(&mut tmp, src, tag)?;
        tmp.truncate(n);
        Ok(SharedBuf::from(tmp))
    }

    /// Combined concurrent zero-copy exchange: forward `sendbuf` to `dest`
    /// while taking ownership of the envelope arriving from `src` — the
    /// ring allgather's inner step, where each received chunk becomes the
    /// next step's outgoing chunk without touching RAM in between.
    ///
    /// Deadlock-freedom contract is that of
    /// [`sendrecv`](Communicator::sendrecv): both directions progress
    /// concurrently, so rings of rendezvous-sized exchanges cannot deadlock.
    /// The default falls back to copy semantics via `sendrecv`.
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
        let mut tmp = vec![0u8; recv_capacity];
        let n = self.sendrecv(sendbuf, dest, sendtag, &mut tmp, src, recvtag)?;
        tmp.truncate(n);
        Ok(SharedBuf::from(tmp))
    }
}
