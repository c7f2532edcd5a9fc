//! [`AsyncCommunicator`] — the one communicator surface above the executors,
//! and the bridge that lets the blocking executors run what is written
//! against it.
//!
//! The layering rule: an executor implements one trait
//! ([`Communicator`] for the blocking [`ThreadWorld`](crate::ThreadWorld) and
//! `netsim::SimWorld`, [`AsyncCommunicator`] for the event loop); every
//! decorator ([`SubComm`](crate::SubComm), [`ReliableComm`](crate::ReliableComm),
//! `netsim::FaultyComm`, the recovery stack) and every collective in
//! `bcast-core` is written once, as `async` code against
//! [`AsyncCommunicator`]; blocking callers enter through [`SyncComm`] +
//! [`complete_now`]. This module is the only code that knows a blocking
//! backend exists.
//!
//! Both traits are the same *envelope core*. An implementor writes how one
//! [`Payload`] is posted to `(dest, tag)`
//! ([`post`](AsyncCommunicator::post)), how one is taken from `(src, tag)`
//! by an optional deadline ([`take`](AsyncCommunicator::take)), and — if
//! post-then-take could deadlock or wedge it — how the two fuse
//! ([`exchange`](AsyncCommunicator::exchange)); plus identity, the clock,
//! the barrier and the copy accounting. The async core has two more calls
//! for a decorator that acknowledges what it delivers: [`flush`] settles
//! whatever it still holds in flight, and [`acknowledge`] sends the acks it
//! owes without waiting (both ready futures on every executor). Every
//! copying, shared and timed variant is a provided method here
//! which no implementor overrides, so a decorator that transforms the core
//! transforms all of them, and each variant costs exactly the core calls
//! its name implies: one per send or receive, two per exchange, plus one
//! `flush` after `send` and `send_shared`, one `acknowledge` after `recv`,
//! `recv_timeout` and `recv_owned` (a receive waits for nothing but its
//! message), and a `flush` on both sides of `sendrecv` and
//! `sendrecv_shared`'s exchange. The blocking trait's variants
//! are one line each, this module's namesake run through the bridge, so
//! each variant's semantics is written once, here.
//!
//! [`flush`]: AsyncCommunicator::flush
//! [`acknowledge`]: AsyncCommunicator::acknowledge
//!
//! On the cooperative single-threaded executor
//! ([`EventWorld`](crate::event_comm::EventWorld)) the futures genuinely
//! suspend; on the blocking backends ([`ThreadWorld`](crate::ThreadWorld),
//! `netsim::SimWorld`) the same cores run through the [`SyncComm`] bridge,
//! whose core forwards one-for-one to the blocking core and so completes on
//! first poll. [`complete_now`] drives such a never-pending future to
//! completion without any runtime: blocking code calls any async
//! collective as `complete_now(x_async(&SyncComm::new(comm), …))`, and the
//! trait's blocking variants are that one line.
//!
//! No external async runtime is involved anywhere: the only machinery is
//! `std::task` plus a no-op waker. See DESIGN.md §6 for why.

use std::future::Future;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::comm::Communicator;
use crate::error::{CommError, Result};
use crate::pool::{Payload, SharedBuf};
use crate::rank::{Rank, Tag};

/// Absolute deadline `timeout` after `now_ns` on a backend clock,
/// saturating — how every bounded wait above the executors turns a
/// [`Duration`] into a point on [`AsyncCommunicator::now_ns`]'s axis.
pub fn deadline_after(now_ns: u64, timeout: Duration) -> u64 {
    now_ns.saturating_add(u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX))
}

/// The communicator surface everything above the executors is written
/// against. Same core and contract as the blocking [`Communicator`] (tag
/// matching, non-overtaking per `(source, tag)`, truncation, exited-peer
/// detection), with the blocking operations expressed as futures.
///
/// Implementors write the envelope core: `rank`, `size`, `now_ns`,
/// `barrier`, `make_shared`, `note_copy`, `post`, `take`, `flush`,
/// `acknowledge`, and optionally `exchange`. None of them has a default except `exchange`, so
/// a decorator that forgets to forward one — the copy accounting and the
/// settling included — does not compile. Everything else is provided and
/// overridden nowhere.
///
/// The trait is consumed only by this workspace's executors, all of which
/// are either single-threaded or drive the future on the calling thread, so
/// no `Send` bound is imposed on the returned futures.
///
/// Implementations may refine the core's `async fn`s to plain functions
/// returning a concrete `impl Future` (RPITIT refinement). The event
/// executor does this for its whole core: `post` returns a ready future,
/// and `take` and `exchange` one hand-rolled leaf future that matches,
/// checks truncation and records traffic in one poll frame, instead of a
/// nest of compiler-generated state machines — at megascale the
/// park/resume walk through those frames is the hot path.
#[allow(async_fn_in_trait)]
pub trait AsyncCommunicator {
    /// This process's rank, in `0..size()`.
    fn rank(&self) -> Rank;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Current time in nanoseconds on this backend's clock (virtual on the
    /// event executor, wall-clock elapsed on the threaded one).
    fn now_ns(&self) -> u64;

    /// Resolve once every rank in the world has entered the barrier.
    async fn barrier(&self) -> Result<()>;

    /// Stage `data` into a pooled, shareable envelope payload — one counted
    /// copy; everything posted from it afterwards moves refcounts, not
    /// bytes. Synchronous by design: staging never waits on any backend.
    fn make_shared(&self, data: &[u8]) -> SharedBuf;

    /// Record `bytes` of payload memcpy'd outside the communicator — a
    /// landing copy into a user buffer — against `bytes_copied`.
    fn note_copy(&self, bytes: usize);

    /// Post `payload` to `dest` as ONE envelope on `tag` (may complete
    /// eagerly). Counted as a send of `payload.len()` bytes; a backend that
    /// queues envelopes moves the payload itself, not its bytes.
    async fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()>;

    /// Take the next envelope from `src` on `tag`. `capacity` bounds its
    /// length exactly like a receive buffer's (a longer one is consumed and
    /// fails with [`CommError::Truncation`]); `timeout`, when given, bounds
    /// the wait on this backend's clock ([`CommError::Timeout`], nothing
    /// consumed).
    async fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Payload>;

    /// Post `payload` to `(dest, sendtag)` while taking the envelope from
    /// `(src, recvtag)` (MPI_Sendrecv): both directions progress
    /// concurrently, so rings of exchanges cannot deadlock. The default —
    /// post, then an unbounded take — is correct only on eager transports;
    /// the bridge ([`SyncComm`], onto the blocking backend's own exchange), a
    /// protocol that must pump both directions, or a decorator that
    /// translates arguments overrides it.
    #[allow(clippy::too_many_arguments)]
    async fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<Payload> {
        self.post(payload, dest, sendtag).await?;
        self.take(capacity, src, recvtag, None).await
    }

    /// Settle everything this rank has in flight: resolve once every
    /// envelope it posted is delivered as far as this layer can tell, with
    /// every acknowledgement it owes sent. A decorator that keeps frames
    /// until they are acknowledged ([`ReliableComm`](crate::ReliableComm))
    /// waits for the acks here, retransmitting on the way — for at most
    /// `within` on this backend's clock, when given, after which it gives up
    /// on what is still unacknowledged — and reports here, once, a frame it
    /// gave up on. The executors deliver as they post, so theirs is a ready
    /// future.
    async fn flush(&self, within: Option<Duration>) -> Result<()>;

    /// Send every acknowledgement this rank owes and return, waiting for
    /// nothing: what a receive owes its sender before the caller moves on.
    /// Only a decorator that acknowledges (`ReliableComm`) owes any; the
    /// executors' is a ready future.
    async fn acknowledge(&self) -> Result<()>;

    // Provided over the core; no implementor overrides any of these.

    /// Validate that `rank` names a member of this world.
    fn check_rank(&self, rank: Rank) -> Result<()> {
        if rank < self.size() {
            Ok(())
        } else {
            Err(CommError::InvalidRank { rank, size: self.size() })
        }
    }

    /// Tagged send of `buf` to `dest`: one counted staging copy, one post,
    /// one flush — a returned send is a settled one.
    async fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        self.post(Payload::Shared(self.make_shared(buf)), dest, tag).await?;
        self.flush(None).await
    }

    /// Tagged receive from `src` into `buf`, acknowledged; resolves to the
    /// payload length.
    async fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        let payload = self.take(buf.len(), src, tag, None).await?;
        let n = land(self, buf, &payload);
        self.acknowledge().await?;
        Ok(n)
    }

    /// Deadline-bounded receive, acknowledged; fails with
    /// [`CommError::Timeout`] if no matching message arrives within
    /// `timeout` on this backend's clock.
    async fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<usize> {
        let payload = self.take(buf.len(), src, tag, Some(timeout)).await?;
        let n = land(self, buf, &payload);
        self.acknowledge().await?;
        Ok(n)
    }

    /// Combined concurrent send+receive (MPI_Sendrecv): stage, flush,
    /// exchange, land, flush. The first flush settles what was in flight
    /// before, so the last one can only report on this call's own send.
    async fn sendrecv(
        &self,
        sendbuf: &[u8],
        dest: Rank,
        sendtag: Tag,
        recvbuf: &mut [u8],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        let staged = Payload::Shared(self.make_shared(sendbuf));
        self.flush(None).await?;
        let payload = self.exchange(staged, dest, sendtag, recvbuf.len(), src, recvtag).await?;
        let n = land(self, recvbuf, &payload);
        self.flush(None).await?;
        Ok(n)
    }

    /// Zero-copy send: post a refcount clone of `buf` instead of staging its
    /// bytes. Wire accounting is that of [`send`](AsyncCommunicator::send)
    /// of the same bytes; only `bytes_copied` differs.
    async fn send_shared(&self, buf: &SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        self.post(Payload::Shared(buf.clone()), dest, tag).await?;
        self.flush(None).await
    }

    /// Owned receive: the arriving envelope itself instead of a copy of its
    /// bytes. `capacity` bounds the acceptable message length exactly like
    /// a receive buffer's length; the view may alias the sender's rental
    /// (that is the point) and returns to its pool when dropped. Acknowledged
    /// like [`recv`](AsyncCommunicator::recv).
    async fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<SharedBuf> {
        let payload = self.take(capacity, src, tag, None).await?;
        self.acknowledge().await?;
        Ok(payload.into_shared())
    }

    /// Combined concurrent zero-copy exchange: forward `sendbuf` while
    /// taking ownership of the arriving envelope — the ring allgather's
    /// inner step, where each received chunk becomes the next step's
    /// outgoing chunk without touching RAM in between. Flushed on both sides
    /// of the exchange like [`sendrecv`](AsyncCommunicator::sendrecv).
    #[allow(clippy::too_many_arguments)]
    async fn sendrecv_shared(
        &self,
        sendbuf: &SharedBuf,
        dest: Rank,
        sendtag: Tag,
        recv_capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<SharedBuf> {
        let payload = Payload::Shared(sendbuf.clone());
        self.flush(None).await?;
        let received = self.exchange(payload, dest, sendtag, recv_capacity, src, recvtag).await?;
        self.flush(None).await?;
        Ok(received.into_shared())
    }
}

/// The landing copy of the slice-taking receives: `payload`'s wire image
/// into the front of `buf` (`take` held it to `buf.len()`), counted where
/// it happens.
fn land<C: AsyncCommunicator + ?Sized>(comm: &C, buf: &mut [u8], payload: &Payload) -> usize {
    let n = payload.len();
    buf[..n].copy_from_slice(&payload.bytes());
    comm.note_copy(n);
    n
}

/// Bridge from the blocking [`Communicator`] world into the async trait:
/// wraps a borrowed sync communicator and forwards each core call to its
/// blocking namesake, which means every future it returns is ready on its
/// first poll. Drive such futures with [`complete_now`].
///
/// `exchange` forwards too (not the post-then-take default), so rendezvous
/// backends keep their genuinely concurrent exchange.
pub struct SyncComm<'a, C: ?Sized>(&'a C);

impl<'a, C: ?Sized> SyncComm<'a, C> {
    /// Wrap a borrowed blocking communicator.
    pub fn new(inner: &'a C) -> Self {
        Self(inner)
    }
}

impl<C: Communicator + ?Sized> AsyncCommunicator for SyncComm<'_, C> {
    fn rank(&self) -> Rank {
        self.0.rank()
    }

    fn size(&self) -> usize {
        self.0.size()
    }

    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }

    async fn barrier(&self) -> Result<()> {
        self.0.barrier()
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.0.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.0.note_copy(bytes);
    }

    async fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {
        self.0.post(payload, dest, tag)
    }

    async fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Payload> {
        self.0.take(capacity, src, tag, timeout)
    }

    async fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<Payload> {
        self.0.exchange(payload, dest, sendtag, capacity, src, recvtag)
    }

    async fn flush(&self, _: Option<Duration>) -> Result<()> {
        Ok(())
    }

    async fn acknowledge(&self) -> Result<()> {
        Ok(())
    }
}

struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
    fn wake_by_ref(self: &Arc<Self>) {}
}

/// A waker that does nothing, for polling futures that never park
/// (`Waker::noop` needs a newer toolchain than this workspace pins).
fn noop_waker() -> &'static Waker {
    static NOOP: OnceLock<Waker> = OnceLock::new();
    NOOP.get_or_init(|| Waker::from(Arc::new(NoopWake)))
}

/// Drive a future that completes without ever suspending — the composition
/// of an async collective core with the [`SyncComm`] bridge, whose await
/// points all resolve on first poll.
///
/// # Panics
///
/// Panics if the future returns `Pending`, which would mean a genuinely
/// asynchronous future was driven without an executor — a wiring bug, not a
/// runtime condition.
pub fn complete_now<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(noop_waker());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(out) => out,
        // A parked future on a blocking backend is a wiring bug; there is
        // no executor to ever resume it.
        Poll::Pending => panic!("complete_now: future suspended on a blocking backend"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_comm::ThreadWorld;

    #[test]
    fn complete_now_drives_ready_chains() {
        let v = complete_now(async { 1 + 2 });
        assert_eq!(v, 3);
        let v = complete_now(async {
            let a = async { 10 }.await;
            let b = async { 32 }.await;
            a + b
        });
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "suspended")]
    fn complete_now_rejects_parking_futures() {
        // A future that is pending forever.
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: std::pin::Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        complete_now(Never);
    }

    #[test]
    fn deadline_after_saturates() {
        assert_eq!(deadline_after(5, Duration::from_nanos(7)), 12);
        assert_eq!(deadline_after(5, Duration::MAX), u64::MAX);
        assert_eq!(deadline_after(u64::MAX - 1, Duration::from_secs(1)), u64::MAX);
    }

    #[test]
    fn bridge_roundtrip_on_threads() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            complete_now(async {
                assert_eq!(acomm.size(), 2);
                let mut buf = [0u8; 4];
                if acomm.rank() == 0 {
                    acomm.send(&[1, 2, 3, 4], 1, Tag(1)).await.unwrap();
                    acomm.recv(&mut buf, 1, Tag(2)).await.unwrap();
                } else {
                    acomm.recv(&mut buf, 0, Tag(1)).await.unwrap();
                    acomm.send(&buf, 0, Tag(2)).await.unwrap();
                }
                buf
            })
        });
        assert_eq!(out.results[0], [1, 2, 3, 4]);
        assert_eq!(out.results[1], [1, 2, 3, 4]);
        assert_eq!(out.traffic.total_msgs(), 2);
    }
}
