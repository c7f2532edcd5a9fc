//! The per-envelope epoch and deadline decorators: [`EpochComm`] shifts
//! every tag into an attempt's private page, [`GuardedComm`] bounds every
//! receive by a step deadline.
//!
//! They are off the recovery path: a self-healing attempt maps its ops to
//! world ranks and epoch tags itself and runs them on a bounded
//! [`Interp`](crate::interp::Interp) over the bare communicator (see
//! [`crate::recovery`]). They stay for the frozen benchmark's per-layer
//! rows (`recovery.{epoch,guarded,stack}_p2p_ns`) and the tests that use
//! them, and go with the benchmark's next revision.

use std::future::Future;
use std::time::Duration;

use mpsim::{AsyncCommunicator, Payload, Rank, Result, SharedBuf, Tag};

use crate::recovery::{attempt_shift, EPOCH_TAG_STRIDE};

/// Tag-shifting decorator: runs an unmodified collective in a private tag
/// epoch so concurrent or stale traffic on other epochs cannot interfere.
/// Off the recovery path; kept for the frozen benchmark and the tests.
pub struct EpochComm<'a, C: ?Sized> {
    inner: &'a C,
    shift: u32,
}

impl<'a, C: ?Sized> EpochComm<'a, C> {
    /// Wrap `inner`, shifting every tag by `epoch · EPOCH_TAG_STRIDE`.
    pub fn new(inner: &'a C, epoch: u32) -> Self {
        EpochComm { inner, shift: epoch.wrapping_mul(EPOCH_TAG_STRIDE) }
    }

    /// Wrap `inner`, shifting every tag by the epoch *and* a membership
    /// digest, exactly like a self-healing attempt's tags (see
    /// [`crate::membership_digest`]).
    pub fn isolated(inner: &'a C, epoch: u32, digest: u32) -> Self {
        EpochComm { inner, shift: attempt_shift(epoch, digest) }
    }

    fn shifted(&self, tag: Tag) -> Tag {
        Tag(tag.0.wrapping_add(self.shift))
    }
}

/// Pure forwarding: each call returns the inner communicator's future
/// itself, so the shift costs no state machine of its own per envelope.
impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for EpochComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn barrier(&self) -> impl Future<Output = Result<()>> {
        self.inner.barrier()
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> impl Future<Output = Result<()>> {
        self.inner.post(payload, dest, self.shifted(tag))
    }

    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> impl Future<Output = Result<Payload>> {
        self.inner.take(capacity, src, self.shifted(tag), timeout)
    }

    fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> impl Future<Output = Result<Payload>> {
        let (sendtag, recvtag) = (self.shifted(sendtag), self.shifted(recvtag));
        self.inner.exchange(payload, dest, sendtag, capacity, src, recvtag)
    }
}

/// Deadline-guarding decorator: every [`AsyncCommunicator::take`] is
/// bounded by a fixed step deadline, so a silent peer surfaces as
/// [`mpsim::CommError::Timeout`] instead of a hang.
///
/// `exchange` (and with it `sendrecv`) is decomposed into an eager post
/// followed by a bounded take — correct only on eagerly-delivering
/// transports. It is the rule a bounded interpreter applies per op. Off the
/// recovery path; kept for the frozen benchmark and the tests.
pub struct GuardedComm<'a, C: ?Sized> {
    inner: &'a C,
    step_timeout: Duration,
}

impl<'a, C: ?Sized> GuardedComm<'a, C> {
    /// Wrap `inner` with a per-receive deadline of `step_timeout`.
    pub fn new(inner: &'a C, step_timeout: Duration) -> Self {
        GuardedComm { inner, step_timeout }
    }
}

/// Forwarding like [`EpochComm`]'s, except the decomposed `exchange`.
impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for GuardedComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn barrier(&self) -> impl Future<Output = Result<()>> {
        self.inner.barrier()
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> impl Future<Output = Result<()>> {
        self.inner.post(payload, dest, tag)
    }

    /// Every take is bounded: an unbounded one by the step deadline, a
    /// bounded one by the tighter of the two.
    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> impl Future<Output = Result<Payload>> {
        let bound = timeout.map_or(self.step_timeout, |t| t.min(self.step_timeout));
        self.inner.take(capacity, src, tag, Some(bound))
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
        // Eager post, step-bounded take — sound only on eagerly-delivering
        // transports.
        self.inner.post(payload, dest, sendtag).await?;
        self.inner.take(capacity, src, recvtag, Some(self.step_timeout)).await
    }
}
