//! The schedule interpreter: executes one rank's [`SchedOp`] stream against
//! any [`AsyncCommunicator`].
//!
//! Every broadcast phase is defined once, as a per-rank op stream; this is
//! the only code that turns those ops into posted sends and receives. The
//! same streams, collected over all ranks, are what `schedcheck` analyses —
//! so there is no executed twin to drift from the IR.
//!
//! ## The retained envelope
//!
//! The interpreter's whole state is the last envelope it received or staged,
//! keyed by the byte range of the user buffer it carries:
//!
//! * a send of exactly that range forwards the envelope by reference;
//! * a send of a range *inside* it sends a refcounted sub-view
//!   ([`SharedBuf::slice`]) and keeps the envelope;
//! * any other send stages the range out of the user buffer
//!   ([`AsyncCommunicator::make_shared`], one counted copy) and retains that;
//! * a receive takes the arriving envelope ([`AsyncCommunicator::take`], or
//!   the receive half of [`AsyncCommunicator::exchange`]), pays one landing
//!   copy into the user buffer and retains it.
//!
//! That one rule yields every zero-copy chain the broadcasts need: the ring
//! forwards at step `i + 1` the chunk it received at step `i`; the scatter
//! peels each child's subtree off the parent's envelope; the binomial tree
//! stages once on the root and fans the same envelope out; and the ring's
//! first send — the rank's own chunk — is a sub-view of the scatter envelope
//! still retained from the previous phase.

use std::ops::Range;

use mpsim::{AsyncCommunicator, CommError, Payload, Result, SharedBuf};

use crate::schedule::SchedOp;

/// Interpreter state for one rank: the communicator, the user buffer and the
/// retained envelope. Phases of one collective run through the *same*
/// interpreter (`run(scatter)` then `run(ring)`), so the envelope carries
/// over between them.
pub struct Interp<'a, C: ?Sized> {
    comm: &'a C,
    buf: &'a mut [u8],
    /// The last envelope received or staged, and the range of `buf` whose
    /// bytes it equals.
    held: Option<(Range<usize>, SharedBuf)>,
}

impl<'a, C: AsyncCommunicator + ?Sized> Interp<'a, C> {
    /// Interpreter over `buf`, the rank's full broadcast buffer.
    pub fn new(comm: &'a C, buf: &'a mut [u8]) -> Self {
        Interp { comm, buf, held: None }
    }

    /// Send-only interpreter over an already-shared payload: the retained
    /// envelope is pre-set to all of `src` and there is no buffer to land
    /// into, so every send is a sub-view of `src` and nothing is copied. A
    /// stream that receives (or sends outside `src`) fails with
    /// [`CommError::OutOfBounds`].
    pub fn from_shared(comm: &'a C, src: &SharedBuf) -> Self {
        Interp { comm, buf: &mut [], held: Some((0..src.len(), src.clone())) }
    }

    /// Execute `ops` in order. Resolves to the payload bytes received.
    pub async fn run(&mut self, ops: impl IntoIterator<Item = SchedOp>) -> Result<usize> {
        let mut received = 0;
        for op in ops {
            match (&op.send, &op.recv) {
                // Both halves stay ONE call: the concurrent exchange is what
                // keeps the ring deadlock-free under rendezvous.
                (Some(s), Some(r)) => {
                    let cut = self.stage(&s.loc)?;
                    let out = self.outgoing(cut);
                    let env =
                        self.comm.exchange(out, s.peer, s.tag, r.dst.len(), r.peer, r.tag).await?;
                    received += self.land(&r.dst, env.into_shared())?;
                }
                (Some(s), None) => {
                    let cut = self.stage(&s.loc)?;
                    self.comm.post(self.outgoing(cut), s.peer, s.tag).await?;
                }
                (None, Some(r)) => {
                    let env = self.comm.take(r.dst.len(), r.peer, r.tag, None).await?;
                    received += self.land(&r.dst, env.into_shared())?;
                }
                (None, None) => {}
            }
        }
        Ok(received)
    }

    /// Make the retained envelope able to serve a send of `range`. Returns
    /// the sub-view to send when `range` lies strictly inside the envelope;
    /// `None` means "send the retained envelope itself" (it matched, or was
    /// just staged from the buffer).
    fn stage(&mut self, range: &Range<usize>) -> Result<Option<SharedBuf>> {
        if let Some((held, env)) = &self.held {
            if held == range {
                return Ok(None);
            }
            if held.start <= range.start && range.end <= held.end {
                return Ok(Some(env.slice(range.start - held.start..range.end - held.start)));
            }
        }
        let bytes = self.buf.get(range.clone()).ok_or_else(|| self.out_of_bounds(range))?;
        self.held = Some((range.clone(), self.comm.make_shared(bytes)));
        Ok(None)
    }

    /// The envelope a send posts after [`Interp::stage`]: the cut sub-view
    /// itself, or a refcount clone of the retained envelope.
    fn outgoing(&self, cut: Option<SharedBuf>) -> Payload {
        match (cut, &self.held) {
            (Some(view), _) => Payload::Shared(view),
            (None, Some((_, env))) => Payload::Shared(env.clone()),
            (None, None) => unreachable!("stage() retains an envelope whenever it returns None"),
        }
    }

    /// Land an arrived envelope at the start of `dst` — the one copy a rank
    /// pays per received message — and retain it, keyed by the bytes it
    /// actually carried (a message may be shorter than the posted capacity).
    fn land(&mut self, dst: &Range<usize>, env: SharedBuf) -> Result<usize> {
        let n = env.len();
        let written = dst.start..dst.start + n;
        let oob = self.out_of_bounds(&written);
        self.buf.get_mut(written.clone()).ok_or(oob)?.copy_from_slice(&env);
        self.comm.note_copy(n);
        self.held = Some((written, env));
        Ok(n)
    }

    fn out_of_bounds(&self, range: &Range<usize>) -> CommError {
        CommError::OutOfBounds { disp: range.start, count: range.len(), len: self.buf.len() }
    }
}
