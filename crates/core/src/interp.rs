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
//! * a send of exactly that range forwards the envelope itself. An op that
//!   also receives *hands it over* — moves it into the post, with no
//!   refcount traffic — because that op's landing replaces it before
//!   anything could read it again; a send-only op posts a refcount clone
//!   and keeps it, since the binomial fan-out and the tuned ring's
//!   `SendOnly` tail may send it again;
//! * a send of a range *inside* it sends a refcounted sub-view
//!   ([`SharedBuf::slice`]) and keeps the envelope;
//! * any other send stages the range out of the user buffer
//!   ([`AsyncCommunicator::make_shared`], one counted copy) and retains that
//!   (or, on an op that also receives, hands it over at once);
//! * a receive takes the arriving envelope ([`AsyncCommunicator::take`], or
//!   the receive half of [`AsyncCommunicator::exchange`]), pays one landing
//!   copy into the user buffer and retains it.
//!
//! That one rule yields every zero-copy chain the broadcasts need: the ring
//! hands over at step `i + 1` the chunk it received at step `i`; the scatter
//! peels each child's subtree off the parent's envelope; the binomial tree
//! stages once on the root and fans the same envelope out; and the ring's
//! first send — the rank's own chunk — is a sub-view of the scatter envelope
//! still retained from the previous phase.
//!
//! ## Bounded receives
//!
//! The self-healing broadcast runs its attempts on an `Interp::bounded`
//! interpreter: every take carries the step deadline, so a silent peer
//! surfaces as [`CommError::Timeout`] instead of a hang, and an op with both
//! halves is an eager post followed by a bounded take — sound only on an
//! eagerly delivering transport — unless the communicator's own `exchange`
//! bounds itself, in which case it stays one call.

use std::future::Future;
use std::ops::Range;
use std::time::Duration;

use mpsim::{AsyncCommunicator, CommError, Payload, Result, SharedBuf};

use crate::schedule::SchedOp;

/// Interpreter state for one rank: the communicator, the user buffer and the
/// retained envelope. Phases of one collective run through the *same*
/// interpreter (`run(scatter)` then `run(ring)`), so the envelope carries
/// over between them.
///
/// `BOUNDED` marks the self-healing attempt's interpreter
/// (`Interp::bounded`); it is a compile-time switch, so the plain one
/// tests no deadline on its path.
pub struct Interp<'a, C: ?Sized, const BOUNDED: bool = false> {
    comm: &'a C,
    buf: &'a mut [u8],
    /// The last envelope received or staged, and the range of `buf` whose
    /// bytes it equals.
    held: Option<(Range<usize>, SharedBuf)>,
    /// The deadline of every take of a bounded interpreter.
    step: Duration,
    /// Whether a bounded interpreter still hands an op with both halves to
    /// one `exchange`.
    fused_exchange: bool,
}

impl<'a, C: AsyncCommunicator + ?Sized> Interp<'a, C> {
    /// Interpreter over `buf`, the rank's full broadcast buffer.
    pub fn new(comm: &'a C, buf: &'a mut [u8]) -> Self {
        Interp { comm, buf, held: None, step: Duration::ZERO, fused_exchange: true }
    }

    /// Send-only interpreter over an already-shared payload: the retained
    /// envelope is pre-set to all of `src` and there is no buffer to land
    /// into, so every send is a sub-view of `src` and nothing is copied. A
    /// stream that receives (or sends outside `src`) fails with
    /// [`CommError::OutOfBounds`].
    pub fn from_shared(comm: &'a C, src: &SharedBuf) -> Self {
        let held = Some((0..src.len(), src.clone()));
        Interp { comm, buf: &mut [], held, step: Duration::ZERO, fused_exchange: true }
    }
}

impl<'a, C: AsyncCommunicator + ?Sized> Interp<'a, C, true> {
    /// [`Interp::new`] with every take bounded by `step` (see the [module
    /// docs](self)). An op with both halves is posted eagerly and then taken
    /// under the bound, unless `fused_exchange` is set: then it stays one
    /// `exchange` call, for a communicator whose `exchange` cannot block
    /// forever on a dead peer (`mpsim::ReliableComm`'s pump).
    pub(crate) fn bounded(
        comm: &'a C,
        buf: &'a mut [u8],
        step: Duration,
        fused_exchange: bool,
    ) -> Self {
        Interp { comm, buf, held: None, step, fused_exchange }
    }
}

impl<C: AsyncCommunicator + ?Sized, const BOUNDED: bool> Interp<'_, C, BOUNDED> {
    /// Execute `ops` in order. Resolves to the payload bytes received.
    pub async fn run(&mut self, ops: impl IntoIterator<Item = SchedOp>) -> Result<usize> {
        let mut received = 0;
        for op in ops {
            match (&op.send, &op.recv) {
                // Both halves stay ONE call: the concurrent exchange is what
                // keeps the ring deadlock-free under rendezvous. The landing
                // replaces the retained envelope, so the send may take it.
                (Some(s), Some(r)) => {
                    let out = self.stage(&s.loc, true)?;
                    let env = if BOUNDED && !self.fused_exchange {
                        self.comm.post(out, s.peer, s.tag).await?;
                        self.comm.take(r.dst.len(), r.peer, r.tag, Some(self.step)).await?
                    } else {
                        self.comm.exchange(out, s.peer, s.tag, r.dst.len(), r.peer, r.tag).await?
                    };
                    received += self.land(&r.dst, env.into_shared())?;
                }
                (Some(s), None) => {
                    let out = self.stage(&s.loc, false)?;
                    self.comm.post(out, s.peer, s.tag).await?;
                }
                (None, Some(r)) => {
                    let timeout = BOUNDED.then_some(self.step);
                    let env = self.comm.take(r.dst.len(), r.peer, r.tag, timeout).await?;
                    received += self.land(&r.dst, env.into_shared())?;
                }
                (None, None) => {}
            }
        }
        Ok(received)
    }

    /// The payload a send of `range` posts: a sub-view when `range` lies
    /// strictly inside the retained envelope, else the retained envelope
    /// itself — staged out of the buffer first when it does not match.
    /// With `hand_over` (the op's own landing is about to replace the
    /// retained envelope) that envelope is moved out, not cloned.
    fn stage(&mut self, range: &Range<usize>, hand_over: bool) -> Result<Payload> {
        if hand_over {
            if let Some((_, env)) = self.held.take_if(|(held, _)| held == range) {
                return Ok(Payload::Shared(env));
            }
        }
        if let Some((held, env)) = &self.held {
            if held == range {
                return Ok(Payload::Shared(env.clone()));
            }
            if held.start <= range.start && range.end <= held.end {
                return Ok(Payload::Shared(
                    env.slice(range.start - held.start..range.end - held.start),
                ));
            }
        }
        let bytes = self.buf.get(range.clone()).ok_or_else(|| self.out_of_bounds(range))?;
        let env = self.comm.make_shared(bytes);
        if !hand_over {
            self.held = Some((range.clone(), env.clone()));
        }
        Ok(Payload::Shared(env))
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

/// What a phase table hands each phase stream to, one phase at a time: an
/// [`Interp`] runs it, a `Vec` collects it for a schedule.
pub(crate) trait PhaseSink {
    /// Consume one phase's op stream; resolves to the payload bytes received.
    fn phase(&mut self, ops: impl Iterator<Item = SchedOp>) -> impl Future<Output = Result<usize>>;
}

/// The run future itself, no wrapper state machine around it.
impl<C: AsyncCommunicator + ?Sized, const BOUNDED: bool> PhaseSink for Interp<'_, C, BOUNDED> {
    fn phase(&mut self, ops: impl Iterator<Item = SchedOp>) -> impl Future<Output = Result<usize>> {
        self.run(ops)
    }
}

/// Collecting never suspends and never fails.
impl PhaseSink for &mut Vec<SchedOp> {
    fn phase(&mut self, ops: impl Iterator<Item = SchedOp>) -> impl Future<Output = Result<usize>> {
        self.extend(ops);
        std::future::ready(Ok(0))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use mpsim::{complete_now, Rank, Tag};

    use super::*;

    /// Records how many views share each posted envelope, at the moment it
    /// is posted, and answers every take with `capacity` bytes of `0xAB`.
    #[derive(Default)]
    struct Recorder {
        shares: RefCell<Vec<usize>>,
    }

    impl Recorder {
        fn record(&self, payload: &Payload) {
            let shares = match payload {
                Payload::Shared(env) => env.shares(),
                _ => 0,
            };
            self.shares.borrow_mut().push(shares);
        }
    }

    impl AsyncCommunicator for Recorder {
        fn rank(&self) -> Rank {
            0
        }

        fn size(&self) -> usize {
            2
        }

        fn now_ns(&self) -> u64 {
            0
        }

        async fn barrier(&self) -> Result<()> {
            Ok(())
        }

        fn make_shared(&self, data: &[u8]) -> SharedBuf {
            data.to_vec().into()
        }

        fn note_copy(&self, _: usize) {}

        async fn post(&self, payload: Payload, _: Rank, _: Tag) -> Result<()> {
            self.record(&payload);
            Ok(())
        }

        async fn take(&self, cap: usize, _: Rank, _: Tag, _: Option<Duration>) -> Result<Payload> {
            Ok(vec![0xAB; cap].into())
        }

        async fn exchange(
            &self,
            payload: Payload,
            _: Rank,
            _: Tag,
            cap: usize,
            _: Rank,
            _: Tag,
        ) -> Result<Payload> {
            self.record(&payload);
            Ok(vec![0xAB; cap].into())
        }
    }

    /// Receive `0..4`, then: forward it on an exchange landing `4..8`,
    /// forward `4..8` send-only, send the sub-range `5..7` send-only and on
    /// an exchange landing `8..12`, and forward `8..12` on an exchange.
    fn ops() -> Vec<SchedOp> {
        let t = Tag(1);
        vec![
            SchedOp::recv("t", 1, t, 0..4),
            SchedOp::sendrecv("t", 1, t, 0..4, 1, t, 4..8),
            SchedOp::send("t", 1, t, 4..8),
            SchedOp::send("t", 1, t, 5..7),
            SchedOp::sendrecv("t", 1, t, 5..7, 1, t, 8..12),
            SchedOp::sendrecv("t", 1, t, 8..12, 1, t, 12..16),
        ]
    }

    /// Exchange forwards hand the retained envelope over (its only view);
    /// send-only forwards and sub-range sends share it with the interpreter.
    const SHARES: [usize; 5] = [1, 2, 2, 2, 1];

    #[test]
    fn an_exchange_hands_the_retained_envelope_over() {
        let comm = Recorder::default();
        let mut buf = [0u8; 16];
        let received = complete_now(Interp::new(&comm, &mut buf).run(ops())).unwrap();
        assert_eq!(received, 16);
        assert_eq!(buf, [0xAB; 16]);
        assert_eq!(comm.shares.into_inner(), SHARES);
    }

    #[test]
    fn a_bounded_post_then_take_hands_over_too() {
        for fused_exchange in [false, true] {
            let comm = Recorder::default();
            let mut buf = [0u8; 16];
            let step = Duration::from_secs(1);
            let mut interp = Interp::bounded(&comm, &mut buf, step, fused_exchange);
            assert_eq!(complete_now(interp.run(ops())).unwrap(), 16);
            assert_eq!(comm.shares.into_inner(), SHARES, "fused_exchange={fused_exchange}");
        }
    }
}
