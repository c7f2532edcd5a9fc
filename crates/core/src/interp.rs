//! The schedule interpreter: executes one rank's [`SchedOp`] stream against
//! any [`AsyncCommunicator`].
//!
//! Every broadcast phase is defined once, as a per-rank op stream; this is
//! the only code that turns those ops into posted sends and receives. The
//! same streams, collected over all ranks, are what `schedcheck` analyses —
//! so there is no executed twin to drift from the IR.
//!
//! ## Retained envelopes
//!
//! The interpreter keeps two kinds of envelope, each keyed by the byte range
//! of the user buffer it carries:
//!
//! * `held`, the last envelope it received. A send of exactly that range
//!   forwards the envelope itself. An op that also receives *hands it
//!   over* — moves it into the post, with no refcount traffic — because that
//!   op's landing replaces it before anything could read it again; a
//!   send-only op posts a refcount clone and keeps it, since the binomial
//!   fan-out and the tuned ring's `SendOnly` tail may send it again. A send
//!   of a range *inside* it sends a refcounted sub-view ([`SharedBuf::slice`]);
//! * `kept`, a short list: every envelope the interpreter staged for a
//!   send-only op, and the first landed envelope that a later landing
//!   replaced without handing it over (on a non-root, its scatter subtree).
//!   A send inside any of them, checked after `held`, is a sub-view too.
//!
//! Any other send stages the range out of the user buffer
//! ([`AsyncCommunicator::make_shared`], one counted copy) and keeps it — or,
//! on an op that also receives, hands it over at once (recursive doubling
//! sends each round's block once). A receive takes the arriving envelope
//! ([`AsyncCommunicator::take`], or the receive half of
//! [`AsyncCommunicator::exchange`]), pays one landing copy into the user
//! buffer and holds it.
//!
//! Those rules yield every zero-copy chain the broadcasts need: the ring
//! hands over at step `i + 1` the chunk it received at step `i`; the scatter
//! peels each child's subtree off the parent's envelope; the binomial tree
//! stages once on the root and fans the same envelope out; the ring's first
//! send — the rank's own chunk — is a sub-view of the scatter envelope; and
//! every later send of a scatter-owned chunk, the root's whole ring and a
//! `SendOnly` tail's, is a sub-view of the subtree the rank landed or
//! staged. So a rank stages each payload byte at most once, and where no
//! byte reaches it twice (binomial, the tuned broadcast) it copies each byte
//! exactly once: a world bill of `P · nbytes`
//! ([`crate::traffic::bcast_bytes_copied`]).
//!
//! `kept` holds only stagings and one landing, so on the scatter-based
//! streams it stays within `⌈log₂P⌉ + 2` entries: the root stages once per
//! scatter child and once for its own chunk. (The pipeline's root keeps one
//! per segment.) Keeping every landing would pin `O(P)` envelopes per rank.
//!
//! ## Settling
//!
//! A collective settles ([`AsyncCommunicator::flush`]) once, after its last
//! op. `Interp::run` ends with that flush; a phase table hands its phases
//! over through `PhaseSink::phase`, which settles nothing, and then calls
//! `PhaseSink::settle` once. So over `ReliableComm` a scatter parent starts
//! its ring with its scatter frames still in flight instead of waiting for
//! its children's acks, and a rank blocks only where it waits for data.
//!
//! ## Bounded receives
//!
//! The self-healing broadcast runs its attempts, and each stage of its
//! agreement, on an `Interp::bounded` interpreter: every take carries the
//! deadline, so a silent peer surfaces as [`CommError::Timeout`] instead of
//! a hang, and an op with both halves is an eager post followed by a
//! bounded take — sound only on an eagerly delivering transport. A bounded
//! interpreter's closing flush, a run's or a phase table's, waits at most
//! the same deadline. The agreement steps a stage one op at a time
//! (`Interp::exec`, which settles nothing), reads each landing back through
//! `Interp::buf`, and flushes once itself, under the same bound, when its
//! verdict is in.

use std::future::Future;
use std::ops::Range;
use std::time::Duration;

use mpsim::{AsyncCommunicator, CommError, Payload, Result, SharedBuf};

use crate::schedule::SchedOp;

/// Interpreter state for one rank: the communicator, the user buffer and the
/// retained envelopes. Phases of one collective run through the *same*
/// interpreter (`phase(scatter)`, `phase(ring)`, then one `settle`), so the
/// envelopes carry over between them.
///
/// `BOUNDED` marks the self-healing attempt's interpreter
/// (`Interp::bounded`); it is a compile-time switch, so the plain one
/// tests no deadline on its path.
pub struct Interp<'a, C: ?Sized, const BOUNDED: bool = false> {
    comm: &'a C,
    buf: &'a mut [u8],
    /// The last envelope received, and the range of `buf` whose bytes it
    /// equals.
    held: Option<(Range<usize>, SharedBuf)>,
    /// Every non-empty envelope staged for a send-only op, and the first
    /// non-empty landing a later landing replaced without handing it over,
    /// each with its range of `buf`.
    kept: Vec<(Range<usize>, SharedBuf)>,
    /// Whether `kept` already holds that replaced landing.
    kept_landing: bool,
    /// The deadline of every take of a bounded interpreter.
    step: Duration,
}

impl<'a, C: AsyncCommunicator + ?Sized> Interp<'a, C> {
    /// Interpreter over `buf`, the rank's full broadcast buffer.
    pub fn new(comm: &'a C, buf: &'a mut [u8]) -> Self {
        Interp::with(comm, buf, Duration::ZERO)
    }

    /// Send-only interpreter over an already-shared payload: the kept list
    /// is pre-set to all of `src` and there is no buffer to land into, so
    /// every send is a sub-view of `src` and nothing is copied. A stream that
    /// receives (or sends outside `src`) fails with
    /// [`CommError::OutOfBounds`].
    pub fn from_shared(comm: &'a C, src: &SharedBuf) -> Self {
        let mut interp = Interp::new(comm, &mut []);
        interp.kept.push((0..src.len(), src.clone()));
        interp
    }
}

impl<'a, C: AsyncCommunicator + ?Sized> Interp<'a, C, true> {
    /// [`Interp::new`] with every take bounded by `step` (see the [module
    /// docs](self)). An op with both halves is posted eagerly and then taken
    /// under the bound.
    pub(crate) fn bounded(comm: &'a C, buf: &'a mut [u8], step: Duration) -> Self {
        Interp::with(comm, buf, step)
    }
}

impl<'a, C: ?Sized, const BOUNDED: bool> Interp<'a, C, BOUNDED> {
    /// Either kind of interpreter, with nothing retained yet.
    fn with(comm: &'a C, buf: &'a mut [u8], step: Duration) -> Self {
        Interp { comm, buf, held: None, kept: Vec::new(), kept_landing: false, step }
    }
}

impl<'a, C: AsyncCommunicator + ?Sized, const BOUNDED: bool> Interp<'a, C, BOUNDED> {
    /// The buffer as the ops run so far left it: where a caller that steps
    /// through a stream one op at a time reads what a receive landed.
    pub(crate) fn buf(&self) -> &[u8] {
        self.buf
    }

    /// Execute `ops` in order, then settle them
    /// ([`AsyncCommunicator::flush`]; a bounded interpreter waits at most
    /// its `step` for that too): the entry point of a one-stream
    /// collective. A collective of several phases hands them to
    /// [`PhaseSink::phase`] and settles once, after the last. Either way
    /// every collective and attempt returns with nothing of its own in
    /// flight. Resolves to the payload bytes received.
    pub fn run<I: IntoIterator<Item = SchedOp>>(
        &mut self,
        ops: I,
    ) -> impl Future<Output = Result<usize>> + use<'_, 'a, C, BOUNDED, I> {
        self.run_settling(ops, true)
    }

    /// Execute one op and leave what it posted in flight: for a caller that
    /// steps through a stream one op at a time and settles it itself.
    /// Resolves to the payload bytes received.
    pub(crate) fn exec(
        &mut self,
        op: SchedOp,
    ) -> impl Future<Output = Result<usize>> + use<'_, 'a, C, BOUNDED> {
        self.run_settling([op], false)
    }

    /// [`Interp::run`], settling at the end only if `settle` is set. Every
    /// entry point hands out this one future rather than awaiting it, so a
    /// pending op is polled through no extra frame: on the event reactor
    /// that walk is the hot path.
    async fn run_settling(
        &mut self,
        ops: impl IntoIterator<Item = SchedOp>,
        settle: bool,
    ) -> Result<usize> {
        let mut received = 0;
        for op in ops {
            match (&op.send, &op.recv) {
                // Both halves stay ONE call: the concurrent exchange is what
                // keeps the ring deadlock-free under rendezvous. A bounded
                // interpreter posts eagerly and takes under its deadline
                // instead. The landing replaces the held envelope, so the
                // send may take it.
                (Some(s), Some(r)) => {
                    let out = self.stage(&s.loc, true)?;
                    self.prefetch(&r.dst);
                    let env = if BOUNDED {
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
                    self.prefetch(&r.dst);
                    let timeout = BOUNDED.then_some(self.step);
                    let env = self.comm.take(r.dst.len(), r.peer, r.tag, timeout).await?;
                    received += self.land(&r.dst, env.into_shared())?;
                }
                (None, None) => {}
            }
        }
        if settle {
            self.comm.flush(BOUNDED.then_some(self.step)).await?;
        }
        Ok(received)
    }

    /// The payload a send of `range` posts: a sub-view of the held envelope
    /// or, failing that, of a kept one when `range` lies inside it, else a
    /// fresh staging out of the buffer. With `hand_over` (the op's own
    /// landing is about to replace the held envelope) a held envelope of
    /// exactly `range` is moved out, not cloned, and a fresh staging goes
    /// out without being kept: nothing sends an exchange's block again.
    fn stage(&mut self, range: &Range<usize>, hand_over: bool) -> Result<Payload> {
        if hand_over {
            if let Some((_, env)) = self.held.take_if(|(held, _)| held == range) {
                return Ok(Payload::Shared(env));
            }
        }
        let inside =
            |(at, _): &&(Range<usize>, SharedBuf)| at.start <= range.start && range.end <= at.end;
        if let Some((at, env)) = self.held.iter().chain(&self.kept).find(inside) {
            return Ok(Payload::Shared(env.slice(range.start - at.start..range.end - at.start)));
        }
        let bytes = self.buf.get(range.clone()).ok_or_else(|| self.out_of_bounds(range))?;
        let env = self.comm.make_shared(bytes);
        if !hand_over && !range.is_empty() {
            self.kept.push((range.clone(), env.clone()));
        }
        Ok(Payload::Shared(env))
    }

    /// Start fetching the lines a receive into `dst` will land in, so that
    /// the landing copy does not stall on them. Without it, on the
    /// `lossy-ring` shape (P = 128 × 128 KiB, every rank's buffer cold), the
    /// first load after a landing that its stores could not forward
    /// (`stage`'s reload of `held`) held about 40 % of the CPU samples,
    /// waiting for the copy's stores to own their lines.
    fn prefetch(&self, dst: &Range<usize>) {
        if let Some(lines) = self.buf.get(dst.clone()) {
            mpsim::pool::prefetch(lines);
        }
    }

    /// Land an arrived envelope at the start of `dst` — the one copy a rank
    /// pays per received message — and hold it, keyed by the bytes it
    /// actually carried (a message may be shorter than the posted capacity).
    /// The first non-empty held envelope this replaces moves to `kept`.
    fn land(&mut self, dst: &Range<usize>, env: SharedBuf) -> Result<usize> {
        let n = env.len();
        let written = dst.start..dst.start + n;
        let oob = self.out_of_bounds(&written);
        self.buf.get_mut(written.clone()).ok_or(oob)?.copy_from_slice(&env);
        self.comm.note_copy(n);
        let replaced = self.held.replace((written, env));
        if let Some(old) = replaced.filter(|(at, _)| !self.kept_landing && !at.is_empty()) {
            self.kept.push(old);
            self.kept_landing = true;
        }
        Ok(n)
    }

    fn out_of_bounds(&self, range: &Range<usize>) -> CommError {
        CommError::OutOfBounds { disp: range.start, count: range.len(), len: self.buf.len() }
    }
}

/// What a phase table hands each phase stream to, one phase at a time: an
/// [`Interp`] runs it, a `Vec` collects it for a schedule. The table settles
/// once, after its last phase.
pub(crate) trait PhaseSink {
    /// Consume one phase's op stream, settling nothing; resolves to the
    /// payload bytes received.
    fn phase(&mut self, ops: impl Iterator<Item = SchedOp>) -> impl Future<Output = Result<usize>>;

    /// Settle every phase handed over so far.
    fn settle(&mut self) -> impl Future<Output = Result<()>>;
}

/// The run future itself, unsettled, with no wrapper state machine around it.
impl<C: AsyncCommunicator + ?Sized, const BOUNDED: bool> PhaseSink for Interp<'_, C, BOUNDED> {
    fn phase(&mut self, ops: impl Iterator<Item = SchedOp>) -> impl Future<Output = Result<usize>> {
        self.run_settling(ops, false)
    }

    /// [`AsyncCommunicator::flush`], under the step of a bounded interpreter.
    fn settle(&mut self) -> impl Future<Output = Result<()>> {
        self.comm.flush(BOUNDED.then_some(self.step))
    }
}

/// Collecting never suspends and never fails.
impl PhaseSink for &mut Vec<SchedOp> {
    fn phase(&mut self, ops: impl Iterator<Item = SchedOp>) -> impl Future<Output = Result<usize>> {
        self.extend(ops);
        std::future::ready(Ok(0))
    }

    fn settle(&mut self) -> impl Future<Output = Result<()>> {
        std::future::ready(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::collections::{HashMap, VecDeque};

    use mpsim::{ceil_log2, complete_now, Rank, Tag};

    use super::*;
    use crate::bcast::{bcast_with_async, Algorithm};
    use crate::coalesce::{bcast_opt_coalesced_async, CoalescePolicy};
    use crate::ring_tuned::tuned_ring_ops;
    use crate::scatter::scatter_ops;
    use crate::schedule::{Collective, RankSchedule, Schedule};

    /// Records how many views share each posted envelope, at the moment it
    /// is posted, counts the stagings, and notes at each flush how many
    /// core calls came before it. Answers each take with the next of `lens`
    /// bytes of `0xAB`, or `capacity` bytes once `lens` runs out. It is rank
    /// `rank` of `size`, which only the collectives' entry points read.
    #[derive(Default)]
    struct Recorder {
        shares: RefCell<Vec<usize>>,
        staged: Cell<usize>,
        lens: RefCell<VecDeque<usize>>,
        calls: Cell<usize>,
        flushed_after: RefCell<Vec<usize>>,
        rank: Rank,
        size: usize,
    }

    impl Recorder {
        fn at(rank: Rank, size: usize) -> Self {
            Recorder { rank, size, ..Default::default() }
        }

        fn record(&self, payload: &Payload) {
            let shares = match payload {
                Payload::Shared(env) => env.shares(),
                _ => 0,
            };
            self.shares.borrow_mut().push(shares);
        }

        fn arrival(&self, cap: usize) -> Result<Payload> {
            self.calls.set(self.calls.get() + 1);
            let len = self.lens.borrow_mut().pop_front().unwrap_or(cap);
            Ok(vec![0xAB; len].into())
        }
    }

    impl AsyncCommunicator for Recorder {
        fn rank(&self) -> Rank {
            self.rank
        }

        fn size(&self) -> usize {
            self.size
        }

        fn now_ns(&self) -> u64 {
            0
        }

        async fn barrier(&self) -> Result<()> {
            Ok(())
        }

        fn make_shared(&self, data: &[u8]) -> SharedBuf {
            self.staged.set(self.staged.get() + 1);
            data.to_vec().into()
        }

        fn note_copy(&self, _: usize) {}

        async fn post(&self, payload: Payload, _: Rank, _: Tag) -> Result<()> {
            self.record(&payload);
            self.calls.set(self.calls.get() + 1);
            Ok(())
        }

        async fn take(&self, cap: usize, _: Rank, _: Tag, _: Option<Duration>) -> Result<Payload> {
            self.arrival(cap)
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
            self.arrival(cap)
        }

        async fn flush(&self, _: Option<Duration>) -> Result<()> {
            self.flushed_after.borrow_mut().push(self.calls.get());
            Ok(())
        }

        async fn acknowledge(&self) -> Result<()> {
            Ok(())
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
        let comm = Recorder::default();
        let mut buf = [0u8; 16];
        let mut interp = Interp::bounded(&comm, &mut buf, Duration::from_secs(1));
        assert_eq!(complete_now(interp.run(ops())).unwrap(), 16);
        assert_eq!(comm.shares.into_inner(), SHARES);
    }

    /// The root of the tuned broadcast copies its payload once: it stages
    /// each scatter child's subtree and, in the ring, its own chunk; every
    /// other ring send is a sub-view of those stagings.
    #[test]
    fn the_tuned_root_stages_each_byte_once() {
        let (p, nbytes) = (8, 64);
        let comm = Recorder::default();
        let mut buf = [7u8; 64];
        let mut interp = Interp::new(&comm, &mut buf);
        complete_now(interp.run(scatter_ops(0, p, nbytes, 0))).unwrap();
        assert_eq!(comm.staged.get(), 3, "one staging per scatter child");
        complete_now(interp.run(tuned_ring_ops(0, p, nbytes, 0))).unwrap();
        assert_eq!(comm.shares.borrow().len(), 3 + (p - 1), "the root sends every ring step");
        assert_eq!(comm.staged.get(), 4, "a ring send other than the root's own chunk staged");
    }

    /// Every broadcast settles once, after its last op: each `Algorithm`
    /// arm, whose scatter and allgather share one settle, and the
    /// coalescing broadcast.
    #[test]
    fn every_broadcast_flushes_once_after_its_last_op() {
        use Algorithm::*;
        let check = |what: String, comm: Recorder| {
            let calls = comm.calls.get();
            assert_eq!(comm.flushed_after.into_inner(), [calls], "{what}: flushes after calls");
        };
        let roots = |p: usize| [0, p - 1].map(move |root| (p, root));
        let ranks = |(p, root)| (0..p).map(move |rank| (p, root, rank));
        for (p, root, rank) in (1..=9).flat_map(roots).flat_map(ranks) {
            let at = format!("P={p} root={root} rank={rank}");
            for algorithm in [Binomial, ScatterRdAllgather, ScatterRingNative, ScatterRingTuned] {
                if algorithm.supports(p) {
                    let comm = Recorder::at(rank, p);
                    let mut buf = vec![0; 4 * p];
                    complete_now(bcast_with_async(&comm, &mut buf, root, algorithm)).unwrap();
                    check(format!("{algorithm:?} {at}"), comm);
                }
            }
            let comm = Recorder::at(rank, p);
            let (mut buf, policy) = (vec![0; 4 * p], CoalescePolicy::unlimited());
            complete_now(bcast_opt_coalesced_async(&comm, &mut buf, root, &policy)).unwrap();
            check(format!("coalesced {at}"), comm);
        }
    }

    /// The length of every receive of every rank, in program order: the send
    /// it matches, the k-th from its peer on its tag.
    fn arrival_lens(sched: &Schedule) -> Vec<VecDeque<usize>> {
        let mut sent: HashMap<(Rank, Rank, Tag), VecDeque<usize>> = HashMap::new();
        for (src, r) in sched.ranks.iter().enumerate() {
            for s in r.ops.iter().filter_map(|op| op.send.as_ref()) {
                sent.entry((src, s.peer, s.tag)).or_default().push_back(s.loc.len());
            }
        }
        let mut lens = |rank: Rank, r: &RankSchedule| {
            let recvs = r.ops.iter().filter_map(|op| op.recv.as_ref());
            recvs
                .map(|h| sent.get_mut(&(h.peer, rank, h.tag)).unwrap().pop_front().unwrap())
                .collect()
        };
        sched.ranks.iter().enumerate().map(|(rank, r)| lens(rank, r)).collect()
    }

    /// Stagings plus one landing: the kept list never outgrows
    /// `⌈log₂P⌉ + 2` on any rank of any collective of the sweep.
    #[test]
    fn the_kept_list_stays_logarithmic_on_every_source() {
        for source in Collective::SWEEP {
            for p in (1..=64).filter(|&p| source.supports(p)) {
                let bound = ceil_log2(p) as usize + 2;
                for nbytes in [p - 1, 4 * p - 1] {
                    for root in [0, p - 1] {
                        let sched = source.schedule(p, nbytes, root);
                        let lens = arrival_lens(&sched);
                        for ((rank, r), lens) in sched.ranks.iter().enumerate().zip(lens) {
                            let comm = Recorder { lens: lens.into(), ..Default::default() };
                            let mut buf = vec![0u8; r.buf_len];
                            let mut interp = Interp::new(&comm, &mut buf);
                            let mut most = 0;
                            for op in r.ops.iter().cloned() {
                                complete_now(interp.run([op])).unwrap();
                                most = most.max(interp.kept.len());
                            }
                            assert!(
                                most <= bound,
                                "{} P={p} n={nbytes} root={root} rank={rank}: {most} kept",
                                source.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
