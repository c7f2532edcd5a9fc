//! Symbolic communication-schedule IR.
//!
//! A collective's schedule is the exact sequence of sends and receives it
//! performs — per rank, in program order, with peer, tag and byte ranges.
//! For the broadcast family the schedule *is* the program: each phase is one
//! lazy per-rank stream of [`SchedOp`]s (`scatter_ops`, `native_ring_ops`,
//! `tuned_ring_ops`, `rd_ops`, `binomial_ops`), which [`crate::interp`]
//! executes against a communicator and `bcast_schedule` collects over all
//! ranks — the same function feeds both, so what is checked is what runs.
//! The pipeline broadcast (`pipeline_ops`) and the standalone allgathers
//! (`native_ring_ops`/`rd_ops` at `root = 0`, `bruck_ops`) are streams of the
//! same kind. [`Collective`] names every collective the crate sweeps once —
//! its name, the worlds it supports, its schedule, how to run it and its
//! copy budget. The IR can be checked statically by the `schedcheck` crate:
//!
//! * send/recv matching (no orphaned or duplicated operations),
//! * deadlock freedom under eager and rendezvous semantics,
//! * buffer coverage (every required byte written, redundancy counted —
//!   the paper's bandwidth saving *is* the redundancy of the native ring),
//! * traffic reconciliation against [`crate::traffic`] closed forms and
//!   against instrumented `ThreadWorld`/`netsim` runs.
//!
//! ## Shape
//!
//! A [`Schedule`] holds one [`RankSchedule`] per rank. A rank's schedule is a
//! list of [`SchedOp`]s executed in order; each op carries an optional
//! [`SendHalf`] and an optional [`RecvHalf`] — both present models a
//! `sendrecv` (the two halves are posted concurrently, which is what makes
//! the ring deadlock-free under rendezvous). Every half names a byte range
//! of the rank's one tracked buffer: the bytes a send reads, or where a
//! receive lands and how much it may take.

use std::ops::Range;

use mpsim::{AsyncCommunicator, Rank, Result, Tag};

use crate::allgather::{allgather_async, bruck_ops, AllgatherAlgorithm};
use crate::bcast::{bcast_ops, bcast_with_async, Algorithm};
use crate::coalesce::{bcast_opt_coalesced_async, coalesced_ring_ops, CoalescePolicy};
use crate::pipeline::{bcast_pipeline_async, pipeline_ops};
use crate::rd_allgather::rd_ops;
use crate::ring::native_ring_ops;
use crate::scatter::scatter_ops;
use crate::smp::{bcast_smp_async, smp_ops, NodeMap};

/// The send half of a schedule op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendHalf {
    /// Destination rank.
    pub peer: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Bytes of the rank's buffer sent (length = bytes on the wire); they
    /// must be valid when the send is posted.
    pub loc: Range<usize>,
}

/// The receive half of a schedule op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvHalf {
    /// Source rank.
    pub peer: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Where the message lands: at `dst.start`, with capacity `dst.len()`;
    /// the *actual* written extent is the matched message's length (MPI
    /// allows shorter-than-capacity messages).
    pub dst: Range<usize>,
}

/// One program-order slot of a rank's schedule.
///
/// `send` and `recv` both present models `sendrecv`: the two halves are
/// posted concurrently and the op completes when both have completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedOp {
    /// Human-readable phase label (`"scatter"`, `"ring"`, …) for diagnostics.
    pub phase: &'static str,
    /// Optional send half.
    pub send: Option<SendHalf>,
    /// Optional receive half.
    pub recv: Option<RecvHalf>,
}

impl SchedOp {
    /// A lone blocking send.
    pub fn send(phase: &'static str, peer: Rank, tag: Tag, loc: Range<usize>) -> Self {
        SchedOp { phase, send: Some(SendHalf { peer, tag, loc }), recv: None }
    }

    /// A lone blocking receive.
    pub fn recv(phase: &'static str, peer: Rank, tag: Tag, dst: Range<usize>) -> Self {
        SchedOp { phase, send: None, recv: Some(RecvHalf { peer, tag, dst }) }
    }

    /// A combined `sendrecv` (both halves posted concurrently).
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        phase: &'static str,
        to: Rank,
        stag: Tag,
        sloc: Range<usize>,
        from: Rank,
        rtag: Tag,
        rdst: Range<usize>,
    ) -> Self {
        SchedOp {
            phase,
            send: Some(SendHalf { peer: to, tag: stag, loc: sloc }),
            recv: Some(RecvHalf { peer: from, tag: rtag, dst: rdst }),
        }
    }

    /// This op with each half's `(peer, tag)` replaced by `f(peer, tag)`:
    /// how a sub-world stream is renumbered into its parent's ranks (and, for
    /// a self-healing attempt, tagged for its epoch).
    pub fn relabel(mut self, f: impl Fn(Rank, Tag) -> (Rank, Tag)) -> Self {
        if let Some(s) = &mut self.send {
            (s.peer, s.tag) = f(s.peer, s.tag);
        }
        if let Some(r) = &mut self.recv {
            (r.peer, r.tag) = f(r.peer, r.tag);
        }
        self
    }

    /// One-line description for diagnostics.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(s) = &self.send {
            parts.push(format!("send {}B -> rank {} tag {:#x}", s.loc.len(), s.peer, s.tag.0));
        }
        if let Some(r) = &self.recv {
            parts.push(format!("recv cap {}B <- rank {} tag {:#x}", r.dst.len(), r.peer, r.tag.0));
        }
        if parts.is_empty() {
            parts.push("nop".into());
        }
        format!("[{}] {}", self.phase, parts.join(" / "))
    }
}

/// The schedule of a single rank: ops in program order plus buffer-coverage
/// metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankSchedule {
    /// Length of the tracked destination buffer (0 = nothing tracked).
    pub buf_len: usize,
    /// Byte ranges valid before the first op (initial data: the root's
    /// payload, a locally copied own block, …).
    pub valid: Vec<Range<usize>>,
    /// Byte ranges that must be valid after the last op for the collective
    /// to be correct on this rank.
    pub required: Vec<Range<usize>>,
    /// Operations in program order; the index is the rank's *step* number
    /// used in diagnostics.
    pub ops: Vec<SchedOp>,
}

impl RankSchedule {
    /// Empty schedule over a tracked buffer of `buf_len` bytes.
    pub fn new(buf_len: usize) -> Self {
        Self { buf_len, ..Self::default() }
    }

    /// Append a blocking send.
    pub fn send(&mut self, phase: &'static str, peer: Rank, tag: Tag, loc: Range<usize>) {
        self.ops.push(SchedOp::send(phase, peer, tag, loc));
    }

    /// Append a blocking receive.
    pub fn recv(&mut self, phase: &'static str, peer: Rank, tag: Tag, dst: Range<usize>) {
        self.ops.push(SchedOp::recv(phase, peer, tag, dst));
    }

    /// Append a combined `sendrecv` (both halves posted concurrently).
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        phase: &'static str,
        to: Rank,
        stag: Tag,
        sloc: Range<usize>,
        from: Rank,
        rtag: Tag,
        rdst: Range<usize>,
    ) {
        self.ops.push(SchedOp::sendrecv(phase, to, stag, sloc, from, rtag, rdst));
    }

    /// Mark `range` valid before the run (initial payload / local copy).
    pub fn mark_valid(&mut self, range: Range<usize>) {
        if !range.is_empty() {
            self.valid.push(range);
        }
    }

    /// Require `range` to be valid after the run.
    pub fn require(&mut self, range: Range<usize>) {
        if !range.is_empty() {
            self.required.push(range);
        }
    }

    /// Planned outgoing traffic of this rank: `(messages, bytes)`, counting
    /// every send half once at the sender (the convention of
    /// [`mpsim::TrafficStats`] and [`crate::traffic`]).
    pub fn planned_sends(&self) -> (u64, u64) {
        let mut msgs = 0u64;
        let mut bytes = 0u64;
        for op in &self.ops {
            if let Some(s) = &op.send {
                msgs += 1;
                bytes += s.loc.len() as u64;
            }
        }
        (msgs, bytes)
    }
}

/// A full symbolic schedule: one [`RankSchedule`] per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Algorithm name (diagnostics and CLI listings).
    pub name: String,
    /// World size.
    pub p: usize,
    /// Per-rank schedules, indexed by rank.
    pub ranks: Vec<RankSchedule>,
}

impl Schedule {
    /// New empty schedule of `p` ranks, each tracking a `buf_len`-byte buffer.
    pub fn new(name: impl Into<String>, p: usize, buf_len: usize) -> Self {
        Self { name: name.into(), p, ranks: (0..p).map(|_| RankSchedule::new(buf_len)).collect() }
    }

    /// Planned total traffic `(messages, bytes)` summed over all send halves.
    pub fn planned_volume(&self) -> (u64, u64) {
        let mut msgs = 0u64;
        let mut bytes = 0u64;
        for rs in &self.ranks {
            let (m, b) = rs.planned_sends();
            msgs += m;
            bytes += b;
        }
        (msgs, bytes)
    }
}

/// Translate a sub-world op stream into its parent's numbering: every peer
/// `l` becomes `world(l)`. Lazy, so a composite (the SMP phases) is built
/// and executed from the same renumbered stream.
pub fn renumber(
    ops: impl Iterator<Item = SchedOp>,
    world: impl Fn(Rank) -> Rank,
) -> impl Iterator<Item = SchedOp> {
    ops.map(move |op| op.relabel(|peer, tag| (world(peer), tag)))
}

/// A collective of this crate as one value: its name, the worlds it is
/// defined for, its schedule, how to run it and its copy budget, each
/// written once. [`Collective::SWEEP`] is what `schedcheck` checks
/// statically, what the replay battery runs on every executor and what
/// reconciliation holds each run's copies to.
///
/// `nbytes` is the *total tracked buffer* for the broadcasts and the
/// *per-rank block* for the allgathers, which ignore `root`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// A flat broadcast ([`bcast_with_async`]).
    Bcast(Algorithm),
    /// Scatter + the coalescing tuned ring ([`bcast_opt_coalesced_async`]).
    Coalesced(CoalescePolicy),
    /// The segmented chain ([`bcast_pipeline_async`]), cut into thirds
    /// ([`Collective::pipeline_segment`]).
    Pipeline,
    /// The three-phase SMP broadcast ([`bcast_smp_async`]) at four cores per
    /// node, with this inter-node algorithm.
    Smp(Algorithm),
    /// A standalone allgather ([`allgather_async`]).
    Allgather(AllgatherAlgorithm),
}

impl From<Algorithm> for Collective {
    fn from(algorithm: Algorithm) -> Self {
        Collective::Bcast(algorithm)
    }
}

impl Collective {
    /// The sweep: four flat broadcasts, the coalescing ring under its
    /// unlimited policy, the pipeline, two SMP composites and the three
    /// allgather baselines.
    pub const SWEEP: [Collective; 11] = [
        Collective::Bcast(Algorithm::Binomial),
        Collective::Bcast(Algorithm::ScatterRdAllgather),
        Collective::Bcast(Algorithm::ScatterRingNative),
        Collective::Bcast(Algorithm::ScatterRingTuned),
        Collective::Coalesced(CoalescePolicy::unlimited()),
        Collective::Pipeline,
        Collective::Smp(Algorithm::ScatterRingNative),
        Collective::Smp(Algorithm::ScatterRingTuned),
        Collective::Allgather(AllgatherAlgorithm::Ring),
        Collective::Allgather(AllgatherAlgorithm::RecursiveDoubling),
        Collective::Allgather(AllgatherAlgorithm::Bruck),
    ];

    /// The SMP composite's placement.
    const SMP_NODES: NodeMap = NodeMap { cores_per_node: 4 };

    /// The pipeline's segment for an `nbytes` payload: a ragged cut into
    /// (at most) three, so every sweep exercises the overlap path.
    pub fn pipeline_segment(nbytes: usize) -> usize {
        nbytes.div_ceil(3).max(1)
    }

    /// Stable name, `family/variant` (e.g. `"bcast/scatter_ring_tuned"`).
    pub fn name(self) -> &'static str {
        match self {
            Collective::Bcast(algorithm) => algorithm.schedule_name(),
            Collective::Coalesced(_) => "bcast/scatter_ring_coalesced",
            Collective::Pipeline => "bcast/pipeline",
            Collective::Smp(Algorithm::Binomial) => "bcast/smp_binomial",
            Collective::Smp(Algorithm::ScatterRdAllgather) => "bcast/smp_scatter_rd",
            Collective::Smp(Algorithm::ScatterRingNative) => "bcast/smp_native",
            Collective::Smp(Algorithm::ScatterRingTuned) => "bcast/smp_tuned",
            Collective::Allgather(algorithm) => algorithm.schedule_name(),
        }
    }

    /// Whether the collective is defined for a world of `p` ranks: recursive
    /// doubling needs a power of two — of the node leaders, for the SMP
    /// composite.
    pub fn supports(self, p: usize) -> bool {
        match self {
            Collective::Bcast(algorithm) => algorithm.supports(p),
            Collective::Smp(inter) => inter.supports(Self::SMP_NODES.node_count(p)),
            Collective::Allgather(algorithm) => algorithm.supports(p),
            Collective::Coalesced(_) | Collective::Pipeline => true,
        }
    }

    /// The full symbolic schedule: every rank's op stream over one tracked
    /// buffer, which every rank must end holding.
    ///
    /// # Panics
    ///
    /// If the collective does not [support](Collective::supports) `p` — a
    /// precondition here; [`Collective::run`] returns an error instead.
    pub fn schedule(self, p: usize, nbytes: usize, root: Rank) -> Schedule {
        assert!(self.supports(p), "{} is not defined for P = {p}", self.name());
        let mut s = self.skeleton(p, nbytes, root);
        for (rank, rs) in s.ranks.iter_mut().enumerate() {
            rs.ops = self.ops(rank, p, nbytes, root);
        }
        s
    }

    /// An empty schedule with the collective's coverage contract: a
    /// broadcast's root enters holding all `nbytes`, an allgather rank its
    /// own block (slot 0 of Bruck's rotated space), and every rank must end
    /// holding the whole buffer.
    pub(crate) fn skeleton(self, p: usize, nbytes: usize, root: Rank) -> Schedule {
        let len = if let Collective::Allgather(_) = self { nbytes * p } else { nbytes };
        let mut s = Schedule::new(self.name(), p, len);
        for (rank, rs) in s.ranks.iter_mut().enumerate() {
            rs.require(0..len);
            rs.mark_valid(match self {
                Collective::Allgather(AllgatherAlgorithm::Bruck) => 0..nbytes,
                Collective::Allgather(_) => rank * nbytes..(rank + 1) * nbytes,
                _ if rank == root => 0..nbytes,
                _ => 0..0,
            });
        }
        s
    }

    /// Rank `rank`'s ops: what [`Collective::run`] interprets.
    fn ops(self, rank: Rank, p: usize, nbytes: usize, root: Rank) -> Vec<SchedOp> {
        match self {
            Collective::Bcast(algorithm) => bcast_ops(algorithm, rank, p, nbytes, root),
            Collective::Coalesced(policy) => scatter_ops(rank, p, nbytes, root)
                .into_iter()
                .chain(coalesced_ring_ops(rank, p, nbytes, root, &policy))
                .collect(),
            Collective::Pipeline => {
                pipeline_ops(rank, p, nbytes, root, Self::pipeline_segment(nbytes)).collect()
            }
            Collective::Smp(inter) => smp_ops(rank, p, nbytes, root, &Self::SMP_NODES, inter),
            Collective::Allgather(AllgatherAlgorithm::Bruck) => {
                bruck_ops(rank, p, nbytes).collect()
            }
            Collective::Allgather(AllgatherAlgorithm::Ring) => {
                native_ring_ops(rank, p, nbytes * p, 0).collect()
            }
            Collective::Allgather(AllgatherAlgorithm::RecursiveDoubling) => {
                rd_ops(rank, p, nbytes * p, 0).collect()
            }
        }
    }

    /// Run the collective on this rank through its family's entry point.
    /// `buf` is the schedule's tracked buffer: the payload for a broadcast
    /// (meaningful on `root`), and for an allgather the gathered
    /// `size × block` bytes, this rank's own block in place at
    /// `rank × block`.
    ///
    /// Fails with [`mpsim::CommError::Unsupported`] — before anything is
    /// posted — exactly where [`Collective::supports`] rules the world out.
    pub async fn run<C: AsyncCommunicator + ?Sized>(
        self,
        comm: &C,
        buf: &mut [u8],
        root: Rank,
    ) -> Result<()> {
        match self {
            Collective::Bcast(algorithm) => bcast_with_async(comm, buf, root, algorithm).await,
            Collective::Coalesced(policy) => {
                bcast_opt_coalesced_async(comm, buf, root, &policy).await
            }
            Collective::Pipeline => {
                let segment = Self::pipeline_segment(buf.len());
                bcast_pipeline_async(comm, buf, root, segment).await
            }
            Collective::Smp(inter) => {
                bcast_smp_async(comm, buf, root, &Self::SMP_NODES, inter).await
            }
            Collective::Allgather(algorithm) => {
                let block = buf.len() / comm.size();
                let own = buf[comm.rank() * block..][..block].to_vec();
                allgather_async(comm, &own, buf, algorithm).await
            }
        }
    }

    /// Closed-form memcpy budget of the collective's zero-copy payload flow,
    /// in bytes per rank, for an `nbytes` payload — `None` where none is
    /// pinned.
    ///
    /// * Binomial, the tuned scatter-ring and the pipeline: every rank copies
    ///   each payload byte exactly once — the root stages it, a non-root
    ///   lands it, and no byte arrives twice — so the budget is `nbytes`
    ///   (`traffic::bcast_bytes_copied` has the world bill).
    /// * The native and coalesced scatter-rings: a rank stages a byte at
    ///   most once and lands every received envelope once, so `2 · nbytes`
    ///   bounds every rank — the root of the native path comes closest (it
    ///   stages every chunk and lands the other `P − 1` the enclosed ring
    ///   sends it back), and a coalesced tail run that spans two kept
    ///   envelopes is staged again.
    /// * Scatter + recursive doubling: each round stages its send block once
    ///   and lands the partner's (under `2 · nbytes` together), on top of
    ///   the scatter's landing copy of ≤ `nbytes` — ceiling `3 · nbytes`.
    pub fn copy_ceiling(self, nbytes: u64) -> Option<u64> {
        match self {
            Collective::Bcast(Algorithm::Binomial | Algorithm::ScatterRingTuned)
            | Collective::Pipeline => Some(nbytes),
            Collective::Bcast(Algorithm::ScatterRingNative) | Collective::Coalesced(_) => {
                Some(2 * nbytes)
            }
            Collective::Bcast(Algorithm::ScatterRdAllgather) => Some(3 * nbytes),
            Collective::Smp(_) | Collective::Allgather(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_volume() {
        let mut s = Schedule::new("toy", 2, 8);
        s.ranks[0].mark_valid(0..8);
        s.ranks[0].send("x", 1, Tag(1), 0..8);
        s.ranks[1].recv("x", 0, Tag(1), 0..8);
        s.ranks[1].require(0..8);
        assert_eq!(s.planned_volume(), (1, 8));
        assert_eq!(s.ranks[0].planned_sends(), (1, 8));
        assert_eq!(s.ranks[1].planned_sends(), (0, 0));
        assert_eq!(s.ranks.iter().map(|r| r.ops.len()).sum::<usize>(), 2);
    }

    #[test]
    fn renumber_translates_peers() {
        let members = [2, 5];
        let sub = vec![SchedOp::send("x", 1, Tag(9), 0..4), SchedOp::recv("x", 0, Tag(9), 0..4)];
        let top: Vec<SchedOp> = renumber(sub.into_iter(), |l| members[l]).collect();
        assert_eq!(top[0].send.as_ref().unwrap().peer, 5);
        assert_eq!(top[1].recv.as_ref().unwrap().peer, 2);
    }

    #[test]
    fn describe_is_informative() {
        let op = SchedOp {
            phase: "ring",
            send: Some(SendHalf { peer: 3, tag: Tag(0xB1), loc: 0..5 }),
            recv: Some(RecvHalf { peer: 1, tag: Tag(0xB1), dst: 5..10 }),
        };
        let d = op.describe();
        assert!(d.contains("ring") && d.contains("rank 3") && d.contains("rank 1"), "{d}");
    }

    /// The sweep, plus the SMP composite over every inter algorithm: one
    /// name per entry, carried by its schedule, and `supports` says exactly
    /// where `run` refuses the world.
    #[test]
    fn the_table_names_and_supports_what_it_runs() {
        use crate::bcast::Algorithm::*;
        use mpsim::{CommError, EventWorld};

        let smp = [Binomial, ScatterRdAllgather, ScatterRingNative, ScatterRingTuned]
            .map(Collective::Smp)
            .into_iter()
            .filter(|c| !Collective::SWEEP.contains(c));
        let entries: Vec<Collective> = Collective::SWEEP.into_iter().chain(smp).collect();
        let mut names: Vec<&str> = entries.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len(), "{entries:?}");
        for c in entries {
            for p in 1..=20usize {
                let nbytes = 8 * p;
                if c.supports(p) {
                    assert_eq!(c.schedule(p, nbytes, p - 1).name, c.name(), "P={p}");
                }
                let runs = EventWorld::run(p, |comm| async move {
                    let mut buf = vec![0u8; nbytes];
                    c.run(&comm, &mut buf, p - 1).await
                });
                for result in runs.results {
                    match result {
                        Ok(()) => assert!(c.supports(p), "{} ran at P={p}", c.name()),
                        Err(CommError::Unsupported { .. }) => {
                            assert!(!c.supports(p), "{} refused P={p}", c.name())
                        }
                        Err(e) => panic!("{} at P={p}: {e:?}", c.name()),
                    }
                }
            }
        }
    }
}
