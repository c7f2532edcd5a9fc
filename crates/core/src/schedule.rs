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
//! same kind. The IR can be checked statically by the `schedcheck` crate:
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

use mpsim::{Rank, Tag};

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

/// A named family of schedules: one collective algorithm, parameterized by
/// world size, payload size and root.
///
/// `nbytes` is the *total tracked buffer* for rooted broadcast-family
/// collectives and the *per-rank block* for symmetric collectives
/// (allgather); each implementation documents its reading.
/// Sources ignore `root` when the collective has none.
pub trait ScheduleSource {
    /// Stable algorithm name, `family/variant` (e.g. `"bcast/scatter_ring_tuned"`).
    fn name(&self) -> &'static str;

    /// Whether the algorithm is defined for a world of `p` ranks
    /// (e.g. recursive doubling requires a power of two).
    fn supports(&self, p: usize) -> bool;

    /// Emit the full symbolic schedule.
    fn schedule(&self, p: usize, nbytes: usize, root: Rank) -> Schedule;
}

/// All schedule sources in the crate — the sweep surface of the `schedcheck`
/// CLI: four flat broadcasts, the coalescing ring under its unlimited
/// policy, the pipeline, two SMP composites and the three allgather
/// baselines.
pub fn all_sources() -> Vec<Box<dyn ScheduleSource>> {
    let mut v: Vec<Box<dyn ScheduleSource>> = Vec::new();
    v.extend(crate::bcast::schedule_sources());
    v.extend(crate::coalesce::schedule_sources());
    v.extend(crate::pipeline::schedule_sources());
    v.extend(crate::smp::schedule_sources());
    v.extend(crate::allgather::schedule_sources());
    v
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

    #[test]
    fn all_sources_cover_every_family() {
        let names: Vec<&str> = all_sources().iter().map(|s| s.name()).collect();
        for family in ["bcast/", "allgather/"] {
            assert!(names.iter().any(|n| n.starts_with(family)), "missing {family}: {names:?}");
        }
        // 4 flat bcast + coalesced + pipeline + 2 smp + 3 allgather: a source
        // silently falling out of `all_sources()` must fail here, not shrink
        // the sweep.
        assert_eq!(names.len(), 11, "{names:?}");
    }
}
