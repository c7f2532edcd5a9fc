//! Static analyses over the symbolic schedule IR.
//!
//! The centerpiece is an *abstract executor*: it runs a
//! [`Schedule`](bcast_core::schedule::Schedule) without moving payload bytes,
//! advancing every rank through its op list under a chosen message-passing
//! semantics and recording what a real run would have done. On top of one
//! abstract execution it derives every check the `schedcheck` CLI reports:
//!
//! * **Matching** — every send half is consumed by exactly one receive and
//!   vice versa; leftovers are reported as orphans with rank/step.
//! * **Deadlock freedom** — if the system reaches a state where unfinished
//!   ranks exist but none can advance, a wait-for graph is built and the
//!   blocking cycle (or the terminated peer a rank waits on) is reported.
//! * **Coverage** — per-rank byte validity: sends of never-received bytes
//!   are flagged, required bytes left invalid are flagged, and writes to
//!   already-valid bytes are *counted* as redundancy (not an error — the
//!   native ring's redundancy **is** the paper's bandwidth saving).
//! * **Traffic** — per-rank delivered message/byte counters, reconciled by
//!   callers against [`bcast_core::traffic`] closed forms and instrumented
//!   `ThreadWorld`/`netsim` runs.
//!
//! ## Semantics
//!
//! Under [`Semantics::Eager`] a send half completes the moment it is posted
//! (buffered by the transport); under [`Semantics::Rendezvous`] a blocking
//! send half completes only when the matching receive consumes it — the
//! stricter regime in which a ring exchange written as `send; recv` instead
//! of `sendrecv` deadlocks. Matching is FIFO per `(src, dst, tag)` channel,
//! MPI's non-overtaking rule, exactly like [`mpsim`]'s mailbox.

use std::collections::{BTreeMap, HashMap, VecDeque};

use bcast_core::schedule::{Collective, Schedule};
use mpsim::{Rank, Tag};

/// Message-progress semantics for the abstract execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Sends complete immediately (transport buffers the payload).
    Eager,
    /// Blocking sends complete only when the matching receive arrives.
    Rendezvous,
}

impl Semantics {
    /// Both semantics, in checking order.
    pub const ALL: [Semantics; 2] = [Semantics::Eager, Semantics::Rendezvous];
}

impl std::fmt::Display for Semantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Semantics::Eager => "eager",
            Semantics::Rendezvous => "rendezvous",
        })
    }
}

/// Per-rank delivered traffic observed by the abstract executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankTraffic {
    /// Messages sent (every posted send half, including zero-byte ones).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received (matched receive halves).
    pub msgs_recvd: u64,
    /// Payload bytes received.
    pub bytes_recvd: u64,
}

/// Result of checking one schedule under one semantics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedule name.
    pub name: String,
    /// World size.
    pub p: usize,
    /// Semantics the schedule was executed under.
    pub semantics: Semantics,
    /// Violations, each naming the offending rank and step.
    pub errors: Vec<String>,
    /// Per-rank delivered traffic.
    pub traffic: Vec<RankTraffic>,
    /// Receives whose (non-empty) written extent was entirely valid already —
    /// for the native scatter-ring broadcast this equals the closed-form
    /// message saving of the paper's tuned ring.
    pub redundant_msgs: u64,
    /// Bytes written over already-valid bytes.
    pub redundant_bytes: u64,
    /// Every matched transfer into a tracked buffer whose written extent
    /// was already valid at the receiver — the input of
    /// [`prune_redundant`]. Unlike `redundant_msgs` this includes empty
    /// extents, which are vacuously "already held".
    pub redundant_transfers: Vec<Transfer>,
}

/// One matched transfer: the send half at `(src, src_step)` was consumed by
/// the receive half at `(dst, dst_step)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sending rank.
    pub src: Rank,
    /// Index of the sending op in `src`'s op list.
    pub src_step: usize,
    /// Receiving rank.
    pub dst: Rank,
    /// Index of the receiving op in `dst`'s op list.
    pub dst_step: usize,
}

impl Report {
    /// No violations found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Reconciliation of an instrumented run against the planned volume of the
/// schedule IR it claims to implement.
///
/// Every send half of the schedule is one message on the wire — coalescing
/// and segmenting are rewrites of the stream, not of the transport — so the
/// run must match the plan **exactly**. The checked contract:
///
/// * `executed_msgs == planned_msgs` and `executed_bytes == planned_bytes` —
///   any deviation means the run and the IR disagree on the algorithm.
/// * globally balanced counters — an invariant of the [`mpsim`] accounting
///   layer.
/// * per-rank `bytes_copied <= copy ceiling` — for a schedule named by a
///   [`Collective`] with a known zero-copy payload flow
///   ([`Collective::copy_ceiling`]), no rank may memcpy more than the
///   closed-form budget; a regression to per-hop copying shows up here even
///   though wire traffic is unchanged.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    /// Send halves in the schedule IR.
    pub planned_msgs: u64,
    /// Payload bytes summed over the IR's send halves.
    pub planned_bytes: u64,
    /// Messages the run recorded.
    pub executed_msgs: u64,
    /// Payload bytes the run moved.
    pub executed_bytes: u64,
    /// Rank-local memcpy bytes the run recorded, summed over ranks.
    pub executed_bytes_copied: u64,
    /// Violations of the contract above, human-readable.
    pub errors: Vec<String>,
}

impl Reconciliation {
    /// No violations found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Reconcile an instrumented execution against `schedule`'s planned
/// volume. See [`Reconciliation`] for the contract.
///
/// Executor-agnostic: the counters of a `ThreadWorld`, `SimWorld`, or
/// `EventWorld` outcome all reconcile through the same entry point — the
/// accounting layer is shared, so a schedule that reconciles on one
/// executor must reconcile identically on the others.
pub fn reconcile_traffic(schedule: &Schedule, traffic: &mpsim::WorldTraffic) -> Reconciliation {
    let (planned_msgs, planned_bytes) = schedule.planned_volume();
    let executed_msgs = traffic.total_msgs();
    let executed_bytes = traffic.total_bytes();
    let mut errors = Vec::new();

    if traffic.per_rank.len() != schedule.p {
        errors.push(format!(
            "world-size: schedule plans {} ranks but the run recorded {}",
            schedule.p,
            traffic.per_rank.len()
        ));
    }
    if executed_msgs != planned_msgs {
        errors.push(format!(
            "messages: schedule plans exactly {planned_msgs} messages but the run sent \
             {executed_msgs}"
        ));
    }
    if executed_bytes != planned_bytes {
        errors.push(format!(
            "bytes: schedule plans exactly {planned_bytes}B but the run moved {executed_bytes}B"
        ));
    }
    if !traffic.is_balanced() {
        errors.push("balance: global sent/received counters disagree".to_string());
    }
    let nbytes = schedule.ranks.first().map_or(0, |r| r.buf_len as u64);
    let collective = Collective::SWEEP.into_iter().find(|c| c.name() == schedule.name);
    if let Some(ceiling) = collective.and_then(|c| c.copy_ceiling(nbytes)) {
        for (rank, stats) in traffic.per_rank.iter().enumerate() {
            if stats.bytes_copied > ceiling {
                errors.push(format!(
                    "copies: rank {rank} memcpy'd {}B, above the {ceiling}B zero-copy budget of \
                     {} (wire traffic can be right while the payload path regressed to per-hop \
                     copying)",
                    stats.bytes_copied, schedule.name
                ));
            }
        }
    }

    Reconciliation {
        planned_msgs,
        planned_bytes,
        executed_msgs,
        executed_bytes,
        executed_bytes_copied: traffic.total_bytes_copied(),
        errors,
    }
}

/// The paper's optimization as a pass: delete every transfer whose
/// destination range is already valid at the receiver when it arrives.
///
/// Runs the abstract executor once, then drops both halves of each
/// [`Report::redundant_transfers`] entry — a `sendrecv` that loses one half
/// becomes a lone send or receive, an op that loses both disappears. One
/// pass suffices: a redundant transfer writes only bytes that were valid
/// already, so removing it changes no other transfer's verdict. A transfer
/// of zero bytes is vacuously redundant and goes too, which is why the
/// pass reproduces the tuned ring *op for op* only at payloads where every
/// chunk is non-empty (the tuned ring keeps the empty messages its
/// `(step, flag)` rule does not cover).
pub fn prune_redundant(schedule: &Schedule) -> Schedule {
    let report = check(schedule, Semantics::Eager);
    let mut pruned = schedule.clone();
    for t in &report.redundant_transfers {
        pruned.ranks[t.src].ops[t.src_step].send = None;
        pruned.ranks[t.dst].ops[t.dst_step].recv = None;
    }
    for rs in &mut pruned.ranks {
        rs.ops.retain(|op| op.send.is_some() || op.recv.is_some());
    }
    pruned
}

/// The paper's claim, derived: pruning the redundant transfers out of
/// scatter + enclosed ring must leave exactly scatter + tuned ring — the
/// same halves, in the same order, on every rank (phase labels aside).
/// Returns the pruned schedule's message count, or the first rank and step
/// where the two differ. Meaningful only when every chunk is non-empty
/// (see [`prune_redundant`]).
pub fn pruned_native_is_tuned(p: usize, nbytes: usize, root: Rank) -> Result<u64, String> {
    use bcast_core::bcast::{bcast_schedule, Algorithm};
    let pruned = prune_redundant(&bcast_schedule(Algorithm::ScatterRingNative, p, nbytes, root));
    let tuned = bcast_schedule(Algorithm::ScatterRingTuned, p, nbytes, root);
    for (rank, (got, want)) in pruned.ranks.iter().zip(&tuned.ranks).enumerate() {
        let halves = |ops: &[bcast_core::SchedOp]| {
            ops.iter().map(|op| (op.send.clone(), op.recv.clone())).collect::<Vec<_>>()
        };
        let (got, want) = (halves(&got.ops), halves(&want.ops));
        if got != want {
            let step = got.iter().zip(&want).position(|(g, w)| g != w).unwrap_or(0);
            return Err(format!(
                "P={p} nbytes={nbytes} root={root}: pruned native ring differs from the tuned \
                 ring on rank {rank} at step {step} ({} ops vs {})",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(pruned.planned_volume().0)
}

/// An in-flight (posted) send half.
struct PostedSend {
    id: u64,
    src: Rank,
    src_step: usize,
    len: usize,
    /// Completes the sender's op immediately (eager semantics).
    fire_and_forget: bool,
}

/// Mutable per-rank execution state.
struct RankState {
    pc: usize,
    /// Current op's send half has been posted.
    posted: bool,
    /// Current op's send half has completed (or there is none).
    send_done: bool,
    /// Current op's recv half has completed (or there is none).
    recv_done: bool,
    /// Id of the posted rendezvous send awaiting consumption.
    pending_send: Option<u64>,
    /// Byte validity of the tracked destination buffer.
    valid: Vec<bool>,
    traffic: RankTraffic,
}

impl RankState {
    fn reset_op(&mut self) {
        self.posted = false;
        self.send_done = false;
        self.recv_done = false;
        self.pending_send = None;
    }
}

/// Execute `schedule` abstractly under `semantics` and report every violation.
pub fn check(schedule: &Schedule, semantics: Semantics) -> Report {
    let p = schedule.p;
    let mut report = Report {
        name: schedule.name.clone(),
        p,
        semantics,
        errors: Vec::new(),
        traffic: vec![RankTraffic::default(); p],
        redundant_msgs: 0,
        redundant_bytes: 0,
        redundant_transfers: Vec::new(),
    };

    static_matching(schedule, &mut report.errors);

    let mut ranks: Vec<RankState> = schedule
        .ranks
        .iter()
        .map(|rs| {
            let mut valid = vec![false; rs.buf_len];
            for r in &rs.valid {
                valid[r.clone()].fill(true);
            }
            RankState {
                pc: 0,
                posted: false,
                send_done: false,
                recv_done: false,
                pending_send: None,
                valid,
                traffic: RankTraffic::default(),
            }
        })
        .collect();

    // FIFO channels of posted sends per (src, dst, tag); `consumed` marks
    // rendezvous sends whose receiver has taken them.
    let mut channels: HashMap<(Rank, Rank, Tag), VecDeque<PostedSend>> = HashMap::new();
    let mut consumed: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut next_id = 0u64;

    // Round-robin to fixpoint: each pass tries to advance every rank as far
    // as it can; stop when a full pass makes no progress.
    loop {
        let mut progressed = false;
        for rank in 0..p {
            while advance(
                schedule,
                rank,
                semantics,
                &mut ranks,
                &mut channels,
                &mut consumed,
                &mut next_id,
                &mut report,
            ) {
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Deadlock: unfinished ranks that can no longer advance.
    let stuck: Vec<Rank> = (0..p).filter(|&r| ranks[r].pc < schedule.ranks[r].ops.len()).collect();
    if !stuck.is_empty() {
        report.errors.push(describe_deadlock(schedule, &ranks, &stuck, &consumed));
    }

    // Orphans: posted sends nobody consumed.
    let mut orphans: Vec<&PostedSend> = channels.values().flatten().collect();
    orphans.sort_by_key(|o| (o.src, o.src_step));
    for o in orphans {
        report.errors.push(format!(
            "orphaned send: rank {} step {} ({}) was never received",
            o.src,
            o.src_step,
            schedule.ranks[o.src].ops[o.src_step].describe()
        ));
    }

    // Coverage: every required byte must be valid at the end.
    for (rank, state) in ranks.iter().enumerate() {
        for req in &schedule.ranks[rank].required {
            let mut missing: Option<(usize, usize)> = None;
            for b in req.clone() {
                if !state.valid[b] {
                    missing = Some(match missing {
                        None => (b, b + 1),
                        Some((s, _)) => (s, b + 1),
                    });
                }
            }
            if let Some((s, e)) = missing {
                report
                    .errors
                    .push(format!("coverage: rank {rank} required bytes {s}..{e} never written"));
            }
        }
    }

    for (slot, state) in report.traffic.iter_mut().zip(&ranks) {
        *slot = state.traffic;
    }
    report
}

/// Order-free matching census: per `(src, dst, tag)` channel the number of
/// send halves must equal the number of receive halves.
fn static_matching(schedule: &Schedule, errors: &mut Vec<String>) {
    let mut sends: BTreeMap<(Rank, Rank, u32), u64> = BTreeMap::new();
    let mut recvs: BTreeMap<(Rank, Rank, u32), u64> = BTreeMap::new();
    for (rank, rs) in schedule.ranks.iter().enumerate() {
        for op in &rs.ops {
            if let Some(s) = &op.send {
                *sends.entry((rank, s.peer, s.tag.0)).or_default() += 1;
            }
            if let Some(r) = &op.recv {
                *recvs.entry((r.peer, rank, r.tag.0)).or_default() += 1;
            }
        }
    }
    let keys: std::collections::BTreeSet<_> = sends.keys().chain(recvs.keys()).copied().collect();
    for key in keys {
        let (s, r) = (sends.get(&key).copied().unwrap_or(0), recvs.get(&key).copied().unwrap_or(0));
        if s != r {
            let (src, dst, tag) = key;
            errors.push(format!(
                "matching: channel rank {src} -> rank {dst} tag {tag:#x} has {s} send(s) but {r} recv(s)"
            ));
        }
    }
}

/// Try to make one step of progress on `rank`; returns whether anything moved.
#[allow(clippy::too_many_arguments)]
fn advance(
    schedule: &Schedule,
    rank: Rank,
    semantics: Semantics,
    ranks: &mut [RankState],
    channels: &mut HashMap<(Rank, Rank, Tag), VecDeque<PostedSend>>,
    consumed: &mut std::collections::HashSet<u64>,
    next_id: &mut u64,
    report: &mut Report,
) -> bool {
    let rs = &schedule.ranks[rank];
    if ranks[rank].pc >= rs.ops.len() {
        return false;
    }
    let step = ranks[rank].pc;
    let op = &rs.ops[step];
    let mut moved = false;

    // Post the send half (once), checking source validity.
    if !ranks[rank].posted {
        ranks[rank].posted = true;
        moved = true;
        match &op.send {
            None => ranks[rank].send_done = true,
            Some(s) => {
                if let Some(b) = s.loc.clone().find(|&b| !ranks[rank].valid[b]) {
                    report.errors.push(format!(
                        "invalid-send: rank {rank} step {step} sends byte {b} before it is valid ({})",
                        op.describe()
                    ));
                }
                let id = *next_id;
                *next_id += 1;
                let fire_and_forget = semantics == Semantics::Eager;
                channels.entry((rank, s.peer, s.tag)).or_default().push_back(PostedSend {
                    id,
                    src: rank,
                    src_step: step,
                    len: s.loc.len(),
                    fire_and_forget,
                });
                ranks[rank].traffic.msgs_sent += 1;
                ranks[rank].traffic.bytes_sent += s.loc.len() as u64;
                if fire_and_forget {
                    ranks[rank].send_done = true;
                } else {
                    ranks[rank].pending_send = Some(id);
                }
            }
        }
        if op.recv.is_none() {
            ranks[rank].recv_done = true;
        }
    }

    // Try to complete the recv half.
    if !ranks[rank].recv_done {
        let r = op.recv.as_ref().expect("recv_done is false only with a recv half");
        let key = (r.peer, rank, r.tag);
        if let Some(queue) = channels.get_mut(&key) {
            if let Some(msg) = queue.pop_front() {
                if !msg.fire_and_forget {
                    consumed.insert(msg.id);
                }
                if msg.len > r.dst.len() {
                    report.errors.push(format!(
                        "overflow: rank {rank} step {step} receives {}B into capacity {}B ({})",
                        msg.len,
                        r.dst.len(),
                        op.describe()
                    ));
                }
                let range = &r.dst;
                let end = (range.start + msg.len).min(range.end).min(ranks[rank].valid.len());
                let written = range.start..end;
                if written.clone().all(|b| ranks[rank].valid[b]) {
                    report.redundant_msgs += u64::from(!written.is_empty());
                    report.redundant_transfers.push(Transfer {
                        src: msg.src,
                        src_step: msg.src_step,
                        dst: rank,
                        dst_step: step,
                    });
                }
                for b in written {
                    if ranks[rank].valid[b] {
                        report.redundant_bytes += 1;
                    } else {
                        ranks[rank].valid[b] = true;
                    }
                }
                ranks[rank].traffic.msgs_recvd += 1;
                ranks[rank].traffic.bytes_recvd += msg.len as u64;
                ranks[rank].recv_done = true;
                moved = true;
                if queue.is_empty() {
                    channels.remove(&key);
                }
            }
        }
    }

    // A rendezvous send completes when the receiver consumes it.
    if !ranks[rank].send_done {
        if let Some(id) = ranks[rank].pending_send {
            if consumed.remove(&id) {
                ranks[rank].send_done = true;
                ranks[rank].pending_send = None;
                moved = true;
            }
        }
    }

    if ranks[rank].send_done && ranks[rank].recv_done {
        ranks[rank].pc += 1;
        ranks[rank].reset_op();
        return true;
    }
    moved
}

/// Describe the stuck state: walk the wait-for graph from the lowest stuck
/// rank; either a cycle (true deadlock) or a chain ending at a terminated
/// peer (unmatched operation).
fn describe_deadlock(
    schedule: &Schedule,
    ranks: &[RankState],
    stuck: &[Rank],
    _consumed: &std::collections::HashSet<u64>,
) -> String {
    // Each stuck rank waits on exactly one peer per incomplete half; prefer
    // the recv's peer (waiting for data), else the send's peer (waiting for
    // a rendezvous consumer).
    let waits_on = |r: Rank| -> Option<(Rank, String)> {
        let st = &ranks[r];
        let op = &schedule.ranks[r].ops[st.pc];
        let desc = format!("rank {} step {} {}", r, st.pc, op.describe());
        if !st.recv_done {
            if let Some(recv) = &op.recv {
                return Some((recv.peer, desc));
            }
        }
        if !st.send_done {
            if let Some(send) = &op.send {
                return Some((send.peer, desc));
            }
        }
        None
    };

    let is_stuck = |r: Rank| stuck.contains(&r);
    let start = stuck[0];
    let mut chain: Vec<Rank> = vec![start];
    let mut lines: Vec<String> = Vec::new();
    let mut cur = start;
    loop {
        let Some((peer, desc)) = waits_on(cur) else {
            lines.push(format!("rank {cur} stuck with no pending half (internal error)"));
            break;
        };
        lines.push(format!("{desc} waits on rank {peer}"));
        if !is_stuck(peer) {
            lines.push(format!(
                "rank {peer} has terminated: the operation above can never complete"
            ));
            break;
        }
        if let Some(pos) = chain.iter().position(|&c| c == peer) {
            let cycle: Vec<String> = chain[pos..].iter().map(|c| format!("rank {c}")).collect();
            lines.push(format!("cycle: {} -> rank {peer}", cycle.join(" -> ")));
            break;
        }
        chain.push(peer);
        cur = peer;
    }
    format!("deadlock ({} of {} ranks stuck): {}", stuck.len(), schedule.p, lines.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::Tag;

    fn two_rank_ping() -> Schedule {
        let mut s = Schedule::new("ping", 2, 4);
        s.ranks[0].mark_valid(0..4);
        s.ranks[0].send("x", 1, Tag(1), 0..4);
        s.ranks[1].recv("x", 0, Tag(1), 0..4);
        s.ranks[1].require(0..4);
        s
    }

    #[test]
    fn clean_ping_passes_both_semantics() {
        for sem in Semantics::ALL {
            let r = check(&two_rank_ping(), sem);
            assert!(r.is_clean(), "{sem}: {:?}", r.errors);
            assert_eq!((r.traffic[0].msgs_sent, r.traffic[0].bytes_sent), (1, 4));
            assert_eq!(r.traffic[1].bytes_recvd, 4);
        }
    }

    #[test]
    fn head_to_head_blocking_sends_deadlock_only_under_rendezvous() {
        // rank 0: send then recv; rank 1: send then recv — classic unsafe
        // exchange: fine if the transport buffers, deadlock if not.
        let mut s = Schedule::new("unsafe-exchange", 2, 1);
        s.ranks[0].mark_valid(0..1);
        s.ranks[1].mark_valid(0..1);
        s.ranks[0].send("x", 1, Tag(1), 0..1);
        s.ranks[0].recv("x", 1, Tag(1), 0..1);
        s.ranks[1].send("x", 0, Tag(1), 0..1);
        s.ranks[1].recv("x", 0, Tag(1), 0..1);
        assert!(check(&s, Semantics::Eager).is_clean());
        let r = check(&s, Semantics::Rendezvous);
        assert!(!r.is_clean());
        assert!(
            r.errors[0].contains("deadlock") && r.errors[0].contains("cycle"),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn sendrecv_exchange_is_safe_under_rendezvous() {
        let mut s = Schedule::new("exchange", 2, 2);
        s.ranks[0].mark_valid(0..1);
        s.ranks[1].mark_valid(1..2);
        s.ranks[0].sendrecv("x", 1, Tag(1), 0..1, 1, Tag(1), 1..2);
        s.ranks[1].sendrecv("x", 0, Tag(1), 1..2, 0, Tag(1), 0..1);
        assert!(check(&s, Semantics::Rendezvous).is_clean());
    }

    #[test]
    fn orphaned_send_is_reported_with_rank_and_step() {
        let mut s = Schedule::new("orphan", 2, 8);
        s.ranks[0].mark_valid(0..8);
        s.ranks[0].send("x", 1, Tag(1), 0..8);
        let r = check(&s, Semantics::Eager);
        assert!(r.errors.iter().any(|e| e.contains("matching")), "{:?}", r.errors);
        assert!(
            r.errors.iter().any(|e| e.contains("orphaned send") && e.contains("rank 0 step 0")),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn unmatched_recv_names_the_terminated_peer() {
        let mut s = Schedule::new("norecv", 2, 8);
        s.ranks[1].recv("x", 0, Tag(1), 0..8);
        let r = check(&s, Semantics::Eager);
        assert!(
            r.errors.iter().any(|e| e.contains("deadlock") && e.contains("terminated")),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn overflow_and_invalid_send_are_reported() {
        let mut s = Schedule::new("bad", 2, 4);
        // rank 0 sends 4 bytes it never received
        s.ranks[0].send("x", 1, Tag(1), 0..4);
        s.ranks[1].recv("x", 0, Tag(1), 0..2); // capacity 2 < 4
        let r = check(&s, Semantics::Eager);
        assert!(r.errors.iter().any(|e| e.contains("invalid-send") && e.contains("rank 0 step 0")));
        assert!(r.errors.iter().any(|e| e.contains("overflow") && e.contains("rank 1 step 0")));
    }

    #[test]
    fn missing_coverage_is_reported() {
        let mut s = Schedule::new("gap", 2, 8);
        s.ranks[0].mark_valid(0..8);
        s.ranks[0].send("x", 1, Tag(1), 0..4);
        s.ranks[1].recv("x", 0, Tag(1), 0..4);
        s.ranks[1].require(0..8); // bytes 4..8 never arrive
        let r = check(&s, Semantics::Eager);
        assert!(
            r.errors.iter().any(|e| e.contains("coverage") && e.contains("rank 1")),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn redundant_rewrites_are_counted_not_flagged() {
        let mut s = Schedule::new("dup", 2, 4);
        s.ranks[0].mark_valid(0..4);
        s.ranks[1].mark_valid(0..4); // receiver already has the bytes
        s.ranks[0].send("x", 1, Tag(1), 0..4);
        s.ranks[1].recv("x", 0, Tag(1), 0..4);
        let r = check(&s, Semantics::Eager);
        assert!(r.is_clean(), "{:?}", r.errors);
        assert_eq!(r.redundant_msgs, 1);
        assert_eq!(r.redundant_bytes, 4);
    }

    #[test]
    fn prune_drops_redundant_halves_and_keeps_the_rest() {
        // Rank 0 exchanges with rank 1; rank 1 already holds what it is sent,
        // rank 0 does not: the sendrecvs degrade to a lone recv / lone send.
        let mut s = Schedule::new("half", 2, 8);
        s.ranks[0].mark_valid(0..4);
        s.ranks[1].mark_valid(0..8);
        s.ranks[0].sendrecv("x", 1, Tag(1), 0..4, 1, Tag(1), 4..8);
        s.ranks[1].sendrecv("x", 0, Tag(1), 4..8, 0, Tag(1), 0..4);
        let pruned = prune_redundant(&s);
        assert_eq!(pruned.planned_volume(), (1, 4));
        assert!(pruned.ranks[0].ops[0].send.is_none() && pruned.ranks[0].ops[0].recv.is_some());
        assert!(pruned.ranks[1].ops[0].send.is_some() && pruned.ranks[1].ops[0].recv.is_none());
        assert!(check(&pruned, Semantics::Rendezvous).is_clean());
    }

    #[test]
    fn pruning_the_native_ring_derives_the_tuned_ring() {
        use bcast_core::traffic::{scatter_msgs, tuned_ring_msgs};
        // The paper's table, derived rather than asserted: 56 → 44, 90 → 75.
        assert_eq!(pruned_native_is_tuned(8, 64, 0), Ok(7 + 44));
        assert_eq!(pruned_native_is_tuned(10, 80, 0), Ok(9 + 75));
        for p in 2..=64usize {
            // Even chunks, and a ragged but non-empty last chunk.
            for nbytes in [4 * p, 4 * p - 1] {
                let roots = if p <= 16 { 0..p } else { 0..1 };
                for root in roots {
                    let msgs = pruned_native_is_tuned(p, nbytes, root).unwrap();
                    assert_eq!(msgs, scatter_msgs(nbytes, p) + tuned_ring_msgs(p), "P={p}");
                }
            }
        }
        // The redundancy exists only in the broadcast context. The *same*
        // `native_ring_ops` stream run as a standalone allgather — every rank
        // enters holding exactly its own block — re-delivers nothing; after
        // `scatter_ops` it re-delivers the 12 and 15 transfers pruned above.
        use bcast_core::allgather::AllgatherAlgorithm;
        use bcast_core::bcast::bcast_schedule;
        for (p, redundant) in [(8usize, 12usize), (10, 15)] {
            let standalone = Collective::Allgather(AllgatherAlgorithm::Ring).schedule(p, 8, 0);
            assert!(check(&standalone, Semantics::Eager).redundant_transfers.is_empty(), "P={p}");
            let bcast = bcast_schedule(bcast_core::Algorithm::ScatterRingNative, p, 8 * p, 0);
            assert_eq!(check(&bcast, Semantics::Eager).redundant_transfers.len(), redundant);
        }
    }

    #[test]
    fn reconcile_coalesced_runs_against_their_schedule() {
        use bcast_core::{bcast_event_world, bcast_opt_coalesced_async, CoalescePolicy};
        use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld};
        use netsim::{NetworkModel, Placement, SimWorld};

        // Every send half of the coalesced stream is one message, so the
        // run reconciles exactly — on all three executors, under policies
        // that merge tails (unlimited) and split chunks (per_chunk, capped).
        let policies =
            [CoalescePolicy::unlimited(), CoalescePolicy::per_chunk(3), CoalescePolicy::new(4, 24)];
        for (p, nbytes) in [(8usize, 128usize), (10, 97)] {
            let src: Vec<u8> = (0..nbytes).map(|i| (i % 251) as u8).collect();
            for policy in policies {
                let sched = Collective::Coalesced(policy).schedule(p, nbytes, 0);
                let what = format!("P={p} {policy:?}");
                let bcast = |comm: &dyn Communicator| {
                    let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
                    complete_now(bcast_opt_coalesced_async(
                        &SyncComm::new(comm),
                        &mut buf,
                        0,
                        &policy,
                    ))
                    .unwrap();
                    assert_eq!(buf, src, "{what}");
                };
                let threads = ThreadWorld::run(p, |comm| bcast(comm));
                let mut eager = NetworkModel::uniform(10.0, 1.0);
                eager.eager_threshold = usize::MAX;
                let sim = SimWorld::run(eager, Placement::new(4), p, |comm| bcast(comm));
                let event = bcast_event_world(p, nbytes, 0, Collective::Coalesced(policy));
                for (executor, traffic) in [
                    ("threads", &threads.traffic),
                    ("sim", &sim.traffic),
                    ("event", &event.traffic),
                ] {
                    let rec = reconcile_traffic(&sched, traffic);
                    assert!(rec.is_clean(), "{what} {executor}: {:?}", rec.errors);
                }
            }
            // The unlimited plan is the closed form: 38 + 7 at P = 8, 66 + 9
            // at P = 10.
            let sched = Collective::Coalesced(CoalescePolicy::unlimited()).schedule(p, nbytes, 0);
            let scatter = bcast_core::traffic::scatter_msgs(nbytes, p);
            assert_eq!(sched.planned_volume().0, bcast_core::coalesced_envelope_count(p) + scatter);
        }
    }

    #[test]
    fn reconcile_event_world_runs_against_schedules() {
        use bcast_core::bcast::bcast_schedule;
        use bcast_core::{bcast_event_world, Algorithm};

        for p in [8usize, 10] {
            let nbytes = 16 * p;
            for algorithm in [Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned] {
                let sched = bcast_schedule(algorithm, p, nbytes, 0);
                let out = bcast_event_world(p, nbytes, 0, algorithm);
                let rec = reconcile_traffic(&sched, &out.traffic);
                assert!(rec.is_clean(), "{algorithm:?} P={p}: {:?}", rec.errors);
                assert_eq!(rec.executed_msgs, rec.planned_msgs);
            }
        }
    }

    #[test]
    fn reconcile_rejects_mismatched_algorithm() {
        use bcast_core::bcast::bcast_schedule;
        use bcast_core::{bcast_with, Algorithm};
        use mpsim::{Communicator, ThreadWorld};

        let p = 8;
        let nbytes = 16 * p;
        let tuned = bcast_schedule(Algorithm::ScatterRingTuned, p, nbytes, 0);
        let src: Vec<u8> = (0..nbytes).map(|i| (i % 13) as u8).collect();
        let msg = src.clone();
        let out = ThreadWorld::run(p, move |comm| {
            let mut buf = if comm.rank() == 0 { msg.clone() } else { vec![0u8; msg.len()] };
            bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingNative).unwrap();
            buf
        });
        // The native (enclosed) ring moves more bytes and more messages than
        // the tuned IR plans — both violations must surface.
        let rec = reconcile_traffic(&tuned, &out.traffic);
        assert!(!rec.is_clean());
        assert!(rec.errors.iter().any(|e| e.starts_with("bytes:")), "{:?}", rec.errors);
        assert!(rec.errors.iter().any(|e| e.starts_with("messages:")), "{:?}", rec.errors);

        // Against its own IR the native run reconciles cleanly.
        let native = bcast_schedule(Algorithm::ScatterRingNative, p, nbytes, 0);
        let rec = reconcile_traffic(&native, &out.traffic);
        assert!(rec.is_clean(), "{:?}", rec.errors);
    }

    #[test]
    fn reconcile_flags_copy_regressions() {
        use bcast_core::bcast::bcast_schedule;
        use bcast_core::{bcast_binomial_copy_async, bcast_with, Algorithm};
        use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld};

        let p = 8;
        let nbytes = 128;
        let sched = bcast_schedule(Algorithm::Binomial, p, nbytes, 0);
        let src: Vec<u8> = (0..nbytes).map(|i| (i % 7) as u8).collect();

        // The zero-copy walk stays within the nbytes/rank budget…
        let msg = src.clone();
        let out = ThreadWorld::run(p, move |comm| {
            let mut buf = if comm.rank() == 0 { msg.clone() } else { vec![0u8; msg.len()] };
            bcast_with(comm, &mut buf, 0, Algorithm::Binomial).unwrap();
        });
        let rec = reconcile_traffic(&sched, &out.traffic);
        assert!(rec.is_clean(), "{:?}", rec.errors);
        assert!(rec.executed_bytes_copied > 0);

        // …while the per-hop copy baseline blows it on the root (a copy-in
        // per child send) with byte-identical wire traffic.
        let msg = src.clone();
        let out = ThreadWorld::run(p, move |comm| {
            let mut buf = if comm.rank() == 0 { msg.clone() } else { vec![0u8; msg.len()] };
            complete_now(bcast_binomial_copy_async(&SyncComm::new(comm), &mut buf, 0)).unwrap();
        });
        let rec = reconcile_traffic(&sched, &out.traffic);
        assert!(rec.errors.iter().any(|e| e.starts_with("copies:")), "{:?}", rec.errors);
        assert_eq!(rec.executed_bytes, rec.planned_bytes, "wire traffic must still match");
    }

    #[test]
    fn reconcile_flags_world_size_mismatch() {
        let sched = two_rank_ping();
        let traffic = mpsim::WorldTraffic::new(vec![Default::default(); 3]);
        let rec = reconcile_traffic(&sched, &traffic);
        assert!(rec.errors.iter().any(|e| e.starts_with("world-size:")), "{:?}", rec.errors);
    }

    #[test]
    fn fifo_per_channel_is_respected() {
        // Two messages on one channel; capacities distinguish them: if the
        // second overtook the first, the 8B message would overflow cap 4.
        let mut s = Schedule::new("fifo", 2, 12);
        s.ranks[0].mark_valid(0..12);
        s.ranks[0].send("x", 1, Tag(1), 0..4);
        s.ranks[0].send("x", 1, Tag(1), 4..12);
        s.ranks[1].recv("x", 0, Tag(1), 0..4);
        s.ranks[1].recv("x", 0, Tag(1), 4..12);
        for sem in Semantics::ALL {
            assert!(check(&s, sem).is_clean());
        }
    }
}
