//! Interleaving exploration for small concurrent protocols — an in-tree,
//! zero-dependency take on loom-style model checking, in two gears.
//!
//! A [`Model`] describes a handful of threads, each a deterministic program
//! whose only nondeterminism is the scheduler: in any state, any enabled
//! thread may take the next atomic step.
//!
//! * [`explore`] enumerates *every* reachable interleaving by depth-first
//!   search with visited-state deduplication, checking a safety invariant
//!   in every state, detecting deadlocks (no thread enabled, not all done),
//!   and validating an acceptance predicate in every terminal state.
//! * [`explore_dpor`] is a sleep-set dynamic partial-order-reduction
//!   explorer (Flanagan–Godefroid backtrack sets plus Godefroid sleep sets)
//!   with state hashing. Dependence between transitions is decided
//!   *dynamically* by a commutation probe — two enabled steps are
//!   independent exactly when executing them in either order reaches the
//!   same state and neither disables the other — so no model has to
//!   declare a dependency relation. A wake that enables a parked thread is
//!   conservatively dependent (the probe sees the enabledness change),
//!   which is precisely what preserves every deadlock. Subtrees already
//!   fully explored from a state under an equal-or-smaller sleep set are
//!   pruned via a hash cache; on such a prune, every thread that executed
//!   anywhere in the cached subtree is conservatively re-raised as a
//!   backtrack point along the whole current stack, which keeps the
//!   cross-prefix races the cache would otherwise hide.
//!
//! DPOR visits a (often dramatically) smaller set of states and makes the
//! reactor protocol models tractable; the exhaustive mode stays as the
//! differential oracle — `explore_reactor_ci` in the `schedcheck` binary
//! and the `dpor_differential` integration test run both on every model
//! and demand identical verdicts.
//!
//! The protocols under test ([`crate::models`]) call the *same* decision
//! functions ([`mpsim::proto`], `mpsim::event_mailbox::bucket_route`,
//! `mpsim::event_timer`) the deployed runtime executes, so a verdict here
//! speaks about the shipped code's protocol, not a transcription.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

/// Outcome of offering a step to one thread.
pub enum Step<S> {
    /// The thread cannot move in this state (parked without a token,
    /// waiting on a lock, …). Not an error: some other thread must move.
    Blocked,
    /// The thread took one atomic step, yielding a successor state.
    Next(S),
}

/// A small concurrent protocol with a finite, enumerable state space.
pub trait Model {
    /// Global protocol state: shared memory plus every thread's location.
    type State: Clone + Hash + Eq + Debug;

    /// Initial state.
    fn initial(&self) -> Self::State;

    /// Number of threads.
    fn threads(&self) -> usize;

    /// Whether thread `tid` has run to completion in `s`.
    fn is_done(&self, s: &Self::State, tid: usize) -> bool;

    /// Offer thread `tid` one atomic step from `s`. Must be deterministic:
    /// all nondeterminism belongs to the scheduler choice of `tid`.
    fn step(&self, s: &Self::State, tid: usize) -> Step<Self::State>;

    /// Safety invariant, checked in every reachable state.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;

    /// Terminal-state acceptance, checked whenever every thread is done.
    fn accept(&self, s: &Self::State) -> Result<(), String>;
}

/// Exploration statistics of a successful run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (including ones leading to already-visited states).
    pub transitions: usize,
    /// Terminal states reached.
    pub terminals: usize,
}

/// Hard cap on distinct states; exceeding it is an error (the model is not
/// as finite as believed), never a silent truncation.
pub const DEFAULT_MAX_STATES: usize = 1 << 20;

/// Exhaustively explore every interleaving of `model`.
///
/// Returns statistics on success; on failure returns a description of the
/// violated property together with the offending state. A `max_states`
/// overflow reports the partial [`Stats`] (states visited, transitions,
/// frontier depth) so the caller can see how far the search got.
pub fn explore<M: Model>(model: &M, max_states: usize) -> Result<Stats, String> {
    let mut stats = Stats::default();
    let mut seen: HashSet<M::State> = HashSet::new();
    let mut stack: Vec<M::State> = Vec::new();

    let initial = model.initial();
    seen.insert(initial.clone());
    stack.push(initial);
    stats.states = 1;

    while let Some(state) = stack.pop() {
        model
            .invariant(&state)
            .map_err(|e| format!("invariant violated: {e}\nstate: {state:?}"))?;

        let mut any_enabled = false;
        let mut all_done = true;
        for tid in 0..model.threads() {
            if model.is_done(&state, tid) {
                continue;
            }
            all_done = false;
            match model.step(&state, tid) {
                Step::Blocked => {}
                Step::Next(next) => {
                    any_enabled = true;
                    stats.transitions += 1;
                    if seen.insert(next.clone()) {
                        stats.states += 1;
                        if stats.states > max_states {
                            return Err(cap_error(max_states, &stats, stack.len() + 1));
                        }
                        stack.push(next);
                    }
                }
            }
        }

        if all_done {
            stats.terminals += 1;
            model
                .accept(&state)
                .map_err(|e| format!("terminal state rejected: {e}\nstate: {state:?}"))?;
        } else if !any_enabled {
            let blocked: Vec<usize> =
                (0..model.threads()).filter(|&t| !model.is_done(&state, t)).collect();
            return Err(format!(
                "deadlock: threads {blocked:?} blocked with no enabled step\nstate: {state:?}"
            ));
        }
    }
    Ok(stats)
}

/// The `max_states` error, carrying the partial [`Stats`] instead of
/// discarding them: how far the search got is exactly what one needs to
/// decide whether the model is unbounded or the budget merely too small.
fn cap_error(max_states: usize, stats: &Stats, frontier_depth: usize) -> String {
    format!(
        "state-space cap exceeded ({max_states} states): model is not finite enough \
         (visited {} states, {} transitions, frontier depth {frontier_depth})",
        stats.states, stats.transitions
    )
}

/// Iterate the set bits of a `u64` thread mask as thread ids.
fn bits(mask: u64) -> impl Iterator<Item = usize> {
    std::iter::successors((mask != 0).then_some(mask), |&m| {
        let m = m & (m - 1);
        (m != 0).then_some(m)
    })
    .map(|m| m.trailing_zeros() as usize)
}

/// One DFS frame of the DPOR search: a state, its per-thread successors,
/// and the Flanagan–Godefroid bookkeeping (backtrack, explored, sleep sets
/// as thread bitmasks).
struct DporFrame<S> {
    state: S,
    /// `succ[t]` = state after thread `t` steps, for enabled `t`.
    succ: Vec<Option<S>>,
    /// Enabled threads at `state`.
    enabled: u64,
    /// Sleep set on entry: threads whose subtrees are covered elsewhere.
    sleep: u64,
    /// Threads requested for exploration from this state.
    backtrack: u64,
    /// Threads already executed from this state.
    explored: u64,
    /// The arm currently being explored (the transition that produced the
    /// frame above this one).
    chosen: Option<usize>,
    /// Threads that executed anywhere in this frame's (partial) subtree.
    subtree: u64,
}

/// Do thread `p`'s and thread `q`'s current steps commute at `state`?
/// Both must be enabled (`succ_*` are their successors); they are
/// independent iff each stays enabled after the other and both orders land
/// in the same state. Any disagreement — including one disabling the other,
/// i.e. every wake/park interaction — is conservatively dependent.
fn commutes<M: Model>(model: &M, succ_p: &M::State, succ_q: &M::State, p: usize, q: usize) -> bool {
    let Step::Next(pq) = model.step(succ_p, q) else { return false };
    let Step::Next(qp) = model.step(succ_q, p) else { return false };
    pq == qp
}

/// Explore `model` with sleep-set DPOR; same verdict contract as
/// [`explore`] (same error prefixes, same `max_states` semantics over
/// *distinct hashed states*), typically visiting far fewer states.
///
/// Soundness notes, in this repo's terms: deadlocks and terminal verdicts
/// are preserved because the commutation probe over-approximates dependence
/// (anything that changes another thread's enabledness or does not commute
/// is dependent, and a same-thread pair always is). Invariants are checked
/// on every state this search reaches; the exhaustive oracle — kept
/// deliberately, and run against this explorer in CI — covers the
/// interleaving-interior states a reduction is allowed to skip. Supports at
/// most 64 threads (thread sets are bitmasks).
pub fn explore_dpor<M: Model>(model: &M, max_states: usize) -> Result<Stats, String> {
    let nt = model.threads();
    assert!(nt <= 64, "explore_dpor supports at most 64 threads");

    let mut stats = Stats::default();
    // Distinct states reached (the `states` stat and the cap), NOT a prune
    // set: DPOR must re-enter a state arrived at with a smaller sleep set.
    let mut seen: HashSet<M::State> = HashSet::new();
    // Fully explored subtrees: state -> (sleep set it was explored under,
    // threads that executed anywhere below). A later arrival with a sleep
    // superset is covered by the cached subtree.
    let mut done: HashMap<M::State, Vec<(u64, u64)>> = HashMap::new();
    let mut frames: Vec<DporFrame<M::State>> = Vec::new();
    // Transition guard: DPOR is stateless over traces, so a model whose
    // reduced trace tree dwarfs its state graph must fail loudly, not hang.
    let max_transitions = max_states.saturating_mul(64);

    // Arrive at `state` (reached under `sleep`); either push a frame or
    // resolve it as a leaf (terminal / covered / pruned), crediting the
    // parent's subtree. Returns Err on a property violation.
    #[allow(clippy::too_many_arguments)] // local fn threading the search's whole mutable context
    fn arrive<M: Model>(
        model: &M,
        frames: &mut Vec<DporFrame<M::State>>,
        seen: &mut HashSet<M::State>,
        done: &mut HashMap<M::State, Vec<(u64, u64)>>,
        stats: &mut Stats,
        max_states: usize,
        state: M::State,
        sleep: u64,
    ) -> Result<(), String> {
        let nt = model.threads();
        // Credit the parent for this arm plus a covered subtree's threads.
        fn leaf(frames: &mut [DporFrame<impl Clone>], extra: u64) {
            if let Some(parent) = frames.last_mut() {
                if let Some(arm) = parent.chosen.take() {
                    parent.subtree |= (1u64 << arm) | extra;
                }
            }
        }

        if seen.insert(state.clone()) {
            stats.states += 1;
            if stats.states > max_states {
                return Err(cap_error(max_states, stats, frames.len() + 1));
            }
            model
                .invariant(&state)
                .map_err(|e| format!("invariant violated: {e}\nstate: {state:?}"))?;
        }

        let mut succ: Vec<Option<M::State>> = vec![None; nt];
        let mut enabled = 0u64;
        let mut live = 0u64;
        for (t, slot) in succ.iter_mut().enumerate() {
            if model.is_done(&state, t) {
                continue;
            }
            live |= 1u64 << t;
            if let Step::Next(n) = model.step(&state, t) {
                *slot = Some(n);
                enabled |= 1u64 << t;
            }
        }
        let all_done = live == 0;

        if all_done {
            stats.terminals += 1;
            model
                .accept(&state)
                .map_err(|e| format!("terminal state rejected: {e}\nstate: {state:?}"))?;
            leaf(frames, 0);
            return Ok(());
        }
        if enabled == 0 {
            let blocked: Vec<usize> = (0..nt).filter(|&t| !model.is_done(&state, t)).collect();
            return Err(format!(
                "deadlock: threads {blocked:?} blocked with no enabled step\nstate: {state:?}"
            ));
        }

        // Flanagan–Godefroid backtrack propagation: for every *live* thread
        // `p` — enabled or currently blocked; classical DPOR scans disabled
        // processes too, and that is load-bearing — walk the stack top-down
        // for the last transition dependent with `p`'s pending step and
        // request a reversal there. The scan examines the suffix since `p`
        // last executed (a frame whose chosen thread *is* `p` ends it:
        // same-thread pairs are always dependent, and `p`'s program counter
        // is constant above that point), classifying each frame `j` with
        // chosen thread `q` by what `q` did to `p`:
        //
        // * `p` enabled before and after `q`: run the commutation probe;
        //   a refuted swap is a race — request `p` at `j` and stop.
        // * `q` flipped `p`'s enabledness: dependent by definition. If `p`
        //   was enabled at `j` (q *disabled* it — an acquire stealing the
        //   lock `p` wanted), request `p` there; if `p` was disabled (q
        //   *enabled* it — a release/wake), `p` cannot run at `j`, so
        //   request everything enabled there, the classical fallback.
        //   Stop either way: the flip happened at `j`, and any deeper race
        //   was recorded by the arrival scans below (each arrival scans
        //   every live thread, so no flip goes unexamined).
        // * `p` disabled on both sides of `q`: `q` provably did not touch
        //   `p`'s enabledness; keep scanning for the frame that parked `p`.
        //
        // The scan runs on *every* arrival — including ones about to be
        // pruned by the subtree cache or the sleep set below — so a pruned
        // node still publishes its pending races against the current
        // (possibly different) prefix before vanishing. That is what keeps
        // the cache sound: the threads a cached subtree executed are a
        // subset of the live threads here, and their first steps in the
        // subtree are exactly the pending steps this scan races.
        let top = frames.len();
        for p in bits(live) {
            for j in (0..top).rev() {
                // Every stack frame below an arrival has a chosen arm.
                let q = frames[j].chosen.expect("stack frame without a chosen arm");
                if q == p {
                    frames[j].backtrack |= 1u64 << p;
                    break;
                }
                let en_before = frames[j].enabled & (1u64 << p) != 0;
                let en_after =
                    if j + 1 < top { frames[j + 1].enabled } else { enabled } & (1u64 << p) != 0;
                match (en_before, en_after) {
                    (false, false) => continue,
                    (true, false) => {
                        frames[j].backtrack |= 1u64 << p;
                        break;
                    }
                    (false, true) => {
                        frames[j].backtrack |= frames[j].enabled;
                        break;
                    }
                    (true, true) => {
                        let dependent = !commutes(
                            model,
                            frames[j].succ[p].as_ref().expect("enabled thread has a successor"),
                            if j + 1 < top { &frames[j + 1].state } else { &state },
                            p,
                            q,
                        );
                        if dependent {
                            frames[j].backtrack |= 1u64 << p;
                            break;
                        }
                    }
                }
            }
        }

        // Covered by an already-explored subtree under a smaller-or-equal
        // sleep set? Prune; the scan above already raced every live
        // thread's pending step against the current prefix.
        if let Some(entries) = done.get(&state) {
            if let Some(&(_, tids)) = entries.iter().find(|&&(z, _)| z & !sleep == 0) {
                leaf(frames, tids);
                return Ok(());
            }
        }

        // Revisit of a state still on the stack (a cycle): prune with a
        // full conservative flood. Finite acyclic models never hit this;
        // it exists so a cyclic model terminates instead of diverging.
        if frames.iter().any(|f| f.state == state) {
            for f in frames.iter_mut() {
                f.backtrack |= f.enabled;
            }
            leaf(frames, if nt == 64 { u64::MAX } else { (1u64 << nt) - 1 });
            return Ok(());
        }

        // Every enabled thread is asleep: the whole subtree is covered by
        // siblings already explored from an ancestor.
        if enabled & !sleep == 0 {
            leaf(frames, 0);
            return Ok(());
        }

        // Seed with one awake enabled thread; dependency analysis from the
        // subtree will request the rest as needed.
        let seedable = enabled & !sleep;
        let seed = seedable.trailing_zeros() as usize;
        frames.push(DporFrame {
            state,
            succ,
            enabled,
            sleep,
            backtrack: 1u64 << seed,
            explored: 0,
            chosen: None,
            subtree: 0,
        });
        Ok(())
    }

    arrive(model, &mut frames, &mut seen, &mut done, &mut stats, max_states, model.initial(), 0)?;

    while let Some(top) = frames.last() {
        let avail = top.backtrack & !top.explored & !top.sleep;
        let Some(t) = bits(avail).next() else {
            // Frame fully explored: cache its subtree and credit the parent.
            // The loop guard just proved non-emptiness.
            let f = frames.pop().expect("non-empty stack");
            if f.explored != 0 {
                done.entry(f.state).or_default().push((f.sleep, f.subtree));
            }
            if let Some(parent) = frames.last_mut() {
                if let Some(arm) = parent.chosen.take() {
                    parent.subtree |= (1u64 << arm) | f.subtree;
                }
            }
            continue;
        };

        // Child sleep set: siblings already explored (and inherited
        // sleepers) stay asleep below `t` exactly when they commute with
        // `t` here — their reorderings with `t` are covered.
        let child = {
            let top = frames.last_mut().expect("non-empty stack");
            top.explored |= 1u64 << t;
            top.chosen = Some(t);
            top.succ[t].clone().expect("backtracked thread is enabled")
        };
        let top = frames.last().expect("non-empty stack");
        let mut sleep_next = 0u64;
        let candidates = (top.sleep | top.explored) & top.enabled & !(1u64 << t);
        for r in bits(candidates) {
            if commutes(
                model,
                top.succ[r].as_ref().expect("sleeping thread is enabled"),
                top.succ[t].as_ref().expect("chosen thread is enabled"),
                r,
                t,
            ) {
                sleep_next |= 1u64 << r;
            }
        }

        stats.transitions += 1;
        if stats.transitions > max_transitions {
            return Err(format!(
                "state-space cap exceeded (transition budget {max_transitions}): \
                 reduced trace tree is not finite enough \
                 (visited {} states, {} transitions, frontier depth {})",
                stats.states,
                stats.transitions,
                frames.len()
            ));
        }
        arrive(
            model,
            &mut frames,
            &mut seen,
            &mut done,
            &mut stats,
            max_states,
            child,
            sleep_next,
        )?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads increment a shared counter twice each with atomic
    /// fetch-add steps: no interleaving can lose an update.
    struct AtomicCounter;

    #[derive(Clone, Hash, PartialEq, Eq, Debug)]
    struct CState {
        counter: u8,
        remaining: [u8; 2],
    }

    impl Model for AtomicCounter {
        type State = CState;
        fn initial(&self) -> CState {
            CState { counter: 0, remaining: [2, 2] }
        }
        fn threads(&self) -> usize {
            2
        }
        fn is_done(&self, s: &CState, tid: usize) -> bool {
            s.remaining[tid] == 0
        }
        fn step(&self, s: &CState, tid: usize) -> Step<CState> {
            let mut n = s.clone();
            n.counter += 1;
            n.remaining[tid] -= 1;
            Step::Next(n)
        }
        fn invariant(&self, s: &CState) -> Result<(), String> {
            if s.counter <= 4 {
                Ok(())
            } else {
                Err(format!("counter overshot: {}", s.counter))
            }
        }
        fn accept(&self, s: &CState) -> Result<(), String> {
            if s.counter == 4 {
                Ok(())
            } else {
                Err(format!("lost update: counter {}", s.counter))
            }
        }
    }

    /// A torn read-modify-write (load and store as separate steps) CAN lose
    /// an update — the explorer must find the bad terminal state.
    struct TornCounter;

    #[derive(Clone, Hash, PartialEq, Eq, Debug)]
    struct TState {
        counter: u8,
        loaded: [Option<u8>; 2],
        remaining: [u8; 2],
    }

    impl Model for TornCounter {
        type State = TState;
        fn initial(&self) -> TState {
            TState { counter: 0, loaded: [None, None], remaining: [1, 1] }
        }
        fn threads(&self) -> usize {
            2
        }
        fn is_done(&self, s: &TState, tid: usize) -> bool {
            s.remaining[tid] == 0
        }
        fn step(&self, s: &TState, tid: usize) -> Step<TState> {
            let mut n = s.clone();
            match s.loaded[tid] {
                None => n.loaded[tid] = Some(s.counter),
                Some(v) => {
                    n.counter = v + 1;
                    n.loaded[tid] = None;
                    n.remaining[tid] -= 1;
                }
            }
            Step::Next(n)
        }
        fn invariant(&self, _s: &TState) -> Result<(), String> {
            Ok(())
        }
        fn accept(&self, s: &TState) -> Result<(), String> {
            if s.counter == 2 {
                Ok(())
            } else {
                Err(format!("lost update: counter {}", s.counter))
            }
        }
    }

    /// Two threads touching disjoint counters: everything commutes, so DPOR
    /// should explore essentially one interleaving.
    struct DisjointCounters;

    #[derive(Clone, Hash, PartialEq, Eq, Debug)]
    struct DState {
        counters: [u8; 2],
    }

    impl Model for DisjointCounters {
        type State = DState;
        fn initial(&self) -> DState {
            DState { counters: [0, 0] }
        }
        fn threads(&self) -> usize {
            2
        }
        fn is_done(&self, s: &DState, tid: usize) -> bool {
            s.counters[tid] == 3
        }
        fn step(&self, s: &DState, tid: usize) -> Step<DState> {
            let mut n = s.clone();
            n.counters[tid] += 1;
            Step::Next(n)
        }
        fn invariant(&self, _s: &DState) -> Result<(), String> {
            Ok(())
        }
        fn accept(&self, s: &DState) -> Result<(), String> {
            if s.counters == [3, 3] {
                Ok(())
            } else {
                Err(format!("bad terminal: {s:?}"))
            }
        }
    }

    #[test]
    fn atomic_counter_is_clean() {
        let stats = explore(&AtomicCounter, DEFAULT_MAX_STATES).unwrap();
        assert!(stats.states > 1 && stats.terminals >= 1);
    }

    #[test]
    fn torn_counter_race_is_found() {
        let err = explore(&TornCounter, DEFAULT_MAX_STATES).unwrap_err();
        assert!(err.contains("lost update"), "{err}");
    }

    #[test]
    fn state_cap_is_a_hard_error_with_partial_stats() {
        let err = explore(&AtomicCounter, 2).unwrap_err();
        assert!(err.contains("cap"), "{err}");
        assert!(err.contains("visited") && err.contains("frontier depth"), "{err}");
        let err = explore_dpor(&AtomicCounter, 2).unwrap_err();
        assert!(err.contains("cap"), "{err}");
        assert!(err.contains("visited") && err.contains("frontier depth"), "{err}");
    }

    #[test]
    fn dpor_matches_exhaustive_verdicts_on_the_counter_models() {
        let stats = explore_dpor(&AtomicCounter, DEFAULT_MAX_STATES).unwrap();
        assert!(stats.terminals >= 1);
        let err = explore_dpor(&TornCounter, DEFAULT_MAX_STATES).unwrap_err();
        assert!(err.contains("lost update"), "{err}");
    }

    #[test]
    fn dpor_collapses_independent_threads() {
        let full = explore(&DisjointCounters, DEFAULT_MAX_STATES).unwrap();
        let reduced = explore_dpor(&DisjointCounters, DEFAULT_MAX_STATES).unwrap();
        // Exhaustive walks the full 4x4 grid of counter values; DPOR needs
        // one maximal trace (plus sleep-set stubs), far fewer states.
        assert_eq!(full.states, 16);
        assert!(
            reduced.states < full.states / 2,
            "DPOR should collapse a fully independent model: {reduced:?} vs {full:?}"
        );
        assert_eq!(reduced.terminals, 1, "one Mazurkiewicz class, one terminal visit");
    }

    #[test]
    fn bit_iteration_order_and_bounds() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1011).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(bits(1u64 << 63).collect::<Vec<_>>(), vec![63]);
    }
}
