//! Time-ordered resource reservations.
//!
//! A shared resource (a node's NIC port, a node's memory channel) serves
//! transfers in *virtual-time* order. The naive "busy-until" scalar is
//! commit-order dependent: a rank that has raced ahead to a later virtual
//! time would push other ranks' *earlier* transfers into its future,
//! producing large run-to-run jitter. [`Timeline`] instead books each claim
//! into the earliest free gap at-or-after the requester's ready time, which
//! makes the outcome independent of commit order whenever the requested
//! intervals don't overlap — and bounded by one reservation's length when
//! they do.
//!
//! Booked intervals are kept sorted and merged when they touch. Merging
//! does not keep the list short: the gaps that contention and idle time
//! leave stay, so a 40-broadcast np = 33 Hornet world books about 31.7k
//! intervals on its busiest timeline. What bounds the list is
//! [`prune_before`](Timeline::prune_before) at the world's time floor: the
//! fabric drops every interval that ends at or before the earliest time any
//! future claim can be ready (see `fabric.rs`, "Pruning").

/// Sorted, non-overlapping busy intervals of one resource.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// `(start, end)` pairs, sorted by `start`, pairwise disjoint.
    intervals: Vec<(f64, f64)>,
    /// The latest horizon this timeline was pruned to: no claim may be
    /// ready before it, since the intervals it dropped could have delayed
    /// one (debug-asserted in [`next_fit`](Self::next_fit) and
    /// [`book`](Self::book)).
    horizon: f64,
    /// Intervals the last prune kept, the base of [`prune_due`](Self::prune_due).
    kept: usize,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline { intervals: Vec::new(), horizon: f64::NEG_INFINITY, kept: 0 }
    }
}

/// Merge two intervals if they touch within this tolerance (ns).
const MERGE_EPS: f64 = 1e-9;

/// The fewest intervals at which [`Timeline::prune_due`] asks for a prune:
/// finding the floor scans every rank and pending offer, so a prune waits
/// for at least this many bookings.
const PRUNE_MIN: usize = 1024;

impl Timeline {
    /// An always-free timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest start `t ≥ ready` such that `[t, t+dur)` is free.
    /// Does not book.
    pub fn next_fit(&self, ready: f64, dur: f64) -> f64 {
        debug_assert!(
            ready >= self.horizon,
            "claim ready at {ready} ns, before the horizon {} ns this timeline was pruned to",
            self.horizon
        );
        if dur <= 0.0 {
            return ready;
        }
        let mut t = ready;
        // First interval that could overlap [t, t+dur): binary search by end.
        let mut i = self.intervals.partition_point(|&(_, end)| end <= t);
        while i < self.intervals.len() {
            let (start, end) = self.intervals[i];
            if start >= t + dur {
                break; // the gap before `start` fits
            }
            t = t.max(end);
            i += 1;
        }
        t
    }

    /// Book `[start, start+dur)`. The caller must have obtained `start` from
    /// [`next_fit`](Self::next_fit) with no intervening bookings (single-lock
    /// discipline in the fabric guarantees this).
    pub fn book(&mut self, start: f64, dur: f64) {
        if dur <= 0.0 {
            return;
        }
        debug_assert!(
            start >= self.horizon,
            "booking at {start} ns, before the horizon {} ns this timeline was pruned to",
            self.horizon
        );
        let end = start + dur;
        let i = self.intervals.partition_point(|&(s, _)| s < start);
        debug_assert!(
            i == 0 || self.intervals[i - 1].1 <= start + MERGE_EPS,
            "booking overlaps predecessor"
        );
        debug_assert!(
            i == self.intervals.len() || end <= self.intervals[i].0 + MERGE_EPS,
            "booking overlaps successor"
        );
        // Merge with neighbours when touching.
        let merge_prev = i > 0 && start - self.intervals[i - 1].1 <= MERGE_EPS;
        let merge_next = i < self.intervals.len() && self.intervals[i].0 - end <= MERGE_EPS;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.intervals[i - 1].1 = self.intervals[i].1;
                self.intervals.remove(i);
            }
            (true, false) => self.intervals[i - 1].1 = end,
            (false, true) => self.intervals[i].0 = start,
            (false, false) => self.intervals.insert(i, (start, end)),
        }
    }

    /// Convenience: find the earliest fit and book it; returns the start.
    pub fn claim(&mut self, ready: f64, dur: f64) -> f64 {
        let start = self.next_fit(ready, dur);
        self.book(start, dur);
        start
    }

    /// Number of stored intervals (diagnostics).
    pub fn fragments(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the list has doubled since the last prune (and holds at least
    /// [`PRUNE_MIN`]): pruning then costs O(1) amortised per booking.
    pub fn prune_due(&self) -> bool {
        self.intervals.len() >= (2 * self.kept).max(PRUNE_MIN)
    }

    /// Drop intervals that end at or before `horizon`, once no future claim
    /// can be ready before it. Such an interval ends before any claim's
    /// ready time, so [`next_fit`](Self::next_fit) would skip it anyway:
    /// no grant changes.
    pub fn prune_before(&mut self, horizon: f64) {
        self.intervals.retain(|&(_, end)| end > horizon);
        self.horizon = self.horizon.max(horizon);
        self.kept = self.intervals.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_grants_immediately() {
        let mut t = Timeline::new();
        assert_eq!(t.next_fit(5.0, 10.0), 5.0);
        assert_eq!(t.claim(5.0, 10.0), 5.0);
    }

    #[test]
    fn zero_duration_never_blocks_nor_books() {
        let mut t = Timeline::new();
        t.book(0.0, 100.0);
        assert_eq!(t.next_fit(50.0, 0.0), 50.0);
        t.book(50.0, 0.0);
        assert_eq!(t.fragments(), 1);
    }

    #[test]
    fn sequential_claims_append_and_merge() {
        let mut t = Timeline::new();
        assert_eq!(t.claim(0.0, 10.0), 0.0);
        assert_eq!(t.claim(0.0, 10.0), 10.0);
        assert_eq!(t.claim(0.0, 10.0), 20.0);
        assert_eq!(t.fragments(), 1, "contiguous bookings must merge");
    }

    #[test]
    fn out_of_order_claims_fill_gaps() {
        let mut t = Timeline::new();
        // A "future" booking first (the racing-ahead rank)…
        assert_eq!(t.claim(1000.0, 50.0), 1000.0);
        // …must not delay an earlier-ready claim.
        assert_eq!(t.claim(100.0, 50.0), 100.0);
        assert_eq!(t.fragments(), 2);
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut t = Timeline::new();
        t.book(0.0, 10.0);
        t.book(15.0, 10.0);
        // gap [10, 15) is 5 wide; a 6-wide claim must go after 25
        assert_eq!(t.next_fit(0.0, 6.0), 25.0);
        // a 5-wide claim fits exactly
        assert_eq!(t.next_fit(0.0, 5.0), 10.0);
    }

    #[test]
    fn ready_inside_busy_interval_waits_for_end() {
        let mut t = Timeline::new();
        t.book(0.0, 100.0);
        assert_eq!(t.next_fit(30.0, 10.0), 100.0);
    }

    #[test]
    fn filling_a_gap_exactly_merges_all_three() {
        let mut t = Timeline::new();
        t.book(0.0, 10.0);
        t.book(20.0, 10.0);
        assert_eq!(t.fragments(), 2);
        t.book(10.0, 10.0);
        assert_eq!(t.fragments(), 1);
        assert_eq!(t.next_fit(0.0, 1.0), 30.0);
    }

    #[test]
    fn order_insensitive_for_disjoint_requests() {
        // both orders of the same claim set yield the same final schedule
        let mut a = Timeline::new();
        let s1 = a.claim(0.0, 10.0);
        let s2 = a.claim(100.0, 10.0);
        let mut b = Timeline::new();
        let s2b = b.claim(100.0, 10.0);
        let s1b = b.claim(0.0, 10.0);
        assert_eq!((s1, s2), (s1b, s2b));
    }

    #[test]
    fn prune_drops_history() {
        let mut t = Timeline::new();
        for i in 0..100 {
            t.claim(i as f64 * 20.0, 10.0);
        }
        assert_eq!(t.fragments(), 100);
        t.prune_before(1000.0);
        assert!(t.fragments() < 100);
        // future behaviour unchanged
        assert_eq!(t.next_fit(1980.0, 5.0), 1990.0);
    }

    #[test]
    fn contended_same_gap_serializes() {
        let mut t = Timeline::new();
        let a = t.claim(0.0, 10.0);
        let b = t.claim(0.0, 10.0);
        assert_eq!(a, 0.0);
        assert_eq!(b, 10.0);
    }
}
