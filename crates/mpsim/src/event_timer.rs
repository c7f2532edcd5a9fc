//! Hierarchical timing wheel for the event reactor's virtual-clock timers.
//!
//! The first event executor kept armed deadlines in a
//! `BinaryHeap<(deadline, seq, task)>`. Arming was `O(log n)`, but the heap
//! had no cancel at all: every `recv_timeout` whose message arrived in time
//! left a *stale* entry behind, to be popped, found dead, and discarded on
//! some later idle step. Retransmission protocols (`ReliableComm`) arm one
//! timer per await and satisfy nearly all of them, so the heap accumulated
//! garbage proportional to total message count and every idle transition
//! paid to sift through it.
//!
//! [`TimerWheel`] replaces the heap with a hashed hierarchical wheel:
//!
//! * **O(1) arm** — the level is the highest bit in which the deadline
//!   differs from the current clock (6 bits per level), the slot is the
//!   deadline's digit at that level; inserting is a push onto an intrusive
//!   doubly-linked list.
//! * **O(1) cancel** — entries live in a slab addressed by a
//!   generation-counted [`TimerHandle`]; cancelling unlinks the entry from
//!   its slot list and recycles it immediately. A satisfied `recv_timeout`
//!   now leaves *nothing* behind, and cancelling a handle whose timer
//!   already fired (the generation moved on) is a safe no-op — which is what
//!   makes dropping a half-polled receive future sound.
//! * **exact heap ordering** — [`TimerWheel::pop_next`] returns armed timers
//!   in strictly ascending `(deadline, seq)` order, bit-identical to the
//!   heap it replaces, so the reactor's deterministic replay is unchanged.
//!   The differential property test in `tests/timer_wheel_prop.rs` checks
//!   this against a literal `BinaryHeap` model over seeded
//!   arm/cancel/advance sequences.
//!
//! Why per-level minimum scanning is exact and needs no overflow list: the
//! wheel has 11 levels × 64 slots = 66 bits of span, which covers every
//! `u64` deadline, and the reactor maintains the invariant that the clock
//! never passes an armed deadline (it only ever jumps *to* the earliest
//! one). At arm time the deadline differs from `now` only in its bottom
//! `6·(level+1)` bits, so within its level the entry sits fewer than 64
//! slots ahead of the clock's current slot — and that distance only shrinks
//! as the clock advances. The nearest occupied slot at each level (by
//! wrapped distance from the clock's slot) therefore holds that level's
//! earliest deadlines, and the global minimum is the best of one slot scan
//! per level: at most 11 short list walks per idle transition, independent
//! of how many timers are armed.

/// Bits of clock resolved per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (`2^LEVEL_BITS`).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels in the hierarchy; `LEVELS * LEVEL_BITS >= 64` spans every `u64`
/// nanosecond deadline, so no overflow list is needed.
const LEVELS: usize = 11;
/// Null index for slab free list and intrusive slot lists.
const NIL: u32 = u32::MAX;

/// Handle to an armed timer; `cancel` on a handle whose entry already fired
/// or was re-armed is a no-op thanks to the generation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    idx: u32,
    gen: u32,
}

/// One slab entry: payload plus intrusive list links and slot bookkeeping.
#[derive(Debug)]
struct Entry {
    deadline_ns: u64,
    /// Arming sequence number; ties on `deadline_ns` pop in arming order,
    /// exactly like the `(deadline, seq)` tuple the old heap ordered by.
    seq: u64,
    task: u32,
    gen: u32,
    prev: u32,
    next: u32,
    /// `level * SLOTS + slot` while armed; `NIL` while on the free list.
    home: u32,
}

/// One wheel level: a 64-bit occupancy bitmap plus per-slot list heads.
#[derive(Debug)]
struct Level {
    occupied: u64,
    heads: [u32; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level { occupied: 0, heads: [NIL; SLOTS] }
    }
}

/// Hierarchical timing wheel with O(1) arm and cancel; see module docs.
#[derive(Debug)]
pub struct TimerWheel {
    levels: Vec<Level>,
    entries: Vec<Entry>,
    free_head: u32,
    next_seq: u64,
    armed: usize,
    cancelled: u64,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel. Slot storage is a few KB and allocated up front; the
    /// entry slab grows to the high-water mark of concurrently armed timers
    /// (for the reactor: at most one per parked rank) and is then recycled.
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            entries: Vec::new(),
            free_head: NIL,
            next_seq: 0,
            armed: 0,
            cancelled: 0,
        }
    }

    /// Number of currently armed timers.
    pub fn len(&self) -> usize {
        self.armed
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// Timers cancelled while still armed, for reactor introspection.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Level and slot for a deadline given the current clock: the level is
    /// the highest 6-bit digit in which the two differ, the slot is the
    /// deadline's digit there. A deadline equal to `now` lands at level 0 in
    /// the clock's own slot and pops immediately.
    fn place(now_ns: u64, deadline_ns: u64) -> (usize, usize) {
        let diff = deadline_ns ^ now_ns;
        let level = if diff == 0 { 0 } else { (63 - diff.leading_zeros()) as usize / 6 };
        let slot = ((deadline_ns >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Arm a timer for `task` at absolute `deadline_ns`, with `now_ns` the
    /// reactor clock at arm time (callers must never arm in the past, which
    /// the reactor guarantees because the clock only jumps to popped
    /// deadlines). Returns the handle for [`TimerWheel::cancel`].
    pub fn arm(&mut self, now_ns: u64, deadline_ns: u64, task: usize) -> TimerHandle {
        debug_assert!(deadline_ns >= now_ns, "arming a deadline in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free_head {
            NIL => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    deadline_ns,
                    seq,
                    task: task as u32,
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    home: NIL,
                });
                idx
            }
            free => {
                let e = &mut self.entries[free as usize];
                self.free_head = e.next;
                e.deadline_ns = deadline_ns;
                e.seq = seq;
                e.task = task as u32;
                e.prev = NIL;
                e.next = NIL;
                free
            }
        };
        let (level, slot) = Self::place(now_ns, deadline_ns);
        // The scan's precondition (module docs): the entry sits within 64
        // slots of the clock's digit at its level.
        let shift = LEVEL_BITS as usize * level;
        debug_assert!(
            (deadline_ns >> shift) - (now_ns >> shift) < SLOTS as u64,
            "deadline {deadline_ns} placed at level {level} is 64+ slots past the clock {now_ns}"
        );
        let head = self.levels[level].heads[slot];
        self.entries[idx as usize].next = head;
        self.entries[idx as usize].home = (level * SLOTS + slot) as u32;
        if head != NIL {
            self.entries[head as usize].prev = idx;
        }
        self.levels[level].heads[slot] = idx;
        self.levels[level].occupied |= 1u64 << slot;
        self.armed += 1;
        TimerHandle { idx, gen: self.entries[idx as usize].gen }
    }

    /// Cancel an armed timer. Returns `true` if the handle was still live
    /// (the timer had neither fired nor been cancelled); stale handles are
    /// ignored, so callers may cancel unconditionally on drop.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(e) = self.entries.get(handle.idx as usize) else { return false };
        // A handle may touch its entry only while the entry is still armed
        // *and* the generations match. A fired or re-armed entry has moved
        // on (its generation was bumped at release), so the stale handle is
        // a no-op — which is what makes dropping a half-polled receive
        // future sound.
        if e.home == NIL || e.gen != handle.gen {
            return false;
        }
        self.unlink(handle.idx);
        self.release(handle.idx);
        self.cancelled += 1;
        true
    }

    /// Pop the earliest armed timer — minimum `(deadline, seq)` across the
    /// wheel — given the current clock. Returns `(deadline_ns, task)`.
    ///
    /// Requires `now_ns <=` every armed deadline (the reactor invariant);
    /// under it, the nearest occupied slot per level by wrapped distance
    /// from the clock's slot holds that level's minimum (see module docs).
    pub fn pop_next(&mut self, now_ns: u64) -> Option<(u64, usize)> {
        if self.armed == 0 {
            return None;
        }
        let mut best: Option<(u64, u64, u32)> = None;
        for (level, lv) in self.levels.iter().enumerate() {
            if lv.occupied == 0 {
                continue;
            }
            let now_slot = ((now_ns >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as u32;
            let dist = lv.occupied.rotate_right(now_slot).trailing_zeros();
            let slot = ((now_slot + dist) & (SLOTS as u32 - 1)) as usize;
            let mut i = lv.heads[slot];
            while i != NIL {
                let e = &self.entries[i as usize];
                if best.is_none_or(|(d, s, _)| (e.deadline_ns, e.seq) < (d, s)) {
                    best = Some((e.deadline_ns, e.seq, i));
                }
                i = e.next;
            }
        }
        #[allow(clippy::expect_used, reason = "armed > 0 guarantees an occupied slot")]
        let (deadline_ns, _, idx) = best.expect("armed timers but empty wheel");
        let task = self.entries[idx as usize].task as usize;
        self.unlink(idx);
        self.release(idx);
        Some((deadline_ns, task))
    }

    /// Detach an armed entry from its slot's intrusive list, clearing the
    /// occupancy bit when the slot empties.
    fn unlink(&mut self, idx: u32) {
        let (prev, next, home) = {
            let e = &self.entries[idx as usize];
            (e.prev, e.next, e.home as usize)
        };
        let (level, slot) = (home / SLOTS, home % SLOTS);
        if prev == NIL {
            self.levels[level].heads[slot] = next;
            if next == NIL {
                self.levels[level].occupied &= !(1u64 << slot);
            }
        } else {
            self.entries[prev as usize].next = next;
        }
        if next != NIL {
            self.entries[next as usize].prev = prev;
        }
        self.armed -= 1;
    }

    /// Return an unlinked entry to the free list, bumping its generation so
    /// outstanding handles go stale.
    fn release(&mut self, idx: u32) {
        let free = self.free_head;
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.home = NIL;
        e.prev = NIL;
        e.next = free;
        self.free_head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.arm(0, 500, 1);
        w.arm(0, 100, 2);
        w.arm(0, 300, 3);
        assert_eq!(w.pop_next(0), Some((100, 2)));
        assert_eq!(w.pop_next(100), Some((300, 3)));
        assert_eq!(w.pop_next(300), Some((500, 1)));
        assert_eq!(w.pop_next(500), None);
    }

    #[test]
    fn equal_deadlines_pop_in_arming_order() {
        let mut w = TimerWheel::new();
        w.arm(0, 42, 7);
        w.arm(0, 42, 8);
        w.arm(0, 42, 9);
        assert_eq!(w.pop_next(0), Some((42, 7)));
        assert_eq!(w.pop_next(42), Some((42, 8)));
        assert_eq!(w.pop_next(42), Some((42, 9)));
    }

    #[test]
    fn cancel_removes_and_stale_handles_are_noops() {
        let mut w = TimerWheel::new();
        let a = w.arm(0, 10, 1);
        let b = w.arm(0, 20, 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel must be a no-op");
        assert_eq!(w.cancelled(), 1);
        assert_eq!(w.pop_next(0), Some((20, 2)));
        assert!(!w.cancel(b), "cancel after fire must be a no-op");
        assert_eq!(w.cancelled(), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn slab_recycles_entries() {
        let mut w = TimerWheel::new();
        for round in 0..1000u64 {
            let h = w.arm(round, round + 5, 0);
            assert!(w.cancel(h));
        }
        assert!(w.entries.len() <= 2, "cancelled entries must be recycled");
    }

    #[test]
    fn deadline_equal_to_now_pops_immediately() {
        let mut w = TimerWheel::new();
        w.arm(77, 77, 3);
        assert_eq!(w.pop_next(77), Some((77, 3)));
    }

    #[test]
    fn spans_the_full_u64_range() {
        let mut w = TimerWheel::new();
        w.arm(0, u64::MAX, 1);
        w.arm(0, 1 << 40, 2);
        w.arm(0, 3, 3);
        assert_eq!(w.pop_next(0), Some((3, 3)));
        assert_eq!(w.pop_next(3), Some((1 << 40, 2)));
        assert_eq!(w.pop_next(1 << 40), Some((u64::MAX, 1)));
    }

    #[test]
    fn arming_relative_to_advanced_clock_keeps_order() {
        let mut w = TimerWheel::new();
        w.arm(0, 1_000_000, 1);
        let (d, t) = w.pop_next(0).unwrap();
        assert_eq!((d, t), (1_000_000, 1));
        // clock jumped to 1_000_000; later arms are placed relative to it
        w.arm(d, d + 3, 2);
        w.arm(d, d + 70, 3);
        w.arm(d, d + 1, 4);
        assert_eq!(w.pop_next(d), Some((d + 1, 4)));
        assert_eq!(w.pop_next(d + 1), Some((d + 3, 2)));
        assert_eq!(w.pop_next(d + 3), Some((d + 70, 3)));
    }
}
