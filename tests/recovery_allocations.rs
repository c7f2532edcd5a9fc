//! What a fault-free self-healing launch allocates that grows with the
//! world.
//!
//! A rank of the self-healing broadcast keeps its member sets as "all ranks
//! but these" (`bcast_core::Members`), so a clean epoch holds no per-rank
//! list of the world: a launch of `P` ranks must not make one allocation of
//! `P` rank words per rank. This binary counts heap allocations of at least
//! that size with its own global allocator, which is why it holds a single
//! test: the harness's other threads would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use bcast_core::{self_healing_bcast_event_world, Algorithm, RecoveryConfig};
use mpsim::Rank;

/// The system allocator, counting the allocations of at least `LARGE`
/// bytes made while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn note(&self, size: usize) {
        if COUNTING.load(Ordering::Relaxed) && size >= LARGE.load(Ordering::Relaxed) {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System`'s guarantees are this allocator's; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A fault-free launch of `P = 256` ranks over a 64-byte payload makes
/// fewer than 64 allocations of `P` rank words or more: the world's own
/// tables and the outcome check's per-launch vectors, never one per rank.
/// A rank that listed its members would make 256.
#[test]
fn a_fault_free_launch_allocates_no_member_list_per_rank() {
    const P: usize = 256;
    let cfg = RecoveryConfig::default();
    LARGE.store(P * size_of::<Rank>(), Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = self_healing_bcast_event_world(P, 64, 0, Algorithm::ScatterRingTuned, &cfg);
    COUNTING.store(false, Ordering::Relaxed);
    let large = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
    assert!(out.results.iter().all(|run| run.result.as_ref().is_ok_and(|h| h.epochs == 1)));
    assert!(large < 64, "{large} allocations of at least {P} rank words in one launch");
}
