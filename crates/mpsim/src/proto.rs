//! Pure decision logic of the mailbox and event-reactor protocols, factored
//! out of [`crate::mailbox`] and the [`crate::event_comm`] reactor so that an
//! external model checker can explore exactly the predicates the runtime
//! executes.
//!
//! Everything here is a total function over plain integers — no atomics, no
//! blocking, no I/O. The runtime calls these at its decision points
//! (annotated in `mailbox.rs` / `event_comm.rs`); `schedcheck`'s
//! interleaving explorer drives the same functions from abstract states, so
//! a checked property ("a push never skips the notify a blocked receiver
//! needs", "the run-queue dedup flag never drops a wake") speaks about the
//! deployed code, not a hand-copied transcription of it.

/// Must a mailbox push notify the mailbox's condvar? Only when a receiver
/// is actually blocked on it — the notify-skip optimization that makes
/// the uncontended send path syscall-free. The waiter count is read under
/// the mailbox lock, so a receiver that has started blocking is either already
/// counted (we notify) or has not yet released the lock (it will observe our
/// queued message before sleeping).
#[inline]
#[must_use]
pub fn push_should_notify(waiters: usize) -> bool {
    waiters > 0
}

/// `watching` sentinel: the task is not parked on any receive.
pub const WATCH_NONE: usize = usize::MAX;
/// `watching` sentinel: the task holds parked receives from more than one
/// source at once (e.g. a `join!` of two receives), so it conservatively
/// wakes on any exit. Single-source receives — every built-in collective —
/// never degrade to this.
pub const WATCH_ANY: usize = usize::MAX - 1;

/// Must a wake enqueue the task on the reactor run queue? Only when the
/// task's `Cell` dedup flag was still clear: a burst of deliveries to one
/// task costs one poll, and the flag is cleared at *pop* time — before the
/// poll runs — so a wake issued during the poll (including the task's own
/// budget-exhausted self-requeue) is never lost. Clearing the flag after
/// the poll instead would drop exactly that self-requeue; schedcheck's
/// `RunQueueModel` proves the deployed ordering is the only safe one.
#[inline]
#[must_use]
pub fn wake_should_enqueue(already_queued: bool) -> bool {
    !already_queued
}

/// Must a rank's exit wake a task whose receive is parked with `watching`
/// set to `watching`? Only a task watching exactly the exiting rank — or
/// conservatively watching every source ([`WATCH_ANY`]) — can observe the
/// departure; waking anyone else is wasted work the targeted-wake design
/// exists to avoid (O(P) instead of O(P²) exit work per sweep). Skipping a
/// watcher, however, strands it forever; schedcheck's `RunQueueModel` drills
/// that mutation.
#[inline]
#[must_use]
pub fn exit_wakes_watch(watching: usize, exited: usize) -> bool {
    watching == exited || watching == WATCH_ANY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_notifies_only_with_waiters() {
        assert!(!push_should_notify(0));
        assert!(push_should_notify(1));
        assert!(push_should_notify(7));
    }

    #[test]
    fn wake_enqueues_only_when_not_already_queued() {
        assert!(wake_should_enqueue(false));
        assert!(!wake_should_enqueue(true));
    }

    #[test]
    fn exit_wakes_exact_watcher_and_any_watcher_only() {
        assert!(exit_wakes_watch(3, 3));
        assert!(exit_wakes_watch(WATCH_ANY, 3));
        assert!(!exit_wakes_watch(WATCH_NONE, 3));
        assert!(!exit_wakes_watch(4, 3));
    }
}
