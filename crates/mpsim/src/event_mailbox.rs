//! Dense per-source mailbox lanes for the event reactor.
//!
//! The first event executor kept one hash map from `(Rank, Tag)` to a queue
//! per destination. Every eager send and every receive poll paid a SipHash of
//! the `(source, tag)` key — at P = 4096 that is ~16.8M hashed lookups per
//! sweep, and it was the single largest line in the hot-path profile.
//!
//! [`LaneMailbox`] replaces the map with indexed lanes:
//!
//! * **Radix-paged source index.** A dense `Vec<Lane>` per destination
//!   would be Θ(P²) memory across the world (6+ GB at P = 16384), but a
//!   flat `HashMap` is what we are removing. Instead, source ranks index a
//!   two-level radix: `pages[src >> 8][src & 255]` holds the lane's slot in
//!   a compact arena, and a 256-entry page is allocated only when some
//!   source first sends here. Collectives touch O(log P) or O(1) peers per
//!   destination, so the world's whole index stays tens of MB at P = 16384
//!   while lookups stay two dependent loads — no hashing, no probing.
//! * **Inline tag buckets.** Each lane holds up to [`INLINE_TAGS`] distinct
//!   tags in a linear-scanned inline array — every built-in collective uses
//!   at most a few tags per (source, destination) pair, so the scan is 1–2
//!   comparisons and, for the plain collectives, the spill path below never
//!   runs (asserted by the megascale sweeps via the `mailbox_spills` reactor
//!   counter). A bucket keeps its tag while the tag has envelopes queued;
//!   once every bucket is owned, a new tag takes over a drained one, so the
//!   self-healing broadcast's epoch-shifted tags stay inline too. Only a
//!   new tag that finds every bucket holding envelopes spills — or one
//!   that already has envelopes in the spill map, which keeps spilling so
//!   its FIFO stays in one queue.
//! * **Spill map for wild tags.** Protocol tag spaces (`ReliableComm`
//!   derives per-message tags from a `u32` base) can exceed the inline
//!   buckets; those envelopes fall back to a boxed `HashMap` keyed by tag
//!   only. The fallback preserves exact per-`(source, tag)` FIFO semantics
//!   and is counted, never silent. This is the one sanctioned `HashMap` in
//!   `mpsim` — `clippy::disallowed_types`, denied at the crate root, flags
//!   any other. A spill bucket leaves the map when it drains.
//! * **One node slab for every queue.** A bucket, inline or spilled, is a
//!   `(head, tail)` pair of indices into an intrusive FIFO of slab nodes,
//!   and a node holds only the payload: the lane already fixes the source,
//!   so [`LaneMailbox::pop`] rebuilds the [`Envelope`]. Freed nodes are
//!   reused last-in first-out before the slab grows, so the slab is exactly
//!   as long as the most envelopes ever queued at once. Per-bucket queues
//!   kept their high-water capacity instead: in the tuned ring a rank's left
//!   neighbour runs up to P − 1 steps ahead, so at P = 1024 the buckets held
//!   one slot per message of the broadcast (56 MiB), where the slab peaks at
//!   P + ⌈log₂P⌉ − 1 nodes.
//!
//! The event reactor keeps its whole world in one mailbox
//! (`LaneMailbox::for_destinations`): the lane of `(dest, src)` sits at
//! key `dest · size + src` of one radix index, and every destination's
//! envelopes share the one slab — one `RefCell` borrow per push or pop.
//! ThreadWorld's per-rank mailboxes each own theirs under their lock.
//!
//! Per-`(source, tag)` FIFO (MPI's non-overtaking rule) is kept by each
//! bucket's linked list; nothing about matching semantics changes, only
//! the cost of finding the queue and of storing it.

use crate::mailbox::Envelope;
use crate::pool::Payload;
use crate::rank::{Rank, Tag};

/// Distinct tags a lane tracks inline before spilling; built-in collectives
/// use ≤ 3 per (source, destination) pair (scatter, allgather, coalesced).
pub const INLINE_TAGS: usize = 4;

/// Where an envelope (or a lookup) for `tag` goes within a lane, given the
/// tags currently owning inline buckets (in claim order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketRoute {
    /// `tag` already owns inline bucket `i`.
    Existing(usize),
    /// `tag` is new and a free inline bucket remains: claim the next one
    /// (pushes only; a *pop* routed here finds nothing queued).
    NewInline,
    /// `tag` is new, every inline bucket is owned, and bucket `i` has
    /// drained: take it over (pushes only, like `NewInline`).
    Reuse(usize),
    /// Every inline bucket owns some other tag and holds envelopes, or
    /// `tag` already has envelopes in the spill map: the spill map.
    Spill,
}

/// The lane's bucket-routing decision, shared by [`LaneMailbox::push`] and
/// [`LaneMailbox::pop`] below and by schedcheck's `LaneMailboxModel`, which
/// explores push/pop interleavings over this exact predicate and checks the
/// spill counter accounts for every envelope the route sends to the spill
/// map (its mutation knobs — drop wild envelopes, skip the count, reuse a
/// bucket that still holds envelopes, forget the tag's spilled envelopes —
/// are caught by the explorer as a deadlock, a rejected terminal state or
/// a FIFO mismatch).
///
/// `drained` is an owned inline bucket with nothing queued, if any, and
/// `spilled` whether `tag` has envelopes queued in the spill map; a pop
/// passes `None` and `false`, since every route but `Existing` sends it to
/// the spill map.
#[must_use]
pub fn bucket_route(
    tags_in_use: &[u32],
    drained: Option<usize>,
    spilled: bool,
    tag: u32,
) -> BucketRoute {
    for (i, t) in tags_in_use.iter().enumerate() {
        if *t == tag {
            return BucketRoute::Existing(i);
        }
    }
    match drained {
        _ if tags_in_use.len() < INLINE_TAGS => BucketRoute::NewInline,
        Some(i) if !spilled => BucketRoute::Reuse(i),
        _ => BucketRoute::Spill,
    }
}

/// Radix page size for the source index: 8 bits per level.
const PAGE_BITS: usize = 8;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Vacant marker in radix pages, and the end of a node list.
const NIL: u32 = u32::MAX;

/// One queued payload and the index of the node after it — in its bucket's
/// FIFO while queued, in the slab's free list once released.
#[derive(Debug)]
struct Node {
    payload: Option<Payload>,
    next: u32,
}

/// The nodes behind every bucket of a mailbox, plus a LIFO free list
/// threaded through `Node::next`. A release is reused by the next
/// allocation, so the slab only grows when every node is queued: its
/// length is the high-water count of queued envelopes.
#[derive(Debug)]
struct NodeSlab {
    nodes: Vec<Node>,
    free: u32,
}

impl NodeSlab {
    fn new() -> Self {
        NodeSlab { nodes: Vec::new(), free: NIL }
    }

    /// Store `payload` in the most recently freed node (or a new one) and
    /// return its index.
    fn alloc(&mut self, payload: Payload) -> u32 {
        let node = Node { payload: Some(payload), next: NIL };
        if self.free == NIL {
            self.nodes.push(node);
            return (self.nodes.len() - 1) as u32;
        }
        let at = self.free;
        self.free = std::mem::replace(&mut self.nodes[at as usize], node).next;
        at
    }

    /// Move node `at`'s payload out, put the node on the free list, and
    /// return the payload with the node's former successor.
    fn release(&mut self, at: u32) -> (Option<Payload>, u32) {
        let node = &mut self.nodes[at as usize];
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = at;
        (node.payload.take(), next)
    }
}

/// One FIFO for a single tag within a lane: the first and last slab node.
#[derive(Debug)]
struct TagBucket {
    tag: u32,
    head: u32,
    tail: u32,
}

impl TagBucket {
    const EMPTY: TagBucket = TagBucket { tag: 0, head: NIL, tail: NIL };

    fn push(&mut self, slab: &mut NodeSlab, payload: Payload) {
        let at = slab.alloc(payload);
        match self.tail {
            NIL => self.head = at,
            tail => slab.nodes[tail as usize].next = at,
        }
        self.tail = at;
    }

    fn pop(&mut self, slab: &mut NodeSlab) -> Option<Payload> {
        if self.head == NIL {
            return None;
        }
        let (payload, next) = slab.release(self.head);
        self.head = next;
        if next == NIL {
            self.tail = NIL;
        }
        payload
    }
}

/// All queued envelopes from one source rank to one destination.
#[derive(Debug)]
struct Lane {
    inline: [TagBucket; INLINE_TAGS],
    /// Buckets of `inline` in use; buckets fill in first-seen-tag order and
    /// a drained bucket keeps its tag until a new tag takes it over, so
    /// membership never needs a sentinel tag value (the full `u32` tag space
    /// remains usable).
    used: u8,
    /// Wild-tag fallback; see module docs. Boxed on purpose: the map is
    /// absent on every collective path, and the indirection keeps each
    /// `Lane` one pointer wider instead of `size_of::<HashMap>()` wider —
    /// lanes are the dense arena the hot loop walks.
    #[allow(clippy::box_collection)]
    #[allow(
        clippy::disallowed_types,
        reason = "the wild-tag spill, the one sanctioned hashed lookup"
    )]
    spill: Option<Box<std::collections::HashMap<u32, TagBucket>>>,
}

impl Lane {
    fn new() -> Self {
        Lane { inline: [TagBucket::EMPTY; INLINE_TAGS], used: 0, spill: None }
    }
}

/// One destination rank's mailbox — or, built by `for_destinations`, a
/// whole world's:
/// envelopes indexed by `(destination, source)` lane, then tag bucket, and
/// queued in one node slab. See module docs for the shape and its cost
/// model.
#[derive(Debug)]
pub struct LaneMailbox {
    /// `pages[key >> PAGE_BITS][key & (PAGE_SIZE-1)]` → index into `lanes`,
    /// or `NIL`, for `key = dest · size + src`. Boxed pages so an untouched
    /// 256-lane region costs 8 bytes.
    pages: Vec<Option<Box<[u32; PAGE_SIZE]>>>,
    lanes: Vec<Lane>,
    /// Sources per destination (the world size).
    size: usize,
    slab: NodeSlab,
    /// Envelopes routed through a spill map instead of an inline bucket.
    spills: u64,
}

impl LaneMailbox {
    /// An empty mailbox for a world of `size` ranks.
    pub fn new(size: usize) -> Self {
        Self::for_destinations(1, size)
    }

    /// An empty mailbox for `dests` destinations of a world of `size`
    /// ranks, addressed through [`push_to`](Self::push_to) and
    /// [`pop_from`](Self::pop_from): all their lanes share one index and
    /// one node slab.
    pub(crate) fn for_destinations(dests: usize, size: usize) -> Self {
        LaneMailbox {
            pages: vec![None; (dests * size).div_ceil(PAGE_SIZE)],
            lanes: Vec::new(),
            size,
            slab: NodeSlab::new(),
            spills: 0,
        }
    }

    /// Envelopes that had to take the spill path (0 for every built-in
    /// collective); feeds the world's `mailbox_spills` reactor counter.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Most envelopes ever queued here at once — the slab's length, which
    /// feeds the world's `queued_peak` reactor counter.
    pub(crate) fn queued_peak(&self) -> u64 {
        self.slab.nodes.len() as u64
    }

    /// Queue one envelope from `src` under `tag` (FIFO per `(src, tag)`).
    /// Only the payload is stored: `pop` reports `src` as the sender.
    pub fn push(&mut self, src: Rank, tag: Tag, env: Envelope) {
        self.push_to(0, src, tag, env.data);
    }

    /// Dequeue the oldest envelope from `src` under `tag`, if any. Never
    /// allocates: a receive polled before any matching send reads only the
    /// radix index and leaves no structure behind.
    pub fn pop(&mut self, src: Rank, tag: Tag) -> Option<Envelope> {
        self.pop_from(0, src, tag).map(|data| Envelope { src, data })
    }

    /// Queue `payload` for destination `dest` from `src` under `tag`.
    pub(crate) fn push_to(&mut self, dest: Rank, src: Rank, tag: Tag, payload: Payload) {
        let lane_idx = self.lane_for(dest * self.size + src);
        let lane = &mut self.lanes[lane_idx];
        let used = lane.used as usize;
        let tags: [u32; INLINE_TAGS] = std::array::from_fn(|i| lane.inline[i].tag);
        let drained = match used {
            INLINE_TAGS => lane.inline.iter().position(|b| b.head == NIL),
            _ => None,
        };
        // A drained spill bucket leaves the map, so a key means envelopes.
        let spilled =
            drained.is_some() && lane.spill.as_ref().is_some_and(|m| m.contains_key(&tag.0));
        match bucket_route(&tags[..used], drained, spilled, tag.0) {
            BucketRoute::Existing(i) => lane.inline[i].push(&mut self.slab, payload),
            BucketRoute::NewInline => {
                lane.inline[used].tag = tag.0;
                lane.inline[used].push(&mut self.slab, payload);
                lane.used = (used + 1) as u8;
            }
            BucketRoute::Reuse(i) => {
                lane.inline[i].tag = tag.0;
                lane.inline[i].push(&mut self.slab, payload);
            }
            BucketRoute::Spill => {
                self.spills += 1;
                lane.spill
                    .get_or_insert_with(Default::default)
                    .entry(tag.0)
                    .or_insert(TagBucket::EMPTY)
                    .push(&mut self.slab, payload);
            }
        }
    }

    /// Dequeue the oldest payload for `dest` from `src` under `tag`, if
    /// any; allocates nothing, like [`pop`](Self::pop).
    pub(crate) fn pop_from(&mut self, dest: Rank, src: Rank, tag: Tag) -> Option<Payload> {
        let key = dest * self.size + src;
        let page = self.pages[key >> PAGE_BITS].as_ref()?;
        let lane_idx = page[key & (PAGE_SIZE - 1)];
        if lane_idx == NIL {
            return None;
        }
        let lane = &mut self.lanes[lane_idx as usize];
        let used = lane.used as usize;
        let tags: [u32; INLINE_TAGS] = std::array::from_fn(|i| lane.inline[i].tag);
        match bucket_route(&tags[..used], None, false, tag.0) {
            BucketRoute::Existing(i) => lane.inline[i].pop(&mut self.slab),
            // NewInline on a pop means the tag was never pushed inline; only
            // the spill map could hold it (and then only if `used` is full,
            // so this arm also finds nothing — which is correct).
            BucketRoute::NewInline | BucketRoute::Reuse(_) | BucketRoute::Spill => {
                let spill = lane.spill.as_mut()?;
                let bucket = spill.get_mut(&tag.0)?;
                let payload = bucket.pop(&mut self.slab);
                if bucket.head == NIL {
                    spill.remove(&tag.0);
                }
                payload
            }
        }
    }

    /// Lane index for radix `key`, creating the page and lane on first use.
    fn lane_for(&mut self, key: usize) -> usize {
        let page = self.pages[key >> PAGE_BITS].get_or_insert_with(|| Box::new([NIL; PAGE_SIZE]));
        let slot = &mut page[key & (PAGE_SIZE - 1)];
        if *slot == NIL {
            *slot = self.lanes.len() as u32;
            self.lanes.push(Lane::new());
        }
        *slot as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;

    fn env(pool: &std::sync::Arc<BufferPool>, src: Rank, byte: u8) -> Envelope {
        Envelope { src, data: pool.rent_copy(&[byte]).into() }
    }

    #[test]
    fn bucket_route_decisions() {
        assert_eq!(bucket_route(&[], None, false, 7), BucketRoute::NewInline);
        assert_eq!(bucket_route(&[7, 9], None, false, 9), BucketRoute::Existing(1));
        assert_eq!(bucket_route(&[1, 2, 3], None, false, 4), BucketRoute::NewInline);
        assert_eq!(bucket_route(&[1, 2, 3, 4], None, false, 5), BucketRoute::Spill);
        assert_eq!(bucket_route(&[1, 2, 3, 4], None, false, 4), BucketRoute::Existing(3));
        assert_eq!(bucket_route(&[1, 2, 3, 4], Some(2), false, 5), BucketRoute::Reuse(2));
        assert_eq!(bucket_route(&[1, 2, 3, 4], Some(2), true, 5), BucketRoute::Spill);
        assert_eq!(bucket_route(&[1, 2, 3, 4], Some(2), false, 2), BucketRoute::Existing(1));
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let pool = BufferPool::new();
        let mut mb = LaneMailbox::new(8);
        mb.push(3, Tag(1), env(&pool, 3, 10));
        mb.push(3, Tag(1), env(&pool, 3, 11));
        mb.push(3, Tag(2), env(&pool, 3, 20));
        mb.push(5, Tag(1), env(&pool, 5, 50));
        assert_eq!(mb.pop(3, Tag(1)).unwrap().data.bytes()[0], 10);
        assert_eq!(mb.pop(3, Tag(2)).unwrap().data.bytes()[0], 20);
        assert_eq!(mb.pop(3, Tag(1)).unwrap().data.bytes()[0], 11);
        assert_eq!(mb.pop(5, Tag(1)).unwrap().data.bytes()[0], 50);
        assert!(mb.pop(3, Tag(1)).is_none());
        assert_eq!(mb.spills(), 0);
    }

    #[test]
    fn pop_on_untouched_source_allocates_nothing() {
        let mut mb = LaneMailbox::new(1024);
        assert!(mb.pop(700, Tag(0)).is_none());
        assert!(mb.pages.iter().all(Option::is_none), "pop must not build pages");
        assert!(mb.lanes.is_empty(), "pop must not build lanes");
    }

    #[test]
    fn wild_tags_spill_but_keep_fifo() {
        let pool = BufferPool::new();
        let mut mb = LaneMailbox::new(4);
        // INLINE_TAGS distinct tags fit inline; two more spill.
        for t in 0..(INLINE_TAGS as u32 + 2) {
            mb.push(1, Tag(t), env(&pool, 1, t as u8));
            mb.push(1, Tag(t), env(&pool, 1, 100 + t as u8));
        }
        assert_eq!(mb.spills(), 4, "two wild tags × two envelopes each");
        for t in 0..(INLINE_TAGS as u32 + 2) {
            assert_eq!(mb.pop(1, Tag(t)).unwrap().data.bytes()[0], t as u8);
            assert_eq!(mb.pop(1, Tag(t)).unwrap().data.bytes()[0], 100 + t as u8);
            assert!(mb.pop(1, Tag(t)).is_none());
        }
    }

    #[test]
    fn drained_inline_bucket_is_reused_for_its_tag() {
        let pool = BufferPool::new();
        let mut mb = LaneMailbox::new(2);
        for round in 0..100u32 {
            mb.push(0, Tag(7), env(&pool, 0, round as u8));
            assert_eq!(mb.pop(0, Tag(7)).unwrap().data.bytes()[0], round as u8);
        }
        assert_eq!(mb.spills(), 0);
        assert_eq!(mb.lanes[0].used, 1, "one tag must occupy one bucket forever");
    }

    #[test]
    fn a_new_tag_takes_a_drained_bucket_unless_it_has_spilled() {
        let pool = BufferPool::new();
        let mut mb = LaneMailbox::new(2);
        let full = INLINE_TAGS as u32;
        // Every bucket owned and holding an envelope: a new tag spills.
        for t in 0..=full {
            mb.push(1, Tag(t), env(&pool, 1, t as u8));
        }
        assert_eq!(mb.spills(), 1);
        // Bucket 0 drains, but the spilled tag keeps spilling: its second
        // envelope must queue behind its first.
        assert_eq!(mb.pop(1, Tag(0)).unwrap().data.bytes()[0], 0);
        mb.push(1, Tag(full), env(&pool, 1, 100));
        assert_eq!(mb.spills(), 2);
        // A tag with nothing spilled takes the drained bucket.
        mb.push(1, Tag(full + 1), env(&pool, 1, 101));
        assert_eq!(mb.spills(), 2);
        assert_eq!(mb.lanes[0].inline[0].tag, full + 1);
        assert_eq!(mb.pop(1, Tag(full)).unwrap().data.bytes()[0], full as u8);
        assert_eq!(mb.pop(1, Tag(full)).unwrap().data.bytes()[0], 100);
        assert_eq!(mb.pop(1, Tag(full + 1)).unwrap().data.bytes()[0], 101);
        // Tag 0 lost its bucket; it comes back through another drained one.
        mb.push(1, Tag(0), env(&pool, 1, 102));
        assert_eq!(mb.spills(), 2);
        assert_eq!(mb.pop(1, Tag(0)).unwrap().data.bytes()[0], 102);
        for t in 1..full {
            assert_eq!(mb.pop(1, Tag(t)).unwrap().data.bytes()[0], t as u8);
        }
        assert!((0..full + 2).all(|t| mb.pop(1, Tag(t)).is_none()));
    }

    #[test]
    fn high_source_ranks_use_late_pages() {
        let pool = BufferPool::new();
        let mut mb = LaneMailbox::new(16384);
        mb.push(16383, Tag(0), env(&pool, 16383, 9));
        assert_eq!(mb.pop(16383, Tag(0)).unwrap().data.bytes()[0], 9);
        let touched = mb.pages.iter().filter(|p| p.is_some()).count();
        assert_eq!(touched, 1, "only the sender's page may be materialized");
    }

    #[test]
    fn destinations_share_one_slab_recycled_lifo() {
        let pool = BufferPool::new();
        let mut mb = LaneMailbox::for_destinations(3, 8);
        let k = 5;
        // A wave of k envelopes through lane A, then through lane B (another
        // destination, source and tag): the second wave reuses the first's
        // nodes, so the slab never grows past one wave.
        for (dest, src, tag) in [(0, 1, Tag(5)), (2, 4, Tag(9))] {
            for i in 0..k {
                mb.push_to(dest, src, tag, pool.rent_copy(&[i]).into());
            }
            for i in 0..k {
                assert_eq!(mb.pop_from(dest, src, tag).unwrap().bytes()[0], i);
            }
            assert!(mb.pop_from(dest, src, tag).is_none());
        }
        assert_eq!(mb.queued_peak(), u64::from(k));
        // Last in, first out: the node released last is the next one used.
        let last_released = mb.slab.free;
        mb.push_to(1, 0, Tag(0), pool.rent_copy(&[7]).into());
        assert_eq!(mb.lanes.last().unwrap().inline[0].head, last_released);
    }

    #[test]
    fn drained_spill_bucket_leaves_the_map() {
        let pool = BufferPool::new();
        let mut mb = LaneMailbox::new(2);
        let wild = Tag(INLINE_TAGS as u32);
        for t in 0..=wild.0 {
            mb.push(1, Tag(t), env(&pool, 1, t as u8));
        }
        assert_eq!(mb.pop(1, wild).unwrap().data.bytes()[0], wild.0 as u8);
        assert!(
            mb.lanes[0].spill.as_ref().unwrap().is_empty(),
            "a drained wild tag must not linger"
        );
    }

    #[test]
    fn queued_envelopes_return_their_rentals_when_the_mailbox_drops() {
        let pool = BufferPool::new();
        let mut mb = LaneMailbox::for_destinations(4, 4);
        for dest in 0..4 {
            for tag in 0..(INLINE_TAGS as u32 + 2) {
                mb.push_to(dest, 3 - dest, Tag(tag), pool.rent_copy(&[tag as u8; 100]).into());
            }
        }
        assert!(mb.spills() > 0, "the spill path must hold rentals too");
        drop(mb.pop_from(0, 3, Tag(0)));
        assert!(pool.stats().outstanding > 0);
        drop(mb);
        assert_eq!(pool.stats().outstanding, 0, "queued payloads leaked their rentals");
    }
}
