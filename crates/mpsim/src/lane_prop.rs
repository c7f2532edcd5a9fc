//! Differential property test of the slab-backed [`LaneMailbox`] against a
//! `HashMap<(dest, src, tag), VecDeque>` reference model — one deque per
//! queue, the storage the node slab replaced.
//!
//! The mailbox under test is built the way the event reactor builds its
//! world ([`LaneMailbox::for_destinations`]): several destinations whose
//! lanes share one index and one node slab. Random push/pop streams use
//! more tags per lane than [`INLINE_TAGS`], so the spill buckets share the
//! slab too. The two must agree on every popped payload, on the spill
//! count (the model's rule: the first [`INLINE_TAGS`] tags of a lane own
//! its inline buckets; once all are owned, a new tag borrows the first
//! bucket whose queue is empty, unless it has envelopes queued itself, and
//! otherwise spills; an owner that pushes again takes its bucket back and
//! the borrower's queued envelopes count as spills; never more spills than
//! pushes under tags that own no bucket), on emptiness after a full
//! drain, and on memory: the slab's high-water mark must equal the most
//! envelopes the model ever held at once. Dropping the mailbox at the end
//! must return every rental to the pool.

use std::collections::{HashMap, VecDeque};

use testkit::prop::{self, Config};

use crate::event_mailbox::{LaneMailbox, INLINE_TAGS};
use crate::pool::{BufferPool, Payload};
use crate::rank::Tag;

const DESTS: u8 = 3;
const SOURCES: u8 = 4;
/// Two more tags than a lane holds inline.
const TAGS: u8 = INLINE_TAGS as u8 + 2;

type Key = (usize, usize, u32);

/// The replaced storage: a deque per `(dest, src, tag)`, plus each lane's
/// bucket owners and the tags that hold the buckets, in bucket order.
#[derive(Default)]
struct DequeModel {
    queues: HashMap<Key, VecDeque<u32>>,
    buckets: HashMap<(usize, usize), (Vec<u32>, Vec<u32>)>,
    spills: u64,
    /// Pushes under a tag that owns no bucket: what the lanes would spill
    /// if no drained bucket were ever borrowed.
    ownerless: u64,
    queued: usize,
    queued_peak: usize,
}

impl DequeModel {
    fn push(&mut self, (dest, src, tag): Key, value: u32) {
        let queues = &self.queues;
        let len = |t: u32| queues.get(&(dest, src, t)).map_or(0, VecDeque::len);
        let (owners, holders) = self.buckets.entry((dest, src)).or_default();
        if owners.len() == INLINE_TAGS && !owners.contains(&tag) {
            self.ownerless += 1;
        }
        if !holders.contains(&tag) {
            if owners.len() < INLINE_TAGS {
                owners.push(tag);
                holders.push(tag);
            } else if let Some(i) = owners.iter().position(|&o| o == tag) {
                self.spills += len(holders[i]) as u64;
                holders[i] = tag;
            } else {
                match holders.iter().position(|&t| len(t) == 0) {
                    Some(i) if len(tag) == 0 => holders[i] = tag,
                    _ => self.spills += 1,
                }
            }
        }
        self.queues.entry((dest, src, tag)).or_default().push_back(value);
        self.queued += 1;
        self.queued_peak = self.queued_peak.max(self.queued);
    }

    fn pop(&mut self, key: Key) -> Option<u32> {
        let value = self.queues.get_mut(&key)?.pop_front()?;
        self.queued -= 1;
        Some(value)
    }

    /// The `k`-th non-empty queue in key order, if any queue holds anything.
    fn nonempty(&self, k: usize) -> Option<Key> {
        let mut keys: Vec<Key> =
            self.queues.iter().filter(|(_, q)| !q.is_empty()).map(|(&key, _)| key).collect();
        keys.sort_unstable();
        (!keys.is_empty()).then(|| keys[k % keys.len()])
    }
}

fn value_of(payload: Option<Payload>) -> Option<u32> {
    payload.map(|p| u32::from_le_bytes(p.bytes()[..4].try_into().unwrap_or_default()))
}

fn pop_both(lanes: &mut LaneMailbox, model: &mut DequeModel, key: Key) -> Result<(), String> {
    let (dest, src, tag) = key;
    let got = value_of(lanes.pop_from(dest, src, Tag(tag)));
    let want = model.pop(key);
    if got != want {
        return Err(format!("pop {key:?}: lanes gave {got:?}, model {want:?}"));
    }
    Ok(())
}

#[test]
fn lanes_match_vecdeque_model() {
    // Op stream: (op, dest, src, tag). Ops 0–2 push a fresh sequence number
    // to `(dest, src, tag)` (a 3:1 push bias builds deep queues), op 3 pops
    // that key — usually an empty or missing queue — and op 4 pops the
    // `dest·SOURCES + src`-th non-empty queue.
    prop::check(
        "lanes_match_vecdeque_model",
        Config::cases(128),
        &prop::vec_of(
            (
                prop::u8_range(0..5),
                prop::u8_range(0..DESTS),
                prop::u8_range(0..SOURCES),
                prop::u8_range(0..TAGS),
            ),
            1..240,
        ),
        |ops: &Vec<(u8, u8, u8, u8)>| {
            let pool = BufferPool::new();
            let mut lanes = LaneMailbox::for_destinations(DESTS.into(), SOURCES.into());
            let mut model = DequeModel::default();
            for (seq, &(op, dest, src, tag)) in ops.iter().enumerate() {
                let key = (dest.into(), src.into(), tag.into());
                match op {
                    0..=2 => {
                        let value = seq as u32;
                        let payload = pool.rent_copy(&value.to_le_bytes()).into();
                        lanes.push_to(key.0, key.1, Tag(key.2), payload);
                        model.push(key, value);
                    }
                    3 => pop_both(&mut lanes, &mut model, key)?,
                    _ => {
                        let k = usize::from(dest) * usize::from(SOURCES) + usize::from(src);
                        if let Some(key) = model.nonempty(k) {
                            pop_both(&mut lanes, &mut model, key)?;
                        }
                    }
                }
                if lanes.spills() != model.spills || model.spills > model.ownerless {
                    return Err(format!(
                        "after op {seq}: lanes counted {} spills, model {}, at most {}",
                        lanes.spills(),
                        model.spills,
                        model.ownerless
                    ));
                }
            }
            if lanes.queued_peak() != model.queued_peak as u64 {
                return Err(format!(
                    "slab peaked at {} nodes, but at most {} envelopes were queued at once",
                    lanes.queued_peak(),
                    model.queued_peak
                ));
            }
            // Drain every queue in key order: the remaining FIFO contents
            // must match, then both must be empty everywhere.
            let mut keys: Vec<Key> = model.queues.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                while model.queues[&key].front().is_some() {
                    pop_both(&mut lanes, &mut model, key)?;
                }
                pop_both(&mut lanes, &mut model, key)?;
            }
            for dest in 0..DESTS.into() {
                for src in 0..SOURCES.into() {
                    for tag in 0..TAGS.into() {
                        if let Some(data) = lanes.pop_from(dest, src, Tag(tag)) {
                            return Err(format!(
                                "({dest}, {src}, {tag}) still queued {} bytes after the drain",
                                data.len()
                            ));
                        }
                    }
                }
            }
            // Rentals still queued when the mailbox drops go back to the pool.
            for &(_, dest, src, tag) in ops.iter().take(8) {
                lanes.push_to(dest.into(), src.into(), Tag(tag.into()), pool.rent(4).into());
            }
            drop(lanes);
            match pool.stats().outstanding {
                0 => Ok(()),
                n => Err(format!("{n} rentals outstanding after the mailbox dropped")),
            }
        },
    );
}
