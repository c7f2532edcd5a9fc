//! Membership as "all ranks but these": a world size plus the ascending
//! ranks it leaves out.
//!
//! Every member list the self-healing broadcast keeps — the epoch's
//! members, the rerun's runners, the verdict's survivors and full set, the
//! survivor set [`crate::Healed`] hands back — starts as the whole world
//! and only ever loses ranks. Held as an explicit list, each rank of a
//! `P`-rank world would carry `P` rank words from the first epoch on, and
//! a launch `P²` of them; held as its exclusions, a fault-free epoch
//! allocates nothing and a degraded one `O(excluded)`. Position and rank
//! map through the exclusions in `O(log excluded)` — the identity while
//! nothing is left out — so the schedules that run over a member list
//! (the quorum's rounds, the rerun's relabel) read the ranks the list
//! would give, and `Members::digest` equals [`membership_digest`] of the
//! list, so every tag is the one the list would give.

use mpsim::Rank;

/// The ranks of `0..world` except the ascending `excluded` ones.
///
/// Equality is set equality: a set has one form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Members {
    world: usize,
    excluded: Vec<Rank>,
}

impl Members {
    /// Every rank of a `world`-rank world. Allocates nothing.
    pub(crate) fn all(world: usize) -> Members {
        Members { world, excluded: Vec::new() }
    }

    /// The ranks of `ranks` in a `world`-rank world; `None` unless `ranks`
    /// is strictly ascending and inside the world.
    pub(crate) fn from_ranks(world: usize, ranks: &[Rank]) -> Option<Members> {
        let ascending = ranks.windows(2).all(|w| w[0] < w[1]);
        if !ascending || ranks.last().is_some_and(|&r| r >= world) {
            return None;
        }
        let mut next = ranks.iter().copied().peekable();
        let excluded = (0..world).filter(|&r| next.next_if_eq(&r).is_none()).collect();
        Some(Members { world, excluded })
    }

    /// The size of the world the members are drawn from.
    pub fn world(&self) -> usize {
        self.world
    }

    /// The ranks of the world that are not members, ascending.
    pub fn excluded(&self) -> &[Rank] {
        &self.excluded
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.world - self.excluded.len()
    }

    /// Whether no rank is a member.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `r` is a member.
    pub fn contains(&self, r: Rank) -> bool {
        r < self.world && self.excluded.binary_search(&r).is_err()
    }

    /// The member at position `idx` of the ascending list (`idx < len()`):
    /// `idx` plus the excluded ranks below it. An exclusion `e` at index
    /// `j` has `e − j` members below it, so those are the `j` with
    /// `e − j ≤ idx`.
    pub(crate) fn rank(&self, idx: usize) -> Rank {
        let (mut lo, mut hi) = (0, self.excluded.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.excluded[mid] - mid <= idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        idx + lo
    }

    /// The position of member `r` in the ascending list; `None` if `r` is
    /// not a member.
    pub(crate) fn index_of(&self, r: Rank) -> Option<usize> {
        if r >= self.world {
            return None;
        }
        self.excluded.binary_search(&r).err().map(|below| r - below)
    }

    /// The lowest member.
    pub(crate) fn first(&self) -> Option<Rank> {
        (!self.is_empty()).then(|| self.rank(0))
    }

    /// The members, ascending.
    pub fn iter(&self) -> Iter<'_> {
        Iter { next: 0, end: self.world, skip: &self.excluded }
    }

    /// The members as an explicit ascending list.
    pub fn to_vec(&self) -> Vec<Rank> {
        self.iter().collect()
    }

    /// These members except `gone` (any order; ranks that are not members
    /// change nothing).
    pub(crate) fn without(&self, gone: impl IntoIterator<Item = Rank>) -> Members {
        let mut excluded = self.excluded.clone();
        excluded.extend(gone.into_iter().filter(|&r| r < self.world));
        excluded.sort_unstable();
        excluded.dedup();
        Members { world: self.world, excluded }
    }

    /// The members that are also members of `other`.
    pub(crate) fn intersection(&self, other: &Members) -> Members {
        self.without(other.excluded.iter().copied().chain(other.world..self.world))
    }

    /// [`membership_digest`] of the ascending list, from the exclusions:
    /// each run of consecutive excluded ranks that a member follows is one
    /// `(first left out, next member)` pair, and the runs after the last
    /// member are not hashed. O(1) for the whole world, O(excluded) else.
    pub(crate) fn digest(&self) -> u32 {
        let runs = self.excluded.chunk_by(|a, b| a + 1 == *b);
        let gaps = runs.filter_map(|run| {
            let after = run[run.len() - 1] + 1;
            (after < self.world).then_some((run[0], after))
        });
        digest_of(self.len(), gaps)
    }
}

impl PartialEq<[Rank]> for Members {
    fn eq(&self, list: &[Rank]) -> bool {
        self.len() == list.len() && self.iter().eq(list.iter().copied())
    }
}

impl PartialEq<Vec<Rank>> for Members {
    fn eq(&self, list: &Vec<Rank>) -> bool {
        *self == list[..]
    }
}

/// The members of a [`Members`], ascending ([`Members::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    next: Rank,
    end: Rank,
    /// The exclusions at or above `next`.
    skip: &'a [Rank],
}

impl Iterator for Iter<'_> {
    type Item = Rank;

    fn next(&mut self) -> Option<Rank> {
        while let [first, rest @ ..] = self.skip {
            if *first != self.next {
                break;
            }
            (self.next, self.skip) = (self.next + 1, rest);
        }
        (self.next < self.end).then(|| {
            self.next += 1;
            self.next - 1
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end.saturating_sub(self.next) - self.skip.len();
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Digest of an ascending member list (every list recovery builds is one),
/// folded into every *attempt* tag (never the agreement tag) and into the
/// membership quorum's seal.
///
/// It hashes the list's length and the ranks it leaves out below its last
/// member, as `(first left out, next member)` runs, so a full world `0..n`
/// digests in O(1) — no run to hash — and a list that lost a few ranks in
/// O(n). Other orders digest deterministically, but two orders of one set
/// may collide. `Members::digest` computes the same value from the
/// exclusions.
///
/// A crash that lands *during* an agreement round can split the verdict:
/// peers the victim already answered believe it alive, later peers see it
/// dead, and the two groups enter the next epoch with member lists that
/// differ by the victim — and therefore with different degraded schedules.
/// Without isolation the groups' same-epoch messages cross-match with
/// mismatched chunk geometry and corrupt payloads. With the digest in the
/// tag, a rank only ever matches attempt traffic from peers that agree on
/// the membership, so a split epoch stalls cleanly into timeouts and the
/// *next* agreement round re-converges (the victim is silent for everyone
/// by then). Agreement tags stay digest-free on purpose — the diverged
/// groups must still heartbeat each other to re-converge.
pub fn membership_digest(members: &[Rank]) -> u32 {
    let n = members.len();
    // An ascending list that ends at `n − 1` is `0..n`: nothing left out.
    let gapped = members.last().is_some_and(|&last| last + 1 != n);
    let mut next = 0;
    let gaps = members[..if gapped { n } else { 0 }].iter().filter_map(move |&m| {
        let gap = (m != next).then_some((next, m));
        next = m + 1;
        gap
    });
    digest_of(n, gaps)
}

/// The digest of a list of `len` ranks with the `(first left out, next
/// member)` runs `gaps`, folded to a 12-bit page well clear of the low
/// pages (user + epoch + agreement tags all sit below 0xB2xx).
fn digest_of(len: usize, gaps: impl Iterator<Item = (Rank, Rank)>) -> u32 {
    let h = gaps.fold(fnv1a(FNV_OFFSET, (len as u32).to_le_bytes()), |h, (out, next)| {
        fnv1a(h, [out as u32, next as u32].into_iter().flat_map(u32::to_le_bytes))
    });
    0x10 + h % 0xFE0
}

/// The 32-bit FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u32 = 0x811C_9DC5;

/// 32-bit FNV-1a of `bytes`, continuing from hash `h`.
pub(crate) fn fnv1a(h: u32, bytes: impl IntoIterator<Item = u8>) -> u32 {
    bytes.into_iter().fold(h, |h, b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::prop::{self, usize_range, vec_of};

    /// `m` against its model `list`, the same set spelled out: every
    /// accessor, both directions of the position map, and the digest.
    fn agrees(m: &Members, list: &[Rank]) -> Result<(), String> {
        let p = m.world();
        let fail = |what: &str| Err(format!("{what}: {m:?} vs {list:?}"));
        if m.len() != list.len() || m.is_empty() != list.is_empty() {
            return fail("length");
        }
        if m.iter().len() != list.len() || !m.iter().eq(list.iter().copied()) {
            return fail("iteration");
        }
        if m.to_vec() != list || *m != *list || m.first() != list.first().copied() {
            return fail("list");
        }
        for (idx, &r) in list.iter().enumerate() {
            if m.rank(idx) != r || m.index_of(r) != Some(idx) {
                return fail(&format!("position {idx} <-> rank {r}"));
            }
        }
        for r in 0..p + 2 {
            if m.contains(r) != list.contains(&r) {
                return fail(&format!("contains({r})"));
            }
            if !list.contains(&r) && m.index_of(r).is_some() {
                return fail(&format!("index_of({r}) of a non-member"));
            }
        }
        if m.digest() != membership_digest(list) {
            return fail("digest");
        }
        if Members::from_ranks(p, list).as_ref() != Some(m) {
            return fail("from_ranks");
        }
        Ok(())
    }

    /// The members of a `p`-rank world without `excluded`, as the type and
    /// as its model; then without `dead` too.
    fn check(p: usize, excluded: &[Rank], dead: &[Rank]) -> Result<(), String> {
        let model = |gone: &[Rank]| (0..p).filter(|r| !gone.contains(r)).collect::<Vec<_>>();
        let m = Members::all(p).without(excluded.iter().copied());
        agrees(&m, &model(excluded))?;
        let gone: Vec<Rank> = excluded.iter().chain(dead).copied().collect();
        agrees(&m.without(dead.iter().copied()), &model(&gone))?;
        let other = Members::all(p).without(dead.iter().copied());
        agrees(&m.intersection(&other), &model(&gone))
    }

    #[test]
    fn members_agree_with_a_list_in_every_small_world() {
        for p in 0..=16usize {
            for mask in 0u32..1 << p {
                let excluded: Vec<Rank> = (0..p).filter(|r| mask >> r & 1 == 1).collect();
                // A dead set that overlaps the exclusions and reaches past the world.
                let dead: Vec<Rank> =
                    (0..p + 2).filter(|r| (mask >> 3 ^ 0b1011) >> r & 1 == 1).collect();
                if let Err(why) = check(p, &excluded, &dead) {
                    panic!("P={p} mask {mask:#b}: {why}");
                }
            }
        }
    }

    #[test]
    fn members_agree_with_a_list_in_seeded_worlds_up_to_4096() {
        let ranks = || vec_of(usize_range(0..4096), 0..48);
        prop::check(
            "members_agree_with_a_list_in_seeded_worlds_up_to_4096",
            prop::Config::cases(48),
            &(usize_range(1..4097), ranks(), ranks()),
            |(p, excluded, dead)| {
                let excluded: Vec<Rank> = excluded.iter().map(|r| r % p).collect();
                check(*p, &excluded, dead)
            },
        );
    }

    #[test]
    fn a_member_list_must_be_ascending_and_inside_the_world() {
        assert_eq!(Members::from_ranks(4, &[0, 2, 1, 3]), None, "not ascending");
        assert_eq!(Members::from_ranks(4, &[0, 2, 2]), None, "a repeated rank");
        assert_eq!(Members::from_ranks(4, &[0, 4]), None, "outside the world");
        assert_eq!(
            Members::from_ranks(4, &[1, 3]).map(|m| m.excluded().to_vec()),
            Some(vec![0, 2])
        );
        assert_eq!(Members::from_ranks(0, &[]), Some(Members::all(0)));
    }
}
