//! Rank arithmetic shared by every collective algorithm.
//!
//! The paper's pseudo-code works throughout in *relative* ranks — the rank of
//! a process counted from the broadcast root around the ring — and in
//! power-of-two masks over those relative ranks. The helpers here are the
//! single source of truth for that arithmetic; `bcast-core` unit-tests them
//! against the worked examples of the paper (Figures 1, 2, 4 and 5).

/// Index of a process inside a world/communicator (`0..size`).
pub type Rank = usize;

/// Message tag used for matching, mirroring MPI's `tag` argument.
///
/// Collectives reserve small tag values; applications are free to use any
/// value. Matching is exact: a receive for `Tag(t)` only matches messages
/// sent with `Tag(t)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    /// Tag used by the binomial-scatter phase of scatter-ring broadcasts.
    pub const SCATTER: Tag = Tag(0xB0);
    /// Tag used by the allgather (ring or recursive-doubling) phase.
    pub const ALLGATHER: Tag = Tag(0xB1);
    /// Tag used by plain binomial-tree broadcast.
    pub const BCAST: Tag = Tag(0xB2);
    /// Tag used by barrier implementations layered on point-to-point.
    /// Dissemination barriers use a contiguous range starting here (one tag
    /// per round), so leave headroom above.
    pub const BARRIER: Tag = Tag(0xB3);
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tag:{}", self.0)
    }
}

/// Rank of `rank` relative to `root`, i.e. its distance from the root going
/// forward around the ring of `size` processes.
///
/// This is the `relative_rank = (rank >= root) ? rank-root : rank-root+comm_size`
/// of the paper's Listing 1. The root itself has relative rank 0.
#[inline]
pub fn relative_rank(rank: Rank, root: Rank, size: usize) -> Rank {
    debug_assert!(rank < size && root < size);
    if rank >= root {
        rank - root
    } else {
        rank + size - root
    }
}

/// Inverse of [`relative_rank`]: the absolute rank that sits `relative`
/// positions after `root` on the ring.
#[inline]
pub fn absolute_rank(relative: Rank, root: Rank, size: usize) -> Rank {
    debug_assert!(relative < size && root < size);
    let r = relative + root;
    if r >= size {
        r - size
    } else {
        r
    }
}

/// The left (counter-clockwise) neighbour of `rank` on the ring, i.e.
/// `(size + rank - 1) % size` as in the paper's pseudo-code.
#[inline]
pub fn ring_left(rank: Rank, size: usize) -> Rank {
    debug_assert!(rank < size);
    if rank == 0 {
        size - 1
    } else {
        rank - 1
    }
}

/// The right (clockwise) neighbour of `rank` on the ring: `(rank + 1) % size`.
#[inline]
pub fn ring_right(rank: Rank, size: usize) -> Rank {
    debug_assert!(rank < size);
    if rank + 1 == size {
        0
    } else {
        rank + 1
    }
}

/// Whether `n` is a power of two. MPICH3 switches allgather algorithm on this
/// predicate; `is_pof2(0) == false`.
#[inline]
pub fn is_pof2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// `ceil(log2(n))` for `n >= 1`; `ceil_log2(1) == 0`.
///
/// This is the exponent used to seed the mask loop of the tuned ring
/// allgather (`mask = 2^ceil(log2 comm_size)`).
#[inline]
pub fn ceil_log2(n: usize) -> u32 {
    assert!(n >= 1, "ceil_log2 of zero");
    usize::BITS - (n - 1).leading_zeros()
}

/// The smallest power of two `>= n` (for `n >= 1`).
#[inline]
pub fn ceil_pof2(n: usize) -> usize {
    1usize << ceil_log2(n)
}

/// `ceil(a / b)` — the paper's `scatter_size = (nbytes + comm_size - 1) / comm_size`.
#[inline]
pub fn ceil_div(a: usize, b: usize) -> usize {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_rank_identity_at_root() {
        for size in 1..20 {
            for root in 0..size {
                assert_eq!(relative_rank(root, root, size), 0);
            }
        }
    }

    #[test]
    fn relative_rank_wraps() {
        // size 10, root 7: ranks 7,8,9,0,1,... have relative 0,1,2,3,4,...
        assert_eq!(relative_rank(7, 7, 10), 0);
        assert_eq!(relative_rank(8, 7, 10), 1);
        assert_eq!(relative_rank(9, 7, 10), 2);
        assert_eq!(relative_rank(0, 7, 10), 3);
        assert_eq!(relative_rank(6, 7, 10), 9);
    }

    #[test]
    fn absolute_inverts_relative() {
        for size in 1..24 {
            for root in 0..size {
                for rank in 0..size {
                    let rel = relative_rank(rank, root, size);
                    assert_eq!(absolute_rank(rel, root, size), rank);
                }
            }
        }
    }

    #[test]
    fn ring_neighbours() {
        assert_eq!(ring_left(0, 8), 7);
        assert_eq!(ring_left(5, 8), 4);
        assert_eq!(ring_right(7, 8), 0);
        assert_eq!(ring_right(3, 8), 4);
        // left and right are inverses
        for size in 1..16 {
            for r in 0..size {
                assert_eq!(ring_left(ring_right(r, size), size), r);
                assert_eq!(ring_right(ring_left(r, size), size), r);
            }
        }
    }

    #[test]
    fn pof2_predicates() {
        assert!(!is_pof2(0));
        assert!(is_pof2(1));
        assert!(is_pof2(2));
        assert!(!is_pof2(3));
        assert!(is_pof2(4));
        assert!(!is_pof2(6));
        assert!(is_pof2(1024));
        assert!(!is_pof2(1023));
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(129), 8);
    }

    #[test]
    fn ceil_pof2_values() {
        assert_eq!(ceil_pof2(1), 1);
        assert_eq!(ceil_pof2(2), 2);
        assert_eq!(ceil_pof2(3), 4);
        assert_eq!(ceil_pof2(8), 8);
        assert_eq!(ceil_pof2(10), 16); // mask seed for the paper's 10-process example
        assert_eq!(ceil_pof2(129), 256);
    }

    #[test]
    fn ceil_div_values() {
        assert_eq!(ceil_div(0, 8), 0);
        assert_eq!(ceil_div(8, 8), 1);
        assert_eq!(ceil_div(9, 8), 2);
        assert_eq!(ceil_div(12288, 10), 1229);
    }
}
