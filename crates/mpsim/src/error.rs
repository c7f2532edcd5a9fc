//! Error type shared by every [`Communicator`](crate::Communicator) backend.

use crate::rank::Rank;

/// Errors surfaced by point-to-point and collective operations.
///
/// MPI reports most of these as fatal; we surface them as values so tests can
/// assert on them, and collectives propagate them with `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A received message was longer than the posted receive buffer
    /// (MPI's `MPI_ERR_TRUNCATE`).
    Truncation {
        /// Capacity of the posted receive buffer.
        capacity: usize,
        /// Size of the matched incoming message.
        incoming: usize,
    },
    /// A rank argument was outside `0..size`.
    InvalidRank {
        /// The offending rank.
        rank: Rank,
        /// The communicator size.
        size: usize,
    },
    /// A count/displacement pair pointed outside the caller's buffer.
    OutOfBounds {
        /// Requested displacement.
        disp: usize,
        /// Requested count.
        count: usize,
        /// Buffer length.
        len: usize,
    },
    /// The world was torn down (a peer panicked or exited) while this rank
    /// was blocked in a call.
    WorldStopped,
    /// A deadline-bounded operation (e.g.
    /// [`recv_timeout`](crate::Communicator::recv_timeout)) expired before a
    /// matching message arrived.
    Timeout {
        /// The peer the operation was waiting on.
        peer: Rank,
    },
    /// The peer a blocking operation depended on is known to have failed or
    /// exited the world while the operation could still match it. Unlike
    /// [`WorldStopped`](CommError::WorldStopped), the rest of the world is
    /// still running; callers may recover (see `bcast-core`'s `recovery`).
    PeerFailed {
        /// The failed rank.
        rank: Rank,
    },
    /// The requested operation is not defined for a world of this size
    /// (e.g. recursive doubling on a non-power-of-two world). Raised before
    /// any message is posted, so every rank fails alike and nothing hangs.
    Unsupported {
        /// What was asked for (an algorithm's stable name).
        what: &'static str,
        /// The communicator size it cannot run on.
        size: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Truncation { capacity, incoming } => write!(
                f,
                "message truncated: incoming {incoming} bytes exceeds receive capacity {capacity}"
            ),
            CommError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} for communicator of size {size}")
            }
            CommError::OutOfBounds { disp, count, len } => write!(
                f,
                "region [{disp}, {disp}+{count}) out of bounds for buffer of length {len}"
            ),
            CommError::WorldStopped => write!(f, "world stopped while operation was in flight"),
            CommError::Timeout { peer } => {
                write!(f, "operation timed out waiting on peer rank {peer}")
            }
            CommError::PeerFailed { rank } => {
                write!(f, "peer rank {rank} failed while operation was in flight")
            }
            CommError::Unsupported { what, size } => {
                write!(f, "{what} is not defined for a world of {size} ranks")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, CommError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_mention_key_numbers() {
        let e = CommError::Truncation { capacity: 4, incoming: 9 };
        let s = e.to_string();
        assert!(s.contains('4') && s.contains('9'));

        let e = CommError::InvalidRank { rank: 12, size: 8 };
        assert!(e.to_string().contains("12"));

        let e = CommError::OutOfBounds { disp: 10, count: 20, len: 16 };
        assert!(e.to_string().contains("16"));

        assert!(CommError::WorldStopped.to_string().contains("stopped"));

        let e = CommError::Timeout { peer: 3 };
        assert!(e.to_string().contains("timed out") && e.to_string().contains('3'));

        let e = CommError::PeerFailed { rank: 5 };
        assert!(e.to_string().contains("failed") && e.to_string().contains('5'));

        let e = CommError::Unsupported { what: "bcast/scatter_rd", size: 10 };
        assert!(e.to_string().contains("scatter_rd") && e.to_string().contains("10"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            CommError::InvalidRank { rank: 1, size: 1 },
            CommError::InvalidRank { rank: 1, size: 1 }
        );
        assert_ne!(CommError::WorldStopped, CommError::InvalidRank { rank: 0, size: 1 });
    }
}
