//! The network cost model: Hockney (α–β) parameters per communication level,
//! eager/rendezvous protocol selection, and optional resource contention.
//!
//! A point-to-point transfer of `s` bytes costs `α + s·β` on an idle path,
//! with `(α, β)` depending on whether the endpoints share a node. On top of
//! that the simulator models the two scarcity mechanisms the paper's
//! Section IV argues the tuned algorithm relieves:
//!
//! * **inter-node**: each node's NIC injects (and ejects) one message at a
//!   time — concurrent senders on a node queue behind each other
//!   ("the growing number of outgoing inter-node messages will increase the
//!   burden of network routing");
//! * **intra-node**: point-to-point within a node is a memory copy through a
//!   shared memory system — and an *eager* receive pays a second copy out of
//!   the early-arrival buffer ("cpu-interference and buffer memory
//!   allocation").

use crate::topology::Level;

/// α–β cost pair for one communication level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelCosts {
    /// Per-message latency in nanoseconds.
    pub alpha_ns: f64,
    /// Per-byte serialization time in nanoseconds (1/bandwidth).
    pub beta_ns_per_byte: f64,
}

impl LevelCosts {
    /// Serialization-only duration (`s·β`).
    pub fn serialize_ns(&self, bytes: usize) -> f64 {
        bytes as f64 * self.beta_ns_per_byte
    }
}

/// Complete model configuration for a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Intra-node (shared-memory) costs.
    pub intra: LevelCosts,
    /// Inter-node (interconnect) costs.
    pub inter: LevelCosts,
    /// Messages with payloads *strictly below* this many bytes use the eager
    /// protocol; the rest rendezvous. (Cray MPI on Aries defaults to 8 KiB.)
    pub eager_threshold: usize,
    /// Extra latency a rendezvous handshake adds before data can flow.
    pub rendezvous_handshake_ns: f64,
    /// Model the second copy an eager receive performs out of the
    /// early-arrival buffer (always intra-level β at the receiver).
    pub eager_unpack_copy: bool,
    /// Serialize concurrent transfers through per-node NIC (inter) and
    /// memory-channel (intra) resources. Disabling gives the pure,
    /// contention-free Hockney model (useful for closed-form validation).
    pub contention: bool,
    /// Effective concurrency of a node's memory system: `k` concurrent
    /// copies each see the per-stream β, while the *shared* channel is only
    /// occupied for `s·β/k` per copy (aggregate bandwidth = k × per-stream).
    /// A NIC, by contrast, truly serializes (`k = 1` behaviour). Must be ≥ 1.
    pub mem_channels: f64,
    /// Latency charged per dissemination round of a barrier.
    pub barrier_alpha_ns: f64,
    /// CPU overhead a rank pays to issue a send (LogGP's *o*): serial on the
    /// rank's own timeline, independent of message size. This is the "host
    /// processing" cost the paper's Section IV argues the tuned algorithm
    /// alleviates by issuing fewer messages.
    pub o_send_ns: f64,
    /// CPU overhead a rank pays to complete a receive (LogGP's *o*).
    pub o_recv_ns: f64,
    /// Optional shared-backbone serialization for inter-node traffic: every
    /// inter-node message also occupies a single cluster-wide channel for
    /// `bytes × backbone_beta_ns_per_byte`. `0.0` disables it (the default
    /// presets: a Dragonfly's global bandwidth far exceeds a few nodes'
    /// injection rates). Enable it in ablations to study fabrics whose
    /// bisection, not the NICs, is the scarce resource.
    pub backbone_beta_ns_per_byte: f64,
    /// Flow-control credits per directed `(source, destination)` channel:
    /// at most this many eager messages may sit unmatched at the receiver;
    /// further eager sends stall until a receive consumes one (mirroring
    /// MPICH/GNI mailbox credits). Prevents an unthrottled sender from
    /// racing arbitrarily far ahead of its consumers.
    pub eager_credits: usize,
}

/// Protocol chosen for a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Fire-and-forget: sender completes after injecting; data waits in the
    /// receiver's early-arrival buffer.
    Eager,
    /// Handshake first: data moves only once both sides have arrived;
    /// single-copy delivery.
    Rendezvous,
}

impl NetworkModel {
    /// Costs for a level.
    pub fn costs(&self, level: Level) -> LevelCosts {
        match level {
            Level::IntraNode => self.intra,
            Level::InterNode => self.inter,
        }
    }

    /// Protocol for a payload size.
    pub fn protocol(&self, bytes: usize) -> Protocol {
        if bytes < self.eager_threshold {
            Protocol::Eager
        } else {
            Protocol::Rendezvous
        }
    }

    /// A contention-free baseline with identical costs on both levels —
    /// handy for unit tests that want closed-form predictable times.
    pub fn uniform(alpha_ns: f64, beta_ns_per_byte: f64) -> Self {
        let c = LevelCosts { alpha_ns, beta_ns_per_byte };
        NetworkModel {
            intra: c,
            inter: c,
            eager_threshold: 0, // everything rendezvous: fully synchronous
            rendezvous_handshake_ns: 0.0,
            eager_unpack_copy: false,
            contention: false,
            mem_channels: 1.0,
            barrier_alpha_ns: alpha_ns,
            o_send_ns: 0.0,
            o_recv_ns: 0.0,
            eager_credits: usize::MAX,
            backbone_beta_ns_per_byte: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hockney_arithmetic() {
        let c = LevelCosts { alpha_ns: 1000.0, beta_ns_per_byte: 0.5 };
        assert_eq!(c.serialize_ns(10), 5.0);
    }

    #[test]
    fn protocol_threshold() {
        let mut m = NetworkModel::uniform(100.0, 1.0);
        m.eager_threshold = 8192;
        assert_eq!(m.protocol(0), Protocol::Eager);
        assert_eq!(m.protocol(8191), Protocol::Eager);
        assert_eq!(m.protocol(8192), Protocol::Rendezvous);
    }

    #[test]
    fn uniform_model_is_symmetric() {
        let m = NetworkModel::uniform(10.0, 2.0);
        assert_eq!(m.costs(Level::IntraNode), m.costs(Level::InterNode));
        assert_eq!(m.protocol(1), Protocol::Rendezvous); // threshold 0
    }
}
