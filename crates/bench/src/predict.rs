//! Fast analytic predictor: compute the contention-free Hockney makespan of
//! a scatter-ring broadcast *without running any threads*, by evaluating the
//! algorithm's symbolic communication schedule
//! ([`bcast_core::bcast::bcast_schedule`]) as a dependency graph.
//!
//! This is the classic α–β paper-napkin model made executable: each rank's
//! operations form a chain, each matched (send, recv) pair completes at
//! `max(sender_ready, receiver_ready) + handshake + α + sβ`, and the
//! broadcast finishes when the last rank's chain does. It is validated
//! against the full simulator (ideal preset, rendezvous, zero overheads),
//! where both must agree to floating-point accuracy — a strong cross-check
//! that the threaded virtual-time engine computes what the theory says.
//!
//! Because it runs in microseconds it is also the sweep tool for exploring
//! parameter spaces far beyond what thread-per-rank simulation can touch
//! (e.g. `P = 4096`).

use std::collections::HashMap;

use bcast_core::bcast::bcast_schedule;
use bcast_core::{Algorithm, SchedOp};
use netsim::{Level, NetworkModel, Placement};

/// Evaluate the schedule under a contention-free rendezvous Hockney model
/// and return the makespan in nanoseconds.
///
/// Restrictions (checked): rendezvous only (`eager_threshold == 0`), no
/// contention, no per-message CPU overhead — the regime in which the
/// dependency recurrence below is exact. Inter-node rendezvous lets the
/// sender continue after serialization (`start + sβ`); intra-node transfers
/// release both sides at `start + α + sβ`, mirroring the fabric.
pub fn predict_makespan_ns(
    algorithm: Algorithm,
    nbytes: usize,
    p: usize,
    model: &NetworkModel,
    placement: Placement,
) -> f64 {
    assert!(matches!(
        algorithm,
        Algorithm::ScatterRingNative | Algorithm::ScatterRingTuned | Algorithm::Binomial
    ));
    assert_eq!(model.eager_threshold, 0, "predictor covers rendezvous only");
    assert!(!model.contention, "predictor covers the contention-free model only");
    assert_eq!(model.o_send_ns, 0.0);
    assert_eq!(model.o_recv_ns, 0.0);

    let schedule = bcast_schedule(algorithm, p, nbytes, 0);
    let scheds: Vec<&[SchedOp]> = schedule.ranks.iter().map(|r| &r.ops[..]).collect();

    // Matching is FIFO per directed link and tag: the k-th send on
    // (src, dst, tag) matches the k-th receive posted at dst for it.
    // `send_partner[r][i]` / `recv_partner[r][i]` hold the index, in the
    // peer's op list, of the op matched by that half of rank r's op i.
    type Link = (usize, usize, u32);
    let mut sends: HashMap<Link, Vec<usize>> = HashMap::new();
    let mut recvs: HashMap<Link, Vec<usize>> = HashMap::new();
    for (r, ops) in scheds.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if let Some(s) = &op.send {
                sends.entry((r, s.peer, s.tag.0)).or_default().push(i);
            }
            if let Some(rv) = &op.recv {
                recvs.entry((rv.peer, r, rv.tag.0)).or_default().push(i);
            }
        }
    }
    let mut send_partner: Vec<Vec<usize>> = scheds.iter().map(|o| vec![0; o.len()]).collect();
    let mut recv_partner: Vec<Vec<usize>> = scheds.iter().map(|o| vec![0; o.len()]).collect();
    for (&(src, dst, tag), sent) in &sends {
        let posted = recvs.get(&(src, dst, tag)).map_or(&[][..], Vec::as_slice);
        assert_eq!(sent.len(), posted.len(), "unmatched traffic on {src}->{dst} tag {tag:#x}");
        for (&si, &ri) in sent.iter().zip(posted) {
            send_partner[src][si] = ri;
            recv_partner[dst][ri] = si;
        }
    }

    // transfer completion under the rendezvous model, mirroring the fabric:
    // start = max(ready) + handshake; inter-node senders leave after
    // serialization, intra-node transfers release both sides together.
    let xfer = |src: usize, dst: usize, bytes: usize, ready: f64| -> (f64, f64) {
        let level = placement.level(src, dst);
        let costs = model.costs(level);
        let start = ready + model.rendezvous_handshake_ns;
        let end = start + costs.alpha_ns + costs.serialize_ns(bytes);
        match level {
            Level::InterNode => (start + costs.serialize_ns(bytes), end),
            Level::IntraNode => (end, end),
        }
    };

    // Relaxation over per-op completion times: an op is computable once the
    // previous op of this rank and of every partner has completed. The
    // dependency graph is acyclic (indices strictly decrease), so repeated
    // sweeps terminate having computed everything.
    let mut done: Vec<Vec<Option<f64>>> = scheds.iter().map(|o| vec![None; o.len()]).collect();
    let ready_of = |done: &Vec<Vec<Option<f64>>>, r: usize, i: usize| -> Option<f64> {
        if i == 0 {
            Some(0.0)
        } else {
            done[r][i - 1]
        }
    };
    let mut remaining: usize = scheds.iter().map(|ops| ops.len()).sum();
    // first not-yet-computed op per rank: ops complete in order within a
    // rank (each depends on its predecessor), so a cursor suffices
    let mut cursor = vec![0usize; p];
    while remaining > 0 {
        let mut progressed = false;
        for r in 0..p {
            for i in cursor[r]..scheds[r].len() {
                if done[r][i].is_some() {
                    cursor[r] = i + 1;
                    continue;
                }
                let Some(my_ready) = ready_of(&done, r, i) else { break };
                // `None` while a partner is not ready; a nop completes at once.
                let op = &scheds[r][i];
                let mut value = Some(my_ready);
                if let Some(s) = &op.send {
                    let sent = ready_of(&done, s.peer, send_partner[r][i])
                        .map(|pr| xfer(r, s.peer, s.loc.len(), my_ready.max(pr)).0);
                    value = value.zip(sent).map(|(a, b)| a.max(b));
                }
                if let Some(rv) = &op.recv {
                    // A receive's capacity is an upper bound; the bytes on
                    // the wire are the matched send's.
                    let si = recv_partner[r][i];
                    let bytes = scheds[rv.peer][si].send.as_ref().map_or(0, |s| s.loc.len());
                    let received = ready_of(&done, rv.peer, si)
                        .map(|pr| xfer(rv.peer, r, bytes, my_ready.max(pr)).1);
                    value = value.zip(received).map(|(a, b)| a.max(b));
                }
                if let Some(v) = value {
                    done[r][i] = Some(v);
                    cursor[r] = i + 1;
                    remaining -= 1;
                    progressed = true;
                } else {
                    break; // later ops of this rank can't be ready either
                }
            }
        }
        assert!(progressed, "schedule deadlocked - matching bug");
    }
    done.iter().flat_map(|ops| ops.iter().map(|d| d.unwrap())).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_core::verify::pattern;
    use mpsim::Communicator;
    use netsim::SimWorld;

    fn rendezvous_model() -> NetworkModel {
        let mut m = NetworkModel::uniform(800.0, 0.4);
        m.rendezvous_handshake_ns = 350.0;
        // distinct inter level to exercise both paths
        m.inter = netsim::LevelCosts { alpha_ns: 1500.0, beta_ns_per_byte: 0.9 };
        m
    }

    fn simulate(algorithm: Algorithm, nbytes: usize, p: usize, cores: usize) -> f64 {
        let model = rendezvous_model();
        let src = pattern(nbytes, 3);
        let out = SimWorld::run(model, Placement::new(cores), p, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            bcast_core::bcast_with(comm, &mut buf, 0, algorithm).unwrap();
            assert_eq!(buf, src);
        });
        out.makespan_ns
    }

    #[test]
    fn predictor_matches_simulator_native() {
        for &(p, nbytes, cores) in
            &[(4usize, 4096usize, 2usize), (8, 10_000, 4), (10, 4096, 24), (13, 999, 3)]
        {
            let predicted = predict_makespan_ns(
                Algorithm::ScatterRingNative,
                nbytes,
                p,
                &rendezvous_model(),
                Placement::new(cores),
            );
            let simulated = simulate(Algorithm::ScatterRingNative, nbytes, p, cores);
            let rel = (predicted - simulated).abs() / simulated.max(1.0);
            assert!(
                rel < 1e-9,
                "native p={p} nbytes={nbytes}: predicted {predicted} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn predictor_matches_simulator_tuned() {
        for &(p, nbytes, cores) in &[
            (4usize, 4096usize, 2usize),
            (8, 10_000, 4),
            (10, 4096, 24),
            (13, 999, 3),
            (24, 65_536, 24),
        ] {
            let predicted = predict_makespan_ns(
                Algorithm::ScatterRingTuned,
                nbytes,
                p,
                &rendezvous_model(),
                Placement::new(cores),
            );
            let simulated = simulate(Algorithm::ScatterRingTuned, nbytes, p, cores);
            let rel = (predicted - simulated).abs() / simulated.max(1.0);
            assert!(
                rel < 1e-9,
                "tuned p={p} nbytes={nbytes}: predicted {predicted} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn predictor_matches_simulator_binomial() {
        for &(p, nbytes, cores) in &[(4usize, 4096usize, 2usize), (10, 10_000, 24), (13, 999, 3)] {
            let predicted = predict_makespan_ns(
                Algorithm::Binomial,
                nbytes,
                p,
                &rendezvous_model(),
                Placement::new(cores),
            );
            let simulated = simulate(Algorithm::Binomial, nbytes, p, cores);
            let rel = (predicted - simulated).abs() / simulated.max(1.0);
            assert!(
                rel < 1e-9,
                "binomial p={p} nbytes={nbytes}: predicted {predicted} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn binomial_vs_ring_crossover_in_the_analytic_model() {
        // latency-bound: binomial wins; bandwidth-bound: the rings win —
        // the reason MPICH switches algorithms at all.
        let m = rendezvous_model();
        let placement = Placement::new(24);
        let small_binomial = predict_makespan_ns(Algorithm::Binomial, 1024, 16, &m, placement);
        let small_ring = predict_makespan_ns(Algorithm::ScatterRingTuned, 1024, 16, &m, placement);
        assert!(small_binomial < small_ring);
        let big_binomial = predict_makespan_ns(Algorithm::Binomial, 1 << 22, 16, &m, placement);
        let big_ring = predict_makespan_ns(Algorithm::ScatterRingTuned, 1 << 22, 16, &m, placement);
        assert!(big_ring < big_binomial);
    }

    #[test]
    fn predictor_scales_to_thousands_of_ranks() {
        // The whole point: sweep sizes no thread-per-rank simulation touches.
        let t = predict_makespan_ns(
            Algorithm::ScatterRingTuned,
            1 << 20,
            2048,
            &rendezvous_model(),
            Placement::new(24),
        );
        let n = predict_makespan_ns(
            Algorithm::ScatterRingNative,
            1 << 20,
            2048,
            &rendezvous_model(),
            Placement::new(24),
        );
        assert!(t > 0.0 && n > 0.0);
        assert!(t <= n * 1.001, "tuned {t} should not exceed native {n}");
    }
}
