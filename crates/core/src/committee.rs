//! Committee selection under heterogeneous reliability (§4).
//!
//! "In deployments where nodes' reliability exceeds application requirements,
//! probabilistic protocols can sample committees, in particular, to select only the
//! reliable nodes." This module evaluates how reliable a committee-run protocol is, both
//! for explicitly chosen committees (the most reliable `k` nodes) and for randomly
//! sampled ones (Algorand-style sortition over a heterogeneous fleet, with seeded
//! uniform or reliability-weighted sampling as the deterministic stand-in for VRFs).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::analyzer::{analyze, ReliabilityReport};
use crate::deployment::Deployment;
use crate::montecarlo::chunk_seed;
use crate::protocol::CountingModel;

fn check_committee_size(universe: usize, size: usize) {
    assert!(size <= universe, "committee larger than cluster");
    assert!(size >= 1, "committee must be non-empty");
}

/// Samples round `round`'s committee of `size` members uniformly from `universe`
/// nodes, returning member indices in ascending order. Deterministic per
/// `(seed, round)`, so every correct node derives the same committee.
pub fn sample_uniform(universe: usize, size: usize, seed: u64, round: u64) -> Vec<usize> {
    check_committee_size(universe, size);
    let mut rng = StdRng::seed_from_u64(chunk_seed(seed, round));
    // Partial Fisher–Yates: the first `size` slots end up a uniform `size`-subset.
    let mut indices: Vec<usize> = (0..universe).collect();
    for i in 0..size {
        let j = rng.gen_range(i..universe);
        indices.swap(i, j);
    }
    indices.truncate(size);
    indices.sort_unstable();
    indices
}

/// Samples round `round`'s committee of `size` members with per-node selection
/// `weights` (higher weight → more likely to be selected), without replacement,
/// returning member indices in ascending order. Deterministic per `(seed, round)`.
///
/// This is the probability-native refinement of §4: weights are typically the inverse
/// of each node's fault probability, biasing committees toward reliable nodes.
pub fn sample_weighted(weights: &[f64], size: usize, seed: u64, round: u64) -> Vec<usize> {
    check_committee_size(weights.len(), size);
    assert!(
        weights.iter().all(|&w| w > 0.0 && w.is_finite()),
        "weights must be positive and finite"
    );
    let mut rng = StdRng::seed_from_u64(chunk_seed(seed, round));
    let mut remaining: Vec<usize> = (0..weights.len()).collect();
    let mut committee = Vec::with_capacity(size);
    for _ in 0..size {
        let total: f64 = remaining.iter().map(|&i| weights[i]).sum();
        let mut draw = rng.gen::<f64>() * total;
        let mut chosen = remaining.len() - 1;
        for (pos, &i) in remaining.iter().enumerate() {
            draw -= weights[i];
            if draw <= 0.0 {
                chosen = pos;
                break;
            }
        }
        committee.push(remaining.swap_remove(chosen));
    }
    committee.sort_unstable();
    committee
}

/// Restricts a deployment to the given member indices (in the given order), producing the
/// sub-deployment the committee runs on.
pub fn sub_deployment(deployment: &Deployment, members: &[usize]) -> Deployment {
    assert!(!members.is_empty(), "committee must be non-empty");
    Deployment::from_profiles(
        members
            .iter()
            .map(|&i| {
                assert!(i < deployment.len(), "committee member {i} out of range");
                deployment.profile(i)
            })
            .collect(),
    )
}

/// Selects the `size` most reliable nodes as the committee.
pub fn most_reliable_committee(deployment: &Deployment, size: usize) -> Vec<usize> {
    assert!(size >= 1 && size <= deployment.len());
    deployment.nodes_by_reliability()[..size].to_vec()
}

/// Analyzes the protocol produced by `model_for(committee_size)` when run on the `size`
/// most reliable nodes of the deployment.
pub fn committee_reliability<M, F>(
    deployment: &Deployment,
    size: usize,
    model_for: F,
) -> ReliabilityReport
where
    M: CountingModel,
    F: Fn(usize) -> M,
{
    let committee = most_reliable_committee(deployment, size);
    let sub = sub_deployment(deployment, &committee);
    analyze(&model_for(size), &sub)
}

/// Compares running the protocol on the whole cluster against running it on a committee
/// of the most reliable nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitteeComparison {
    /// Reliability when every node participates.
    pub full_cluster: ReliabilityReport,
    /// Reliability when only the committee participates.
    pub committee: ReliabilityReport,
    /// Committee size used.
    pub committee_size: usize,
    /// Message-complexity proxy: committee size over cluster size (quadratic protocols
    /// gain the square of this).
    pub participation_fraction: f64,
}

/// Runs the comparison for a committee of the `size` most reliable nodes.
pub fn committee_vs_full_cluster<M, F>(
    deployment: &Deployment,
    size: usize,
    model_for: F,
) -> CommitteeComparison
where
    M: CountingModel,
    F: Fn(usize) -> M,
{
    CommitteeComparison {
        full_cluster: analyze(&model_for(deployment.len()), deployment),
        committee: committee_reliability(deployment, size, &model_for),
        committee_size: size,
        participation_fraction: size as f64 / deployment.len() as f64,
    }
}

/// Estimates, by sampling committees and fault draws, the probability that a *randomly
/// sampled* committee of `committee_size` nodes keeps the protocol safe and live.
///
/// Sampling is uniform when `reliability_weighted` is false and inversely proportional to
/// each node's fault probability when true (the probability-native refinement).
pub fn sampled_committee_reliability<M, F, R>(
    deployment: &Deployment,
    committee_size: usize,
    model_for: F,
    reliability_weighted: bool,
    rounds: usize,
    rng: &mut R,
) -> f64
where
    M: CountingModel,
    F: Fn(usize) -> M,
    R: Rng + ?Sized,
{
    assert!(rounds > 0);
    let seed: u64 = rng.gen();
    let weights: Vec<f64> = deployment
        .profiles()
        .iter()
        .map(|p| 1.0 / (p.fault_probability() + 1e-6))
        .collect();
    let model = model_for(committee_size);
    let mut ok = 0usize;
    for round in 0..rounds as u64 {
        let members = if reliability_weighted {
            sample_weighted(&weights, committee_size, seed, round)
        } else {
            sample_uniform(deployment.len(), committee_size, seed, round)
        };
        let sub = sub_deployment(deployment, &members);
        // Draw one fault configuration for the committee members and check the counts.
        let mut crashed = 0usize;
        let mut byz = 0usize;
        for profile in sub.profiles() {
            let u: f64 = rng.gen();
            if u < profile.byzantine_probability() {
                byz += 1;
            } else if u < profile.fault_probability() {
                crashed += 1;
            }
        }
        if model.is_safe_counts(crashed, byz) && model.is_live_counts(crashed, byz) {
            ok += 1;
        }
    }
    ok as f64 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raft_model::RaftModel;
    use fault_model::mode::FaultProfile;
    use proptest::prelude::*;

    fn heterogeneous(n_reliable: usize, n_flaky: usize) -> Deployment {
        let mut profiles = vec![FaultProfile::crash_only(0.005); n_reliable];
        profiles.extend(vec![FaultProfile::crash_only(0.10); n_flaky]);
        Deployment::from_profiles(profiles)
    }

    #[test]
    fn sub_deployment_extracts_members() {
        let d = heterogeneous(2, 2);
        let sub = sub_deployment(&d, &[0, 3]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.profile(1).crash_probability(), 0.10);
    }

    #[test]
    fn most_reliable_committee_prefers_good_nodes() {
        let d = heterogeneous(3, 6);
        let committee = most_reliable_committee(&d, 3);
        assert_eq!(committee, vec![0, 1, 2]);
    }

    #[test]
    fn reliable_committee_beats_flaky_full_cluster() {
        // 3 reliable + 6 flaky nodes: a 3-node committee of reliable nodes is more
        // reliable than the 9-node cluster dominated by flaky nodes? Not necessarily —
        // but it must beat a 3-node committee of the *least* reliable nodes, and be
        // close to the full cluster while using a third of the machines.
        let d = heterogeneous(3, 6);
        let cmp = committee_vs_full_cluster(&d, 3, RaftModel::standard);
        let flaky_sub = sub_deployment(&d, &[6, 7, 8]);
        let flaky_report = analyze(&RaftModel::standard(3), &flaky_sub);
        assert!(
            cmp.committee.safe_and_live.probability() > flaky_report.safe_and_live.probability()
        );
        assert!((cmp.participation_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!(cmp.committee.safe_and_live.probability() > 0.999);
    }

    #[test]
    fn sampled_committee_reliability_weighting_helps() {
        let d = heterogeneous(5, 15);
        let mut rng = StdRng::seed_from_u64(3);
        let uniform =
            sampled_committee_reliability(&d, 5, RaftModel::standard, false, 4_000, &mut rng);
        let weighted =
            sampled_committee_reliability(&d, 5, RaftModel::standard, true, 4_000, &mut rng);
        assert!(
            weighted >= uniform,
            "weighted {weighted} should beat uniform {uniform}"
        );
        assert!(weighted > 0.99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_deployment_checks_indices() {
        sub_deployment(&heterogeneous(1, 1), &[5]);
    }

    #[test]
    fn sampling_is_deterministic_per_round_and_varies_across_rounds() {
        let a1 = sample_uniform(40, 7, 42, 3);
        let a2 = sample_uniform(40, 7, 42, 3);
        let b = sample_uniform(40, 7, 42, 4);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.len(), 7);
    }

    #[test]
    fn uniform_sample_has_requested_size_and_is_in_range() {
        for size in 1..=10 {
            let c = sample_uniform(10, size, 3, 0);
            assert_eq!(c.len(), size);
            assert!(c.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn uniform_sampling_is_roughly_uniform() {
        let mut counts = [0usize; 6];
        for round in 0..30_000 {
            for i in sample_uniform(6, 2, 4, round) {
                counts[i] += 1;
            }
        }
        // Each node should appear in about 1/3 of the committees.
        for &c in &counts {
            let frac = c as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "frac {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "committee larger than cluster")]
    fn oversized_committee_is_rejected() {
        sample_uniform(3, 4, 5, 0);
    }

    #[test]
    fn weighted_sampling_prefers_reliable_nodes() {
        // Nodes 0..10 are 100x more attractive than nodes 10..20.
        let weights: Vec<f64> = (0..20).map(|i| if i < 10 { 100.0 } else { 1.0 }).collect();
        let mut reliable_picks = 0usize;
        let mut total = 0usize;
        for round in 0..500 {
            let committee = sample_weighted(&weights, 5, 7, round);
            reliable_picks += committee.iter().filter(|&&i| i < 10).count();
            total += committee.len();
        }
        let frac = reliable_picks as f64 / total as f64;
        assert!(frac > 0.9, "reliable fraction {frac}");
    }

    proptest! {
        #[test]
        fn sampled_committees_have_spec_size(universe in 5usize..60, seed in 0u64..500) {
            let size = (universe / 3).max(1);
            let c = sample_uniform(universe, size, seed, seed);
            prop_assert_eq!(c.len(), size);
            prop_assert!(c.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(c.iter().all(|&i| i < universe));
        }
    }
}
