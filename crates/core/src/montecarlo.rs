//! Monte Carlo reliability estimation.
//!
//! Exact engines cover independent faults. Once failures are *correlated* (§2(3)) the
//! joint distribution no longer factorizes and the paper notes that "Markov models ...
//! are unable to capture dependent system transitions"; sampling remains applicable.
//! This engine draws failure configurations from a [`CorrelationModel`] (which can also
//! express plain independent deployments) and estimates safety/liveness probabilities
//! with binomial-proportion confidence intervals.
//!
//! # Kernels
//!
//! Two sampling kernels implement the same estimator:
//!
//! * **Scalar** — one scenario at a time, allocation-free: each work chunk reuses a
//!   single scratch [`FailureConfig`] filled in place by
//!   [`CorrelationModel::sample_into`]. The only kernel that can evaluate arbitrary
//!   (placement-sensitive) protocol models.
//! * **Packed** ([`crate::packed`]) — 64 scenarios per pass in bit-sliced `u64`
//!   lanes, for [`CountingModel`](crate::protocol::CountingModel)s. Roughly an order
//!   of magnitude more throughput per core; its RNG stream necessarily differs from
//!   the scalar kernel's, so the two agree statistically, not bit-for-bit.
//!
//! [`monte_carlo_reliability_par`] auto-selects (packed when the model supports
//! counting, scalar otherwise); [`monte_carlo_reliability_par_kernel`] pins a kernel
//! explicitly (see [`McKernel`], exposed to callers through
//! [`Budget::mc_kernel`](crate::engine::Budget)).
//!
//! # Parallelism and determinism
//!
//! Sampling is embarrassingly parallel, and it is the hot path for every correlated or
//! large-N scenario, so [`monte_carlo_reliability_par`] fans the work out with rayon's
//! persistent worker pool. Determinism is preserved by construction: the sample budget
//! is split into fixed-size chunks (independent of the thread count), every chunk gets
//! its own RNG seeded from the run seed and the chunk index, and the per-chunk hit
//! counters are integers whose sum is associative and commutative. The result is
//! therefore bit-identical for a fixed seed no matter how many worker threads execute
//! it — per kernel: the two kernels are distinct deterministic streams.

use fault_model::correlation::CorrelationModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::deployment::Deployment;
use crate::failure::FailureConfig;
use crate::protocol::ProtocolModel;

/// The 97.5% standard-normal quantile: the `z` of every 95% confidence interval in
/// the analysis layer (Wilson intervals here, delta-method intervals in
/// [`crate::rare_event`], sample-equivalence math in the bench harness).
pub const Z_95: f64 = 1.959964;

/// A probability estimated from samples, with a 95% Wilson confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate (sample proportion).
    pub value: f64,
    /// Lower bound of the 95% confidence interval.
    pub lower: f64,
    /// Upper bound of the 95% confidence interval.
    pub upper: f64,
}

impl Estimate {
    /// A Wilson-interval estimate from `hits` successes out of `samples` draws.
    /// Shared by the sampling kernels and the simulation engine
    /// ([`crate::simulation`]), whose trial frequencies are binomial proportions of
    /// exactly this shape.
    pub(crate) fn from_counts(hits: usize, samples: usize) -> Self {
        assert!(samples > 0);
        assert!(hits <= samples, "more hits than samples");
        let n = samples as f64;
        let p = hits as f64 / n;
        let z = Z_95;
        let denom = 1.0 + z * z / n;
        let center = (p + z * z / (2.0 * n)) / denom;
        let margin = (z / denom) * ((p * (1.0 - p) / n) + (z * z / (4.0 * n * n))).sqrt();
        // At the degenerate corners (0 hits, all hits, n = 1) the Wilson bounds are
        // exactly 0 or 1 mathematically, but the floating-point evaluation can drift a
        // few ulps past the point estimate or outside [0, 1]; clamp both ways so the
        // interval invariant 0 <= lower <= value <= upper <= 1 always holds.
        Self::checked(
            p,
            (center - margin).clamp(0.0, 1.0).min(p),
            (center + margin).clamp(0.0, 1.0).max(p),
        )
    }

    /// An estimate `value` with a symmetric `margin`, clamped into `[0, 1]` while
    /// keeping the interval around the point estimate. Used by the weighted
    /// (importance-sampling) estimator, whose delta-method standard error is symmetric.
    pub fn from_value_and_margin(value: f64, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative, got {margin}");
        let value = value.clamp(0.0, 1.0);
        Self::checked(
            value,
            (value - margin).clamp(0.0, 1.0),
            (value + margin).clamp(0.0, 1.0),
        )
    }

    fn checked(value: f64, lower: f64, upper: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&lower)
                && (0.0..=1.0).contains(&upper)
                && lower <= value
                && value <= upper,
            "estimate invariant violated: lower {lower} <= value {value} <= upper {upper}"
        );
        Self {
            value,
            lower,
            upper,
        }
    }

    /// Whether the interval contains `p`.
    pub fn contains(&self, p: f64) -> bool {
        self.lower <= p && p <= self.upper
    }

    /// Half-width of the confidence interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }
}

/// Monte Carlo estimates of safety and liveness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloReport {
    /// Estimated probability of safety.
    pub safe: Estimate,
    /// Estimated probability of liveness.
    pub live: Estimate,
    /// Estimated probability of both.
    pub safe_and_live: Estimate,
    /// Number of samples drawn.
    pub samples: usize,
    /// The kernel that actually drew the samples — never [`McKernel::Auto`]. In
    /// particular, a run pinned to [`McKernel::Packed`] on a model without a
    /// counting view reports [`McKernel::Scalar`] here, so kernel comparisons can
    /// detect that they did not measure what they pinned.
    pub kernel: McKernel,
}

/// Per-chunk hit counters. Integer sums are exact and order-independent, which is what
/// makes the parallel reduction deterministic regardless of scheduling. Shared with
/// the bit-sliced kernel in [`crate::packed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HitCounts {
    pub(crate) safe: usize,
    pub(crate) live: usize,
    pub(crate) both: usize,
}

impl std::ops::Add for HitCounts {
    type Output = HitCounts;

    fn add(self, other: HitCounts) -> HitCounts {
        HitCounts {
            safe: self.safe + other.safe,
            live: self.live + other.live,
            both: self.both + other.both,
        }
    }
}

/// Draws `count` configurations from `failure_model` with `rng` and tallies hits.
///
/// Allocation-free inner loop: one scratch [`FailureConfig`] is allocated per chunk
/// and refilled in place by [`CorrelationModel::sample_into`] for every draw. For
/// [`CountingModel`](crate::protocol::CountingModel)s the per-draw predicate calls
/// collapse to one fault-count scan and three table lookups (see
/// [`counting_sample_chunk`]).
pub(crate) fn sample_chunk<M: ProtocolModel + ?Sized>(
    model: &M,
    failure_model: &CorrelationModel,
    count: usize,
    rng: &mut impl Rng,
) -> HitCounts {
    if let Some(counting) = model.as_counting() {
        return counting_sample_chunk(counting, failure_model, count, rng);
    }
    let mut hits = HitCounts::default();
    let mut scratch = FailureConfig::all_correct(failure_model.len());
    for _ in 0..count {
        failure_model.sample_into(scratch.states_mut(), rng);
        let safe = model.is_safe(&scratch);
        let live = model.is_live(&scratch);
        if safe {
            hits.safe += 1;
        }
        if live {
            hits.live += 1;
        }
        if safe && live {
            hits.both += 1;
        }
    }
    hits
}

/// [`sample_chunk`] for counting models: one scan of the sampled states collapses
/// to a `(crashed, byzantine)` pair and three count predicates, instead of the two
/// full state-vector scans (`is_safe`, `is_live`) the generic path pays per draw.
/// Bit-identical to the generic path by the [`CountingModel`](crate::protocol::CountingModel)
/// contract — the RNG stream and the predicate values are unchanged.
fn counting_sample_chunk(
    model: &dyn crate::protocol::CountingModel,
    failure_model: &CorrelationModel,
    count: usize,
    rng: &mut impl Rng,
) -> HitCounts {
    use fault_model::mode::NodeState;
    let mut hits = HitCounts::default();
    let mut scratch = FailureConfig::all_correct(failure_model.len());
    for _ in 0..count {
        failure_model.sample_into(scratch.states_mut(), rng);
        let mut crashed = 0usize;
        let mut byzantine = 0usize;
        for &state in scratch.states() {
            crashed += usize::from(state == NodeState::Crashed);
            byzantine += usize::from(state == NodeState::Byzantine);
        }
        let safe = model.is_safe_counts(crashed, byzantine);
        let live = model.is_live_counts(crashed, byzantine);
        if safe {
            hits.safe += 1;
        }
        if live {
            hits.live += 1;
        }
        if safe && live {
            hits.both += 1;
        }
    }
    hits
}

pub(crate) fn report_from_counts(
    hits: HitCounts,
    samples: usize,
    kernel: McKernel,
) -> MonteCarloReport {
    debug_assert_ne!(kernel, McKernel::Auto, "reports name a concrete kernel");
    MonteCarloReport {
        safe: Estimate::from_counts(hits.safe, samples),
        live: Estimate::from_counts(hits.live, samples),
        safe_and_live: Estimate::from_counts(hits.both, samples),
        samples,
        kernel,
    }
}

/// Estimates the reliability of `model` under a (possibly correlated) failure model by
/// drawing `samples` failure configurations from a caller-provided generator, on the
/// calling thread.
///
/// This is the single-threaded reference path; [`monte_carlo_reliability_par`] is the
/// parallel engine used by the analyzer.
///
/// A zero sample budget saturates to one sample, so the result is always a
/// well-defined (if maximally uncertain) estimate — never a division by zero.
pub fn monte_carlo_reliability<M: ProtocolModel + ?Sized, R: Rng + ?Sized>(
    model: &M,
    failure_model: &CorrelationModel,
    samples: usize,
    rng: &mut R,
) -> MonteCarloReport {
    let samples = samples.max(1);
    assert_eq!(
        model.num_nodes(),
        failure_model.len(),
        "model and failure model disagree on the cluster size"
    );
    let mut rng = rng;
    let hits = sample_chunk(model, failure_model, samples, &mut rng);
    report_from_counts(hits, samples, McKernel::Scalar)
}

/// Number of samples per parallel work unit.
///
/// The chunk count depends only on the sample budget — never on the thread count — so a
/// fixed seed yields a bit-identical report on any machine. 4096 samples amortise
/// scheduling overhead while still giving a 16-way pool enough units to balance a
/// 200k-sample run.
pub const MC_CHUNK_SIZE: usize = 4096;

/// The SplitMix64 finalizer (Steele et al., OOPSLA '14): a bijective avalanche mix,
/// shared by [`chunk_seed`] and the packed kernel's position-addressed draws
/// ([`crate::packed`]).
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of chunk `index` within a run seeded with `seed` (SplitMix64
/// finalizer over the pair, so neighbouring chunks get decorrelated streams). Committee
/// sampling ([`crate::committee`]) seeds each round the same way.
pub(crate) fn chunk_seed(seed: u64, index: u64) -> u64 {
    mix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Number of [`MC_CHUNK_SIZE`]-sized work units a sample budget splits into (a zero
/// budget saturates to one sample first). The single source of the chunk layout,
/// shared by [`map_sample_chunks`] and the sweep scheduler
/// ([`crate::query`]), which decomposes Monte Carlo cells into exactly these chunks —
/// identical layout is what keeps the scheduled merge bit-identical to a whole-cell
/// run.
pub(crate) fn chunk_count(samples: usize) -> usize {
    samples.max(1).div_ceil(MC_CHUNK_SIZE)
}

/// Sample count of chunk `index` within a budget of `samples`: every chunk is
/// [`MC_CHUNK_SIZE`] except a ragged last one.
pub(crate) fn chunk_len(samples: usize, index: usize) -> usize {
    let samples = samples.max(1);
    let chunks = samples.div_ceil(MC_CHUNK_SIZE);
    debug_assert!(index < chunks);
    if index == chunks - 1 {
        samples - index * MC_CHUNK_SIZE
    } else {
        MC_CHUNK_SIZE
    }
}

/// The shared chunked-sampling scaffolding behind the plain and tilted
/// (importance-sampling, see [`crate::rare_event`]) parallel samplers.
///
/// Splits `samples` into [`MC_CHUNK_SIZE`]-sized work units (the last one ragged),
/// runs `per_chunk(rng, count)` for each across the rayon pool with chunk `i`'s RNG
/// seeded from `chunk_seed(seed, i)`, and returns the per-chunk results **in chunk
/// order**. Collecting in chunk order (rather than reducing on the fly) is what lets
/// callers with non-associative accumulators — floating-point weight sums — fold the
/// results sequentially and still be bit-identical at any thread count.
pub(crate) fn map_sample_chunks<T, F>(samples: usize, seed: u64, per_chunk: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut StdRng, usize) -> T + Sync,
{
    let chunks = chunk_count(samples);
    (0..chunks)
        .into_par_iter()
        .map(|index| {
            let mut rng = StdRng::seed_from_u64(chunk_seed(seed, index as u64));
            per_chunk(&mut rng, chunk_len(samples, index))
        })
        .collect()
}

/// Which sampling kernel the parallel Monte Carlo engine runs.
///
/// The default (`Auto`) uses the bit-sliced packed kernel whenever the model is a
/// [`CountingModel`](crate::protocol::CountingModel) and the scalar kernel otherwise.
/// Pinning a kernel is for benchmarks and cross-kernel agreement tests; results of
/// the two kernels agree statistically but come from different RNG streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum McKernel {
    /// Packed for counting models, scalar for everything else.
    #[default]
    Auto,
    /// The allocation-free one-scenario-at-a-time kernel (works for every model).
    Scalar,
    /// The bit-sliced 64-scenarios-per-pass kernel ([`crate::packed`]); requires a
    /// counting model, falls back to scalar when the model is not one.
    Packed,
}

/// Estimates the reliability of `model` under a (possibly correlated) failure model by
/// drawing `samples` failure configurations across the persistent thread pool,
/// auto-selecting the sampling kernel ([`McKernel::Auto`]).
///
/// Deterministic for a fixed `seed` regardless of thread count: samples are split into
/// [`MC_CHUNK_SIZE`]-sized chunks, chunk `i` uses a `StdRng` seeded with
/// `chunk_seed(seed, i)`, and the integer hit counters are summed.
///
/// A zero sample budget saturates to one sample (see [`monte_carlo_reliability`]).
pub fn monte_carlo_reliability_par<M: ProtocolModel + ?Sized>(
    model: &M,
    failure_model: &CorrelationModel,
    samples: usize,
    seed: u64,
) -> MonteCarloReport {
    monte_carlo_reliability_par_kernel(model, failure_model, samples, seed, McKernel::Auto)
}

/// [`monte_carlo_reliability_par`] with an explicitly pinned sampling kernel.
pub fn monte_carlo_reliability_par_kernel<M: ProtocolModel + ?Sized>(
    model: &M,
    failure_model: &CorrelationModel,
    samples: usize,
    seed: u64,
    kernel: McKernel,
) -> MonteCarloReport {
    monte_carlo_reliability_par_kernel_lanes(
        model,
        failure_model,
        samples,
        seed,
        kernel,
        crate::packed::DEFAULT_LANE_WORDS,
    )
}

/// [`monte_carlo_reliability_par_kernel`] with an explicit packed pass width
/// ([`Budget::mc_lane_words`](crate::engine::Budget)); the width is ignored by the
/// scalar kernel and never changes a packed result, only its throughput.
pub fn monte_carlo_reliability_par_kernel_lanes<M: ProtocolModel + ?Sized>(
    model: &M,
    failure_model: &CorrelationModel,
    samples: usize,
    seed: u64,
    kernel: McKernel,
    lane_words: usize,
) -> MonteCarloReport {
    assert_eq!(
        model.num_nodes(),
        failure_model.len(),
        "model and failure model disagree on the cluster size"
    );
    if kernel != McKernel::Scalar {
        if let Some(counting) = model.as_counting() {
            return crate::packed::monte_carlo_reliability_packed_par_lanes(
                counting,
                failure_model,
                samples,
                seed,
                lane_words,
            );
        }
    }
    monte_carlo_scalar_par(model, failure_model, samples, seed)
}

/// The scalar kernel across the pool on an already-prepared failure model — the tail
/// of [`monte_carlo_reliability_par_kernel`], shared with the query API
/// ([`crate::query`]), whose planned cells convert a scenario to its correlation
/// model once per cell group instead of once per call.
pub(crate) fn monte_carlo_scalar_par<M: ProtocolModel + ?Sized>(
    model: &M,
    failure_model: &CorrelationModel,
    samples: usize,
    seed: u64,
) -> MonteCarloReport {
    assert_eq!(
        model.num_nodes(),
        failure_model.len(),
        "model and failure model disagree on the cluster size"
    );
    let samples = samples.max(1);
    let hits = map_sample_chunks(samples, seed, |rng, count| {
        sample_chunk(model, failure_model, count, rng)
    })
    .into_iter()
    .fold(HitCounts::default(), std::ops::Add::add);
    report_from_counts(hits, samples, McKernel::Scalar)
}

/// Convenience wrapper: Monte Carlo over an *independent* deployment (no correlation
/// groups), e.g. to cross-check the exact engines or to handle non-counting models at
/// large N.
pub fn monte_carlo_independent<M: ProtocolModel + ?Sized, R: Rng + ?Sized>(
    model: &M,
    deployment: &Deployment,
    samples: usize,
    rng: &mut R,
) -> MonteCarloReport {
    let failure_model = CorrelationModel::independent(deployment.profiles().to_vec());
    monte_carlo_reliability(model, &failure_model, samples, rng)
}

/// Parallel counterpart of [`monte_carlo_independent`].
pub fn monte_carlo_independent_par<M: ProtocolModel + ?Sized>(
    model: &M,
    deployment: &Deployment,
    samples: usize,
    seed: u64,
) -> MonteCarloReport {
    let failure_model = CorrelationModel::independent(deployment.profiles().to_vec());
    monte_carlo_reliability_par(model, &failure_model, samples, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::counting_reliability;
    use crate::raft_model::RaftModel;
    use fault_model::correlation::CorrelationGroup;
    use fault_model::mode::FaultProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimate_interval_contains_truth_for_fair_coin() {
        let e = Estimate::from_counts(5_050, 10_000);
        assert!(e.contains(0.5));
        assert!(e.half_width() < 0.02);
    }

    /// Asserts the interval invariant `0 <= lower <= value <= upper <= 1`.
    fn assert_estimate_invariants(e: Estimate, context: &str) {
        assert!(
            e.lower.is_finite() && e.value.is_finite() && e.upper.is_finite(),
            "{context}: non-finite estimate {e:?}"
        );
        assert!(
            0.0 <= e.lower && e.lower <= e.value && e.value <= e.upper && e.upper <= 1.0,
            "{context}: invariant violated {e:?}"
        );
    }

    #[test]
    fn wilson_interval_holds_at_degenerate_corners() {
        // 0 hits, all hits, and n = 1 are where naive Wilson evaluation drifts.
        for n in [1usize, 2, 3, 10, 1_000] {
            for hits in [0, n / 2, n] {
                let e = Estimate::from_counts(hits, n);
                assert_estimate_invariants(e, &format!("hits={hits} n={n}"));
            }
        }
        let zero = Estimate::from_counts(0, 1);
        assert_eq!(zero.value, 0.0);
        assert_eq!(zero.lower, 0.0);
        let all = Estimate::from_counts(7, 7);
        assert_eq!(all.value, 1.0);
        assert_eq!(all.upper, 1.0);
    }

    proptest::proptest! {
        #[test]
        fn wilson_interval_invariants_across_hit_sample_grid(
            samples in 1usize..5_000,
            hit_fraction in 0.0..=1.0f64,
        ) {
            let hits = ((samples as f64) * hit_fraction).round() as usize;
            let hits = hits.min(samples);
            let e = Estimate::from_counts(hits, samples);
            proptest::prop_assert!(e.lower >= 0.0 && e.upper <= 1.0);
            proptest::prop_assert!(e.lower <= e.value && e.value <= e.upper);
            proptest::prop_assert!(e.contains(e.value));
        }
    }

    #[test]
    fn from_value_and_margin_clamps_into_unit_interval() {
        let e = Estimate::from_value_and_margin(1.0 - 1e-12, 1e-6);
        assert_estimate_invariants(e, "near-one with margin");
        assert_eq!(e.upper, 1.0);
        let tiny = Estimate::from_value_and_margin(1e-10, 5e-11);
        assert_estimate_invariants(tiny, "tiny with margin");
        assert!(tiny.contains(1e-10));
    }

    #[test]
    fn zero_sample_budget_saturates_to_one_sample() {
        let model = RaftModel::standard(3);
        let failure_model = CorrelationModel::independent(vec![FaultProfile::crash_only(0.1); 3]);
        let mut rng = StdRng::seed_from_u64(9);
        let seq = monte_carlo_reliability(&model, &failure_model, 0, &mut rng);
        assert_eq!(seq.samples, 1);
        let par = monte_carlo_reliability_par(&model, &failure_model, 0, 9);
        assert_eq!(par.samples, 1);
        for e in [seq.safe, seq.live, seq.safe_and_live, par.safe, par.live] {
            assert!(e.value.is_finite() && e.lower.is_finite() && e.upper.is_finite());
            assert!(0.0 <= e.lower && e.lower <= e.value && e.value <= e.upper && e.upper <= 1.0);
        }
    }

    #[test]
    fn monte_carlo_agrees_with_exact_analysis() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let exact = counting_reliability(&model, &deployment);
        let mut rng = StdRng::seed_from_u64(11);
        let mc = monte_carlo_independent(&model, &deployment, 200_000, &mut rng);
        assert!(
            mc.live.contains(exact.p_live),
            "exact {} not in [{}, {}]",
            exact.p_live,
            mc.live.lower,
            mc.live.upper
        );
        assert!((mc.safe.value - 1.0).abs() < 1e-12);
        assert_eq!(mc.samples, 200_000);
    }

    #[test]
    fn correlated_failures_reduce_liveness() {
        let model = RaftModel::standard(5);
        let profiles = vec![FaultProfile::crash_only(0.02); 5];
        let independent = CorrelationModel::independent(profiles.clone());
        let correlated = CorrelationModel::independent(profiles)
            .with_group(CorrelationGroup::crash_shock((0..5).collect(), 0.01));
        let mut rng = StdRng::seed_from_u64(5);
        let ind = monte_carlo_reliability(&model, &independent, 100_000, &mut rng);
        let cor = monte_carlo_reliability(&model, &correlated, 100_000, &mut rng);
        assert!(cor.live.value < ind.live.value - 0.005);
    }

    #[test]
    #[should_panic(expected = "disagree on the cluster size")]
    fn size_mismatch_panics() {
        let model = RaftModel::standard(3);
        let failure_model = CorrelationModel::independent(vec![FaultProfile::crash_only(0.1); 4]);
        let mut rng = StdRng::seed_from_u64(1);
        monte_carlo_reliability(&model, &failure_model, 10, &mut rng);
    }

    #[test]
    fn parallel_estimate_agrees_with_exact_analysis() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let exact = counting_reliability(&model, &deployment);
        let mc = monte_carlo_independent_par(&model, &deployment, 200_000, 11);
        assert!(
            mc.live.contains(exact.p_live),
            "exact {} not in [{}, {}]",
            exact.p_live,
            mc.live.lower,
            mc.live.upper
        );
        assert!((mc.safe.value - 1.0).abs() < 1e-12);
        assert_eq!(mc.samples, 200_000);
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        let model = RaftModel::standard(7);
        let profiles = vec![FaultProfile::crash_only(0.04); 7];
        let failure_model = CorrelationModel::independent(profiles)
            .with_group(CorrelationGroup::crash_shock((0..7).collect(), 0.01));
        // An awkward sample count: exercises the short tail chunk.
        let samples = 3 * MC_CHUNK_SIZE + 17;
        let reference = monte_carlo_reliability_par(&model, &failure_model, samples, 42);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let report =
                pool.install(|| monte_carlo_reliability_par(&model, &failure_model, samples, 42));
            assert_eq!(report, reference, "divergence at {threads} threads");
        }
    }

    #[test]
    fn parallel_is_deterministic_per_seed_and_sensitive_to_it() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.08);
        let a = monte_carlo_independent_par(&model, &deployment, 20_000, 1);
        let b = monte_carlo_independent_par(&model, &deployment, 20_000, 1);
        assert_eq!(a, b);
        // Two seeds can collide on the same hit count by chance; across five seeds at
        // ~12 hits of standard deviation, identical counts everywhere would mean the
        // seed is being ignored.
        let distinct = (2u64..=6)
            .map(|seed| monte_carlo_independent_par(&model, &deployment, 20_000, seed))
            .filter(|r| *r != a)
            .count();
        assert!(
            distinct > 0,
            "different seeds should draw different samples"
        );
    }
}
