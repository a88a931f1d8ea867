// Deterministic random number generation.
//
// Every stochastic element of the simulator (loss noise, timing jitter,
// fault and traffic draws) draws from an explicitly-seeded Rng so that
// experiments and tests are reproducible run-to-run.
#pragma once

#include <cstdint>
#include <random>

namespace cynthia::util {

/// Seeded pseudo-random source. Thin wrapper over mt19937_64 with the
/// distributions the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : gen_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Normal truncated to [mean - bound, mean + bound]; keeps noisy
  /// observables (loss, throughput) physically plausible.
  double bounded_normal(double mean, double stddev, double bound);

  /// Multiplicative jitter: returns a factor in [1-eps, 1+eps].
  double jitter(double eps);

  /// Bernoulli draw with probability p of true.
  bool chance(double p);

  /// Re-seed in place (used by tests to replay a sequence).
  void seed(std::uint64_t s) { gen_.seed(s); }

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace cynthia::util
