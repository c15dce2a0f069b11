// Deterministic pseudo-random number generation for the simulation.
//
// Every stochastic component (workload pickers, file sizes, data payloads)
// draws from an explicitly seeded Rng so experiments are reproducible.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>

namespace duet {

// xoshiro256** 1.0 — small, fast, high-quality; state is seeded via
// splitmix64 so any 64-bit seed works well.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  uint64_t Next();

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Exponentially distributed with the given mean (> 0):
  // ExponentialFromUniform(mean, ExponentialUniform()).
  double Exponential(double mean);

  // Exponential's two halves, for a caller that transforms one draw at
  // several means. The draw is NextDouble with 0 mapped to 2^-53, so its log
  // is finite; the transform is -mean * log(u), the same expression for
  // every caller, so equal inputs give bit-identical variates.
  double ExponentialUniform();
  static double ExponentialFromUniform(double mean, double u);

  // Bernoulli trial.
  bool Chance(double probability);

 private:
  uint64_t s_[4];
};

}  // namespace duet

#endif  // SRC_UTIL_RNG_H_
