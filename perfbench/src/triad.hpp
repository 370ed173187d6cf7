// Host memory-bandwidth roof: a STREAM-triad kernel (a = b + s * c) run on
// the same OpenMP team as the workloads.
#pragma once

#include <cstddef>

namespace perfbench {

struct TriadResult {
  std::size_t array_bytes = 0;  ///< bytes of EACH of the three arrays
  int iterations = 0;
  double gbs = 0;               ///< median over iterations, STREAM counting
};

/// Times triad sweeps over three arrays of `array_bytes` each for at least
/// `min_seconds` (and at least 5 sweeps). Counts 24 bytes per element per
/// sweep (two loads, one store; write-allocate traffic is not counted, as
/// in STREAM). Pages are first touched by the team with the same static
/// schedule as the sweeps.
TriadResult run_triad(std::size_t array_bytes, double min_seconds);

}  // namespace perfbench
