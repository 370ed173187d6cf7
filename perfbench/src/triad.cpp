#include "triad.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "trace.hpp"

namespace perfbench {

TriadResult run_triad(std::size_t array_bytes, double min_seconds) {
  const auto n = static_cast<long long>(array_bytes / sizeof(double));
  if (n < 1) throw std::invalid_argument("run_triad: empty arrays");
  // Uninitialized storage: the first touch below decides page placement.
  std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> b(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> c(new double[static_cast<std::size_t>(n)]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
#pragma omp parallel for schedule(static)
  for (long long i = 0; i < n; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }

  const double scalar = 3.0;
  std::vector<double> gbs;
  const double t_begin = now_s();
  while (gbs.size() < 5 || now_s() - t_begin < min_seconds) {
    const double t0 = now_s();
#pragma omp parallel for schedule(static)
    for (long long i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    const double dt = now_s() - t0;
    gbs.push_back(3.0 * sizeof(double) * static_cast<double>(n) / dt / 1e9);
  }
  // Every sweep writes the same values; check one so the loop is observable.
  if (pa[n / 2] != 7.0) throw std::logic_error("run_triad: wrong result");

  std::nth_element(gbs.begin(), gbs.begin() + gbs.size() / 2, gbs.end());
  return {array_bytes, static_cast<int>(gbs.size()), gbs[gbs.size() / 2]};
}

}  // namespace perfbench
