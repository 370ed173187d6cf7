// Stability study: why regularize at all?
//
// The paper's introduction motivates regularization as "already being used
// in lattice Boltzmann simulations to improve stability". This example
// quantifies that on the doubly periodic double shear layer (Minion &
// Brown) — the standard discriminator in the recursive-regularization
// literature: it bisects the smallest relaxation time tau at which each
// collision scheme survives the layer roll-up, and prints the resulting
// stability margins (smaller tau = higher Reynolds number at the same
// resolution).
//
//   ./examples/stability_map [--n 48] [--u0 0.06] [--steps 1500]
#include <cmath>
#include <cstdio>

#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/shear_layer.hpp"

namespace {

using namespace mlbm;

enum class Scheme { kBGK, kMRP, kMRR };

const char* name(Scheme s) {
  switch (s) {
    case Scheme::kBGK: return "ST (BGK)";
    case Scheme::kMRP: return "MR-P (projective)";
    case Scheme::kMRR: return "MR-R (recursive)";
  }
  return "?";
}

bool survives(Scheme s, int n, real_t u0, real_t tau, int steps) {
  const auto tg = DoubleShearLayer<D2Q9>::create(n, u0);
  std::unique_ptr<Engine<D2Q9>> eng;
  switch (s) {
    case Scheme::kBGK:
      eng = std::make_unique<StEngine<D2Q9>>(tg.geo, tau);
      break;
    case Scheme::kMRP:
      eng = std::make_unique<MrEngine<D2Q9>>(
          tg.geo, tau, Regularization::kProjective, MrConfig{16, 1, 4});
      break;
    case Scheme::kMRR:
      eng = std::make_unique<MrEngine<D2Q9>>(
          tg.geo, tau, Regularization::kRecursive, MrConfig{16, 1, 4});
      break;
  }
  tg.attach(*eng);
  if (eng->profiler() != nullptr) {
    eng->profiler()->counter().set_enabled(false);
  }
  // Run in chunks so divergence is caught early.
  for (int done = 0; done < steps; done += 100) {
    eng->run(std::min(100, steps - done));
    if (!DoubleShearLayer<D2Q9>::healthy(*eng)) return false;
  }
  return true;
}

}  // namespace

int example_main(int argc, char** argv) {
  using namespace mlbm;
  const Cli cli(argc, argv);
  cli.reject_unknown({"n", "steps", "u0"});
  const int n = cli.get_int("n", 48, 1);
  const real_t u0 = cli.get_double("u0", 0.06);
  const int steps = cli.get_int("steps", 1500, 1);

  std::printf("stability_map: %dx%d double shear layer, u0=%.3f, %d steps\n"
              "bisecting the smallest stable tau per collision scheme...\n\n",
              n, n, u0, steps);

  AsciiTable t({"scheme", "min stable tau", "max stable Re (=u0*n/nu)"});
  for (const Scheme s : {Scheme::kBGK, Scheme::kMRP, Scheme::kMRR}) {
    real_t lo = 0.5, hi = 1.0;  // lo unstable (tau->1/2), hi assumed stable
    if (!survives(s, n, u0, hi, steps)) {
      t.row({name(s), "> 1.0", "-"});
      continue;
    }
    for (int it = 0; it < 10; ++it) {
      const real_t mid = (lo + hi) / 2;
      (survives(s, n, u0, mid, steps) ? hi : lo) = mid;
    }
    const real_t nu = D2Q9::cs2 * (hi - real_t(0.5));
    t.row({name(s), AsciiTable::num(hi, 4),
           AsciiTable::num(u0 * n / nu, 0)});
  }
  t.print();

  std::printf(
      "\nRegularized schemes stay stable closer to tau = 1/2, i.e. reach\n"
      "higher Reynolds numbers at fixed resolution — the property that\n"
      "makes the moment representation's state compression available.\n");
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, example_main);
}
