// 3D rectangular-duct channel flow with the D3Q19 lattice — the workload of
// the paper's Figure 3 — comparing all three propagation patterns on the
// same flow and reporting their agreement, per-step traffic and footprint.
//
//   ./examples/channel3d [--nx 48] [--ny 16] [--nz 16] [--tau 0.8]
//                        [--umax 0.04] [--steps 800] [--vtk out.vtk]
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "io/vtk_writer.hpp"
#include "util/cli.hpp"
#include "workloads/analytic.hpp"
#include "workloads/channel.hpp"

int example_main(int argc, char** argv) {
  using namespace mlbm;
  const Cli cli(argc, argv);
  cli.reject_unknown({"nx", "ny", "nz", "steps", "tau", "umax", "vtk"});
  const int nx = cli.get_int("nx", 48, 1);
  const int ny = cli.get_int("ny", 16, 1);
  const int nz = cli.get_int("nz", 16, 1);
  const real_t tau = cli.get_double("tau", 0.8);
  const real_t umax = cli.get_double("umax", 0.04);
  const int steps = cli.get_int("steps", 800, 1);

  const auto ch = Channel<D3Q19>::create(nx, ny, nz, tau, umax);

  StEngine<D3Q19> st(ch.geo, tau);
  MrEngine<D3Q19> mrp(ch.geo, tau, Regularization::kProjective, {8, 8, 1});
  MrEngine<D3Q19> mrr(ch.geo, tau, Regularization::kRecursive, {8, 8, 1});
  std::vector<Engine<D3Q19>*> engines = {&st, &mrp, &mrr};

  std::printf("channel3d: %dx%dx%d duct, tau=%.3f, u_max=%.3f, %d steps\n\n",
              nx, ny, nz, tau, umax, steps);

  for (Engine<D3Q19>* e : engines) {
    ch.attach(*e);
    e->run(steps);

    // Mid-channel centreline error vs the duct series solution.
    double err = 0;
    for (int z = 0; z < nz; ++z) {
      for (int y = 0; y < ny; ++y) {
        const auto m = e->moments_at(nx / 2, y, z);
        const real_t ref = umax * analytic::duct(ny, nz, y, z);
        err = std::max(err, std::abs(static_cast<double>(m.u[0] - ref)));
      }
    }
    const auto traffic = e->profiler() != nullptr
                             ? e->profiler()->total_traffic().bytes_total()
                             : 0;
    std::printf("%-5s  max profile error %.2e (%.2f%% of u_max)  "
                "state %6.2f MiB  traffic %8.1f MiB\n",
                e->pattern_name(), err, 100 * err / umax,
                e->state_bytes() / 1048576.0, traffic / 1048576.0);
  }

  // The MR state is less than half the ST state (Table 2: 304 vs 160 B/F).
  std::printf("\nmemory: MR/ST state ratio = %.2f (paper: 160/304 = 0.53)\n",
              static_cast<double>(mrp.state_bytes()) / st.state_bytes());

  // Cross-pattern agreement on the final flow field.
  double diff = 0;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        diff = std::max(diff, std::abs(static_cast<double>(
                                  st.moments_at(x, y, z).u[0] -
                                  mrp.moments_at(x, y, z).u[0])));
      }
    }
  }
  std::printf("max |u_ST - u_MRP| = %.2e (different collision operators, "
              "same flow)\n", diff);

  if (cli.has("vtk")) {
    write_vtk(mrp, cli.get("vtk", "channel3d.vtk"));
    std::printf("wrote %s\n", cli.get("vtk", "channel3d.vtk").c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, example_main);
}
