// Quickstart: simulate a 2D channel with the moment-representation engine
// (MR-P) and print the developed velocity profile against the analytic
// Poiseuille solution.
//
//   ./examples/quickstart [--nx 96] [--ny 32] [--tau 0.8] [--umax 0.05]
//                         [--steps 4000] [--vtk out.vtk]
#include <cstdio>

#include "engines/mr_engine.hpp"
#include "io/vtk_writer.hpp"
#include "util/cli.hpp"
#include "workloads/analytic.hpp"
#include "workloads/channel.hpp"

int example_main(int argc, char** argv) {
  using namespace mlbm;
  const Cli cli(argc, argv);
  cli.reject_unknown({"nx", "ny", "steps", "tau", "umax", "vtk"});
  const int nx = cli.get_int("nx", 96, 1);
  const int ny = cli.get_int("ny", 32, 1);
  const real_t tau = cli.get_double("tau", 0.8);
  const real_t umax = cli.get_double("umax", 0.05);
  const int steps = cli.get_int("steps", 4000, 1);

  // 1. Describe the workload: a channel with FD inlet/outlet and walls.
  const auto channel = Channel<D2Q9>::create(nx, ny, 1, tau, umax);

  // 2. Pick an engine: here the paper's MR-P pattern (projective
  //    regularization, moment representation in global memory).
  MrEngine<D2Q9> engine(channel.geo, tau, Regularization::kProjective);
  channel.attach(engine);

  // 3. Run.
  std::printf("quickstart: %s on %dx%d channel, tau=%.3f, u_max=%.3f\n",
              engine.pattern_name(), nx, ny, tau, umax);
  engine.run(steps);

  // 4. Inspect: mid-channel profile vs analytic Poiseuille.
  std::printf("\n%4s %12s %12s %10s\n", "y", "u_x(sim)", "u_x(analytic)",
              "error");
  real_t max_err = 0;
  for (int y = 0; y < ny; ++y) {
    const auto m = engine.moments_at(nx / 2, y, 0);
    const real_t ref = umax * analytic::poiseuille(ny, y);
    const real_t err = std::abs(m.u[0] - ref);
    max_err = std::max(max_err, err);
    if (y % std::max(1, ny / 16) == 0) {
      std::printf("%4d %12.6f %12.6f %10.2e\n", y, m.u[0], ref, err);
    }
  }
  std::printf("\nmax |u - u_analytic| = %.3e (%.2f%% of u_max)\n", max_err,
              100.0 * max_err / umax);

  if (cli.has("vtk")) {
    const std::string path = cli.get("vtk", "quickstart.vtk");
    write_vtk(engine, path);
    std::printf("wrote %s\n", path.c_str());
  }
  return max_err < static_cast<real_t>(0.05) * umax ? 0 : 1;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, example_main);
}
