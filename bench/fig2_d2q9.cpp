// Figure 2: D2Q9 performance (MFLUPS) vs problem size for ST, MR-P and MR-R
// against the roofline predictions, on V100 and MI100.
#include "fig_common.hpp"
#include "util/cli.hpp"

static int bench_main(int argc, char** argv) {
  mlbm::Cli(argc, argv).reject_unknown();
  // Saturated values the paper's text reports: V100 ST ~5300, MR-P ~7000,
  // MR-R marginally slower; MI100 ST ~6200, MR-P ~8600, MR-R ~identical.
  mlbm::bench::run_figure<mlbm::D2Q9>(
      {"Figure 2", "D2Q9 MFLUPS vs problem size (NxN channel)", 2},
      "fig2_d2q9.csv", {5300, 7000, 6900}, {6200, 8600, 8600});
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, bench_main);
}
