// Figure 3: D3Q19 performance (MFLUPS) vs problem size for ST, MR-P and MR-R
// against the roofline predictions, on V100 and MI100.
#include "fig_common.hpp"
#include "util/cli.hpp"

static int bench_main(int argc, char** argv) {
  mlbm::Cli(argc, argv).reject_unknown();
  // Paper text: V100 ST ~2600, MR-P ~3800, MR-R ~3000 (drop ~800);
  // MI100 ST ~2800, MR-P ~3200, MR-R ~2500 (drop ~700).
  mlbm::bench::run_figure<mlbm::D3Q19>(
      {"Figure 3", "D3Q19 MFLUPS vs problem size (NxNxN channel)", 3},
      "fig3_d3q19.csv", {2600, 3800, 3000}, {2800, 3200, 2500});
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, bench_main);
}
