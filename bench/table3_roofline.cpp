// Table 3: estimated optimal MFLUPS from the roofline model (Eq. 15) for
// each propagation pattern on the V100 and MI100.
#include <cstdio>

#include "core/lattice.hpp"
#include "gpusim/device.hpp"
#include "perfmodel/pattern.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/roofline.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

using namespace mlbm;
using perf::Pattern;

static int bench_main(int argc, char** argv) {
  mlbm::Cli(argc, argv).reject_unknown();
  perf::print_banner("Table 3", "Roofline MFLUPS estimates (Eq. 15)");

  const auto v100 = gpusim::DeviceSpec::v100();
  const auto mi100 = gpusim::DeviceSpec::mi100();
  const auto d2q9 = perf::lattice_info<D2Q9>();
  const auto d3q19 = perf::lattice_info<D3Q19>();

  // Paper's Table 3 values, row-major [model][device x lattice].
  const double paper[2][4] = {{6250, 2960, 8533, 4042},
                              {9375, 5625, 12800, 7680}};

  AsciiTable t({"Model", "V100 D2Q9", "V100 D3Q19", "MI100 D2Q9",
                "MI100 D3Q19"});
  CsvWriter csv(perf::results_dir() + "/table3_roofline.csv",
                {"model", "device", "lattice", "roofline_mflups",
                 "paper_mflups", "deviation_pct"});

  const Pattern models[2] = {Pattern::kST, Pattern::kMRP};
  const char* names[2] = {"ST", "MR"};
  for (int m = 0; m < 2; ++m) {
    const double vals[4] = {
        perf::roofline_mflups(v100, perf::bytes_per_flup(models[m], d2q9)),
        perf::roofline_mflups(v100, perf::bytes_per_flup(models[m], d3q19)),
        perf::roofline_mflups(mi100, perf::bytes_per_flup(models[m], d2q9)),
        perf::roofline_mflups(mi100, perf::bytes_per_flup(models[m], d3q19)),
    };
    t.row({names[m], AsciiTable::num(vals[0], 0), AsciiTable::num(vals[1], 0),
           AsciiTable::num(vals[2], 0), AsciiTable::num(vals[3], 0)});
    const char* dev[4] = {"V100", "V100", "MI100", "MI100"};
    const char* lat[4] = {"D2Q9", "D3Q19", "D2Q9", "D3Q19"};
    for (int c = 0; c < 4; ++c) {
      csv.row({names[m], dev[c], lat[c], CsvWriter::num(vals[c]),
               CsvWriter::num(paper[m][c]),
               CsvWriter::num(perf::deviation_pct(vals[c], paper[m][c]))});
    }
  }
  t.print();

  std::printf("\npaper: ST 6250/2960/8533/4042, MR 9375/5625/12800/7680\n");
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, bench_main);
}
