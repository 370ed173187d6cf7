// Table 1: summary of the main features of the NVIDIA V100 and AMD MI100.
// Printed from the DeviceSpec presets that drive the entire performance
// model, so every other table/figure harness shares these numbers.
#include <string>

#include "gpusim/device.hpp"
#include "perfmodel/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int table_main(int argc, char** argv) {
  // No options: anything passed is a typo, not a silent no-op.
  mlbm::Cli(argc, argv).reject_unknown();
  using mlbm::gpusim::DeviceSpec;
  const DeviceSpec v100 = DeviceSpec::v100();
  const DeviceSpec mi100 = DeviceSpec::mi100();

  mlbm::perf::print_banner("Table 1", "GPU architecture summary");

  mlbm::AsciiTable t({"GPU Arch.", v100.name, mi100.name});
  auto num = [](double v, int prec = 0) {
    return mlbm::AsciiTable::num(v, prec);
  };
  t.row({"Frequency (MHz)", num(v100.frequency_mhz), num(mi100.frequency_mhz)});
  t.row({"CUDA/HIP cores", num(v100.cores), num(mi100.cores)});
  t.row({"SM/CU counts", num(v100.sm_count), num(mi100.sm_count)});
  t.row({"Shared mem / SM (KB)", num(v100.shared_mem_per_sm_bytes / 1024.0),
         num(mi100.shared_mem_per_sm_bytes / 1024.0)});
  t.row({"L1 / SM (KB)", num(v100.l1_kb_per_sm), num(mi100.l1_kb_per_sm)});
  t.row({"L2 unified (KB)", num(v100.l2_kb), num(mi100.l2_kb)});
  t.row({"Memory (GB, HBM2)", num(v100.memory_gb), num(mi100.memory_gb)});
  t.row({"Bandwidth (GB/s)", num(v100.bandwidth_gbs, 2),
         num(mi100.bandwidth_gbs, 2)});
  t.row({"Compiler", v100.compiler, mi100.compiler});
  t.row({"FP64 peak (GFLOP/s, model)", num(v100.fp64_peak_gflops),
         num(mi100.fp64_peak_gflops)});
  t.row({"stream eff. (calibrated)", num(v100.stream_efficiency, 2),
         num(mi100.stream_efficiency, 2)});
  t.row({"MR pipeline eff. 2D/3D (calibrated)",
         num(v100.mr_pipeline_efficiency_2d, 2) + "/" +
             num(v100.mr_pipeline_efficiency_3d, 2),
         num(mi100.mr_pipeline_efficiency_2d, 2) + "/" +
             num(mi100.mr_pipeline_efficiency_3d, 2)});
  t.print();

  mlbm::CsvWriter csv(mlbm::perf::results_dir() + "/table1_devices.csv",
                      {"feature", "v100", "mi100"});
  csv.row({"frequency_mhz", mlbm::CsvWriter::num(v100.frequency_mhz),
           mlbm::CsvWriter::num(mi100.frequency_mhz)});
  csv.row({"cores", mlbm::CsvWriter::num(v100.cores),
           mlbm::CsvWriter::num(mi100.cores)});
  csv.row({"sm_count", mlbm::CsvWriter::num(v100.sm_count),
           mlbm::CsvWriter::num(mi100.sm_count)});
  csv.row({"bandwidth_gbs", mlbm::CsvWriter::num(v100.bandwidth_gbs),
           mlbm::CsvWriter::num(mi100.bandwidth_gbs)});
  csv.row({"memory_gb", mlbm::CsvWriter::num(v100.memory_gb),
           mlbm::CsvWriter::num(mi100.memory_gb)});
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, table_main);
}
