// Host wall-clock MFLUPS of the gpusim execution layer.
//
// Unlike the paper-facing harnesses (which model *GPU* performance from
// counted traffic), this benchmark measures how fast the simulator itself
// steps ST / MR-P / MR-R on the host — the number that bounds every
// experiment sweep and physics-validation run in this repository.
//
// Each pattern x lattice configuration is timed twice: once with the
// traffic counters enabled (the instrumented default) and once disabled.
// The ratio isolates the instrumentation overhead, which must stay small
// and flat for the ST vs MR wall-clock comparisons to mean anything
// (Habich et al.'s measurement-perturbs-the-measured caveat).
//
// Results go to stdout and to a JSON trajectory file (default
// BENCH_wallclock.json in the current directory — run from the repo root
// to refresh the committed perf history).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "multidev/multi_domain.hpp"
#include "perfmodel/report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace mlbm;

namespace {

struct Result {
  std::string pattern;
  std::string precision;
  std::string lattice;
  std::string exec;
  int nx, ny, nz;
  int steps;
  bool counters;
  double seconds;
  double mflups;
};

/// Toggles the traffic counters on a monolithic engine (one profiler) or on
/// every slab of a decomposed one (MultiDomainEngine::profiler() is null;
/// each slab engine owns its own).
template <class L>
void set_counters(Engine<L>& eng, bool on) {
  if (gpusim::Profiler* p = eng.profiler()) {
    p->counter().set_enabled(on);
    return;
  }
  if (auto* multi = dynamic_cast<MultiDomainEngine<L>*>(&eng)) {
    for (int d = 0; d < multi->devices(); ++d) {
      if (gpusim::Profiler* p = multi->device_engine(d).profiler()) {
        p->counter().set_enabled(on);
      }
    }
  }
}

template <class L>
double time_steps(Engine<L>& eng, int steps, bool counters) {
  eng.initialize(
      [](int, int, int) { return equilibrium_moments<L>(1.0, {}); });
  set_counters(eng, counters);
  eng.step();  // warm-up excluded
  Timer t;
  eng.run(steps);
  return t.elapsed_s();
}

/// Repeat count of every timed configuration; rows report the best (minimum
/// seconds) of the repeats. Host timings on a shared machine are noisy
/// enough that single-shot runs invert neighboring configurations; the
/// minimum is the standard noise-floor estimator for a deterministic
/// workload.
int g_repeats = 3;

template <class L, class MakeEngine>
void measure(std::vector<Result>& out, const char* pattern,
             const char* precision, const char* exec, Geometry geo, int steps,
             const MakeEngine& make) {
  const Box& b = geo.box;
  for (const bool counters : {true, false}) {
    double best = 0;
    for (int rep = 0; rep < g_repeats; ++rep) {
      auto eng = make();
      const double s = time_steps<L>(*eng, steps, counters);
      if (rep == 0 || s < best) best = s;
    }
    const double nodes =
        static_cast<double>(b.cells()) * static_cast<double>(steps);
    out.push_back({pattern, precision, L::name(), exec, b.nx, b.ny, b.nz,
                   steps, counters, best, nodes / 1e6 / best});
  }
}

template <class L>
void measure_lattice(std::vector<Result>& out, int n0, int n1, int n2,
                     int steps, const std::vector<StoragePrecision>& precs,
                     const std::vector<ExecMode>& execs) {
  const Geometry geo = bench::periodic_geo(n0, n1, n2);
  const MrConfig cfg = bench::default_mr_config(L::D);
  for (const ExecMode exec : execs) {
    for (const StoragePrecision prec : precs) {
      for (const perf::Pattern p :
           {perf::Pattern::kST, perf::Pattern::kMRP, perf::Pattern::kMRR}) {
        measure<L>(out, perf::to_string(p), to_string(prec), to_string(exec),
                   geo, steps, [&] {
                     return bench::make_pattern_engine<L>(p, prec, geo, 0.8,
                                                          cfg, exec);
                   });
      }
      // Fourth pattern: Esoteric-Pull lives outside the perfmodel Pattern
      // enum (same 2Q traffic as ST, half the footprint), so it gets its
      // own row here — the four-way host comparison the EP engine exists
      // to enable.
      measure<L>(out, "EP", to_string(prec), to_string(exec), geo, steps,
                 [&] {
                   return make_ep_engine<L>(prec, geo, 0.8,
                                            CollisionScheme::kBGK, 256, exec);
                 });
    }
  }
}

/// MultiDomain rows: the same grids split into `slabs` MR-P slabs along a
/// walled x axis (the decomposition axis must not be periodic), timed under
/// the requested exchange modes. The host pays the per-step ghost exchange
/// here, so these rows bound the decomposed experiment sweeps the same way
/// the monolithic rows bound the single-domain ones.
template <class L>
void measure_multi(std::vector<Result>& out, int slabs,
                   const std::vector<ExchangeMode>& modes, int n0, int n1,
                   int n2, int steps,
                   const std::vector<StoragePrecision>& precs,
                   const std::vector<ExecMode>& execs) {
  const Geometry geo = bench::wallx_geo(n0, n1, n2);
  const MrConfig cfg = bench::default_mr_config(L::D);
  for (const ExecMode exec : execs) {
    for (const StoragePrecision prec : precs) {
      for (const ExchangeMode mode : modes) {
        const std::string pattern =
            std::string("MULTIx") + std::to_string(slabs) +
            (mode == ExchangeMode::kOverlap ? "/ovl" : "/lock");
        measure<L>(out, pattern.c_str(), to_string(prec), to_string(exec),
                   geo, steps, [&] {
                     auto multi = std::make_unique<MultiDomainEngine<L>>(
                         geo, 0.8, slabs,
                         [&](Geometry g, int) -> std::unique_ptr<Engine<L>> {
                           return bench::make_pattern_engine<L>(
                               perf::Pattern::kMRP, prec, std::move(g), 0.8,
                               cfg, exec);
                         });
                     multi->set_exchange_mode(mode);
                     return multi;
                   });
      }
    }
  }
}

bool write_json(const std::string& path, const std::vector<Result>& rows) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"benchmark\": \"wallclock_mflups\",\n  \"unit\": \"MFLUPS "
       "(host)\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Result& r = rows[i];
    f << "    {\"pattern\": \"" << r.pattern << "\", \"precision\": \""
      << r.precision << "\", \"lattice\": \"" << r.lattice
      << "\", \"exec\": \"" << r.exec
      << "\", \"nx\": " << r.nx << ", \"ny\": " << r.ny
      << ", \"nz\": " << r.nz << ", \"steps\": " << r.steps
      << ", \"counters\": " << (r.counters ? "true" : "false")
      << ", \"seconds\": " << r.seconds << ", \"mflups\": " << r.mflups
      << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return f.good();
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown({"exec", "n2d", "n3d", "out", "overlap", "precision", "repeats", "slabs", "steps2d", "steps3d"});
  g_repeats = cli.get_int("repeats", 3, 1);
  const int n2d = cli.get_int("n2d", 256, 1);
  const int steps2d = cli.get_int("steps2d", 48, 1);
  const int n3d = cli.get_int("n3d", 48, 1);
  const int steps3d = cli.get_int("steps3d", 12, 1);
  const std::string out = cli.get("out", "BENCH_wallclock.json");
  const std::string prec_arg = cli.get("precision", "both");
  const std::string exec_arg = cli.get("exec", "both");
  // --slabs N adds MultiDomain rows (N MR-P slabs, lockstep exchange);
  // --overlap additionally times the overlapped exchange schedule.
  const int slabs = cli.get_int("slabs", 0, 0);
  const bool overlap = cli.has("overlap");

  std::vector<StoragePrecision> precs;
  if (prec_arg == "both") {
    precs = {StoragePrecision::kFP64, StoragePrecision::kFP32};
  } else if (const auto p = parse_precision(prec_arg)) {
    precs = {*p};
  } else {
    std::fprintf(stderr, "error: --precision must be both, fp64 or fp32\n");
    return 1;
  }

  std::vector<ExecMode> execs;
  if (exec_arg == "both") {
    execs = {ExecMode::kScalar, ExecMode::kLanes};
  } else if (exec_arg == "scalar") {
    execs = {ExecMode::kScalar};
  } else if (exec_arg == "lanes") {
    execs = {ExecMode::kLanes};
  } else {
    std::fprintf(stderr, "error: --exec must be both, scalar or lanes\n");
    return 1;
  }

  perf::print_banner("Wall-clock", "Host MFLUPS of the simulator hot path");

  std::vector<Result> rows;
  measure_lattice<D2Q9>(rows, n2d, n2d, 1, steps2d, precs, execs);
  measure_lattice<D3Q19>(rows, n3d, n3d, n3d, steps3d, precs, execs);
  if (slabs >= 2) {
    std::vector<ExchangeMode> modes = {ExchangeMode::kLockstep};
    if (overlap) modes.push_back(ExchangeMode::kOverlap);
    measure_multi<D2Q9>(rows, slabs, modes, n2d, n2d, 1, steps2d, precs,
                        execs);
    measure_multi<D3Q19>(rows, slabs, modes, n3d, n3d, n3d, steps3d, precs,
                         execs);
  } else if (slabs != 0) {
    std::fprintf(stderr, "error: --slabs must be >= 2\n");
    return 1;
  }

  AsciiTable t({"Pattern", "Prec", "Lattice", "Exec", "Grid", "Counters",
                "Seconds", "MFLUPS"});
  for (const Result& r : rows) {
    t.row({r.pattern, r.precision, r.lattice, r.exec,
           std::to_string(r.nx) + "x" + std::to_string(r.ny) + "x" +
               std::to_string(r.nz),
           r.counters ? "on" : "off", AsciiTable::num(r.seconds, 3),
           AsciiTable::num(r.mflups, 2)});
  }
  t.print();

  // Instrumentation overhead per configuration: time(on) / time(off).
  std::printf("\ncounter overhead (time on / time off):\n");
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    std::printf("  %-5s %-5s %-6s %-6s %.3f\n", rows[i].pattern.c_str(),
                rows[i].precision.c_str(), rows[i].lattice.c_str(),
                rows[i].exec.c_str(), rows[i].seconds / rows[i + 1].seconds);
  }

  // Recursive-over-projective cost (counters off): how much of MR-P's
  // throughput MR-R retains — the number the sparse reconstruction moves.
  std::printf("\nMR-R / MR-P throughput (counters off):\n");
  for (const Result& rp : rows) {
    if (rp.pattern != "MR-P" || rp.counters) continue;
    for (const Result& rr : rows) {
      if (rr.pattern != "MR-R" || rr.counters ||
          rr.precision != rp.precision || rr.lattice != rp.lattice ||
          rr.exec != rp.exec) {
        continue;
      }
      std::printf("  %-5s %-6s %-6s %.3f\n", rp.precision.c_str(),
                  rp.lattice.c_str(), rp.exec.c_str(),
                  rr.mflups / rp.mflups);
    }
  }

  if (!write_json(out, rows)) {
    std::fprintf(stderr, "\nerror: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, bench_main);
}
