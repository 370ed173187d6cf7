// Host LBM benchmark: five gpusim engines (ST, AA, EP, MR-P, MR-R) on three
// workloads (see workloads.hpp for what each one stresses and why).
//
//   perfbench --workload bulk3d|slabs3d|porous2d --seed N --seconds S
//             --trace 0|1 [--spans FILE] [--smoke]
//
// --trace 0 prints the end-to-end metrics, measured with tracing and traffic
// counters off. --trace 1 is a separate run that prints the per-layer
// metrics from spans around each call into a library layer and, with
// --spans, writes those spans as a Chrome trace. --smoke runs tiny sizes for
// a fixed two rounds instead of a time budget. The last line of standard
// output is the result as one JSON object; the exit code is nonzero when an
// output check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "report.hpp"
#include "runner.hpp"
#include "triad.hpp"
#include "util/cli.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// OpenMP team of every parallel phase, capped at the online core count.
constexpr int kTeam = 4;

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // KiB on Linux
}

std::vector<Metric> end_to_end(const WorkloadResult& w, double rss_mib) {
  std::vector<Metric> m;
  for (const EngineSummary& e : w.engines) {
    std::vector<double> mflups;
    for (double s : e.chunk_s) {
      mflups.push_back(e.fluid_nodes * e.chunk_steps / s / 1e6);
    }
    m.push_back({"mflups." + e.name, e.ok() ? median(mflups) : NAN, "MFLUPS"});
  }
  m.push_back({"setup_s", median(w.setup_total_s), "s"});
  m.push_back({"peak_rss_mib", rss_mib, "MiB"});
  return m;
}

std::vector<Metric> per_layer(const WorkloadResult& w, double triad_gbs,
                              int team) {
  std::vector<Metric> m;
  for (const EngineSummary& e : w.engines) {
    const std::string& n = e.name;
    const double steps = static_cast<double>(e.traced_steps);
    const double step_s = median(e.chunk_s) / e.chunk_steps;
    const double kernel_s = e.kernel_s / steps;
    const double gbs = e.bytes_per_step / kernel_s / 1e9;
    const double slab_mean =
        std::accumulate(e.slab_s.begin(), e.slab_s.end(), 0.0) /
        static_cast<double>(e.slab_s.size());
    const double slab_max = *std::max_element(e.slab_s.begin(), e.slab_s.end());
    const int tail = tail_percentile(e.chunk_s.size());
    const double bad = e.ok() ? 1.0 : NAN;  // poisons a failed engine's row
    m.push_back({"engines.kernel_ms." + n, bad * kernel_s * 1e3, "ms"});
    m.push_back({"engines.bytes_per_step." + n, bad * e.bytes_per_step, "count"});
    m.push_back({"engines.host_gbs." + n, bad * gbs, "GB/s"});
    m.push_back({"engines.roof_frac." + n, bad * gbs / triad_gbs, "ratio"});
    m.push_back({"engines.state_mib." + n, bad * e.state_bytes / kMiB, "MiB"});
    m.push_back({"gpusim.launches_per_step." + n, bad * e.launches_per_step, "count"});
    m.push_back({"gpusim.syncs_per_step." + n, bad * e.syncs_per_step, "count"});
    m.push_back({"gpusim.overhead_ms." + n,
                 bad * median(e.replay_s) / e.chunk_steps * 1e3, "ms"});
    m.push_back({"gpusim.counter_overhead." + n,
                 bad * e.counted_chunk_s / median(e.chunk_s), "ratio"});
    m.push_back({"multidev.slab_ms." + n, bad * slab_mean / steps * 1e3, "ms"});
    m.push_back({"multidev.imbalance." + n, bad * slab_max / slab_mean, "ratio"});
    m.push_back({"multidev.exchange_ms." + n, bad * e.remainder_s / steps * 1e3, "ms"});
    m.push_back({"multidev.exchange_values_per_step." + n,
                 bad * e.exchange_values_per_step, "count"});
    m.push_back({"bc.apply_ms." + n, bad * e.post_s / steps * 1e3, "ms"});
    m.push_back({"workloads.observe_ms." + n, bad * median(e.observe_s) * 1e3, "ms"});
    m.push_back({"setup.engine_ms." + n, bad * median(e.setup_s) * 1e3, "ms"});
    m.push_back({"step_ms.p50." + n, bad * step_s * 1e3, "ms"});
    m.push_back({"step_ms.tail." + n,
                 bad * percentile(e.chunk_s, tail) / e.chunk_steps * 1e3, "ms"});
    m.push_back({"trace.overhead." + n,
                 bad * median(e.traced_chunk_s) / median(e.chunk_s), "ratio"});
    m.push_back({"scaling.parallel_eff." + n,
                 bad * e.serial_chunk_s / (team * median(e.chunk_s)), "ratio"});
  }
  m.push_back({"setup.geometry_ms", median(w.geometry_s) * 1e3, "ms"});
  m.push_back({"geometry.fluid_fraction", w.fluid_fraction, "ratio"});
  m.push_back({"geometry.allocated_tiles", w.allocated_tiles, "count"});
  m.push_back({"host.triad_gbs", triad_gbs, "GB/s"});
  return m;
}

/// Human-readable summary: samples, tails, working sets and checks.
void print_summary(const WorkloadResult& w, const RunOptions& opt,
                   double l3_bytes) {
  std::printf("workload %s: %.0f nodes, fluid fraction %.4f\n", w.name.c_str(),
              w.cells, w.fluid_fraction);
  std::printf(
      "  (tail pN: the highest percentile with >= 10 samples beyond it, "
      "p50 when n < 20)\n");
  for (const EngineSummary& e : w.engines) {
    std::vector<double> mflups;
    for (double s : e.chunk_s) {
      mflups.push_back(e.fluid_nodes * e.chunk_steps / s / 1e6);
    }
    const int tail = tail_percentile(e.chunk_s.size());
    std::printf(
        "  %-5s %2d-step chunks n=%zu  MFLUPS median %.3f  step ms p50 %.3f "
        "tail p%d %.3f\n",
        e.name.c_str(), e.chunk_steps, e.chunk_s.size(), median(mflups),
        median(e.chunk_s) / e.chunk_steps * 1e3, tail,
        percentile(e.chunk_s, tail) / e.chunk_steps * 1e3);
    std::printf(
        "        state %.1f MiB, %s bytes per step %.0f = %.2f x L3 (%.0f MiB)"
        ", %d steps, field hash %016llx\n",
        e.state_bytes / kMiB, e.bytes_exact ? "exact" : "counted",
        e.bytes_per_step, e.bytes_per_step / l3_bytes, l3_bytes / kMiB,
        e.steps_done, static_cast<unsigned long long>(e.field_hash));
    for (const std::string& f : e.failures) {
      std::printf("        FAILED: %s\n", f.c_str());
    }
    if (opt.trace && e.traced_steps > 0) {
      const double steps = static_cast<double>(e.traced_steps);
      const double traced = e.kernel_s + e.post_s + e.remainder_s +
                            e.observe_self_s + e.chunk_self_s;
      std::printf(
          "        traced per step: kernel %.4f + bc %.4f + exchange %.4f + "
          "observe %.4f + loop %.4f = %.4f ms vs untraced %.4f ms\n",
          e.kernel_s / steps * 1e3, e.post_s / steps * 1e3,
          e.remainder_s / steps * 1e3, e.observe_self_s / steps * 1e3,
          e.chunk_self_s / steps * 1e3, traced / steps * 1e3,
          median(e.chunk_s) / e.chunk_steps * 1e3);
    }
  }
  for (const std::string& n : w.notes) std::printf("  %s\n", n.c_str());
  std::printf("  phases:");
  for (const auto& [name, s] : w.phases) std::printf(" %s %.2f s;", name.c_str(), s);
  std::printf(" set-ups (s):");
  for (double s : w.setup_total_s) std::printf(" %.3f", s);
  std::printf("\n");
  for (const std::string& f : w.input_failures) {
    std::printf("  FAILED input check: %s\n", f.c_str());
  }
}

int run(int argc, char** argv) {
  const mlbm::Cli cli(argc, argv);
  const std::string workload = cli.get("workload", "");
  const std::string seed_arg = cli.get("seed", "1");
  const double seconds = cli.get_double("seconds", 10.0, 0.0);
  const int trace = cli.get_int("trace", 0, 0);
  const bool smoke = cli.has("smoke");
  const std::string spans_path = cli.get("spans", "");
  cli.reject_unknown();
  if (trace > 1) throw mlbm::ConfigError("--trace must be 0 or 1");
  std::size_t used = 0;
  const std::uint64_t seed =
      seed_arg.find_first_not_of("0123456789") == std::string::npos
          ? std::stoull(seed_arg, &used)
          : 0;
  if (seed_arg.empty() || used != seed_arg.size()) {
    throw mlbm::ConfigError("--seed must be a non-negative integer");
  }
  const WorkloadParams params = workload_params(workload, smoke);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int team = static_cast<int>(std::clamp<long>(nproc, 1, kTeam));
  omp_set_dynamic(0);
  omp_set_num_threads(team);
  const long l3_sys = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const double l3_bytes = l3_sys > 0 ? static_cast<double>(l3_sys) : 32 * kMiB;

  RunOptions opt;
  opt.seconds = seconds;
  opt.trace = trace == 1;
  opt.rounds = smoke ? 2 : 0;
  opt.team = team;

  Tracer tracer;
  WorkloadResult res;
  if (params.name == "porous2d") {
    res = WorkloadRunner<mlbm::D2Q9>(params, seed, opt, tracer).run();
  } else {
    res = WorkloadRunner<mlbm::D3Q19>(params, seed, opt, tracer).run();
  }
  const double rss = peak_rss_mib();  // before the triad's arrays exist

  const auto triad_bytes =
      static_cast<std::size_t>(smoke ? 8 * kMiB : 4 * l3_bytes);
  const TriadResult triad = run_triad(triad_bytes, smoke ? 0.1 : 0.5);

  // The OpenMP runtime settings run.py passes (see OMP_ENV there).
  const auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return v ? v : "unset";
  };
  std::printf(
      "fingerprint: {\"cores\": %ld, \"omp_team\": %d, \"omp_wait_policy\": "
      "\"%s\", \"omp_proc_bind\": \"%s\", \"omp_places\": \"%s\", "
      "\"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"l3_mib\": %.1f%s, "
      "\"triad_gbs\": %.3f, \"triad_array_mib\": %.1f, \"triad_iterations\": "
      "%d}\n",
      nproc, team, env("OMP_WAIT_POLICY"), env("OMP_PROC_BIND"),
      env("OMP_PLACES"), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      PERFBENCH_CXX_FLAGS, l3_bytes / kMiB,
      l3_sys > 0 ? "" : ", \"l3_unknown\": true", triad.gbs,
      static_cast<double>(triad.array_bytes) / kMiB, triad.iterations);
  print_summary(res, opt, l3_bytes);

  int attempted = 0, failed = 0;
  for (const EngineSummary& e : res.engines) {
    ++attempted;
    if (!e.ok() || !res.input_failures.empty()) ++failed;
  }
  std::printf("failed_frac %.4f (%d of %d engine runs)\n",
              static_cast<double>(failed) / attempted, failed, attempted);

  if (opt.trace && !spans_path.empty()) {
    if (!tracer.write_chrome_json(spans_path)) {
      throw mlbm::IoError("cannot write span file " + spans_path);
    }
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                spans_path.c_str());
  }

  const std::vector<Metric> metrics =
      opt.trace ? per_layer(res, triad.gbs, team) : end_to_end(res, rss);
  const bool correct = failed == 0;
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const mlbm::Error& e) {
    std::fprintf(stderr, "perfbench: %s\n", mlbm::error_message(e));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 2;
}
