// Drives one workload through the five engines from outside the library,
// through public calls only, and measures it.
//
// Phases of one run:
//  1. inputs: the seeded initial field; the same seed must give the same
//     input hash and the next seed a different one (for porous2d a
//     different geometry);
//  2. set-up, repeated (see run()): geometry build, then construction and
//     initialize() of every engine (setup_s is the median total);
//  3. one counted warm-up chunk per engine (traffic counters on): bytes,
//     launches and barriers per step, and on bulk3d the exact comparison of
//     every step's counters with analysis::derive_step_traffic;
//  4. timed rounds with counters off: every round runs one chunk of every
//     engine, the starting engine rotating per round, so slow drift of the
//     machine is shared between engines and every engine ends on the same
//     step count. In the traced run each round also runs a traced chunk
//     per engine, untraced and traced alternating which goes first;
//  5. traced run only: one counters-on chunk, one single-threaded chunk and
//     an empty-body replay of the engine's launch sequence per engine;
//  6. output checks on the final fields.
#pragma once

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/static/traffic.hpp"
#include "gpusim/launch.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Fewest timed rounds, however long they take (a round runs one chunk of
/// every engine; a bulk3d round lasts ~7 s). The traced run's rounds run
/// every chunk twice, so it needs only two.
inline constexpr int kMinRounds = 3;
inline constexpr int kMinTracedRounds = 2;
inline constexpr int kSetupMinReps = 3;
inline constexpr int kSetupMaxReps = 30;
inline constexpr double kSetupMinSeconds = 2.0;
inline constexpr int kReplayReps = 5;

struct RunOptions {
  double seconds = 10;
  bool trace = false;
  int rounds = 0;  ///< > 0: run exactly this many rounds (smoke mode)
  int team = 1;    ///< OpenMP team size of every parallel phase
};

/// Everything measured about one engine, independent of the lattice.
struct EngineSummary {
  std::string name;
  std::vector<std::string> failures;
  double fluid_nodes = 0;
  int chunk_steps = 1;
  std::vector<double> chunk_s;         ///< untraced, counters off
  std::vector<double> traced_chunk_s;  ///< traced run only
  std::vector<double> setup_s;         ///< construction + initialize per rep
  std::vector<double> observe_s;       ///< per observable sample
  std::vector<double> replay_s;        ///< empty-body launch replay per chunk
  double counted_chunk_s = 0;
  double serial_chunk_s = 0;
  double bytes_per_step = 0;  ///< computed traffic (counters), not DRAM
  bool bytes_exact = false;   ///< bytes_per_step checked against the analyzer
  double launches_per_step = 0;
  double syncs_per_step = 0;
  double state_bytes = 0;
  double exchange_values_per_step = 0;
  // Traced-chunk self times summed over traced steps (seconds).
  long traced_steps = 0;
  double kernel_s = 0, post_s = 0, remainder_s = 0, observe_self_s = 0,
         chunk_self_s = 0;
  std::vector<double> slab_s;  ///< per slab (monolithic: one entry)
  int steps_done = 0;
  std::uint64_t field_hash = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

struct WorkloadResult {
  std::string name;
  std::vector<EngineSummary> engines;
  std::vector<double> setup_total_s;
  std::vector<double> geometry_s;
  double fluid_fraction = 1;
  double allocated_tiles = 0;
  double cells = 0;
  std::vector<std::string> input_failures;
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, double>> phases;  ///< wall time each
};

namespace detail {

template <class L>
std::vector<mlbm::gpusim::Profiler*> profilers(mlbm::Engine<L>& e) {
  if (mlbm::gpusim::Profiler* p = e.profiler()) return {p};
  std::vector<mlbm::gpusim::Profiler*> out;
  if (auto* m = dynamic_cast<mlbm::MultiDomainEngine<L>*>(&e)) {
    for (int d = 0; d < m->devices(); ++d) {
      if (mlbm::gpusim::Profiler* p = m->device_engine(d).profiler()) {
        out.push_back(p);
      }
    }
  }
  return out;
}

template <class L>
void set_counters(mlbm::Engine<L>& e, bool on) {
  for (auto* p : profilers(e)) p->counter().set_enabled(on);
}

template <class L>
mlbm::gpusim::TrafficSnapshot traffic(mlbm::Engine<L>& e) {
  mlbm::gpusim::TrafficSnapshot t;
  for (auto* p : profilers(e)) t += p->total_traffic();
  return t;
}

/// One kernel of the engine's step, as the replay re-issues it.
struct LaunchShape {
  mlbm::gpusim::Dim3 grid{};
  mlbm::gpusim::Dim3 block{};
  int levels = 1;
  std::uint64_t launches = 0;
};

/// Re-issues `seq` through the public launchers with empty bodies: what
/// gpusim costs per chunk apart from the kernels' own work.
inline double replay_launches(const std::vector<LaunchShape>& seq) {
  namespace gs = mlbm::gpusim;
  gs::Profiler prof;
  gs::KernelRecord& rec = prof.record("replay");
  const double t0 = now_s();
  for (const LaunchShape& s : seq) {
    for (std::uint64_t i = 0; i < s.launches; ++i) {
      if (s.levels > 1) {
        gs::launch_level_synced(
            prof, rec, s.grid, s.block, s.levels,
            [](gs::BlockCtx&) { return 0; },
            [](gs::BlockCtx&, int&, int) {});
      } else {
        gs::launch(prof, rec, s.grid, s.block, [](gs::BlockCtx&) {});
      }
    }
  }
  return now_s() - t0;
}

inline bool has_open_faces(const mlbm::Geometry& g) {
  for (const auto& axis : g.bc.face) {
    for (const auto& f : axis) {
      if (f.type == mlbm::FaceBC::kOpen) return true;
    }
  }
  return false;
}

}  // namespace detail

/// One engine of the workload while it runs.
template <class L>
struct EngineRun {
  EngineSummary s;
  std::unique_ptr<mlbm::Engine<L>> eng;
  std::vector<detail::LaunchShape> launches;
  long step_id = 0;  ///< step being traced
  double mark = 0;   ///< start of the traced step's current kernel span
};

template <class L>
class WorkloadRunner {
 public:
  WorkloadRunner(WorkloadParams p, std::uint64_t seed, RunOptions opt,
                 Tracer& tracer)
      : p_(std::move(p)), seed_(seed), opt_(opt), tracer_(tracer) {}

  WorkloadResult run() {
    res_.name = p_.name;
    double t = now_s();
    const auto phase = [&](const char* name) {
      const double t1 = now_s();
      res_.phases.emplace_back(name, t1 - t);
      t = t1;
    };
    check_inputs();
    phase("inputs");
    for (const std::string& e : engine_names()) {
      auto r = std::make_unique<EngineRun<L>>();
      r->s.name = e;
      runs_.push_back(std::move(r));
    }
    // Small workloads set up in milliseconds: repeat until the medians rest
    // on at least kSetupMinSeconds of set-up, within [3, 30] repetitions.
    const double setup_begin = now_s();
    for (int rep = 0; rep < kSetupMaxReps &&
                      (rep < kSetupMinReps ||
                       now_s() - setup_begin < kSetupMinSeconds);
         ++rep) {
      setup();
    }
    res_.cells = static_cast<double>(dom_.geo.box.cells());
    res_.fluid_fraction =
        static_cast<double>(dom_.geo.fluid_count()) / res_.cells;
    res_.allocated_tiles = dom_.geo.tiles().n_slots();
    for (auto& r : runs_) install_hooks(*r);
    phase("setup");
    for (auto& r : runs_) guarded(*r, [&] { counted_warmup(*r); });
    phase("counted warm-up");
    timed_rounds();
    phase("timed rounds");
    if (opt_.trace) {
      for (auto& r : runs_) guarded(*r, [&] { traced_extras(*r); });
      collect_spans();
      phase("traced extras");
    }
    for (auto& r : runs_) guarded(*r, [&] { final_checks(*r); });
    compare_ep_with_st();
    phase("checks");
    for (auto& r : runs_) {
      r->eng.reset();
      res_.engines.push_back(std::move(r->s));
    }
    return std::move(res_);
  }

 private:
  template <class Fn>
  void guarded(EngineRun<L>& r, Fn&& fn) {
    if (!r.s.ok() || !r.eng) return;
    try {
      fn();
    } catch (const mlbm::Error& e) {
      r.s.failures.push_back(std::string("mlbm::Error: ") +
                             mlbm::error_message(e));
    } catch (const std::exception& e) {
      r.s.failures.push_back(std::string("threw: ") + e.what());
    }
  }

  /// Inputs (geometry and initial field) are a function of the seed alone.
  void check_inputs() {
    field_ = make_field<L>(p_, seed_);
    const std::uint64_t next = seed_ + 1;
    const std::uint64_t geo = build_domain<L>(p_, seed_).geo.hash();
    const std::uint64_t geo_next = build_domain<L>(p_, next).geo.hash();
    const std::uint64_t h = field_.hash(geo);
    if (make_field<L>(p_, seed_).hash(build_domain<L>(p_, seed_).geo.hash()) !=
        h) {
      res_.input_failures.push_back("same seed gave a different input hash");
    }
    if (make_field<L>(p_, next).hash(geo_next) == h) {
      res_.input_failures.push_back("next seed gave the same input hash");
    }
    if (p_.name == "porous2d" && geo_next == geo) {
      res_.input_failures.push_back("next seed gave the same porous geometry");
    }
    res_.notes.push_back("input hash " + std::to_string(h));
  }

  void setup() {
    for (auto& r : runs_) r->eng.reset();  // one engine set alive at a time
    const double t0 = now_s();
    {
      ScopedSpan span(tracer_, "setup.geometry", "");
      dom_ = build_domain<L>(p_, seed_);
    }
    res_.geometry_s.push_back(now_s() - t0);
    const mlbm::Box box = dom_.geo.box;
    const auto init = [this, box](int x, int y, int z) {
      const auto i = static_cast<std::size_t>(box.idx(x, y, z));
      return mlbm::equilibrium_moments<L>(field_.rho[i], field_.u[i]);
    };
    for (auto& r : runs_) {
      if (!r->s.ok()) continue;
      const double t = now_s();
      try {
        ScopedSpan span(tracer_, "setup.engine", r->s.name);
        r->eng = make_engine<L>(r->s.name, p_, dom_.geo);
        r->eng->initialize(init);
      } catch (const mlbm::Error& e) {
        r->s.failures.push_back(std::string("setup: ") +
                                mlbm::error_message(e));
        r->eng.reset();
      }
      r->s.setup_s.push_back(now_s() - t);
    }
    res_.setup_total_s.push_back(now_s() - t0);
  }

  /// Post-step hooks: the workload's boundary pass (porous2d inlet/outlet,
  /// timed as the bc layer), and in traced chunks the end-of-kernel
  /// timestamp; on decomposed engines every slab engine's hook stamps the
  /// end of its slab step.
  void install_hooks(EngineRun<L>& r) {
    if (!r.eng) return;
    const mlbm::Geometry& g = r.eng->geometry();
    r.s.fluid_nodes = static_cast<double>(g.fluid_count());
    r.s.state_bytes = static_cast<double>(r.eng->state_bytes());
    r.s.chunk_steps = p_.chunk_steps;
    std::shared_ptr<const mlbm::InletOutletBC<L>> bc;
    if (dom_.plug && detail::has_open_faces(g)) bc = dom_.plug->bc;
    EngineRun<L>* rp = &r;
    Tracer* tr = &tracer_;
    auto* multi = dynamic_cast<mlbm::MultiDomainEngine<L>*>(r.eng.get());
    r.s.slab_s.assign(multi ? static_cast<std::size_t>(multi->devices()) : 1,
                      0.0);
    if (multi) {
      r.s.exchange_values_per_step =
          static_cast<double>(multi->exchanged_values_per_step());
      for (int d = 0; d < multi->devices(); ++d) {
        const std::string span = "slab." + std::to_string(d);
        multi->device_engine(d).set_post_step(
            [rp, tr, span](mlbm::Engine<L>&) {
              if (!tr->enabled()) return;
              const double t = now_s();
              tr->add(span, rp->s.name, rp->step_id, rp->mark, t);
              rp->mark = t;
            });
      }
    }
    const bool stamp_kernel = multi == nullptr;
    r.eng->set_post_step([rp, tr, bc, stamp_kernel](mlbm::Engine<L>& e) {
      if (tr->enabled() && stamp_kernel) {
        tr->add("kernel", rp->s.name, rp->step_id, rp->mark, now_s());
      }
      ScopedSpan span(*tr, "post_step", rp->s.name, rp->step_id);
      if (bc) bc->apply(e);
    });
  }

  /// One chunk of `r`, traced or not; returns its wall time.
  double chunk(EngineRun<L>& r, bool traced) {
    tracer_.set_enabled(traced);
    const double t0 = now_s();
    {
      ScopedSpan cs(tracer_, "chunk", r.s.name);
      for (int k = 0; k < r.s.chunk_steps; ++k) {
        r.step_id = r.eng->time();
        ScopedSpan ss(tracer_, "step", r.s.name, r.step_id);
        r.mark = now_s();
        r.eng->step();
      }
      if (p_.observe_in_loop) sample(r);
    }
    const double dt = now_s() - t0;
    tracer_.set_enabled(false);
    return dt;
  }

  /// One sample of the workloads-layer observable.
  real_t sample(EngineRun<L>& r) {
    ScopedSpan span(tracer_, "observe", r.s.name, r.eng->time());
    const double t0 = now_s();
    const real_t v = observe<L>(*r.eng, dom_);
    r.s.observe_s.push_back(now_s() - t0);
    if (!std::isfinite(v)) {
      throw mlbm::InstabilityError("observable is not finite", r.eng->time());
    }
    return v;
  }

  void counted_warmup(EngineRun<L>& r) {
    mlbm::Engine<L>& e = *r.eng;
    detail::set_counters(e, true);
    std::map<std::pair<std::size_t, std::string>, mlbm::gpusim::KernelRecord>
        before;
    const auto profs = detail::profilers(e);
    for (std::size_t i = 0; i < profs.size(); ++i) {
      for (const auto& rec : profs[i]->all_records()) before[{i, rec.name}] = rec;
    }
    // Exact traffic is derivable only on a dense, fully periodic box.
    const mlbm::Geometry& g = e.geometry();
    const bool exact = profs.size() == 1 && e.profiler() != nullptr &&
                       !g.sparse() && g.bc.periodic(0) && g.bc.periodic(1) &&
                       g.bc.periodic(2);
    const mlbm::analysis::EngineContract contract = e.access_contract();
    std::uint64_t bytes = 0;
    for (int k = 0; k < r.s.chunk_steps; ++k) {
      const long long t = e.time();
      const auto t0 = detail::traffic(e);
      e.step();
      const auto d = detail::traffic(e) - t0;
      bytes += d.bytes_total();
      if (!exact) continue;
      const mlbm::Box& b = g.box;
      const auto want =
          mlbm::analysis::derive_step_traffic(contract, b.nx, b.ny, b.nz, t);
      if (d.bytes_read != want.bytes_read ||
          d.bytes_written != want.bytes_written || d.reads != want.reads ||
          d.writes != want.writes) {
        r.s.failures.push_back(
            "counted traffic of step " + std::to_string(t) + " (" +
            std::to_string(d.bytes_total()) +
            " B) differs from derive_step_traffic (" +
            std::to_string(want.bytes_read + want.bytes_written) + " B)");
      }
    }
    if (p_.observe_in_loop) sample(r);
    detail::set_counters(e, false);
    r.s.bytes_exact = exact;
    r.s.bytes_per_step = static_cast<double>(bytes) / r.s.chunk_steps;

    std::uint64_t launches = 0, syncs = 0;
    for (std::size_t i = 0; i < profs.size(); ++i) {
      for (const auto& rec : profs[i]->all_records()) {
        const auto it = before.find({i, rec.name});
        const std::uint64_t dl =
            rec.launches - (it == before.end() ? 0 : it->second.launches);
        const std::uint64_t ds =
            rec.syncs - (it == before.end() ? 0 : it->second.syncs);
        if (dl == 0) continue;
        launches += dl;
        syncs += ds;
        detail::LaunchShape shape{rec.grid, rec.block, 1, dl};
        // Level-synced kernels pass one barrier per block every other level.
        const auto blocks = static_cast<std::uint64_t>(rec.grid.count());
        if (ds > 0) shape.levels = static_cast<int>(2 * ds / (dl * blocks));
        r.launches.push_back(shape);
      }
    }
    r.s.launches_per_step = static_cast<double>(launches) / r.s.chunk_steps;
    r.s.syncs_per_step = static_cast<double>(syncs) / r.s.chunk_steps;
  }

  void timed_rounds() {
    const double t_begin = now_s();
    const std::size_t n = runs_.size();
    const int min_rounds = opt_.trace ? kMinTracedRounds : kMinRounds;
    for (int round = 0;; ++round) {
      const bool done =
          opt_.rounds > 0
              ? round >= opt_.rounds
              : round >= min_rounds && now_s() - t_begin >= opt_.seconds;
      if (done) break;
      for (std::size_t i = 0; i < n; ++i) {
        EngineRun<L>& r = *runs_[(i + static_cast<std::size_t>(round)) % n];
        guarded(r, [&] {
          const bool traced_first = opt_.trace && round % 2 == 1;
          if (traced_first) r.s.traced_chunk_s.push_back(chunk(r, true));
          r.s.chunk_s.push_back(chunk(r, false));
          if (opt_.trace && !traced_first) {
            r.s.traced_chunk_s.push_back(chunk(r, true));
          }
        });
      }
    }
  }

  void traced_extras(EngineRun<L>& r) {
    detail::set_counters(*r.eng, true);
    r.s.counted_chunk_s = chunk(r, false);
    detail::set_counters(*r.eng, false);
    omp_set_num_threads(1);
    r.s.serial_chunk_s = chunk(r, false);
    omp_set_num_threads(opt_.team);
    for (int i = 0; i < kReplayReps; ++i) {
      r.s.replay_s.push_back(detail::replay_launches(r.launches));
    }
  }

  /// Per-engine self times from the traced chunks' spans.
  void collect_spans() {
    std::map<std::string, EngineSummary*> by_name;
    for (auto& r : runs_) by_name[r->s.name] = &r->s;
    const std::vector<Span>& spans = tracer_.spans();
    const std::vector<double> self = tracer_.self_times();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      const auto it = by_name.find(sp.engine);
      if (it == by_name.end()) continue;
      EngineSummary& s = *it->second;
      if (sp.name == "step") {
        ++s.traced_steps;
        s.remainder_s += self[i];
      } else if (sp.name == "kernel") {
        s.kernel_s += self[i];
        s.slab_s[0] += self[i];
      } else if (sp.name.rfind("slab.", 0) == 0) {
        s.kernel_s += self[i];
        s.slab_s[std::stoul(sp.name.substr(5))] += self[i];
      } else if (sp.name == "post_step") {
        s.post_s += self[i];
      } else if (sp.name == "observe") {
        s.observe_self_s += self[i];
      } else if (sp.name == "chunk") {
        s.chunk_self_s += self[i];
      }
    }
  }

  void final_checks(EngineRun<L>& r) {
    mlbm::Engine<L>& e = *r.eng;
    const mlbm::Box& b = e.geometry().box;
    // Rows of x are swept in parallel; per-row sums and hashes are combined
    // in row order, so the totals do not depend on the team size.
    const int rows = b.ny * b.nz;
    struct Row {
      long double mass = 0, mass0 = 0, energy = 0, energy0 = 0;
      bool finite = true;
      std::uint64_t hash = kFnvBasis;
    };
    std::vector<Row> row(static_cast<std::size_t>(rows));
#pragma omp parallel for schedule(static)
    for (int yz = 0; yz < rows; ++yz) {
      const int y = yz % b.ny, z = yz / b.ny;
      Row& w = row[static_cast<std::size_t>(yz)];
      for (int x = 0; x < b.nx; ++x) {
        const mlbm::Moments<L> m = e.moments_at(x, y, z);
        w.mass += m.rho;
        w.finite = w.finite && std::isfinite(m.rho);
        for (real_t v : m.u) w.finite = w.finite && std::isfinite(v);
        for (real_t v : m.pi) w.finite = w.finite && std::isfinite(v);
        w.hash = fnv1a(w.hash, &m, sizeof m);
        if (e.geometry().solid(x, y, z)) continue;
        const auto i = static_cast<std::size_t>(b.idx(x, y, z));
        w.mass0 += field_.rho[i];
        real_t uu = 0, uu0 = 0;
        for (int a = 0; a < L::D; ++a) {
          uu += m.u[static_cast<std::size_t>(a)] * m.u[static_cast<std::size_t>(a)];
          uu0 += field_.u[i][static_cast<std::size_t>(a)] *
                 field_.u[i][static_cast<std::size_t>(a)];
        }
        w.energy += real_t(0.5) * m.rho * uu;
        w.energy0 += real_t(0.5) * field_.rho[i] * uu0;
      }
    }
    long double mass = 0, mass0 = 0, energy = 0, energy0 = 0;
    bool finite = true;
    std::uint64_t h = kFnvBasis;
    for (const Row& w : row) {
      mass += w.mass;
      mass0 += w.mass0;
      energy += w.energy;
      energy0 += w.energy0;
      finite = finite && w.finite;
      h = fnv1a(h, &w.hash, sizeof w.hash);
    }
    r.s.field_hash = h;
    r.s.steps_done = e.time();
    if (!finite) r.s.failures.push_back("non-finite field");
    // The closed workloads sample their observable only here, and only for
    // the traced run's workloads.observe_ms: it is a serial sweep (~1 s per
    // engine on bulk3d) that no end-to-end metric includes.
    if (opt_.trace && !p_.observe_in_loop) sample(r);
    if (p_.closed) {
      const double drift = static_cast<double>((mass - mass0) / mass0);
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s relative mass drift %.3e",
                    r.s.name.c_str(), drift);
      res_.notes.push_back(buf);
      if (!(std::abs(drift) <= kMassTolerance)) {
        r.s.failures.push_back(std::string("mass not conserved: ") + buf);
      }
      if (!(energy < energy0)) {
        r.s.failures.push_back("kinetic energy did not decay");
      }
    }
  }

  void compare_ep_with_st() {
    const EngineSummary* st = nullptr;
    EngineSummary* ep = nullptr;
    for (auto& r : runs_) {
      if (r->s.name == "ST") st = &r->s;
      if (r->s.name == "EP") ep = &r->s;
    }
    if (st == nullptr || ep == nullptr || !ep->ok()) return;
    if (!st->ok()) {
      ep->failures.push_back("no ST field to compare with");
    } else if (st->steps_done != ep->steps_done) {
      ep->failures.push_back("ran a different step count than ST");
    } else if (st->field_hash != ep->field_hash) {
      ep->failures.push_back("field is not bit-identical to ST");
    }
  }

  /// Relative mass drift allowed on the closed FP64 workloads: measured
  /// drift is ~1e-15 after tens of steps; a leak of one population weight
  /// per step is ~1e-8 at these sizes.
  static constexpr double kMassTolerance = 1e-12;

  WorkloadParams p_;
  std::uint64_t seed_;
  RunOptions opt_;
  Tracer& tracer_;
  WorkloadResult res_;
  Field<L> field_;
  Domain<L> dom_;
  std::vector<std::unique_ptr<EngineRun<L>>> runs_;
};

}  // namespace perfbench
