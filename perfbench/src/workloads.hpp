// The benchmark's three workloads: what each one builds and why.
//
//  bulk3d   D3Q19, fully periodic, dense, FP64, scalar exec, one domain.
//           The kernel layer (gather / collide / scatter and memory) does
//           nearly all the work; boundary, exchange and launch overhead are
//           negligible. Sized so every engine's per-step traffic is >= 4x
//           a 105 MiB L3 (MR-P, the smallest, moves 160 B per node): the
//           workload on which a roof-fraction gain must show.
//  slabs3d  D3Q19 channel (walls on x, periodic y/z) split by
//           MultiDomainEngine into 8 slabs of 32 planes of 16 x 16 nodes,
//           lockstep exchange, FP64, lanes exec, regularized collision (see
//           make_one); the state fits in L3. Launches are small and the
//           per-node moments_at/impose ghost exchange is a sizeable share of
//           each step: the workload for gpusim launch/barrier cost and
//           multidev exchange, both of which bulk3d bypasses. The slabs are
//           32 planes thick rather than a few: on a shared host the serial
//           exchange's time per node swings ~2.5x from second to second, and
//           with 8-plane slabs (64 x 32 x 32) it was 2/3 of an EP step, so
//           mflups.EP varied by up to 0.36 of its median from run to run
//           (32-plane slabs: under half).
//  porous2d D2Q9 seeded porous plug (PorousPlug::create, solid fraction
//           0.3), tile-compressed sparse geometry, inlet/outlet pass, FP32
//           storage, lanes exec, superficial velocity sampled every chunk.
//           Runs the mixed-tile sparse kernels, the FP32 conversions, the bc
//           post-step pass and the workloads observables, none of which the
//           other two use, at another lattice, precision and exec mode.
//
// The engines receive only the generated initial field and the geometry.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "bc/boundary.hpp"
#include "engines/factory.hpp"
#include "multidev/multi_domain.hpp"
#include "workloads/porous_plug.hpp"
#include "workloads/taylor_green.hpp"

namespace perfbench {

using mlbm::real_t;

/// Engines in every workload, in their canonical (first-round) order.
inline const std::vector<std::string>& engine_names() {
  static const std::vector<std::string> names = {"ST", "AA", "EP", "MR-P",
                                                 "MR-R"};
  return names;
}

struct WorkloadParams {
  std::string name;
  int nx = 1, ny = 1, nz = 1;
  real_t tau = 0.8;
  mlbm::StoragePrecision prec = mlbm::StoragePrecision::kFP64;
  mlbm::ExecMode exec = mlbm::ExecMode::kScalar;
  int slabs = 0;             ///< 0 = one monolithic domain
  /// Steps per timed chunk, the same for every engine so EP and ST end on
  /// the same step; even, so AA's two-step cycle is never split.
  int chunk_steps = 2;
  bool closed = false;       ///< no open faces: mass is conserved
  bool observe_in_loop = false;  ///< sample the observable after each chunk
  double solid_fraction = 0;  ///< porous2d only
};

/// Full-size parameters, or the tiny smoke-test variant. Throws
/// mlbm::ConfigError for an unknown workload name.
inline WorkloadParams workload_params(const std::string& name, bool smoke) {
  WorkloadParams p;
  p.name = name;
  if (name == "bulk3d") {
    // 144 x 140 x 140 = 2.82 M nodes: MR-P's 160 B/node per step is 4.1x a
    // 105 MiB L3; every other engine moves more.
    p.nx = smoke ? 24 : 144;
    p.ny = smoke ? 20 : 140;
    p.nz = smoke ? 16 : 140;
    p.closed = true;
  } else if (name == "slabs3d") {
    p.nx = smoke ? 32 : 256;
    p.ny = smoke ? 12 : 16;
    p.nz = smoke ? 10 : 16;
    p.exec = mlbm::ExecMode::kLanes;
    p.slabs = 8;
    p.closed = true;
  } else if (name == "porous2d") {
    p.nx = smoke ? 96 : 512;
    p.ny = smoke ? 32 : 128;
    p.prec = mlbm::StoragePrecision::kFP32;
    p.exec = mlbm::ExecMode::kLanes;
    p.chunk_steps = 10;
    p.observe_in_loop = true;
    p.solid_fraction = 0.3;
  } else {
    throw mlbm::ConfigError("unknown workload '" + name +
                            "' (bulk3d, slabs3d or porous2d)");
  }
  return p;
}

/// Seeded deterministic uniform double in [0, 1) (splitmix64 stream), the
/// same on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  double uniform() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/// porous2d inlet speed (lattice units), also its initial uniform flow.
inline constexpr real_t kInletSpeed = 0.02;
/// Summed amplitude of the 3D workloads' initial shear waves (lattice units).
inline constexpr double kWaveAmplitude = 0.04;

/// Geometry plus, on porous2d, the plug that owns the inlet/outlet pass and
/// the superficial-velocity observable.
template <class L>
struct Domain {
  mlbm::Geometry geo{mlbm::Box{1, 1, 1}};
  std::shared_ptr<const mlbm::PorousPlug<L>> plug;
};

/// Builds the workload geometry (seeded for porous2d).
template <class L>
Domain<L> build_domain(const WorkloadParams& p, std::uint64_t seed) {
  using mlbm::FaceBC;
  Domain<L> d;
  if (p.name == "porous2d") {
    d.plug = std::make_shared<const mlbm::PorousPlug<L>>(
        mlbm::PorousPlug<L>::create(p.nx, p.ny, p.nz, p.tau, kInletSpeed,
                                    p.solid_fraction, seed));
    d.geo = d.plug->geo;
  } else {
    d.geo = mlbm::Geometry(mlbm::Box{p.nx, p.ny, p.nz});
    d.geo.bc.set_axis(0, p.slabs > 0 ? FaceBC::kWall : FaceBC::kPeriodic);
    d.geo.bc.set_axis(1, FaceBC::kPeriodic);
    d.geo.bc.set_axis(2, FaceBC::kPeriodic);
  }
  if (d.geo.sparse()) (void)d.geo.tiles();  // engines address through it
  return d;
}

/// Initial field: rho and u per node, box-indexed.
template <class L>
struct Field {
  std::vector<real_t> rho;
  std::vector<std::array<real_t, L::D>> u;

  [[nodiscard]] std::uint64_t hash(std::uint64_t h = kFnvBasis) const {
    h = fnv1a(h, rho.data(), rho.size() * sizeof(real_t));
    return fnv1a(h, u.data(), u.size() * sizeof(u[0]));
  }
};

/// Seeded small-Mach initial field.
///  bulk3d: three divergence-free shear waves with random integer wave
///          vectors, random polarisation and random phase (a random-phase
///          Taylor-Green-like field).
///  slabs3d: the same waves restricted to the periodic (y, z) plane, each
///          modulated by sin(pi n (x + 1/2) / nx) so u vanishes at the walls.
///  porous2d: uniform inflow at the inlet speed (the plug is the seeded part).
template <class L>
Field<L> make_field(const WorkloadParams& p, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(p.nx) * p.ny * p.nz;
  Field<L> f;
  f.rho.assign(n, real_t(1));
  f.u.assign(n, {});
  if (p.name == "porous2d") {
    for (auto& u : f.u) u[0] = kInletSpeed;
    return f;
  }
  if constexpr (L::D == 3) {
    constexpr int kModes = 3;
    struct Mode {
      std::array<double, 3> k{}, dir{};
      double phase = 0;
      int nwall = 1;
    };
    Rng rng(seed);
    const bool walls = p.slabs > 0;
    std::array<Mode, kModes> modes;
    for (Mode& m : modes) {
      do {
        for (int a = 0; a < 3; ++a) {
          m.k[a] = (walls && a == 0) ? 0.0
                                     : std::floor(rng.uniform() * 5.0) - 2.0;
        }
      } while (m.k[0] == 0 && m.k[1] == 0 && m.k[2] == 0);
      // Random direction, projected orthogonal to k (divergence-free wave).
      std::array<double, 3> d{};
      double kk = 0, dk = 0;
      for (int a = 0; a < 3; ++a) {
        d[a] = (walls && a == 0) ? 0.0 : rng.uniform() - 0.5;
        kk += m.k[a] * m.k[a];
      }
      for (int a = 0; a < 3; ++a) dk += d[a] * m.k[a];
      double norm = 0;
      for (int a = 0; a < 3; ++a) {
        d[a] -= dk / kk * m.k[a];
        norm += d[a] * d[a];
      }
      norm = std::sqrt(norm);
      if (norm < 1e-9) {
        // d drew parallel to k: use k x e_x, orthogonal to k and to the
        // walls' normal (k has no x component when there are walls).
        d = {0.0, m.k[2], -m.k[1]};
        if (!walls && d[1] == 0 && d[2] == 0) d = {0.0, 1.0, 0.0};
        norm = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
      }
      for (int a = 0; a < 3; ++a) m.dir[a] = d[a] / norm;
      m.phase = 2.0 * std::numbers::pi * rng.uniform();
      m.nwall = 1 + static_cast<int>(rng.uniform() * 2.0);
    }
    const double amp = kWaveAmplitude / kModes;
    const double two_pi = 2.0 * std::numbers::pi;
    for (int z = 0; z < p.nz; ++z) {
      for (int y = 0; y < p.ny; ++y) {
        for (int x = 0; x < p.nx; ++x) {
          std::array<real_t, L::D> u{};
          for (const Mode& m : modes) {
            double s = std::sin(two_pi * (m.k[0] * x / p.nx +
                                          m.k[1] * y / p.ny +
                                          m.k[2] * z / p.nz) +
                                m.phase);
            if (walls) s *= std::sin(std::numbers::pi * m.nwall * (x + 0.5) / p.nx);
            for (int a = 0; a < 3; ++a) u[a] += amp * m.dir[a] * s;
          }
          f.u[(static_cast<std::size_t>(z) * p.ny + y) * p.nx + x] = u;
        }
      }
    }
  }
  return f;
}

/// Builds one engine of the workload on `geo` (a slab geometry when
/// `slab`). MR tiles are the repository's per-dimension defaults. The
/// distribution engines collide with BGK, except in slabs: there they use
/// the projective regularization, whose state the moment ghost exchange
/// carries losslessly, so the decomposed run stays exact and conserves
/// mass to round-off (with BGK, AA slabs lose ~1e-13 of the mass per step
/// at the interfaces, the exchange's documented projection).
template <class L>
std::unique_ptr<mlbm::Engine<L>> make_one(const std::string& e,
                                          const WorkloadParams& p,
                                          mlbm::Geometry geo, bool slab) {
  const mlbm::CollisionScheme collision =
      slab ? mlbm::CollisionScheme::kProjective : mlbm::CollisionScheme::kBGK;
  const mlbm::MrConfig cfg =
      L::D == 2 ? mlbm::MrConfig{32, 1, 4} : mlbm::MrConfig{8, 8, 1};
  if (e == "ST") {
    return mlbm::make_st_engine<L>(p.prec, std::move(geo), p.tau,
                                   collision, 256,
                                   mlbm::StreamMode::kPull, p.exec);
  }
  if (e == "AA") {
    return mlbm::make_aa_engine<L>(p.prec, std::move(geo), p.tau,
                                   collision, 256, p.exec,
                                   /*allow_open_faces=*/slab);
  }
  if (e == "EP") {
    return mlbm::make_ep_engine<L>(p.prec, std::move(geo), p.tau,
                                   collision, 256, p.exec);
  }
  const auto reg = e == "MR-P" ? mlbm::Regularization::kProjective
                               : mlbm::Regularization::kRecursive;
  return mlbm::make_mr_engine<L>(p.prec, std::move(geo), p.tau, reg, cfg,
                                 p.exec);
}

/// Builds engine `e` for the workload: monolithic, or decomposed into
/// slabs (AA and EP with depth-2 ghosts, as their in-place scatter needs).
/// On porous2d AA runs the same plug with x periodic instead of the
/// inlet/outlet faces it rejects, and so without the bc pass.
template <class L>
std::unique_ptr<mlbm::Engine<L>> make_engine(const std::string& e,
                                             const WorkloadParams& p,
                                             const mlbm::Geometry& geo) {
  if (p.slabs > 0) {
    const int depth = (e == "AA" || e == "EP") ? 2 : 1;
    return std::make_unique<mlbm::MultiDomainEngine<L>>(
        geo, p.tau, p.slabs,
        [&](mlbm::Geometry g, int) { return make_one<L>(e, p, std::move(g), true); },
        depth);
  }
  if (e == "AA" && p.name == "porous2d") {
    mlbm::Geometry periodic = geo;
    periodic.bc.set_axis(0, mlbm::FaceBC::kPeriodic);
    const mlbm::Box& b = periodic.box;
    for (int z = 0; z < b.nz; ++z) {
      for (int y = 0; y < b.ny; ++y) {
        periodic.set(0, y, z, mlbm::NodeKind::kFluid);
        periodic.set(b.nx - 1, y, z, mlbm::NodeKind::kFluid);
      }
    }
    return make_one<L>(e, p, std::move(periodic), false);
  }
  return make_one<L>(e, p, geo, false);
}

/// The workloads-layer observable sampled on each engine: kinetic energy
/// (TaylorGreen::kinetic_energy) on the closed 3D workloads, superficial
/// velocity (PorousPlug::superficial_velocity) on porous2d.
template <class L>
real_t observe(const mlbm::Engine<L>& eng, const Domain<L>& dom) {
  if (dom.plug) return dom.plug->superficial_velocity(eng);
  return mlbm::TaylorGreen<L>::kinetic_energy(eng);
}

}  // namespace perfbench
