// One launch skeleton for the distribution engines (ST, AA, EP).
//
// The three distribution-function patterns differ only in which lattice
// slots a node reads before its collision and which it writes after it
// (Wittmann et al.; Montessori et al.). Everything around that — mapping
// threads to nodes, lane panels, the sparse tile sweep, the kernel-record
// table and the frontier/interior split of a step — lives here, once.
//
// An engine supplies a *node body* per launch flavour: a small struct that
// holds its constants and array handles by value and provides
//
//   static constexpr bool kNodeLocal;   // touches only the node's own slots
//   template <class Nb> void gather(const Nb& nb, index_t elem, int x, int y,
//                                   int z, real_t (&f)[L::Q]) const;
//   template <class Nb> void scatter(const Nb& nb, index_t elem, int x, int y,
//                                    int z, const real_t (&f)[L::Q],
//                                    real_t rho_pre) const;
//
// `elem` is the node's own element (box cell when dense, slot*64+local when
// sparse), `nb(X, Y, Z)` the element of an in-box neighbour (box.idx when
// dense, stash_elem when sparse), and `rho_pre` the sum of the gathered
// populations (the density moving-wall corrections use; bodies that do not
// read it let the compiler drop it). Each body is therefore written once for
// both iteration spaces and both execution modes.
//
// Dense launches cover source planes [rx0, rx1): thread r maps to node
// (rx0 + r % nxr, ...), which for the full range is exactly the flat cell
// index. ExecMode::kScalar runs one node per simulated thread with the
// collision scheme dispatched once per launch; ExecMode::kLanes gathers
// kLaneWidth nodes into a SoA panel, collides it with collide_lanes and
// scatters node by node — the per-node access and arithmetic sequence is the
// scalar one, only interleaved, so fields and all four traffic counters are
// identical between the modes. The node body is copied into a block-local
// value before the thread loop: GCC then keeps its constants in registers,
// where a captured reference would make every counted store force a reload
// (about a third of the gather loop's throughput).
//
// Sparse launches cover entries [begin, begin + count) of a tile list, one
// thread per tile: the thread loads the 3^D neighbour-slot stash (only the
// tile's own slot for node-local bodies), then sweeps the tile's 64 locals,
// skipping those the occupancy mask marks solid. Sparse runs the scalar
// driver in both execution modes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "analysis/static/contract.hpp"
#include "core/collision.hpp"
#include "core/lanes.hpp"
#include "core/regularization.hpp"
#include "engines/engine.hpp"
#include "engines/streaming.hpp"
#include "engines/tile_kernels.hpp"
#include "gpusim/global_array.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/profiler.hpp"

namespace mlbm {

/// Neighbour-element lookup of the dense iteration space.
struct DenseNeighbours {
  Box b;
  [[nodiscard]] index_t operator()(int x, int y, int z) const {
    return b.idx(x, y, z);
  }
};

/// Neighbour-element lookup of one sparse tile, through its slot stash.
struct TileNeighbours {
  const std::int32_t (&stash)[27];
  TileGridInfo g;
  int tx, ty, tz;
  [[nodiscard]] index_t operator()(int x, int y, int z) const {
    return stash_elem(stash, g, tx, ty, tz, x, y, z);
  }
};

/// Moving-wall bounceback correction 2 w_i rho (c_i . u_wall) / cs2, in the
/// operand order every engine has always used (bit-identity across engines).
template <class L>
MLBM_ALWAYS_INLINE inline real_t wall_term(int i, real_t rho, real_t cu_wall) {
  constexpr real_t inv_cs2 = real_t(1) / L::cs2;
  return real_t(2) * L::w[static_cast<std::size_t>(i)] * rho * cu_wall *
         inv_cs2;
}

/// Per-launch constants of a node body, held by value.
template <class L>
struct NodeBase {
  const Geometry* geo;
  index_t elems;  ///< elements per direction (box cells or tile slots * 64)
  bool batched;   ///< own-node Q-slot I/O as one span transaction

  [[nodiscard]] index_t soa(int i, index_t elem) const {
    return static_cast<index_t>(i) * elems + elem;
  }
  [[nodiscard]] StreamTarget target(int x, int y, int z, int i) const {
    return resolve_stream<L>(*geo, x, y, z, i);
  }
  /// The node's own Q slots, span-batched or one scalar load each.
  template <class ST>
  MLBM_ALWAYS_INLINE void load_own(const gpusim::GlobalArray<ST>& a,
                                   index_t elem, real_t (&f)[L::Q]) const {
    if (batched) {
      a.template load_span_as<real_t>(elem, elems, L::Q, f);
    } else {
      for (int i = 0; i < L::Q; ++i) f[i] = a.template load_as<real_t>(soa(i, elem));
    }
  }
  template <class ST>
  MLBM_ALWAYS_INLINE void store_own(gpusim::GlobalArray<ST>& a, index_t elem,
                                    const real_t (&f)[L::Q]) const {
    if (batched) {
      a.template store_span_as<real_t>(elem, elems, L::Q, f);
    } else {
      for (int i = 0; i < L::Q; ++i) a.template store_as<real_t>(soa(i, elem), f[i]);
    }
  }
};

/// Dense launch over source planes [rx0, rx1) (see file comment).
template <class L, class Node>
void launch_planes(gpusim::Profiler& prof, gpusim::KernelRecord& rec,
                   const Box& b, int rx0, int rx1, int tpb, ExecMode exec,
                   CollisionScheme scheme, real_t tau, const Node& node) {
  const auto nxr = static_cast<index_t>(rx1 - rx0);
  const index_t rcells = nxr * b.ny * b.nz;
  const auto nblocks =
      static_cast<int>((rcells + tpb - 1) / static_cast<index_t>(tpb));
  const DenseNeighbours nb{b};
  const auto node_xyz = [rx0, nxr, ny = b.ny](index_t r, int& x, int& y,
                                              int& z) MLBM_ALWAYS_INLINE {
    x = rx0 + static_cast<int>(r % nxr);
    y = static_cast<int>((r / nxr) % ny);
    z = static_cast<int>(r / (nxr * static_cast<index_t>(ny)));
  };

  if (exec != ExecMode::kLanes) {
    dispatch_collision(scheme, [&](auto sc) {
      gpusim::launch(
          prof, rec, gpusim::Dim3{nblocks, 1, 1}, gpusim::Dim3{tpb, 1, 1},
          [&](gpusim::BlockCtx& blk) {
            const Node nd = node;
            blk.for_each_thread([&](const gpusim::Dim3& tid) {
              const index_t r =
                  static_cast<index_t>(blk.block_idx().x) * tpb + tid.x;
              if (r >= rcells) return;
              int x = 0, y = 0, z = 0;
              node_xyz(r, x, y, z);
              const index_t cell = b.idx(x, y, z);
              real_t f[L::Q];
              nd.gather(nb, cell, x, y, z, f);
              real_t rho = 0;
              for (int i = 0; i < L::Q; ++i) rho += f[i];
              collide<L, decltype(sc)::value>(f, tau);
              nd.scatter(nb, cell, x, y, z, f, rho);
            });
          });
    });
    return;
  }
  gpusim::launch(
      prof, rec, gpusim::Dim3{nblocks, 1, 1}, gpusim::Dim3{tpb, 1, 1},
      [&](gpusim::BlockCtx& blk) {
        const Node nd = node;
        const index_t start = static_cast<index_t>(blk.block_idx().x) * tpb;
        const index_t end = std::min(start + tpb, rcells);
        for (index_t p0 = start; p0 < end; p0 += kLaneWidth) {
          const int n =
              static_cast<int>(std::min<index_t>(kLaneWidth, end - p0));
          real_t panel[L::Q][kLaneWidth];
          real_t rho[kLaneWidth];
          index_t cellv[kLaneWidth];
          for (int ln = 0; ln < n; ++ln) {
            int x = 0, y = 0, z = 0;
            node_xyz(p0 + ln, x, y, z);
            cellv[ln] = b.idx(x, y, z);
            real_t f[L::Q];
            nd.gather(nb, cellv[ln], x, y, z, f);
            real_t s = 0;
            for (int i = 0; i < L::Q; ++i) s += f[i];
            rho[ln] = s;
            for (int i = 0; i < L::Q; ++i) panel[i][ln] = f[i];
          }
          collide_lanes<L, kLaneWidth>(scheme, panel, n, tau);
          for (int ln = 0; ln < n; ++ln) {
            int x = 0, y = 0, z = 0;
            node_xyz(p0 + ln, x, y, z);
            real_t f[L::Q];
            for (int i = 0; i < L::Q; ++i) f[i] = panel[i][ln];
            nd.scatter(nb, cellv[ln], x, y, z, f, rho[ln]);
          }
        }
      });
}

/// Sparse launch over tile-list entries [begin, begin + count); `masks` is
/// null for the all-fluid list (see file comment).
template <class L, class Node>
void launch_tiles(gpusim::Profiler& prof, gpusim::KernelRecord& rec,
                  const TileIndexDev& tdev,
                  const gpusim::GlobalArray<std::int32_t>& list,
                  const gpusim::GlobalArray<std::uint64_t>* masks, int begin,
                  int count, bool is3d, int tpb, CollisionScheme scheme,
                  real_t tau, const Node& node) {
  if (count <= 0) return;
  const TileGridInfo g = tdev.grid;
  const int nblocks = (count + tpb - 1) / tpb;
  dispatch_collision(scheme, [&](auto sc) {
    gpusim::launch(
        prof, rec, gpusim::Dim3{nblocks, 1, 1}, gpusim::Dim3{tpb, 1, 1},
        [&](gpusim::BlockCtx& blk) {
          const Node nd = node;
          blk.for_each_thread([&](const gpusim::Dim3& tid) {
            const index_t r =
                static_cast<index_t>(blk.block_idx().x) * tpb + tid.x;
            if (r >= static_cast<index_t>(count)) return;
            const std::int32_t tile = list.load(static_cast<index_t>(begin) + r);
            const std::uint64_t occ =
                masks != nullptr ? masks->load(static_cast<index_t>(begin) + r)
                                 : ~std::uint64_t{0};
            const int tx = tile % g.ntx;
            const int ty = (tile / g.ntx) % g.nty;
            const int tz = tile / (g.ntx * g.nty);
            std::int32_t stash[27];
            if constexpr (Node::kNodeLocal) {
              stash[13] = tdev.slots.load(tile);
            } else {
              load_tile_stash(tdev.slots, g, tx, ty, tz, is3d, stash);
            }
            const TileNeighbours nb{stash, g, tx, ty, tz};
            const index_t own_base =
                static_cast<index_t>(stash[13]) * TileMap::kSlots;
            for (int local = 0; local < TileMap::kSlots; ++local) {
              if (!(occ >> local & 1ull)) continue;
              const int x = tx * g.tdx + local % g.tdx;
              const int y = ty * g.tdy + (local / g.tdx) % g.tdy;
              const int z = tz * g.tdz + local / (g.tdx * g.tdy);
              const index_t elem = own_base + local;
              real_t f[L::Q];
              nd.gather(nb, elem, x, y, z, f);
              real_t rho = 0;
              for (int i = 0; i < L::Q; ++i) rho += f[i];
              collide<L, decltype(sc)::value>(f, tau);
              nd.scatter(nb, elem, x, y, z, f, rho);
            }
          });
        });
  });
}

// ---- host-side state translation shared by the engines ----------------------

/// Pre-collision moments of a node whose storage holds the post-collision
/// populations `f`: collision conserves rho and u and scales the
/// non-equilibrium second moment by (1 - 1/tau), which this undoes.
template <class L>
Moments<L> unrelaxed_moments(const real_t (&f)[L::Q], real_t tau) {
  Moments<L> m = compute_moments<L>(f);
  const real_t factor = real_t(1) - real_t(1) / tau;
  if (factor != real_t(0)) {
    for (int p = 0; p < Moments<L>::NP; ++p) {
      const auto [a, b] = Moments<L>::pair(p);
      const real_t eq = m.rho * m.u[static_cast<std::size_t>(a)] *
                        m.u[static_cast<std::size_t>(b)];
      m.pi[static_cast<std::size_t>(p)] =
          eq + (m.pi[static_cast<std::size_t>(p)] - eq) / factor;
    }
  }
  return m;
}

/// Populations carrying the moments `m` with the non-equilibrium second
/// moment scaled by `scale` — 1 for the pre-collision state itself,
/// 1 - 1/tau for its post-collision image. Recursive (MR-R) reconstruction
/// when `recursive`, projective otherwise; one branch per node, not per
/// population.
template <class L>
void populations_of(const Moments<L>& m, real_t scale, bool recursive,
                    real_t (&f)[L::Q]) {
  real_t pineq[Moments<L>::NP];
  for (int p = 0; p < Moments<L>::NP; ++p) pineq[p] = scale * m.pi_neq(p);
  if (recursive) {
    for (int i = 0; i < L::Q; ++i) {
      f[i] = reconstruct_recursive<L>(i, m.rho, m.u.data(), pineq);
    }
  } else {
    for (int i = 0; i < L::Q; ++i) {
      f[i] = reconstruct_projective<L>(i, m.rho, m.u.data(), pineq);
    }
  }
}

// ---- the shared engine base --------------------------------------------------

/// Base of the gpusim distribution engines: storage layout (dense cells or
/// tile-compressed elements), the kernel-record table and the whole-step /
/// split-step orchestration. A step runs one of two launch *flavours*: AA and
/// EP alternate even/odd by step parity, ST always runs the one its
/// StreamMode fixes (both flavour slots name it).
template <class L, class ST>
class DistEngine : public Engine<L> {
 public:
  using StorageT = ST;

  /// Sets every fluid node through impose().
  void initialize(const typename Engine<L>::InitFn& init) override {
    const Box& b = this->geo_.box;
    for (int z = 0; z < b.nz; ++z) {
      for (int y = 0; y < b.ny; ++y) {
        for (int x = 0; x < b.nx; ++x) {
          if (solid(x, y, z)) continue;
          this->impose(x, y, z, init(x, y, z));
        }
      }
    }
  }

  [[nodiscard]] StoragePrecision storage_precision() const override {
    return precision_of_v<ST>;
  }
  [[nodiscard]] gpusim::Profiler* profiler() override { return &prof_; }
  [[nodiscard]] const gpusim::Profiler* profiler() const override {
    return &prof_;
  }
  [[nodiscard]] bool supports_frontier_split() const override { return true; }
  [[nodiscard]] int threads_per_block() const { return threads_per_block_; }
  [[nodiscard]] ExecMode exec_mode() const { return exec_; }

 protected:
  /// One launch flavour: its contract tag (which also names its kernel
  /// records, analysis::node_kernel_name) and the number of source planes a
  /// split step adds to each frontier — 0 when a node writes only its own
  /// planes' words, 1 when its writes reach the neighbouring plane.
  struct Flavour {
    const char* tag;
    int ext;
  };

  DistEngine(Geometry geo, real_t tau, CollisionScheme scheme,
             int threads_per_block, ExecMode exec,
             std::array<Flavour, 2> flavours)
      : Engine<L>(std::move(geo), tau),
        scheme_(scheme),
        threads_per_block_(threads_per_block),
        exec_(exec),
        flavours_(flavours) {
    sparse_ = this->geo_.sparse();
    if (sparse_) {
      tdev_.build(this->geo_.tiles(), &prof_.counter());
      elems_ = this->geo_.tiles().elements();
    } else {
      elems_ = this->geo_.box.cells();
    }
  }

  void do_step() override { step_nodes(nullptr, nullptr); }
  void do_step_split(const FrontierSpec& fs,
                     const typename Engine<L>::FrontierDoneFn& on_frontier)
      override {
    step_nodes(&fs, on_frontier);
  }
  /// Runs one step (split when `fs` is non-null): picks the flavour's node
  /// body and hands it to run_step.
  virtual void step_nodes(
      const FrontierSpec* fs,
      const typename Engine<L>::FrontierDoneFn& on_frontier) = 0;

  /// The whole step with node body `node` of flavour `v`. Plain steps run
  /// every node in one launch per tile list. Split steps run the frontier
  /// planes (extended by the flavour's ext) first, call `on_frontier` exactly
  /// once, then the interior; a split that would leave no interior runs the
  /// whole step as frontier. Sparse tiles over-cover the frontier planes.
  template <class Node>
  void run_step(int v, const Node& node, const FrontierSpec* fs,
                const typename Engine<L>::FrontierDoneFn& on_frontier) {
    ensure_records();
    const Box& b = this->geo_.box;
    const int ext = flavours_[static_cast<std::size_t>(v)].ext;
    int fl = 0, fr = 0;
    if (fs != nullptr && !fs->empty()) {
      fl = fs->left > 0 ? fs->left + ext : 0;
      fr = fs->right > 0 ? fs->right + ext : 0;
      if (fl + fr >= b.nx) fl = fr = 0;
    }
    const auto done = [&] {
      if (fs != nullptr && on_frontier) on_frontier();
    };
    const auto rec = [&](int list, bool frontier) -> gpusim::KernelRecord& {
      return *rec_[v][list][frontier ? 1 : 0];
    };

    if (!sparse_) {
      const auto planes = [&](int x0, int x1, bool frontier) {
        launch_planes<L>(prof_, rec(0, frontier), b, x0, x1,
                         threads_per_block_, exec_, scheme_, this->tau_, node);
      };
      if (fl == 0 && fr == 0) {
        planes(0, b.nx, false);
        done();
        return;
      }
      // The launches form one logical step: the sanitizer's freshness
      // window spans all three.
      gpusim::LaunchGroup group(prof_);
      if (fl > 0) planes(0, fl, true);
      if (fr > 0) planes(b.nx - fr, b.nx, true);
      done();
      planes(fl, b.nx - fr, false);
      return;
    }

    // Per-tile-class launches (list 0: all-fluid tiles, 1: mixed tiles),
    // recorded separately so the profiler attributes traffic per class.
    gpusim::LaunchGroup group(prof_);
    const auto tiles = [&](int list, int begin, int count, bool frontier) {
      launch_tiles<L>(prof_, rec(list, frontier), tdev_,
                      list == 0 ? tdev_.fluid : tdev_.mixed,
                      list == 0 ? nullptr : &tdev_.mask, begin, count,
                      b.nz > 1, threads_per_block_, scheme_, this->tau_, node);
    };
    const int n[2] = {tdev_.n_fluid_tiles, tdev_.n_mixed_tiles};
    TileRange r[2];
    bool split = fl > 0 || fr > 0;
    for (int list = 0; list < 2 && split; ++list) {
      const TileGridInfo& g = tdev_.grid;
      r[list] = partition_tiles(list == 0 ? tdev_.fluid : tdev_.mixed,
                                n[list], g.tdx, g.ntx, b.nx, fl, fr);
      split = !r[list].degenerate();
    }
    if (!split) {
      tiles(0, 0, n[0], false);
      tiles(1, 0, n[1], false);
      done();
      return;
    }
    for (int list = 0; list < 2; ++list) {
      tiles(list, 0, r[list].left, true);
      tiles(list, r[list].right, r[list].n - r[list].right, true);
    }
    done();
    for (int list = 0; list < 2; ++list) {
      tiles(list, r[list].left, r[list].right - r[list].left, false);
    }
  }

  [[nodiscard]] index_t soa(int i, index_t elem) const {
    return static_cast<index_t>(i) * elems_ + elem;
  }
  /// Element index of node (x, y, z): the box cell when dense, the
  /// tile-compressed slot*64+local when sparse (-1 for nodes in unallocated
  /// all-solid tiles).
  [[nodiscard]] index_t element(int x, int y, int z) const {
    return sparse_ ? this->geo_.tiles().element(x, y, z)
                   : this->geo_.box.idx(x, y, z);
  }
  [[nodiscard]] bool solid(int x, int y, int z) const {
    return this->geo_.has_solids() && this->geo_.solid(x, y, z);
  }
  /// Per-launch constants for a node body.
  [[nodiscard]] NodeBase<L> node_base(bool batched) const {
    return NodeBase<L>{&this->geo_, elems_, batched};
  }
  /// Raw-state layout tag: pattern, `phase` separator, extents, and the
  /// geometry hash when sparse (compressed-element order depends on the flag
  /// field, so restores must come from the identical geometry).
  [[nodiscard]] std::string layout_tag(const char* phase) const {
    const Box& b = this->geo_.box;
    std::string tag = std::string(this->pattern_name()) + phase +
                      std::to_string(b.nx) + "x" + std::to_string(b.ny) +
                      "x" + std::to_string(b.nz);
    if (sparse_) tag += "|sparse:" + std::to_string(this->geo_.hash());
    return tag;
  }

  CollisionScheme scheme_;
  int threads_per_block_;
  ExecMode exec_;
  gpusim::Profiler prof_;
  /// Elements per direction: box cells (dense) or tile slots * 64 (sparse).
  index_t elems_ = 0;
  bool sparse_ = false;
  TileIndexDev tdev_;

 private:
  /// Registers the kernel records on first use, so steady-state stepping
  /// does no string lookup. Split steps record their frontier launches
  /// separately (overlap traffic stays attributable); sparse steps record
  /// the fluid- and mixed-tile launches separately.
  void ensure_records() {
    if (rec_[0][0][0] != nullptr) return;
    using analysis::TileClass;
    for (int v = 0; v < 2; ++v) {
      const char* tag = flavours_[static_cast<std::size_t>(v)].tag;
      for (int list = 0; list < (sparse_ ? 2 : 1); ++list) {
        const TileClass cls = !sparse_    ? TileClass::kDense
                              : list == 0 ? TileClass::kFluid
                                          : TileClass::kMixed;
        for (int frontier = 0; frontier < 2; ++frontier) {
          gpusim::KernelRecord& r = prof_.record(
              analysis::node_kernel_name(tag, L::name(), cls, frontier == 1));
          r.contract = tag;
          rec_[v][list][frontier] = &r;
        }
      }
    }
  }

  std::array<Flavour, 2> flavours_;
  /// [flavour][tile list][frontier]; dense engines use list 0 only.
  gpusim::KernelRecord* rec_[2][2][2] = {};
};

}  // namespace mlbm
