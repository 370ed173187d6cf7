#include "engines/mr_engine.hpp"

#include "util/error.hpp"

#include <array>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/collision.hpp"
#include "core/lanes.hpp"
#include "engines/streaming.hpp"
#include "gpusim/launch.hpp"

namespace mlbm {

namespace {

/// Velocity component along the sweep axis (y in 2D, z in 3D).
template <class L>
constexpr int c_sweep(int i) {
  return L::c[static_cast<std::size_t>(i)][L::D == 2 ? 1 : 2];
}

/// Flat element of moment `m` of compressed column `col` at physical sweep
/// layer `sp`, in a lattice of `layers` sweep layers by `ncols` columns
/// (component-major, then layer, then column). The host-side midx and the
/// kernel's moment I/O both address through it.
constexpr index_t moment_addr(int m, int sp, index_t col, index_t layers,
                              index_t ncols) {
  return (static_cast<index_t>(m) * layers + sp) * ncols + col;
}

}  // namespace

template <class L, class ST>
MrEngine<L, ST>::MrEngine(Geometry geo, real_t tau, Regularization scheme,
                      MrConfig config, ExecMode exec)
    : Engine<L>(std::move(geo), tau),
      scheme_(scheme),
      config_(config),
      exec_(exec) {
  if (config_.tile_x < 1 || config_.tile_y < 1 || config_.tile_s < 1) {
    throw ConfigError("MrEngine: tile extents must be positive");
  }
  const Box& b = this->geo_.box;
  if constexpr (L::D == 2) {
    if (b.nz != 1) throw ConfigError("MrEngine<2D>: nz must be 1");
  }
  const auto ncx0 = static_cast<std::size_t>(b.nx);
  const auto ncx1 = static_cast<std::size_t>(L::D == 2 ? 1 : b.ny);
  sparse_ = this->geo_.sparse();
  if (sparse_) {
    // Column compression: a cross-section column whose every sweep layer is
    // solid allocates no moment storage. Ids are assigned in row-major cross
    // order, so an all-fluid (forced-sparse) geometry gets the identity map
    // and the dense addressing bit-for-bit.
    const int S = sweep_extent();
    colmap_.allocate(ncx0 * ncx1, &prof_.counter());
    index_t next = 0;
    for (std::size_t c1 = 0; c1 < ncx1; ++c1) {
      for (std::size_t c0 = 0; c0 < ncx0; ++c0) {
        bool any_fluid = false;
        for (int s = 0; s < S && !any_fluid; ++s) {
          const int x = static_cast<int>(c0);
          const int y = L::D == 2 ? s : static_cast<int>(c1);
          const int z = L::D == 2 ? 0 : s;
          any_fluid = !this->geo_.solid(x, y, z);
        }
        colmap_.raw(static_cast<index_t>(c1 * ncx0 + c0)) =
            any_fluid ? static_cast<std::int32_t>(next++)
                      : std::int32_t{-1};
      }
    }
    ncols_ = next;
  } else {
    ncols_ = static_cast<index_t>(ncx0 * ncx1);
  }
  const auto n = static_cast<std::size_t>(M * moment_layers() * ncols_);
  mom_[0].allocate(n, &prof_.counter());
  if (config_.storage == MomentStorage::kPingPong) {
    mom_[1].allocate(n, &prof_.counter());
  }
}

template <class L, class ST>
int MrEngine<L, ST>::sweep_extent() const {
  return L::D == 2 ? this->geo_.box.ny : this->geo_.box.nz;
}

template <class L, class ST>
index_t MrEngine<L, ST>::moment_layers() const {
  return config_.storage == MomentStorage::kPingPong ? sweep_extent()
                                                     : sweep_extent() + 2;
}

template <class L, class ST>
int MrEngine<L, ST>::phys_layer(int s, long long t) const {
  if (config_.storage == MomentStorage::kPingPong) return s;
  const long long r = sweep_extent() + 2;
  const long long p = (static_cast<long long>(s) - 2 * t) % r;
  return static_cast<int>(p < 0 ? p + r : p);
}

template <class L, class ST>
index_t MrEngine<L, ST>::col_of(int cx0, int cx1) const {
  const index_t ncx0 = this->geo_.box.nx;
  const index_t flat = static_cast<index_t>(cx1) * ncx0 + cx0;
  if (!sparse_) return flat;
  return static_cast<index_t>(std::as_const(colmap_).raw(flat));
}

template <class L, class ST>
index_t MrEngine<L, ST>::midx(int m, int cx0, int cx1, int sp) const {
  return moment_addr(m, sp, col_of(cx0, cx1), moment_layers(), ncols_);
}

template <class L, class ST>
Moments<L> MrEngine<L, ST>::read_moments_raw(int cx0, int cx1, int s,
                                         long long t) const {
  const int sp = phys_layer(s, t);
  const auto& buf = mom_[cur_];
  Moments<L> m;
  m.rho = static_cast<real_t>(buf.raw(midx(0, cx0, cx1, sp)));
  for (int a = 0; a < L::D; ++a) {
    m.u[static_cast<std::size_t>(a)] =
        static_cast<real_t>(buf.raw(midx(1 + a, cx0, cx1, sp)));
  }
  for (int p = 0; p < NP; ++p) {
    m.pi[static_cast<std::size_t>(p)] =
        static_cast<real_t>(buf.raw(midx(1 + L::D + p, cx0, cx1, sp)));
  }
  return m;
}

template <class L, class ST>
void MrEngine<L, ST>::write_moments_raw(int cx0, int cx1, int s, long long t,
                                    const Moments<L>& m) {
  const int sp = phys_layer(s, t);
  auto& buf = mom_[cur_];
  buf.raw(midx(0, cx0, cx1, sp)) = static_cast<ST>(m.rho);
  for (int a = 0; a < L::D; ++a) {
    buf.raw(midx(1 + a, cx0, cx1, sp)) =
        static_cast<ST>(m.u[static_cast<std::size_t>(a)]);
  }
  for (int p = 0; p < NP; ++p) {
    buf.raw(midx(1 + L::D + p, cx0, cx1, sp)) =
        static_cast<ST>(m.pi[static_cast<std::size_t>(p)]);
  }
}

template <class L, class ST>
void MrEngine<L, ST>::initialize(const typename Engine<L>::InitFn& init) {
  const Box& b = this->geo_.box;
  const bool solids = this->geo_.has_solids();
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (int x = 0; x < b.nx; ++x) {
        if (solids && this->geo_.solid(x, y, z)) continue;
        impose(x, y, z, init(x, y, z));
      }
    }
  }
}

template <class L, class ST>
Moments<L> MrEngine<L, ST>::moments_at(int x, int y, int z) const {
  if (this->geo_.has_solids() && this->geo_.solid(x, y, z)) {
    return solid_moments<L>();
  }
  if constexpr (L::D == 2) {
    return read_moments_raw(x, 0, y, this->t_);
  } else {
    return read_moments_raw(x, y, z, this->t_);
  }
}

template <class L, class ST>
void MrEngine<L, ST>::impose(int x, int y, int z, const Moments<L>& m) {
  if (this->geo_.has_solids() && this->geo_.solid(x, y, z)) return;
  if constexpr (L::D == 2) {
    write_moments_raw(x, 0, y, this->t_, m);
  } else {
    write_moments_raw(x, y, z, this->t_, m);
  }
}

template <class L, class ST>
std::size_t MrEngine<L, ST>::state_bytes() const {
  // kPingPong: two full moment lattices. kCircularShift: only mom_[0]
  // exists, sized S+2 sweep layers (M per node plus two layers — the
  // paper's footprint claim); the never-allocated mom_[1] is not touched.
  std::size_t n = mom_[0].size_bytes();
  if (mom_[1].allocated()) n += mom_[1].size_bytes();
  if (sparse_) n += colmap_.size_bytes();
  return n;
}

template <class L, class ST>
int MrEngine<L, ST>::threads_per_block() const {
  if constexpr (L::D == 2) {
    return (config_.tile_x + 2) * config_.tile_s;
  } else {
    return (config_.tile_x + 2) * (config_.tile_y + 2) * config_.tile_s;
  }
}

template <class L, class ST>
std::size_t MrEngine<L, ST>::shared_bytes_per_block() const {
  const std::size_t cross =
      static_cast<std::size_t>(config_.tile_x) *
      static_cast<std::size_t>(L::D == 2 ? 1 : config_.tile_y);
  return cross * static_cast<std::size_t>(config_.tile_s + 2) *
         static_cast<std::size_t>(L::Q) * sizeof(real_t);
}

template <class L, class ST>
int MrEngine<L, ST>::tiles_x() const {
  const int ncx0 = this->geo_.box.nx;
  const int tx = std::min(config_.tile_x, ncx0);
  return (ncx0 + tx - 1) / tx;
}

template <class L, class ST>
gpusim::KernelRecord& MrEngine<L, ST>::record(bool frontier) {
  // The frontier record is registered on the first split step only, so
  // engines that never split keep a single kernel record (the profiler
  // reports registered kernels even before their first launch).
  gpusim::KernelRecord*& r = frontier ? krec_frontier_ : krec_;
  if (r == nullptr) {
    r = &prof_.record(analysis::mr_kernel_name(
        scheme_ == Regularization::kProjective, L::name(), frontier));
    r->contract = "mr.sweep";
  }
  return *r;
}

template <class L, class ST>
void MrEngine<L, ST>::do_step() {
  step_tiles(0, tiles_x(), record(false));
  if (config_.storage == MomentStorage::kPingPong) cur_ = 1 - cur_;
}

template <class L, class ST>
void MrEngine<L, ST>::do_step_split(
    const FrontierSpec& fs,
    const typename Engine<L>::FrontierDoneFn& on_frontier) {
  gpusim::KernelRecord& rec = record(false);
  const bool ping_pong = config_.storage == MomentStorage::kPingPong;
  const int ncx0 = this->geo_.box.nx;
  const int tx = std::min(config_.tile_x, ncx0);
  const int nc0 = tiles_x();
  // Finalizing planes [0, left) needs every tile that owns one of them:
  // phase B writes a node's moments only from its own column, so whole
  // tiles are the split granule. No ext — columns read the ping-pong read
  // side only, which this step never writes.
  const int lt = fs.left > 0 ? (fs.left + tx - 1) / tx : 0;
  const int rt = fs.right > 0 ? (fs.right + tx - 1) / tx : 0;
  if (!ping_pong || fs.empty() || lt + rt >= nc0) {
    step_tiles(0, nc0, rec);
    if (on_frontier) on_frontier();
  } else {
    gpusim::KernelRecord& frec = record(true);
    gpusim::LaunchGroup group(prof_);
    if (lt > 0) step_tiles(0, lt, frec);
    if (rt > 0) step_tiles(nc0 - rt, rt, frec);
    if (on_frontier) on_frontier();
    step_tiles(lt, nc0 - lt - rt, rec);
  }
  if (ping_pong) cur_ = 1 - cur_;
}

template <class L, class ST>
void MrEngine<L, ST>::step_tiles(int c0_begin, int c0_count,
                                 gpusim::KernelRecord& rec) {
  const Box& b = this->geo_.box;
  const Geometry& geo = this->geo_;
  const real_t inv_cs2 = real_t(1) / L::cs2;
  const real_t relax = real_t(1) - real_t(1) / this->tau_;
  const long long tt = this->t_;
  const bool ping_pong = config_.storage == MomentStorage::kPingPong;

  const int ncx0 = b.nx;
  const int ncx1 = (L::D == 2) ? 1 : b.ny;
  const int S = sweep_extent();
  const int tx = std::min(config_.tile_x, ncx0);
  const int ty = (L::D == 2) ? 1 : std::min(config_.tile_y, ncx1);
  const int ts = std::min(config_.tile_s, S);
  const int nc1 = (ncx1 + ty - 1) / ty;
  const int ntiles = (S + ts - 1) / ts;
  const int ring_w = ts + 2;

  const bool sweep_periodic = geo.bc.periodic(kSweepAxis);
  const bool cx0_periodic = geo.bc.periodic(0);
  const bool cx1_periodic = (L::D == 3) && geo.bc.periodic(1);
  if (sweep_periodic && S < ts + 3) {
    throw ConfigError(
        "MrEngine: periodic sweep axis requires extent >= tile_s + 3");
  }
  const bool sparse = sparse_;
  const bool solids = geo.has_solids();
  const gpusim::GlobalArray<std::int32_t>& colmap = colmap_;
  /// Solid flag of cross-section position (cx0, cx1) at sweep layer s.
  const auto is_solid = [&](int cx0, int cx1, int s) {
    if constexpr (L::D == 2) {
      return geo.solid(cx0, s, 0);
    } else {
      return geo.solid(cx0, cx1, s);
    }
  };
  /// The link that streams population `i` out of node (hx, hy, s):
  /// interior (periodic axes wrapped), bounce (wall face or solid
  /// neighbour) or dropped (open face, which wins over a wall corner) —
  /// the classification every push-style engine shares.
  const auto link = [&](int hx, int hy, int s, int i) MLBM_FLATTEN {
    if constexpr (L::D == 2) {
      return resolve_stream<L>(geo, hx, s, 0, i);
    } else {
      return resolve_stream<L>(geo, hx, hy, s, i);
    }
  };

  const gpusim::GlobalArray<ST>& rbuf = mom_[ping_pong ? cur_ : 0];
  gpusim::GlobalArray<ST>& wbuf = mom_[ping_pong ? 1 - cur_ : 0];

  // Sanitizer plumbing. The phase bodies are generic lambdas over a
  // bool_constant `sanc`, dispatched once at the launch site — the
  // un-instrumented instantiation contains no shared-access reporting at
  // all (`if constexpr`), so attaching the hook costs the null path
  // nothing. The kernel reports its shared-ring accesses itself because
  // the ring is a raw span (the conceptual GPU thread ids are the kernel's
  // to define: phase A's source-halo threads and phase B's per-node writer
  // threads get disjoint id ranges).
  gpusim::SanitizerHook* const sanh = prof_.sanitizer_hook();
  constexpr int kPhaseBTid = 1 << 20;
  auto note_shared = [&](gpusim::BlockCtx& blk, const real_t* addr, int tid,
                         bool write) {
    sanh->shared_access(blk.linear_block(), addr, tid, write, blk.epoch());
  };

  // Seeded-mutation offsets (sanitizer kill-rate tests): a broken ring shift
  // or shortened write-behind distance is one slot offset on the circular
  // write layer. 0 in normal operation.
  const int wmut = ping_pong ? 0
                             : (2 - mutation_.write_behind) +
                                   mutation_.ring_shift_bias;
  const bool skip_phase_sync = mutation_.skip_phase_sync;
  const bool shrink_halo = mutation_.shrink_cross_halo;

  // Moment I/O: a node's M moments are one batched span at the stride
  // between consecutive moment components, or M scalar accesses under the
  // validation hook (same bytes, M times the transactions). `ncols` is the
  // full cross-section when dense, so the dense addresses are the flat ones.
  const index_t ncols = ncols_;
  const index_t layers_n = moment_layers();
  const index_t mstride = layers_n * ncols;
  const bool batched = batched_io_;
  const auto load_moments = [&](index_t col, int sp,
                                real_t (&mom)[M]) MLBM_ALWAYS_INLINE {
    if (batched) {
      rbuf.template load_span_as<real_t>(
          moment_addr(0, sp, col, layers_n, ncols), mstride, M, mom);
    } else {
      for (int m = 0; m < M; ++m) {
        mom[m] = rbuf.template load_as<real_t>(
            moment_addr(m, sp, col, layers_n, ncols));
      }
    }
  };
  const auto store_moments = [&](index_t col, int sp,
                                 const real_t (&vals)[M]) MLBM_ALWAYS_INLINE {
    if (batched) {
      wbuf.template store_span_as<real_t>(
          moment_addr(0, sp, col, layers_n, ncols), mstride, M, vals);
    } else {
      for (int m = 0; m < M; ++m) {
        wbuf.template store_as<real_t>(
            moment_addr(m, sp, col, layers_n, ncols), vals[m]);
      }
    }
  };
  // Lane-batched kernel bodies are selected per phase invocation (a
  // per-level branch — negligible against the per-node work it gates).
  const bool lanes = exec_ == ExecMode::kLanes;

  struct ColState {
    int x0, x1, y0, y1;  // cross-section ranges of the column
    // Per-column invariants, hoisted out of the per-call addressing helpers:
    // cross-section extents, node count and the ring's per-slot element
    // stride depend only on the column, not on the node being addressed.
    int cax = 0;                  // x1 - x0
    int cay = 0;                  // y1 - y0
    std::size_t cross = 0;        // cax * cay
    std::size_t slot_stride = 0;  // cross * Q
    std::span<real_t> ring;
    std::span<real_t> stash_lo;  // populations streamed to layer -1 == S-1
    std::span<real_t> stash_hi;  // populations streamed to layer S == 0
    std::span<real_t> snap0;     // layer-0 ring snapshot (periodic sweep)
    int next_write = 0;          // first layer not yet written back
    // Sparse only: column ids of the tile's cross section plus halo, loaded
    // (counted) from the column map once per step; -1 for all-solid columns
    // and positions beyond a non-periodic face.
    std::vector<std::int32_t> cmap;
  };

  // Stashed column id of halo position (hx, hy); valid for
  // hx in [x0-1, x1] and (3D) hy in [y0-1, y1].
  auto cmap_at = [&](ColState& st, int hx, int hy) -> std::int32_t {
    const int row = (L::D == 3) ? hy - (st.y0 - 1) : 0;
    return st.cmap[static_cast<std::size_t>(row) *
                       static_cast<std::size_t>(st.cax + 2) +
                   static_cast<std::size_t>(hx - st.x0 + 1)];
  };

  auto make_state = [&](gpusim::BlockCtx& blk) {
    ColState st;
    // Tile-range launches (frontier split) offset the block's x-tile index;
    // the full range (c0_begin 0) is the monolithic grid.
    st.x0 = (blk.block_idx().x + c0_begin) * tx;
    st.x1 = std::min(ncx0, st.x0 + tx);
    st.y0 = blk.block_idx().y * ty;
    st.y1 = std::min(ncx1, st.y0 + ty);
    st.cax = st.x1 - st.x0;
    st.cay = st.y1 - st.y0;
    st.cross = static_cast<std::size_t>(st.cax) *
               static_cast<std::size_t>(st.cay);
    st.slot_stride = st.cross * static_cast<std::size_t>(L::Q);
    st.ring = blk.alloc_shared<real_t>(static_cast<std::size_t>(ring_w) *
                                       st.cross * L::Q);
    if (sweep_periodic) {
      st.stash_lo = blk.alloc_shared<real_t>(st.cross * L::Q);
      st.stash_hi = blk.alloc_shared<real_t>(st.cross * L::Q);
      st.snap0 = blk.alloc_shared<real_t>(st.cross * L::Q);
    }
    if (sparse) {
      // Load the tile's (cross + halo) column-map entries once per step —
      // the MR analogue of the ST/AA neighbour-slot stash, and like it part
      // of the measured byte budget.
      const int w = st.cax + 2;
      const int hy_lo = (L::D == 3) ? st.y0 - 1 : 0;
      const int hy_hi = (L::D == 3) ? st.y1 : 0;
      st.cmap.assign(
          static_cast<std::size_t>(w) *
              static_cast<std::size_t>(hy_hi - hy_lo + 1),
          -1);
      for (int hy = hy_lo; hy <= hy_hi; ++hy) {
        int py = hy;
        if (L::D == 3 && (hy < 0 || hy >= ncx1)) {
          if (!cx1_periodic) continue;
          py = Box::wrap(hy, ncx1);
        }
        for (int hx = st.x0 - 1; hx <= st.x1; ++hx) {
          int px = hx;
          if (hx < 0 || hx >= ncx0) {
            if (!cx0_periodic) continue;
            px = Box::wrap(hx, ncx0);
          }
          st.cmap[static_cast<std::size_t>(hy - hy_lo) *
                      static_cast<std::size_t>(w) +
                  static_cast<std::size_t>(hx - st.x0 + 1)] =
              colmap.load(static_cast<index_t>(py) * ncx0 + px);
        }
      }
    }
    return st;
  };

  // ---- Shared-word routing: where population i of a node at layer s
  // lives while the column holds it. Slot (s+1) mod (tile_s + 2) of the ring
  // holds layer s while the sliding window covers it. On a periodic sweep
  // axis the wrap-crossing populations of the edge layers — downward into
  // S-1, upward into 0 — live in the stashes instead: phase B reads them
  // after those ring words are recycled. Bases are indexed by
  // c_sweep(i) + 1; `word` adds the node's Q-block and the population.
  using Words = std::array<real_t*, 3>;
  const auto layer_words = [&](ColState& st, int s) -> Words {
    real_t* const slot =
        st.ring.data() +
        static_cast<std::size_t>((s + 1) % ring_w) * st.slot_stride;
    Words w{slot, slot, slot};
    if (sweep_periodic && s == S - 1) w[0] = st.stash_lo.data();
    if (sweep_periodic && s == 0) w[2] = st.stash_hi.data();
    return w;
  };
  const auto word = [](const Words& w, std::size_t node,
                       int i) MLBM_ALWAYS_INLINE -> real_t* {
    return w[static_cast<std::size_t>(c_sweep<L>(i) + 1)] + node * L::Q +
           static_cast<std::size_t>(i);
  };
  // Words phase A writes from source layer s: `own` takes bounces back into
  // layer s itself, `dst` streams into layer s + c_sweep(i) (wrapped on a
  // periodic sweep axis) — one routing lookup per layer, not per population.
  struct Route {
    Words own;
    Words dst;
  };
  const auto route_from = [&](ColState& st, int s) {
    Route r;
    r.own = layer_words(st, s);
    const int lo = (sweep_periodic && s == 0) ? S - 1 : s - 1;
    const int hi = (sweep_periodic && s == S - 1) ? 0 : s + 1;
    r.dst = {layer_words(st, lo)[0], r.own[1], layer_words(st, hi)[2]};
    return r;
  };

  // Streams the Q reconstructed populations `fv` of one phase-A source node
  // into the shared ring (Algorithm 2, lines 29-33). Shared by the scalar
  // and lane bodies — the scatter is per-node either way, so both modes
  // issue identical shared-memory writes.
  auto scatter_source = [&](auto sanc, gpusim::BlockCtx& blk, ColState& st,
                            const Route& rt, int s, int hx, int hy,
                            real_t rho,
                            const real_t (&fv)[L::Q]) MLBM_ALWAYS_INLINE {
    constexpr bool kSan = decltype(sanc)::value;
    // Signed cross-section index of the source node; halo sources sit
    // outside [0, cross), but every use below is offset to an in-column
    // destination first.
    const long long cross_src =
        static_cast<long long>(hy - st.y0) * st.cax + (hx - st.x0);
    const bool own_node =
        hx >= st.x0 && hx < st.x1 && hy >= st.y0 && hy < st.y1;
    // A source off every non-periodic face, in a geometry without solids,
    // has only interior links: the classification is skipped (the hot path
    // of dense periodic domains).
    const bool all_interior =
        !solids && (cx0_periodic || (hx > 0 && hx < ncx0 - 1)) &&
        (L::D == 2 || cx1_periodic || (hy > 0 && hy < ncx1 - 1)) &&
        (sweep_periodic || (s > 0 && s < S - 1));
    const auto note = [&](const real_t* dst) {
      if constexpr (kSan) {
        // Conceptual GPU thread id of this phase-A source thread (unique
        // per (hx, hy, s) within the block); racecheck attribution only.
        const int rows = (L::D == 3) ? st.cay + 2 : 1;
        const int row = (L::D == 3) ? hy - st.y0 + 1 : 0;
        const int tid_a =
            ((s % ts) * rows + row) * (st.cax + 2) + (hx - st.x0 + 1);
        note_shared(blk, dst, tid_a, true);
      }
    };
    for (int i = 0; i < L::Q; ++i) {
      const real_t f = fv[i];
      const StreamTarget t =
          all_interior ? StreamTarget{} : link(hx, hy, s, i);
      if (t.kind == StreamTarget::Kind::kDropped) continue;
      if (t.kind == StreamTarget::Kind::kBounce) {
        // Half-way bounceback: the population returns to its source node;
        // halo sources belong to the neighbouring column. A bounce across
        // the periodic sweep wrap (off a solid node, or off a cross-axis
        // wall corner) lands in a stash word: its only other producer would
        // be the node beyond the wrap the bounce stands in for.
        if (own_node) {
          const int j = L::opposite(i);
          real_t* dst = word(rt.own, static_cast<std::size_t>(cross_src), j);
          *dst = f - real_t(2) * L::w[static_cast<std::size_t>(i)] * rho *
                         t.cu_wall * inv_cs2;
          note(dst);
        }
        continue;
      }
      // Interior stream: only destinations inside this column are ours;
      // populations crossing into other columns are produced by those
      // columns' halo threads.
      const auto& c = L::c[static_cast<std::size_t>(i)];
      const int ld0 = hx + c[0];
      const int ld1 = (L::D == 3) ? hy + c[1] : 0;
      if (ld0 < st.x0 || ld0 >= st.x1 || ld1 < st.y0 || ld1 >= st.y1) {
        continue;
      }
      const auto cross_dst = static_cast<std::size_t>(
          cross_src + ((L::D == 3) ? c[1] * st.cax : 0) + c[0]);
      real_t* dst = word(rt.dst, cross_dst, i);
      *dst = f;
      note(dst);
    }
  };

  // A population whose source lies beyond an OPEN face has no producer:
  // the reverse link is dropped by scatter_source instead of bounced, and
  // there is no halo node to stream from, so its shared word stays
  // unwritten — phase B would read it uninitialized (a genuine hazard on
  // real hardware; the host arena zero-fills, so writing zeros here is
  // bit-identical). Zero-fills layer s's orphaned words. Cold path: called
  // only for columns touching an open face; the filled words have no other
  // writer, so ordering against the rest of phase A is free.
  auto fill_open_holes = [&](auto sanc, gpusim::BlockCtx& blk, ColState& st,
                             int s, const Words& w) {
    constexpr bool kSan = decltype(sanc)::value;
    for (int hy = st.y0; hy < st.y1; ++hy) {
      for (int hx = st.x0; hx < st.x1; ++hx) {
        const auto node = static_cast<std::size_t>(hy - st.y0) *
                              static_cast<std::size_t>(st.cax) +
                          static_cast<std::size_t>(hx - st.x0);
        for (int i = 0; i < L::Q; ++i) {
          if (link(hx, hy, s, L::opposite(i)).kind !=
              StreamTarget::Kind::kDropped) {
            continue;
          }
          real_t* dst = word(w, node, i);
          *dst = real_t(0);
          if constexpr (kSan) {
            note_shared(blk, dst, kPhaseBTid + static_cast<int>(node), true);
          }
        }
      }
    }
  };

  // ---- Phase A: read + collide + reconstruct + stream into shared memory.
  // Source walk of layer s: the column's nodes plus the one-node cross halo
  // (wrapped on a periodic cross axis; none beyond a wall or open face),
  // skipping unallocated columns and solid nodes. `visit(hx, hy, col)` gets
  // the halo position and the compressed column id; `row_end()` follows
  // each source row.
  const auto walk_sources = [&](ColState& st, int s, auto&& visit,
                                auto&& row_end) MLBM_ALWAYS_INLINE {
    const int hy_lo = (L::D == 3) ? st.y0 - 1 : 0;
    const int hy_hi = (L::D == 3) ? st.y1 : 0;
    const int hx_lo = st.x0 - (shrink_halo ? 0 : 1);
    const int hx_hi = st.x1 - (shrink_halo ? 1 : 0);
    for (int hy = hy_lo; hy <= hy_hi; ++hy) {
      int py = hy;
      if (L::D == 3 && (hy < 0 || hy >= ncx1)) {
        if (!cx1_periodic) continue;
        py = Box::wrap(hy, ncx1);
      }
      for (int hx = hx_lo; hx <= hx_hi; ++hx) {
        int px = hx;
        if (hx < 0 || hx >= ncx0) {
          if (!cx0_periodic) continue;
          px = Box::wrap(hx, ncx0);
        }
        index_t col;
        if (sparse) {
          const std::int32_t cm = cmap_at(st, hx, hy);
          if (cm < 0) continue;  // unallocated all-solid column
          if (solids && is_solid(px, py, s)) continue;
          col = cm;
        } else {
          col = static_cast<index_t>(py) * ncx0 + px;
        }
        visit(hx, hy, col);
      }
      row_end();
    }
  };
  // Generic over the sanitizer flag AND the regularization scheme: the
  // runtime enum is hoisted to a template argument at the launch site, so
  // the per-node reconstruction (and its per-population loop) carries no
  // scheme branch at all.
  auto phase_a = [&](auto sanc, auto regc, gpusim::BlockCtx& blk,
                     ColState& st, int k) {
    constexpr Regularization kReg = decltype(regc)::value;
    const int s_end = std::min(S, (k + 1) * ts);
    // Open-face adjacency of this column: only such columns can hold
    // orphaned words (sweep-axis holes exist only on the first and last
    // layer).
    const bool col_open =
        (!cx0_periodic &&
         ((st.x0 == 0 && geo.bc.face[0][0].type == FaceBC::kOpen) ||
          (st.x1 == ncx0 && geo.bc.face[0][1].type == FaceBC::kOpen))) ||
        (L::D == 3 && !cx1_periodic &&
         ((st.y0 == 0 && geo.bc.face[1][0].type == FaceBC::kOpen) ||
          (st.y1 == ncx1 && geo.bc.face[1][1].type == FaceBC::kOpen)));
    const bool sweep_open =
        !sweep_periodic &&
        (geo.bc.face[kSweepAxis][0].type == FaceBC::kOpen ||
         geo.bc.face[kSweepAxis][1].type == FaceBC::kOpen);

    for (int s = k * ts; s < s_end; ++s) {
      const int sp = phys_layer(s, tt);
      const Route rt = route_from(st, s);
      if (col_open || (sweep_open && (s == 0 || s == S - 1))) {
        fill_open_holes(sanc, blk, st, s, rt.own);
      }
      if (!lanes) {
        walk_sources(
            st, s,
            [&](int hx, int hy, index_t col) MLBM_ALWAYS_INLINE {
              // Read the node's M moments (Algorithm 2, lines 15-23),
              // collide in moment space (Eq. 10), map to distribution space
              // (Eq. 11 / Eq. 14) and stream into the shared ring.
              real_t mom[M];
              load_moments(col, sp, mom);
              const real_t rho = mom[0];
              real_t u[L::D];
              for (int a = 0; a < L::D; ++a) u[a] = mom[1 + a];
              real_t pineq_star[NP];
              for (int p = 0; p < NP; ++p) {
                const auto [pa, pb] = Moments<L>::pair(p);
                pineq_star[p] =
                    relax * (mom[1 + L::D + p] - rho * u[pa] * u[pb]);
              }
              const Reconstructor<L, kReg> recon(rho, u, pineq_star);
              real_t fv[L::Q];
              for (int i = 0; i < L::Q; ++i) fv[i] = recon(i);
              scatter_source(sanc, blk, st, rt, s, hx, hy, rho, fv);
            },
            [] {});
        continue;
      }
      // Lane body: compact the walk's sources into panels of kLaneWidth
      // (never across rows), collide and reconstruct lane-major, then
      // scatter per lane — the scalar body's loads and scatters,
      // panel-interleaved.
      int n = 0;
      int row = 0;
      int lane_hx[kLaneWidth] = {};
      index_t lane_col[kLaneWidth] = {};
      const auto flush = [&] {
        real_t rho_l[kLaneWidth];
        real_t u_l[L::D][kLaneWidth];
        real_t pim_l[NP][kLaneWidth];
        for (int ln = 0; ln < n; ++ln) {
          real_t mom[M];
          load_moments(lane_col[ln], sp, mom);
          rho_l[ln] = mom[0];
          for (int a = 0; a < L::D; ++a) u_l[a][ln] = mom[1 + a];
          for (int p = 0; p < NP; ++p) pim_l[p][ln] = mom[1 + L::D + p];
        }
        real_t pineq_l[NP][kLaneWidth];
        for (int p = 0; p < NP; ++p) {
          const auto [pa, pb] = Moments<L>::pair(p);
          MLBM_SIMD
          for (int ln = 0; ln < n; ++ln) {
            pineq_l[p][ln] =
                relax * (pim_l[p][ln] - rho_l[ln] * u_l[pa][ln] * u_l[pb][ln]);
          }
        }
        const ReconstructorLanes<L, kReg, kLaneWidth> recon(n, rho_l, u_l,
                                                            pineq_l);
        real_t panel[L::Q][kLaneWidth];
        for (int i = 0; i < L::Q; ++i) recon.eval(i, panel[i]);
        for (int ln = 0; ln < n; ++ln) {
          real_t fv[L::Q];
          for (int i = 0; i < L::Q; ++i) fv[i] = panel[i][ln];
          scatter_source(sanc, blk, st, rt, s, lane_hx[ln], row, rho_l[ln],
                         fv);
        }
        n = 0;
      };
      walk_sources(
          st, s,
          [&](int hx, int hy, index_t col) {
            lane_hx[n] = hx;
            lane_col[n] = col;
            row = hy;
            if (++n == kLaneWidth) flush();
          },
          [&] {
            if (n > 0) flush();
          });
    }
  };

  // ---- Phase B: project completed layers back to moments and write them.
  // Node walk of layer s: the column's cross-section nodes in row-major
  // order, skipping solid nodes (never streamed into, nothing to write
  // back). `visit(node, col)` gets the flat cross-section index (the
  // node's Q populations start at node * Q) and the compressed column id.
  const auto walk_nodes = [&](ColState& st, int s,
                              auto&& visit) MLBM_ALWAYS_INLINE {
    std::size_t node = 0;
    for (int cy = st.y0; cy < st.y1; ++cy) {
      for (int cx = st.x0; cx < st.x1; ++cx, ++node) {
        index_t col;
        if (sparse) {
          const std::int32_t cm = cmap_at(st, cx, cy);
          if (cm < 0 || (solids && is_solid(cx, cy, s))) continue;
          col = cm;
        } else {
          col = static_cast<index_t>(cy) * ncx0 + cx;
        }
        visit(node, col);
      }
    }
  };
  // Re-projects layer s from the shared words `w` and stores each node's M
  // moments. Phase-B threads are one-per-node write-back threads with a tid
  // range disjoint from phase A's source threads.
  auto write_layer = [&](auto sanc, gpusim::BlockCtx& blk, ColState& st,
                         int s, const Words& w) {
    constexpr bool kSan = decltype(sanc)::value;
    int sp = phys_layer(s, tt + 1);
    // Seeded mutation: bias the circular write layer. Every biased slot
    // assignment leaves (at least) one logical plane per step either stale
    // or never written — exactly what the sanitizer's freshness shadow
    // proves the correct shift never does.
    if (wmut != 0) sp = (((sp + wmut) % (S + 2)) + (S + 2)) % (S + 2);
    const auto gather = [&](std::size_t node, int i) MLBM_ALWAYS_INLINE {
      const real_t* src = word(w, node, i);
      if constexpr (kSan) {
        note_shared(blk, src, kPhaseBTid + static_cast<int>(node), false);
      }
      return *src;
    };
    if (!lanes) {
      walk_nodes(st, s, [&](std::size_t node, index_t col) MLBM_ALWAYS_INLINE {
        real_t f[L::Q];
        for (int i = 0; i < L::Q; ++i) f[i] = gather(node, i);
        const Moments<L> m = compute_moments<L>(f);
        real_t vals[M];
        vals[0] = m.rho;
        for (int a = 0; a < L::D; ++a) {
          vals[1 + a] = m.u[static_cast<std::size_t>(a)];
        }
        for (int p = 0; p < NP; ++p) {
          vals[1 + L::D + p] = m.pi[static_cast<std::size_t>(p)];
        }
        store_moments(col, sp, vals);
      });
      return;
    }
    // Lane body: gather panels of kLaneWidth nodes through the same reads
    // (identical order), reduce the moments lane-major, store per lane.
    int n = 0;
    real_t fl[L::Q][kLaneWidth];
    index_t col_l[kLaneWidth] = {};
    const auto flush = [&] {
      real_t rho_l[kLaneWidth];
      real_t u_l[L::D][kLaneWidth];
      real_t pi_l[NP][kLaneWidth];
      compute_moments_lanes<L, kLaneWidth>(fl, n, rho_l, u_l, pi_l);
      for (int ln = 0; ln < n; ++ln) {
        real_t vals[M];
        vals[0] = rho_l[ln];
        for (int a = 0; a < L::D; ++a) vals[1 + a] = u_l[a][ln];
        for (int p = 0; p < NP; ++p) vals[1 + L::D + p] = pi_l[p][ln];
        store_moments(col_l[ln], sp, vals);
      }
      n = 0;
    };
    walk_nodes(st, s, [&](std::size_t node, index_t col) {
      for (int i = 0; i < L::Q; ++i) fl[i][n] = gather(node, i);
      col_l[n] = col;
      if (++n == kLaneWidth) flush();
    });
    if (n > 0) flush();
  };

  auto phase_b = [&](auto sanc, gpusim::BlockCtx& blk, ColState& st, int k) {
    constexpr bool kSan = decltype(sanc)::value;
    // Layers complete after phase A of level k: all s <= (k+1) ts - 2 (their
    // last contribution streams down from source layer s+1). The final level
    // (k == ntiles) flushes the remainder, for which the top layer's missing
    // contribution came from bounceback (wall) or the level-0 stash
    // (periodic).
    const int limit =
        (k < ntiles) ? std::min((k + 1) * ts - 2, S - 2) : S - 1;
    for (; st.next_write <= limit; ++st.next_write) {
      const int s = st.next_write;
      const Words w = layer_words(st, s);
      if (sweep_periodic && s == 0) {
        // Layer 0 still lacks the upward-streaming populations from layer
        // S-1 (processed only at the last level); snapshot its ring slot
        // before the window recycles it and write it at the end. Those
        // upward populations arrive via stash_hi, not the ring: their
        // slot-0 words are never written, so they are not copied.
        walk_nodes(st, 0, [&](std::size_t node, index_t) {
          for (int i = 0; i < L::Q; ++i) {
            if (c_sweep<L>(i) > 0) continue;
            const real_t* src = word(w, node, i);
            real_t* dst = &st.snap0[node * L::Q + static_cast<std::size_t>(i)];
            *dst = *src;
            if constexpr (kSan) {
              note_shared(blk, src, kPhaseBTid + static_cast<int>(node), false);
              note_shared(blk, dst, kPhaseBTid + static_cast<int>(node), true);
            }
          }
        });
        continue;
      }
      write_layer(sanc, blk, st, s, w);
    }
    if (k == ntiles && sweep_periodic) {
      Words w = layer_words(st, 0);
      w[0] = w[1] = st.snap0.data();
      write_layer(sanc, blk, st, 0, w);
    }
  };

  // Levels alternate phase A and phase B with a global barrier in between,
  // so a column's write-back can never overtake a neighbour's halo reads
  // (the circular-shift slot reuse analysis in the header relies on this).
  const gpusim::Dim3 grid{c0_count, nc1, 1};
  const gpusim::Dim3 block =
      (L::D == 2) ? gpusim::Dim3{tx + 2, ts, 1}
                  : gpusim::Dim3{tx + 2, ty + 2, ts};

  auto run = [&](auto sanc, auto regc) {
    gpusim::launch_level_synced(
        prof_, rec, grid, block, 2 * (ntiles + 1), make_state,
        [&, sanc, regc](gpusim::BlockCtx& blk, ColState& st, int level) {
          const int k = level / 2;
          if (level % 2 == 0) {
            if (k < ntiles) phase_a(sanc, regc, blk, st, k);
            // Seeded mutation: run phase B inside phase A's barrier epoch
            // (models a deleted __syncthreads) — phase B's slot reads then
            // race phase A's same-epoch writes.
            if (skip_phase_sync) phase_b(sanc, blk, st, k);
          } else if (!skip_phase_sync) {
            blk.sync();
            phase_b(sanc, blk, st, k);
          }
        });
  };
  // Hoist both runtime flags (sanitizer presence, regularization scheme) to
  // template arguments of the level body: 4 instantiations, zero per-node
  // branches.
  dispatch_regularization(scheme_, [&](auto regc) {
    if (sanh != nullptr) {
      run(std::true_type{}, regc);
    } else {
      run(std::false_type{}, regc);
    }
  });
}

template class MrEngine<D2Q9, double>;
template class MrEngine<D3Q19, double>;
template class MrEngine<D3Q27, double>;
template class MrEngine<D3Q15, double>;
template class MrEngine<D2Q9, float>;
template class MrEngine<D3Q19, float>;
template class MrEngine<D3Q27, float>;
template class MrEngine<D3Q15, float>;

}  // namespace mlbm
