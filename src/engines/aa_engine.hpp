// AA-pattern single-lattice engine (Bailey et al. 2009).
//
// The paper's related work motivates reducing LBM's memory footprint on
// GPUs; before the moment representation, the standard answer was in-place
// streaming: the AA pattern keeps ONE distribution lattice (Q elements per
// node — half of ST) by alternating two kernel flavours:
//
//   even step   read slot i of x, collide, write f*_i into slot opposite(i)
//               of x (pure node-local swap; no neighbour traffic);
//   odd step    gather f_i(x,t+1) = f*_i(x - c_i, t) from slot opposite(i)
//               of the upwind neighbour, collide, scatter f*_i(t+1) into
//               slot i of the downwind neighbour x + c_i — performing two
//               half-streams so that the next even step again reads plainly.
//
// Per-update global traffic is identical to ST (2Q elements), so the AA
// pattern is the paper's natural memory-footprint baseline: it matches MR's
// *bandwidth* profile story but not its traffic reduction. Included for the
// memory table and ablations.
//
// Storage parity: after an odd step (and at initialization) memory holds the
// plain pre-collision state; after an even step it holds the node-local
// swapped post-collision state. moments_at/impose translate both parities to
// the shared pre-collision moment convention, so boundary passes and tests
// work unchanged — including mid-cycle.
//
// `ST` is the storage-precision policy (element type of the single lattice);
// compute stays real_t with conversion at the register boundary.
//
// Both flavours are one parity-parameterised node body run by the shared
// launch skeleton (dist_launch.hpp). Sparse geometries tile-compress the
// single lattice exactly like StEngine's pair (tile_kernels.hpp) and launch
// the all-fluid and the occupancy-masked mixed tiles separately, so the
// profiler attributes traffic per tile class. The even step is node-local
// and loads only the tile's own slot (one int32 per tile); the odd step
// loads the full neighbour-slot stash. Sparse runs the scalar driver in both
// execution modes (bit-identical by construction).
#pragma once

#include "engines/dist_launch.hpp"

namespace mlbm {

template <class L, class ST = real_t>
class AaEngine final : public DistEngine<L, ST> {
 public:
  /// `exec` selects the scalar or lane-batched kernel body. Lane batching is
  /// safe for the in-place odd step because every lattice word has a unique
  /// reader == writer node, so only each node's own gather-before-scatter
  /// order matters — which panels preserve.
  ///
  /// `allow_open_faces` relaxes the no-open-faces validation for slab
  /// decomposition: an interface face is kOpen, its ghost band absorbs the
  /// locally-wrong open-link updates, and the per-step moment exchange
  /// (ghost depth 2 — see MultiDomainEngine) re-imposes the band before the
  /// corruption reaches owned planes. Physical inlet/outlet faces remain
  /// unsupported.
  AaEngine(Geometry geo, real_t tau,
           CollisionScheme scheme = CollisionScheme::kBGK,
           int threads_per_block = 256, ExecMode exec = default_exec_mode(),
           bool allow_open_faces = false);

  [[nodiscard]] const char* pattern_name() const override { return "ST-AA"; }
  void initialize(const typename Engine<L>::InitFn& init) override;
  [[nodiscard]] Moments<L> moments_at(int x, int y, int z) const override;
  void impose(int x, int y, int z, const Moments<L>& m) override;
  [[nodiscard]] std::size_t state_bytes() const override;

  /// Declared kernel accesses of the two in-place flavours. The analyzer
  /// re-proves Bailey's invariant from the declaration alone: every gather
  /// and scatter that share a lattice word also share a thread.
  [[nodiscard]] analysis::EngineContract access_contract() const override {
    return analysis::aa_contract(analysis::make_lattice_desc<L>(), sizeof(ST),
                                 batched_io_);
  }

  /// Validation hook: scalar per-population I/O instead of batched spans on
  /// the even (node-local) step. Bytes identical; transactions differ by Q.
  void set_batched_io(bool on) { batched_io_ = on; }
  [[nodiscard]] bool batched_io() const { return batched_io_; }

  /// Binds the sanitizer to the profiler and the single in-place lattice.
  /// The AA pattern rewrites every slot every step (reader thread == writer
  /// thread per element), so the lattice satisfies the sliding-window
  /// freshness contract and opts into the staleness check.
  void set_sanitizer(gpusim::SanitizerHook* san) override {
    this->prof_.set_sanitizer_hook(san);
    f_.set_sanitizer(san, "f", /*sliding_window=*/true);
    if (this->sparse_) this->tdev_.set_sanitizer(san);
  }

  void set_unique_read_tracking(bool on) override {
    f_.set_unique_read_tracking(on);
  }
  void clear_unique_reads() override { f_.clear_unique_reads(); }
  [[nodiscard]] std::uint64_t unique_read_bytes() const override {
    return f_.unique_read_bytes();
  }

  /// Soft-error surface: the single in-place lattice.
  [[nodiscard]] std::uint64_t fault_sites() const override {
    return f_.size();
  }
  void inject_storage_bitflip(std::uint64_t site, unsigned bit) override {
    f_.flip_bit(static_cast<std::size_t>(site % f_.size()), bit);
  }

  /// Raw snapshot surface: the single in-place lattice. The tag carries the
  /// storage parity — a blob captured in the swapped (post-even-step)
  /// representation only restores into an engine re-timed to that phase,
  /// which restore_state guarantees by calling set_time() first.
  [[nodiscard]] std::string raw_state_tag() const override {
    return this->layout_tag(swapped_phase() ? "|swapped|" : "|plain|");
  }
  void serialize_raw_state(std::vector<real_t>& out) const override {
    out.reserve(out.size() + f_.size());
    for (std::size_t i = 0; i < f_.size(); ++i) {
      out.push_back(static_cast<real_t>(f_.raw(static_cast<index_t>(i))));
    }
  }
  void restore_raw_state(const std::vector<real_t>& in) override {
    if (in.size() != f_.size()) {
      throw ConfigError("AaEngine: raw snapshot does not match lattice size");
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      f_.raw(static_cast<index_t>(i)) = static_cast<ST>(in[i]);
    }
  }

 protected:
  void step_nodes(const FrontierSpec* fs,
                  const typename Engine<L>::FrontierDoneFn& on_frontier)
      override;

 private:
  template <bool kEven>
  struct Node;

  /// True when memory currently holds the even-step (swapped post-collision)
  /// representation.
  [[nodiscard]] bool swapped_phase() const { return this->t_ % 2 == 1; }

  gpusim::GlobalArray<ST> f_;
  bool batched_io_ = true;
};

extern template class AaEngine<D2Q9, double>;
extern template class AaEngine<D3Q19, double>;
extern template class AaEngine<D3Q27, double>;
extern template class AaEngine<D3Q15, double>;
extern template class AaEngine<D2Q9, float>;
extern template class AaEngine<D3Q19, float>;
extern template class AaEngine<D3Q27, float>;
extern template class AaEngine<D3Q15, float>;

}  // namespace mlbm
