// Standard distribution-representation engine (Algorithm 1 of the paper).
//
// One gpusim thread per lattice node performs a fused stream + collide
// update between two SoA distribution lattices resident in instrumented
// global memory. This is the paper's "ST" baseline: 2Q storage elements of
// global traffic per fluid lattice update (Table 2) and no shared memory.
//
// Both orderings of Section 3.1 are implemented:
//  * kPull (default) — stream-then-collide; gathers are irregular, stores
//    coalesced. "Considered the fastest GPU implementation" (the paper's
//    baseline). Stored state is post-collision.
//  * kPush — collide-then-stream; loads coalesced, scatters irregular.
//    Stored state is pre-collision. Used by the push-vs-pull ablation.
//
// The collision defaults to BGK as in the paper; the regularized schemes can
// be selected for ablation studies.
//
// `ST` is the storage-precision policy: the element type of the two global
// lattices. All per-node arithmetic runs in real_t registers; values convert
// at the load/store boundary (GlobalArray's `_as` accessors), so with
// ST = real_t the engine is bit-identical to the pre-policy implementation,
// and with ST = float it moves exactly half the counted bytes.
//
// Each ordering is one node body (a gather and a scatter) run by the shared
// launch skeleton (dist_launch.hpp) over dense plane ranges, in scalar or
// lane-panel form, and over sparse tile lists. Sparse geometries keep the
// lattices tile-compressed (tile_kernels.hpp) — element slot*64+local
// instead of the box cell — and launch the all-fluid and the mixed tiles
// separately, so the profiler attributes traffic per tile class. The sparse
// path is pull-only (push + sparse throws ConfigError) and runs the scalar
// driver in both execution modes (bit-identical by construction).
#pragma once

#include "engines/dist_launch.hpp"

namespace mlbm {

enum class StreamMode {
  kPull,  ///< stream-then-collide (paper's ST baseline)
  kPush,  ///< collide-then-stream (ablation)
};

template <class L, class ST = real_t>
class StEngine final : public DistEngine<L, ST> {
 public:
  /// `threads_per_block` is the 1D block size of the fused kernel. `exec`
  /// selects the scalar or lane-batched kernel body (bit-identical results,
  /// identical traffic; see core/lanes.hpp).
  StEngine(Geometry geo, real_t tau,
           CollisionScheme scheme = CollisionScheme::kBGK,
           int threads_per_block = 256, StreamMode mode = StreamMode::kPull,
           ExecMode exec = default_exec_mode());

  [[nodiscard]] const char* pattern_name() const override {
    return mode_ == StreamMode::kPull ? "ST" : "ST-push";
  }
  [[nodiscard]] Moments<L> moments_at(int x, int y, int z) const override;
  void impose(int x, int y, int z, const Moments<L>& m) override;
  [[nodiscard]] std::size_t state_bytes() const override;

  /// Declared kernel accesses: Q upwind gathers + one span store (pull), or
  /// one span load + Q downwind scatters (push), between the two lattices.
  [[nodiscard]] analysis::EngineContract access_contract() const override {
    return analysis::st_contract(analysis::make_lattice_desc<L>(), sizeof(ST),
                                 mode_ == StreamMode::kPush, batched_io_);
  }

  [[nodiscard]] CollisionScheme scheme() const { return this->scheme_; }
  [[nodiscard]] StreamMode stream_mode() const { return mode_; }

  /// Validation hook: route per-node population I/O through scalar
  /// load/store instead of batched spans. Byte counts are identical either
  /// way; transaction counts differ by the batch width Q (see the traffic
  /// invariance tests).
  void set_batched_io(bool on) { batched_io_ = on; }
  [[nodiscard]] bool batched_io() const { return batched_io_; }

  /// Binds the sanitizer to the profiler and both distribution lattices.
  /// Ping-pong lattices satisfy the sliding-window freshness contract (the
  /// source of step t was fully written at step t-1 or host-imposed since),
  /// so both opt into the staleness check.
  void set_sanitizer(gpusim::SanitizerHook* san) override {
    this->prof_.set_sanitizer_hook(san);
    f_[0].set_sanitizer(san, "f0", /*sliding_window=*/true);
    f_[1].set_sanitizer(san, "f1", /*sliding_window=*/true);
    if (this->sparse_) this->tdev_.set_sanitizer(san);
  }

  void set_unique_read_tracking(bool on) override {
    f_[0].set_unique_read_tracking(on);
    f_[1].set_unique_read_tracking(on);
  }
  void clear_unique_reads() override {
    f_[0].clear_unique_reads();
    f_[1].clear_unique_reads();
  }
  [[nodiscard]] std::uint64_t unique_read_bytes() const override {
    return f_[0].unique_read_bytes() + f_[1].unique_read_bytes();
  }

  /// Soft-error surface: both distribution lattices (a flip in the lattice
  /// about to be overwritten is harmless, exactly as on hardware).
  [[nodiscard]] std::uint64_t fault_sites() const override {
    return f_[0].size() + f_[1].size();
  }
  void inject_storage_bitflip(std::uint64_t site, unsigned bit) override {
    const std::uint64_t n0 = f_[0].size();
    const std::uint64_t s = site % fault_sites();
    if (s < n0) {
      f_[0].flip_bit(static_cast<std::size_t>(s), bit);
    } else {
      f_[1].flip_bit(static_cast<std::size_t>(s - n0), bit);
    }
  }

  /// Raw snapshot surface: the current lattice only — the other one is pure
  /// scratch for the next fused kernel, so serializing the write side would
  /// snapshot garbage and restoring it would be wasted work.
  [[nodiscard]] std::string raw_state_tag() const override {
    return this->layout_tag("|");
  }
  void serialize_raw_state(std::vector<real_t>& out) const override {
    const auto& f = f_[cur_];
    out.reserve(out.size() + f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      out.push_back(static_cast<real_t>(f.raw(static_cast<index_t>(i))));
    }
  }
  void restore_raw_state(const std::vector<real_t>& in) override {
    if (in.size() != f_[cur_].size()) {
      throw ConfigError("StEngine: raw snapshot does not match lattice size");
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      f_[cur_].raw(static_cast<index_t>(i)) = static_cast<ST>(in[i]);
    }
  }

 protected:
  void step_nodes(const FrontierSpec* fs,
                  const typename Engine<L>::FrontierDoneFn& on_frontier)
      override;

 private:
  struct PullNode;
  struct PushNode;

  StreamMode mode_;
  gpusim::GlobalArray<ST> f_[2];
  int cur_ = 0;
  bool batched_io_ = true;
};

extern template class StEngine<D2Q9, double>;
extern template class StEngine<D3Q19, double>;
extern template class StEngine<D3Q27, double>;
extern template class StEngine<D3Q15, double>;
extern template class StEngine<D2Q9, float>;
extern template class StEngine<D3Q19, float>;
extern template class StEngine<D3Q27, float>;
extern template class StEngine<D3Q15, float>;

}  // namespace mlbm
