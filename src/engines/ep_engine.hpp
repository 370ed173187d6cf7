// Esoteric-Pull single-lattice engine (Lehmann 2022; Montessori et al.'s
// thread-safe in-place streaming family).
//
// Like the AA pattern, Esoteric Pull streams in place over ONE distribution
// lattice (Q elements per node — half of ST's footprint), but it does so
// with a *paired-direction* addressing trick instead of AA's two kernel
// flavours: every step pulls one half-set of populations from the upwind
// neighbours and pushes the other half in place, and the roles of the two
// half-sets swap with the step parity. Concretely, with the plus half-set
// H = { i : i < opposite(i) } (one direction per antiparallel pair):
//
//   gather   f_i(x, t) lives in slot (even ? opposite(i) : i) of
//            - node x itself for i in H and for the rest population,
//            - the upwind neighbour x - c_i for i not in H;
//   scatter  f*_i(x, t) goes to slot (even ? i : opposite(i)) of
//            - the downwind neighbour x + c_i for i in H,
//            - node x itself for i not in H and for the rest population.
//
// The two maps are consistent (what a step scatters is exactly what the
// next step gathers one node downwind) and in each parity every lattice
// word has a unique reader == writer thread, so the update is race-free in
// place — the same invariant the static analyzer re-proves for AA, here
// from the ep contract (analysis::ep_contract). Unlike AA, EVERY step is a
// full stream+collide: the stored state at time t is the post-collision
// image f*(., t) (as in ST pull), distributed across the esoteric
// addressing, so moments_at/impose work at any parity.
//
// Boundary links (face walls, open faces, solid neighbours — anything
// resolve_stream does not map to an interior target) are routed through a
// small side array, the *rim*: two words [value, density] per blocked link,
// written by the node's own scatter and read back by its own gather next
// step. The value is the storage-narrowed post-collision population and the
// density is the node's post-collision density (for the moving-wall
// bounce-back correction, applied at read time) — exactly the words ST's
// pull gather reads from the node's own cell, so EP stays bit-identical to
// ST at walls, moving walls and open faces in both storage precisions. The
// in-lattice words those links would have used become permanently dead
// (never read, never written). On wall-free periodic domains the rim is
// empty and state_bytes() is exactly Q * elem_bytes * N.
//
// `ST` is the storage-precision policy (element type of the single
// lattice); compute stays real_t with conversion at the register boundary.
//
// Both parities are one node body run by the shared launch skeleton
// (dist_launch.hpp). Sparse geometries tile-compress the lattice exactly
// like StEngine's pair (tile_kernels.hpp); both parities cross tile borders,
// so every sparse launch loads the full neighbour-slot stash. Sparse runs
// the scalar driver in both execution modes (bit-identical by construction).
#pragma once

#include <unordered_map>

#include "engines/dist_launch.hpp"

namespace mlbm {

template <class L, class ST = real_t>
class EpEngine final : public DistEngine<L, ST> {
 public:
  /// `exec` selects the scalar or lane-batched kernel body. Lane batching is
  /// safe because every lattice word has a unique reader == writer node, so
  /// only each node's own gather-before-scatter order matters — which panels
  /// preserve. Open (inlet/outlet) faces are supported: the dropped-link
  /// placeholder lives in the rim, and the workload hooks re-impose the face
  /// nodes after the step exactly as they do for ST.
  EpEngine(Geometry geo, real_t tau,
           CollisionScheme scheme = CollisionScheme::kBGK,
           int threads_per_block = 256, ExecMode exec = default_exec_mode());

  [[nodiscard]] const char* pattern_name() const override { return "EP"; }
  [[nodiscard]] Moments<L> moments_at(int x, int y, int z) const override;
  void impose(int x, int y, int z, const Moments<L>& m) override;
  [[nodiscard]] std::size_t state_bytes() const override;

  /// Declared kernel accesses of the two parities. The analyzer re-proves
  /// the esoteric invariant from the declaration alone: in each parity the
  /// gather and scatter that share a lattice slot also share an offset.
  [[nodiscard]] analysis::EngineContract access_contract() const override {
    return analysis::ep_contract(analysis::make_lattice_desc<L>(), sizeof(ST));
  }

  /// Binds the sanitizer to the profiler, the single in-place lattice and
  /// the boundary rim. Both arrays rewrite every live word every step
  /// (reader thread == writer thread per word), so both opt into the
  /// sliding-window freshness check; the dead words behind blocked links are
  /// never read, so they never trip it.
  void set_sanitizer(gpusim::SanitizerHook* san) override {
    this->prof_.set_sanitizer_hook(san);
    f_.set_sanitizer(san, "f", /*sliding_window=*/true);
    rim_.set_sanitizer(san, "rim", /*sliding_window=*/true);
    if (this->sparse_) this->tdev_.set_sanitizer(san);
  }

  void set_unique_read_tracking(bool on) override {
    f_.set_unique_read_tracking(on);
    rim_.set_unique_read_tracking(on);
  }
  void clear_unique_reads() override {
    f_.clear_unique_reads();
    rim_.clear_unique_reads();
  }
  [[nodiscard]] std::uint64_t unique_read_bytes() const override {
    return f_.unique_read_bytes() + rim_.unique_read_bytes();
  }

  /// Soft-error surface: the in-place lattice plus the boundary rim.
  [[nodiscard]] std::uint64_t fault_sites() const override {
    return f_.size() + rim_.size();
  }
  void inject_storage_bitflip(std::uint64_t site, unsigned bit) override {
    site %= fault_sites();
    if (site < f_.size()) {
      f_.flip_bit(static_cast<std::size_t>(site), bit);
    } else {
      rim_.flip_bit(static_cast<std::size_t>(site - f_.size()), bit);
    }
  }

  /// Raw snapshot surface: lattice words then rim words. The tag carries the
  /// step parity — the esoteric slot mapping differs between even and odd
  /// states, so a blob only restores into an engine re-timed to the same
  /// parity, which restore_state guarantees by calling set_time() first.
  [[nodiscard]] std::string raw_state_tag() const override {
    return this->layout_tag(even_phase() ? "|even|" : "|odd|");
  }
  void serialize_raw_state(std::vector<real_t>& out) const override {
    out.reserve(out.size() + f_.size() + rim_.size());
    for (std::size_t i = 0; i < f_.size(); ++i) {
      out.push_back(static_cast<real_t>(f_.raw(static_cast<index_t>(i))));
    }
    for (std::size_t i = 0; i < rim_.size(); ++i) {
      out.push_back(rim_.raw(static_cast<index_t>(i)));
    }
  }
  void restore_raw_state(const std::vector<real_t>& in) override {
    if (in.size() != f_.size() + rim_.size()) {
      throw ConfigError("EpEngine: raw snapshot does not match state size");
    }
    for (std::size_t i = 0; i < f_.size(); ++i) {
      f_.raw(static_cast<index_t>(i)) = static_cast<ST>(in[i]);
    }
    for (std::size_t i = 0; i < rim_.size(); ++i) {
      rim_.raw(static_cast<index_t>(i)) = in[f_.size() + i];
    }
  }

 protected:
  void step_nodes(const FrontierSpec* fs,
                  const typename Engine<L>::FrontierDoneFn& on_frontier)
      override;

 private:
  template <bool kEven>
  struct Node;

  /// True when the NEXT step runs the even-parity slot mapping (the state
  /// in memory was written by the opposite parity's scatter map).
  [[nodiscard]] bool even_phase() const { return this->t_ % 2 == 0; }
  /// Rim word index of the [value, density] pair for blocked link
  /// (element, direction); the link must exist (built at construction from
  /// the same resolve_stream predicate the kernels branch on).
  [[nodiscard]] index_t rim_base(index_t elem, int dir) const {
    return rim_index_.find(static_cast<std::uint64_t>(elem) *
                           static_cast<std::uint64_t>(L::Q) +
                           static_cast<std::uint64_t>(dir))
               ->second *
           2;
  }

  void build_rim_index();

  gpusim::GlobalArray<ST> f_;
  /// Boundary rim: [value, density] per blocked link, real_t words holding
  /// already-narrowed values (see file comment). Empty on wall-free
  /// periodic domains.
  gpusim::GlobalArray<real_t> rim_;
  /// (element * Q + direction) -> rim link slot, host-built at construction.
  std::unordered_map<std::uint64_t, index_t> rim_index_;
};

extern template class EpEngine<D2Q9, double>;
extern template class EpEngine<D3Q19, double>;
extern template class EpEngine<D3Q27, double>;
extern template class EpEngine<D3Q15, double>;
extern template class EpEngine<D2Q9, float>;
extern template class EpEngine<D3Q19, float>;
extern template class EpEngine<D3Q27, float>;
extern template class EpEngine<D3Q15, float>;

}  // namespace mlbm
