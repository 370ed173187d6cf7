#include "engines/aa_engine.hpp"

#include <stdexcept>

namespace mlbm {

/// The two AA flavours as one node body.
///
/// Even (node-local): read the node's own slots plainly, collide, write f*_i
/// into the node's own slot opposite(i) — both sides one batched span.
/// Populations whose downwind link crosses a wall receive their moving-wall
/// bounceback correction here, at write time, where the node's density is
/// thread-local, so the odd gather may read wall slots without touching any
/// memory another thread rewrites in place.
///
/// Odd: gather f_i(x, t) = f*_i(x - c_i, t-1) from slot opposite(i) of the
/// upwind neighbour (wall links: this node's own swapped slot i, already
/// corrected), collide, scatter f*_i into slot i of the downwind neighbour
/// (wall links: bounce back into this node's own plain slot opposite(i),
/// where the next even step reads it). Word (j, m) is gathered AND
/// scattered only by node m - c_j, so the update is race-free in place and
/// plane-range launches touch disjoint word sets. Gathers and scatters touch
/// Q different cells per node, so they stay scalar (no uniform stride).
template <class L, class ST>
template <bool kEven>
struct AaEngine<L, ST>::Node : NodeBase<L> {
  static constexpr bool kNodeLocal = kEven;
  gpusim::GlobalArray<ST>* f;

  template <class Nb>
  MLBM_ALWAYS_INLINE void gather(const Nb& nb, index_t elem, int x, int y,
                                 int z, real_t (&fl)[L::Q]) const {
    if constexpr (kEven) {
      this->load_own(*f, elem, fl);
    } else {
      for (int i = 0; i < L::Q; ++i) {
        const StreamTarget t = this->target(x, y, z, L::opposite(i));
        if (t.kind == StreamTarget::Kind::kInterior) {
          fl[i] = f->template load_as<real_t>(
              this->soa(L::opposite(i), nb(t.x, t.y, t.z)));
        } else {
          fl[i] = f->template load_as<real_t>(this->soa(i, elem));
        }
      }
    }
  }
  template <class Nb>
  MLBM_ALWAYS_INLINE void scatter(const Nb& nb, index_t elem, int x, int y,
                                  int z, const real_t (&fl)[L::Q],
                                  real_t rho_pre) const {
    if constexpr (kEven) {
      real_t out[L::Q];
      for (int i = 0; i < L::Q; ++i) {
        real_t v = fl[i];
        const StreamTarget t = this->target(x, y, z, i);
        if (t.kind == StreamTarget::Kind::kBounce && t.cu_wall != real_t(0)) {
          v -= wall_term<L>(i, rho_pre, t.cu_wall);
        }
        out[static_cast<std::size_t>(L::opposite(i))] = v;
      }
      this->store_own(*f, elem, out);
    } else {
      for (int i = 0; i < L::Q; ++i) {
        const StreamTarget t = this->target(x, y, z, i);
        if (t.kind == StreamTarget::Kind::kInterior) {
          f->template store_as<real_t>(this->soa(i, nb(t.x, t.y, t.z)), fl[i]);
        } else {
          f->template store_as<real_t>(this->soa(L::opposite(i), elem),
                                       fl[i] - wall_term<L>(i, rho_pre, t.cu_wall));
        }
      }
    }
  }
};

template <class L, class ST>
AaEngine<L, ST>::AaEngine(Geometry geo, real_t tau, CollisionScheme scheme,
                          int threads_per_block, ExecMode exec,
                          bool allow_open_faces)
    // Even steps are node-local (ext 0); odd steps reach planes x-1..x+1
    // from source x (ext 1). Disjoint source ranges touch disjoint words
    // (unique reader == writer per word), so the launches commute.
    : DistEngine<L, ST>(std::move(geo), tau, scheme, threads_per_block, exec,
                        {{{"aa.even", 0}, {"aa.odd", 1}}}) {
  if (!allow_open_faces) {
    for (int axis = 0; axis < 3; ++axis) {
      for (int side = 0; side < 2; ++side) {
        if (this->geo_.bc.face[static_cast<std::size_t>(axis)][static_cast<std::size_t>(side)].type ==
            FaceBC::kOpen) {
          // Open faces need a post-step state rebuild, but mid-cycle the AA
          // state is collided-not-yet-streamed; inlet/outlet handling would
          // have to live inside the kernels. Out of scope for this baseline.
          // Slab interfaces opt out: their open faces sit behind a
          // depth-2 ghost band the per-step moment exchange re-imposes.
          throw ConfigError(
              "AaEngine: open (inlet/outlet) faces are not supported; use "
              "periodic or wall boundaries");
        }
      }
    }
  }
  const auto n =
      static_cast<std::size_t>(this->elems_) * static_cast<std::size_t>(L::Q);
  f_.allocate(n, &this->prof_.counter());
}

template <class L, class ST>
void AaEngine<L, ST>::initialize(const typename Engine<L>::InitFn& init) {
  if (swapped_phase()) {
    throw std::logic_error("AaEngine: initialize() only at even timesteps");
  }
  DistEngine<L, ST>::initialize(init);
}

template <class L, class ST>
Moments<L> AaEngine<L, ST>::moments_at(int x, int y, int z) const {
  if (this->solid(x, y, z)) return solid_moments<L>();
  const index_t cell = this->element(x, y, z);
  real_t f[L::Q];
  if (!swapped_phase()) {
    for (int i = 0; i < L::Q; ++i) {
      f[i] = static_cast<real_t>(f_.raw(this->soa(i, cell)));
    }
    return compute_moments<L>(f);
  }
  // Swapped phase: slot opposite(i) holds the post-collision f*_i of the
  // previous (even) step; un-swap and un-relax. Note the reported state is
  // the pre-collision state of one step ago — the AA cycle only has a
  // spatially consistent snapshot after odd steps.
  for (int i = 0; i < L::Q; ++i) {
    f[i] = static_cast<real_t>(f_.raw(this->soa(L::opposite(i), cell)));
  }
  return unrelaxed_moments<L>(f, this->tau_);
}

template <class L, class ST>
void AaEngine<L, ST>::impose(int x, int y, int z, const Moments<L>& m) {
  if (this->solid(x, y, z)) return;
  const index_t cell = this->element(x, y, z);
  real_t f[L::Q];
  if (!swapped_phase()) {
    populations_of<L>(m, real_t(1), /*recursive=*/false, f);
    for (int i = 0; i < L::Q; ++i) {
      f_.raw(this->soa(i, cell)) = static_cast<ST>(f[i]);
    }
    return;
  }
  // Swapped phase: store the post-collision image into the swapped slots.
  populations_of<L>(m, real_t(1) - real_t(1) / this->tau_,
                    this->scheme_ == CollisionScheme::kRecursive, f);
  for (int i = 0; i < L::Q; ++i) {
    f_.raw(this->soa(L::opposite(i), cell)) = static_cast<ST>(f[i]);
  }
}

template <class L, class ST>
std::size_t AaEngine<L, ST>::state_bytes() const {
  return f_.size_bytes() + (this->sparse_ ? this->tdev_.bytes() : 0);
}

template <class L, class ST>
void AaEngine<L, ST>::step_nodes(
    const FrontierSpec* fs,
    const typename Engine<L>::FrontierDoneFn& on_frontier) {
  const NodeBase<L> base = this->node_base(batched_io_);
  if (!swapped_phase()) {
    this->run_step(0, Node<true>{base, &f_}, fs, on_frontier);
  } else {
    this->run_step(1, Node<false>{base, &f_}, fs, on_frontier);
  }
}

template class AaEngine<D2Q9, double>;
template class AaEngine<D3Q19, double>;
template class AaEngine<D3Q27, double>;
template class AaEngine<D3Q15, double>;
template class AaEngine<D2Q9, float>;
template class AaEngine<D3Q19, float>;
template class AaEngine<D3Q27, float>;
template class AaEngine<D3Q15, float>;

}  // namespace mlbm
