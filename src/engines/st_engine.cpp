#include "engines/st_engine.hpp"

namespace mlbm {

/// Pull: stream-then-collide (Algorithm 1). Gathers each population from its
/// upwind source — pulling direction i is a push along opposite(i) from this
/// node, so the shared resolver is reused with the opposite velocity — and
/// writes the node's Q post-collision populations back as one coalesced span
/// (scalar fallback kept for the traffic invariance tests).
template <class L, class ST>
struct StEngine<L, ST>::PullNode : NodeBase<L> {
  static constexpr bool kNodeLocal = false;
  const gpusim::GlobalArray<ST>* src;
  gpusim::GlobalArray<ST>* dst;

  template <class Nb>
  MLBM_ALWAYS_INLINE void gather(const Nb& nb, index_t elem, int x, int y,
                                 int z, real_t (&f)[L::Q]) const {
    real_t rho_self = real_t(-1);  // lazily computed for moving walls
    for (int i = 0; i < L::Q; ++i) {
      const StreamTarget t = this->target(x, y, z, L::opposite(i));
      switch (t.kind) {
        case StreamTarget::Kind::kInterior:
          f[i] = src->template load_as<real_t>(this->soa(i, nb(t.x, t.y, t.z)));
          break;
        case StreamTarget::Kind::kBounce: {
          real_t v =
              src->template load_as<real_t>(this->soa(L::opposite(i), elem));
          if (t.cu_wall != real_t(0)) {
            if (rho_self < real_t(0)) {
              rho_self = 0;
              for (int j = 0; j < L::Q; ++j) {
                rho_self += src->template load_as<real_t>(this->soa(j, elem));
              }
            }
            v -= wall_term<L>(i, rho_self, t.cu_wall);
          }
          f[i] = v;
          break;
        }
        case StreamTarget::Kind::kDropped:
          // This node sits on an open face and is rebuilt by the BC pass;
          // any finite placeholder works.
          f[i] = src->template load_as<real_t>(this->soa(L::opposite(i), elem));
          break;
      }
    }
  }
  template <class Nb>
  MLBM_ALWAYS_INLINE void scatter(const Nb& /*nb*/, index_t elem, int, int,
                                  int, const real_t (&f)[L::Q],
                                  real_t /*rho_pre*/) const {
    this->store_own(*dst, elem, f);
  }
};

/// Push: collide-then-stream. One coalesced read of the node's own
/// (pre-collision) populations, then irregular scatters of the
/// post-collision ones downwind; wall links bounce back into the node's own
/// opposite slot with the moving-wall correction from the pre-collision
/// density.
template <class L, class ST>
struct StEngine<L, ST>::PushNode : NodeBase<L> {
  static constexpr bool kNodeLocal = false;
  const gpusim::GlobalArray<ST>* src;
  gpusim::GlobalArray<ST>* dst;

  template <class Nb>
  MLBM_ALWAYS_INLINE void gather(const Nb& /*nb*/, index_t elem, int, int,
                                 int, real_t (&f)[L::Q]) const {
    this->load_own(*src, elem, f);
  }
  template <class Nb>
  MLBM_ALWAYS_INLINE void scatter(const Nb& nb, index_t elem, int x, int y,
                                  int z, const real_t (&f)[L::Q],
                                  real_t rho_pre) const {
    for (int i = 0; i < L::Q; ++i) {
      const StreamTarget t = this->target(x, y, z, i);
      switch (t.kind) {
        case StreamTarget::Kind::kInterior:
          dst->template store_as<real_t>(this->soa(i, nb(t.x, t.y, t.z)), f[i]);
          break;
        case StreamTarget::Kind::kBounce:
          dst->template store_as<real_t>(
              this->soa(L::opposite(i), elem),
              f[i] - wall_term<L>(i, rho_pre, t.cu_wall));
          break;
        case StreamTarget::Kind::kDropped:
          break;
      }
    }
  }
};

template <class L, class ST>
StEngine<L, ST>::StEngine(Geometry geo, real_t tau, CollisionScheme scheme,
                          int threads_per_block, StreamMode mode,
                          ExecMode exec)
    // Both orderings split cleanly by x-plane: pull partitions by
    // destination node (a plane's populations are written only by that
    // plane's threads), push by source node with a one-plane extension
    // (plane x is final once sources x-1..x+1 have scattered).
    : DistEngine<L, ST>(
          std::move(geo), tau, scheme, threads_per_block, exec,
          mode == StreamMode::kPull
              ? std::array<typename DistEngine<L, ST>::Flavour, 2>{{
                    {"st.pull", 0}, {"st.pull", 0}}}
              : std::array<typename DistEngine<L, ST>::Flavour, 2>{{
                    {"st.push", 1}, {"st.push", 1}}}),
      mode_(mode) {
  if (this->sparse_ && mode_ == StreamMode::kPush) {
    throw ConfigError(
        "StEngine: push streaming does not support sparse geometries "
        "(use pull, the paper's ST baseline)");
  }
  const auto n =
      static_cast<std::size_t>(this->elems_) * static_cast<std::size_t>(L::Q);
  f_[0].allocate(n, &this->prof_.counter());
  f_[1].allocate(n, &this->prof_.counter());
}

template <class L, class ST>
Moments<L> StEngine<L, ST>::moments_at(int x, int y, int z) const {
  if (this->solid(x, y, z)) return solid_moments<L>();
  const index_t cell = this->element(x, y, z);
  real_t f[L::Q];
  for (int i = 0; i < L::Q; ++i) {
    f[i] = static_cast<real_t>(f_[cur_].raw(this->soa(i, cell)));
  }
  // Push stores the pre-collision state directly; pull stores
  // post-collision, translated back to the shared pre-collision convention.
  return mode_ == StreamMode::kPush ? compute_moments<L>(f)
                                    : unrelaxed_moments<L>(f, this->tau_);
}

template <class L, class ST>
void StEngine<L, ST>::impose(int x, int y, int z, const Moments<L>& m) {
  if (this->solid(x, y, z)) return;
  real_t f[L::Q];
  if (mode_ == StreamMode::kPush) {
    // Pre-collision storage: the exact population with these moments.
    populations_of<L>(m, real_t(1), /*recursive=*/false, f);
  } else {
    // Pull: store the post-collision image of the imposed pre-collision
    // state so the next step streams exactly what the push-style engines
    // stream.
    populations_of<L>(m, real_t(1) - real_t(1) / this->tau_,
                      this->scheme_ == CollisionScheme::kRecursive, f);
  }
  const index_t cell = this->element(x, y, z);
  for (int i = 0; i < L::Q; ++i) {
    f_[cur_].raw(this->soa(i, cell)) = static_cast<ST>(f[i]);
  }
}

template <class L, class ST>
std::size_t StEngine<L, ST>::state_bytes() const {
  return f_[0].size_bytes() + f_[1].size_bytes() +
         (this->sparse_ ? this->tdev_.bytes() : 0);
}

template <class L, class ST>
void StEngine<L, ST>::step_nodes(
    const FrontierSpec* fs,
    const typename Engine<L>::FrontierDoneFn& on_frontier) {
  const NodeBase<L> base = this->node_base(batched_io_);
  if (mode_ == StreamMode::kPull) {
    this->run_step(0, PullNode{base, &f_[cur_], &f_[1 - cur_]}, fs,
                   on_frontier);
  } else {
    this->run_step(0, PushNode{base, &f_[cur_], &f_[1 - cur_]}, fs,
                   on_frontier);
  }
  cur_ = 1 - cur_;
}

template class StEngine<D2Q9, double>;
template class StEngine<D3Q19, double>;
template class StEngine<D3Q27, double>;
template class StEngine<D3Q15, double>;
template class StEngine<D2Q9, float>;
template class StEngine<D3Q19, float>;
template class StEngine<D3Q27, float>;
template class StEngine<D3Q15, float>;

}  // namespace mlbm
