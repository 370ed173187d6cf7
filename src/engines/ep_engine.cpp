#include "engines/ep_engine.hpp"

namespace mlbm {

/// Both esoteric parities as one node body. Gather f_i(x, t) from slot
/// (even ? opposite(i) : i) of the node itself (plus half-set and rest) or
/// the upwind neighbour (minus half-set); blocked links read the rim,
/// applying the moving-wall correction at read time from the rim density —
/// ST pull's exact arithmetic. Scatter f*_i(x, t) into slot
/// (even ? i : opposite(i)) of the downwind neighbour (plus half-set) or the
/// node itself; blocked links park the storage-narrowed value plus the
/// narrowed post-collision density in the rim for next step's gather.
template <class L, class ST>
template <bool kEven>
struct EpEngine<L, ST>::Node : NodeBase<L> {
  static constexpr bool kNodeLocal = false;
  const EpEngine* eng;  ///< rim link index (host-side lookup)
  gpusim::GlobalArray<ST>* f;
  gpusim::GlobalArray<real_t>* rim;

  template <class Nb>
  MLBM_ALWAYS_INLINE void gather(const Nb& nb, index_t elem, int x, int y,
                                 int z, real_t (&fl)[L::Q]) const {
    for (int i = 0; i < L::Q; ++i) {
      const int j = L::opposite(i);
      const StreamTarget t = this->target(x, y, z, j);
      if (t.kind == StreamTarget::Kind::kInterior) {
        const index_t tc = j < i ? nb(t.x, t.y, t.z) : elem;
        fl[i] = f->template load_as<real_t>(this->soa(kEven ? j : i, tc));
      } else {
        const index_t rb = eng->rim_base(elem, j);
        real_t v = rim->template load_as<real_t>(rb);
        if (t.kind == StreamTarget::Kind::kBounce && t.cu_wall != real_t(0)) {
          v -= wall_term<L>(i, rim->template load_as<real_t>(rb + 1),
                            t.cu_wall);
        }
        fl[i] = v;
      }
    }
  }
  template <class Nb>
  MLBM_ALWAYS_INLINE void scatter(const Nb& nb, index_t elem, int x, int y,
                                  int z, const real_t (&fl)[L::Q],
                                  real_t /*rho_pre*/) const {
    real_t rho_post = 0;
    bool have_rho = false;
    for (int i = 0; i < L::Q; ++i) {
      const int j = L::opposite(i);
      const StreamTarget t = this->target(x, y, z, i);
      if (t.kind == StreamTarget::Kind::kInterior) {
        const index_t tc = i < j ? nb(t.x, t.y, t.z) : elem;
        f->template store_as<real_t>(this->soa(kEven ? i : j, tc), fl[i]);
      } else {
        if (!have_rho) {
          for (int k = 0; k < L::Q; ++k) {
            rho_post += static_cast<real_t>(static_cast<ST>(fl[k]));
          }
          have_rho = true;
        }
        const index_t rb = eng->rim_base(elem, i);
        rim->template store_as<real_t>(
            rb, static_cast<real_t>(static_cast<ST>(fl[i])));
        rim->template store_as<real_t>(rb + 1, rho_post);
      }
    }
  }
};

template <class L, class ST>
EpEngine<L, ST>::EpEngine(Geometry geo, real_t tau, CollisionScheme scheme,
                          int threads_per_block, ExecMode exec)
    // Both parities reach planes x-1..x+1 from source x (the pulled half
    // upwind, the pushed half downwind), so split steps extend the frontier
    // by one source plane; disjoint source ranges touch disjoint words
    // (unique reader == writer per word), so the launches commute.
    : DistEngine<L, ST>(std::move(geo), tau, scheme, threads_per_block, exec,
                        {{{"ep.even", 1}, {"ep.odd", 1}}}) {
  const auto n =
      static_cast<std::size_t>(this->elems_) * static_cast<std::size_t>(L::Q);
  f_.allocate(n, &this->prof_.counter());
  build_rim_index();
}

template <class L, class ST>
void EpEngine<L, ST>::build_rim_index() {
  // One [value, density] pair per blocked link, in deterministic node-major
  // direction-minor order (so raw snapshots are reproducible). The predicate
  // is exactly the branch the kernels take: resolve_stream not interior.
  const Box& b = this->geo_.box;
  index_t links = 0;
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (int x = 0; x < b.nx; ++x) {
        if (this->solid(x, y, z)) continue;
        const index_t elem = this->element(x, y, z);
        if (elem < 0) continue;
        for (int i = 0; i < L::Q; ++i) {
          const StreamTarget t = resolve_stream<L>(this->geo_, x, y, z, i);
          if (t.kind == StreamTarget::Kind::kInterior) continue;
          rim_index_.emplace(static_cast<std::uint64_t>(elem) *
                                 static_cast<std::uint64_t>(L::Q) +
                                 static_cast<std::uint64_t>(i),
                             links++);
        }
      }
    }
  }
  rim_.allocate(static_cast<std::size_t>(links) * 2, &this->prof_.counter());
}

template <class L, class ST>
Moments<L> EpEngine<L, ST>::moments_at(int x, int y, int z) const {
  if (this->solid(x, y, z)) return solid_moments<L>();
  // The state in memory is the post-collision image f*(., t_) laid out by
  // the PREVIOUS parity's scatter map: f*_i of this node sits in slot
  // (even_phase() ? opposite(i) : i) of the downwind neighbour for i in the
  // plus half-set, of the node itself otherwise — and in the rim for
  // blocked links. Collect it and translate to the shared pre-collision
  // moment convention exactly like ST pull.
  const index_t cell = this->element(x, y, z);
  const bool even = even_phase();
  real_t f[L::Q];
  for (int i = 0; i < L::Q; ++i) {
    const int j = L::opposite(i);
    const StreamTarget t = resolve_stream<L>(this->geo_, x, y, z, i);
    if (t.kind == StreamTarget::Kind::kInterior) {
      const index_t tc = i < j ? this->element(t.x, t.y, t.z) : cell;
      f[i] = static_cast<real_t>(f_.raw(this->soa(even ? j : i, tc)));
    } else {
      f[i] = rim_.raw(rim_base(cell, i));
    }
  }
  return unrelaxed_moments<L>(f, this->tau_);
}

template <class L, class ST>
void EpEngine<L, ST>::impose(int x, int y, int z, const Moments<L>& m) {
  if (this->solid(x, y, z)) return;
  const index_t cell = this->element(x, y, z);
  const bool even = even_phase();
  // Store the post-collision image of the imposed pre-collision state (the
  // exact ST pull recipe, so the next gather streams bit-identical values),
  // scattered over the previous parity's write map.
  real_t f[L::Q];
  populations_of<L>(m, real_t(1) - real_t(1) / this->tau_,
                    this->scheme_ == CollisionScheme::kRecursive, f);
  real_t rho_post = 0;
  bool have_rho = false;
  for (int i = 0; i < L::Q; ++i) {
    const int j = L::opposite(i);
    const StreamTarget t = resolve_stream<L>(this->geo_, x, y, z, i);
    if (t.kind == StreamTarget::Kind::kInterior) {
      const index_t tc = i < j ? this->element(t.x, t.y, t.z) : cell;
      f_.raw(this->soa(even ? j : i, tc)) = static_cast<ST>(f[i]);
    } else {
      if (!have_rho) {
        // The narrowed density the moving-wall correction will read next
        // step — the sum ST's gather would form from the node's own
        // storage-narrowed populations.
        for (int k = 0; k < L::Q; ++k) {
          rho_post += static_cast<real_t>(static_cast<ST>(f[k]));
        }
        have_rho = true;
      }
      const index_t rb = rim_base(cell, i);
      rim_.raw(rb) = static_cast<real_t>(static_cast<ST>(f[i]));
      rim_.raw(rb + 1) = rho_post;
    }
  }
}

template <class L, class ST>
std::size_t EpEngine<L, ST>::state_bytes() const {
  return f_.size_bytes() + rim_.size_bytes() +
         (this->sparse_ ? this->tdev_.bytes() : 0);
}

template <class L, class ST>
void EpEngine<L, ST>::step_nodes(
    const FrontierSpec* fs,
    const typename Engine<L>::FrontierDoneFn& on_frontier) {
  const NodeBase<L> base = this->node_base(/*batched=*/false);
  if (even_phase()) {
    this->run_step(0, Node<true>{base, this, &f_, &rim_}, fs, on_frontier);
  } else {
    this->run_step(1, Node<false>{base, this, &f_, &rim_}, fs, on_frontier);
  }
}

template class EpEngine<D2Q9, double>;
template class EpEngine<D3Q19, double>;
template class EpEngine<D3Q27, double>;
template class EpEngine<D3Q15, double>;
template class EpEngine<D2Q9, float>;
template class EpEngine<D3Q19, float>;
template class EpEngine<D3Q27, float>;
template class EpEngine<D3Q15, float>;

}  // namespace mlbm
