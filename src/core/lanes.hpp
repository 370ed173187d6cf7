// Lane-batched (SoA panel) forms of the per-node collision kernels.
//
// The scalar engine kernels process one lattice node at a time: gather the
// node's Q populations (or M moments) into registers, collide, scatter. The
// lane-batched execution path (ExecMode::kLanes) processes kLaneWidth
// consecutive nodes per panel instead, holding every register as a
// lane-major array `v[component][lane]` so the per-component inner loops run
// over the lane dimension and vectorize (`#pragma omp simd`) — the host
// analogue of a GPU warp executing the same kernel over 32 nodes in
// lockstep, and the SoA/SIMD structure Habich et al. and Wittmann et al.
// identify as the deciding factor for LBM throughput on wide cores.
//
// Bit-identity contract: per-node LBM arithmetic is independent across
// nodes, and every lane kernel below performs, per lane, *exactly* the
// operation sequence of its scalar counterpart (same expressions, same
// association, same ascending component order). Batching therefore changes
// only the interleaving of independent per-node computations, never any
// node's result — the Scalar-vs-Lanes tests pin this with bitwise field
// comparisons. Partial panels (grid size not a multiple of kLaneWidth) run
// with `n < W` active lanes; trailing lanes are never read or written.
#pragma once

#include "core/collision.hpp"
#include "core/lattice.hpp"
#include "core/moments.hpp"
#include "core/regularization.hpp"
#include "util/types.hpp"

// Vectorization hint for the lane loops. `omp simd` needs no OpenMP runtime
// (it is a pure compiler directive), but guarding on _OPENMP avoids
// -Wunknown-pragmas noise on compilers invoked without -fopenmp.
#if defined(_OPENMP)
#define MLBM_SIMD _Pragma("omp simd")
#else
#define MLBM_SIMD
#endif

// Inlining guarantee for the per-node gather/scatter helpers the engines
// factor out to share between the scalar and lane bodies. Sharing gives the
// helper two call sites, which flips GCC's inlining heuristic from "inline
// into the hot loop" to "outline and call per node" — a measured ~1.8x
// slowdown of the ST hot path. The attribute restores the seed behaviour.
#if defined(__GNUC__)
#define MLBM_ALWAYS_INLINE __attribute__((always_inline))
#else
#define MLBM_ALWAYS_INLINE
#endif

// Inlines every call made inside the marked function. For a shared helper
// that GCC keeps out of line for its other callers (resolve_stream) but
// that sits on one engine's per-population loop, where a call per
// population is a measured slowdown.
#if defined(__GNUC__)
#define MLBM_FLATTEN __attribute__((flatten))
#else
#define MLBM_FLATTEN
#endif

namespace mlbm {

/// Nodes per SoA panel. Eight doubles = one 64-byte cache line and a full
/// AVX-512 vector (two AVX2 vectors); wide enough to amortize the per-panel
/// setup, small enough that the lane-major registers of a D3Q27 panel
/// (~Q·W doubles) stay L1-resident.
inline constexpr int kLaneWidth = 8;

/// Lane-batched moment projection: per lane, the exact ascending-i sums of
/// compute_moments (rho first, then each u component as dot/rho, then each
/// Pi component).
template <class L, int W>
void compute_moments_lanes(const real_t (&f)[L::Q][W], int n,
                           real_t (&rho)[W], real_t (&u)[L::D][W],
                           real_t (&pi)[SymPairs<L::D>::N][W]) {
  const auto& t = detail::kMomentProjection<L>;
  MLBM_SIMD
  for (int ln = 0; ln < n; ++ln) {
    real_t acc = 0;
    for (int i = 0; i < L::Q; ++i) acc += f[i][ln];
    rho[ln] = acc;
  }
  for (int a = 0; a < L::D; ++a) {
    MLBM_SIMD
    for (int ln = 0; ln < n; ++ln) {
      real_t acc = 0;
      for (int i = 0; i < L::Q; ++i) acc += t.c[a][i] * f[i][ln];
      u[a][ln] = acc / rho[ln];
    }
  }
  for (int p = 0; p < SymPairs<L::D>::N; ++p) {
    MLBM_SIMD
    for (int ln = 0; ln < n; ++ln) {
      real_t acc = 0;
      for (int i = 0; i < L::Q; ++i) acc += t.h2[p][i] * f[i][ln];
      pi[p][ln] = acc;
    }
  }
}

/// Lane-batched BGK relaxation; per lane identical to collide_bgk (which
/// evaluates equilibrium<L> per direction with fresh cu/uu accumulators).
template <class L, int W>
void collide_bgk_lanes(real_t (&f)[L::Q][W], int n, real_t tau) {
  real_t rho[W];
  real_t u[L::D][W];
  real_t pi[SymPairs<L::D>::N][W];
  compute_moments_lanes<L, W>(f, n, rho, u, pi);
  const real_t omega = real_t(1) / tau;
  const real_t inv_cs2 = real_t(1) / L::cs2;
  for (int i = 0; i < L::Q; ++i) {
    const real_t wi = L::w[static_cast<std::size_t>(i)];
    MLBM_SIMD
    for (int ln = 0; ln < n; ++ln) {
      real_t cu{};
      real_t uu{};
      for (int a = 0; a < L::D; ++a) {
        cu += static_cast<real_t>(
                  L::c[static_cast<std::size_t>(i)][static_cast<std::size_t>(a)]) *
              u[a][ln];
        uu += u[a][ln] * u[a][ln];
      }
      const real_t feq =
          wi * rho[ln] *
          (real_t(1) + inv_cs2 * cu +
           real_t(0.5) * inv_cs2 * inv_cs2 * cu * cu -
           real_t(0.5) * inv_cs2 * uu);
      f[i][ln] += omega * (feq - f[i][ln]);
    }
  }
}

/// Lane-batched Reconstructor<L, R>: one panel of per-node Hermite-moment
/// registers (lane-major), evaluated direction by direction with the same
/// sparse compile-time tables — the construction and evaluation of each lane
/// is operation-for-operation the scalar Reconstructor's.
template <class L, Regularization R, int W>
class ReconstructorLanes {
 public:
  static constexpr int NP = SymPairs<L::D>::N;
  using HS = HermiteSparsity<L>;

  ReconstructorLanes(int n, const real_t (&rho)[W], const real_t (&u)[L::D][W],
                     const real_t (&pineq)[NP][W])
      : n_(n) {
    for (int ln = 0; ln < n; ++ln) rho_[ln] = rho[ln];
    for (int a = 0; a < L::D; ++a) {
      MLBM_SIMD
      for (int ln = 0; ln < n; ++ln) {
        rho_u_[a][ln] = rho[ln] * u[a][ln];
      }
    }
    for (int p = 0; p < NP; ++p) {
      const int a = SymPairs<L::D>::idx[static_cast<std::size_t>(p)][0];
      const int b = SymPairs<L::D>::idx[static_cast<std::size_t>(p)][1];
      MLBM_SIMD
      for (int ln = 0; ln < n; ++ln) {
        a2_[p][ln] = rho[ln] * u[a][ln] * u[b][ln] + pineq[p][ln];
      }
    }
    if constexpr (R == Regularization::kRecursive) {
      using P = SymPairs<L::D>;
      using T3 = SymTriples<L::D>;
      using T4 = SymQuads<L::D>;
      for (int t = 0; t < HS::NU3; ++t) {
        const auto st =
            static_cast<std::size_t>(HS::map3[static_cast<std::size_t>(t)]);
        const int a = T3::idx[st][0];
        const int b = T3::idx[st][1];
        const int g = T3::idx[st][2];
        const int bg = P::index(b, g);
        const int ag = P::index(a, g);
        const int ab = P::index(a, b);
        MLBM_SIMD
        for (int ln = 0; ln < n; ++ln) {
          a3_[t][ln] = rho[ln] * u[a][ln] * u[b][ln] * u[g][ln] +
                       (u[a][ln] * pineq[bg][ln] + u[b][ln] * pineq[ag][ln] +
                        u[g][ln] * pineq[ab][ln]);
        }
      }
      for (int q = 0; q < HS::NU4; ++q) {
        const auto sq =
            static_cast<std::size_t>(HS::map4[static_cast<std::size_t>(q)]);
        const int a = T4::idx[sq][0];
        const int b = T4::idx[sq][1];
        const int g = T4::idx[sq][2];
        const int d = T4::idx[sq][3];
        const int gd = P::index(g, d);
        const int bd = P::index(b, d);
        const int bg = P::index(b, g);
        const int ad = P::index(a, d);
        const int ag = P::index(a, g);
        const int ab = P::index(a, b);
        MLBM_SIMD
        for (int ln = 0; ln < n; ++ln) {
          a4_[q][ln] = rho[ln] * u[a][ln] * u[b][ln] * u[g][ln] * u[d][ln] +
                       (u[a][ln] * u[b][ln] * pineq[gd][ln] +
                        u[a][ln] * u[g][ln] * pineq[bd][ln] +
                        u[a][ln] * u[d][ln] * pineq[bg][ln] +
                        u[b][ln] * u[g][ln] * pineq[ad][ln] +
                        u[b][ln] * u[d][ln] * pineq[ag][ln] +
                        u[g][ln] * u[d][ln] * pineq[ab][ln]);
        }
      }
    }
  }

  /// Reconstructs population `i` for every active lane into `out`.
  void eval(int i, real_t (&out)[W]) const {
    const auto& t = ReconstructTables<L>::get();
    const auto si = static_cast<std::size_t>(i);
    MLBM_SIMD
    for (int ln = 0; ln < n_; ++ln) {
      real_t acc = t.k0[si] * rho_[ln];
      for (int a = 0; a < L::D; ++a) {
        acc += t.k1[si][static_cast<std::size_t>(a)] * rho_u_[a][ln];
      }
      for (int p = 0; p < NP; ++p) {
        acc += t.k2[si][static_cast<std::size_t>(p)] * a2_[p][ln];
      }
      if constexpr (R == Regularization::kRecursive) {
        for (int s = 0; s < t.nnz3[si]; ++s) {
          acc += t.s3c[si][static_cast<std::size_t>(s)] *
                 a3_[t.s3i[si][static_cast<std::size_t>(s)]][ln];
        }
        for (int q = 0; q < t.nnz4[si]; ++q) {
          acc += t.s4c[si][static_cast<std::size_t>(q)] *
                 a4_[t.s4i[si][static_cast<std::size_t>(q)]][ln];
        }
      }
      out[ln] = acc;
    }
  }

 private:
  struct Empty {};
  template <int N>
  using HigherRegs =
      std::conditional_t<R == Regularization::kRecursive, real_t[N][W], Empty>;

  int n_;
  real_t rho_[W] = {};
  real_t rho_u_[L::D][W] = {};
  real_t a2_[NP][W] = {};
  [[no_unique_address]] HigherRegs<HS::NU3 == 0 ? 1 : HS::NU3> a3_{};
  [[no_unique_address]] HigherRegs<HS::NU4 == 0 ? 1 : HS::NU4> a4_{};
};

/// Lane-batched regularized relaxation; per lane identical to the
/// scheme-templated collide_regularized<L, R>.
template <class L, Regularization R, int W>
void collide_regularized_lanes(real_t (&f)[L::Q][W], int n, real_t tau) {
  static constexpr int NP = SymPairs<L::D>::N;
  real_t rho[W];
  real_t u[L::D][W];
  real_t pi[NP][W];
  compute_moments_lanes<L, W>(f, n, rho, u, pi);
  const real_t factor = real_t(1) - real_t(1) / tau;
  real_t pineq_star[NP][W];
  for (int p = 0; p < NP; ++p) {
    const int a = SymPairs<L::D>::idx[static_cast<std::size_t>(p)][0];
    const int b = SymPairs<L::D>::idx[static_cast<std::size_t>(p)][1];
    MLBM_SIMD
    for (int ln = 0; ln < n; ++ln) {
      pineq_star[p][ln] =
          factor * (pi[p][ln] - rho[ln] * u[a][ln] * u[b][ln]);
    }
  }
  const ReconstructorLanes<L, R, W> rec(n, rho, u, pineq_star);
  for (int i = 0; i < L::Q; ++i) {
    rec.eval(i, f[i]);
  }
}

/// Runtime-scheme lane collision: one branch per panel (kLaneWidth nodes),
/// then a fully scheme-templated kernel.
template <class L, int W>
void collide_lanes(CollisionScheme scheme, real_t (&f)[L::Q][W], int n,
                   real_t tau) {
  switch (scheme) {
    case CollisionScheme::kBGK:
      collide_bgk_lanes<L, W>(f, n, tau);
      break;
    case CollisionScheme::kProjective:
      collide_regularized_lanes<L, Regularization::kProjective, W>(f, n, tau);
      break;
    case CollisionScheme::kRecursive:
      collide_regularized_lanes<L, Regularization::kRecursive, W>(f, n, tau);
      break;
  }
}

}  // namespace mlbm
