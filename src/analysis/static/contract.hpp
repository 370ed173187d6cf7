// Symbolic kernel-access contracts: what each gpusim kernel promises to
// touch, declared as data instead of discovered by running it.
//
// PR 4's sanitizer checks one execution; a contract is checked for ALL
// domain shapes at once. Every gpusim engine declares, per kernel, a set of
// affine access descriptors — array, per-node offset, component list,
// span-vs-scalar — parameterized on the lattice, the storage width and (for
// the MR sweep) the tile geometry and circular-shift discipline. Three
// consumers share the declaration:
//
//  * analyzer.hpp  — race-freedom and addressing lints, quantified over all
//                    domain sizes (the static dual of racecheck);
//  * traffic.hpp   — closed-form bytes/FLUP and exact per-step transaction
//                    counts, cross-checked against perfmodel and the
//                    measured counters (the three-way gate);
//  * verify.hpp    — the mlbm-verify matrix driver, including seeded
//                    contract mutations that the analyzer must kill.
//
// Contracts are plain runtime data (no templates beyond the lattice
// capture), so the analyzer is written once and a mutation is a plain field
// edit.
#pragma once

#include <array>
#include <string>
#include <vector>

namespace mlbm::analysis {

/// Runtime mirror of a compile-time lattice descriptor, including the
/// velocity set — offsets in access descriptors are built from it.
struct LatticeDesc {
  int dim = 0;
  int q = 0;
  int m = 0;
  std::string name;
  std::vector<std::array<int, 3>> c;
  std::vector<int> opposite;

  /// Velocity component along the MR sweep axis (y in 2D, z in 3D).
  [[nodiscard]] int c_sweep(int i) const {
    return c[static_cast<std::size_t>(i)][dim == 2 ? 1 : 2];
  }
};

template <class L>
LatticeDesc make_lattice_desc() {
  LatticeDesc d;
  d.dim = L::D;
  d.q = L::Q;
  d.m = L::M;
  d.name = L::name();
  d.c.reserve(static_cast<std::size_t>(L::Q));
  d.opposite.reserve(static_cast<std::size_t>(L::Q));
  for (int i = 0; i < L::Q; ++i) {
    d.c.push_back(L::c[static_cast<std::size_t>(i)]);
    d.opposite.push_back(L::opposite(i));
  }
  return d;
}

/// One device-resident state array of the engine.
struct ArrayDecl {
  std::string name;  ///< "f_src" / "f_dst" / "f" / "mom"
  int comps = 0;     ///< components per node (Q or M)
};

/// One global-memory transaction issued once per lattice node (node kernels)
/// or once per source position (ring kernels): `comps.size()` storage
/// elements of `array`, addressed at the executing node plus `off`. A span
/// descriptor is one wide transaction (batched I/O); a scalar descriptor
/// lists exactly one component. Component-major SoA layout is implied: the
/// element of (comp, node) is comp * cells + node, so a span walks comps at
/// stride +cells.
struct AccessDesc {
  int array = 0;              ///< index into EngineContract::arrays
  bool write = false;
  std::array<int, 3> off{};   ///< node offset (dx, dy, dz)
  std::vector<int> comps;     ///< component indices, in access order
  bool span = false;          ///< one transaction covering all comps
};

/// A kernel whose threads map 1:1 onto lattice nodes with no intra-kernel
/// barrier (ST pull/push, AA even/odd, and their frontier/sparse variants).
/// Program order within a thread is reads-then-writes.
struct NodeKernelContract {
  std::string tag;                   ///< KernelRecord::contract tag
  std::vector<std::string> kernels;  ///< profiler record names covered
  std::vector<AccessDesc> accesses;  ///< executed once per fluid node
};

/// The MR column-sweep kernel: per-column thread blocks stream through a
/// shared-memory ring, alternating phase A (load + collide + reconstruct +
/// scatter) and phase B (re-project + store) with a barrier in between. The
/// fields below declare the addressing discipline the analyzer proves safe
/// (or, mutated, unsafe) for every domain extent.
struct RingKernelContract {
  std::string tag;
  std::vector<std::string> kernels;

  int tile_x = 32;    ///< cross-axis-0 tile extent (pre-clamp)
  int tile_y = 1;     ///< cross-axis-1 tile extent (1 in 2D)
  int tile_s = 1;     ///< sweep-axis tile thickness
  int cross_halo = 1; ///< declared halo width of phase A's source loop
  int ring_slots_extra = 2;  ///< shared ring slots beyond tile_s

  bool single_buffer = false;  ///< circular shift (true) vs ping-pong
  int layers_extra = 2;        ///< circular-buffer layers beyond S
  int shift_per_step = 2;      ///< physical-layer shift per timestep
  int write_behind = 2;        ///< layers the write-back trails the front
  int ring_shift_bias = 0;     ///< extra bias on the write layer (0 = none)
  bool barrier_between_phases = true;
  int min_sweep_extent_periodic = 0;  ///< tile_s + 3 (engine ConfigError)

  AccessDesc src_load;   ///< one per source position (nodes plus cross halo)
  AccessDesc dst_store;  ///< one per owned node

  /// Net bias applied to the physical write layer: 0 in normal operation
  /// (write_behind == shift_per_step, no bias). Mirrors the engine's wmut.
  [[nodiscard]] int write_phase_offset() const {
    return single_buffer ? (shift_per_step - write_behind) + ring_shift_bias
                         : 0;
  }
};

/// Everything one engine declares: its arrays, its per-cycle kernel phases
/// and the lattice/width parameters every formula is expressed in.
struct EngineContract {
  std::string pattern;  ///< "ST" / "ST-push" / "ST-AA" / "MR-P" / "MR-R"
  LatticeDesc lattice;
  int elem_bytes = 8;       ///< storage element width (counted bytes)
  int steps_per_cycle = 1;  ///< node-kernel phases per repeating cycle (AA: 2)
  std::vector<ArrayDecl> arrays;
  /// Phase p of step t is node_kernels[t % steps_per_cycle]. Empty for ring
  /// engines and for engines without gpusim backing (reference).
  std::vector<NodeKernelContract> node_kernels;
  std::vector<RingKernelContract> ring_kernels;
  /// Ghost depth the multi-domain decomposition exchanges for this engine
  /// (SlabInfo::ghost_depth). The analyzer derives the required depth from
  /// the access offsets and flags a declaration below it.
  int ghost_depth_declared = 0;

  [[nodiscard]] bool empty() const {
    return node_kernels.empty() && ring_kernels.empty();
  }
};

// ---- distribution-engine kernel names --------------------------------------

/// Which launch of a distribution engine (ST/AA/EP) a kernel record counts:
/// the dense plane-range launch, or the all-fluid / mixed tile-list launch of
/// a sparse geometry.
enum class TileClass { kDense, kFluid, kMixed };

/// Profiler record name of a distribution-engine launch of flavour `tag`
/// ("st.pull", "st.push", "aa.even", "aa.odd", "ep.even", "ep.odd") on
/// `lattice`; `frontier` names the frontier launches of a split step. The one
/// source of these names: the engines register their records through it and
/// the contract builders below list their kernels through it.
std::string node_kernel_name(const std::string& tag, const std::string& lattice,
                             TileClass cls, bool frontier);

/// Profiler record name of the MR column sweep on `lattice` ("mr_p_<lattice>"
/// for the projective scheme, "mr_r_<lattice>" for the recursive one);
/// `frontier` names the frontier launches of a split step. MrEngine registers
/// its records through it and mr_contract lists its kernels through it.
std::string mr_kernel_name(bool projective, const std::string& lattice,
                           bool frontier);

// ---- canonical contract builders ------------------------------------------
// Shared by the engine access_contract() overrides and by mlbm-verify's
// mutation harness (which edits the result). `batched_io` mirrors the
// engine's span-vs-scalar validation hook; default probes use spans.

/// ST pull or push (two-lattice, one thread per node).
EngineContract st_contract(LatticeDesc lat, int elem_bytes, bool push,
                           bool batched_io = true);

/// AA in-place (single lattice, even/odd kernel flavours, 2-step cycle).
EngineContract aa_contract(LatticeDesc lat, int elem_bytes,
                           bool batched_io = true);

/// Esoteric Pull in-place (single lattice, paired-direction even/odd slot
/// maps, 2-step cycle; scalar-only accesses — the gather and scatter each
/// touch Q different cells, so there is no span to batch).
EngineContract ep_contract(LatticeDesc lat, int elem_bytes);

/// MR column sweep. `projective` picks the MR-P/MR-R pattern label;
/// `single_buffer` the circular-shift storage policy; `write_behind`,
/// `ring_shift_bias`, `barrier_between_phases` and `cross_halo` default to
/// the canonical discipline and are the fields the engine's FaultMutation
/// (and mlbm-verify's mutations) perturb.
EngineContract mr_contract(LatticeDesc lat, int elem_bytes, bool projective,
                           bool single_buffer, int tile_x, int tile_y,
                           int tile_s, bool batched_io = true,
                           int write_behind = 2, int ring_shift_bias = 0,
                           bool barrier_between_phases = true,
                           int cross_halo = 1);

// ---- seeded contract mutations --------------------------------------------

/// Names of the seeded mutations applicable to `c` (the kill-rate matrix).
std::vector<std::string> applicable_mutations(const EngineContract& c);

/// Applies one named mutation in place. Throws ConfigError for a name not
/// applicable to this contract.
void apply_mutation(EngineContract& c, const std::string& name);

}  // namespace mlbm::analysis
