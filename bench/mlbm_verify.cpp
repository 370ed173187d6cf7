// mlbm-verify: the static kernel-access contract gate.
//
// Runs the full engine x lattice x precision matrix through the analyzer
// and the three-way traffic agreement (contract derivation == perfmodel ==
// measured counters, exact), plus the seeded-mutation kill matrix. Exit 0
// on a fully clean run, 2 on any failure or surviving mutant — the same
// convention the sanitizer gate uses, so CI treats both identically.
//
//   mlbm-verify                   full matrix (the CI gate)
//   mlbm-verify --steps 4         more measured steps per probe
//   mlbm-verify --mutate NAME     demonstration: seed NAME into every
//                                 applicable contract and show the gate
//                                 catching it (expected exit 2)
//   mlbm-verify --list-mutations  print the seeded mutation names
#include <cstdio>

#include "analysis/static/verify.hpp"
#include "util/cli.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mlbm;
  Cli cli(argc, argv);
  analysis::VerifyOptions opt;
  opt.steps = cli.get_int("steps", 2, 2);
  opt.mutate = cli.get("mutate", "");
  const bool list = cli.get_bool("list-mutations", false);
  cli.reject_unknown();

  if (list) {
    for (const auto& name : analysis::all_mutation_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const analysis::VerifyReport rep = analysis::run_verify_matrix(opt);
  std::fputs(to_string(rep).c_str(), stdout);
  if (!rep.ok()) {
    std::fputs("mlbm-verify: FAILED\n", stdout);
    return 2;
  }
  std::fputs("mlbm-verify: clean\n", stdout);
  return 0;
}

int main(int argc, char** argv) {
  return mlbm::guarded_main(argc, argv, bench_main);
}
