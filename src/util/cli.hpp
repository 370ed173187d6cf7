// Minimal command line parser for examples and benchmark harnesses.
//
// Supports `--key value` and `--key=value` forms plus boolean flags
// (`--flag`). Every key queried through has()/get*() is recorded as a valid
// option; after the caller has declared its full option set that way,
// reject_unknown() turns any leftover `--typo` into a typed ConfigError that
// lists the valid options.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace mlbm {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True when `--key` was passed (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// Strict full-string parse: `--steps 12abc`, `--steps abc` and
  /// out-of-int-range values all raise a ConfigError naming the option
  /// (nothing is silently truncated the way std::stoi would).
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  /// As get_int, additionally requiring value >= min (typed error instead of
  /// a nonsense run from `--steps 0` or `--slabs -3`).
  [[nodiscard]] int get_int(const std::string& key, int fallback,
                            int min) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// As get_double with a lower bound: value must be strictly greater than
  /// `above` (e.g. rates and factors that must be positive).
  [[nodiscard]] double get_double(const std::string& key, double fallback,
                                  double above) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non `--`) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// All `--key`s seen, for usage validation.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Throws ConfigError if any parsed `--key` was never queried through
  /// has()/get*(): call it after the last option lookup, so the queried set
  /// IS the valid option set and the message can list it. `extra` names
  /// options that are valid but conditionally queried.
  void reject_unknown(const std::vector<std::string>& extra = {}) const;

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> queried_;
};

/// Top-level guard for a program's main(): returns `body(argc, argv)`, and
/// turns an exception escaping it — a bad flag's ConfigError, or any other
/// error — into one `prog: error: ...` line on stderr and exit code 2
/// instead of std::terminate.
int guarded_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace mlbm
