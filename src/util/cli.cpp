#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "util/error.hpp"

namespace mlbm {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` form: consume the next token as the value unless it is
    // itself an option, in which case `key` is a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "";
    }
  }
}

bool Cli::has(const std::string& key) const {
  queried_.insert(key);
  return kv_.count(key) > 0;
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  queried_.insert(key);
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

int Cli::get_int(const std::string& key, int fallback) const {
  queried_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return fallback;
  // Strict parse: the WHOLE value must be one integer. std::stoi would
  // silently accept "12abc" as 12 and throw untyped std::invalid_argument on
  // "abc"; both become a ConfigError that names the offending option.
  std::size_t pos = 0;
  int v = 0;
  try {
    v = std::stoi(it->second, &pos);
  } catch (const std::exception&) {
    throw ConfigError("Cli: --" + key + " expects an integer, got '" +
                      it->second + "'");
  }
  if (pos != it->second.size()) {
    throw ConfigError("Cli: --" + key + " has trailing garbage: '" +
                      it->second + "'");
  }
  return v;
}

int Cli::get_int(const std::string& key, int fallback, int min) const {
  const int v = get_int(key, fallback);
  if (v < min) {
    throw ConfigError("Cli: --" + key + " must be >= " + std::to_string(min) +
                      ", got " + std::to_string(v));
  }
  return v;
}

double Cli::get_double(const std::string& key, double fallback) const {
  queried_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return fallback;
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(it->second, &pos);
  } catch (const std::exception&) {
    throw ConfigError("Cli: --" + key + " expects a number, got '" +
                      it->second + "'");
  }
  if (pos != it->second.size()) {
    throw ConfigError("Cli: --" + key + " has trailing garbage: '" +
                      it->second + "'");
  }
  return v;
}

double Cli::get_double(const std::string& key, double fallback,
                       double above) const {
  const double v = get_double(key, fallback);
  if (!(v > above)) {
    throw ConfigError("Cli: --" + key + " must be > " + std::to_string(above) +
                      ", got " + std::to_string(v));
  }
  return v;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  queried_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "yes" || it->second == "on") {
    return true;
  }
  if (it->second == "0" || it->second == "false" || it->second == "no" ||
      it->second == "off") {
    return false;
  }
  throw ConfigError("Cli: bad boolean for --" + key + ": " + it->second);
}

std::vector<std::string> Cli::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, _] : kv_) out.push_back(k);
  return out;
}

void Cli::reject_unknown(const std::vector<std::string>& extra) const {
  std::set<std::string> valid = queried_;
  valid.insert(extra.begin(), extra.end());
  std::string unknown;
  for (const auto& [k, _] : kv_) {
    if (valid.count(k) == 0) {
      unknown += (unknown.empty() ? "--" : ", --") + k;
    }
  }
  if (unknown.empty()) return;
  std::string options;
  for (const auto& k : valid) {
    options += (options.empty() ? "--" : ", --") + k;
  }
  throw ConfigError("Cli: unknown option(s) " + unknown +
                    (options.empty() ? std::string()
                                     : "; valid option(s): " + options));
}

int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", argc > 0 ? argv[0] : "mlbm",
                 e.what());
    return 2;
  }
}

}  // namespace mlbm
