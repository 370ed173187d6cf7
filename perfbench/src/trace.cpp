#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int Tracer::open(std::string name, std::string engine, long step,
                 double start) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), std::move(engine), start, start, parent,
                    step});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id, double end) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(id)].end = end;
  open_.pop_back();
}

void Tracer::add(std::string name, std::string engine, long step,
                 double start, double end) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), std::move(engine), start, end, parent,
                    step});
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration();
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration();
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  // One thread id per engine keeps each engine's spans on its own track.
  std::map<std::string, int> tid;
  for (const Span& s : spans_) tid.emplace(s.engine, 0);
  int next = 0;
  for (auto& [_, id] : tid) id = next++;

  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (const auto& [engine, id] : tid) {
    f << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
      << id << ", \"args\": {\"name\": \""
      << (engine.empty() ? "benchmark" : engine) << "\"}},\n";
  }
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << tid.at(s.engine)
      << ", \"name\": \"" << s.name << "\"";
    std::snprintf(buf, sizeof buf, "%.3f", s.start * 1e6);
    f << ", \"ts\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f", s.duration() * 1e6);
    f << ", \"dur\": " << buf << ", \"args\": {\"id\": " << i
      << ", \"parent\": " << s.parent << ", \"step\": " << s.step << "}}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return f.good();
}

}  // namespace perfbench
