#include "meter.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over from the
  // parent across fork+exec, so a launcher's own footprint would leak in.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void Meter::begin_rep(std::uint64_t rep, bool tracing) {
  rep_ = rep;
  tracing_ = tracing;
  timing_ = RepTiming{};
  stack_.clear();
}

RepTiming Meter::end_rep() { return std::move(timing_); }

std::size_t Meter::open(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? 0 : static_cast<std::uint32_t>(stack_.back() + 1);
  s.op = op;
  s.start_s = wall_now();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Meter::close(std::size_t idx) {
  spans_[idx].end_s = wall_now();
  stack_.pop_back();
}

std::vector<Meter::SelfTime> Meter::self_times(std::size_t from, std::size_t to) const {
  std::vector<double> child_s(to, 0.0);
  for (std::size_t i = from; i < to; ++i) {
    const Span& s = spans_[i];
    if (s.parent > from) child_s[s.parent - 1] += s.end_s - s.start_s;
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = from; i < to; ++i) {
    const Span& s = spans_[i];
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += s.end_s - s.start_s;
    t.self_s += s.end_s - s.start_s - child_s[i];
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool Meter::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f, "{\"self_times\": [");
  const auto selfs = self_times(0, spans_.size());
  for (std::size_t i = 0; i < selfs.size(); ++i) {
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"count\": %llu, \"total_s\": %.9f, \"self_s\": %.9f}",
                 i == 0 ? "" : ",", selfs[i].name.c_str(),
                 static_cast<unsigned long long>(selfs[i].count), selfs[i].total_s,
                 selfs[i].self_s);
  }
  std::fprintf(f, "],\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"parent\": %u, \"op\": %llu, \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",", i + 1, s.parent, static_cast<unsigned long long>(s.op),
                 s.name, (s.start_s - t0) * 1e6, (s.end_s - t0) * 1e6);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
