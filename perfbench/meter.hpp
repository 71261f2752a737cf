// Wall-clock measurement taken from the benchmark's side of each layer call.
//
// A Meter times one repetition of a workload: its set-up, its timed phase,
// every fixed slice of simulated time the drive loop advances, and every
// control-plane send. With tracing on it also records a span per call, each
// with a name, a parent, an operation id and steady_clock start/end, kept in
// memory and written out when the benchmark ends. Nothing here reaches into
// src/: the spans sit around public calls only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock seconds.
double wall_now();
/// Process user+sys seconds (all threads), from getrusage.
double cpu_now();
/// Peak resident set of the process (VmHWM), MB.
double peak_rss_mb();

struct Span {
  const char* name = "";
  std::uint32_t parent = 0;  // index + 1 into the span log; 0 = root
  /// Spans of one operation share this id: repetition << 32 for the
  /// repetition's phases and slices, plus (send index + 1) for a send.
  std::uint64_t op = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Timing of one repetition.
struct RepTiming {
  double setup_s = 0.0;
  double wall_s = 0.0;  // timed phase
  double cpu_s = 0.0;   // timed phase
  std::vector<double> slice_ms;
  std::vector<double> send_us;  // every control-plane send call
  double run_s = 0.0;           // inside the drive loop's run calls
  double send_s_total = 0.0;
};

class Meter {
 public:
  /// Start a repetition; tracing records spans into the shared log.
  void begin_rep(std::uint64_t rep, bool tracing);
  [[nodiscard]] RepTiming end_rep();

  template <typename F>
  void setup(F&& fn) {
    const double t0 = wall_now();
    span("setup", fn);
    timing_.setup_s = wall_now() - t0;
  }

  /// The timed phase: wall and CPU are taken around it.
  template <typename F>
  void timed(F&& fn) {
    const double c0 = cpu_now();
    const double t0 = wall_now();
    span("timed", fn);
    timing_.wall_s = wall_now() - t0;
    timing_.cpu_s = cpu_now() - c0;
  }

  /// One drive-loop call that advances a fixed slice of simulated time.
  template <typename F>
  void slice(const char* name, F&& fn) {
    const double t0 = wall_now();
    span(name, fn);
    const double dt = wall_now() - t0;
    timing_.run_s += dt;
    timing_.slice_ms.push_back(dt * 1e3);
  }

  /// One control-plane send call, timed alone (its transfer runs later in
  /// simulated time and is not part of it). `index` numbers the sends of
  /// the repetition.
  template <typename F>
  void send(std::uint64_t index, F&& fn) {
    const double t0 = wall_now();
    span_op("send", (rep_ << 32) | (index + 1), fn);
    const double dt = wall_now() - t0;
    timing_.send_us.push_back(dt * 1e6);
    timing_.send_s_total += dt;
  }

  /// A named span, part of the repetition's own operation, around any
  /// other layer call (recorded only when tracing).
  template <typename F>
  void span(const char* name, F&& fn) {
    span_op(name, rep_ << 32, fn);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Per span name over spans [from, to): total duration and total self
  /// time (duration minus the part covered by its child spans), seconds.
  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times(std::size_t from, std::size_t to) const;
  /// Write the span log and its self-time table as JSON.
  bool write(const std::string& path) const;

 private:
  template <typename F>
  void span_op(const char* name, std::uint64_t op, F&& fn) {
    if (!tracing_) {
      fn();
      return;
    }
    const std::size_t idx = open(name, op);
    fn();
    close(idx);
  }
  std::size_t open(const char* name, std::uint64_t op);
  void close(std::size_t idx);

  bool tracing_ = false;
  std::uint64_t rep_ = 0;
  RepTiming timing_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // open span indices
};

}  // namespace perfbench
