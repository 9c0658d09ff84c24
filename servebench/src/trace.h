// In-memory span recorder for the traced benchmark run, written out as
// Chrome trace-event JSON (chrome://tracing, Perfetto) when the run ends.
//
// Spans are recorded from the benchmark's own code around calls into the
// engine's public entry points; each carries the innermost open span as its
// parent, so a layer's self time is its duration minus its children's. A
// request's lifecycle (submit, admission, tokens, finish) is one async
// track keyed by the request's index. Untraced runs pass a null Trace*,
// which every call site checks: one branch each.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  Trace();

  // Open a complete ("X") span; its parent is the innermost open span.
  // Returns a handle for end().
  int begin(const char* name, const char* cat);
  // Close span `id` (must be the innermost open span) and attach args.
  void end(int id, std::vector<std::pair<std::string, double>> args = {});

  // Request lifecycle on the async track `req`: phase 'b' opens it, 'n'
  // marks a point on it, 'e' closes it. `at` is the event's time.
  void request_event(char phase, const char* name, int req, Clock::time_point at,
                     std::vector<std::pair<std::string, std::string>> args = {});

  size_t size() const { return events_.size(); }
  bool write_chrome_json(const std::string& path,
                         const std::vector<std::pair<std::string, std::string>>&
                             metadata) const;

 private:
  struct Event {
    std::string name;
    const char* cat = "";
    char phase = 'X';
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int req = -1;
    std::vector<std::pair<std::string, std::string>> args;
  };
  int64_t ns_since_origin(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Event> events_;
  std::vector<int> open_;  // stack of open span indices
};

// RAII span: opens on construction, closes on destruction. Null-safe.
class Span {
 public:
  Span(Trace* trace, const char* name, const char* cat)
      : trace_(trace), id_(trace_ ? trace_->begin(name, cat) : -1) {}
  ~Span() {
    if (trace_) trace_->end(id_, std::move(args_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void arg(const std::string& key, double value) {
    if (trace_) args_.emplace_back(key, value);
  }

 private:
  Trace* trace_;
  int id_;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace servebench
