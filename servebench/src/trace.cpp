#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace servebench {

namespace {

void write_escaped(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

// Nanoseconds printed as microseconds with all three decimals, so printed
// span ends compare exactly like the recorded ones.
void write_us(std::FILE* f, int64_t ns) {
  std::fprintf(f, "%" PRId64 ".%03d", ns / 1000, static_cast<int>(ns % 1000));
}

}  // namespace

Trace::Trace() : origin_(Clock::now()) {}

int64_t Trace::ns_since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Trace::begin(const char* name, const char* cat) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.start_ns = ns_since_origin(Clock::now());
  e.parent = open_.empty() ? -1 : open_.back();
  events_.push_back(std::move(e));
  const int id = static_cast<int>(events_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Trace::end(int id, std::vector<std::pair<std::string, double>> args) {
  Event& e = events_[static_cast<size_t>(id)];
  e.end_ns = ns_since_origin(Clock::now());
  for (auto& [k, v] : args) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    e.args.emplace_back(k, buf);
  }
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Trace::request_event(
    char phase, const char* name, int req, Clock::time_point at,
    std::vector<std::pair<std::string, std::string>> args) {
  Event e;
  e.name = name;
  e.cat = "request";
  e.phase = phase;
  e.start_ns = e.end_ns = ns_since_origin(at);
  e.req = req;
  for (auto& [k, v] : args) e.args.emplace_back(k, "\"" + v + "\"");
  events_.push_back(std::move(e));
}

bool Trace::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "servebench: cannot write trace %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {");
  for (size_t i = 0; i < metadata.size(); ++i) {
    if (i) std::fprintf(f, ", ");
    write_escaped(f, metadata[i].first);
    std::fprintf(f, ": ");
    write_escaped(f, metadata[i].second);
  }
  std::fprintf(f, "},\n\"traceEvents\": [\n");
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(f, "{\"name\": ");
    write_escaped(f, e.name);
    std::fprintf(f, ", \"cat\": \"%s\", \"ph\": \"%c\", \"pid\": 1, ", e.cat,
                 e.phase);
    std::fprintf(f, "\"tid\": %d, \"ts\": ", e.phase == 'X' ? 1 : 2);
    write_us(f, e.start_ns);
    if (e.phase == 'X') {
      std::fprintf(f, ", \"dur\": ");
      write_us(f, e.end_ns - e.start_ns);
    } else {
      std::fprintf(f, ", \"id\": %d", e.req);
    }
    std::fprintf(f, ", \"args\": {\"span\": %zu, \"parent\": %d", i, e.parent);
    for (const auto& [k, v] : e.args) {
      std::fprintf(f, ", ");
      write_escaped(f, k);
      std::fprintf(f, ": %s", v.c_str());
    }
    std::fprintf(f, "}}%s\n", i + 1 < events_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "servebench: error writing %s\n", path.c_str());
  return ok;
}

}  // namespace servebench
