// Set-up, the timed traffic phase and the correctness gate of the serving
// benchmark. All traffic goes through the public ServingEngine::submit /
// step API from this one thread; the clients submit between step() calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serving/engine.h"
#include "trace.h"
#include "workload.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The benchmark model: hidden 512, 4 layers, 8 query / 2 KV heads of dim 64,
// ffn 1536, vocab 2048. `toy` shrinks it for self-tests.
qserve::ModelConfig bench_model_config(bool toy);

// Everything built before timing starts.
struct Setup {
  qserve::ModelWeights weights;
  std::unique_ptr<qserve::QuantizedModel> model;
  std::unique_ptr<qserve::ServingEngine> engine;
};

// Synthesize and quantize the model, construct the engine (prefix caching
// on, KV pool per the workload) and serve one warm-up request.
std::unique_ptr<Setup> build_setup(const qserve::ModelConfig& cfg,
                                   const WorkloadSpec& spec, int length_div);

// Submit each shared system prompt once and drain, so the timed traffic
// meets a warm prefix cache. Returns the seconds it took.
double prime_prefix_cache(qserve::ServingEngine& engine, const Traffic& traffic);

struct RequestRecord {
  int id = -1;  // engine request id, -1 until submitted
  Clock::time_point submit, admit, finish;
  std::vector<Clock::time_point> tokens;
  bool admitted = false;
  bool finished = false;
  qserve::FinishReason reason = qserve::FinishReason::kNone;
};

struct StepSample {
  double wall_ms = 0;
  int64_t decode_rows = 0;  // decode tokens produced by the step
  int64_t pages = 0;        // KV pages in use after the step
  double fill = 0;          // live KV tokens * layers / (pages * page size)
};

struct RunResult {
  std::vector<RequestRecord> requests;  // in Traffic::requests order
  std::vector<StepSample> steps;
  std::vector<double> decode_contexts;  // context of every decoding request,
                                        // sampled after every step
  qserve::EngineStats before, after;    // engine counters around the phase
  Clock::time_point start, end;         // phase start, last finish
  int64_t first_admissions = 0;
};

// The timed phase: every client keeps one request in flight, submitting
// between step() calls. Returns when every request has finished.
RunResult run_traffic(qserve::ServingEngine& engine,
                      qserve::QuantizedModel& model, const WorkloadSpec& spec,
                      const Traffic& traffic, Trace* trace);

// FNV-1a digest of every request's generated stream, in request order.
uint64_t stream_digest(const qserve::ServingEngine& engine,
                       const RunResult& run);

// Correctness gate: clear the prefix cache and require an empty page pool,
// then replay a seeded draw of `count` requests alone on a fresh engine and
// require bitwise-identical streams. Returns false with a message on any
// mismatch.
bool run_gate(qserve::QuantizedModel& model, qserve::ServingEngine& engine,
              const Traffic& traffic, const RunResult& run, uint64_t seed,
              int count, std::string* message);

}  // namespace servebench
