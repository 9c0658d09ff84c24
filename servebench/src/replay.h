// Per-layer replays of the traced run: after the timed phase, each layer's
// public entry points are called again in isolation at shapes taken from
// that run (median decode rows, median contexts), and timed per call.
// Operation counts and bytes are computed from tensor shapes and the stored
// element types, not measured.
#pragma once

#include <cstdint>

#include "model/quantized_model.h"
#include "trace.h"

namespace servebench {

struct ReplayShapes {
  int decode_rows = 1;        // median decode rows per step
  int64_t decode_context = 16;  // median context of a decoding request
  int64_t prefill_prefix = 16;  // median prompt length
  int threads = 1;            // the pinned thread count
};

struct ReplayResult {
  double fwd_decode_ms = 0;   // forward_step of the decode rows
  double fwd_prefill_ms = 0;  // forward_step of one 128-token chunk
  double unattributed_frac = 0;
  double append_us_per_tok = 0;
  double attn_decode_gbps = 0;
  double gemm_decode_gops = 0;
  double gemm_decode_gbps = 0;
  double gemm_prefill_gops = 0;
  double attn_prefill_gops = 0;
  double norm_quant_us = 0;
  // Time on 1 thread over time on 2 threads: what the second thread buys.
  double fwd_decode_scaling = 0;
  double gemm_decode_scaling = 0;
};

// Uses the (idle, drained) model's KV pool for the forward replays and
// frees every sequence it creates.
ReplayResult run_replays(qserve::QuantizedModel& model,
                         const qserve::ModelWeights& weights,
                         const ReplayShapes& shapes, Trace* trace);

}  // namespace servebench
