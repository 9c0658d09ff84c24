// Quantized transformer executor — the CPU analogue of the QServe runtime
// (Fig. 11): all GEMMs take quantized inputs and produce FP16 outputs,
// activation quantization is fused into RMSNorm / SwiGLU, a separate quant
// node precedes o_proj, and the KV cache is paged + quantized per head.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "kernels/attention.h"
#include "kernels/weight_layout.h"
#include "kvcache/paged_kv_cache.h"
#include "model/weights.h"
#include "quant/types.h"
#include "quant/w4a16.h"
#include "tensor/tensor.h"

namespace qserve {

// Tensor-parallel execution config: the model's shard count, its only
// source. One shard always works; INT8-path weight schemes (W8A8 and the
// two W4A8 variants) shard up to n_kv_heads ways. Any other request —
// n_shards < 1, more shards than KV heads, or sharding a scheme without
// exact INT32 accumulators — throws CheckError at construction.
struct TpConfig {
  int n_shards = 1;
};

// The weight scheme also fixes the activation format: FP16 activations for
// kFp16 / kW4A16Group, INT8 per-token for the W8/W4 A8 schemes, INT4
// per-token for kW4A4Group (QuantizedLinear::quantize).
enum class WeightScheme {
  kFp16,
  kW8PerChannel,          // SmoothQuant / TRT-LLM W8A8
  kW4PerChannel,          // QServe per-channel W4A8
  kW4PerGroupProgressive, // QServe per-group W4A8 (QoQ)
  kW4A16Group,            // AWQ/GPTQ-style weight-only
  kW4A4Group,             // Atom/QuaRot-style
};

struct QuantSchemeConfig {
  WeightScheme weights = WeightScheme::kW4PerGroupProgressive;
  KvPrecision kv = KvPrecision::kInt4;
  int group = 128;
  int level1_range = 119;  // kProtectiveRange; 127 = naive (overflow repro)
  bool fp16_attention = true;  // QServe's FP16 attention arithmetic
  // KV pool size (pages of 16 tokens per layer-sequence); shrink to create
  // real memory pressure in serving tests.
  int64_t kv_max_pages = 1 << 20;

  static QuantSchemeConfig qserve_w4a8kv4_g128();
  static QuantSchemeConfig qserve_w4a8kv4_per_channel();
  static QuantSchemeConfig trt_w8a8();
  static QuantSchemeConfig trt_w4a16();
  static QuantSchemeConfig atom_w4a4();
  static QuantSchemeConfig fp16();
};

// A projection's input activations, quantized once for every GEMM that reads
// them — Fig. 11 fuses the quantizer into the producing node (RMSNorm,
// SwiGLU, the quant node before o_proj), so Q/K/V share one quantization and
// gate/up another. FP16 and W4A16 consume `fp`; the INT8-path schemes
// (per-token INT8) and W4A4 (per-token INT4) consume `q`.
struct LinearInput {
  Tensor fp;
  QuantizedActs q;
};

// One quantized projection, split into one or more shards; holds exactly the
// representation `scheme` needs. INT8-path schemes (W8A8, per-channel and
// per-group W4A8) keep one packed slice per shard: the full matrix is
// quantized once, then each shard's rectangle is packed via
// pack_gemm_b_slice (ISA-interleaved tiles, per-group weights pre-dequantized
// to level-1 codes, epilogue constants inline) and the quantization-time
// struct is dropped, so the weight is held exactly once at any shard count.
// Column-parallel layers slice output rows, row-parallel layers slice input
// columns; no slices means one shard over the full matrix. The other schemes
// (FP16, W4A16, W4A4) are always a single full-matrix shard; FP16 keeps its
// weight as binary16 rows only, which gemm_fp16 reads as vocab panels.
class QuantizedLinear {
 public:
  QuantizedLinear() = default;
  QuantizedLinear(const Tensor& w, const QuantSchemeConfig& cfg,
                  std::vector<PackSlice> slices = {});

  // The activation quantizer this projection's scheme consumes.
  LinearInput quantize(Tensor x) const;
  // Shard s's FP16 output columns (its row slice of the weight). With one
  // shard this is the whole projection, including the fused GEMM epilogue.
  Tensor apply(const LinearInput& x, int s = 0) const;
  // Row-parallel shard GEMM (INT8-path schemes): shard s's exact INT32
  // partial accumulators over its k-slice of the centrally quantized codes,
  // which keep their FULL-row per-token scale/token_sum. Integer partials
  // from disjoint k-slices sum exactly, so the all-reduced total fed to
  // gemm_blocked_epilogue is bitwise the one-shard accumulator.
  I32Tensor acc_shard(const QuantizedActs& x, int s) const;
  // gemm_blocked's epilogue over all-reduced partials `acc` of `x`. Row-
  // parallel slices span every output row, so every shard pack carries the
  // identical full-row epilogue constants; shard 0's are used.
  Tensor epilogue(const I32Tensor& acc, const QuantizedActs& x) const;

 private:
  WeightScheme scheme_ = WeightScheme::kFp16;
  U16Tensor fp16_;  // kFp16: binary16 rows, the only copy of the weight
  W4A16PerGroup w4a16_;
  W4A4PerGroup w4a4_;
  std::vector<PackSlice> slices_;
  std::vector<PackedGemmB> packs_;  // INT8-path schemes: one per slice
};

// One sequence's slice of a batched engine step: `tokens` are appended to
// sequence `seq` starting at absolute position `pos0` (which must equal
// seq_pos(seq)). A single-token chunk of an already-prefilled sequence is a
// decode row; a multi-token chunk is a prefill chunk or a speculative verify
// span. `logit_rows` declares how many of the chunk's TRAILING rows need LM-
// head logits: 1 (default) is the classic chunk-last sampling row, 0 skips
// the LM head entirely (a mid-prompt prefill chunk samples nothing), and
// tokens.size() asks for logits at every position — what a verify span needs
// to score all k+1 speculative candidates in one forward.
struct StepSeqChunk {
  int seq = -1;
  std::vector<int> tokens;
  int pos0 = 0;
  int logit_rows = 1;
};

// The model-level lowering of a scheduler StepPlan: every decode token and
// every prefill-chunk token from all scheduled requests, stacked row-wise.
// Each row is tagged with its (seq, pos) through the chunk structure; rows of
// one chunk are contiguous and in position order.
struct BatchedStep {
  std::vector<StepSeqChunk> chunks;  // distinct sequences, one chunk each
  int64_t total_rows() const {
    int64_t n = 0;
    for (const auto& c : chunks) n += static_cast<int64_t>(c.tokens.size());
    return n;
  }
  int64_t total_logit_rows() const {
    int64_t n = 0;
    for (const auto& c : chunks) n += c.logit_rows;
    return n;
  }
};

class QuantizedModel {
 public:
  // `weights` are the (possibly QoQ-transformed) FP32 weights to quantize;
  // `tp` sets the tensor-parallel shard count (one shard by default).
  QuantizedModel(const ModelWeights& weights, const QuantSchemeConfig& cfg,
                 const TpConfig& tp = {});

  // Stateless full-sequence forward: logits of every position
  // ([|tokens|, vocab]) through a scratch KV sequence, released on return
  // and on a throw.
  Tensor forward(const std::vector<int>& tokens);

  // Streaming interface for the serving engine. Every call taking a `seq`
  // handle throws CheckError unless it names a live sequence.
  int begin_sequence();                       // KV sequence handle
  void end_sequence(int seq);
  // Single-chunk wrappers over forward_step(), validated the same way.
  // prefill() appends `tokens` at the sequence's current position, so a
  // prompt fed in several calls is bitwise identical to one monolithic
  // prefill: every GEMM row, norm, and attention score is per position and
  // the causal mask offsets against the cached prefix. decode_step() appends
  // one token. Each returns the logits of the last appended position
  // ([vocab]).
  Tensor prefill(int seq, const std::vector<int>& tokens);
  Tensor decode_step(int seq, int token);
  // The model's one forward: run every chunk's rows through the block stack
  // in ONE stacked forward — a single GEMM call per projection, layer and
  // shard covers all decode tokens and prefill-chunk tokens of the step
  // (per-token activation quantization is row-wise, so stacking changes no
  // numerics). Only KV appends and attention fan out per sequence against
  // the paged KV cache. Returns
  // [total_logit_rows(), vocab] logits: chunks contribute their trailing
  // `logit_rows` positions, in chunk order, positions ascending within a
  // chunk (logit_rows = 0 chunks contribute nothing and skip the LM head).
  // Each row of the result, and every KV entry written, is bitwise identical
  // to executing the chunks one token at a time via prefill() /
  // decode_step(), at any thread count and ISA — a multi-row chunk's row at
  // position p sees exactly the cached prefix [0, p) through the causal
  // mask, which is what makes a k+1-row speculative verify span score every
  // candidate with the same bits as k+1 sequential decode steps.
  Tensor forward_step(const BatchedStep& step);
  // Roll `seq` back to `new_len` tokens across every layer's KV sequence and
  // rewind the next append position — the speculative-decoding rejection
  // path. Freed pages return to the pool; stale SeqViews trip QS_DCHECK (see
  // PagedKvCache::truncate_sequence). A subsequent append of the same tokens
  // reconstructs bitwise-identical state.
  void truncate_sequence(int seq, int64_t new_len);
  // Fork: a new logical sequence aliasing src's first `upto_len` tokens
  // across every layer's KV sequence — page refcounts go up, nothing is
  // copied (copy-on-write happens lazily in the cache when a writer touches
  // a shared page; see PagedKvCache::fork_sequence). The fork's next append
  // position is upto_len. This is the prefix-cache / parallel-sampling
  // primitive: requests sharing a prompt prefix share its KV pages.
  int fork_sequence(int src, int64_t upto_len);
  // Install a sliding window with attention sinks on `seq` across every
  // layer's KV sequence (PagedKvCache::set_window). From then on every
  // attention row of the sequence — decode row, verify span or prefill chunk,
  // all through the paged executor — walks only the sink runs plus its own
  // trailing window, and the cache recycles the oldest non-sink page in place
  // once the ring fills, so a 32k generation holds a constant page
  // footprint. Must be called before the sequence grows past
  // sinks + window + slack; `slack_tokens` must cover both the deepest
  // truncate_sequence rollback and the largest single append span (the
  // engine passes max(prefill chunk, speculative span)). window == context
  // or larger never recycles and is bitwise identical to full attention.
  void set_sequence_window(int seq, int64_t sink_tokens, int64_t window_tokens,
                           int64_t slack_tokens);
  // Tokens appended to `seq` so far (next position to prefill/decode).
  int64_t seq_pos(int seq) const;
  // Page-generation snapshot across every layer's KV sequence, concatenated
  // in layer order — the prefix index's validity stamp for a cached entry.
  std::vector<uint32_t> sequence_page_generations(int seq) const;
  // Currently-shared pages across every layer's KV sequence (observability).
  int64_t sequence_shared_pages(int seq) const;

  const ModelConfig& config() const { return cfg_; }
  const QuantSchemeConfig& scheme() const { return qcfg_; }
  PagedKvCache& kv_cache() { return *kv_; }

  // Observability for the attention executor (EngineStats reads these):
  // cumulative wall time spent in the per-layer attention sections of the
  // block stack (KV append + QK/softmax/SV).
  double attention_seconds() const { return attention_seconds_; }
  // How many batched_fused_decode_attention dispatches ran: one per shard
  // per layer of every forward — each shard dispatches its own head range
  // over all of the step's spans, never a per-sequence fan-out.
  int64_t batched_attention_calls() const { return batched_attention_calls_; }

  // Tensor-parallel observability. tp_shards() is TpConfig::n_shards, the
  // shard count S the executor runs every layer at; S = 1 is its degenerate
  // case, not a separate path. tp_comm_seconds() is the cumulative wall time
  // spent at the reduction boundaries — the concat of column-parallel output
  // slices and the all-reduce + epilogue of row-parallel partials — i.e. the
  // time a multi-device deployment would spend in collectives.
  // tp_shard_max/mean_seconds() accumulate, per shard region, the slowest
  // shard's wall time and the mean shard wall time; their ratio is the
  // shard-imbalance factor EngineStats reports. At S = 1 there are no
  // boundaries and no shards to balance, so all three stay 0.
  int tp_shards() const { return tp_; }
  double tp_comm_seconds() const { return tp_comm_seconds_; }
  double tp_shard_max_seconds() const { return tp_shard_max_seconds_; }
  double tp_shard_mean_seconds() const { return tp_shard_mean_seconds_; }

 private:
  struct QLayer {
    QuantizedLinear wq, wk, wv, wo, w_gate, w_up, w_down;
    Tensor ln_attn, ln_ffn;
  };

  // Row range [row0, row0 + n) of a stacked activation matrix belonging to
  // one sequence — the executor's internal row tag.
  struct SeqSpan {
    int seq;
    int64_t row0;
    int64_t n;
  };

  struct SeqState;  // defined below with the data members
  // The one layer loop: `x` stacks every span's embedded rows; positions[r]
  // is row r's absolute position. Norms, activation quantization and the
  // concat / all-reduce boundaries run on the whole stack; each layer's five
  // shard regions — QKV + RoPE, KV write + attention, o_proj partials,
  // gate/up + SwiGLU, down partials — run one body per shard, where KV
  // append and attention fan out per span. At S = 1 the single region body
  // runs inline on the caller's full pool, concats move, and row-parallel
  // projections run the fused GEMM epilogue.
  Tensor run_layers(const std::vector<SeqSpan>& spans, Tensor x,
                    const std::vector<int>& positions);
  // Shard s's attention region of layer `li`: writes its KV head range of
  // every span's rows at the reserved positions pos0[i], then attends its
  // query heads over every span in one batched_fused_decode_attention
  // dispatch. Returns [rows, shard q width].
  Tensor shard_attention(size_t li, int s, const std::vector<SeqSpan>& spans,
                         const std::vector<int64_t>& pos0, const Tensor& q,
                         const Tensor& k, const Tensor& v);
  // Run fn(s) for every shard (run_sharded); multi-shard regions fold their
  // per-shard wall times into the imbalance accumulators.
  void run_shards(const std::function<void(int)>& fn);
  // Column-parallel boundary: the shards' column slices, in shard order,
  // joined into full rows. One shard's slice already is the full matrix and
  // moves; more are copied, timed as comm.
  Tensor concat_shards(std::vector<Tensor>& parts);
  // Row-parallel projection of `x`: one shard runs the full pack with the
  // fused GEMM epilogue; S shards accumulate their k-slices' INT32 partials
  // and the fixed-tree all-reduce (timed as comm) feeds the same epilogue.
  Tensor row_parallel(const QuantizedLinear& w, const LinearInput& x);
  Tensor logits_from_hidden(const Tensor& h) const;
  // The state of live sequence `seq`; CheckError for any other handle.
  const SeqState& live_seq(int seq) const;
  SeqState& live_seq(int seq);
  // Install a full-attention sequence over the given per-layer cache
  // sequences, next append at `next_pos`, in the first free slot (a dead
  // one, else a new one); returns its handle.
  int add_sequence(std::vector<int> layer_seqs, int64_t next_pos);

  // One shard's slice of every per-layer dimension; at S = 1 the one shard
  // covers every dimension whole. KV head ranges are contiguous and
  // near-even (feasibility caps shards at n_kv_heads); query head ranges are
  // the KV range times the GQA group, so a KV head's whole query group lives
  // on one shard; the FFN partition slices ffn_dim with granularity 1; the
  // o_proj/down k-slices are the matching near-even input splits
  // (head-layout-unaligned bounds are fine — pack_gemm_b_slice looks
  // metadata up at absolute indices).
  struct TpShard {
    int kh0 = 0, kh1 = 0;      // KV head range [kh0, kh1)
    int qh0 = 0, qh1 = 0;      // query head range
    int64_t f0 = 0, f1 = 0;    // ffn_dim range (gate/up rows, down k-slice)
    int64_t ko0 = 0, ko1 = 0;  // o_proj k-slice of n_heads * head_dim
  };

  ModelConfig cfg_;
  QuantSchemeConfig qcfg_;
  // Built and validated once at construction (INT4 KV implies even
  // head_dim); every forward reuses it instead of re-deriving per call.
  AttentionConfig attn_cfg_;
  int tp_ = 1;
  std::vector<TpShard> tp_plan_;
  // Atomic, so the model keeps the KV cache's distinct-sequence contract:
  // forwards of distinct sequences may run concurrently on one model. The
  // serving engine issues one batched forward per step, and within a forward
  // these are written on the calling thread, outside the shard regions.
  std::atomic<double> attention_seconds_{0.0};
  std::atomic<double> tp_comm_seconds_{0.0};
  std::atomic<double> tp_shard_max_seconds_{0.0};
  std::atomic<double> tp_shard_mean_seconds_{0.0};
  std::atomic<int64_t> batched_attention_calls_{0};
  Tensor embedding_;
  std::vector<QLayer> layers_;
  Tensor ln_final_;
  QuantizedLinear lm_head_;
  std::unique_ptr<PagedKvCache> kv_;
  // Each logical sequence owns one cache sequence per layer.
  struct SeqState {
    std::vector<int> layer_seqs;
    int64_t next_pos = 0;
    bool live = false;
  };
  std::vector<SeqState> seqs_;
};

}  // namespace qserve
