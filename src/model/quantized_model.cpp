#include "model/quantized_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/math_util.h"
#include "common/parallel.h"
#include "kernels/attention.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/gemm.h"
#include "kernels/ops.h"
#include "kvcache/fused_attention.h"
#include "quant/quantize.h"

namespace qserve {

namespace {

// Tensor parallelism is restricted to the schemes whose GEMMs accumulate in
// exact INT32 — that is what makes the row-parallel all-reduce bitwise
// (integer partials from disjoint k-slices sum exactly in any order).
bool int8_path_scheme(WeightScheme w) {
  return w == WeightScheme::kW8PerChannel ||
         w == WeightScheme::kW4PerChannel ||
         w == WeightScheme::kW4PerGroupProgressive;
}

int checked_tp_shards(const ModelConfig& cfg, const QuantSchemeConfig& qcfg,
                      const TpConfig& tp) {
  QS_CHECK_MSG(tp.n_shards >= 1, "TpConfig.n_shards must be >= 1");
  if (tp.n_shards > 1) {
    QS_CHECK_MSG(int8_path_scheme(qcfg.weights),
                 "tensor parallelism requires an INT8-path weight scheme "
                 "(W8A8 or W4A8)");
    QS_CHECK_MSG(tp.n_shards <= cfg.n_kv_heads,
                 "TpConfig.n_shards "
                     << tp.n_shards << " exceeds n_kv_heads "
                     << cfg.n_kv_heads << " (GQA group "
                     << cfg.n_heads / cfg.n_kv_heads
                     << ": each shard must carry at least one KV head with "
                        "its whole query-head group)");
  }
  return tp.n_shards;
}

// Column slice [c0, c1) of centrally quantized activations: shard-local
// codes, shared FULL-row per-token scale and token sum — the row-parallel
// input contract (the quantizer must see every column of a row, so shards
// slice codes, never re-quantize).
QuantizedActs slice_acts_cols(const QuantizedActs& x, int64_t c0, int64_t c1) {
  QuantizedActs out;
  out.q = I8Tensor({x.m(), c1 - c0});
  for (int64_t t = 0; t < x.m(); ++t)
    std::copy(x.q.row(t) + c0, x.q.row(t) + c1, out.q.row(t));
  out.s = x.s;
  out.token_sum = x.token_sum;
  return out;
}

// All-reduce of per-shard INT32 partial accumulators over the fixed pairwise
// summation tree (math_util.h). Integer sums are exact in any order, but the
// fixed tree keeps the reduction's definition shard-count-explicit and
// matches the float helper the tests pin down.
I32Tensor reduce_partials(const std::vector<I32Tensor>& parts) {
  const int64_t s_count = static_cast<int64_t>(parts.size());
  QS_CHECK_GT(s_count, 0);
  I32Tensor out({parts[0].rows(), parts[0].cols()});
  for (const I32Tensor& p : parts) QS_CHECK(p.same_shape(out));
  parallel_for(0, out.numel(), 1024, [&](int64_t lo, int64_t hi) {
    thread_local std::vector<int32_t> vals;
    vals.resize(static_cast<size_t>(s_count));
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t s = 0; s < s_count; ++s)
        vals[static_cast<size_t>(s)] = parts[static_cast<size_t>(s)][i];
      out[i] = pairwise_tree_sum(vals.data(), s_count);
    }
  });
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void accumulate(std::atomic<double>& total, double v) {
  double cur = total.load(std::memory_order_relaxed);
  while (!total.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- scheme presets -----------------------------------------------------------

QuantSchemeConfig QuantSchemeConfig::qserve_w4a8kv4_g128() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kW4PerGroupProgressive;
  c.kv = KvPrecision::kInt4;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::qserve_w4a8kv4_per_channel() {
  QuantSchemeConfig c = qserve_w4a8kv4_g128();
  c.weights = WeightScheme::kW4PerChannel;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::trt_w8a8() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kW8PerChannel;
  c.kv = KvPrecision::kInt8;
  c.fp16_attention = false;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::trt_w4a16() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kW4A16Group;
  c.kv = KvPrecision::kFp16;
  c.fp16_attention = false;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::atom_w4a4() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kW4A4Group;
  c.kv = KvPrecision::kInt4;
  c.fp16_attention = false;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::fp16() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kFp16;
  c.kv = KvPrecision::kFp16;
  c.fp16_attention = false;
  return c;
}

// --- QuantizedLinear -----------------------------------------------------------

QuantizedLinear::QuantizedLinear(const Tensor& w, const QuantSchemeConfig& cfg,
                                 std::vector<PackSlice> slices)
    : scheme_(cfg.weights), slices_(std::move(slices)) {
  if (slices_.empty()) slices_.push_back({0, w.rows(), 0, w.cols()});
  const int group = static_cast<int>(std::min<int64_t>(cfg.group, w.cols()));
  // INT8-path schemes quantize the full matrix ONCE, then pack each shard's
  // rectangle from it for the ISA active at construction (the blocked
  // driver falls back to the scalar microkernel if the active ISA changes to
  // an incompatible vector width afterwards). pack_gemm_b_slice reads
  // metadata at absolute indices, so every packed code / row_sum / epilogue
  // constant is bitwise the full pack's entry for the same (row, col).
  const int nr = cpu::microkernel_for(cpu::active_isa()).nr;
  const auto pack = [&](const auto& qw) {
    for (const PackSlice& s : slices_)
      packs_.push_back(pack_gemm_b_slice(qw, nr, s));
  };
  // The other schemes have no sliced form: one shard, the whole matrix.
  const auto check_whole = [&] {
    const PackSlice& s = slices_[0];
    QS_CHECK_MSG(slices_.size() == 1 && s.row0 == 0 && s.row1 == w.rows() &&
                     s.col0 == 0 && s.col1 == w.cols(),
                 "tensor-parallel sharding requires an INT8-path weight "
                 "scheme (W8A8 or W4A8)");
  };
  switch (scheme_) {
    case WeightScheme::kFp16:
      check_whole();
      fp16_ = to_half_bits(w);
      break;
    case WeightScheme::kW8PerChannel:
      pack(quantize_w8_per_channel(w));
      break;
    case WeightScheme::kW4PerChannel:
      pack(quantize_w4_per_channel(w));
      break;
    case WeightScheme::kW4PerGroupProgressive: {
      ProgressiveOptions popt;
      popt.group = group;
      popt.level1_range = cfg.level1_range;
      pack(quantize_progressive(w, popt));
      break;
    }
    case WeightScheme::kW4A16Group:
      check_whole();
      w4a16_ = quantize_w4a16(w, group);
      break;
    case WeightScheme::kW4A4Group:
      check_whole();
      w4a4_ = quantize_w4a4_per_group(w, group);
      break;
  }
}

LinearInput QuantizedLinear::quantize(Tensor x) const {
  LinearInput in;
  switch (scheme_) {
    case WeightScheme::kFp16:
    case WeightScheme::kW4A16Group:
      in.fp = std::move(x);
      break;
    case WeightScheme::kW8PerChannel:
    case WeightScheme::kW4PerChannel:
    case WeightScheme::kW4PerGroupProgressive:
      in.q = quantize_acts_per_token(x);
      break;
    case WeightScheme::kW4A4Group:
      in.q = quantize_acts_per_token_int4(x);
      break;
  }
  return in;
}

Tensor QuantizedLinear::apply(const LinearInput& x, int s) const {
  QS_DCHECK(s >= 0 && s < static_cast<int>(slices_.size()));
  switch (scheme_) {
    case WeightScheme::kFp16:
      return gemm_fp16(x.fp, fp16_);
    // The INT8 paths hit the pre-packed blocked GEMM: weight tiles were
    // interleaved (and, for per-group, dequantized to level-1 codes) once at
    // construction, and a stacked prefill reuses each tile across all its
    // tokens in one call.
    case WeightScheme::kW8PerChannel:
    case WeightScheme::kW4PerChannel:
    case WeightScheme::kW4PerGroupProgressive:
      return gemm_blocked(x.q, packs_[static_cast<size_t>(s)]);
    case WeightScheme::kW4A16Group:
      return gemm_w4a16(x.fp, w4a16_);
    case WeightScheme::kW4A4Group:
      return gemm_w4a4_atom(x.q, w4a4_);
  }
  QS_CHECK(false);
  return Tensor{};
}

I32Tensor QuantizedLinear::acc_shard(const QuantizedActs& x, int s) const {
  QS_DCHECK(s >= 0 && s < static_cast<int>(packs_.size()));
  const PackSlice& sl = slices_[static_cast<size_t>(s)];
  return gemm_blocked_acc(slice_acts_cols(x, sl.col0, sl.col1),
                          packs_[static_cast<size_t>(s)]);
}

Tensor QuantizedLinear::epilogue(const I32Tensor& acc,
                                 const QuantizedActs& x) const {
  return gemm_blocked_epilogue(acc, x, packs_[0].scale, packs_[0].zp_term);
}

// --- QuantizedModel --------------------------------------------------------------

QuantizedModel::QuantizedModel(const ModelWeights& weights,
                               const QuantSchemeConfig& cfg,
                               const TpConfig& tp)
    : cfg_(weights.cfg), qcfg_(cfg) {
  // Loud scheme validation at construction instead of downstream
  // misbehavior (a non-positive group would divide by zero at pack time; a
  // level-1 range outside (0, 127] is not representable in INT8).
  QS_CHECK_MSG(cfg.group > 0, "QuantSchemeConfig.group must be >= 1");
  QS_CHECK_MSG(cfg.level1_range >= 1 && cfg.level1_range <= 127,
               "QuantSchemeConfig.level1_range must be in [1, 127]");
  QS_CHECK_MSG(cfg.kv_max_pages > 0,
               "QuantSchemeConfig.kv_max_pages must be >= 1");
  tp_ = checked_tp_shards(cfg_, cfg, tp);
  // Shard plan: contiguous near-even KV head ranges (feasibility caps tp_ at
  // n_kv_heads, so every range is non-empty), query ranges scaled by the GQA
  // group, and near-even granularity-1 splits of ffn_dim and the o_proj
  // input — the k-splits need no head/group alignment because
  // pack_gemm_b_slice resolves metadata at absolute indices. At S = 1 the
  // one shard spans every dimension.
  const int group = cfg_.n_heads / cfg_.n_kv_heads;
  const int64_t dim = cfg_.head_dim;
  const int64_t hidden = cfg_.hidden;
  const int64_t q_dim = int64_t(cfg_.n_heads) * dim;
  QS_CHECK_GE(cfg_.ffn_dim, int64_t(tp_));
  tp_plan_.resize(static_cast<size_t>(tp_));
  // Per-projection slice lists, identical for every layer: column-parallel
  // layers (QKV, gate/up) slice output rows; row-parallel layers (o_proj,
  // down) slice input columns.
  std::vector<PackSlice> sq, skv, so, sffn, sdown;
  for (int s = 0; s < tp_; ++s) {
    TpShard& sh = tp_plan_[static_cast<size_t>(s)];
    sh.kh0 = (s * cfg_.n_kv_heads) / tp_;
    sh.kh1 = ((s + 1) * cfg_.n_kv_heads) / tp_;
    sh.qh0 = sh.kh0 * group;
    sh.qh1 = sh.kh1 * group;
    sh.f0 = (int64_t(s) * cfg_.ffn_dim) / tp_;
    sh.f1 = (int64_t(s + 1) * cfg_.ffn_dim) / tp_;
    sh.ko0 = (int64_t(s) * q_dim) / tp_;
    sh.ko1 = (int64_t(s + 1) * q_dim) / tp_;
    QS_CHECK(sh.kh1 > sh.kh0 && sh.f1 > sh.f0 && sh.ko1 > sh.ko0);
    sq.push_back({int64_t(sh.qh0) * dim, int64_t(sh.qh1) * dim, 0, hidden});
    skv.push_back({int64_t(sh.kh0) * dim, int64_t(sh.kh1) * dim, 0, hidden});
    so.push_back({0, hidden, sh.ko0, sh.ko1});
    sffn.push_back({sh.f0, sh.f1, 0, hidden});
    sdown.push_back({0, hidden, sh.f0, sh.f1});
  }
  embedding_ = weights.embedding;
  layers_.reserve(weights.layers.size());
  for (const auto& lw : weights.layers) {
    QLayer ql;
    ql.wq = QuantizedLinear(lw.wq, cfg, sq);
    ql.wk = QuantizedLinear(lw.wk, cfg, skv);
    ql.wv = QuantizedLinear(lw.wv, cfg, skv);
    ql.wo = QuantizedLinear(lw.wo, cfg, so);
    ql.w_gate = QuantizedLinear(lw.w_gate, cfg, sffn);
    ql.w_up = QuantizedLinear(lw.w_up, cfg, sffn);
    ql.w_down = QuantizedLinear(lw.w_down, cfg, sdown);
    ql.ln_attn = lw.ln_attn;
    ql.ln_ffn = lw.ln_ffn;
    layers_.push_back(std::move(ql));
  }
  ln_final_ = weights.ln_final;
  // The LM head stays FP16 in all configurations (standard practice).
  QuantSchemeConfig head_cfg = cfg;
  head_cfg.weights = WeightScheme::kFp16;
  lm_head_ = QuantizedLinear(weights.lm_head, head_cfg);

  KvCacheConfig kcfg;
  kcfg.n_kv_heads = cfg_.n_kv_heads;
  kcfg.head_dim = cfg_.head_dim;
  kcfg.precision = cfg.kv;
  kcfg.page_size = 16;
  kcfg.max_pages = cfg.kv_max_pages;
  kv_ = std::make_unique<PagedKvCache>(kcfg);

  // Loud construction-time validation: a head layout the attention kernels
  // cannot serve (e.g. odd head_dim with nibble-packed INT4 KV) throws here,
  // not deep inside the first forward.
  attn_cfg_.n_heads = cfg_.n_heads;
  attn_cfg_.n_kv_heads = cfg_.n_kv_heads;
  attn_cfg_.head_dim = cfg_.head_dim;
  attn_cfg_.fp16_accum = qcfg_.fp16_attention;
  attn_cfg_.validate(/*int4_kv=*/qcfg_.kv == KvPrecision::kInt4);
}

// --- sequences ---------------------------------------------------------------

const QuantizedModel::SeqState& QuantizedModel::live_seq(int seq) const {
  QS_CHECK_MSG(seq >= 0 && seq < static_cast<int>(seqs_.size()) &&
                   seqs_[static_cast<size_t>(seq)].live,
               "sequence handle " << seq << " is not a live sequence");
  return seqs_[static_cast<size_t>(seq)];
}

QuantizedModel::SeqState& QuantizedModel::live_seq(int seq) {
  return const_cast<SeqState&>(std::as_const(*this).live_seq(seq));
}

int QuantizedModel::add_sequence(std::vector<int> layer_seqs,
                                 int64_t next_pos) {
  int id = 0;
  while (id < static_cast<int>(seqs_.size()) &&
         seqs_[static_cast<size_t>(id)].live)
    ++id;
  if (id == static_cast<int>(seqs_.size())) seqs_.emplace_back();
  SeqState& s = seqs_[static_cast<size_t>(id)];
  s.layer_seqs = std::move(layer_seqs);
  s.next_pos = next_pos;
  s.live = true;
  return id;
}

int QuantizedModel::begin_sequence() {
  std::vector<int> layer_seqs;
  for (int l = 0; l < cfg_.n_layers; ++l)
    layer_seqs.push_back(kv_->alloc_sequence());
  return add_sequence(std::move(layer_seqs), 0);
}

int QuantizedModel::fork_sequence(int src, int64_t upto_len) {
  const SeqState& source = live_seq(src);
  QS_CHECK_MSG(upto_len >= 0 && upto_len <= source.next_pos,
               "fork upto_len " << upto_len << " outside [0, "
                                << source.next_pos << "]");
  std::vector<int> layer_seqs;
  for (int ls : source.layer_seqs)
    layer_seqs.push_back(kv_->fork_sequence(ls, upto_len));
  // Forks start full-attention regardless of the source's policy (the cache
  // enforces that only never-recycled pages were aliased); the caller
  // installs its own window if it wants one.
  return add_sequence(std::move(layer_seqs), upto_len);
}

void QuantizedModel::end_sequence(int seq) {
  SeqState& s = live_seq(seq);
  for (int ls : s.layer_seqs) kv_->free_sequence(ls);
  s.live = false;
}

void QuantizedModel::set_sequence_window(int seq, int64_t sink_tokens,
                                         int64_t window_tokens,
                                         int64_t slack_tokens) {
  SeqState& state = live_seq(seq);
  for (int ls : state.layer_seqs)
    kv_->set_window(ls, sink_tokens, window_tokens, slack_tokens);
}

void QuantizedModel::truncate_sequence(int seq, int64_t new_len) {
  SeqState& state = live_seq(seq);
  QS_CHECK_MSG(new_len >= 0 && new_len <= state.next_pos,
               "truncate target " << new_len << " outside [0, "
                                  << state.next_pos << "]");
  for (int ls : state.layer_seqs) kv_->truncate_sequence(ls, new_len);
  state.next_pos = new_len;
}

int64_t QuantizedModel::seq_pos(int seq) const {
  return live_seq(seq).next_pos;
}

std::vector<uint32_t> QuantizedModel::sequence_page_generations(
    int seq) const {
  std::vector<uint32_t> gens;
  for (int ls : live_seq(seq).layer_seqs) {
    const std::vector<uint32_t> layer = kv_->page_generations(ls);
    gens.insert(gens.end(), layer.begin(), layer.end());
  }
  return gens;
}

int64_t QuantizedModel::sequence_shared_pages(int seq) const {
  int64_t n = 0;
  for (int ls : live_seq(seq).layer_seqs) n += kv_->seq_shared_pages(ls);
  return n;
}

// --- the executor ------------------------------------------------------------

Tensor QuantizedModel::run_layers(const std::vector<SeqSpan>& spans, Tensor x,
                                  const std::vector<int>& positions) {
  QS_CHECK_EQ(x.rows(), static_cast<int64_t>(positions.size()));
  // Per-shard outputs of one region, consumed by the next.
  const size_t n_shards = tp_plan_.size();
  std::vector<Tensor> qs(n_shards), ks(n_shards), vs(n_shards),
      attns(n_shards), acts(n_shards);
  std::vector<int64_t> pos0(spans.size());

  for (size_t li = 0; li < layers_.size(); ++li) {
    const QLayer& layer = layers_[li];
    // Attention block. RMSNorm + activation quantization run once over FULL
    // rows (the per-token scale must see every column) of the whole stack —
    // all sequences' decode tokens and prefill chunks together; quantization
    // is per row, so stacking changes no numerics. Each shard then runs its
    // QKV row-slice GEMMs and RoPE on its own head slices — RoPE is
    // per-head, so a head slice transforms bitwise like the full matrix.
    const LinearInput h = layer.wq.quantize(rms_norm(x, layer.ln_attn));
    run_shards([&](int s) {
      const size_t i = static_cast<size_t>(s);
      qs[i] = layer.wq.apply(h, s);
      ks[i] = layer.wk.apply(h, s);
      vs[i] = layer.wv.apply(h, s);
      rope_inplace(qs[i], positions, cfg_.head_dim);
      rope_inplace(ks[i], positions, cfg_.head_dim);
    });

    // Attention section, timed separately (attention_seconds_): KV append +
    // attend. Slots for every span are reserved centrally, in span order —
    // ONE kKvAppend fault draw per span, so an armed fault site fires at the
    // same step at every shard count and thread count.
    const auto attn_t0 = std::chrono::steady_clock::now();
    for (size_t si = 0; si < spans.size(); ++si) {
      const SeqSpan& sp = spans[si];
      pos0[si] = kv_->append_reserve(
          seqs_[static_cast<size_t>(sp.seq)].layer_seqs[li], sp.n);
    }
    run_shards([&](int s) {
      const size_t i = static_cast<size_t>(s);
      attns[i] = shard_attention(li, s, spans, pos0, qs[i], ks[i], vs[i]);
    });
    accumulate(attention_seconds_, seconds_since(attn_t0));
    batched_attention_calls_ += tp_;  // one head-ranged dispatch per shard
    // Separate quant node before the output projection (Fig. 11).
    add_inplace(x, row_parallel(layer.wo,
                                layer.wo.quantize(concat_shards(attns))));

    // FFN block: column-parallel gate/up + SwiGLU on slices, then the
    // row-parallel down projection.
    const LinearInput h2 = layer.w_gate.quantize(rms_norm(x, layer.ln_ffn));
    run_shards([&](int s) {
      const Tensor gate = layer.w_gate.apply(h2, s);
      const Tensor up = layer.w_up.apply(h2, s);
      acts[static_cast<size_t>(s)] = swiglu(gate, up);
    });
    add_inplace(x, row_parallel(layer.w_down,
                                layer.w_down.quantize(concat_shards(acts))));
  }
  return x;
}

Tensor QuantizedModel::shard_attention(size_t li, int s,
                                       const std::vector<SeqSpan>& spans,
                                       const std::vector<int64_t>& pos0,
                                       const Tensor& q, const Tensor& k,
                                       const Tensor& v) {
  const TpShard& sh = tp_plan_[static_cast<size_t>(s)];
  const auto lseq = [&](const SeqSpan& sp) {
    return seqs_[static_cast<size_t>(sp.seq)].layer_seqs[li];
  };
  // KV writes: this shard's KV head range of every span's reserved rows —
  // byte ranges disjoint from every other shard's (INT4 head boundaries are
  // byte-aligned via the even head_dim) — with distinct spans scattering
  // concurrently. No cross-shard barrier before attending: a shard reads
  // only the KV heads it just wrote.
  parallel_for(0, static_cast<int64_t>(spans.size()), 1,
               [&](int64_t lo, int64_t hi) {
                 for (int64_t si = lo; si < hi; ++si) {
                   const SeqSpan& sp = spans[static_cast<size_t>(si)];
                   kv_->append_write_heads(
                       lseq(sp), pos0[static_cast<size_t>(si)],
                       k.row(sp.row0), v.row(sp.row0), sp.n, sh.kh0, sh.kh1,
                       k.cols());
                 }
               });
  // One attention dispatch for every span of the step — decode rows, verify
  // spans and prefill chunks — over all sequences × the shard's heads,
  // dequantizing each page run once per (span, KV head, row block) in the
  // ISA-dispatched microkernels (§5.3). The kernels are per head, so the
  // shard's slice is bitwise the matching columns of the one-shard call.
  Tensor out({q.rows(), q.cols()});
  std::vector<DecodeAttentionItem> items;
  items.reserve(spans.size());
  for (const SeqSpan& sp : spans)
    items.push_back({lseq(sp), q.row(sp.row0), out.row(sp.row0), sp.n});
  batched_fused_decode_attention(*kv_, items, attn_cfg_, sh.qh0,
                                 sh.qh1 - sh.qh0);
  return out;
}

void QuantizedModel::run_shards(const std::function<void(int)>& fn) {
  std::vector<double> seconds(static_cast<size_t>(tp_));
  run_sharded(tp_, fn, seconds.data());
  if (tp_ == 1) return;  // one shard: nothing to balance
  double mx = 0.0, sum = 0.0;
  for (double v : seconds) {
    mx = std::max(mx, v);
    sum += v;
  }
  accumulate(tp_shard_max_seconds_, mx);
  accumulate(tp_shard_mean_seconds_, sum / double(tp_));
}

Tensor QuantizedModel::concat_shards(std::vector<Tensor>& parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  const auto t0 = std::chrono::steady_clock::now();
  int64_t width = 0;
  for (const Tensor& p : parts) width += p.cols();
  Tensor out({parts[0].rows(), width});
  int64_t c0 = 0;
  for (const Tensor& p : parts) {
    for (int64_t t = 0; t < p.rows(); ++t)
      std::copy(p.row(t), p.row(t) + p.cols(), out.row(t) + c0);
    c0 += p.cols();
  }
  accumulate(tp_comm_seconds_, seconds_since(t0));
  return out;
}

Tensor QuantizedModel::row_parallel(const QuantizedLinear& w,
                                    const LinearInput& x) {
  if (tp_ == 1) return w.apply(x);
  std::vector<I32Tensor> accs(static_cast<size_t>(tp_));
  run_shards(
      [&](int s) { accs[static_cast<size_t>(s)] = w.acc_shard(x.q, s); });
  // Reduction boundary (comm): fixed pairwise-tree all-reduce of the exact
  // INT32 partials + the one-shard epilogue.
  const auto t0 = std::chrono::steady_clock::now();
  Tensor out = w.epilogue(reduce_partials(accs), x.q);
  accumulate(tp_comm_seconds_, seconds_since(t0));
  return out;
}

Tensor QuantizedModel::logits_from_hidden(const Tensor& h) const {
  return lm_head_.apply(lm_head_.quantize(rms_norm(h, ln_final_)));
}

// --- entry points ------------------------------------------------------------

Tensor QuantizedModel::forward_step(const BatchedStep& step) {
  QS_CHECK(!step.chunks.empty());
  const int64_t n = step.total_rows();

  // Validate chunks and lay out the stacked rows: chunk i occupies the
  // contiguous row range [spans[i].row0, spans[i].row0 + |tokens|).
  std::vector<SeqSpan> spans;
  spans.reserve(step.chunks.size());
  std::vector<int> positions(static_cast<size_t>(n));
  std::unordered_set<int> seen_seqs;
  int64_t row0 = 0;
  for (const StepSeqChunk& c : step.chunks) {
    QS_CHECK(!c.tokens.empty());
    QS_CHECK_EQ(int64_t(c.pos0), live_seq(c.seq).next_pos);
    QS_CHECK_MSG(c.logit_rows >= 0 &&
                     c.logit_rows <= static_cast<int>(c.tokens.size()),
                 "logit_rows must be in [0, |tokens|]");
    QS_CHECK_MSG(seen_seqs.insert(c.seq).second,
                 "a sequence may appear in at most one chunk per step");
    const int64_t cn = static_cast<int64_t>(c.tokens.size());
    for (int64_t t = 0; t < cn; ++t) {
      QS_CHECK(c.tokens[static_cast<size_t>(t)] >= 0 &&
               c.tokens[static_cast<size_t>(t)] < cfg_.vocab);
      positions[static_cast<size_t>(row0 + t)] =
          c.pos0 + static_cast<int>(t);
    }
    spans.push_back({c.seq, row0, cn});
    row0 += cn;
  }

  // Row-gathered embedding lookup into one stacked activation buffer; each
  // chunk's rows are contiguous, so the gather parallelizes over chunks
  // without changing bits.
  Tensor x({n, cfg_.hidden});
  parallel_for(
      0, static_cast<int64_t>(step.chunks.size()), 1,
      [&](int64_t lo, int64_t hi) {
        for (int64_t ci = lo; ci < hi; ++ci) {
          const StepSeqChunk& c = step.chunks[static_cast<size_t>(ci)];
          const SeqSpan& sp = spans[static_cast<size_t>(ci)];
          for (int64_t t = 0; t < sp.n; ++t) {
            const int tok = c.tokens[static_cast<size_t>(t)];
            std::copy(embedding_.row(tok), embedding_.row(tok) + cfg_.hidden,
                      x.row(sp.row0 + t));
          }
        }
      });

  const Tensor h = run_layers(spans, std::move(x), positions);
  for (const StepSeqChunk& c : step.chunks)
    seqs_[static_cast<size_t>(c.seq)].next_pos +=
        static_cast<int64_t>(c.tokens.size());

  // One LM-head GEMM over every row that declared it needs logits — a
  // chunk's trailing logit_rows positions, gathered chunk by chunk. A step
  // whose chunks all set logit_rows = 0 (e.g. only mid-prompt prefill
  // chunks) skips the LM head entirely.
  const int64_t n_logits = step.total_logit_rows();
  if (n_logits == 0) return Tensor({0, cfg_.vocab});
  Tensor last({n_logits, cfg_.hidden});
  int64_t out = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int lr = step.chunks[i].logit_rows;
    for (int64_t j = 0; j < lr; ++j) {
      const int64_t src = spans[i].row0 + spans[i].n - lr + j;
      std::copy(h.row(src), h.row(src) + cfg_.hidden, last.row(out++));
    }
  }
  return logits_from_hidden(last);
}

Tensor QuantizedModel::prefill(int seq, const std::vector<int>& tokens) {
  BatchedStep step;
  step.chunks.push_back({seq, tokens, static_cast<int>(seq_pos(seq)), 1});
  return forward_step(step).reshaped({cfg_.vocab});
}

Tensor QuantizedModel::decode_step(int seq, int token) {
  return prefill(seq, {token});
}

Tensor QuantizedModel::forward(const std::vector<int>& tokens) {
  const int seq = begin_sequence();
  BatchedStep step;
  step.chunks.push_back({seq, tokens, 0, static_cast<int>(tokens.size())});
  Tensor logits;
  try {
    logits = forward_step(step);
  } catch (...) {
    end_sequence(seq);
    throw;
  }
  end_sequence(seq);
  return logits;
}

}  // namespace qserve
