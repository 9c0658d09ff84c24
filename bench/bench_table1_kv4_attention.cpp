// Table 1 + §6.4 breakdown reproduction: decode-attention latency of the
// TRT-LLM KV8 baseline vs a naive KV4 port vs QServe's optimized KV4 kernel,
// across sequence lengths on A100 and L40S, plus the optimization ladder
// (0.48 ms -> 0.28 ms at 64x1024 in the paper).
// The final section leaves the simulator and measures this repo's real CPU
// decode-attention kernels (batched_fused_decode_attention over a one-item
// batch on the quantized paged KV cache), scalar vs the best ISA the host
// supports — the CPU-executable analogue of the paper's KV4 kernel claim.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "kernels/cpu/isa.h"
#include "kvcache/fused_attention.h"
#include "simulator/attention_model.h"

using namespace qserve::sim;
using namespace qserve::benchutil;

namespace {

AttentionShape llama7b_shape(int batch, int seq) {
  AttentionShape s;
  s.batch = batch;
  s.seq_len = seq;
  s.n_heads = 32;
  s.n_kv_heads = 32;
  s.head_dim = 128;
  return s;
}

void table_for(const DeviceSpec& dev) {
  header("Table 1: decode attention latency, batch 64 (" + dev.name + ")");
  row({"seq len", "8-bit KV", "4-bit KV (naive)", "4-bit KV (ours)"}, 18);
  for (int seq : {128, 256, 512, 1024, 1536}) {
    const auto shape = llama7b_shape(64, seq);
    const double kv8 =
        attention_decode_cost(dev, AttentionKernelConfig::trt_kv8(), shape)
            .seconds;
    const double naive =
        attention_decode_cost(dev, AttentionKernelConfig::naive_kv4(), shape)
            .seconds;
    const double ours =
        attention_decode_cost(dev, AttentionKernelConfig::qserve_kv4(), shape)
            .seconds;
    row({std::to_string(seq), fmt_ms(kv8),
         fmt_ms(naive) + " (" + fmt(kv8 / naive, 2) + "x)",
         fmt_ms(ours) + " (" + fmt(kv8 / ours, 2) + "x)"},
        18);
  }
}

// One decode query over a populated quantized cache, timed per ISA.
double measured_decode_ms(qserve::KvPrecision p, int ctx, qserve::cpu::Isa isa) {
  using namespace qserve;
  KvCacheConfig ccfg;
  ccfg.n_kv_heads = 8;
  ccfg.head_dim = 64;
  ccfg.page_size = 16;
  ccfg.precision = p;
  ccfg.max_pages = 1 << 14;
  AttentionConfig acfg{8, 8, 64, /*fp16_accum=*/true};
  PagedKvCache cache(ccfg);
  const int seq = cache.alloc_sequence();
  Rng rng(42 + ctx);
  const size_t span = static_cast<size_t>(ccfg.n_kv_heads) * ccfg.head_dim;
  std::vector<float> k(span), v(span);
  for (int t = 0; t < ctx; ++t) {
    for (auto& x : k) x = rng.normal();
    for (auto& x : v) x = rng.normal();
    cache.append_batch(seq, k.data(), v.data(), 1);
  }
  const size_t hd = static_cast<size_t>(acfg.n_heads) * acfg.head_dim;
  std::vector<float> q(hd), out(hd);
  for (auto& x : q) x = rng.normal();

  const std::vector<DecodeAttentionItem> items{{seq, q.data(), out.data()}};
  cpu::set_isa(isa);
  const double secs = time_best_of(
      [&] { batched_fused_decode_attention(cache, items, acfg); },
      ctx <= 512 ? 100 : 50);
  cpu::clear_isa_override();
  return secs * 1e3;
}

void measured_cpu_table() {
  using qserve::KvPrecision;
  using qserve::cpu::Isa;
  const Isa best = qserve::cpu::detected_isa();
  header("Measured CPU decode attention (this repo's kernels, 8 heads x 64)");
  row({"config", "scalar", std::string(qserve::cpu::isa_name(best))}, 22);
  for (const KvPrecision p : {KvPrecision::kInt4, KvPrecision::kInt8}) {
    for (const int ctx : {128, 512, 1024}) {
      const double scalar_ms = measured_decode_ms(p, ctx, Isa::kScalar);
      const double best_ms =
          best == Isa::kScalar ? scalar_ms : measured_decode_ms(p, ctx, best);
      row({std::string(p == KvPrecision::kInt4 ? "KV4" : "KV8") + " ctx" +
               std::to_string(ctx),
           fmt_ms(scalar_ms / 1e3, 3),
           fmt_ms(best_ms / 1e3, 3) + " (" + fmt(scalar_ms / best_ms, 2) +
               "x)"},
          22);
    }
  }
  std::printf("(same bitwise results on every ISA; see bench_attention for "
              "the regression-tracked rows)\n");
}

}  // namespace

int main() {
  table_for(a100_80g());
  std::printf("(paper A100: naive KV4 is 0.86-0.90x — a slowdown; ours is "
              "1.29-1.51x faster than KV8)\n");
  table_for(l40s_48g());
  std::printf("(paper: a naive KV4 swap is already ~1.7x faster on L40S "
              "thanks to its stronger CUDA cores)\n");

  // §6.4: optimization breakdown at 64 x 1024 on A100.
  const DeviceSpec dev = a100_80g();
  const auto shape = llama7b_shape(64, 1024);
  header("KV4 attention optimization breakdown, 64x1024 on A100 (§6.4)");
  AttentionKernelConfig cfg = AttentionKernelConfig::naive_kv4();
  row({"naive KV4",
       fmt_ms(attention_decode_cost(dev, cfg, shape).seconds)}, 34);
  cfg.bit_trick_dequant = true;
  row({"+ bit-trick dequant (5->2 ops)",
       fmt_ms(attention_decode_cost(dev, cfg, shape).seconds)}, 34);
  cfg.simplified_control = true;
  row({"+ simplified control flow",
       fmt_ms(attention_decode_cost(dev, cfg, shape).seconds)}, 34);
  cfg.fp16_arithmetic = true;
  row({"+ FP16 QK/SV arithmetic",
       fmt_ms(attention_decode_cost(dev, cfg, shape).seconds)}, 34);
  cfg.prefetch_scales = true;
  row({"+ async scale/zero prefetch",
       fmt_ms(attention_decode_cost(dev, cfg, shape).seconds)}, 34);
  std::printf("(paper ladder: 0.48 -> 0.44 -> 0.39 -> 0.33 -> 0.28 ms)\n");

  measured_cpu_table();
  return 0;
}
