// Long-context decode attention over the quantized paged KV cache: decode
// tok/s and KV bytes/token at context 4k / 16k / 32k, full attention vs a
// 4k sliding window with 64 attention sinks, for the MHA head layout
// (8 KV heads x 64) and the GQA g=4 layout (8 query heads sharing 2 KV
// heads), on the scalar baseline and the best ISA the host supports. Each
// measurement is one batched_fused_decode_attention call over the one
// sequence; the page-ring sequence is filled through the one append path.
//
//   ./bench_longcontext [--json out.json]
//
// The two headline claims this bench regression-tracks (rows land in
// bench/baseline.json, gated by bench/check_regression.py):
//   * windowed decode tok/s is flat in context — the kernel visits only
//     sinks + window tokens however long the sequence grows, and the page
//     ring keeps the footprint at window_page_cap() pages (asserted here);
//   * GQA g=4 cuts KV bytes/token 4x and speeds up long-context decode
//     (4x less quantized KV traffic per step).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/cpu/isa.h"
#include "kvcache/fused_attention.h"

namespace qserve {
namespace {

using cpu::Isa;

constexpr int64_t kSink = 64;
constexpr int64_t kWindow = 4096;
constexpr int64_t kSlack = 16;  // decode appends one token at a time

struct Layout {
  const char* tag;
  int n_heads;
  int n_kv_heads;
  int head_dim;
};

struct Setup {
  KvCacheConfig ccfg;
  AttentionConfig acfg;
  std::unique_ptr<PagedKvCache> cache;
  int seq = -1;
  bool windowed = false;
  std::vector<float> q, out;
  std::vector<DecodeAttentionItem> items;  // the one sequence's decode row

  Setup(const Layout& lay, int ctx, bool window, uint64_t seed) {
    ccfg.n_kv_heads = lay.n_kv_heads;
    ccfg.head_dim = lay.head_dim;
    ccfg.page_size = 16;
    ccfg.precision = KvPrecision::kInt4;
    ccfg.max_pages = 1 << 16;
    acfg = {lay.n_heads, lay.n_kv_heads, lay.head_dim, /*fp16_accum=*/true};
    cache = std::make_unique<PagedKvCache>(ccfg);
    seq = cache->alloc_sequence();
    windowed = window;
    if (window) cache->set_window(seq, kSink, kWindow, kSlack);
    Rng rng(seed);
    const size_t span = static_cast<size_t>(ccfg.n_kv_heads) * ccfg.head_dim;
    std::vector<float> k(span), v(span);
    for (int t = 0; t < ctx; ++t) {
      for (auto& x : k) x = rng.normal();
      for (auto& x : v) x = rng.normal();
      k[0] = 9.0f;
      cache->append_batch(seq, k.data(), v.data(), 1);
    }
    const size_t hd = static_cast<size_t>(acfg.n_heads) * acfg.head_dim;
    q.resize(hd);
    out.resize(hd);
    for (auto& x : q) x = rng.normal();
    items = {{seq, q.data(), out.data()}};
  }

  // KV tokens one decode call actually visits.
  int64_t visible(int ctx) const {
    if (!windowed) return ctx;
    return std::min<int64_t>(ctx, kSink + kWindow);
  }

  // Quantized page bytes one call touches: K and V codes + in-page params
  // for every visited (token, kv_head), plus q in and out out.
  int64_t bytes_touched(int ctx) const {
    const int64_t vis = visible(ctx);
    const int64_t span = int64_t(ccfg.n_kv_heads) * ccfg.head_dim;
    const int bits = static_cast<int>(ccfg.precision);
    int64_t b = 2 * vis * span * bits / 8;
    b += 2 * vis * ccfg.n_kv_heads * 4;
    b += 2 * int64_t(acfg.n_heads) * acfg.head_dim * 4;
    return b;
  }

  double kv_bytes_per_token(int ctx) const {
    return double(cache->bytes_in_use()) / double(ctx);
  }
};

}  // namespace
}  // namespace qserve

int main(int argc, char** argv) {
  using namespace qserve;
  using benchutil::fmt;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  std::vector<Isa> isas{Isa::kScalar};
  if (cpu::detected_isa() != Isa::kScalar) isas.push_back(cpu::detected_isa());

  const Layout layouts[] = {
      {"mha", 8, 8, 64},   // classic multi-head layout
      {"gqa4", 8, 2, 64},  // 4 query heads per KV head (Llama-3-70B ratio)
  };

  std::vector<benchutil::GemmBenchRecord> rows;
  benchutil::header(
      "long-context decode attention: full vs 4k window + 64 sinks");
  benchutil::row({"config", "isa", "latency", "tok/s", "GB/s", "KV B/tok"});
  for (const Layout& lay : layouts) {
    for (const bool windowed : {false, true}) {
      for (const int ctx : {4096, 16384, 32768}) {
        Setup s(lay, ctx, windowed, 42 + ctx);
        if (windowed) {
          // The ring bound is part of the claim: a 32k windowed sequence
          // must hold at most window_page_cap pages, flat in context.
          const int64_t cap = PagedKvCache::window_page_cap(s.ccfg, kSink,
                                                            kWindow, kSlack);
          if (s.cache->pages_in_use() > cap) {
            std::fprintf(stderr,
                         "FAIL: windowed footprint %lld pages exceeds ring "
                         "cap %lld at ctx %d\n",
                         static_cast<long long>(s.cache->pages_in_use()),
                         static_cast<long long>(cap), ctx);
            return 1;
          }
        }
        const int reps = ctx <= 4096 ? 30 : 10;
        for (const Isa isa : isas) {
          cpu::set_isa(isa);
          const double secs = benchutil::time_best_of(
              [&] {
                batched_fused_decode_attention(*s.cache, s.items, s.acfg);
              },
              reps);
          cpu::clear_isa_override();

          const std::string name = std::string("attn_long_") + lay.tag +
                                   (windowed ? "_win4k" : "_full") + "/ctx" +
                                   std::to_string(ctx);
          benchutil::GemmBenchRecord r;
          r.name = name;
          r.isa = cpu::isa_name(isa);
          r.m = 1;
          r.n = s.acfg.n_heads;
          r.k = ctx;
          r.seconds = secs;
          // tok/s in the gops slot: one fused call serves one decode token.
          r.gops = secs > 0 ? 1.0 / secs : 0.0;
          r.gbps = secs > 0 ? double(s.bytes_touched(ctx)) / secs / 1e9 : 0.0;
          rows.push_back(r);
          benchutil::row({name, r.isa, benchutil::fmt_ms(secs, 3),
                          fmt(r.gops, 0), fmt(r.gbps, 2),
                          fmt(s.kv_bytes_per_token(ctx), 0)});
        }
      }
    }
  }
  std::printf(
      "\n(windowed tok/s is flat in context; gqa4 rows move 4x fewer KV "
      "bytes per token than mha at every context)\n");

  if (!json_path.empty()) {
    if (!benchutil::write_bench_json(json_path,
                                     cpu::isa_name(cpu::detected_isa()),
                                     num_threads(), rows))
      return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
