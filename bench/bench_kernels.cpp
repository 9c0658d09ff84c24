// Google-benchmark microbenchmarks for the attention / KV-cache / operator
// kernels of the CPU reproduction.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "kernels/attention.h"
#include "kernels/ops.h"
#include "kvcache/paged_kv_cache.h"
#include "quant/kv_quant.h"

namespace qserve {
namespace {

Tensor random_tensor(int64_t m, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor t({m, d});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal();
  return t;
}

void BM_AttentionDecodeFp32(benchmark::State& state) {
  const int64_t s = state.range(0);
  const AttentionConfig cfg{8, 8, 64, false};
  const Tensor q = random_tensor(1, 512, 1);
  const Tensor k = random_tensor(s, 512, 2);
  const Tensor v = random_tensor(s, 512, 3);
  for (auto _ : state) {
    const Tensor out = attention_prefill(q, k, v, cfg);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AttentionDecodeFp32)->Arg(128)->Arg(512)->Arg(1024);

void BM_AttentionDecodeFp16(benchmark::State& state) {
  const int64_t s = state.range(0);
  const AttentionConfig cfg{8, 8, 64, true};
  const Tensor q = random_tensor(1, 512, 1);
  const Tensor k = random_tensor(s, 512, 2);
  const Tensor v = random_tensor(s, 512, 3);
  for (auto _ : state) {
    const Tensor out = attention_prefill(q, k, v, cfg);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AttentionDecodeFp16)->Arg(512);

void BM_KvQuantizeHead(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<float> x(128);
  for (auto& v : x) v = rng.normal();
  std::vector<uint8_t> codes(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv_quantize(x.data(), 128, bits, codes.data()));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 128);
}
BENCHMARK(BM_KvQuantizeHead)->Arg(4)->Arg(8);

void BM_PagedCacheAppendGather(benchmark::State& state) {
  KvCacheConfig cfg;
  cfg.n_kv_heads = 8;
  cfg.head_dim = 64;
  cfg.page_size = 16;
  cfg.precision = KvPrecision::kInt4;
  Rng rng(5);
  std::vector<float> kv(512);
  for (auto& v : kv) v = rng.normal();
  for (auto _ : state) {
    PagedKvCache cache(cfg);
    const int seq = cache.alloc_sequence();
    for (int t = 0; t < 64; ++t)
      cache.append_batch(seq, kv.data(), kv.data(), 1);
    Tensor k, v;
    cache.gather(seq, k, v);
    benchmark::DoNotOptimize(k.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_PagedCacheAppendGather);

void BM_RmsNormQuantFused(benchmark::State& state) {
  const Tensor x = random_tensor(16, 512, 6);
  const Tensor gamma = Tensor::full({512}, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rms_norm_quant(x, gamma));
  }
}
BENCHMARK(BM_RmsNormQuantFused);

void BM_RopeInplace(benchmark::State& state) {
  std::vector<int> positions(16);
  for (int i = 0; i < 16; ++i) positions[size_t(i)] = i;
  for (auto _ : state) {
    Tensor x = random_tensor(16, 512, 7);
    rope_inplace(x, positions, 64);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_RopeInplace);

}  // namespace
}  // namespace qserve

BENCHMARK_MAIN();
