// Parallel runtime correctness: exact index coverage under adversarial grain
// sizes, nested regions (the documented no-nesting rule), exception
// propagation, the tensor-parallel shard substrate (run_sharded /
// current_shard / shard-local pools), the fixed pairwise summation tree, and
// bitwise equivalence of the parallel kernels and the serving engine against
// single-thread runs.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "harness.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/gemm.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

void expect_exact_coverage(int64_t begin, int64_t end, int64_t grain) {
  const int64_t n = end > begin ? end - begin : 0;
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  for (auto& h : hits) h.store(0);
  parallel_for(begin, end, grain, [&](int64_t lo, int64_t hi) {
    ASSERT_LE(begin, lo);
    ASSERT_LT(lo, hi);
    ASSERT_LE(hi, end);
    for (int64_t i = lo; i < hi; ++i)
      hits[static_cast<size_t>(i - begin)].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
        << "index " << begin + i << " grain " << grain;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ConfigGuard guard(/*threads=*/8);
  const int64_t sizes[] = {1, 2, 7, 64, 1000, 4099};
  const int64_t grains[] = {-5, 0, 1, 2, 3, 7, 63, 64, 65, 1 << 30};
  for (int64_t n : sizes)
    for (int64_t g : grains) expect_exact_coverage(0, n, g);
}

TEST(ParallelFor, CoversNonZeroBasedRanges) {
  ConfigGuard guard(/*threads=*/8);
  expect_exact_coverage(17, 1003, 3);
  expect_exact_coverage(-50, 50, 7);
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
  ConfigGuard guard(/*threads=*/8);
  std::atomic<int> calls{0};
  parallel_for(0, 0, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  parallel_for(10, 3, 4, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, NestedRegionsRunInlineAndStillCover) {
  ConfigGuard guard(/*threads=*/8);
  constexpr int64_t kOuter = 16, kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  parallel_for(0, kOuter, 1, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      parallel_for(0, kInner, 4, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
          hits[static_cast<size_t>(o * kInner + i)].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptionsToCaller) {
  ConfigGuard guard(/*threads=*/8);
  EXPECT_THROW(parallel_for(0, 1000, 1,
                            [&](int64_t lo, int64_t) {
                              QS_CHECK_NE(lo, 500);
                            }),
               CheckError);
}

TEST(ParallelFor, PoolSurvivesAnExceptionalRegion) {
  ConfigGuard guard(/*threads=*/8);
  try {
    parallel_for(0, 100, 1, [](int64_t, int64_t) { QS_CHECK(false); });
  } catch (const CheckError&) {
  }
  expect_exact_coverage(0, 1000, 3);
}

TEST(ParallelConfig, OverrideAndReset) {
  set_num_threads(6);
  EXPECT_EQ(num_threads(), 6);
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
}

// --- tensor-parallel shard substrate -----------------------------------------

TEST(RunSharded, EveryShardRunsOnceWithItsOwnIdentity) {
  ConfigGuard guard(/*threads=*/8);
  constexpr int kShards = 4;
  std::vector<std::atomic<int>> calls(kShards);
  for (auto& c : calls) c.store(0);
  std::vector<int> seen_shard(kShards, -2);
  std::vector<int> pool_size(kShards, 0);
  std::vector<double> seconds(kShards, -1.0);
  EXPECT_EQ(current_shard(), -1);
  run_sharded(
      kShards,
      [&](int s) {
        calls[static_cast<size_t>(s)].fetch_add(1);
        seen_shard[static_cast<size_t>(s)] = current_shard();
        // Inside a shard body the thread budget is the shard-local pool's.
        pool_size[static_cast<size_t>(s)] = num_threads();
        EXPECT_FALSE(in_parallel_region());
      },
      seconds.data());
  EXPECT_EQ(current_shard(), -1);
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(calls[static_cast<size_t>(s)].load(), 1) << "shard " << s;
    EXPECT_EQ(seen_shard[static_cast<size_t>(s)], s);
    EXPECT_EQ(pool_size[static_cast<size_t>(s)], 8 / kShards);
    EXPECT_GE(seconds[static_cast<size_t>(s)], 0.0);
  }
}

TEST(RunSharded, ParallelForInsideShardCoversOnShardPool) {
  ConfigGuard guard(/*threads=*/8);
  constexpr int kShards = 2;
  constexpr int64_t kN = 500;
  std::vector<std::atomic<int>> hits(kShards * kN);
  for (auto& h : hits) h.store(0);
  run_sharded(kShards, [&](int s) {
    parallel_for(0, kN, 3, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i)
        hits[static_cast<size_t>(s * kN + i)].fetch_add(1);
    });
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(RunSharded, NestedShardedRegionsRunInlineInShardOrder) {
  // The no-nesting rule: run_sharded from inside a parallel region or a
  // shard body runs every shard inline on the caller, sequentially — same
  // coverage, no deadlock.
  ConfigGuard guard(/*threads=*/8);
  std::vector<int> order;
  run_sharded(2, [&](int outer) {
    if (outer != 0) return;
    run_sharded(3, [&](int inner) {
      EXPECT_EQ(current_shard(), inner);
      order.push_back(inner);
    });
    // Identity restored after the inline nested region.
    EXPECT_EQ(current_shard(), 0);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

  std::vector<int> from_region;
  parallel_for(0, 8, 1, [&](int64_t lo, int64_t) {
    if (lo != 0) return;  // one chunk exercises the nested call
    EXPECT_TRUE(in_parallel_region());
    run_sharded(2, [&](int s) { from_region.push_back(s); });
  });
  EXPECT_EQ(from_region, (std::vector<int>{0, 1}));
}

TEST(RunSharded, LowestThrowingShardWinsAndGroupSurvives) {
  ConfigGuard guard(/*threads=*/8);
  try {
    run_sharded(4, [&](int s) {
      QS_CHECK_MSG(s != 1 && s != 3, "shard " << s << " failed");
    });
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::strstr(e.what(), "shard 1 failed"), nullptr) << e.what();
  }
  // The shard group is reusable after an exceptional region.
  std::atomic<int> ok{0};
  run_sharded(4, [&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(RunSharded, SingleShardRunsInlineOnCallerPool) {
  ConfigGuard guard(/*threads=*/8);
  run_sharded(1, [&](int s) {
    EXPECT_EQ(s, 0);
    EXPECT_EQ(current_shard(), 0);
    EXPECT_EQ(num_threads(), 8);  // no partitioning at one shard
  });
}

TEST(TpShardsConfig, OverrideAndReset) {
  set_tp_shards(3);
  EXPECT_EQ(tp_shards(), 3);
  set_tp_shards(0);
  EXPECT_GE(tp_shards(), 1);  // env default (QSERVE_TP_SHARDS or 1)
}

// --- fixed pairwise summation tree -------------------------------------------

TEST(PairwiseTreeSum, MatchesExplicitTreeAndHandlesEdges) {
  const float v[] = {1.5f, -2.25f, 4.0f, 0.125f, -8.5f, 3.0f, 0.75f};
  EXPECT_EQ(pairwise_tree_sum(v, 0), 0.0f);
  EXPECT_EQ(pairwise_tree_sum(v, 1), v[0]);
  EXPECT_EQ(pairwise_tree_sum(v, 2), v[0] + v[1]);
  // n = 7 splits at 4 (largest power of two < 7): ((01)(23)) + ((45)(6)).
  const float left = (v[0] + v[1]) + (v[2] + v[3]);
  const float right = (v[4] + v[5]) + v[6];
  EXPECT_EQ(pairwise_tree_sum(v, 7), left + right);
}

TEST(PairwiseTreeSum, ExactForIntegers) {
  Rng rng(5);
  std::vector<int64_t> v(1000);
  for (auto& x : v) x = rng.uniform_int(-1000000, 1000000);
  EXPECT_EQ(pairwise_tree_sum(v.data(), int64_t(v.size())),
            std::accumulate(v.begin(), v.end(), int64_t{0}));
}

TEST(PairwiseTreeSum, AlignedPartitionPartialsComposeBitwise) {
  // The property the TP all-reduce leans on: splitting the input at
  // power-of-two-aligned boundaries, tree-summing each block, and
  // tree-summing the partials reproduces the full tree BITWISE — so any
  // shard count whose partials land on aligned boundaries reduces to the
  // same float. Heavy-tailed magnitudes make naive-order sums visibly
  // different, which the last assertion demonstrates is a real hazard.
  Rng rng(17);
  std::vector<float> v(64);
  for (auto& x : v) x = rng.heavy_tailed(1.0f) * (rng.uniform_int(0, 1) != 0
                                                      ? 1e6f
                                                      : 1e-6f);
  const float full = pairwise_tree_sum(v.data(), 64);
  for (const int blocks : {2, 4, 8, 16, 32, 64}) {
    const int64_t w = 64 / blocks;
    std::vector<float> partials;
    for (int b = 0; b < blocks; ++b)
      partials.push_back(pairwise_tree_sum(v.data() + b * w, w));
    EXPECT_EQ(pairwise_tree_sum(partials.data(), blocks), full)
        << blocks << " blocks";
  }
  // Naive left-to-right accumulation is NOT bitwise-stable against the tree;
  // if it were, the fixed tree would be unnecessary. At 1e8 the float ulp is
  // 8: adding 3 three times one-by-one is absorbed each step, while the tree
  // pairs (3 + 3) = 6 first, which rounds up to the next representable.
  const float w[] = {1e8f, 3.0f, 3.0f, 3.0f};
  const float naive = ((w[0] + w[1]) + w[2]) + w[3];
  EXPECT_NE(naive, pairwise_tree_sum(w, 4));
}

// --- bitwise equivalence of the parallel kernels --------------------------------

Tensor random_tensor(int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, k});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.heavy_tailed(1.0f);
  return t;
}

TEST(ParallelKernels, W4A8PerGroupBitwiseIdenticalAcrossThreadCounts) {
  const Tensor x = random_tensor(5, 256, 21);
  const Tensor w = random_tensor(48, 256, 22);
  const auto qx = quantize_acts_per_token(x);
  const auto qw = quantize_progressive(w, {.group = 128});

  const PackedGemmB packed =
      pack_gemm_b(qw, cpu::microkernel_for(cpu::active_isa()).nr);

  ConfigGuard guard(/*threads=*/1);
  const Tensor serial = gemm_blocked(qx, packed);
  set_num_threads(8);
  const Tensor parallel = gemm_blocked(qx, packed);

  ASSERT_TRUE(serial.same_shape(parallel));
  for (int64_t i = 0; i < serial.numel(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << i;
}

TEST(ParallelKernels, W8A8BitwiseIdenticalAcrossThreadCounts) {
  const Tensor x = random_tensor(4, 128, 23);
  const Tensor w = random_tensor(40, 128, 24);
  const auto qx = quantize_acts_per_token(x);
  const auto qw = quantize_w8_per_channel(w);

  const PackedGemmB packed =
      pack_gemm_b(qw, cpu::microkernel_for(cpu::active_isa()).nr);

  ConfigGuard guard(/*threads=*/1);
  const Tensor serial = gemm_blocked(qx, packed);
  set_num_threads(8);
  const Tensor parallel = gemm_blocked(qx, packed);

  for (int64_t i = 0; i < serial.numel(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << i;
}

// --- the serving engine's streams do not depend on the thread count -------------

std::vector<std::vector<int>> run_at(int threads) {
  ConfigGuard guard(threads);
  EngineRun run;
  run.target = &toy_weights(toy_config(1));
  run.cfg.scheduler.max_batch = 4;
  run.cfg.temperature = 0.8f;  // exercise the rng-consuming sampling path
  const Workload w{{{1, 2, 3, 4}, {5, 6}, {7, 8, 9}, {2, 4, 6, 8, 10}},
                   {5, 7, 3, 4}};
  return run_engine(run, w).streams;
}

TEST(ParallelEngine, GeneratedStreamsIdenticalAcrossThreadCounts) {
  const auto serial = run_at(1);
  const auto parallel = run_at(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "request " << i;
}

}  // namespace
}  // namespace qserve
