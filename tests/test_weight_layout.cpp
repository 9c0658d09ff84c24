// Compute-aware weight reordering (§5.2.1): bijection, thread-mapping
// consistency, metadata alignment, and the reordered stream + RLP dequant
// decoding to the codes the CPU GEMM packs.
#include "kernels/weight_layout.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "kernels/rlp.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

U8Tensor random_codes(int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  U8Tensor codes({n, k});
  for (int64_t i = 0; i < codes.numel(); ++i)
    codes[i] = static_cast<uint8_t>(rng.uniform_int(0, 15));
  return codes;
}

TEST(WeightLayout, ThreadMappingCoversTileExactlyOnce) {
  // Every (out, in) pair of a 32x32 tile must be owned by exactly one
  // (thread, word, lane) triple.
  std::set<std::pair<int, int>> covered;
  for (int t = 0; t < kThreadsPerTile; ++t) {
    for (int j = 0; j < kWordsPerThread; ++j) {
      const int out = tile_out_channel(t, j);
      for (int l = 0; l < 4; ++l) {
        covered.insert({out, tile_in_channel_a(t, l)});
        covered.insert({out, tile_in_channel_b(t, l)});
      }
    }
  }
  EXPECT_EQ(covered.size(), size_t(kTileN * kTileK));
}

TEST(WeightLayout, MatchesPaperThreadExample) {
  // Fig. 12: thread 0 uses input channels 0-3 and 16-19 for output channels
  // 0, 8, 16, 24.
  EXPECT_EQ(tile_out_channel(0, 0), 0);
  EXPECT_EQ(tile_out_channel(0, 1), 8);
  EXPECT_EQ(tile_out_channel(0, 2), 16);
  EXPECT_EQ(tile_out_channel(0, 3), 24);
  EXPECT_EQ(tile_in_channel_a(0, 0), 0);
  EXPECT_EQ(tile_in_channel_a(0, 3), 3);
  EXPECT_EQ(tile_in_channel_b(0, 0), 16);
  EXPECT_EQ(tile_in_channel_b(0, 3), 19);
}

TEST(WeightLayout, ReorderRoundTrip) {
  const U8Tensor codes = random_codes(64, 96, 1);
  const PackedU4 packed = pack_u4(codes);
  const ReorderedW4 stream = reorder_w4_for_compute(packed);
  const U8Tensor back = unreorder_w4(stream);
  for (int64_t i = 0; i < codes.numel(); ++i)
    EXPECT_EQ(back[i], codes[i]) << i;
}

TEST(WeightLayout, StreamSizeIs128BitsPerThread) {
  const PackedU4 packed = pack_u4(random_codes(32, 64, 2));
  const ReorderedW4 stream = reorder_w4_for_compute(packed);
  // 1 n-tile x 2 k-tiles x 32 threads x 4 words.
  EXPECT_EQ(stream.words.size(), size_t(1 * 2 * 32 * 4));
}

TEST(WeightLayout, RejectsUnalignedShapes) {
  const PackedU4 packed = pack_u4(random_codes(30, 64, 3));
  EXPECT_THROW(reorder_w4_for_compute(packed), CheckError);
}

TEST(WeightLayout, GroupMetaAlignsWithStream) {
  Rng rng(4);
  Tensor w({32, 256});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  const auto qw = quantize_progressive(w, {.group = 128});
  const auto stream = reorder_w4_for_compute(qw.qw);
  const auto meta = reorder_group_meta(qw);
  ASSERT_EQ(meta.s1.size(), stream.words.size());
  // Spot-check: fragment (nt=0, kt=1, thread=5, word=2) must carry the
  // scale of (row = tile_out_channel(5,2), group = 32*1/128 = 0).
  const int64_t idx = stream.index(0, 1, 5, 2);
  const int64_t row = tile_out_channel(5, 2);
  EXPECT_EQ(meta.s1[size_t(idx)], qw.s1.at2(row, 0));
  EXPECT_EQ(meta.z[size_t(idx)], qw.z.at2(row, 0));
}

TEST(WeightLayout, GroupMetaRequiresTileAlignedGroups) {
  Rng rng(5);
  Tensor w({32, 64});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  auto qw = quantize_progressive(w, {.group = 16});  // group < tile
  EXPECT_THROW(reorder_group_meta(qw), CheckError);
}

TEST(WeightLayout, RlpStreamWalkDecodesThePackedGemmCodes) {
  // Layout + RLP end to end: walking the reordered stream in storage order,
  // each word's Figure-13 unpack and Figure-14b sub-after-mul dequant (with
  // the stream-ordered scale and zero) must yield exactly the level-1 INT8
  // code pack_gemm_b stores for that (row, column) — the code every CPU
  // GEMM multiplies.
  Rng rng(6);
  Tensor w({64, 256});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  const auto qw = quantize_progressive(w, {.group = 128});
  const ReorderedW4 stream = reorder_w4_for_compute(qw.qw);
  const ReorderedGroupMeta meta = reorder_group_meta(qw);
  for (const int nr : {8, 16}) {
    SCOPED_TRACE(nr);
    const PackedGemmB packed = pack_gemm_b(qw, nr);
    int64_t checked = 0, mismatched = 0;
    auto check = [&](int64_t row, int64_t col, int8_t decoded) {
      ++checked;
      const int64_t g = col / 4, j = col % 4;
      const int8_t code =
          packed.data[size_t((row / nr) * packed.panel_stride() +
                             (g * nr + row % nr) * 4 + j)];
      if (decoded != code && mismatched++ == 0)
        ADD_FAILURE() << "row " << row << " col " << col << ": stream "
                      << int(decoded) << ", pack " << int(code);
    };
    size_t pos = 0;
    for (int64_t nt = 0; nt < stream.n_tiles(); ++nt) {
      for (int64_t kt = 0; kt < stream.k_tiles(); ++kt) {
        for (int t = 0; t < kThreadsPerTile; ++t) {
          for (int j = 0; j < kWordsPerThread; ++j, ++pos) {
            const UnpackedU4x8 u = unpack_u4x8(stream.words[pos]);
            const uint32_t lo =
                dequant4_sub_after_mul(u.low, meta.s1[pos], meta.z[pos]);
            const uint32_t hi =
                dequant4_sub_after_mul(u.high, meta.s1[pos], meta.z[pos]);
            const int64_t row = nt * kTileN + tile_out_channel(t, j);
            for (int l = 0; l < 4; ++l) {
              check(row, kt * kTileK + tile_in_channel_a(t, l), lane_s8(lo, l));
              check(row, kt * kTileK + tile_in_channel_b(t, l), lane_s8(hi, l));
            }
          }
        }
      }
    }
    EXPECT_EQ(pos, stream.words.size());
    EXPECT_EQ(checked, qw.n() * qw.k());
    EXPECT_EQ(mismatched, 0);
  }
}

}  // namespace
}  // namespace qserve
