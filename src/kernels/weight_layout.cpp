#include "kernels/weight_layout.h"

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/rlp.h"
#include "tensor/int4.h"

namespace qserve {

ReorderedW4 reorder_w4_for_compute(const PackedU4& qw) {
  QS_CHECK_EQ(qw.rows % kTileN, 0);
  QS_CHECK_EQ(qw.cols % kTileK, 0);
  ReorderedW4 out;
  out.n = qw.rows;
  out.k = qw.cols;
  out.words.resize(static_cast<size_t>(out.n_tiles() * out.k_tiles() *
                                       kThreadsPerTile * kWordsPerThread));
  for (int64_t nt = 0; nt < out.n_tiles(); ++nt) {
    for (int64_t kt = 0; kt < out.k_tiles(); ++kt) {
      for (int t = 0; t < kThreadsPerTile; ++t) {
        for (int j = 0; j < kWordsPerThread; ++j) {
          const int64_t row = nt * kTileN + tile_out_channel(t, j);
          uint8_t a[4], b[4];
          for (int l = 0; l < 4; ++l) {
            a[l] = get_u4(qw, row, kt * kTileK + tile_in_channel_a(t, l));
            b[l] = get_u4(qw, row, kt * kTileK + tile_in_channel_b(t, l));
          }
          out.words[static_cast<size_t>(out.index(nt, kt, t, j))] =
              interleave_u4x8(a, b);
        }
      }
    }
  }
  return out;
}

U8Tensor unreorder_w4(const ReorderedW4& r) {
  U8Tensor codes({r.n, r.k});
  for (int64_t nt = 0; nt < r.n_tiles(); ++nt) {
    for (int64_t kt = 0; kt < r.k_tiles(); ++kt) {
      for (int t = 0; t < kThreadsPerTile; ++t) {
        for (int j = 0; j < kWordsPerThread; ++j) {
          const uint32_t word =
              r.words[static_cast<size_t>(r.index(nt, kt, t, j))];
          const UnpackedU4x8 u = unpack_u4x8(word);
          const int64_t row = nt * kTileN + tile_out_channel(t, j);
          for (int l = 0; l < 4; ++l) {
            codes.at2(row, kt * kTileK + tile_in_channel_a(t, l)) =
                lane_u8(u.low, l);
            codes.at2(row, kt * kTileK + tile_in_channel_b(t, l)) =
                lane_u8(u.high, l);
          }
        }
      }
    }
  }
  return codes;
}

ReorderedGroupMeta reorder_group_meta(const W4PerGroup& w) {
  QS_CHECK_EQ(w.n() % kTileN, 0);
  QS_CHECK_EQ(w.k() % kTileK, 0);
  QS_CHECK_EQ(w.group % kTileK, 0);  // groups are whole k-tiles
  ReorderedGroupMeta out;
  out.group = w.group;
  const int64_t n_tiles = w.n() / kTileN;
  const int64_t k_tiles = w.k() / kTileK;
  out.s1.reserve(static_cast<size_t>(n_tiles * k_tiles * kThreadsPerTile *
                                     kWordsPerThread));
  out.z.reserve(out.s1.capacity());
  for (int64_t nt = 0; nt < n_tiles; ++nt) {
    for (int64_t kt = 0; kt < k_tiles; ++kt) {
      const int64_t g = (kt * kTileK) / w.group;
      for (int t = 0; t < kThreadsPerTile; ++t) {
        for (int j = 0; j < kWordsPerThread; ++j) {
          const int64_t row = nt * kTileN + tile_out_channel(t, j);
          out.s1.push_back(w.s1.at2(row, g));
          out.z.push_back(w.z.at2(row, g));
        }
      }
    }
  }
  return out;
}

// --- packed layout for the blocked SIMD GEMM driver --------------------------

namespace {

// `code_at(row, col)` returns the signed code value at ABSOLUTE matrix
// indices; the packed slice covers rows [row0, row0 + n) and input channels
// [col0, col0 + k). Out-of-range panel slots are zero codes (they contribute
// nothing to dot products or row sums).
template <typename CodeAtFn>
PackedGemmB pack_panels(int64_t n, int64_t k, int64_t row0, int64_t col0,
                        int nr, bool unsigned_codes, const CodeAtFn& code_at) {
  QS_CHECK(nr > 0);
  PackedGemmB b;
  b.n = n;
  b.k = k;
  b.k_padded = round_up(k, cpu::kKGroup);
  b.nr = nr;
  b.unsigned_codes = unsigned_codes;
  b.data.assign(static_cast<size_t>(b.panels() * b.panel_stride()), 0);
  b.row_sum.assign(static_cast<size_t>(n), 0);
  // Panels write disjoint data/row_sum slices, so packing fans out over the
  // pool — plain-API GEMM calls (which pack per call) keep the dequant
  // parallelism the old in-kernel per-row dequant had.
  parallel_for(0, b.panels(), 1, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      int8_t* panel = b.data.data() + p * b.panel_stride();
      for (int64_t g = 0; g < b.k_padded / cpu::kKGroup; ++g) {
        for (int r = 0; r < nr; ++r) {
          const int64_t row = p * nr + r;
          if (row >= n) continue;
          for (int j = 0; j < cpu::kKGroup; ++j) {
            const int64_t col = g * cpu::kKGroup + j;
            if (col >= k) continue;
            const int code = code_at(row0 + row, col0 + col);
            panel[(g * nr + r) * cpu::kKGroup + j] =
                static_cast<int8_t>(code);
            b.row_sum[static_cast<size_t>(row)] += code;
          }
        }
      }
    }
  });
  return b;
}

PackSlice checked_slice(const PackSlice& s, int64_t n, int64_t k) {
  QS_CHECK(0 <= s.row0 && s.row0 <= s.row1 && s.row1 <= n);
  QS_CHECK(0 <= s.col0 && s.col0 <= s.col1 && s.col1 <= k);
  return s;
}

}  // namespace

PackedGemmB pack_gemm_b_slice(const W8PerChannel& w, int nr,
                              const PackSlice& sl) {
  const PackSlice s = checked_slice(sl, w.n(), w.k());
  PackedGemmB b = pack_panels(
      s.row1 - s.row0, s.col1 - s.col0, s.row0, s.col0, nr,
      /*unsigned_codes=*/false,
      [&](int64_t r, int64_t c) { return int(w.qw.at2(r, c)); });
  b.scale.assign(static_cast<size_t>(b.n), 0.0f);
  for (int64_t r = 0; r < b.n; ++r)
    b.scale[static_cast<size_t>(r)] = w.s[s.row0 + r];
  return b;
}

PackedGemmB pack_gemm_b_slice(const W4PerChannel& w, int nr,
                              const PackSlice& sl) {
  // Raw UINT4 codes are MAC'd directly; the zero-point term is handled in
  // the epilogue via tX * (z*s) (Eq. 12/13), carried here as zp_term.
  const PackSlice s = checked_slice(sl, w.n(), w.k());
  PackedGemmB b = pack_panels(
      s.row1 - s.row0, s.col1 - s.col0, s.row0, s.col0, nr,
      /*unsigned_codes=*/true,
      [&](int64_t r, int64_t c) { return int(get_u4(w.qw, r, c)); });
  b.scale.assign(static_cast<size_t>(b.n), 0.0f);
  b.zp_term.assign(static_cast<size_t>(b.n), 0.0f);
  for (int64_t r = 0; r < b.n; ++r) {
    b.scale[static_cast<size_t>(r)] = w.s[s.row0 + r];
    b.zp_term[static_cast<size_t>(r)] = w.szw[s.row0 + r];
  }
  return b;
}

PackedGemmB pack_gemm_b_slice(const W4PerGroup& w, int nr,
                              const PackSlice& sl) {
  // Level-2 dequant (q - z) * s1 restores the integer level-1 codes once, at
  // pack time. With the protective range (level1_range = 119) the code
  // always fits INT8; with the naive range (127) it can exceed it, and the
  // cast wraps exactly like the INT8 register in the GPU kernel — that
  // overflow is the accuracy bug the paper's Fig. 6 reproduces, so it must
  // not be asserted away. The group index is computed from the ABSOLUTE
  // column, so a k-slice needs no group alignment.
  const PackSlice s = checked_slice(sl, w.n(), w.k());
  PackedGemmB b = pack_panels(
      s.row1 - s.row0, s.col1 - s.col0, s.row0, s.col0, nr,
      /*unsigned_codes=*/false,
      [&](int64_t r, int64_t c) {
        const int64_t g = c / w.group;
        const int code = (int(get_u4(w.qw, r, c)) - int(w.z.at2(r, g))) *
                         int(w.s1.at2(r, g));
        return int(static_cast<int8_t>(code));
      });
  b.scale.assign(static_cast<size_t>(b.n), 0.0f);
  for (int64_t r = 0; r < b.n; ++r)
    b.scale[static_cast<size_t>(r)] = w.s0[s.row0 + r];
  return b;
}

PackedGemmB pack_gemm_b(const W8PerChannel& w, int nr) {
  return pack_gemm_b_slice(w, nr, PackSlice{0, w.n(), 0, w.k()});
}

PackedGemmB pack_gemm_b(const W4PerChannel& w, int nr) {
  return pack_gemm_b_slice(w, nr, PackSlice{0, w.n(), 0, w.k()});
}

PackedGemmB pack_gemm_b(const W4PerGroup& w, int nr) {
  return pack_gemm_b_slice(w, nr, PackSlice{0, w.n(), 0, w.k()});
}

}  // namespace qserve
