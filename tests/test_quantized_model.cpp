// Quantized executor: scheme plumbing, KV-precision effects, accuracy
// ordering across precisions (the Table-2 claim at toy scale), and
// prefill/decode streaming consistency.
#include "model/quantized_model.h"

#include <gtest/gtest.h>

#include "eval/harness.h"
#include "model/reference_model.h"

namespace qserve {
namespace {

struct Fixture {
  ModelWeights weights;
  ReferenceModel ref;
  std::vector<int> tokens;
  Tensor ref_logits;

  Fixture() : weights(make_synthetic_weights(toy_config(2))), ref(&weights) {
    for (int i = 0; i < 20; ++i) tokens.push_back((11 * i + 5) % 512);
    ref_logits = ref.forward(tokens);
  }
};

const Fixture& fixture() {
  static Fixture* f = new Fixture();
  return *f;
}

double logits_rel_err(const Tensor& a, const Tensor& b) {
  double num = 0, den = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    num += std::abs(double(a[i]) - b[i]);
    den += std::abs(double(b[i]));
  }
  return num / den;
}

TEST(QuantizedModel, Fp16SchemeNearlyExact) {
  const auto& f = fixture();
  QuantizedModel qm(f.weights, QuantSchemeConfig::fp16());
  const Tensor logits = qm.forward(f.tokens);
  EXPECT_LT(logits_rel_err(logits, f.ref_logits), 0.01);
}

TEST(QuantizedModel, W8A8CloseToReference) {
  const auto& f = fixture();
  QuantizedModel qm(f.weights, QuantSchemeConfig::trt_w8a8());
  EXPECT_LT(logits_rel_err(qm.forward(f.tokens), f.ref_logits), 0.08);
}

TEST(QuantizedModel, PrecisionErrorOrdering) {
  // W8A8 <= W4A8KV4-g128 <= W4A4: the central accuracy claim at toy scale.
  const auto& f = fixture();
  QuantizedModel m8(f.weights, QuantSchemeConfig::trt_w8a8());
  QuantizedModel m48(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel m44(f.weights, QuantSchemeConfig::atom_w4a4());
  const double e8 = logits_rel_err(m8.forward(f.tokens), f.ref_logits);
  const double e48 = logits_rel_err(m48.forward(f.tokens), f.ref_logits);
  const double e44 = logits_rel_err(m44.forward(f.tokens), f.ref_logits);
  EXPECT_LT(e8, e48);
  EXPECT_LT(e48, e44);
}

TEST(QuantizedModel, PerGroupBeatsPerChannel) {
  const auto& f = fixture();
  QuantizedModel mg(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel mc(f.weights, QuantSchemeConfig::qserve_w4a8kv4_per_channel());
  EXPECT_LT(logits_rel_err(mg.forward(f.tokens), f.ref_logits),
            logits_rel_err(mc.forward(f.tokens), f.ref_logits));
}

TEST(QuantizedModel, Kv4WorseThanKv8WithoutSmoothing) {
  // Key outliers make naive KV4 visibly worse than KV8 (Fig. 16 step 5).
  const auto& f = fixture();
  QuantSchemeConfig kv8 = QuantSchemeConfig::qserve_w4a8kv4_g128();
  kv8.kv = KvPrecision::kInt8;
  QuantizedModel m8(f.weights, kv8);
  QuantizedModel m4(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  EXPECT_LT(logits_rel_err(m8.forward(f.tokens), f.ref_logits),
            logits_rel_err(m4.forward(f.tokens), f.ref_logits));
}

TEST(QuantizedModel, PrefillThenDecodeMatchesBatchForward) {
  const auto& f = fixture();
  QuantizedModel qm(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());

  // Batch forward over the full sequence.
  const Tensor batch_logits = qm.forward(f.tokens);

  // Streaming: prefill all but last, then decode the last token.
  const int seq = qm.begin_sequence();
  std::vector<int> prompt(f.tokens.begin(), f.tokens.end() - 1);
  qm.prefill(seq, prompt);
  const Tensor dec = qm.decode_step(seq, f.tokens.back());
  qm.end_sequence(seq);

  const int64_t last = batch_logits.rows() - 1;
  for (int64_t v = 0; v < 64; ++v)
    EXPECT_NEAR(dec[v], batch_logits.at2(last, v),
                2e-2f * std::abs(batch_logits.at2(last, v)) + 2e-2f);
}

TEST(QuantizedModel, ChunkedPrefillBitwiseMatchesMonolithic) {
  // prefill over uneven slices must reproduce the monolithic prefill
  // exactly: same KV page contents (per-token quantization is independent of
  // chunking), same causal attention (the mask offsets against the cached
  // prefix), same final logits bit for bit.
  const auto& f = fixture();
  QuantizedModel mono(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel chunked(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());

  const int sm = mono.begin_sequence();
  const Tensor lm = mono.prefill(sm, f.tokens);

  const int sc = chunked.begin_sequence();
  Tensor lc;
  int pos = 0;
  for (const int step : {7, 1, 9, 3}) {  // 7+1+9+3 = 20 = |tokens|
    std::vector<int> slice(f.tokens.begin() + pos,
                           f.tokens.begin() + pos + step);
    lc = chunked.prefill(sc, slice);
    pos += step;
  }
  EXPECT_EQ(chunked.seq_pos(sc), 20);
  for (int64_t v = 0; v < lm.numel(); ++v) EXPECT_EQ(lm[v], lc[v]) << v;

  // The next decode step continues identically from either cache state.
  const Tensor dm = mono.decode_step(sm, 42);
  const Tensor dc = chunked.decode_step(sc, 42);
  for (int64_t v = 0; v < dm.numel(); ++v) EXPECT_EQ(dm[v], dc[v]) << v;
  mono.end_sequence(sm);
  chunked.end_sequence(sc);
}

TEST(QuantizedModel, PrefillChunkRejectsWrongPosition) {
  const auto& f = fixture();
  QuantizedModel qm(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int seq = qm.begin_sequence();
  qm.prefill(seq, {1, 2, 3});
  BatchedStep wrong_pos;
  wrong_pos.chunks.push_back({seq, {4}, 1, 1});  // pos0 must be 3
  EXPECT_THROW(qm.forward_step(wrong_pos), CheckError);
  qm.end_sequence(seq);
}

TEST(QuantizedModel, SequencesAreIndependent) {
  const auto& f = fixture();
  QuantizedModel qm(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int a = qm.begin_sequence();
  const int b = qm.begin_sequence();
  const Tensor la1 = qm.prefill(a, {1, 2, 3});
  qm.prefill(b, {400, 401, 402, 403});
  // Sequence a's next decode must not be affected by b's existence.
  const Tensor la2 = qm.decode_step(a, 4);
  qm.end_sequence(a);
  qm.end_sequence(b);

  QuantizedModel qm2(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int c = qm2.begin_sequence();
  qm2.prefill(c, {1, 2, 3});
  const Tensor lc = qm2.decode_step(c, 4);
  for (int64_t v = 0; v < la2.numel(); ++v) EXPECT_EQ(la2[v], lc[v]);
  (void)la1;
}

TEST(QuantizedModel, EndSequenceReleasesKvPages) {
  const auto& f = fixture();
  QuantizedModel qm(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int seq = qm.begin_sequence();
  qm.prefill(seq, f.tokens);
  EXPECT_GT(qm.kv_cache().pages_in_use(), 0);
  qm.end_sequence(seq);
  EXPECT_EQ(qm.kv_cache().pages_in_use(), 0);
}

TEST(QuantizedModel, SequenceHandlesAreChecked) {
  // Every call taking a sequence handle rejects one that names no live
  // sequence: below range, one past the last slot, or already ended.
  const auto& f = fixture();
  QuantizedModel qm(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int live = qm.begin_sequence();
  const int ended = qm.begin_sequence();
  qm.end_sequence(ended);
  const int past_end = ended + 1;  // the model holds two sequence slots
  for (const int bad : {-1, past_end, ended}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(qm.seq_pos(bad), CheckError);
    EXPECT_THROW(qm.end_sequence(bad), CheckError);
    EXPECT_THROW(qm.truncate_sequence(bad, 0), CheckError);
    EXPECT_THROW(qm.fork_sequence(bad, 0), CheckError);
    EXPECT_THROW(qm.set_sequence_window(bad, 0, 64, 16), CheckError);
    EXPECT_THROW(qm.sequence_page_generations(bad), CheckError);
    EXPECT_THROW(qm.sequence_shared_pages(bad), CheckError);
    EXPECT_THROW(qm.prefill(bad, {1}), CheckError);
    BatchedStep step;
    step.chunks.push_back({bad, {1}, 0, 1});
    EXPECT_THROW(qm.forward_step(step), CheckError);
    EXPECT_THROW(qm.decode_step(bad, 1), CheckError);
  }
  EXPECT_EQ(qm.seq_pos(live), 0);
  qm.end_sequence(live);
  EXPECT_EQ(qm.kv_cache().pages_in_use(), 0);
}

TEST(QuantizedModel, EveryEntryPointRejectsOutOfVocabTokens) {
  const auto& f = fixture();
  QuantizedModel qm(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int vocab = static_cast<int>(qm.config().vocab);
  const int seq = qm.begin_sequence();
  for (const int bad : {vocab + 5, vocab, -1}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(qm.prefill(seq, {1, bad}), CheckError);
    BatchedStep step;
    step.chunks.push_back({seq, {bad}, 0, 1});
    EXPECT_THROW(qm.forward_step(step), CheckError);
    EXPECT_THROW(qm.decode_step(seq, bad), CheckError);
    EXPECT_THROW(qm.forward({1, bad}), CheckError);
    EXPECT_EQ(qm.seq_pos(seq), 0);
    EXPECT_EQ(qm.kv_cache().pages_in_use(), 0);
  }
  // forward() released its scratch sequence on every throw, so the next
  // handle reuses that slot instead of growing past leaked ones.
  EXPECT_EQ(qm.begin_sequence(), seq + 1);
}

TEST(QuantizedModel, NaiveLevel1RangeDegradesVsProtective) {
  // Using the full [-127,127] level-1 range without saturation is exactly
  // the overflow hazard; our kernel clamps in debug but the codes degrade.
  const auto& f = fixture();
  QuantSchemeConfig prot = QuantSchemeConfig::qserve_w4a8kv4_g128();
  QuantSchemeConfig naive = prot;
  naive.level1_range = 127;
  QuantizedModel mp(f.weights, prot);
  QuantizedModel mn(f.weights, naive);
  const double ep = logits_rel_err(mp.forward(f.tokens), f.ref_logits);
  const double en = logits_rel_err(mn.forward(f.tokens), f.ref_logits);
  // Protective range costs a little range (119 vs 127) but both must stay
  // in the same accuracy regime; this documents the trade-off is tiny.
  EXPECT_LT(ep, en * 3.0 + 0.05);
}

}  // namespace
}  // namespace qserve
