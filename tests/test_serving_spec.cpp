// Speculative decoding subsystem: per-row logit plumbing through the batched
// executor (verify spans score all k+1 positions bitwise-identically to
// sequential decode steps), KV rollback via truncate_sequence, and the
// draft/verify engine loop's stats, callbacks and validation. The engine
// fuzzer (test_engine_fuzz.cpp) holds speculative streams to the solo
// reference across ISAs, thread counts, shard counts and preemption churn,
// in both high-acceptance (draft == target) and near-zero-acceptance
// (divergent draft) regimes.
#include <gtest/gtest.h>

#include <map>

#include "harness.h"

namespace qserve {
namespace {

// The 2-layer toy target.
const ModelWeights& target() { return toy_weights(toy_config(2)); }

EngineOutcome run(const Workload& w, const ModelWeights* draft,
                  int lookahead_k) {
  EngineRun spec;
  spec.target = &target();
  spec.draft = draft;
  spec.cfg.scheduler.max_batch = 4;
  spec.cfg.scheduler.prefill_chunk = 8;
  spec.cfg.speculative.lookahead_k = lookahead_k;
  return run_engine(spec, w);
}

// --- model level: per-row logits and rollback --------------------------------

TEST(QuantizedModel, VerifySpanLogitsMatchSequentialDecodesBitwise) {
  // A k+1-row decode span with logit_rows = k+1 must reproduce, at every
  // position, the exact logits of sequential decode_step calls — the
  // property the speculative verify forward rests on. Both go through
  // forward_step -> attend_spans, so this pins one multi-row span (whose
  // rows share each dequantized page tile) to k+1 one-row spans, row by row.
  QuantizedModel seq_m(target(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel bat_m(target(), QuantSchemeConfig::qserve_w4a8kv4_g128());

  const std::vector<int> ctx = {3, 1, 4, 1, 5, 9};
  const std::vector<int> cand = {42, 17, 8, 100};  // pending + 3 candidates

  const int ss = seq_m.begin_sequence();
  const int bs = bat_m.begin_sequence();
  seq_m.prefill(ss, ctx);
  bat_m.prefill(bs, ctx);

  std::vector<Tensor> expect;
  for (int t : cand) expect.push_back(seq_m.decode_step(ss, t));

  BatchedStep step;
  step.chunks.push_back({bs, cand, static_cast<int>(ctx.size()),
                         static_cast<int>(cand.size())});
  const Tensor got = bat_m.forward_step(step);
  ASSERT_EQ(got.rows(), static_cast<int64_t>(cand.size()));
  for (size_t i = 0; i < cand.size(); ++i)
    for (int64_t v = 0; v < got.cols(); ++v)
      ASSERT_EQ(got.at2(static_cast<int64_t>(i), v), expect[i][v])
          << "position " << i;
}

TEST(QuantizedModel, TruncateThenReappendMatchesNeverAppendedBitwise) {
  // Rollback: append a rejected tail, truncate it away, then continue — the
  // continued logits must equal a model that never saw the tail. Covers
  // mid-page truncation (the boundary page's slots are rewritten).
  QuantizedModel clean(target(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel rolled(target(), QuantSchemeConfig::qserve_w4a8kv4_g128());

  const std::vector<int> ctx = {7, 2, 9, 4};
  const int sc = clean.begin_sequence();
  const int sr = rolled.begin_sequence();
  clean.prefill(sc, ctx);
  rolled.prefill(sr, ctx);

  // rolled speculates 5 tokens (crossing the 16-token page boundary is
  // covered by the longer continuation below), rejects all but the first.
  BatchedStep spec;
  spec.chunks.push_back({sr, {11, 13, 17, 19, 23}, 4, 5});
  rolled.forward_step(spec);
  ASSERT_EQ(rolled.seq_pos(sr), 9);
  rolled.truncate_sequence(sr, 5);
  ASSERT_EQ(rolled.seq_pos(sr), 5);

  clean.decode_step(sc, 11);

  // Continue both with the same 14 tokens (crosses a page boundary).
  for (int t = 0; t < 14; ++t) {
    const Tensor a = clean.decode_step(sc, 50 + t);
    const Tensor b = rolled.decode_step(sr, 50 + t);
    for (int64_t v = 0; v < a.numel(); ++v) ASSERT_EQ(b[v], a[v]) << t;
  }

  // Truncating below / above the valid range fails loudly.
  EXPECT_THROW(rolled.truncate_sequence(sr, 100), CheckError);
  EXPECT_THROW(rolled.truncate_sequence(sr, -1), CheckError);
}

TEST(QuantizedModel, LogitRowSelectionShapesAndValidation) {
  QuantizedModel m(target(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int a = m.begin_sequence();
  const int b = m.begin_sequence();

  // Mixed logit_rows: a 3-token chunk wanting no logits (mid-prompt prefill)
  // stacked with a 2-token chunk wanting both rows.
  BatchedStep step;
  step.chunks.push_back({a, {1, 2, 3}, 0, /*logit_rows=*/0});
  step.chunks.push_back({b, {4, 5}, 0, /*logit_rows=*/2});
  const Tensor logits = m.forward_step(step);
  EXPECT_EQ(logits.rows(), 2);
  EXPECT_EQ(logits.cols(), m.config().vocab);

  // The two rows must equal chunk b's per-position logits computed alone.
  QuantizedModel solo(target(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int s = solo.begin_sequence();
  const Tensor l0 = solo.prefill(s, {4});
  const Tensor l1 = solo.decode_step(s, 5);
  for (int64_t v = 0; v < logits.cols(); ++v) {
    ASSERT_EQ(logits.at2(0, v), l0[v]);
    ASSERT_EQ(logits.at2(1, v), l1[v]);
  }

  // All chunks logit_rows = 0: the LM head is skipped, result is [0, vocab].
  BatchedStep none;
  none.chunks.push_back({a, {6}, 3, 0});
  const Tensor empty = m.forward_step(none);
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.cols(), m.config().vocab);

  // logit_rows outside [0, |tokens|] fails loudly.
  BatchedStep bad;
  bad.chunks.push_back({b, {7}, 2, 2});
  EXPECT_THROW(m.forward_step(bad), CheckError);
  BatchedStep neg;
  neg.chunks.push_back({b, {7}, 2, -1});
  EXPECT_THROW(m.forward_step(neg), CheckError);
}

// --- engine level: bitwise identity ------------------------------------------

// --- stats -------------------------------------------------------------------

TEST(ServingEngineSpec, StatsCountMultiTokenStepsHonestly) {
  const Workload w{{std::vector<int>(6, 3), std::vector<int>(4, 5)}, {12, 9}};
  const auto spec = run(w, &target(), 3);
  int64_t generated = 0;
  for (const auto& s : spec.streams)
    generated += static_cast<int64_t>(s.size());
  // Every generated token is either a first token or a decode token —
  // multi-token verify steps must not double- or under-count.
  EXPECT_EQ(spec.stats.first_tokens, 2);
  EXPECT_EQ(spec.stats.decode_tokens, generated - 2);
  EXPECT_GT(spec.stats.verify_steps, 0);
  EXPECT_EQ(spec.stats.proposed_tokens, 3 * spec.stats.verify_forwards);
  EXPECT_LE(spec.stats.accepted_tokens, spec.stats.proposed_tokens);
  // Acceptance working means fewer target verify forwards than decode
  // tokens emitted — the whole point of speculation.
  EXPECT_LT(spec.stats.target_forwards_per_decode_token, 1.0);
  EXPECT_GT(spec.stats.target_forwards_per_decode_token, 0.0);
  // Per-request counters sum to the engine totals.
  // (streams already checked; run again to read request state)
  QuantizedModel model(target(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel draft(target(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.speculative.lookahead_k = 3;
  ServingEngine engine(&model, &draft, cfg);
  std::vector<int> ids;
  for (size_t i = 0; i < w.prompts.size(); ++i)
    ids.push_back(engine.submit(w.prompts[i], w.max_new[i]));
  const EngineStats stats = engine.drain();
  int64_t proposed = 0, accepted = 0;
  for (int id : ids) {
    proposed += engine.request(id).draft_proposed;
    accepted += engine.request(id).draft_accepted;
  }
  EXPECT_EQ(proposed, stats.proposed_tokens);
  EXPECT_EQ(accepted, stats.accepted_tokens);
}

TEST(ServingEngineSpec, StreamingCallbacksSurviveSpeculation) {
  // Multi-token verify emissions must still fire on_token once per token in
  // stream order and on_finish exactly once.
  QuantizedModel model(target(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel draft(target(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.speculative.lookahead_k = 4;
  ServingEngine engine(&model, &draft, cfg);
  std::map<int, std::vector<int>> streamed;
  std::map<int, int> finishes;
  RequestOptions opts;
  std::vector<int> ids;
  for (int i = 0; i < 3; ++i) {
    opts.max_new_tokens = 5 + 3 * i;
    ids.push_back(engine.submit(
        std::vector<int>(3 + i, 2 + i), opts,
        [&](const Request& r, int token) {
          EXPECT_EQ(r.generated.back(), token);
          streamed[r.id].push_back(token);
          EXPECT_EQ(streamed[r.id].size(), r.generated.size());
        },
        [&](const Request& r) { ++finishes[r.id]; }));
  }
  engine.drain();
  for (int id : ids) {
    EXPECT_EQ(streamed[id], engine.request(id).generated);
    EXPECT_EQ(finishes[id], 1);
  }
}

// --- validation --------------------------------------------------------------

TEST(ServingEngineSpec, ValidationRejectsBadSpeculativeConfigs) {
  QuantizedModel model(target(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel draft(target(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  {
    EngineConfig bad;
    bad.temperature = 0.7f;  // speculation is greedy-only
    bad.speculative.lookahead_k = 2;
    EXPECT_THROW(ServingEngine(&model, &draft, bad), CheckError);
  }
  {
    EngineConfig bad;
    bad.speculative.lookahead_k = 0;
    EXPECT_THROW(ServingEngine(&model, &draft, bad), CheckError);
  }
  {
    // Vocabulary mismatch between draft and target.
    ModelConfig small = toy_config(1);
    small.vocab = 128;
    ModelWeights sw = make_synthetic_weights(small);
    QuantizedModel tiny(sw, QuantSchemeConfig::qserve_w4a8kv4_g128());
    EngineConfig cfg;
    cfg.speculative.lookahead_k = 2;
    EXPECT_THROW(ServingEngine(&model, &tiny, cfg), CheckError);
  }
  // A null draft is simply the non-speculative engine, whatever the config.
  EngineConfig ok;
  ok.temperature = 0.5f;
  ServingEngine plain(&model, nullptr, ok);
}

}  // namespace
}  // namespace qserve
