// Request-lifecycle robustness: structured FinishReasons (reject / shed /
// cancel / deadline / error), bounded admission, throwing-callback
// containment, and the deterministic fault-injection harness. The central
// invariant under test: any per-request failure — including injected KV
// allocation faults under preemption churn — finishes only the affected
// request (exactly one on_finish, a definite reason), leaks zero pages, and
// leaves every other request's token stream bitwise identical to a
// fault-free run. The engine fuzzer (test_engine_fuzz.cpp) composes the
// same finishes and injected faults with every other feature, across ISAs,
// thread counts and shard counts.
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "harness.h"

namespace qserve {
namespace {

const ModelWeights& weights() { return toy_weights(toy_config(1)); }

Workload make_workload(int n, uint64_t seed) {
  Rng rng(seed);
  return random_workload(rng, n, {3, 12}, {4, 14});
}

// ---------------------------------------------------------------------------
// Fault-injection module
// ---------------------------------------------------------------------------

TEST(FaultInjection, DisabledIsFreeAndNeverFires) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  EXPECT_FALSE(fault::enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fault::should_fail("nope"));
  fault::maybe_fail("nope");  // must not throw
}

TEST(FaultInjection, DeterministicSiteKeyedDraws) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const auto draw_hits = [](double rate, uint64_t seed, int n) {
    fault::set_site("site_a", rate, seed);
    std::set<int> hits;
    for (int i = 0; i < n; ++i)
      if (fault::should_fail("site_a")) hits.insert(i);
    return hits;
  };
  const std::set<int> first = draw_hits(0.3, 42, 200);
  const std::set<int> again = draw_hits(0.3, 42, 200);
  EXPECT_EQ(first, again) << "same (site, rate, seed) must reproduce";
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 200u);
  // A different seed draws a different schedule (overwhelmingly likely for
  // these parameters; pinned by the deterministic hash).
  EXPECT_NE(draw_hits(0.3, 43, 200), first);
  // Counters track both sides of the draw.
  fault::set_site("site_a", 0.3, 42);
  int injected = 0;
  for (int i = 0; i < 200; ++i) injected += fault::should_fail("site_a");
  EXPECT_EQ(fault::counters("site_a").draws, 200);
  EXPECT_EQ(fault::counters("site_a").injected, injected);
  EXPECT_EQ(static_cast<size_t>(injected), first.size());
}

TEST(FaultInjection, RateEndpointsAndUnknownSites) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  fault::set_site("never", 0.0, 1);
  fault::set_site("always", 1.0, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(fault::should_fail("never"));
    EXPECT_TRUE(fault::should_fail("always"));
    EXPECT_FALSE(fault::should_fail("unarmed"));
  }
  EXPECT_THROW(fault::maybe_fail("always"), FaultInjectedError);
  try {
    fault::maybe_fail("always");
    FAIL() << "must throw";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.site(), "always");
  }
  EXPECT_EQ(fault::counters("unarmed").draws, 0);
}

TEST(FaultInjection, ConfigureParsesSpecStrings) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  fault::configure("kv_alloc:0.5:7, kv_append:0.0 ,engine_step:1.0:3");
  EXPECT_TRUE(fault::enabled());
  bool step_fired = fault::should_fail(fault::kEngineStep);
  EXPECT_TRUE(step_fired);
  for (int i = 0; i < 20; ++i)
    EXPECT_FALSE(fault::should_fail(fault::kKvAppend));
  fault::configure("");
  EXPECT_FALSE(fault::enabled());
  EXPECT_THROW(fault::configure("missing_rate"), CheckError);
  EXPECT_THROW(fault::configure("site:2.0"), CheckError);
  EXPECT_THROW(fault::configure("site:abc"), CheckError);
}

// ---------------------------------------------------------------------------
// Structured finishes: rejection, shedding, backpressure
// ---------------------------------------------------------------------------

TEST(Lifecycle, UnservableSubmissionsRejectNotAbort) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  QuantizedModel model(weights(), pool_scheme(4));
  ServingEngine engine(&model, EngineConfig{});

  std::vector<FinishReason> seen;
  const auto on_finish = [&seen](const Request& r) {
    seen.push_back(r.finish_reason);
  };
  // Empty prompt.
  const int a = engine.submit({}, RequestOptions{}, nullptr, on_finish);
  // Non-positive token budget.
  RequestOptions bad;
  bad.max_new_tokens = 0;
  const int b = engine.submit({1, 2}, bad, nullptr, on_finish);
  // Larger than the entire pool (4 pages * 16 tokens = 64-token pool).
  const int c = engine.submit(std::vector<int>(200, 7), RequestOptions{},
                              nullptr, on_finish);
  // Token ids outside [0, vocab): the forward would throw mid-step and take
  // every co-scheduled request down with it.
  const int vocab = static_cast<int>(model.config().vocab);
  const int d = engine.submit({1, vocab}, RequestOptions{}, nullptr, on_finish);
  const int e = engine.submit({-1, 2}, RequestOptions{}, nullptr, on_finish);
  ASSERT_EQ(seen.size(), 5u) << "on_finish fires during submit()";
  for (FinishReason r : seen) EXPECT_EQ(r, FinishReason::kRejected);
  for (int id : {a, b, c, d, e}) {
    EXPECT_TRUE(engine.request(id).done());
    EXPECT_FALSE(engine.request(id).error.empty());
    EXPECT_TRUE(engine.request(id).generated.empty());
  }
  // The engine still serves well-formed work afterwards.
  const int good = engine.submit({3, 4, 5}, 4);
  engine.drain();
  EXPECT_EQ(engine.request(good).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.request(good).generated.size(), 4u);
  EXPECT_EQ(engine.stats().rejected, 5);
  EXPECT_EQ(engine.stats().completed, 1);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(Lifecycle, BoundedQueueShedsAndTrySubmitReportsBackpressure) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  QuantizedModel model(weights(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.max_queued_requests = 2;
  ServingEngine engine(&model, cfg);

  const int a = engine.submit({1, 2}, 3);
  const int b = engine.submit({3, 4}, 3);
  // Queue is at its cap: try_submit refuses WITHOUT creating a request...
  EXPECT_EQ(engine.try_submit({5, 6}, RequestOptions{}), -1);
  // ...while submit() creates one and sheds it with an immediate finish.
  bool shed_finished = false;
  const int c = engine.submit({5, 6}, RequestOptions{}, nullptr,
                              [&shed_finished](const Request& r) {
                                shed_finished = true;
                                EXPECT_EQ(r.finish_reason,
                                          FinishReason::kShedOverload);
                              });
  EXPECT_TRUE(shed_finished);
  EXPECT_TRUE(engine.request(c).done());
  // Invalid input through try_submit is still a rejection, not backpressure:
  // retrying an empty prompt can never succeed.
  const int d = engine.try_submit({}, RequestOptions{});
  EXPECT_GE(d, 0);
  EXPECT_EQ(engine.request(d).finish_reason, FinishReason::kRejected);

  engine.drain();
  EXPECT_EQ(engine.request(a).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.request(b).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.stats().shed, 1);
  EXPECT_EQ(engine.stats().rejected, 1);
  EXPECT_EQ(engine.stats().queue_depth_high_water, 2);
  // Once drained, the queue has room again.
  EXPECT_GE(engine.try_submit({7, 8}, RequestOptions{}), 0);
  engine.drain();
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(Lifecycle, PromptTokenCapShedsIndependentlyOfRequestCap) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  QuantizedModel model(weights(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.max_queued_prompt_tokens = 10;
  ServingEngine engine(&model, cfg);
  const int a = engine.submit(std::vector<int>(6, 1), 2);  // 6 queued tokens
  EXPECT_EQ(engine.try_submit(std::vector<int>(5, 2), RequestOptions{}), -1);
  const int b = engine.submit(std::vector<int>(4, 3), 2);  // 6 + 4 fits
  const int c = engine.submit(std::vector<int>(1, 4), 2);  // 11 > 10: shed
  engine.drain();
  EXPECT_EQ(engine.request(a).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.request(b).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.request(c).finish_reason, FinishReason::kShedOverload);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(Lifecycle, CancelQueuedRunningAndFinished) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const Workload w = make_workload(3, 11);
  const auto solo = solo_streams(weights(), w);
  QuantizedModel model(weights(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 1;  // keeps request 2 queued while 0 runs
  ServingEngine engine(&model, cfg);
  int finishes = 0;
  std::vector<int> ids;
  for (size_t i = 0; i < 3; ++i) {
    RequestOptions opts;
    opts.max_new_tokens = w.max_new[i];
    ids.push_back(engine.submit(w.prompts[i], opts, nullptr,
                                [&finishes](const Request&) { ++finishes; }));
  }
  // Queued-then-cancelled: request 2 has no KV state yet.
  EXPECT_TRUE(engine.cancel(ids[2]));
  EXPECT_TRUE(engine.request(ids[2]).done());
  EXPECT_EQ(engine.request(ids[2]).finish_reason, FinishReason::kCancelled);
  EXPECT_TRUE(engine.request(ids[2]).generated.empty());
  // Running-then-cancelled: step until request 0 has 2 tokens, then cancel
  // from outside the step loop — it must keep an exact prefix of its solo
  // stream and free its pages immediately.
  int steps = 0;
  while (engine.request(ids[0]).generated.size() < 2) {
    ASSERT_TRUE(engine.step());
    ASSERT_LT(++steps, 1000);
  }
  EXPECT_TRUE(engine.cancel(ids[0]));
  EXPECT_EQ(engine.request(ids[0]).finish_reason, FinishReason::kCancelled);
  EXPECT_TRUE(is_prefix(engine.request(ids[0]).generated, solo[0]));
  // Cancelling again, or cancelling a finished request, reports false.
  EXPECT_FALSE(engine.cancel(ids[0]));
  EXPECT_FALSE(engine.cancel(ids[2]));
  engine.drain();
  EXPECT_EQ(engine.request(ids[1]).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.request(ids[1]).generated, solo[1]);
  EXPECT_FALSE(engine.cancel(ids[1]));
  EXPECT_EQ(finishes, 3);
  EXPECT_EQ(engine.stats().cancelled, 2);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(Lifecycle, CancelFromOnTokenMidStream) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const Workload w = make_workload(4, 12);
  const auto solo = solo_streams(weights(), w);
  const std::vector<int> cancel_at = {2, -1, 3, -1};
  EngineRun run;
  run.target = &weights();
  for (const int at : cancel_at) {
    RequestScript s;
    s.cancel_at_token = at;
    run.script.push_back(s);
  }
  const EngineOutcome out = run_engine(run, w);
  for (size_t i = 0; i < 4; ++i) {
    const FinishReason reason = out.samples[i][0].finish_reason;
    if (cancel_at[i] >= 0 && cancel_at[i] < w.max_new[i]) {
      EXPECT_EQ(reason, FinishReason::kCancelled) << i;
      EXPECT_EQ(static_cast<int>(out.streams[i].size()), cancel_at[i]) << i;
      EXPECT_TRUE(is_prefix(out.streams[i], solo[i])) << i;
    } else {
      EXPECT_EQ(reason, FinishReason::kLength) << i;
      EXPECT_EQ(out.streams[i], solo[i]) << i;
    }
  }
  EXPECT_EQ(out.stats.cancelled, 2);
}

TEST(Lifecycle, PreemptedThenCancelledLeavesNothingDangling) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  // A 4-page pool (64 tokens, page 16) with multi-page prompts forces
  // eviction churn; cancelling mid-churn must work whether the victim is
  // currently running or sitting evicted in the queue, with zero pages left
  // after drain.
  Workload w;
  for (int i = 0; i < 6; ++i) {
    w.prompts.push_back(std::vector<int>(static_cast<size_t>(20 + 3 * i),
                                         100 + i));
    w.max_new.push_back(6);
  }
  QuantizedModel model(weights(), pool_scheme(4));
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  ServingEngine engine(&model, cfg);
  std::vector<int> ids;
  int finishes = 0;
  for (size_t i = 0; i < w.prompts.size(); ++i) {
    RequestOptions opts;
    opts.max_new_tokens = w.max_new[i];
    ids.push_back(engine.submit(w.prompts[i], opts, nullptr,
                                [&finishes](const Request&) { ++finishes; }));
  }
  // Let churn develop, then cancel whatever is mid-flight.
  int warm = 0;
  while (engine.stats().preemptions < 1 && engine.step())
    ASSERT_LT(++warm, 5000);
  EXPECT_GE(engine.stats().preemptions, 1) << "pool must be under pressure";
  engine.cancel(ids[1]);
  engine.cancel(ids[4]);
  int guard_steps = 0;
  while (engine.step()) ASSERT_LT(++guard_steps, 5000);
  for (int id : ids) {
    EXPECT_TRUE(engine.request(id).done());
    EXPECT_EQ(engine.request(id).seq_handle, -1);
    EXPECT_EQ(engine.request(id).draft_seq_handle, -1);
  }
  EXPECT_EQ(finishes, static_cast<int>(ids.size()));
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(Lifecycle, DeadlineAndTtftDeadlineExpire) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const Workload w = make_workload(2, 14);
  const auto solo = solo_streams(weights(), w);
  QuantizedModel model(weights(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 1;  // the second request waits behind the first
  ServingEngine engine(&model, cfg);
  // Request 0: generous budget but a 3-step completion deadline — it expires
  // mid-decode holding an exact prefix of its solo stream.
  RequestOptions opts0;
  opts0.max_new_tokens = 50;
  opts0.deadline_steps = 3;
  const int a = engine.submit(w.prompts[0], opts0, nullptr, nullptr);
  // Request 1: TTFT deadline it cannot meet while queued behind request 0's
  // admission (batch of one) — expires without ever producing a token.
  RequestOptions opts1;
  opts1.max_new_tokens = 4;
  opts1.ttft_deadline_steps = 2;
  const int b = engine.submit(w.prompts[1], opts1, nullptr, nullptr);
  int steps = 0;
  while (engine.step()) ASSERT_LT(++steps, 1000);
  EXPECT_EQ(engine.request(a).finish_reason, FinishReason::kDeadline);
  EXPECT_TRUE(is_prefix(engine.request(a).generated, solo[0]));
  EXPECT_LT(engine.request(a).generated.size(), 50u);
  EXPECT_EQ(engine.request(b).finish_reason, FinishReason::kDeadline);
  EXPECT_TRUE(engine.request(b).generated.empty());
  EXPECT_EQ(engine.stats().deadline_expired, 2);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
  // A deadline later than completion never fires.
  RequestOptions relaxed;
  relaxed.max_new_tokens = 3;
  relaxed.deadline_steps = 10000;
  const int c = engine.submit(w.prompts[1], relaxed, nullptr, nullptr);
  engine.drain();
  EXPECT_EQ(engine.request(c).finish_reason, FinishReason::kLength);
}

// ---------------------------------------------------------------------------
// Throwing user callbacks
// ---------------------------------------------------------------------------

TEST(Lifecycle, ThrowingOnTokenFailsOnlyItsRequest) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const Workload w = make_workload(2, 15);
  const auto solo = solo_streams(weights(), w);
  QuantizedModel model(weights(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  ServingEngine engine(&model, EngineConfig{});
  int finishes = 0;
  const int bad = engine.submit(
      w.prompts[0], RequestOptions{},
      [](const Request& r, int) {
        if (r.generated.size() == 2) throw std::runtime_error("user bug");
      },
      [&finishes](const Request& r) {
        ++finishes;
        EXPECT_EQ(r.finish_reason, FinishReason::kError);
      });
  RequestOptions opts1;
  opts1.max_new_tokens = w.max_new[1];
  const int good = engine.submit(w.prompts[1], opts1, nullptr,
                                 [&finishes](const Request&) { ++finishes; });
  int steps = 0;
  while (engine.step()) ASSERT_LT(++steps, 1000);
  EXPECT_EQ(engine.request(bad).finish_reason, FinishReason::kError);
  EXPECT_EQ(engine.request(bad).error, "on_token callback threw");
  EXPECT_EQ(engine.request(bad).generated.size(), 2u);
  // The bystander's stream is untouched by its neighbour's exploding
  // callback.
  EXPECT_EQ(engine.request(good).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.request(good).generated, solo[1]);
  EXPECT_EQ(finishes, 2);
  EXPECT_EQ(engine.stats().errored, 1);
  EXPECT_EQ(engine.stats().callback_exceptions, 1);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(Lifecycle, ThrowingOnFinishIsContained) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  QuantizedModel model(weights(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  ServingEngine engine(&model, EngineConfig{});
  const int id = engine.submit({1, 2, 3}, RequestOptions{}, nullptr,
                               [](const Request&) {
                                 throw std::runtime_error("finish bug");
                               });
  engine.drain();  // must not propagate
  EXPECT_EQ(engine.request(id).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.stats().callback_exceptions, 1);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

// ---------------------------------------------------------------------------
// Injected faults
// ---------------------------------------------------------------------------

// EngineStats counters add up for a mixed outcome, including the speculative
// engine.
TEST(Lifecycle, StatsCountersSumToFinishedRequests) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const Workload w = make_workload(5, 21);
  for (const bool speculative : {false, true}) {
    QuantizedModel model(weights(),
                         QuantSchemeConfig::qserve_w4a8kv4_g128());
    std::unique_ptr<QuantizedModel> draft;
    if (speculative)
      draft = std::make_unique<QuantizedModel>(
          weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
    EngineConfig cfg;
    cfg.max_queued_requests = 4;
    cfg.speculative.lookahead_k = 2;
    ServingEngine engine(&model, draft.get(), cfg);
    std::vector<int> ids;
    for (size_t i = 0; i < w.prompts.size(); ++i) {
      RequestOptions opts;
      opts.max_new_tokens = w.max_new[i];
      if (i == 1) opts.deadline_steps = 10000;  // never fires
      ids.push_back(engine.submit(w.prompts[i], opts, nullptr, nullptr));
    }
    // 5th submission shed (cap 4), plus one rejection and one cancellation.
    const int rejected = engine.submit({}, RequestOptions{}, nullptr, nullptr);
    engine.cancel(ids[2]);
    engine.drain();
    const EngineStats& s = engine.stats();
    EXPECT_EQ(s.shed, 1) << "speculative=" << speculative;
    EXPECT_EQ(s.rejected, 1);
    EXPECT_EQ(s.cancelled, 1);
    EXPECT_EQ(s.completed, 3);
    EXPECT_EQ(s.deadline_expired, 0);
    EXPECT_EQ(s.errored, 0);
    EXPECT_TRUE(engine.request(rejected).done());
    EXPECT_GE(s.queue_depth_high_water, 4);
    EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
    if (draft) {
      EXPECT_EQ(draft->kv_cache().pages_in_use(), 0);
    }
  }
}

}  // namespace
}  // namespace qserve
