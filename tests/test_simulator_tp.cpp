// Tensor-parallel scaling calibration (MLSYSIM discipline): the simulator's
// first-principles TP decode model against the engine's measured 1/2/4-shard
// scaling curve. The model-shape tests always run; the measurement comparison
// skips gracefully on single-core runners where partitioned pools time-slice
// one core and wall-clock scaling is pure scheduler noise.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "serving/engine.h"
#include "simulator/serving_model.h"
#include "simulator/system_config.h"

namespace qserve {
namespace {

using namespace qserve::sim;

TpScalingEstimate tp_est(const qserve::ModelConfig& m, int shards,
                         int threads) {
  return estimate_tp_decode_scaling(a100_80g(),
                                    system_profile(System::kQServePerChannel),
                                    m, /*batch=*/4, /*seq_len=*/64, shards,
                                    threads);
}

TEST(TpScalingModel, SingleShardIsTheBaseline) {
  const qserve::ModelConfig m = toy_config_mha(2);
  const TpScalingEstimate one = tp_est(m, 1, 8);
  EXPECT_DOUBLE_EQ(one.relative_throughput, 1.0);
  EXPECT_DOUBLE_EQ(one.comm_seconds, 0.0);
  EXPECT_GT(one.step_seconds, 0.0);
}

TEST(TpScalingModel, FixedBudgetScalingIsBoundedAndCommGrows) {
  // With the thread budget partitioned across shards, TP adds no FLOPs:
  // relative throughput must stay <= 1 and degrade through the reduction /
  // concat boundary as shards grow — never collapse (comm is a small
  // fraction of the step at these shapes).
  const qserve::ModelConfig m = toy_config_mha(2);
  double prev_comm = 0.0;
  for (const int s : {2, 4}) {
    const TpScalingEstimate est = tp_est(m, s, 8);
    EXPECT_LE(est.relative_throughput, 1.0) << s << " shards";
    EXPECT_GT(est.relative_throughput, 0.5) << s << " shards";
    EXPECT_GT(est.comm_seconds, prev_comm) << s << " shards";
    EXPECT_LT(est.comm_seconds, est.step_seconds) << s << " shards";
    prev_comm = est.comm_seconds;
  }
  // Uneven partition (8 threads / 3 shards leaves threads idle) predicts
  // strictly worse than the even 4-shard split's compute term alone.
  EXPECT_LT(tp_est(m, 3, 8).relative_throughput, 1.0);
}

TEST(TpScalingModel, OversubscribedHostTimeSlicesEvenly) {
  // T < S: the engine's leader threads oversubscribe the host; the model
  // time-slices the device across shards, so the step costs roughly the
  // single-shard step plus the boundary — still <= 1 relative.
  const qserve::ModelConfig m = toy_config_mha(2);
  const TpScalingEstimate est = tp_est(m, 4, 1);
  EXPECT_LE(est.relative_throughput, 1.0);
  EXPECT_GT(est.relative_throughput, 0.5);
}

// --- calibration against the measured engine ---------------------------------

double measured_decode_tps(const ModelWeights& weights, int shards) {
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_per_channel(),
                       TpConfig{shards});
  ServingEngine engine(&model, nullptr, EngineConfig{});
  Rng rng(99);
  for (int i = 0; i < 4; ++i) {
    std::vector<int> prompt(16);
    for (auto& t : prompt) t = rng.uniform_int(0, 511);
    engine.submit(prompt, /*max_new_tokens=*/48);
  }
  const EngineStats stats = engine.drain();
  return stats.decode_tokens_per_second;
}

TEST(TpScalingCalibration, PredictionTracksMeasuredShardCurve) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) {
    GTEST_SKIP() << "single-core runner: shard pools time-slice one core and "
                    "measured scaling is scheduler noise";
  }
  const int threads = static_cast<int>(hw < 8 ? hw : 8);
  set_num_threads(threads);
  set_tp_shards(0);

  const ModelWeights weights = make_synthetic_weights(toy_config_mha(2));
  // Warm-up run so lazy pool/leader spawning is off the measured path.
  (void)measured_decode_tps(weights, 2);

  const double base = measured_decode_tps(weights, 1);
  ASSERT_GT(base, 0.0);
  for (const int s : {2, 4}) {
    const double measured_rel = measured_decode_tps(weights, s) / base;
    const double predicted_rel =
        tp_est(toy_config_mha(2), s, threads).relative_throughput;
    // Generous bound: a toy model on a shared CI host measures with real
    // variance, but the prediction must land on the right curve — near flat,
    // not near linear speedup or collapse.
    EXPECT_NEAR(predicted_rel, measured_rel, 0.75 * measured_rel)
        << s << " shards at " << threads << " threads (measured "
        << measured_rel << ", predicted " << predicted_rel << ")";
  }
  set_num_threads(0);
}

}  // namespace
}  // namespace qserve
