// Long-context terms of the serving estimator: a sliding window caps both
// the KV pool bytes and the decode attention cost at sinks + window, so the
// estimated decode curve flattens with context instead of growing linearly,
// and windowed throughput is never below full attention's.
#include <gtest/gtest.h>

#include "simulator/serving_model.h"

namespace qserve {
namespace {

using namespace qserve::sim;

ServingWorkload windowed_wl(int input_len, int output_len) {
  ServingWorkload wl;
  wl.input_len = input_len;
  wl.output_len = output_len;
  wl.attention_window = 4096;
  wl.sink_tokens = 64;
  return wl;
}

TEST(SimulatorLongContext, VisibleLenClampsAtSinkPlusWindow) {
  const ServingWorkload wl = windowed_wl(1024, 512);
  EXPECT_EQ(wl.visible_len(100), 100);
  EXPECT_EQ(wl.visible_len(4160), 4160);
  EXPECT_EQ(wl.visible_len(32768), 4096 + 64);
  ServingWorkload full;
  EXPECT_EQ(full.visible_len(32768), 32768);
}

TEST(SimulatorLongContext, WindowCapsKvPoolBytes) {
  const ModelConfig model = model_by_name("Llama-2-7B");
  const auto sys = system_profile(System::kQServePerChannel);
  ServingWorkload full;
  full.input_len = 28 * 1024;
  full.output_len = 4096;
  const ServingWorkload win = [&] {
    ServingWorkload w = windowed_wl(full.input_len, full.output_len);
    return w;
  }();
  const double full_bytes = kv_pool_bytes(sys, model, full, 8);
  const double win_bytes = kv_pool_bytes(sys, model, win, 8);
  // 32k tokens vs 4160 retained: ~7.9x smaller pool.
  EXPECT_NEAR(full_bytes / win_bytes, 32768.0 / 4160.0, 0.01);
  // And the bound actually admits bigger batches on a fixed device.
  EXPECT_GE(max_feasible_batch(a100_80g(), sys, model, win),
            max_feasible_batch(a100_80g(), sys, model, full));
}

TEST(SimulatorLongContext, WindowedDecodeFlattensAndNeverLoses) {
  // The end-to-end sanity check against bench_attention's long-context
  // shape: full attention's mid-decode attention term keeps growing with
  // context, the windowed term is constant once context > sinks + window,
  // and windowed throughput dominates full attention at every context
  // length.
  const ModelConfig model = model_by_name("Llama-2-7B");
  const auto sys = system_profile(System::kQServePerChannel);
  const DeviceSpec dev = a100_80g();
  double prev_full_attn = 0, prev_win_attn = 0;
  for (const int ctx : {8 * 1024, 16 * 1024, 28 * 1024}) {
    ServingWorkload full;
    full.input_len = ctx;
    full.output_len = 512;
    const ServingWorkload win = windowed_wl(ctx, 512);
    const ServingEstimate ef = estimate_throughput(dev, sys, model, full, 4);
    const ServingEstimate ew = estimate_throughput(dev, sys, model, win, 4);
    ASSERT_FALSE(ef.oom);
    ASSERT_FALSE(ew.oom);
    EXPECT_GE(ew.tokens_per_second, ef.tokens_per_second) << ctx;
    EXPECT_LT(ew.mid_decode_step.attention_seconds,
              ef.mid_decode_step.attention_seconds)
        << ctx;
    // Full attention's decode attention grows with context...
    EXPECT_GT(ef.mid_decode_step.attention_seconds, prev_full_attn) << ctx;
    prev_full_attn = ef.mid_decode_step.attention_seconds;
    // ...the windowed term is flat once ctx exceeds sinks + window.
    if (prev_win_attn > 0) {
      EXPECT_DOUBLE_EQ(ew.mid_decode_step.attention_seconds, prev_win_attn)
          << ctx;
    }
    prev_win_attn = ew.mid_decode_step.attention_seconds;
  }
}

TEST(SimulatorLongContext, WindowLargerThanContextChangesNothing) {
  const ModelConfig model = model_by_name("Llama-2-7B");
  const auto sys = system_profile(System::kQServePerChannel);
  const DeviceSpec dev = a100_80g();
  ServingWorkload full;
  full.input_len = 1024;
  full.output_len = 256;
  ServingWorkload win = full;
  win.attention_window = 4096;  // 1280 final tokens never reach the window
  win.sink_tokens = 64;
  const ServingEstimate ef = estimate_throughput(dev, sys, model, full, 8);
  const ServingEstimate ew = estimate_throughput(dev, sys, model, win, 8);
  EXPECT_DOUBLE_EQ(ef.tokens_per_second, ew.tokens_per_second);
  EXPECT_DOUBLE_EQ(kv_pool_bytes(sys, model, full, 8),
                   kv_pool_bytes(sys, model, win, 8));
}

}  // namespace
}  // namespace qserve
