#include "runner.h"

#include <algorithm>

#include "serving/scheduler.h"

namespace servebench {

using qserve::EngineConfig;
using qserve::FinishReason;
using qserve::QuantizedModel;
using qserve::Request;
using qserve::RequestState;
using qserve::ServingEngine;

qserve::ModelConfig bench_model_config(bool toy) {
  qserve::ModelConfig c;
  c.name = toy ? "servebench-toy" : "servebench";
  c.hidden = toy ? 128 : 512;
  c.n_layers = toy ? 2 : 4;
  c.n_heads = toy ? 4 : 8;
  c.n_kv_heads = 2;
  c.head_dim = toy ? 32 : 64;
  c.ffn_dim = toy ? 384 : 1536;
  c.vocab = toy ? 512 : 2048;
  return c;
}

std::unique_ptr<Setup> build_setup(const qserve::ModelConfig& cfg,
                                   const WorkloadSpec& spec, int length_div) {
  auto s = std::make_unique<Setup>();
  s->weights = qserve::make_synthetic_weights(cfg);
  qserve::QuantSchemeConfig q = qserve::QuantSchemeConfig::qserve_w4a8kv4_g128();
  const int64_t pool = kv_pool_pages(spec, cfg.n_layers, length_div);
  if (pool > 0) q.kv_max_pages = pool;
  s->model = std::make_unique<QuantizedModel>(s->weights, q);
  EngineConfig ec;
  ec.prefix_caching = true;
  s->engine = std::make_unique<ServingEngine>(s->model.get(), ec);
  std::vector<int> warm(32);
  for (size_t i = 0; i < warm.size(); ++i)
    warm[i] = static_cast<int>((7 * i + 3) % size_t(cfg.vocab));
  s->engine->submit(warm, 8);
  s->engine->drain();
  s->engine->clear_prefix_cache();
  return s;
}

double prime_prefix_cache(ServingEngine& engine, const Traffic& traffic) {
  const auto t0 = Clock::now();
  for (const std::vector<int>& p : traffic.system_prompts) engine.submit(p, 1);
  engine.drain();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

RunResult run_traffic(ServingEngine& engine, QuantizedModel& model,
                      const WorkloadSpec& spec, const Traffic& traffic,
                      Trace* trace) {
  const int n = static_cast<int>(traffic.requests.size());
  const int layers = model.config().n_layers;
  const int64_t page = model.kv_cache().config().page_size;
  RunResult run;
  run.requests.resize(static_cast<size_t>(n));
  run.before = engine.stats();
  std::vector<int> in_flight;   // submitted, not finished (request indices)
  std::vector<int> unadmitted;  // submitted, admission not yet observed
  int finished = 0;

  Span phase(trace, "timed_phase", "bench");
  run.start = Clock::now();

  const auto submit = [&](int i) {
    RequestRecord& rec = run.requests[static_cast<size_t>(i)];
    const RequestSpec& rs = traffic.requests[static_cast<size_t>(i)];
    Span sp(trace, "submit", "serving");
    rec.submit = Clock::now();
    if (trace) trace->request_event('b', "request", i, rec.submit);
    qserve::RequestOptions opts;
    opts.max_new_tokens = rs.max_new_tokens;
    rec.id = engine.submit(
        rs.prompt, opts,
        [&run, trace, i](const Request&, int) {
          const auto now = Clock::now();
          run.requests[static_cast<size_t>(i)].tokens.push_back(now);
          if (trace) trace->request_event('n', "token", i, now);
        },
        [&run, &finished, trace, i](const Request& r) {
          RequestRecord& fr = run.requests[static_cast<size_t>(i)];
          fr.finish = Clock::now();
          fr.finished = true;
          fr.reason = r.finish_reason;
          ++finished;
          if (trace)
            trace->request_event('e', "request", i, fr.finish,
                                 {{"reason", qserve::to_string(r.finish_reason)}});
        });
    if (!rec.finished) {
      in_flight.push_back(i);
      unadmitted.push_back(i);
    }
  };

  // Client c sends requests c, c + clients, c + 2 * clients, ...; each one
  // at the first step boundary after its predecessor finished, so the step
  // sequence is a pure function of the inputs.
  const int clients = spec.clients;
  std::vector<int> current(static_cast<size_t>(clients), -1);
  while (finished < n) {
    for (int c = 0; c < clients; ++c) {
      int& cur = current[size_t(c)];
      if (cur >= 0 && !run.requests[size_t(cur)].finished) continue;
      const int next = cur < 0 ? c : cur + clients;
      if (next >= n) continue;
      cur = next;
      submit(cur);
    }
    if (in_flight.empty()) continue;

    const qserve::EngineStats s0 = engine.stats();
    const auto t0 = Clock::now();
    {
      Span sp(trace, "step", "serving");
      engine.step();
      if (trace) {
        const qserve::EngineStats& s1 = engine.stats();
        const double fwd = (s1.prefill_seconds - s0.prefill_seconds) +
                           (s1.decode_seconds - s0.decode_seconds);
        sp.arg("prefill_s", s1.prefill_seconds - s0.prefill_seconds);
        sp.arg("decode_s", s1.decode_seconds - s0.decode_seconds);
        sp.arg("forward_s", fwd);
        sp.arg("self_s",
               std::chrono::duration<double>(Clock::now() - t0).count() - fwd);
        sp.arg("attention_s", s1.attention_seconds - s0.attention_seconds);
        sp.arg("rows", double(s1.step_tokens - s0.step_tokens));
        sp.arg("preemptions", double(s1.preemptions - s0.preemptions));
        sp.arg("pages_in_use", double(model.kv_cache().pages_in_use()));
      }
    }
    const auto t1 = Clock::now();
    const qserve::EngineStats& s1 = engine.stats();
    StepSample ss;
    ss.wall_ms = ms_between(t0, t1);
    ss.decode_rows = s1.decode_tokens - s0.decode_tokens;
    ss.pages = model.kv_cache().pages_in_use();

    // Admissions observed at this step boundary.
    for (size_t k = 0; k < unadmitted.size();) {
      const int i = unadmitted[k];
      RequestRecord& rec = run.requests[size_t(i)];
      if (rec.finished ||
          engine.request(rec.id).state != RequestState::kQueued) {
        if (!rec.finished || !rec.tokens.empty()) {
          rec.admit = t1;
          rec.admitted = true;
          ++run.first_admissions;
          if (trace) trace->request_event('n', "admitted", i, t1);
        }
        unadmitted[k] = unadmitted.back();
        unadmitted.pop_back();
      } else {
        ++k;
      }
    }
    // Live KV footprint and decode contexts of the requests still running.
    int64_t live_tokens = 0;
    for (size_t k = 0; k < in_flight.size();) {
      const RequestRecord& rec = run.requests[size_t(in_flight[k])];
      if (rec.finished) {
        in_flight[k] = in_flight.back();
        in_flight.pop_back();
        continue;
      }
      const Request& r = engine.request(rec.id);
      if (r.state != RequestState::kQueued)
        live_tokens += qserve::Scheduler::kv_len(r);
      if (r.state == RequestState::kDecoding)
        run.decode_contexts.push_back(double(r.context_len()));
      ++k;
    }
    ss.fill = ss.pages > 0 ? double(live_tokens * layers) /
                                 double(ss.pages * page)
                           : 0;
    run.steps.push_back(ss);
  }
  run.end = Clock::now();  // just after the step that finished the last one
  run.after = engine.stats();
  return run;
}

uint64_t stream_digest(const ServingEngine& engine, const RunResult& run) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < run.requests.size(); ++i) {
    const std::vector<int>& g = engine.request(run.requests[i].id).generated;
    mix(i);
    mix(g.size());
    for (int t : g) mix(static_cast<uint64_t>(t));
  }
  return h;
}

bool run_gate(QuantizedModel& model, ServingEngine& engine,
              const Traffic& traffic, const RunResult& run, uint64_t seed,
              int count, std::string* message) {
  engine.clear_prefix_cache();
  if (model.kv_cache().pages_in_use() != 0) {
    *message = "pages_in_use() = " +
               std::to_string(model.kv_cache().pages_in_use()) +
               " after drain + clear_prefix_cache()";
    return false;
  }
  SplitMix rng(seed ^ 0xC0FFEEull);
  const int n = static_cast<int>(run.requests.size());
  const std::vector<int> perm = rng.permutation(n);
  for (int k = 0; k < std::min(count, n); ++k) {
    const int i = perm[size_t(k)];
    const RequestSpec& rs = traffic.requests[size_t(i)];
    ServingEngine solo(&model, EngineConfig{});
    const int id = solo.submit(rs.prompt, rs.max_new_tokens);
    solo.drain();
    const std::vector<int>& want = engine.request(run.requests[size_t(i)].id).generated;
    if (solo.request(id).generated != want) {
      *message = "request " + std::to_string(i) +
                 ": stream differs from its solo replay";
      return false;
    }
  }
  if (model.kv_cache().pages_in_use() != 0) {
    *message = "pages_in_use() != 0 after the solo replays";
    return false;
  }
  return true;
}

}  // namespace servebench
