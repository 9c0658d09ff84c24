// Seeded engine fuzzer: the serving engine's bitwise invariant, checked by
// composing features at random instead of by per-feature matrices.
//
// Each seed draws one case over the public API: ISA, threads, TP shards, the
// model, a tight (preempting) or roomy pool, the engine config (batch,
// chunk, prefix caching, a speculative draft that agrees with the target or
// diverges from it, temperature, queue caps), a workload with shared-prefix
// groups, per-request options (parallel sampling, sliding windows,
// deadlines), cancels from on_token / on_finish, arrivals between steps,
// prefix-cache clears and injected faults. The case runs once and is held
// to one oracle (check_case):
//
//  - the reference stream is the solo model-level stream under greedy
//    sampling, and the anchor run's (the same case on scalar, 1 thread,
//    1 shard) under temperature > 0;
//  - a kLength stream equals its reference, a kCancelled / kDeadline one is
//    a prefix of it, a kShedOverload one is empty, and kRejected happens
//    exactly for invalid options; siblings are held to the same rules and
//    inherit their primary's options;
//  - every request finishes exactly once (run_engine), the finish counters
//    sum to the requests, first + decode tokens sum to the streams,
//    peak_batch <= max_batch, and both pools drain;
//  - against the anchor, finish reasons, streams and the config-invariant
//    stats are equal (faulted cases compare at 1 thread only, under the same
//    faults: with more threads, which call draws which fault index follows
//    the interleaving);
//  - TP runs report reduction time and imbalance, single-shard runs neither.
//
// After the seed list a coverage ledger asserts that every feature was
// reached at every ISA, at 1 and at 8 threads and with more than one shard,
// so a generator edit that loses coverage fails here.
//
// When QSERVE_FAULT is set, every case that draws a fault spec runs under
// exactly that spec instead, and the test asserts that the spec reached the
// engine: each armed site drew in each such case, and each site armed at a
// rate >= 0.05 injected at least once over the subset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "harness.h"
#include "kvcache/paged_kv_cache.h"

namespace qserve {
namespace {

constexpr int64_t kPage = 16;  // the serving scheme's KV page size
constexpr uint64_t kDivergentSeed = 777;
const char* const kSites[] = {fault::kKvAlloc, fault::kKvAppend,
                              fault::kEngineStep};

enum Feature {
  kPreempt, kFault, kPrefixHit, kSibling, kRecycle, kAccept, kRollback,
  kCancel, kDeadline, kShed, kTemperature, kGqa, kTp2, kTp4, kReject,
  kFeatureCount
};
const char* const kFeatureNames[] = {
    "preemption", "faulted_step", "prefix_hit", "sibling", "ring_recycle",
    "accepted_draft", "draft_rollback", "cancel", "deadline", "shed",
    "temperature", "gqa4", "tp2", "tp4", "reject"};
static_assert(std::size(kFeatureNames) == kFeatureCount);

// Which slots of each feature the ledger requires: the ISA, thread and
// shard configurations each feature's bitwise claim is checked at.
struct LedgerRow {
  Feature feature;
  bool every_isa;
  bool threads_1_and_8;
  bool sharded;
};
constexpr LedgerRow kLedger[] = {
    {kPreempt, false, true, true},     {kFault, true, true, true},
    {kPrefixHit, true, true, true},    {kSibling, false, false, true},
    {kRecycle, true, true, true},      {kAccept, true, true, true},
    {kRollback, true, true, true},     {kCancel, true, true, false},
    {kDeadline, true, true, false},    {kShed, true, true, false},
    {kTemperature, true, true, false}, {kGqa, true, true, true},
    {kTp2, true, true, false},         {kTp4, false, true, false},
    {kReject, false, false, false},
};

ModelConfig model_config(int model) {
  switch (model) {
    case 1: return toy_config_mha(1);
    case 2: return toy_config_gqa4(1);
    default: return toy_config(1);
  }
}

struct Case {
  uint64_t seed = 0;
  cpu::Isa isa = cpu::Isa::kScalar;
  int threads = 1;
  int shards = 1;
  int model = 0;  // model_config() index
  bool tight_pool = false;
  int64_t pool_pages = 1 << 20;
  int draft = 0;  // 0 none, 1 the target's weights, 2 a divergent seed
  EngineConfig cfg;
  std::string faults;  // QSERVE_FAULT syntax; "" = none
  bool env_faults = false;
  Workload w;
  std::vector<RequestScript> script;
  std::vector<bool> invalid;  // options the engine must reject
  std::vector<int64_t> clears;

  std::string describe() const;
};

std::string Case::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " isa=" << cpu::isa_name(isa)
     << " threads=" << threads << " shards=" << shards
     << " model=" << model_config(model).name << " pool=" << pool_pages
     << (tight_pool ? " (tight)" : " (roomy)")
     << " max_batch=" << cfg.scheduler.max_batch
     << " chunk=" << cfg.scheduler.prefill_chunk
     << " prefix_caching=" << cfg.prefix_caching
     << " k=" << (draft > 0 ? cfg.speculative.lookahead_k : 0) << " draft="
     << (draft == 0 ? "none" : draft == 1 ? "same" : "divergent")
     << " temperature=" << cfg.temperature
     << " sample_seed=" << cfg.sample_seed
     << " max_queued=" << cfg.max_queued_requests << "/"
     << cfg.max_queued_prompt_tokens << " faults=\"" << faults << "\""
     << (env_faults ? " (env)" : "") << " clears=[";
  for (const int64_t s : clears) os << " " << s;
  os << " ]";
  for (size_t i = 0; i < w.prompts.size(); ++i) {
    const RequestScript& s = script[i];
    os << "\n  req " << i << ": max_new=" << w.max_new[i]
       << " n=" << s.opts.n << " window=" << s.opts.attention_window << "/"
       << s.opts.sink_tokens << " deadline=" << s.opts.deadline_steps << "/"
       << s.opts.ttft_deadline_steps << " arrival=" << s.arrival_step
       << " cancel_at=" << s.cancel_at_token
       << " cancel_on_finish_of=" << s.cancel_on_finish_of
       << " invalid=" << invalid[i] << " prompt[" << w.prompts[i].size()
       << "]=";
    for (const int t : w.prompts[i]) os << " " << t;
  }
  return os.str();
}

template <typename T>
T pick(Rng& rng, const std::vector<T>& v) {
  return v[static_cast<size_t>(rng.uniform_int(0, int(v.size()) - 1))];
}

bool chance(Rng& rng, int one_in) { return rng.uniform_int(1, one_in) == 1; }

Case draw_case(uint64_t seed, const char* env_spec) {
  Rng rng(seed);
  Case c;
  c.seed = seed;
  // ISA and threads cycle with the seed, so every stretch of 3 x |ISAs|
  // seeds runs each pair once; the rest of the case is drawn.
  const std::vector<cpu::Isa> isas = supported_isas();
  c.threads = std::vector<int>{1, 2, 8}[seed % 3];
  c.isa = isas[seed / 3 % isas.size()];
  c.model = rng.uniform_int(0, 2);
  c.shards = rng.uniform_int(1, model_config(c.model).n_kv_heads);
  c.cfg.scheduler.max_batch = rng.uniform_int(1, 6);
  c.cfg.scheduler.prefill_chunk = pick(rng, std::vector<int>{4, 8, 16, 128});
  c.cfg.prefix_caching = !chance(rng, 3);
  if (chance(rng, 4)) {
    c.cfg.speculative.lookahead_k = rng.uniform_int(1, 4);
    c.draft = rng.uniform_int(1, 2);
  } else if (chance(rng, 3)) {
    c.cfg.temperature = 0.8f;
    c.cfg.sample_seed = static_cast<uint64_t>(rng.uniform_int(1, 1 << 30));
  }
  if (chance(rng, 2)) c.cfg.max_queued_requests = rng.uniform_int(1, 3);
  if (chance(rng, 5))
    c.cfg.max_queued_prompt_tokens = rng.uniform_int(20, 80);

  // Workload: random prompts, then a group sharing at least one full page.
  c.w = random_workload(rng, rng.uniform_int(1, 3), {1, 24}, {1, 12});
  if (!chance(rng, 3)) {
    std::vector<int> prefix(static_cast<size_t>(rng.uniform_int(16, 32)));
    for (auto& t : prefix) t = rng.uniform_int(0, 511);
    for (int g = rng.uniform_int(2, 3); g > 0; --g) {
      std::vector<int> p = prefix;
      for (int s = rng.uniform_int(1, 4); s > 0; --s)
        p.push_back(rng.uniform_int(0, 511));
      c.w.prompts.push_back(std::move(p));
      c.w.max_new.push_back(rng.uniform_int(1, 12));
    }
  }

  const size_t n = c.w.prompts.size();
  std::vector<int64_t> arrivals;
  for (size_t i = 0; i < n; ++i) {
    RequestScript s;
    if (chance(rng, 5)) s.opts.n = rng.uniform_int(2, 3);
    if (chance(rng, 3)) {
      // Long enough to outgrow sinks + window + slack and recycle the ring.
      s.opts.attention_window = kPage;
      s.opts.sink_tokens = kPage * rng.uniform_int(0, 1);
      // At chunks <= 16 (one slack page), grow past sinks + window + slack
      // + the boundary page so the ring recycles.
      const int64_t ring = s.opts.sink_tokens + s.opts.attention_window +
                           2 * kPage -
                           static_cast<int64_t>(c.w.prompts[i].size());
      c.w.max_new[i] += static_cast<int>(
          (c.cfg.scheduler.prefill_chunk <= 16 ? std::max<int64_t>(ring, 0)
                                               : 0) +
          rng.uniform_int(1, 8));
    }
    if (chance(rng, 6)) s.opts.deadline_steps = rng.uniform_int(1, 40);
    if (chance(rng, 8)) s.opts.ttft_deadline_steps = rng.uniform_int(1, 10);
    if (chance(rng, 6)) {
      s.cancel_at_token = rng.uniform_int(1, c.w.max_new[i]);
    } else if (n > 1 && chance(rng, 6)) {
      int j = rng.uniform_int(0, int(n) - 2);
      s.cancel_on_finish_of = j >= int(i) ? j + 1 : j;
    }
    arrivals.push_back(chance(rng, 3) ? rng.uniform_int(1, 20) : 0);
    bool invalid = false;
    if (chance(rng, 20)) {
      invalid = true;
      switch (rng.uniform_int(0, 2)) {
        case 0: s.opts.attention_window = kPage + kPage / 2; break;
        case 1: s.opts.attention_window = 0; s.opts.sink_tokens = kPage; break;
        default: s.opts.n = 0; break;
      }
    }
    c.script.push_back(s);
    c.invalid.push_back(invalid);
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (size_t i = 0; i < n; ++i) c.script[i].arrival_step = arrivals[i];
  if (c.cfg.prefix_caching && chance(rng, 3)) {
    for (int k = rng.uniform_int(1, 2); k > 0; --k)
      c.clears.push_back(rng.uniform_int(1, 30));
    std::sort(c.clears.begin(), c.clears.end());
  }

  // A tight pool holds the largest valid request alone (so nothing fails
  // with kError) but rarely two of them, and runs at least two at once, so
  // the scheduler preempts.
  c.tight_pool = !chance(rng, 3);
  if (c.tight_pool) {
    KvCacheConfig kv;
    kv.page_size = kPage;
    const int64_t k = c.cfg.speculative.lookahead_k * (c.draft > 0);
    const int64_t slack =
        std::max<int64_t>(c.cfg.scheduler.prefill_chunk, k + 1);
    int64_t need = 1;
    for (size_t i = 0; i < n; ++i) {
      if (c.invalid[i]) continue;
      const RequestOptions& o = c.script[i].opts;
      int64_t pages = ceil_div(
          static_cast<int64_t>(c.w.prompts[i].size()) + c.w.max_new[i] + k,
          kPage);
      if (o.attention_window > 0)
        pages = std::min(pages,
                         PagedKvCache::window_page_cap(
                             kv, o.sink_tokens, o.attention_window, slack));
      need = std::max(need, pages);
    }
    c.pool_pages = need + (chance(rng, 4) ? 1 : 0);
    c.cfg.scheduler.max_batch = std::max(c.cfg.scheduler.max_batch, 2);
  }

  // Faults only under greedy sampling: a sampled stream depends on the
  // admission order, which fault recovery changes.
  if (c.cfg.temperature == 0.0f && chance(rng, 2)) {
    std::ostringstream spec;
    for (const char* site : kSites) {
      if (!chance(rng, 2)) continue;
      spec << (spec.tellp() > 0 ? "," : "") << site << ":"
           << pick(rng, std::vector<double>{0.02, 0.05, 0.1}) << ":"
           << rng.uniform_int(1, 1000);
    }
    c.faults = spec.str();
    if (env_spec != nullptr && *env_spec != 0 && !c.faults.empty()) {
      c.faults = env_spec;
      c.env_faults = true;
    }
  }
  return c;
}

// (site, rate) of every entry of a QSERVE_FAULT-syntax spec.
std::vector<std::pair<std::string, double>> armed_sites(
    const std::string& spec) {
  std::vector<std::pair<std::string, double>> sites;
  std::istringstream entries(spec);
  std::string entry;
  while (std::getline(entries, entry, ',')) {
    entry.erase(std::remove(entry.begin(), entry.end(), ' '), entry.end());
    const size_t colon = entry.find(':');
    if (colon == std::string::npos) continue;
    sites.emplace_back(entry.substr(0, colon),
                       std::atof(entry.c_str() + colon + 1));
  }
  return sites;
}

struct CaseRun {
  EngineOutcome out;
  std::map<std::string, fault::SiteCounters> counters;
};

CaseRun run_case(const Case& c, cpu::Isa isa, int threads, int shards,
                 const std::string& faults) {
  ConfigGuard pin(isa, threads);
  const ModelConfig mc = model_config(c.model);
  EngineRun run;
  run.target = &toy_weights(mc);
  run.scheme = pool_scheme(c.pool_pages);
  // Every toy model shares the 512-token vocabulary; the divergent draft is
  // the MHA toy (4 KV heads, so it shards as far as any target).
  if (c.draft == 1) run.draft = run.target;
  if (c.draft == 2) run.draft = &toy_weights(toy_config_mha(1), kDivergentSeed);
  run.tp = TpConfig{shards};
  run.cfg = c.cfg;
  run.script = c.script;
  run.clear_cache_at = c.clears;
  fault::configure(faults);
  CaseRun r;
  r.out = run_engine(run, c.w);
  for (const auto& [site, rate] : armed_sites(faults))
    r.counters[site] = fault::counters(site);
  return r;
}

struct Ledger {
  std::set<std::string> hits;
  // Summed over the cases that ran under the env spec.
  std::map<std::string, int64_t> env_injected;
  int env_cases = 0;
};

// The config-invariant stats: equal wherever only ISA, threads or shards
// differ.
std::vector<int64_t> invariant_stats(const EngineStats& s) {
  return {s.preemptions,       s.faulted_steps,
          s.prefix_hits,       s.prefill_tokens_saved,
          s.verify_forwards,   s.accepted_tokens,
          s.kv_recycled_pages, s.windowed_requests};
}

void check_case(const Case& c, Ledger& ledger) {
  SCOPED_TRACE(c.describe());
  const bool greedy = c.cfg.temperature == 0.0f;
  std::vector<std::vector<int>> solo;
  if (greedy) {
    std::vector<RequestScript> oracle = c.script;
    for (size_t i = 0; i < oracle.size(); ++i)
      if (c.invalid[i]) oracle[i].opts = RequestOptions{};
    solo = solo_streams(toy_weights(model_config(c.model)), c.w, oracle);
  }
  const CaseRun got = run_case(c, c.isa, c.threads, c.shards, c.faults);
  const EngineOutcome& out = got.out;
  const EngineStats& st = out.stats;

  const bool is_anchor =
      c.isa == cpu::Isa::kScalar && c.threads == 1 && c.shards == 1;
  const bool comparable = c.faults.empty() || c.threads == 1;
  std::optional<CaseRun> anchor;
  if (comparable && (!greedy || !is_anchor))
    anchor = run_case(c, cpu::Isa::kScalar, 1, 1, c.faults);

  int64_t requests = 0, tokens = 0, served = 0;
  std::map<FinishReason, int64_t> reasons;
  bool siblings = false;
  for (size_t i = 0; i < c.w.prompts.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const std::vector<Request>& samples = out.samples[i];
    const Request& primary = samples[0];
    requests += static_cast<int64_t>(samples.size());
    for (const Request& r : samples) {
      ++reasons[r.finish_reason];
      tokens += static_cast<int64_t>(r.generated.size());
      served += !r.generated.empty();
    }
    if (c.invalid[i]) {
      EXPECT_EQ(primary.finish_reason, FinishReason::kRejected);
      continue;
    }
    const int n = c.script[i].opts.n;
    EXPECT_EQ(samples.size(),
              primary.generated.empty() ? 1u : static_cast<size_t>(n));
    siblings = siblings || samples.size() > 1;
    // Cancelled from the on_finish of request j's first finishing sample:
    // a request live by then finishes no later than that step.
    if (const int j = c.script[i].cancel_on_finish_of; j >= 0) {
      int64_t trigger = -1;
      for (const Request& r : out.samples[size_t(j)])
        if (trigger < 0 || r.finished_step < trigger) trigger = r.finished_step;
      if (primary.submitted_step < trigger) {
        EXPECT_LE(primary.finished_step, trigger);
      }
    }
    for (const Request& r : samples) {
      SCOPED_TRACE("sample " + std::to_string(r.sample_index));
      EXPECT_EQ(r.n_samples, n);
      EXPECT_EQ(&r - samples.data(), r.sample_index);
      if (r.sample_index > 0) {
        EXPECT_EQ(r.parent_id, primary.id);
        EXPECT_EQ(r.attention_window, primary.attention_window);
        EXPECT_EQ(r.sink_tokens, primary.sink_tokens);
        EXPECT_EQ(r.window_page_cap, primary.window_page_cap);
      }
      const std::vector<int>* ref = nullptr;
      if (greedy) {
        ref = &solo[i];
      } else if (anchor && static_cast<size_t>(r.sample_index) <
                               anchor->out.samples[i].size()) {
        ref = &anchor->out.samples[i][size_t(r.sample_index)].generated;
      }
      // A cancel issued from on_token takes effect at the end of the step
      // that delivered the token; the rest of a verify span still lands,
      // and a span that completes the request finishes it kLength first.
      const int cancel_at = c.script[i].cancel_at_token;
      const int landed = static_cast<int>(r.generated.size()) - cancel_at;
      if (cancel_at > 0 && cancel_at < c.w.max_new[i] && landed >= 0) {
        if (c.draft == 0) {
          EXPECT_EQ(r.finish_reason, FinishReason::kCancelled);
          EXPECT_EQ(landed, 0);
        } else {
          EXPECT_TRUE(r.finish_reason == FinishReason::kCancelled ||
                      r.finish_reason == FinishReason::kLength);
          EXPECT_LE(landed, c.cfg.speculative.lookahead_k);
        }
      }
      switch (r.finish_reason) {
        case FinishReason::kLength:
          ASSERT_NE(ref, nullptr);
          EXPECT_EQ(r.generated, *ref);
          break;
        case FinishReason::kCancelled:
        case FinishReason::kDeadline:
          ASSERT_NE(ref, nullptr);
          EXPECT_TRUE(is_prefix(r.generated, *ref));
          break;
        case FinishReason::kShedOverload:
          EXPECT_TRUE(r.generated.empty());
          break;
        default:
          ADD_FAILURE() << "finished with " << to_string(r.finish_reason);
      }
    }
  }

  EXPECT_EQ(st.completed, reasons[FinishReason::kLength]);
  EXPECT_EQ(st.cancelled, reasons[FinishReason::kCancelled]);
  EXPECT_EQ(st.deadline_expired, reasons[FinishReason::kDeadline]);
  EXPECT_EQ(st.shed, reasons[FinishReason::kShedOverload]);
  EXPECT_EQ(st.rejected, reasons[FinishReason::kRejected]);
  EXPECT_EQ(st.completed + st.cancelled + st.deadline_expired + st.shed +
                st.rejected + st.errored,
            requests);
  EXPECT_EQ(st.first_tokens, served);
  EXPECT_EQ(st.first_tokens + st.decode_tokens, tokens);
  // Engine forks are page-aligned: no writer lands in a shared page.
  EXPECT_EQ(st.cow_page_copies, 0);
  EXPECT_EQ(st.prefix_tokens_reused, st.prefill_tokens_saved);
  // A draft with the target's weights agrees on every token, unless a
  // sliding window (which the full-attention draft lacks) moves the target.
  if (c.draft == 1 && st.windowed_requests == 0) {
    EXPECT_EQ(st.accepted_tokens, st.proposed_tokens);
  }
  EXPECT_LE(st.peak_batch, c.cfg.scheduler.max_batch);
  if (c.shards > 1 && st.step_tokens > 0) {
    EXPECT_GT(st.comm_seconds, 0.0);
    EXPECT_GE(st.shard_imbalance, 1.0);
  } else if (c.shards == 1) {
    EXPECT_EQ(st.comm_seconds, 0.0);
    EXPECT_EQ(st.shard_imbalance, 0.0);
  }

  if (anchor) {
    SCOPED_TRACE("against the anchor run (scalar, 1 thread, 1 shard)");
    EXPECT_EQ(invariant_stats(st), invariant_stats(anchor->out.stats));
    ASSERT_EQ(out.samples.size(), anchor->out.samples.size());
    for (size_t i = 0; i < out.samples.size(); ++i) {
      ASSERT_EQ(out.samples[i].size(), anchor->out.samples[i].size()) << i;
      for (size_t s = 0; s < out.samples[i].size(); ++s) {
        EXPECT_EQ(out.samples[i][s].finish_reason,
                  anchor->out.samples[i][s].finish_reason)
            << i << "/" << s;
        EXPECT_EQ(out.samples[i][s].generated,
                  anchor->out.samples[i][s].generated)
            << i << "/" << s;
      }
    }
  }

  if (c.env_faults) {
    ++ledger.env_cases;
    for (const auto& [site, rate] : armed_sites(c.faults)) {
      EXPECT_GT(got.counters.at(site).draws, 0) << site;
      ledger.env_injected[site] += got.counters.at(site).injected;
    }
  }

  bool hit[kFeatureCount] = {};
  hit[kPreempt] = c.faults.empty() && st.preemptions > 0;
  hit[kFault] = st.faulted_steps > 0;
  hit[kPrefixHit] = st.prefix_hits > 0;
  hit[kSibling] = siblings;
  hit[kRecycle] = st.kv_recycled_pages > 0;
  hit[kAccept] = st.accepted_tokens > 0;
  hit[kRollback] = st.proposed_tokens > st.accepted_tokens;
  hit[kCancel] = reasons[FinishReason::kCancelled] > 0;
  hit[kDeadline] = reasons[FinishReason::kDeadline] > 0;
  hit[kShed] = reasons[FinishReason::kShedOverload] > 0;
  hit[kTemperature] = !greedy && tokens > 0;
  hit[kGqa] = c.model == 2;
  hit[kTp2] = c.shards == 2;
  hit[kTp4] = c.shards == 4;
  hit[kReject] = reasons[FinishReason::kRejected] > 0;
  for (int f = 0; f < kFeatureCount; ++f) {
    if (!hit[f]) continue;
    const std::string name = kFeatureNames[f];
    ledger.hits.insert(name);
    ledger.hits.insert(name + "@" + cpu::isa_name(c.isa));
    ledger.hits.insert(name + "@threads=" + std::to_string(c.threads));
    if (c.shards > 1) ledger.hits.insert(name + "@shards>1");
  }
}

TEST(EngineFuzz, SeededCasesHoldTheOracle) {
  ConfigGuard guard;
  const char* env = std::getenv("QSERVE_FAULT");
  Ledger ledger;
  // 45 seeds fill the ledger on hosts with one, two or three ISAs; a
  // generator edit that empties a slot fails below.
  for (uint64_t seed = 1; seed <= 45; ++seed)
    check_case(draw_case(seed, env), ledger);

  // Coverage ledger: every feature reached at least once, plus the
  // (feature, ISA), (feature, 1 / 8 threads) and (feature, shards > 1)
  // slots kLedger names.
  for (const LedgerRow& row : kLedger) {
    const std::string name = kFeatureNames[row.feature];
    std::vector<std::string> want = {name};
    if (row.every_isa)
      for (const cpu::Isa isa : supported_isas())
        want.push_back(name + "@" + cpu::isa_name(isa));
    if (row.threads_1_and_8) {
      want.push_back(name + "@threads=1");
      want.push_back(name + "@threads=8");
    }
    if (row.sharded) want.push_back(name + "@shards>1");
    for (const std::string& w : want)
      EXPECT_TRUE(ledger.hits.count(w)) << "no case reached " << w;
  }

  if (env != nullptr && !armed_sites(env).empty()) {
    EXPECT_GT(ledger.env_cases, 0) << "no case ran under QSERVE_FAULT";
    for (const auto& [site, rate] : armed_sites(env)) {
      if (rate >= 0.05) {
        EXPECT_GT(ledger.env_injected[site], 0)
            << site << " never injected under QSERVE_FAULT=" << env;
      }
    }
  }
}

}  // namespace
}  // namespace qserve
