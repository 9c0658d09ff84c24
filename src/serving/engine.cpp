#include "serving/engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "common/fault_injection.h"
#include "common/math_util.h"

namespace qserve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Constructor-time validation, run before any member dereferences the model.
const EngineConfig& validated(const QuantizedModel* model,
                              const QuantizedModel* draft,
                              const EngineConfig& cfg) {
  QS_CHECK_MSG(model != nullptr, "ServingEngine needs a model");
  QS_CHECK_GE(cfg.temperature, 0.0f);
  if (draft != nullptr) {
    QS_CHECK_MSG(cfg.speculative.lookahead_k >= 1,
                 "speculative decoding needs lookahead_k >= 1");
    QS_CHECK_MSG(cfg.temperature == 0.0f,
                 "speculative decoding requires greedy sampling "
                 "(temperature == 0): the bitwise-identity guarantee rests "
                 "on longest-prefix acceptance of the target's argmax");
    QS_CHECK_MSG(draft->config().vocab == model->config().vocab,
                 "draft and target models must share a vocabulary");
  }
  return cfg;
}

// Context token at absolute position p: the prompt, then the generated
// stream (what a resumed or draft-catch-up chunk replays).
int context_token(const Request& r, int64_t p) {
  const int64_t prompt_len = static_cast<int64_t>(r.prompt.size());
  return p < prompt_len ? r.prompt[static_cast<size_t>(p)]
                        : r.generated[static_cast<size_t>(p - prompt_len)];
}

}  // namespace

// One request's prefill share for this step: its materialized token slice,
// and whether it completes the request's prefill (and so samples a token
// from the logits of its last position).
struct ServingEngine::ChunkJob {
  Request* req = nullptr;
  std::vector<int> tokens;
  bool completes_prefill = false;
};

ServingEngine::ServingEngine(QuantizedModel* model, const EngineConfig& cfg)
    : ServingEngine(model, nullptr, cfg) {}

ServingEngine::ServingEngine(QuantizedModel* model, QuantizedModel* draft,
                             const EngineConfig& cfg)
    : model_(model), draft_(draft), cfg_(validated(model, draft, cfg)),
      verify_span_(draft != nullptr ? cfg.speculative.lookahead_k + 1 : 1),
      window_slack_(std::max<int64_t>(cfg.scheduler.prefill_chunk,
                                      verify_span_)),
      scheduler_(cfg.scheduler, model->kv_cache().config().page_size,
                 model->config().n_layers, verify_span_),
      rng_(cfg.sample_seed) {
  if (cfg_.prefix_caching) {
    QS_CHECK_MSG(cfg_.prefix_cache_max_entries >= 1,
                 "prefix_cache_max_entries must be >= 1 when caching is on");
    scheduler_.set_admission_hook([this](Request& r) { bind_prefix(r); });
  }
}

int ServingEngine::submit(std::vector<int> prompt, int max_new_tokens) {
  RequestOptions opts;
  opts.max_new_tokens = max_new_tokens;
  return submit(std::move(prompt), opts, nullptr, nullptr);
}

int ServingEngine::submit(std::vector<int> prompt, const RequestOptions& opts,
                          std::function<void(const Request&, int)> on_token,
                          std::function<void(const Request&)> on_finish) {
  return submit_impl(std::move(prompt), opts, std::move(on_token),
                     std::move(on_finish), /*create_on_shed=*/true);
}

int ServingEngine::try_submit(std::vector<int> prompt,
                              const RequestOptions& opts,
                              std::function<void(const Request&, int)> on_token,
                              std::function<void(const Request&)> on_finish) {
  return submit_impl(std::move(prompt), opts, std::move(on_token),
                     std::move(on_finish), /*create_on_shed=*/false);
}

int ServingEngine::submit_impl(std::vector<int> prompt,
                               const RequestOptions& opts,
                               std::function<void(const Request&, int)> on_token,
                               std::function<void(const Request&)> on_finish,
                               bool create_on_shed) {
  // Rejection: conditions retrying can never fix. Checked before the queue
  // caps so an unservable request is reported as kRejected, not shed.
  const KvCacheConfig& kv = model_->kv_cache().config();
  const char* reject = nullptr;
  const int64_t vocab = model_->config().vocab;
  if (prompt.empty()) {
    reject = "empty prompt";
  } else if (std::any_of(prompt.begin(), prompt.end(),
                         [vocab](int t) { return t < 0 || t >= vocab; })) {
    reject = "prompt token id outside the vocabulary";
  } else if (opts.max_new_tokens <= 0) {
    reject = "max_new_tokens must be >= 1";
  } else if (opts.n < 1) {
    reject = "parallel sampling needs n >= 1";
  } else if (opts.attention_window < 0 || opts.sink_tokens < 0) {
    reject = "attention_window and sink_tokens must be >= 0";
  } else if (opts.sink_tokens > 0 && opts.attention_window == 0) {
    reject = "sink_tokens requires a non-zero attention_window";
  } else if (opts.attention_window % kv.page_size != 0 ||
             opts.sink_tokens % kv.page_size != 0) {
    // The ring recycles whole pages; partial-page windows are not supported.
    reject = "attention_window and sink_tokens must be multiples of the KV "
             "page size";
  } else {
    // Larger than the whole KV pool: prefill plus the first decode token can
    // never fit, even with every other request evicted. A windowed request's
    // footprint is bounded by its ring cap (sinks + window + slack) instead
    // of its context length — that bound is what must fit.
    int64_t need = ceil_div(static_cast<int64_t>(prompt.size()) + 1,
                            static_cast<int64_t>(kv.page_size)) *
                   model_->config().n_layers;
    if (opts.attention_window > 0) {
      need = std::min(need, PagedKvCache::window_page_cap(
                                kv, opts.sink_tokens, opts.attention_window,
                                window_slack_) *
                                model_->config().n_layers);
    }
    if (need > kv.max_pages) {
      reject = opts.attention_window > 0
                   ? "windowed KV footprint (sinks + window + scheduling "
                     "slack) exceeds the pool"
                   : "request KV footprint exceeds the pool";
    }
  }
  const bool shed =
      reject == nullptr &&
      ((cfg_.max_queued_requests > 0 &&
        scheduler_.queued() >= cfg_.max_queued_requests) ||
       (cfg_.max_queued_prompt_tokens > 0 &&
        scheduler_.queued_prompt_tokens() +
                static_cast<int64_t>(prompt.size()) >
            cfg_.max_queued_prompt_tokens));
  if (shed && !create_on_shed) return -1;

  auto req = std::make_unique<Request>();
  req->id = static_cast<int>(requests_.size());
  req->prompt = std::move(prompt);
  req->max_new_tokens = opts.max_new_tokens;
  req->deadline_steps = opts.deadline_steps;
  req->ttft_deadline_steps = opts.ttft_deadline_steps;
  req->n_samples = opts.n;
  if (reject == nullptr && opts.attention_window > 0) {
    req->attention_window = opts.attention_window;
    req->sink_tokens = opts.sink_tokens;
    req->window_page_cap = PagedKvCache::window_page_cap(
        kv, opts.sink_tokens, opts.attention_window, window_slack_);
  }
  req->on_token = std::move(on_token);
  req->on_finish = std::move(on_finish);
  req->submitted_step = stats_.steps;
  Request* ptr = req.get();
  requests_.push_back(std::move(req));
  if (reject != nullptr) {
    finish_with(*ptr, FinishReason::kRejected, reject);
  } else if (shed) {
    finish_with(*ptr, FinishReason::kShedOverload, "admission queue full");
  } else {
    if (ptr->attention_window > 0) ++stats_.windowed_requests;
    scheduler_.enqueue(ptr);
    stats_.queue_depth_high_water =
        std::max(stats_.queue_depth_high_water, scheduler_.queued());
  }
  return ptr->id;
}

bool ServingEngine::cancel(int id) {
  QS_CHECK(id >= 0 && id < static_cast<int>(requests_.size()));
  Request& r = *requests_[static_cast<size_t>(id)];
  if (r.done() || r.cancel_requested) return false;
  r.cancel_requested = true;
  pending_cancels_.push_back(id);
  // Inside a step (a callback cancelling a request) the cancellation is
  // deferred to the step's next safe point; outside it applies immediately.
  if (!in_step_ && !applying_cancels_) apply_pending_cancellations();
  return true;
}

void ServingEngine::apply_pending_cancellations() {
  if (pending_cancels_.empty()) return;
  applying_cancels_ = true;
  // on_finish of a cancelled request may cancel further requests; loop until
  // the pending list stays empty.
  while (!pending_cancels_.empty()) {
    std::vector<int> ids;
    ids.swap(pending_cancels_);
    for (int id : ids) {
      Request& r = *requests_[static_cast<size_t>(id)];
      // The request may have finished (e.g. kLength) after the cancellation
      // was requested — the earlier finish stands.
      if (r.done()) continue;
      scheduler_.remove_queued(&r);  // no-op if running
      finish_with(r, FinishReason::kCancelled);
    }
  }
  applying_cancels_ = false;
  prune_finished();
}

void ServingEngine::prune_finished() {
  running_.erase(std::remove_if(running_.begin(), running_.end(),
                                [](Request* r) { return r->done(); }),
                 running_.end());
}

int ServingEngine::sample(const float* logits, int64_t vocab) {
  if (cfg_.temperature <= 0.0f) {
    int64_t best = 0;
    for (int64_t v = 1; v < vocab; ++v)
      if (logits[v] > logits[best]) best = v;
    return static_cast<int>(best);
  }
  std::vector<float> probs(static_cast<size_t>(vocab));
  for (int64_t v = 0; v < vocab; ++v)
    probs[size_t(v)] = logits[v] / cfg_.temperature;
  softmax_inplace(probs.data(), static_cast<int>(vocab));
  float r = rng_.uniform();
  for (size_t v = 0; v < probs.size(); ++v) {
    r -= probs[v];
    if (r <= 0.0f) return static_cast<int>(v);
  }
  return static_cast<int>(vocab - 1);
}

void ServingEngine::deliver(Request& r, int token) {
  r.generated.push_back(token);
  if (r.first_token_step < 0) {
    r.first_token_step = stats_.steps;
    ++stats_.first_tokens;
  } else {
    // Decode output — or a post-preemption re-prefill completion, which
    // continues the decode stream the request was producing before it was
    // evicted.
    ++stats_.decode_tokens;
  }
  if (r.on_token) {
    try {
      r.on_token(r, token);
    } catch (...) {
      // A throwing user callback fails its own request, not the engine: the
      // engine's state is fully consistent here (the token is recorded), so
      // finish this request with kError and keep serving everyone else.
      ++stats_.callback_exceptions;
      finish_with(r, FinishReason::kError, "on_token callback threw");
      return;
    }
  }
  if (static_cast<int>(r.generated.size()) >= r.max_new_tokens)
    finish_with(r, FinishReason::kLength);
}

void ServingEngine::finish_with(Request& r, FinishReason reason,
                                const char* error) {
  QS_CHECK_MSG(!r.done(), "request finished twice");
  r.state = RequestState::kFinished;
  r.finish_reason = reason;
  if (error != nullptr) r.error = error;
  r.finished_step = stats_.steps;
  // Latency means describe served traffic only: a request that never
  // produced a token (shed, rejected, expired/cancelled while queued) has no
  // first-token or completion latency to report.
  if (r.first_token_step >= 0) {
    first_token_steps_sum_ += double(r.first_token_step - r.submitted_step);
    completion_steps_sum_ += double(r.finished_step - r.submitted_step);
    ++served_finished_;
  }
  if (r.seq_handle >= 0) {
    model_->end_sequence(r.seq_handle);
    r.seq_handle = -1;
  }
  if (r.draft_seq_handle >= 0) {
    draft_->end_sequence(r.draft_seq_handle);
    r.draft_seq_handle = -1;
  }
  unpin_prefix(r);
  switch (reason) {
    case FinishReason::kLength: ++stats_.completed; break;
    case FinishReason::kCancelled: ++stats_.cancelled; break;
    case FinishReason::kDeadline: ++stats_.deadline_expired; break;
    case FinishReason::kShedOverload: ++stats_.shed; break;
    case FinishReason::kRejected: ++stats_.rejected; break;
    case FinishReason::kError: ++stats_.errored; break;
    case FinishReason::kNone: QS_CHECK_MSG(false, "finish without a reason");
  }
  if (r.on_finish) {
    try {
      r.on_finish(r);
    } catch (...) {
      // The request is already finished; a throwing on_finish is counted and
      // contained (there is nothing left to fail).
      ++stats_.callback_exceptions;
    }
  }
}

void ServingEngine::evict(Request& r) {
  model_->end_sequence(r.seq_handle);
  r.seq_handle = -1;
  if (r.draft_seq_handle >= 0) {
    draft_->end_sequence(r.draft_seq_handle);
    r.draft_seq_handle = -1;
  }
  // Drop prefix-cache state: the re-admission hook runs a fresh lookup (the
  // cache may have better — or no — entries by then). Recompute-on-resume
  // stays bitwise intact either way: KV bytes for a token prefix are a pure
  // function of the prefix, forked or recomputed.
  unpin_prefix(r);
  r.prefix_src_seq = -1;
  r.prefix_fork_len = 0;
  r.prefix_shared_pages = 0;
  r.prefill_pos = 0;
  r.state = RequestState::kQueued;
  ++r.preemptions;
  ++stats_.preemptions;
}

void ServingEngine::bind_prefix(Request& r) {
  r.prefix_src_seq = -1;
  r.prefix_fork_len = 0;
  r.prefix_shared_pages = 0;
  const int64_t page = model_->kv_cache().config().page_size;
  const auto validate = [this](const PrefixEntry& e) {
    // Generation-checked invalidation: if any page under the entry was
    // reclaimed since insert (a snapshot mismatch), the cached bytes are not
    // the prompt's KV anymore — drop the entry instead of serving them.
    return model_->sequence_page_generations(e.seq) == e.generations;
  };
  const auto release = [this](const PrefixEntry& e) {
    ++stats_.prefix_invalidations;
    model_->end_sequence(e.seq);
  };
  const auto hit = prefix_index_.lookup(r.prompt, validate, release);
  if (!hit) return;
  // Fork full pages only (zero-allocation fork; the partial boundary page's
  // tokens are recomputed), and always leave >= 1 token to prefill so the
  // completing chunk produces the first-token logits.
  int64_t m = std::min(hit->match_len, r.context_len() - 1);
  // A windowed consumer forks its sink pages at most: their rows attend
  // [0, p+1) exactly like full attention (policy-independent KV bytes), and
  // the ring never recycles them. A forked page inside the ring would need
  // a fresh page when the ring wraps onto it, while the pinned entry keeps
  // the shared one — a page the scheduler's ring-cap accounting never
  // reserved.
  if (r.attention_window > 0) m = std::min(m, r.sink_tokens);
  m = m / page * page;
  if (m <= 0) return;
  prefix_index_.pin(hit->uid);
  r.pinned_prefix_entries.push_back(hit->uid);
  r.prefix_src_seq = hit->seq;
  r.prefix_fork_len = m;
  r.prefix_shared_pages = m / page;
  r.prefill_pos = m;
  ++stats_.prefix_hits;
  stats_.prefix_tokens_reused += m;
  stats_.prefill_tokens_saved += m;
}

void ServingEngine::maybe_insert_prefix(Request& r) {
  if (!cfg_.prefix_caching) return;
  const int64_t page = model_->kv_cache().config().page_size;
  int64_t cached_len = static_cast<int64_t>(r.prompt.size()) / page * page;
  // A windowed donor shares its sink pages only: their KV bytes match full
  // attention and they sit outside the ring, which never recycles them (see
  // bind_prefix).
  if (r.attention_window > 0) cached_len = std::min(cached_len, r.sink_tokens);
  if (cached_len <= 0) return;                     // prompt shorter than a page
  if (prefix_index_.contains(r.prompt)) return;    // identical key cached
  while (prefix_index_.size() >= cfg_.prefix_cache_max_entries) {
    const auto dead = prefix_index_.evict_lru_unpinned();
    if (!dead) return;  // every entry pinned by in-flight requests; skip
    ++stats_.prefix_evictions;
    model_->end_sequence(dead->seq);
  }
  // Zero-copy donation: the entry forks the request's first cached_len
  // tokens — full pages shared with the donor, which keeps its private
  // partial tail page and decodes on without ever writing a shared page.
  const int seq = model_->fork_sequence(r.seq_handle, cached_len);
  const int64_t pages_per_layer = cached_len / page;
  const int64_t uid = prefix_index_.insert(
      r.prompt, seq, cached_len, model_->sequence_page_generations(seq),
      pages_per_layer * model_->config().n_layers);
  QS_CHECK_GE(uid, 0);  // contains() was checked above
  // The donor now shares its full prompt pages with the entry: record that
  // for the scheduler's eviction-credit arithmetic, and pin the entry so
  // pressure eviction skips it while the donor lives (freeing it would
  // release nothing).
  prefix_index_.pin(uid);
  r.pinned_prefix_entries.push_back(uid);
  r.prefix_shared_pages = std::max(r.prefix_shared_pages, pages_per_layer);
  ++stats_.prefix_insertions;
}

void ServingEngine::unpin_prefix(Request& r) {
  for (const int64_t uid : r.pinned_prefix_entries) prefix_index_.unpin(uid);
  r.pinned_prefix_entries.clear();
}

void ServingEngine::prefix_pressure_evict() {
  if (prefix_index_.size() == 0) return;
  const int64_t page = model_->kv_cache().config().page_size;
  // Conservative per-step need: every running request's peak decode append
  // (its verify span, +1 page for boundary crossing), a full prefill chunk,
  // and one admission hold — if the pool can cover that, the cache is not in
  // the way.
  const int64_t watermark =
      (static_cast<int64_t>(running_.size()) *
           (ceil_div(static_cast<int64_t>(verify_span_), page) + 1) +
       ceil_div(static_cast<int64_t>(cfg_.scheduler.prefill_chunk), page) + 2) *
      model_->config().n_layers;
  while (model_->kv_cache().free_pages() < watermark) {
    const auto dead = prefix_index_.evict_lru_unpinned();
    if (!dead) return;  // nothing reclaimable (all pinned) or index empty
    ++stats_.prefix_evictions;
    model_->end_sequence(dead->seq);
  }
}

void ServingEngine::spawn_siblings(Request& r, const float* logits) {
  const int64_t vocab = model_->config().vocab;
  for (int i = 1; i < r.n_samples; ++i) {
    auto req = std::make_unique<Request>();
    req->id = static_cast<int>(requests_.size());
    req->prompt = r.prompt;
    req->max_new_tokens = r.max_new_tokens;
    req->deadline_steps = r.deadline_steps;
    req->ttft_deadline_steps = r.ttft_deadline_steps;
    req->attention_window = r.attention_window;
    req->sink_tokens = r.sink_tokens;
    req->window_page_cap = r.window_page_cap;
    req->on_token = r.on_token;
    req->on_finish = r.on_finish;
    req->n_samples = r.n_samples;
    req->sample_index = i;
    req->parent_id = r.id;
    req->submitted_step = stats_.steps;
    Request* ptr = req.get();
    requests_.push_back(std::move(req));
    r.sibling_ids.push_back(ptr->id);
    // The sibling's first token is sampled NOW from the primary's prefill
    // logits (all n samples draw from the same distribution; under greedy
    // they are identical). Its KV state materializes at admission — with
    // prefix caching on, the sibling forks the prompt's just-donated pages
    // and prefills only the partial tail + its first token; without it, it
    // re-prefills its context like any preempted request. Both paths build
    // the same bytes, so the streams are independent of the cache state.
    deliver(*ptr, sample(logits, vocab));
    if (!ptr->done()) {
      scheduler_.enqueue(ptr);
      stats_.queue_depth_high_water =
          std::max(stats_.queue_depth_high_water, scheduler_.queued());
    }
  }
}

void ServingEngine::clear_prefix_cache() {
  prefix_index_.clear([this](const PrefixEntry& e) {
    model_->end_sequence(e.seq);
  });
}

void ServingEngine::fault_preempt(const std::vector<Request*>& decodes,
                                  const std::vector<PrefillWork>& prefills) {
  ++stats_.faulted_steps;
  // The aborted forward may have appended a partial chunk for any step
  // participant, but it delivered no tokens (sampling runs strictly after
  // the forwards), so preemption is sufficient AND stream-preserving:
  // end_sequence() discards whatever partial KV state exists, and the
  // recompute-on-resume re-prefill rebuilds it exactly. Non-participants
  // (e.g. admitted this step with a zero-token chunk share) hold no state
  // the fault could have touched and keep running.
  std::unordered_set<Request*> participants;
  for (Request* r : decodes) participants.insert(r);
  for (const PrefillWork& w : prefills) participants.insert(w.req);
  // Reverse admission order: requeue_front()ing youngest-first leaves the
  // queue in FCFS order, same as the scheduler's own eviction policy.
  for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
    Request* r = *it;
    if (participants.count(r) == 0) continue;
    evict(*r);
    scheduler_.requeue_front(r);
  }
  running_.erase(std::remove_if(running_.begin(), running_.end(),
                                [](Request* r) {
                                  return r->state == RequestState::kQueued;
                                }),
                 running_.end());
}

void ServingEngine::handle_prefill_result(Request& r, const ChunkJob& c,
                                          const float* logits) {
  r.prefill_pos += static_cast<int64_t>(c.tokens.size());
  stats_.prefill_tokens += static_cast<int64_t>(c.tokens.size());
  if (r.prefill_pos < r.context_len()) return;  // more chunks to go
  r.state = RequestState::kDecoding;
  // Donate the prompt's KV prefix BEFORE delivering: deliver may finish the
  // request (max_new_tokens == 1) and free its sequence, and the donation
  // must fork while the KV state is live. Sibling forks are decided before
  // deliver for the same reason, but spawned after it so the RNG draws in
  // stream order: primary's token first, then siblings ascending.
  maybe_insert_prefix(r);
  const bool spawn = r.n_samples > 1 && r.sample_index == 0 &&
                     !r.forks_spawned && r.generated.empty();
  deliver(r, sample(logits, model_->config().vocab));
  if (spawn) {
    r.forks_spawned = true;
    spawn_siblings(r, logits);
  }
}

std::vector<std::vector<int>> ServingEngine::propose_draft_tokens(
    const std::vector<Request*>& decodes) {
  const int k = cfg_.speculative.lookahead_k;
  const int64_t vocab = model_->config().vocab;
  std::vector<std::vector<int>> proposals(decodes.size());
  std::vector<int> prev(decodes.size(), 0);
  // One batched draft forward per lookahead depth across every decoding
  // request — the draft model sees the same GEMM-occupancy benefit as the
  // target. Depth 0 feeds each draft sequence everything it has not
  // appended yet (post-admission: the whole context; steady state: the
  // previous step's rejected-then-re-emitted token plus the pending one),
  // so the draft needs no separately scheduled prefill.
  for (int depth = 0; depth < k; ++depth) {
    BatchedStep ds;
    ds.chunks.reserve(decodes.size());
    for (size_t i = 0; i < decodes.size(); ++i) {
      Request* r = decodes[i];
      StepSeqChunk c;
      c.seq = r->draft_seq_handle;
      c.pos0 = static_cast<int>(draft_->seq_pos(r->draft_seq_handle));
      if (depth == 0) {
        const int64_t ctx = r->context_len();
        for (int64_t p = c.pos0; p < ctx; ++p)
          c.tokens.push_back(context_token(*r, p));
      } else {
        c.tokens.push_back(prev[i]);
      }
      ds.chunks.push_back(std::move(c));
    }
    const Tensor dl = draft_->forward_step(ds);
    for (size_t i = 0; i < decodes.size(); ++i) {
      // Greedy draft: same deterministic argmax as the engine's sampler.
      prev[i] = sample(dl.row(static_cast<int64_t>(i)), vocab);
      proposals[i].push_back(prev[i]);
    }
  }
  return proposals;
}

void ServingEngine::run_step(const std::vector<Request*>& decodes,
                             const std::vector<ChunkJob>& chunks,
                             int64_t decode_rows, int64_t prefill_rows) {
  const int k = verify_span_ - 1;
  const int64_t vocab = model_->config().vocab;

  // 1. Draft proposals (speculative engines only; k = 0 proposes nothing).
  // The draft is decode work: its wall time joins the decode split so
  // speculative decode tok/s pays for the draft honestly.
  std::vector<std::vector<int>> proposals(decodes.size());
  if (speculative() && !decodes.empty()) {
    const auto td = std::chrono::steady_clock::now();
    proposals = propose_draft_tokens(decodes);
    stats_.decode_seconds += seconds_since(td);
  }

  // 2. One batched target forward over every row of the step: each decoding
  // request's verify span (pending token + k draft candidates, logits at all
  // k+1 positions) stacked with every prefill chunk. Verify span i owns
  // logit rows [i*(k+1), (i+1)*(k+1)); a completing prefill chunk follows
  // with one row (its last position), and a mid-prompt chunk skips the LM
  // head entirely.
  BatchedStep bstep;
  bstep.chunks.reserve(decodes.size() + chunks.size());
  for (size_t i = 0; i < decodes.size(); ++i) {
    Request* r = decodes[i];
    StepSeqChunk c;
    c.seq = r->seq_handle;
    c.pos0 = static_cast<int>(model_->seq_pos(r->seq_handle));
    c.tokens.reserve(static_cast<size_t>(verify_span_));
    c.tokens.push_back(r->generated.back());
    c.tokens.insert(c.tokens.end(), proposals[i].begin(), proposals[i].end());
    c.logit_rows = verify_span_;
    bstep.chunks.push_back(std::move(c));
  }
  std::vector<int64_t> chunk_logit_row(chunks.size(), -1);
  int64_t next_logit_row = decode_rows;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const ChunkJob& c = chunks[i];
    bstep.chunks.push_back({c.req->seq_handle, c.tokens,
                            static_cast<int>(c.req->prefill_pos),
                            c.completes_prefill ? 1 : 0});
    if (c.completes_prefill) chunk_logit_row[i] = next_logit_row++;
  }
  if (bstep.chunks.empty()) return;

  const auto tf = std::chrono::steady_clock::now();
  const Tensor step_logits = model_->forward_step(bstep);
  // One forward covers both work types; apportion its wall time by row count
  // so the prefill/decode throughput split stays meaningful.
  const double dt = seconds_since(tf);
  const double step_rows = double(decode_rows + prefill_rows);
  stats_.decode_seconds += dt * double(decode_rows) / step_rows;
  stats_.prefill_seconds += dt * double(prefill_rows) / step_rows;
  if (!decodes.empty()) ++stats_.verify_steps;

  std::unordered_map<const Request*, size_t> verify_index;
  for (size_t i = 0; i < decodes.size(); ++i) verify_index.emplace(decodes[i], i);
  std::unordered_map<const Request*, size_t> chunk_index;
  for (size_t i = 0; i < chunks.size(); ++i) chunk_index.emplace(chunks[i].req, i);

  // 3. Acceptance, emission, and rollback stay serial, in admission
  // (running_) order, so the generated streams — and the RNG consumption
  // order under temperature > 0 — are identical across thread counts, ISAs
  // and shard counts.
  for (Request* r : running_) {
    if (auto it = chunk_index.find(r); it != chunk_index.end()) {
      const int64_t row = chunk_logit_row[it->second];
      handle_prefill_result(*r, chunks[it->second],
                            row >= 0 ? step_logits.row(row) : nullptr);
    } else if (auto vit = verify_index.find(r); vit != verify_index.end()) {
      const int64_t base = static_cast<int64_t>(vit->second) * verify_span_;
      const std::vector<int>& prop = proposals[vit->second];
      // Longest prefix of draft tokens matching the target's own greedy
      // argmax. Row j scored position pos0+j, i.e. the logits a plain engine
      // would have decoded after consuming prop[0..j-1].
      int accepted = 0;
      while (accepted < k &&
             sample(step_logits.row(base + accepted), vocab) ==
                 prop[static_cast<size_t>(accepted)]) {
        ++accepted;
      }
      r->draft_proposed += k;
      r->draft_accepted += accepted;
      stats_.proposed_tokens += k;
      stats_.accepted_tokens += accepted;
      ++stats_.verify_forwards;
      const int64_t ctx_before = r->context_len();
      // Emit the accepted prefix plus the target's correction/bonus token
      // (the one sampled token of a k = 0 span). Emission may hit
      // max_new_tokens mid-prefix; finish() then frees both sequences and
      // the rollback below is skipped.
      for (int j = 0; j < accepted && !r->done(); ++j)
        deliver(*r, prop[static_cast<size_t>(j)]);
      if (!r->done())
        deliver(*r, sample(step_logits.row(base + accepted), vocab));
      if (accepted < k && !r->done()) {
        // Truncate the rejected tail on both models. The target rolls back
        // to context_len - 1 — the plain-decode invariant (the newest
        // emitted token is appended by the NEXT verify span). The draft
        // rolls back to its provably-context-matching prefix; depth-0 of the
        // next proposal replays whatever it is still missing. A fully
        // accepted span already sits at both lengths.
        model_->truncate_sequence(r->seq_handle, r->context_len() - 1);
        const int64_t draft_len = draft_->seq_pos(r->draft_seq_handle);
        draft_->truncate_sequence(
            r->draft_seq_handle, std::min(draft_len, ctx_before + accepted));
      }
    }
  }
}

bool ServingEngine::step() {
  const auto t0 = std::chrono::steady_clock::now();
  // Attention time is accumulated inside the model(s); the step's share is
  // the delta across this call (target + draft forwards alike).
  const double attn0 =
      model_->attention_seconds() +
      (draft_ ? draft_->attention_seconds() : 0.0);
  const double comm0 = model_->tp_comm_seconds() +
                       (draft_ ? draft_->tp_comm_seconds() : 0.0);

  // Mark the step in progress so cancel() from inside a callback defers to
  // this step's safe points instead of mutating mid-flight state.
  struct StepGuard {
    bool& flag;
    explicit StepGuard(bool& f) : flag(f) { flag = true; }
    ~StepGuard() { flag = false; }
  } step_guard(in_step_);
  apply_pending_cancellations();

  // Under page pressure, cached prefixes are reclaimed LRU-first BEFORE the
  // plan sees the free-page count — the cache must never cause a running
  // request to be preempted.
  prefix_pressure_evict();

  StepPlan plan = scheduler_.plan(running_, model_->kv_cache().free_pages(),
                                  stats_.steps);
  stats_.queue_depth_high_water =
      std::max(stats_.queue_depth_high_water, scheduler_.queued());

  // Retire the requests the scheduler removed this step, BEFORE executing:
  // the plan's page budget assumes their sequences are freed.
  if (!plan.expired.empty() || !plan.stalled.empty()) {
    for (Request* r : plan.expired) finish_with(*r, FinishReason::kDeadline);
    for (Request* r : plan.stalled)
      finish_with(*r, FinishReason::kError,
                  "KV pool cannot serve this request's next step");
    prune_finished();
  }

  // Livelock backstop. The scheduler converts every stuck *running* request
  // to `stalled`, and submit-time validation rejects requests larger than
  // the pool, so an all-empty plan with work outstanding should be
  // unreachable. If it ever happens anyway (a queued request the idle pool
  // still cannot admit), fail that request, not the process.
  if (plan.empty() && plan.expired.empty() && plan.stalled.empty() &&
      !scheduler_.idle(static_cast<int>(running_.size()))) {
    Request* head = scheduler_.queued_front();
    QS_CHECK_MSG(running_.empty() && head != nullptr,
                 "serving stalled: scheduler planned no work and retired "
                 "none");
    scheduler_.remove_queued(head);
    finish_with(*head, FinishReason::kError,
                "KV pool cannot admit this request");
  }

  // Apply evictions (the scheduler already re-queued the victims).
  if (!plan.evicted.empty()) {
    for (Request* r : plan.evicted) evict(*r);
    running_.erase(std::remove_if(running_.begin(), running_.end(),
                                  [](Request* r) {
                                    return r->state == RequestState::kQueued;
                                  }),
                   running_.end());
  }
  // Apply admissions (FCFS order; keeps running_ in admission order). A
  // prefix-cache hit (bound by the admission hook during plan()) forks the
  // cached entry's full pages — refcounts go up, nothing is copied or
  // allocated, so this cannot fault and the plan's page arithmetic is exact.
  for (Request* r : plan.admitted) {
    r->state = RequestState::kPrefilling;
    if (r->prefix_src_seq >= 0) {
      r->seq_handle = model_->fork_sequence(r->prefix_src_seq,
                                            r->prefix_fork_len);
      r->prefix_src_seq = -1;
      r->prefix_fork_len = 0;
    } else {
      r->seq_handle = model_->begin_sequence();
    }
    // Install the sliding window before any token is appended (bind_prefix
    // clamps a forked prefix under sinks + window, so the cache's
    // before-exceeding-the-ring precondition always holds). Re-admission
    // after preemption reinstalls the identical geometry, so the recomputed
    // ring state — and the token stream — is bitwise the uninterrupted run's.
    // The draft model (speculative decoding) stays full-attention.
    if (r->attention_window > 0)
      model_->set_sequence_window(r->seq_handle, r->sink_tokens,
                                  r->attention_window, window_slack_);
    if (speculative()) r->draft_seq_handle = draft_->begin_sequence();
    running_.push_back(r);
  }

  // Materialize each prefill share's token slice (prompt, then generated
  // tokens for a request resuming after preemption).
  std::vector<ChunkJob> chunks(plan.prefills.size());
  int64_t prefill_rows = 0;
  for (size_t i = 0; i < plan.prefills.size(); ++i) {
    Request* r = plan.prefills[i].req;
    chunks[i].req = r;
    chunks[i].tokens.reserve(static_cast<size_t>(plan.prefills[i].tokens));
    for (int64_t p = r->prefill_pos;
         p < r->prefill_pos + plan.prefills[i].tokens; ++p)
      chunks[i].tokens.push_back(context_token(*r, p));
    chunks[i].completes_prefill =
        r->prefill_pos + plan.prefills[i].tokens >= r->context_len();
    prefill_rows += static_cast<int64_t>(chunks[i].tokens.size());
  }
  const int64_t decode_rows =
      static_cast<int64_t>(plan.decodes.size()) * verify_span_;
  const int64_t step_rows = decode_rows + prefill_rows;

  // Execute. Injected faults (fault::kEngineStep here; kv_alloc / kv_append
  // inside the forwards) abort execution strictly before any sampling, so
  // converting them to preemption of the step's participants loses no
  // delivered token and recompute-on-resume keeps every stream bitwise
  // intact. Only FaultInjectedError is caught — a genuine CheckError still
  // means a broken invariant and must abort.
  bool faulted = false;
  try {
    if (step_rows > 0) fault::maybe_fail(fault::kEngineStep);
    run_step(plan.decodes, chunks, decode_rows, prefill_rows);
  } catch (const FaultInjectedError&) {
    faulted = true;
  }
  if (faulted) fault_preempt(plan.decodes, plan.prefills);
  // Cancellations requested by this step's callbacks.
  apply_pending_cancellations();

  if (!faulted) {
    stats_.peak_batch =
        std::max(stats_.peak_batch, static_cast<int>(running_.size()));
    stats_.peak_batch_tokens = std::max(stats_.peak_batch_tokens, step_rows);
    stats_.step_tokens += step_rows;
  }
  prune_finished();

  ++stats_.steps;
  stats_.wall_seconds += seconds_since(t0);
  stats_.attention_seconds +=
      model_->attention_seconds() +
      (draft_ ? draft_->attention_seconds() : 0.0) - attn0;
  stats_.comm_seconds += model_->tp_comm_seconds() +
                         (draft_ ? draft_->tp_comm_seconds() : 0.0) - comm0;
  refresh_derived_stats();
#ifndef NDEBUG
  // Debug builds check every page-pool invariant after every step.
  model_->kv_cache().audit();
  if (draft_) draft_->kv_cache().audit();
#endif
  return !scheduler_.idle(static_cast<int>(running_.size()));
}

void ServingEngine::refresh_derived_stats() {
  stats_.decode_tokens_per_second =
      stats_.decode_seconds > 0
          ? double(stats_.decode_tokens) / stats_.decode_seconds
          : 0;
  stats_.prefill_tokens_per_second =
      stats_.prefill_seconds > 0
          ? double(stats_.prefill_tokens) / stats_.prefill_seconds
          : 0;
  stats_.mean_tokens_per_step =
      stats_.steps > 0 ? double(stats_.step_tokens) / double(stats_.steps)
                       : 0;
  stats_.attention_share =
      stats_.wall_seconds > 0
          ? stats_.attention_seconds / stats_.wall_seconds
          : 0;
  stats_.acceptance_rate =
      stats_.proposed_tokens > 0
          ? double(stats_.accepted_tokens) / double(stats_.proposed_tokens)
          : 0;
  stats_.target_forwards_per_decode_token =
      stats_.decode_tokens > 0
          ? double(stats_.verify_forwards) / double(stats_.decode_tokens)
          : 0;
  if (served_finished_ > 0) {
    stats_.mean_first_token_steps =
        first_token_steps_sum_ / double(served_finished_);
    stats_.mean_completion_steps =
        completion_steps_sum_ / double(served_finished_);
  }
  const double shard_max =
      model_->tp_shard_max_seconds() +
      (draft_ ? draft_->tp_shard_max_seconds() : 0.0);
  const double shard_mean =
      model_->tp_shard_mean_seconds() +
      (draft_ ? draft_->tp_shard_mean_seconds() : 0.0);
  stats_.shard_imbalance = shard_mean > 0 ? shard_max / shard_mean : 0;
  stats_.cow_page_copies = model_->kv_cache().cow_page_copies();
  stats_.shared_pages = model_->kv_cache().shared_pages();
  stats_.kv_recycled_pages = model_->kv_cache().recycled_pages();
  stats_.prefix_cache_entries = prefix_index_.size();
  stats_.prefix_cache_pages = prefix_index_.pages();
}

EngineStats ServingEngine::drain() {
  while (step()) {
  }
  return stats_;
}

const Request& ServingEngine::request(int id) const {
  QS_CHECK(id >= 0 && id < static_cast<int>(requests_.size()));
  return *requests_[static_cast<size_t>(id)];
}

}  // namespace qserve
