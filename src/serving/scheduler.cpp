#include "serving/scheduler.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"

namespace qserve {

Scheduler::Scheduler(const SchedulerConfig& cfg, int page_size, int n_layers,
                     int decode_span)
    : cfg_(cfg), page_size_(page_size), n_layers_(n_layers),
      decode_span_(decode_span) {
  // Loud construction-time validation: a zero/negative chunk or batch would
  // otherwise plan empty steps forever, and a bad pool geometry would
  // corrupt the page-cost arithmetic downstream.
  QS_CHECK_MSG(cfg_.max_batch > 0, "SchedulerConfig.max_batch must be >= 1");
  QS_CHECK_MSG(cfg_.prefill_chunk > 0,
               "SchedulerConfig.prefill_chunk must be >= 1");
  QS_CHECK_MSG(decode_span_ > 0, "decode_span must be >= 1");
  QS_CHECK_MSG(page_size_ > 0, "KV page_size must be >= 1");
  QS_CHECK_MSG(n_layers_ > 0, "model must have >= 1 layer");
}

int64_t Scheduler::kv_len(const Request& r) {
  if (r.state == RequestState::kDecoding) {
    // The most recent sampled token is appended by the *next* decode step.
    return r.context_len() - 1;
  }
  return r.prefill_pos;
}

int64_t Scheduler::grow_pages(int64_t len, int64_t tokens) const {
  return (ceil_div(len + tokens, int64_t(page_size_)) -
          ceil_div(len, int64_t(page_size_))) *
         n_layers_;
}

int64_t Scheduler::grow_pages(const Request& r, int64_t tokens) const {
  const int64_t len = kv_len(r);
  const int64_t cap = r.window_page_cap;
  if (cap <= 0) return grow_pages(len, tokens);
  // Page count is clamped at the ring cap: once the sequence holds cap pages
  // per layer, further tokens recycle the oldest non-sink page in place.
  const int64_t now = std::min(ceil_div(len, int64_t(page_size_)), cap);
  const int64_t then =
      std::min(ceil_div(len + tokens, int64_t(page_size_)), cap);
  return (then - now) * n_layers_;
}

int64_t Scheduler::held_pages(const Request& r) const {
  // Pages freed if this request's sequence goes away. Pages shared with a
  // prefix-cache entry or a sibling fork (prefix_shared_pages per layer)
  // only drop a refcount, so they are excluded — the credit is conservative
  // (never over-counts; sharing that has since dissolved just under-counts).
  // A windowed request's footprint is clamped at its ring cap regardless of
  // logical length.
  int64_t per_layer = ceil_div(kv_len(r), int64_t(page_size_));
  if (r.window_page_cap > 0)
    per_layer = std::min(per_layer, r.window_page_cap);
  per_layer -= r.prefix_shared_pages;
  return std::max<int64_t>(per_layer, 0) * n_layers_;
}

int64_t Scheduler::token_capacity(int64_t len, int64_t free) const {
  const int64_t slack = len % page_size_ ? page_size_ - len % page_size_ : 0;
  return slack + std::max<int64_t>(free, 0) / n_layers_ * page_size_;
}

int64_t Scheduler::token_capacity(const Request& r, int64_t free) const {
  const int64_t len = kv_len(r);
  const int64_t cap = r.window_page_cap;
  if (cap > 0) {
    // Remaining allocations before the ring is full; past that, every append
    // recycles in place and the request can absorb any number of tokens.
    const int64_t now = std::min(ceil_div(len, int64_t(page_size_)), cap);
    if (std::max<int64_t>(free, 0) / n_layers_ >= cap - now)
      return std::numeric_limits<int64_t>::max() / 4;
  }
  return token_capacity(len, free);
}

bool Scheduler::past_deadline(const Request& r, int64_t current_step) {
  const int64_t age = current_step - r.submitted_step;
  if (r.deadline_steps > 0 && age >= r.deadline_steps) return true;
  if (r.ttft_deadline_steps > 0 && r.first_token_step < 0 &&
      age >= r.ttft_deadline_steps)
    return true;
  return false;
}

bool Scheduler::remove_queued(Request* r) {
  auto it = std::find(queue_.begin(), queue_.end(), r);
  if (it == queue_.end()) return false;
  queued_prompt_tokens_ -= r->context_len();
  queue_.erase(it);
  return true;
}

StepPlan Scheduler::plan(const std::vector<Request*>& running,
                         int64_t free_pages, int64_t current_step) {
  StepPlan plan;
  int64_t free = free_pages;

  // 0. Deadline expiry, before any reservation: expired requests leave the
  // batch and the queue now, and a running expiree's pages are credited to
  // this step's budget (the engine frees its sequences before executing).
  std::vector<Request*> live;
  live.reserve(running.size());
  for (Request* r : running) {
    if (past_deadline(*r, current_step)) {
      free += held_pages(*r);
      plan.expired.push_back(r);
    } else {
      live.push_back(r);
    }
  }
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (past_deadline(**it, current_step)) {
      queued_prompt_tokens_ -= (*it)->context_len();
      plan.expired.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }

  // 1. Decode-priority page reservation. Evict the youngest running request
  // (prefilling or decoding) until every decode's step fits — a step appends
  // decode_span_ tokens at peak (1 plain, k+1 for a speculative verify span
  // before its rollback). If a *lone* decode still cannot fit, the pool can
  // never serve it: move it to `stalled` instead of spinning (the engine
  // finishes it with kError).
  const auto decode_need = [&live, this]() {
    int64_t need = 0;
    for (Request* r : live)
      if (r->state == RequestState::kDecoding)
        need += grow_pages(*r, decode_span_);
    return need;
  };
  int64_t need = decode_need();
  while (need > free && live.size() > 1) {
    Request* victim = live.back();
    live.pop_back();
    free += held_pages(*victim);
    plan.evicted.push_back(victim);
    // Front of the queue: an evictee outranks never-admitted requests, and
    // evicting youngest-first then pushing front keeps older evictees ahead.
    requeue_front(victim);
    need = decode_need();
  }
  if (need > free) {
    Request* lone = live.back();
    live.pop_back();
    free += held_pages(*lone);
    plan.stalled.push_back(lone);
    need = decode_need();
    QS_CHECK_MSG(need == 0, "stalled-decode conversion left residual need");
  }
  free -= need;
  for (Request* r : live)
    if (r->state == RequestState::kDecoding) plan.decodes.push_back(r);

  // 2. FCFS admission against what the decodes left over. Admission is
  // page-incremental: one token's pages must fit now; later growth is
  // resolved by allocation on demand and, if needed, preemption. Skipped on
  // eviction steps so a victim's pages are not immediately re-committed.
  if (plan.evicted.empty()) {
    int64_t admit_hold = 0;  // one-page-per-layer notional hold per admit
    while (!queue_.empty() &&
           static_cast<int>(live.size()) < cfg_.max_batch &&
           free - admit_hold >= n_layers_) {
      Request* r = queue_.front();
      queue_.pop_front();
      queued_prompt_tokens_ -= r->context_len();
      // Prefix-cache consultation: a hit advances r->prefill_pos to the
      // match length before the chunk distribution below, so the planned
      // shares and page growth already reflect the skipped prefill.
      if (admission_hook_) admission_hook_(*r);
      plan.admitted.push_back(r);
      live.push_back(r);
      admit_hold += n_layers_;
    }
  }

  // 3. Distribute the prefill chunk. Shortest-remaining-first bounds a short
  // request's time-to-first-token by one chunk step even when a long prompt
  // is mid-prefill; the oldest prefilling request keeps at least half the
  // chunk so short arrivals cannot starve it. Page-exact clamping: the
  // engine appends exactly the planned tokens, so the pool cannot be
  // exhausted mid-step.
  const auto remaining = [](const Request* r) {
    return r->context_len() - r->prefill_pos;
  };
  const auto distribute = [&]() {
    std::vector<Request*> pre;
    for (Request* r : live)
      if (r->state != RequestState::kDecoding) pre.push_back(r);
    Request* const oldest = pre.empty() ? nullptr : pre.front();
    std::stable_sort(pre.begin(), pre.end(),
                     [&](const Request* a, const Request* b) {
                       return remaining(a) < remaining(b);
                     });
    int64_t budget = cfg_.prefill_chunk;
    int64_t other_budget = budget / 2;
    for (Request* r : pre) {
      const int64_t cap =
          r == oldest ? budget : std::min(budget, other_budget);
      int64_t t = std::min(remaining(r), cap);
      t = std::min(t, token_capacity(*r, free));
      if (t <= 0) continue;
      plan.prefills.push_back({r, static_cast<int>(t)});
      free -= grow_pages(*r, t);
      budget -= t;
      if (r != oldest) other_budget -= t;
    }
  };
  distribute();

  // 4. Prefill-deadlock relief. With no decodes to drive eviction, several
  // mid-prefill requests can jointly exhaust the pool and all stall even
  // though each would complete alone. Evict the youngest (freeing its
  // pages) until the oldest can progress. Admission cannot have happened on
  // such a step (no pages -> no admission), so the victims are always
  // previously-running prefills. `plan.prefills` is empty on entry (nothing
  // was assigned), so re-running the distribution after freeing pages
  // starts from a clean slate.
  while (plan.decodes.empty() && plan.prefills.empty() && live.size() > 1) {
    Request* victim = live.back();
    live.pop_back();
    free += held_pages(*victim);
    plan.evicted.push_back(victim);
    requeue_front(victim);
    distribute();
  }

  // 5. Livelock conversion: a lone mid-prefill request that cannot place a
  // single token even with the rest of the pool free can never progress —
  // fail *that request* (kError via `stalled`) instead of the whole engine.
  // The guards are deliberately conservative: any eviction, expiry, or
  // prior stall this step may free pages, so the next plan() call gets a
  // fresh chance before anything is declared stuck. (An empty batch with a
  // non-empty queue and no pages is NOT converted here: with nothing
  // running, the pool's pages are simply not free *yet* from this planner's
  // point of view — the engine, which knows the pool is fully idle in that
  // state, handles the genuinely-unadmittable case.)
  if (plan.empty() && plan.expired.empty() && plan.stalled.empty() &&
      live.size() == 1 && remaining(live[0]) > 0) {
    Request* lone = live[0];
    live.pop_back();
    free += held_pages(*lone);
    plan.stalled.push_back(lone);
  }
#ifndef NDEBUG
  audit_plan(running, free_pages, plan);
#endif
  return plan;
}

void Scheduler::audit_plan(const std::vector<Request*>& running,
                           int64_t free_pages, const StepPlan& plan) const {
  const auto in = [](const auto& v, const Request* r) {
    return std::find(v.begin(), v.end(), r) != v.end();
  };
  int64_t credit = 0, need = 0, queued_tokens = 0;
  for (const auto* retired : {&plan.expired, &plan.evicted, &plan.stalled})
    for (const Request* r : *retired) credit += held_pages(*r);
  std::vector<const Request*> live(plan.admitted.begin(), plan.admitted.end());
  for (const Request* r : running)
    if (!in(plan.evicted, r)) live.push_back(r);  // evictees are requeued
  for (const Request* r : live)
    QS_CHECK_MSG(!in(queue_, r), "scheduler audit: request "
                                     << r->id << " is queued and running");
  for (const Request* r : plan.decodes) need += grow_pages(*r, decode_span_);
  for (const PrefillWork& w : plan.prefills)
    need += grow_pages(*w.req, w.tokens);
  QS_CHECK_MSG(need <= free_pages + credit,
               "scheduler audit: plan needs " << need << " pages > "
                                              << free_pages << " free + "
                                              << credit << " credited");
  for (const Request* r : queue_) queued_tokens += r->context_len();
  QS_CHECK_MSG(queued_tokens == queued_prompt_tokens_,
               "scheduler audit: queued_prompt_tokens "
                   << queued_prompt_tokens_ << " != " << queued_tokens);
}

}  // namespace qserve
