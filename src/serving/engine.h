// Serving engine: continuous-batching loop over a QuantizedModel.
//
// This is the CPU-executable counterpart of the QServe runtime — it really
// runs the quantized kernels and the paged quantized KV cache, so integration
// tests can assert end-to-end behaviour (admission under memory pressure,
// in-flight join/leave, chunked prefill, preemption round trips, token-order
// preservation). Wall-clock throughput at GPU scale comes from src/simulator.
//
// Each step lowers the Scheduler's StepPlan into one BatchedStep — every
// decoding request's verify span plus every prefill-chunk token, stacked
// row-wise — and executes it with a single QuantizedModel::forward_step()
// call, so the pre-packed cache-blocked GEMMs see the whole step's rows in
// one call per projection per layer. There is one step path: a plain decode
// row is a verify span of the pending token with k = 0 draft tokens, and a
// speculative engine (see SpeculativeConfig) widens the same span to k + 1.
// Token streams are identical at any thread count, ISA and shard count; the
// model-level prefill / decode_step calls are the per-request reference the
// tests compare against.
//
// Callers can stream results through callbacks instead of polling request
// state: submit(prompt, opts, on_token, on_finish) registers per-token /
// finish callbacks, and drain() (or a caller-driven step() loop) pumps the
// engine until idle.
//
// Failure semantics: every request finishes exactly once with a definite
// FinishReason (see request.h). Per-request conditions — bad input, a
// deadline, cancellation, bounded-queue overload, a throwing user callback,
// an injected fault — never abort the process and never perturb other
// requests' token streams: an injected KV-allocation or step fault converts
// to recompute-on-resume preemption of the step's participants, which is
// bitwise stream-preserving by construction.
#pragma once

#include <memory>

#include "common/rng.h"
#include "model/quantized_model.h"
#include "serving/prefix_index.h"
#include "serving/scheduler.h"

namespace qserve {

// Draft/verify speculative decoding, active when the engine is constructed
// with a draft model. Each decode step proposes `lookahead_k` tokens with the
// draft (a small quantized model with its own KV cache), scores all k+1
// positions of every request's verify span in the step's one batched target
// forward, accepts the longest prefix of draft tokens that match the
// target's greedy argmax, and truncates the rejected tail from both caches.
// An engine without a draft runs the same path with k = 0: a one-token span,
// no proposals, one sampled token, no rollback. Greedy acceptance makes the
// output streams bitwise identical to the k = 0 engine — every emitted token
// is the target's own argmax over logits computed against exactly the KV
// state the k = 0 engine would hold. Requires temperature == 0.
struct SpeculativeConfig {
  // Draft tokens proposed per verify span (read only when a draft model is
  // given); the target scores k+1 positions per request per step and the
  // scheduler reserves k+1 tokens' pages per decoding request.
  int lookahead_k = 4;
};

struct EngineConfig {
  SchedulerConfig scheduler;
  // Sampling: 0 = greedy argmax. Tokens are sampled serially in admission
  // order, so a seeded run's streams do not depend on threads or ISA.
  float temperature = 0.0f;
  uint64_t sample_seed = 7;
  SpeculativeConfig speculative;
  // Bounded admission (0 = unlimited). When a new submission would push the
  // scheduler queue past either cap, submit() finishes it immediately with
  // FinishReason::kShedOverload and try_submit() returns -1 without creating
  // a request — load sheds at the door instead of building unbounded queues.
  // Running requests do not count; the caps bound *waiting* work.
  int64_t max_queued_requests = 0;
  int64_t max_queued_prompt_tokens = 0;
  // Prefix caching: when a request's prefill completes, its prompt's
  // page-aligned KV prefix is donated to a radix-tree index (a zero-copy
  // fork — the pages' refcounts go up); a later request whose prompt shares
  // a prefix with any cached entry forks those full pages at admission and
  // starts prefill at the match length, skipping the matched tokens'
  // compute. Token streams are bitwise identical to cold runs (the KV bytes
  // of a token prefix are a pure function of the prefix). Off by default:
  // cached entries hold pages after their donor finishes — pages_in_use()
  // only returns to 0 after clear_prefix_cache() — and under page pressure
  // the engine reclaims unpinned entries LRU-first before any running
  // request is preempted.
  bool prefix_caching = false;
  // Cached-entry cap; at capacity the LRU unpinned entry is reclaimed to
  // make room for a new donation (skipped if every entry is pinned).
  int64_t prefix_cache_max_entries = 64;
};

struct EngineStats {
  int64_t steps = 0;
  // Prompt tokens run through prefill chunks (re-prefill after preemption
  // counts again — it is real work).
  int64_t prefill_tokens = 0;
  // Tokens produced by decode steps, plus post-preemption re-prefill
  // completions (they continue the decode stream). First tokens are counted
  // separately: the token sampled when a prompt's prefill completes is not a
  // decode token and must not inflate decode throughput.
  int64_t decode_tokens = 0;
  int64_t first_tokens = 0;
  int64_t preemptions = 0;
  // Wall time split by work type (forward passes only) plus the whole-step
  // total (includes scheduling/sampling overhead). A batched step runs one
  // forward for both kinds of work; its time is apportioned by row count.
  double prefill_seconds = 0;
  double decode_seconds = 0;
  double wall_seconds = 0;
  // Wall time the forwards spent inside the per-layer attention sections
  // (KV append + QK/softmax/SV of every span), summed over target and draft
  // models, and its share of wall_seconds.
  double attention_seconds = 0;
  double attention_share = 0;
  // Tensor-parallel observables (draft-model deltas included, like
  // attention_seconds). comm_seconds is wall time at the shard reduction
  // boundaries — column-parallel concats and row-parallel all-reduce +
  // epilogue. shard_imbalance is cumulative slowest-shard wall time over
  // cumulative mean shard wall time across every shard region (1.0 =
  // perfectly balanced; 0 when no shard region ever ran, i.e. tp_shards==1).
  double comm_seconds = 0;
  double shard_imbalance = 0;
  // Peak *requests* running in one step.
  int peak_batch = 0;
  // Batched-GEMM occupancy: peak stacked rows (decode tokens + prefill-chunk
  // tokens) executed in one step, and the mean over all steps — the m each
  // projection GEMM actually sees.
  int64_t peak_batch_tokens = 0;
  int64_t step_tokens = 0;  // total rows across all steps
  double mean_tokens_per_step = 0;
  // Throughputs over the matching wall-time split.
  double prefill_tokens_per_second = 0;
  double decode_tokens_per_second = 0;
  // Per-request latency in engine steps.
  double mean_first_token_steps = 0;
  double mean_completion_steps = 0;
  // --- verify spans (decode; speculative when a draft model is given) ----
  // Engine steps that ran >= 1 verify span (>= 1 decoding request). Their
  // draft + verify wall time lands in decode_seconds and every token they
  // emit counts once in decode_tokens, so a step that lands 1 + a accepted
  // tokens raises decode tok/s honestly instead of inflating it — the same
  // discipline that keeps first tokens out of the decode split.
  int64_t verify_steps = 0;
  // Per-request verify executions: how many times a request's k+1-token span
  // went through a target forward. A k = 0 engine spends exactly one target
  // forward per decode token (ratio below == 1.0 when no request was
  // preempted); speculation spends verify_forwards for (accepted +
  // verify_forwards) tokens, so the ratio dropping under 1.0 is the "fewer
  // target forwards than tokens" win.
  int64_t verify_forwards = 0;
  int64_t proposed_tokens = 0;  // k per request per verify span (0 plain)
  int64_t accepted_tokens = 0;  // accepted draft prefix lengths, summed
  double acceptance_rate = 0;   // accepted_tokens / proposed_tokens (0 plain)
  double target_forwards_per_decode_token = 0;
  // --- request lifecycle --------------------------------------------------
  // Finished-request counts by FinishReason; their sum is the number of
  // on_finish callbacks fired.
  int64_t completed = 0;         // kLength
  int64_t cancelled = 0;         // kCancelled
  int64_t deadline_expired = 0;  // kDeadline
  int64_t shed = 0;              // kShedOverload
  int64_t rejected = 0;          // kRejected
  int64_t errored = 0;           // kError
  // Deepest the admission queue ever got (sampled at submit and per step).
  int64_t queue_depth_high_water = 0;
  // Steps whose execution was aborted by an injected fault and converted to
  // preemption of the step's participants.
  int64_t faulted_steps = 0;
  // User on_token/on_finish callbacks that threw (caught at the boundary).
  int64_t callback_exceptions = 0;
  // --- prefix caching & CoW sharing ---------------------------------------
  // Admissions that forked KV from a cached prefix instead of cold-starting.
  int64_t prefix_hits = 0;
  // KV tokens aliased from shared pages at those forks (full pages only).
  int64_t prefix_tokens_reused = 0;
  // Prompt tokens whose prefill compute was skipped, cumulatively — each hit
  // starts prefill_pos at the aligned match length instead of 0.
  int64_t prefill_tokens_saved = 0;
  // Entries donated to / reclaimed from / invalidated out of the index.
  int64_t prefix_insertions = 0;
  int64_t prefix_evictions = 0;
  int64_t prefix_invalidations = 0;
  // Gauges (sampled every step and on drain): copy-on-write page copies the
  // KV cache has performed (cumulative), pages currently referenced by more
  // than one sequence, and the index's entry/page footprint.
  int64_t cow_page_copies = 0;
  int64_t shared_pages = 0;
  int64_t prefix_cache_entries = 0;
  int64_t prefix_cache_pages = 0;
  // --- sliding-window attention -------------------------------------------
  // Requests submitted with a non-zero attention_window (counted once at
  // submit, not per re-admission).
  int64_t windowed_requests = 0;
  // Cumulative pages the KV cache recycled in place for windowed sequences
  // (PagedKvCache::recycled_pages; every recycle is an allocation a full-
  // attention run would have needed).
  int64_t kv_recycled_pages = 0;
};

class ServingEngine {
 public:
  // Validates the configuration loudly (QS_CHECK): temperature >= 0 and a
  // sane scheduler config (the Scheduler constructor checks its own fields).
  ServingEngine(QuantizedModel* model, const EngineConfig& cfg);

  // Speculative engine: `draft` is a distinct (typically much smaller)
  // quantized model sharing the target's vocabulary, with its own KV cache
  // and pool. Decode steps run draft-k / verify / rollback (see
  // SpeculativeConfig); prefill is unchanged and runs only on the target.
  // Requires cfg.temperature == 0 and cfg.speculative.lookahead_k >= 1; the
  // scheduler's decode reservation is widened to k+1 tokens per step. Size
  // the draft's kv_max_pages like the target's — the draft mirrors every
  // decoding request's context (its pages free on preemption and finish just
  // like the target's), but its pool is not scheduler-managed, so exhaustion
  // there fails loudly instead of triggering eviction.
  ServingEngine(QuantizedModel* model, QuantizedModel* draft,
                const EngineConfig& cfg);

  // Submit a request; returns its id. Requests are owned by the engine.
  int submit(std::vector<int> prompt, int max_new_tokens);

  // Streaming submit: on_token fires once per generated token in stream
  // order (during the step that sampled it), on_finish exactly once after
  // the last token. Either callback may be null. Never throws for
  // per-request conditions: unservable input finishes immediately with
  // kRejected, a full queue with kShedOverload — in both cases on_finish has
  // already fired by the time submit() returns.
  int submit(std::vector<int> prompt, const RequestOptions& opts,
             std::function<void(const Request&, int)> on_token,
             std::function<void(const Request&)> on_finish = nullptr);

  // Backpressure-reporting submit: returns -1 WITHOUT creating a request
  // when the queue caps would shed it, so callers can retry later or
  // propagate the pushback upstream. Unservable input still creates the
  // request and finishes it kRejected (retrying would never help), exactly
  // like submit().
  int try_submit(std::vector<int> prompt, const RequestOptions& opts,
                 std::function<void(const Request&, int)> on_token = nullptr,
                 std::function<void(const Request&)> on_finish = nullptr);

  // Cancel a request. Returns true if the cancellation was accepted (the
  // request will finish with FinishReason::kCancelled), false if it already
  // finished or was already cancelled. Safe to call from inside on_token /
  // on_finish: mid-step cancellations are applied at the next safe point
  // (already-delivered tokens stand; no further tokens are delivered after
  // the step in which the cancellation is applied). Frees the target and
  // draft KV sequences and fires on_finish exactly once.
  bool cancel(int id);

  // One engine iteration: plan (admit/evict), execute the step's rows (one
  // batched forward), sample per finished row, fire callbacks. Builds
  // without NDEBUG then run PagedKvCache::audit() on the target's and the
  // draft's caches. Returns false when fully idle.
  bool step();

  // Pump step() until idle and return the stats. Callers consume tokens via
  // callbacks or read request state afterwards. Derived stats (throughputs,
  // means) are refreshed at the end of every step(), so a caller-driven
  // step() loop reads the same numbers from stats().
  EngineStats drain();

  const Request& request(int id) const;
  const EngineStats& stats() const { return stats_; }

  // Release every cached prefix entry (their KV sequences are freed; pages
  // shared with running requests survive via refcounts). After the engine is
  // also drained, pages_in_use() is back to 0. Safe to call any time —
  // in-flight requests that forked from a released entry keep their pages.
  void clear_prefix_cache();

 private:
  struct ChunkJob;  // one prefill share's materialized tokens (engine.cpp)

  int sample(const float* logits, int64_t vocab);
  // The prefill half of the sampling loop: advance chunk bookkeeping and,
  // when the chunk completes the request's prefill, transition it to
  // decoding and sample its first token from `logits` (the chunk's last
  // position; null for a mid-prompt chunk).
  void handle_prefill_result(Request& r, const ChunkJob& c,
                             const float* logits);
  // Record a sampled token: append, fire on_token, finish if complete.
  void deliver(Request& r, int token);
  // The single finish path: set the reason, free both KV sequences, bump the
  // per-reason counter, fire on_finish exactly once (exceptions caught).
  void finish_with(Request& r, FinishReason reason,
                   const char* error = nullptr);
  // Shared body of submit()/try_submit(): validate (kRejected), apply queue
  // caps (kShedOverload, or -1 when !create_on_shed), else enqueue.
  int submit_impl(std::vector<int> prompt, const RequestOptions& opts,
                  std::function<void(const Request&, int)> on_token,
                  std::function<void(const Request&)> on_finish,
                  bool create_on_shed);
  // Finish every pending cancellation (deferred while a step is executing)
  // and drop the finished requests from running_.
  void apply_pending_cancellations();
  // Convert an injected fault that aborted this step's execution into
  // recompute-on-resume preemption of every step participant.
  void fault_preempt(const std::vector<Request*>& decodes,
                     const std::vector<PrefillWork>& prefills);
  // Drop finished requests from running_ (admission order is preserved).
  void prune_finished();
  // Preempt: free the KV sequence(s) and reset prefill progress; the request
  // is already back in the scheduler queue.
  void evict(Request& r);
  bool speculative() const { return draft_ != nullptr; }
  // --- prefix caching ------------------------------------------------------
  // Scheduler admission hook: longest-prefix lookup (generation-validated),
  // set prefill_pos to the page-aligned match and stash the fork source.
  void bind_prefix(Request& r);
  // At prefill completion: donate the prompt's page-aligned KV prefix to the
  // index (zero-copy fork; skipped if the exact key is cached or the entry
  // cap is reached with everything pinned).
  void maybe_insert_prefix(Request& r);
  // Drop this request's pins on index entries (finish / preemption).
  void unpin_prefix(Request& r);
  // Reclaim LRU unpinned entries while the pool is under the step's
  // conservative page watermark — cached prefixes never cause a running
  // request to be preempted.
  void prefix_pressure_evict();
  // Parallel sampling: fork n-1 sibling requests at the primary's first
  // prefill completion, sampling each sibling's first token from the same
  // logits; siblings enqueue and re-enter admission (hitting the prompt's
  // just-donated prefix entry when caching is on).
  void spawn_siblings(Request& r, const float* logits);
  // Draft-k proposals for every decoding request of the plan, one batched
  // draft forward per lookahead depth (depth 0 also catches the draft up on
  // context it has not seen). Returns proposals[i] for plan.decodes[i].
  std::vector<std::vector<int>> propose_draft_tokens(
      const std::vector<Request*>& decodes);
  // Execute one planned step, for draft and no-draft engines alike: draft
  // proposals (draft only), one batched target forward over every verify
  // span (k+1 rows each) and prefill chunk, then greedy longest-prefix
  // acceptance and emission in admission order, and KV rollback on both
  // models when a span is only partly accepted. With k = 0 each span emits
  // exactly one sampled token and never rolls back.
  void run_step(const std::vector<Request*>& decodes,
                const std::vector<ChunkJob>& chunks, int64_t decode_rows,
                int64_t prefill_rows);
  // Recompute the derived stats (throughputs, per-step/request means) from
  // the running counters; called at the end of every step().
  void refresh_derived_stats();

  QuantizedModel* model_;
  QuantizedModel* draft_ = nullptr;  // speculative decoding draft model
  EngineConfig cfg_;
  // KV tokens a decoding request's verify span appends per step: the
  // pending token plus k draft tokens (k = lookahead_k with a draft model,
  // 0 without). The scheduler reserves pages for it, and it is also the
  // deepest rollback.
  int verify_span_;
  // Ring slack passed to PagedKvCache::set_window for every windowed
  // request: the largest single append span the engine can produce — a full
  // prefill chunk or a verify span — so the ring never recycles a page a
  // pending span or rollback still needs. Fixed at construction; identical
  // across preemption round trips, which keeps recompute-on-resume ring
  // geometry (and therefore the token streams) bitwise stable.
  int64_t window_slack_;
  Scheduler scheduler_;
  PrefixIndex prefix_index_;
  std::vector<std::unique_ptr<Request>> requests_;
  std::vector<Request*> running_;  // admission order; back = youngest
  EngineStats stats_;
  // Incremental latency sums over finished requests that produced at least
  // one token (O(1) per-step derived stats instead of a rescan of
  // requests_). Shed/rejected/never-served requests are excluded so the
  // latency means describe served traffic.
  double first_token_steps_sum_ = 0;
  double completion_steps_sum_ = 0;
  int64_t served_finished_ = 0;
  // Cancellations requested while a step was executing; applied at the next
  // safe point (step boundaries and after the sampling loop).
  std::vector<int> pending_cancels_;
  bool in_step_ = false;
  bool applying_cancels_ = false;
  Rng rng_;
};

}  // namespace qserve
