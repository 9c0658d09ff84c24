// Paged KV cache with per-head dynamic quantization (§5.1).
//
// Follows vLLM/TRT-LLM paging to avoid fragmentation, but instead of their
// per-tensor *static* INT8 scales, QServe stores FP16 scale + zero point per
// (token, head) immediately after the quantized features in each page and
// updates them on the fly — the requirement for KV4 accuracy. This module is
// the storage substrate; the attention numerics (FP16 accumulation) live in
// kernels/attention.h and walk the pages as SeqView runs.
//
// One write path and one read path. Every write is append_reserve (locked
// bookkeeping) followed by append_write_heads (unlocked quantize-into-page);
// append_batch is the full-head composition of the two, and a single token is
// the n = 1 span. Every read goes through a SeqView's page runs, decoded by
// the attention kernel table's `dequant` (kernels/cpu/attention_kernel.h) —
// there is no per-(token, head) reader. gather, the float form of a whole
// sequence, is that decode over view(seq)'s runs: the resident rows, all of
// them for a plain sequence, the sinks plus the retained tail for a windowed
// one.
//
// Threading contract: one batched forward touches many sequences at once —
// pool workers write each span's reserved slots and gather/attend over
// distinct sequences, tensor-parallel shards write disjoint head ranges of
// the same reserved slots (append_write_heads) and take their own views from
// their own threads, and batched decode attention reads every sequence's
// pages in one region. So append/view/gather on *distinct* sequences may run
// concurrently: pool bookkeeping (page allocation, free lists, refcounts,
// usage counters) is guarded by an internal mutex — which also orders the
// structural mutations (copy-on-write, ring recycling, and the
// truncate_sequence of a speculative rollback) against other sequences'
// views — and page/sequence storage is reference-stable (std::deque).
// Operations on the *same* sequence (other than disjoint-head writes of
// already-reserved slots), and the sequence lifecycle (alloc_sequence/
// free_sequence) relative to uses of that sequence, must still be
// serialized by the caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "kernels/cpu/attention_kernel.h"
#include "quant/kv_quant.h"
#include "tensor/tensor.h"

namespace qserve {

enum class KvPrecision : int { kFp16 = 16, kInt8 = 8, kInt4 = 4 };

struct KvCacheConfig {
  int n_kv_heads = 8;
  int head_dim = 64;
  int page_size = 64;  // tokens per page
  KvPrecision precision = KvPrecision::kInt4;
  int64_t max_pages = 1 << 20;
};

// Device bytes one page occupies (codes + in-page dynamic params), matching
// the layout described in §5.1. Used for memory-budget accounting. Storage
// matches the model exactly: INT4 codes are nibble-packed two per byte, the
// FP16 payload and per-(token, head) scale/zero params are binary16 bits —
// see PagedKvCache::measured_page_bytes().
int64_t kv_page_bytes(const KvCacheConfig& cfg);

// One (token, head) dynamic scale/zero pair as stored in a page: binary16
// bits, 4 bytes total, exactly the §5.1 in-page layout.
struct PackedKvParams {
  uint16_t scale_bits = 0;
  uint16_t zero_bits = 0;
};
static_assert(sizeof(PackedKvParams) == 4, "in-page params must be 2x FP16");

class PagedKvCache {
  struct Page;  // defined below; forward-declared for SeqView

 public:
  explicit PagedKvCache(const KvCacheConfig& cfg);

  // Sequence lifecycle. Handles are dense ints; freed handles are reused.
  int alloc_sequence();
  void free_sequence(int seq);
  bool is_live(int seq) const;

  // Fork: a new sequence aliasing src's first `upto_len` tokens. Every page
  // covering [0, upto_len) — including a partially-covered boundary page —
  // is SHARED (refcount++), not copied, so forking allocates zero pages and
  // cannot fail for capacity. Shared pages are immutable: the first writer
  // (an append filling the shared tail page, or truncate_sequence
  // cutting into one) copies the page privately first (copy-on-write) and
  // only then writes — the other owners' data, and their SeqViews, stay
  // valid (a CoW copy does NOT bump the shared page's generation; only a
  // true free does). pages_in_use() counts physical pages, so a fork leaves
  // it unchanged and a CoW copy raises it by one. A windowed source may only
  // be forked over pages that can never have been recycled: the sinks, or
  // any prefix while the source has not yet recycled a page.
  int fork_sequence(int src, int64_t upto_len);

  // --- sliding-window attention with sinks (page ring) -----------------------
  //
  // Installs a StreamingLLM-style attention policy on a live sequence: every
  // token keeps attending to the first `sink_tokens` positions plus the most
  // recent `window_tokens` positions, and once the sequence grows past
  // sinks + window the cache stops allocating — the page table becomes
  // [sink pages | ring of ring_pages slots] and each new page REUSES the slot
  // of the oldest non-sink page. Logical positions keep advancing (RoPE and
  // causal masking are untouched); only the physical footprint is bounded at
  // window_page_cap() pages. Recycling a privately-owned page bumps its
  // generation (stale SeqViews trip QS_DCHECK) and reuses it in place — zero
  // pool traffic; recycling a page still shared with a fork or prefix-cache
  // entry releases this sequence's reference (no generation bump — the other
  // owners' bytes stay live and valid) and takes a fresh page instead.
  //
  // `slack_tokens` sizes the ring's safety margin beyond the window: it must
  // cover BOTH the deepest truncate_sequence rollback (speculative k+1) and
  // the largest single append span (prefill chunk / verify span), because a
  // span's earliest row still attends to its own trailing window and a
  // rollback re-exposes up to slack tokens of it. Appends of more than
  // slack_tokens tokens, and truncations deeper than slack_tokens, QS_CHECK;
  // since every append is a span of at least one token, slack_tokens >= 1.
  //
  // Constraints (all QS_CHECKed loudly): window_tokens > 0 and a multiple of
  // page_size, sink_tokens >= 0 and a multiple of page_size (partial pages
  // are NOT supported — the ring recycles whole pages, so both boundaries
  // must be page-aligned), the sequence must not already have a window, and
  // its current length must still fit the identity-mapped prefix of the ring
  // (<= sinks + window + slack rounded up one page), i.e. install the window
  // before the sequence grows past it. Deterministic by construction: ring
  // geometry is a pure function of (sink, window, slack, page_size), so a
  // preempted request that re-prefills its context re-derives the identical
  // ring state.
  void set_window(int seq, int64_t sink_tokens, int64_t window_tokens,
                  int64_t slack_tokens);

  // Bounded per-sequence footprint of that policy, in pages: sink pages plus
  // the ring slots (window pages + slack pages + 1 boundary page). What the
  // scheduler charges a windowed request per layer instead of ceil(len/page).
  static int64_t window_page_cap(const KvCacheConfig& cfg, int64_t sink_tokens,
                                 int64_t window_tokens, int64_t slack_tokens);

  // Cumulative pages recycled through the ring (in-place reuses + shared-slot
  // replacements).
  int64_t recycled_pages() const {
    return recycled_.load(std::memory_order_relaxed);
  }

  // Cumulative copy-on-write page copies (a writer hit a shared page).
  int64_t cow_page_copies() const {
    return cow_copies_.load(std::memory_order_relaxed);
  }
  // Pages currently referenced by more than one sequence (gauge).
  int64_t shared_pages() const {
    return shared_pages_.load(std::memory_order_relaxed);
  }
  // Of `seq`'s pages, how many are currently shared (refcount > 1).
  int64_t seq_shared_pages(int seq) const;
  // Generation counter snapshot of seq's pages, in page-table order — the
  // prefix index stores this at insert and revalidates on lookup (a
  // mismatch means a page was reclaimed under the entry).
  std::vector<uint32_t> page_generations(int seq) const;

  // The write path, in two phases. append_reserve performs all locked
  // bookkeeping for an n-token span (n >= 1) — one kv_append fault draw,
  // capacity check, page allocation and ring recycling, copy-on-write of a
  // shared tail page, length growth — and returns the position of the first
  // reserved token. append_write_heads then quantizes (per (token, head),
  // dynamic FP16 scale and zero) the K/V of heads [head0, head1)
  // into those reserved slots: k/v point at row 0 of
  // [n, (head1 - head0) * head_dim] row-major slices whose rows are
  // `row_stride` floats apart. The writes run unlocked — the slots belong to
  // this sequence — so tensor-parallel shards fill disjoint head ranges of
  // the same slots concurrently (head vectors occupy disjoint bytes; INT4
  // nibble packing keeps head boundaries byte-aligned because head_dim is
  // even). Any covering partition of [0, n_kv_heads) stores the same bytes.
  int64_t append_reserve(int seq, int64_t n);
  void append_write_heads(int seq, int64_t pos0, const float* k,
                          const float* v, int64_t n, int head0, int head1,
                          int64_t row_stride);

  // Full-head append of `n` consecutive tokens: append_reserve followed by
  // one append_write_heads over [0, n_kv_heads). k/v point at row 0 of
  // [n, n_kv_heads * head_dim] row-major matrices. Splitting a span into
  // several calls (down to n = 1 each) stores byte-identical pages.
  void append_batch(int seq, const float* k, const float* v, int64_t n);

  // Roll the sequence back to `new_len` tokens (0 <= new_len <= seq_len).
  // Pages that become empty drop one reference and return to the free pool
  // when the last reference goes; the last kept page, if the truncation cuts
  // into it, stays allocated and its vacated slots are rewritten by the next
  // append. Every truly freed page AND a privately-owned partially-truncated
  // last page bump their generation counter, so a SeqView taken before the
  // rollback trips QS_DCHECK on reads instead of silently returning
  // rolled-back (or since-rewritten) data — the same stale-view contract as
  // preemption's free_sequence(). A SHARED boundary page is left untouched
  // (no bump: the other owners' views must stay valid, and its bytes are
  // immutable — the next append to this sequence copies it on write), so a
  // rollback can never corrupt another sequence forked from the same
  // prefix. Composes with the append path: truncate-then-append stores
  // byte-identical pages to a sequence that never held the rejected tail.
  // This is the speculative-decoding rollback primitive: a verify step
  // appends k+1 tokens and then truncates the rejected suffix.
  void truncate_sequence(int seq, int64_t new_len);

  int64_t seq_len(int seq) const;
  int64_t pages_in_use() const {
    return used_pages_.load(std::memory_order_relaxed);
  }
  int64_t free_pages() const { return cfg_.max_pages - pages_in_use(); }
  int64_t bytes_in_use() const { return pages_in_use() * kv_page_bytes(cfg_); }
  // Bytes a page's payload vectors actually occupy, summed from the real
  // container sizes; equals kv_page_bytes(config()) (asserted in tests).
  int64_t measured_page_bytes() const;

  // Would appending `tokens` more tokens to `seq` fit in the pool?
  bool can_grow(int seq, int64_t tokens) const;

  // The gather: dequantize every RESIDENT token — the sinks [0, sink_eff)
  // followed by the retained tail [tail0, len), with sink_eff = min(sink,
  // len) — into [sink_eff + len - tail0, n_kv_heads * head_dim] matrices,
  // and return tail0 (the oldest post-sink logical position whose page has
  // not been recycled). A plain sequence has sink = tail0 = 0: every row, in
  // position order. A windowed one's retained tail is a superset of any
  // row's attention window, including every row of an append span up to
  // slack tokens, so a windowed prefill kernel can mask per row against
  // logical positions: gathered row of logical t is t for t < sink_eff and
  // sink_eff + (t - tail0) for t >= tail0. Built on the read path: each of
  // view(seq)'s runs and KV heads is decoded by the *scalar* kernel table's
  // `dequant` into a tile and copied into that head's columns, so the rows
  // are the same on every host and a fused result on a vector ISA is
  // compared against a fixed reference.
  int64_t gather(int seq, Tensor& k_out, Tensor& v_out) const;

  // The read path: a snapshot of one sequence's resident pages. The page
  // table is resolved once under the lock; afterwards the runs are read
  // without synchronization — the access pattern of a fused attention
  // kernel that must not take a mutex per (token, head). Valid while the
  // sequence is live and not concurrently appended (the same-sequence
  // serialization contract above). The view snapshots each page's
  // generation counter; once preemption free_sequence()s the sequence
  // mid-flight, any page may be recycled, and a stale k_run/v_run trips a
  // QS_DCHECK (Debug builds) instead of silently handing out another
  // request's KV data.
  class SeqView {
   public:
    int64_t length() const { return length_; }
    // The sequence's attention policy (PagedKvCache::set_window; both 0 for
    // full attention) and its resident tail: the runs hold positions
    // [0, min(sink, length)) and [tail0, length) — every position of a
    // plain sequence (tail0 = 0), the sinks plus the not-yet-recycled tail
    // of a windowed one.
    int64_t sink() const { return sink_; }
    int64_t window() const { return window_; }
    int64_t tail0() const { return tail0_; }

    // The sequence's resident tokens as contiguous in-page spans the
    // attention microkernels walk directly — raw code/param pointers into
    // the page, decoded by `dequant`. Run r covers logical positions
    // [run_token0(r), run_token0(r) + n_tokens), in position order, one run
    // per page piece; a windowed view's first tail run may start mid-page,
    // so kernels never touch recycled pages. Every row of an append span up
    // to slack tokens finds its whole trailing window here. The returned
    // KvHeadRun's kind reflects the cache precision (kFp16 / kInt8Dyn /
    // kInt4Dyn); run and head are bounds-checked, and the page's generation
    // is checked against the snapshot (QS_DCHECK).
    int num_page_runs() const { return static_cast<int>(runs_.size()); }
    int64_t run_token0(int run) const;
    cpu::KvHeadRun k_run(int run, int head) const;
    cpu::KvHeadRun v_run(int run, int head) const;

   private:
    // One contiguous span of resident tokens inside a single page.
    struct Run {
      const Page* page = nullptr;
      uint32_t generation = 0;
      int64_t token0 = 0;    // logical position of the run's first token
      int64_t slot0 = 0;     // its in-page slot
      int64_t n_tokens = 0;
    };
    cpu::KvHeadRun head_run(int run, int head, bool is_k) const;
    friend class PagedKvCache;
    const PagedKvCache* cache_ = nullptr;
    std::vector<Run> runs_;
    int64_t length_ = 0;
    int64_t sink_ = 0;
    int64_t window_ = 0;
    int64_t tail0_ = 0;
  };
  SeqView view(int seq) const;

  const KvCacheConfig& config() const { return cfg_; }

  // Pool invariant check, QS_CHECKed: every page's refcount equals the
  // number of page-table references to it; the free list holds each
  // unreferenced page exactly once and no referenced one; pages_in_use() and
  // shared_pages() equal recounts; a plain sequence holds ceil(len / page)
  // pages and no holes; a windowed one at most window_page_cap() slots.
  // Takes the lock; O(pages + page-table entries).
  void audit() const;

 private:
  struct Page {
    // Payload at true device width: INT8 codes one per byte, INT4 codes
    // nibble-packed two per byte, FP16 payload and per-(token, head) dynamic
    // params as binary16 bits — a page's in-memory footprint equals
    // kv_page_bytes() exactly.
    std::vector<uint8_t> k_codes, v_codes;
    std::vector<uint16_t> k_half, v_half;
    std::vector<PackedKvParams> k_params, v_params;  // per (token, head)
    // Bumped every time the page is returned to the free list; a SeqView
    // created before the free holds the old value and QS_DCHECKs on reads.
    // Atomic only to keep the stale-read *detector* itself benign when the
    // same-sequence contract has already been violated.
    std::atomic<uint32_t> generation{0};
    // How many live sequences' page tables reference this page. 1 = private
    // (writable in place), >1 = shared (immutable; writers copy first).
    // Mutated only under mu_.
    int32_t refcount = 0;

    void resize(const KvCacheConfig& cfg);
    int64_t payload_bytes() const;
    void copy_payload_from(const Page& src);
  };

  struct Sequence {
    // For a windowed sequence the table is [sink pages | ring slots]; a -1
    // entry is a hole (slot vacated by a truncation across the ring, refilled
    // by the next append that reaches it). Plain sequences never hold -1.
    std::vector<int> page_table;
    int64_t length = 0;
    bool live = false;
    // Sliding-window state (set_window; all zero = full attention).
    int64_t sink = 0;        // sink tokens, page multiple
    int64_t window = 0;      // window tokens, page multiple; 0 = no window
    int64_t slack = 0;       // max rollback / append-span overshoot, tokens
    int64_t ring_pages = 0;  // window/P + ceil(slack/P) + 1
    int64_t tail0 = 0;       // oldest post-sink logical token still resident
  };

  int64_t head_span() const { return int64_t(cfg_.n_kv_heads) * cfg_.head_dim; }
  // Byte offset of (token_in_page, head)'s codes inside a code vector.
  int64_t code_offset(int64_t slot, int head) const {
    return (slot * head_span() + int64_t(head) * cfg_.head_dim) *
           static_cast<int>(cfg_.precision) / 8;
  }
  bool is_live_locked(int seq) const;
  // Physical page-table slot of logical page `pi`: identity for plain
  // sequences and for the sink pages; ring arithmetic beyond them.
  int64_t page_slot(const Sequence& s, int64_t pi) const {
    if (s.window == 0) return pi;
    const int64_t sink_pages = s.sink / cfg_.page_size;
    if (pi < sink_pages) return pi;
    return sink_pages + (pi - sink_pages) % s.ring_pages;
  }
  // Pages a (simulated) n-token append would take from the free pool: growth
  // slots, ring slots whose occupant is shared (fresh page replaces it) or a
  // hole, plus the CoW copy of a shared tail page. Caller holds mu_.
  int64_t grow_need_locked(const Sequence& s, int64_t n) const;
  // Resolve logical page `pi` for an append crossing into it: grow the
  // table, refill a hole, or recycle the slot's previous occupant (in-place
  // reuse with a generation bump when private; release + fresh page when
  // shared). Returns the page id now at the slot. Caller holds mu_.
  int ring_advance_locked(Sequence& s, int64_t pi);
  int alloc_page_locked();
  // Drop one reference to page `pid`; frees it (generation bump + free list)
  // only when the last reference goes.
  void release_page_locked(int pid);
  // Make page `page_index` of `s` privately owned, copying it if shared.
  // Returns the (possibly new) page. May allocate — the only way append
  // paths consume an extra page beyond the length-growth arithmetic.
  Page& ensure_private_locked(Sequence& s, int64_t page_index);
  // Quantize one token's heads [head0, head1) into `page` at `slot`, k/v
  // pointing at the slice's own head 0 (head h reads k + (h - head0) *
  // head_dim). No locking: the slot is owned exclusively by the appending
  // sequence.
  void write_token_heads(Page& page, int64_t slot, const float* k,
                         const float* v, int head0, int head1);

  KvCacheConfig cfg_;
  // Deques keep references to live pages/sequences stable while the pool
  // grows under concurrent append (see threading contract above).
  mutable std::mutex mu_;
  std::deque<Page> pages_;
  std::vector<int> free_page_ids_;
  std::deque<Sequence> seqs_;
  std::vector<int> free_seq_ids_;
  std::atomic<int64_t> used_pages_{0};
  std::atomic<int64_t> cow_copies_{0};
  std::atomic<int64_t> shared_pages_{0};
  std::atomic<int64_t> recycled_{0};
};

}  // namespace qserve
