#include "kvcache/paged_kv_cache.h"

#include <algorithm>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/half.h"
#include "common/math_util.h"

namespace qserve {

int64_t kv_page_bytes(const KvCacheConfig& cfg) {
  const int64_t tokens = cfg.page_size;
  const int64_t span = int64_t(cfg.n_kv_heads) * cfg.head_dim;
  int64_t code_bits;
  switch (cfg.precision) {
    case KvPrecision::kFp16: code_bits = 16; break;
    case KvPrecision::kInt8: code_bits = 8; break;
    case KvPrecision::kInt4: code_bits = 4; break;
    default: code_bits = 16; break;
  }
  int64_t bytes = 2 * tokens * span * code_bits / 8;  // K and V codes
  if (cfg.precision != KvPrecision::kFp16) {
    // FP16 scale + zero point per (token, head) for both K and V (§5.1).
    bytes += 2 * tokens * cfg.n_kv_heads * 2 * 2;
  }
  return bytes;
}

void PagedKvCache::Page::resize(const KvCacheConfig& cfg) {
  const size_t span =
      static_cast<size_t>(cfg.page_size) * cfg.n_kv_heads * cfg.head_dim;
  if (cfg.precision == KvPrecision::kFp16) {
    k_half.assign(span, 0);
    v_half.assign(span, 0);
  } else {
    const size_t code_bytes = span * static_cast<int>(cfg.precision) / 8;
    k_codes.assign(code_bytes, 0);
    v_codes.assign(code_bytes, 0);
    const size_t heads = static_cast<size_t>(cfg.page_size) * cfg.n_kv_heads;
    k_params.assign(heads, {});
    v_params.assign(heads, {});
  }
}

int64_t PagedKvCache::Page::payload_bytes() const {
  return static_cast<int64_t>(k_codes.size() + v_codes.size()) +
         2 * static_cast<int64_t>(k_half.size() + v_half.size()) +
         static_cast<int64_t>(sizeof(PackedKvParams)) *
             static_cast<int64_t>(k_params.size() + v_params.size());
}

void PagedKvCache::Page::copy_payload_from(const Page& src) {
  k_codes = src.k_codes;
  v_codes = src.v_codes;
  k_half = src.k_half;
  v_half = src.v_half;
  k_params = src.k_params;
  v_params = src.v_params;
}

int64_t PagedKvCache::measured_page_bytes() const {
  Page p;
  p.resize(cfg_);
  return p.payload_bytes();
}

PagedKvCache::PagedKvCache(const KvCacheConfig& cfg) : cfg_(cfg) {
  QS_CHECK_GT(cfg_.page_size, 0);
  QS_CHECK_GT(cfg_.n_kv_heads, 0);
  QS_CHECK_GT(cfg_.head_dim, 0);
  QS_CHECK_MSG(cfg_.max_pages > 0,
               "KV pool needs at least one page (kv_max_pages)");
  // Nibble packing stores two INT4 codes per byte, so a head vector must
  // span whole bytes.
  if (cfg_.precision == KvPrecision::kInt4)
    QS_CHECK_MSG(cfg_.head_dim % 2 == 0, "INT4 KV needs an even head_dim");
}

int PagedKvCache::alloc_sequence() {
  std::lock_guard<std::mutex> lk(mu_);
  int id;
  if (!free_seq_ids_.empty()) {
    id = free_seq_ids_.back();
    free_seq_ids_.pop_back();
  } else {
    id = static_cast<int>(seqs_.size());
    seqs_.emplace_back();
  }
  auto& s = seqs_[static_cast<size_t>(id)];
  s.page_table.clear();
  s.length = 0;
  s.live = true;
  s.sink = 0;
  s.window = 0;
  s.slack = 0;
  s.ring_pages = 0;
  s.tail0 = 0;
  return id;
}

int64_t PagedKvCache::window_page_cap(const KvCacheConfig& cfg,
                                      int64_t sink_tokens,
                                      int64_t window_tokens,
                                      int64_t slack_tokens) {
  const int64_t p = cfg.page_size;
  return sink_tokens / p + window_tokens / p + ceil_div(slack_tokens, p) + 1;
}

void PagedKvCache::set_window(int seq, int64_t sink_tokens,
                              int64_t window_tokens, int64_t slack_tokens) {
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  auto& s = seqs_[static_cast<size_t>(seq)];
  const int64_t p = cfg_.page_size;
  QS_CHECK_MSG(window_tokens > 0, "attention window must be positive (got "
                                      << window_tokens << ")");
  QS_CHECK_MSG(window_tokens % p == 0,
               "attention window " << window_tokens
                                   << " must be a multiple of the KV page "
                                      "size "
                                   << p << " (the ring recycles whole pages)");
  QS_CHECK_MSG(sink_tokens >= 0 && sink_tokens % p == 0,
               "sink_tokens " << sink_tokens
                              << " must be a non-negative multiple of the KV "
                                 "page size "
                              << p);
  QS_CHECK_MSG(slack_tokens >= 1,
               "window slack " << slack_tokens
                               << " must be at least 1 token: it bounds every "
                                  "append span, and the smallest span is one "
                                  "token");
  QS_CHECK_MSG(s.window == 0,
               "sequence already has a window installed");
  const int64_t ring_pages =
      window_tokens / p + ceil_div(slack_tokens, p) + 1;
  // The existing pages must land on identity slots of the new layout: the
  // window has to be installed before the sequence outgrows sinks + ring.
  QS_CHECK_MSG(s.length <= sink_tokens + ring_pages * p,
               "set_window: sequence length " << s.length
                                              << " already exceeds sinks + "
                                                 "window + slack");
  s.sink = sink_tokens;
  s.window = window_tokens;
  s.slack = slack_tokens;
  s.ring_pages = ring_pages;
  s.tail0 = sink_tokens;
}

int64_t PagedKvCache::grow_need_locked(const Sequence& s, int64_t n) const {
  if (n <= 0) return 0;
  int64_t need = 0;
  // CoW copy of a shared tail page the first token would land in.
  if (s.length % cfg_.page_size != 0) {
    const int64_t tslot = page_slot(s, s.length / cfg_.page_size);
    if (pages_[static_cast<size_t>(
                   s.page_table[static_cast<size_t>(tslot)])].refcount > 1)
      ++need;
  }
  // Page-boundary crossings: growth slots and holes take a fresh page; a
  // ring slot whose occupant is shared is replaced by a fresh page (the
  // shared bytes stay with their other owners); a privately-owned ring slot
  // is reused in place for free.
  int64_t table_size = static_cast<int64_t>(s.page_table.size());
  for (int64_t pos = round_up(s.length, cfg_.page_size);
       pos < s.length + n; pos += cfg_.page_size) {
    const int64_t slot = page_slot(s, pos / cfg_.page_size);
    if (slot >= table_size) {
      ++need;
      table_size = slot + 1;
    } else {
      const int pid = s.page_table[static_cast<size_t>(slot)];
      if (pid < 0 || pages_[static_cast<size_t>(pid)].refcount > 1) ++need;
    }
  }
  return need;
}

int PagedKvCache::ring_advance_locked(Sequence& s, int64_t pi) {
  const int64_t slot = page_slot(s, pi);
  if (slot == static_cast<int64_t>(s.page_table.size())) {
    s.page_table.push_back(alloc_page_locked());
    return s.page_table.back();
  }
  QS_CHECK_LT(slot, static_cast<int64_t>(s.page_table.size()));
  int& pid = s.page_table[static_cast<size_t>(slot)];
  // The slot's previous occupant was logical page pi - ring_pages; its
  // tokens leave residency now (they are already outside every future row's
  // window by the ring-sizing argument in the header).
  s.tail0 = std::max(s.tail0, (pi - s.ring_pages + 1) * cfg_.page_size);
  if (pid < 0) {
    // Hole left by a truncation across the ring: take a fresh page.
    pid = alloc_page_locked();
    return pid;
  }
  Page& p = pages_[static_cast<size_t>(pid)];
  QS_CHECK_GT(p.refcount, 0);
  if (p.refcount == 1) {
    // In-place reuse: same physical page, new logical tokens. Outstanding
    // views of the departed logical page must go stale.
    p.generation.fetch_add(1, std::memory_order_relaxed);
    recycled_.fetch_add(1, std::memory_order_relaxed);
    return pid;
  }
  // Shared with a fork or prefix-cache entry: those owners keep the bytes
  // (immutable, generation untouched); this sequence swaps in a fresh page.
  // Allocate first — it may throw (pool exhausted / injected fault) with
  // nothing mutated yet.
  const int npid = alloc_page_locked();
  release_page_locked(pid);
  pid = npid;
  recycled_.fetch_add(1, std::memory_order_relaxed);
  return pid;
}

void PagedKvCache::release_page_locked(int pid) {
  Page& p = pages_[static_cast<size_t>(pid)];
  QS_CHECK_GT(p.refcount, 0);
  if (--p.refcount > 0) {
    // Other sequences still own the page; it stays allocated, its bytes and
    // generation untouched (their SeqViews remain valid).
    if (p.refcount == 1) shared_pages_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  // Last reference: invalidate outstanding SeqViews before the page can be
  // recycled.
  p.generation.fetch_add(1, std::memory_order_relaxed);
  free_page_ids_.push_back(pid);
  used_pages_.fetch_sub(1, std::memory_order_relaxed);
}

PagedKvCache::Page& PagedKvCache::ensure_private_locked(Sequence& s,
                                                        int64_t page_index) {
  const int pid = s.page_table[static_cast<size_t>(page_index)];
  Page& p = pages_[static_cast<size_t>(pid)];
  QS_CHECK_GT(p.refcount, 0);
  if (p.refcount == 1) return p;
  // Copy-on-write: allocate first (may throw — pool exhausted or injected
  // fault — with nothing mutated yet), copy the shared payload, then retarget
  // this sequence's table entry. The shared original keeps its generation:
  // its bytes never change, so the other owners' views stay valid.
  const int npid = alloc_page_locked();
  Page& np = pages_[static_cast<size_t>(npid)];
  np.copy_payload_from(p);
  np.refcount = 1;
  --p.refcount;
  if (p.refcount == 1) shared_pages_.fetch_sub(1, std::memory_order_relaxed);
  s.page_table[static_cast<size_t>(page_index)] = npid;
  cow_copies_.fetch_add(1, std::memory_order_relaxed);
  return np;
}

void PagedKvCache::free_sequence(int seq) {
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  auto& s = seqs_[static_cast<size_t>(seq)];
  for (int pid : s.page_table)
    if (pid >= 0) release_page_locked(pid);
  s.page_table.clear();
  s.length = 0;
  s.live = false;
  free_seq_ids_.push_back(seq);
}

int PagedKvCache::fork_sequence(int src, int64_t upto_len) {
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(src));
  auto& source = seqs_[static_cast<size_t>(src)];
  QS_CHECK_MSG(upto_len >= 0 && upto_len <= source.length,
               "fork_sequence upto_len " << upto_len << " outside [0, "
                                         << source.length << "]");
  // A windowed source is forkable only over pages that can never have been
  // recycled: the sinks always qualify, and any prefix qualifies while the
  // ring has not recycled yet (tail0 still at the sink boundary — then every
  // logical page still sits at its identity slot with its original bytes).
  QS_CHECK_MSG(source.window == 0 || upto_len <= source.sink ||
                   source.tail0 == source.sink,
               "fork_sequence on a windowed sequence may only cover "
               "never-recycled pages (sinks, or any prefix before the first "
               "recycle)");
  int id;
  if (!free_seq_ids_.empty()) {
    id = free_seq_ids_.back();
    free_seq_ids_.pop_back();
  } else {
    id = static_cast<int>(seqs_.size());
    seqs_.emplace_back();
  }
  // seqs_ may have grown; re-resolve the source reference.
  auto& sp = seqs_[static_cast<size_t>(src)];
  auto& d = seqs_[static_cast<size_t>(id)];
  const int64_t n_pages = ceil_div(upto_len, int64_t(cfg_.page_size));
  d.page_table.clear();
  d.page_table.reserve(static_cast<size_t>(n_pages));
  for (int64_t pi = 0; pi < n_pages; ++pi) {
    const int pid = sp.page_table[static_cast<size_t>(pi)];
    Page& p = pages_[static_cast<size_t>(pid)];
    ++p.refcount;
    if (p.refcount == 2) shared_pages_.fetch_add(1, std::memory_order_relaxed);
    d.page_table.push_back(pid);
  }
  d.length = upto_len;
  d.live = true;
  d.sink = 0;
  d.window = 0;
  d.slack = 0;
  d.ring_pages = 0;
  d.tail0 = 0;
  return id;
}

int64_t PagedKvCache::seq_shared_pages(int seq) const {
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  int64_t n = 0;
  for (int pid : seqs_[static_cast<size_t>(seq)].page_table)
    if (pid >= 0 && pages_[static_cast<size_t>(pid)].refcount > 1) ++n;
  return n;
}

std::vector<uint32_t> PagedKvCache::page_generations(int seq) const {
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  const auto& s = seqs_[static_cast<size_t>(seq)];
  std::vector<uint32_t> gens;
  gens.reserve(s.page_table.size());
  for (int pid : s.page_table) {
    QS_CHECK_GE(pid, 0);  // never called on a sequence with ring holes
    gens.push_back(pages_[static_cast<size_t>(pid)].generation.load(
        std::memory_order_relaxed));
  }
  return gens;
}

void PagedKvCache::truncate_sequence(int seq, int64_t new_len) {
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  auto& s = seqs_[static_cast<size_t>(seq)];
  QS_CHECK_MSG(new_len >= 0 && new_len <= s.length,
               "truncate_sequence target " << new_len
                                           << " outside [0, " << s.length
                                           << "]");
  if (new_len == s.length) return;
  const int64_t keep_pages = ceil_div(new_len, cfg_.page_size);
  if (s.window == 0) {
    for (int64_t pi = keep_pages;
         pi < static_cast<int64_t>(s.page_table.size()); ++pi)
      release_page_locked(s.page_table[static_cast<size_t>(pi)]);
    s.page_table.resize(static_cast<size_t>(keep_pages));
  } else {
    // Windowed rollback: the ring's slack covers exactly the speculative
    // rollback depth — a deeper cut would expose positions whose pages were
    // already recycled.
    QS_CHECK_MSG(s.length - new_len <= s.slack,
                 "truncate_sequence rollback of " << (s.length - new_len)
                                                  << " tokens exceeds the "
                                                     "window slack "
                                                  << s.slack);
    // Release the removed logical pages' slots (the slack bound keeps the
    // removed span inside one ring revolution). A wrapped slot's private
    // page stays in place for the next append, so a full ring keeps the
    // footprint the scheduler charges it; other slots become holes, and a
    // hole at the table's tail is popped, so a sequence in pure growth keeps
    // its dense table (and bitwise replay: truncate-then-append re-allocates
    // exactly as an untruncated run).
    const int64_t cur_pages = ceil_div(s.length, cfg_.page_size);
    for (int64_t pi = keep_pages; pi < cur_pages; ++pi) {
      const int64_t slot = page_slot(s, pi);
      int& pid = s.page_table[static_cast<size_t>(slot)];
      Page* page = pid >= 0 ? &pages_[static_cast<size_t>(pid)] : nullptr;
      if (slot < pi && page != nullptr && page->refcount == 1) {
        page->generation.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (pid >= 0) release_page_locked(pid);
      pid = -1;
    }
    while (!s.page_table.empty() && s.page_table.back() < 0)
      s.page_table.pop_back();
  }
  // The last kept page loses its tail slots (and the next append rewrites
  // them), so pre-truncate views of it must go stale too. A new view() taken
  // after the rollback snapshots the bumped value and reads fine. A SHARED
  // boundary page is skipped: its bytes are immutable (the next append to
  // this sequence copies it on write, leaving the original intact), so the
  // other owners' views — and even this sequence's pre-truncate views of the
  // still-unchanged bytes — stay valid.
  if (new_len % cfg_.page_size != 0) {
    Page& last = pages_[static_cast<size_t>(
        s.page_table[static_cast<size_t>(page_slot(s, keep_pages - 1))])];
    if (last.refcount == 1)
      last.generation.fetch_add(1, std::memory_order_relaxed);
  }
  s.length = new_len;
}

int64_t PagedKvCache::seq_len(int seq) const {
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  return seqs_[static_cast<size_t>(seq)].length;
}

bool PagedKvCache::is_live(int seq) const {
  std::lock_guard<std::mutex> lk(mu_);
  return is_live_locked(seq);
}

bool PagedKvCache::is_live_locked(int seq) const {
  return seq >= 0 && seq < static_cast<int>(seqs_.size()) &&
         seqs_[static_cast<size_t>(seq)].live;
}

int PagedKvCache::alloc_page_locked() {
  // Injected allocation failure, thrown before any bookkeeping mutates. The
  // lock_guard in the caller unwinds cleanly; a batch append may have
  // claimed earlier tokens' slots already, which is consistent state — the
  // pages belong to the sequence and free_sequence() reclaims them all (the
  // serving engine converts this fault to preemption, which does exactly
  // that).
  fault::maybe_fail(fault::kKvAlloc);
  QS_CHECK_MSG(pages_in_use() < cfg_.max_pages, "KV cache pool exhausted");
  int pid;
  if (!free_page_ids_.empty()) {
    pid = free_page_ids_.back();
    free_page_ids_.pop_back();
  } else {
    pid = static_cast<int>(pages_.size());
    pages_.emplace_back();
  }
  Page& p = pages_[static_cast<size_t>(pid)];
  p.resize(cfg_);
  p.refcount = 1;
  used_pages_.fetch_add(1, std::memory_order_relaxed);
  return pid;
}

bool PagedKvCache::can_grow(int seq, int64_t tokens) const {
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  const auto& s = seqs_[static_cast<size_t>(seq)];
  return grow_need_locked(s, tokens) <= free_pages();
}

void PagedKvCache::audit() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Recount every page's references from the live page tables.
  std::vector<int32_t> refs(pages_.size(), 0);
  for (const Sequence& s : seqs_) {
    if (!s.live) {
      QS_CHECK_MSG(s.page_table.empty(), "audit: dead sequence holds pages");
      continue;
    }
    const int64_t n_pages = ceil_div(s.length, int64_t(cfg_.page_size));
    if (s.window == 0) {
      QS_CHECK_MSG(static_cast<int64_t>(s.page_table.size()) == n_pages,
                   "audit: plain sequence of " << s.length << " tokens has "
                                               << s.page_table.size()
                                               << " pages");
    } else {
      QS_CHECK_MSG(static_cast<int64_t>(s.page_table.size()) <=
                       window_page_cap(cfg_, s.sink, s.window, s.slack),
                   "audit: windowed sequence holds "
                       << s.page_table.size() << " pages, over its cap");
    }
    for (const int pid : s.page_table) {
      if (pid < 0) {
        QS_CHECK_MSG(s.window > 0, "audit: hole in a plain page table");
        continue;
      }
      QS_CHECK_LT(static_cast<size_t>(pid), pages_.size());
      ++refs[static_cast<size_t>(pid)];
    }
  }
  int64_t used = 0, shared = 0;
  for (size_t pid = 0; pid < pages_.size(); ++pid) {
    QS_CHECK_MSG(pages_[pid].refcount == refs[pid],
                 "audit: page " << pid << " refcount "
                                << pages_[pid].refcount << " but "
                                << refs[pid] << " page-table references");
    used += refs[pid] > 0;
    shared += refs[pid] > 1;
  }
  // Free pages are unreferenced and listed once.
  std::vector<bool> listed(pages_.size(), false);
  for (const int pid : free_page_ids_) {
    QS_CHECK_MSG(refs[static_cast<size_t>(pid)] == 0,
                 "audit: free page " << pid << " is still referenced");
    QS_CHECK_MSG(!listed[static_cast<size_t>(pid)],
                 "audit: page " << pid << " is on the free list twice");
    listed[static_cast<size_t>(pid)] = true;
  }
  QS_CHECK_EQ(used, used_pages_.load(std::memory_order_relaxed));
  QS_CHECK_EQ(shared, shared_pages_.load(std::memory_order_relaxed));
  QS_CHECK_EQ(used + static_cast<int64_t>(free_page_ids_.size()),
              static_cast<int64_t>(pages_.size()));
}

int64_t PagedKvCache::append_reserve(int seq, int64_t n) {
  QS_CHECK_GT(n, 0);
  // Fault site at the append entry: one kv_append draw per reserved span
  // (decode rows and prefill chunks alike), before any state mutates — so TP
  // and single-shard runs see identical fault schedules.
  fault::maybe_fail(fault::kKvAppend);
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  auto& s = seqs_[static_cast<size_t>(seq)];
  // The ring's dry-run capacity simulation (and its recycling) assumes a
  // span stays inside one ring revolution — the slack the window was
  // installed with must cover every append span.
  QS_CHECK_MSG(s.window == 0 || n <= s.slack,
               "append span of " << n << " tokens exceeds the windowed "
                                 << "sequence's slack " << s.slack);
  // Capacity up front: growth pages, shared-slot replacements, plus one for
  // the copy-on-write of a shared tail page the first token would land in.
  // Checked before any sequence state mutates — seq_len never claims tokens
  // whose slots were not written.
  QS_CHECK_MSG(grow_need_locked(s, n) <= free_pages(),
               "KV cache pool exhausted");
  const int64_t pos0 = s.length;
  for (int64_t t = 0; t < n; ++t) {
    if (s.length % cfg_.page_size == 0) {
      ring_advance_locked(s, s.length / cfg_.page_size);
    } else {
      ensure_private_locked(s, page_slot(s, s.length / cfg_.page_size));
    }
    ++s.length;
  }
  return pos0;
}

void PagedKvCache::append_write_heads(int seq, int64_t pos0, const float* k,
                                      const float* v, int64_t n, int head0,
                                      int head1, int64_t row_stride) {
  QS_CHECK(head0 >= 0 && head0 <= head1 && head1 <= cfg_.n_kv_heads);
  QS_CHECK_GE(pos0, 0);
  if (n <= 0 || head0 == head1) return;
  // One short locked pass resolves the (page, slot) destinations — the
  // reserve already made every page private — then the quantize writes run
  // unlocked, concurrently with other sequences' appends and with other
  // shards filling other head ranges of the same slots.
  struct Dest {
    Page* page;
    int64_t slot;
  };
  std::vector<Dest> dests(static_cast<size_t>(n));
  {
    std::lock_guard<std::mutex> lk(mu_);
    QS_CHECK(is_live_locked(seq));
    auto& s = seqs_[static_cast<size_t>(seq)];
    QS_CHECK_LE(pos0 + n, s.length);
    for (int64_t t = 0; t < n; ++t) {
      const int64_t tok = pos0 + t;
      Page& p = pages_[static_cast<size_t>(s.page_table[static_cast<size_t>(
          page_slot(s, tok / cfg_.page_size))])];
      QS_DCHECK(p.refcount == 1);  // reserve left the range privately owned
      dests[static_cast<size_t>(t)] = {&p, tok % cfg_.page_size};
    }
  }
  for (int64_t t = 0; t < n; ++t) {
    const Dest& d = dests[static_cast<size_t>(t)];
    write_token_heads(*d.page, d.slot, k + t * row_stride, v + t * row_stride,
                      head0, head1);
  }
}

void PagedKvCache::append_batch(int seq, const float* k, const float* v,
                                int64_t n) {
  append_write_heads(seq, append_reserve(seq, n), k, v, n, 0, cfg_.n_kv_heads,
                     head_span());
}

void PagedKvCache::write_token_heads(Page& page, int64_t slot, const float* k,
                                     const float* v, int head0, int head1) {
  const int64_t dim = cfg_.head_dim;

  if (cfg_.precision == KvPrecision::kFp16) {
    for (int h = head0; h < head1; ++h) {
      const int64_t off = slot * head_span() + int64_t(h) * dim;
      const float* ks = k + int64_t(h - head0) * dim;
      const float* vs = v + int64_t(h - head0) * dim;
      for (int64_t i = 0; i < dim; ++i) {
        page.k_half[static_cast<size_t>(off + i)] =
            detail::float_to_half_bits(ks[i]);
        page.v_half[static_cast<size_t>(off + i)] =
            detail::float_to_half_bits(vs[i]);
      }
    }
  } else {
    const int bits = static_cast<int>(cfg_.precision);
    // kv_quantize emits one code per byte; INT4 packs pairs into the page.
    thread_local std::vector<uint8_t> scratch;
    if (bits == 4) scratch.resize(static_cast<size_t>(cfg_.head_dim));
    auto store = [&](const float* src, int h, std::vector<uint8_t>& codes,
                     std::vector<PackedKvParams>& params) {
      const int64_t hoff = code_offset(slot, h);
      const size_t pidx = static_cast<size_t>(slot * cfg_.n_kv_heads + h);
      KvQuantParams p;
      if (bits == 4) {
        p = kv_quantize(src, cfg_.head_dim, 4, scratch.data());
        kv_pack_nibbles(scratch.data(), cfg_.head_dim, codes.data() + hoff);
      } else {
        p = kv_quantize(src, cfg_.head_dim, 8, codes.data() + hoff);
      }
      // kv_quantize already rounded scale/zero to FP16, so storing the bits
      // is lossless.
      params[pidx] = {Half(p.scale).bits(), Half(p.zero).bits()};
    };
    for (int h = head0; h < head1; ++h) {
      store(k + int64_t(h - head0) * dim, h, page.k_codes, page.k_params);
      store(v + int64_t(h - head0) * dim, h, page.v_codes, page.v_params);
    }
  }
}

PagedKvCache::SeqView PagedKvCache::view(int seq) const {
  SeqView v;
  v.cache_ = this;
  std::lock_guard<std::mutex> lk(mu_);
  QS_CHECK(is_live_locked(seq));
  const auto& s = seqs_[static_cast<size_t>(seq)];
  v.length_ = s.length;
  v.sink_ = s.sink;
  v.window_ = s.window;
  // The resident positions: the sinks, then the retained tail (a plain
  // sequence is sink = tail0 = 0).
  const int64_t sink_eff = std::min(s.sink, s.length);
  v.tail0_ = std::min(std::max(s.tail0, sink_eff), s.length);
  auto add_range = [&](int64_t t0, int64_t t1) {
    // Emit per-page runs covering logical positions [t0, t1).
    int64_t t = t0;
    while (t < t1) {
      const int64_t slot0 = t % cfg_.page_size;
      const int64_t n = std::min(cfg_.page_size - slot0, t1 - t);
      const int pid = s.page_table[static_cast<size_t>(
          page_slot(s, t / cfg_.page_size))];
      QS_CHECK_GE(pid, 0);
      const Page& p = pages_[static_cast<size_t>(pid)];
      v.runs_.push_back(
          {&p, p.generation.load(std::memory_order_relaxed), t, slot0, n});
      t += n;
    }
  };
  add_range(0, sink_eff);
  add_range(v.tail0_, s.length);
  return v;
}

int64_t PagedKvCache::SeqView::run_token0(int run) const {
  QS_CHECK(run >= 0 && run < num_page_runs());
  return runs_[static_cast<size_t>(run)].token0;
}

cpu::KvHeadRun PagedKvCache::SeqView::head_run(int run, int head,
                                               bool is_k) const {
  QS_CHECK(run >= 0 && run < num_page_runs());
  QS_CHECK(head >= 0 && head < cache_->cfg_.n_kv_heads);
  const KvCacheConfig& cfg = cache_->cfg_;
  const Run& ri = runs_[static_cast<size_t>(run)];
  // Stale view: the sequence was freed (e.g. preempted) or the ring
  // recycled this page after view().
  QS_DCHECK(ri.page->generation.load(std::memory_order_relaxed) ==
            ri.generation);
  const Page& page = *ri.page;

  cpu::KvHeadRun r;
  r.n_tokens = ri.n_tokens;
  const int64_t span = cache_->head_span();
  if (cfg.precision == KvPrecision::kFp16) {
    r.kind = cpu::KvRunKind::kFp16;
    const auto& half = is_k ? page.k_half : page.v_half;
    r.half_bits =
        half.data() + ri.slot0 * span + int64_t(head) * cfg.head_dim;
    r.stride = span;  // elements
  } else {
    r.kind = cfg.precision == KvPrecision::kInt4 ? cpu::KvRunKind::kInt4Dyn
                                                 : cpu::KvRunKind::kInt8Dyn;
    const auto& codes = is_k ? page.k_codes : page.v_codes;
    const auto& params = is_k ? page.k_params : page.v_params;
    r.codes = codes.data() + cache_->code_offset(ri.slot0, head);
    r.stride = span * static_cast<int>(cfg.precision) / 8;  // bytes
    // Token t's {scale_bits, zero_bits} pair sits at params[t*HKV + head];
    // PackedKvParams is exactly two uint16s, so expose it as a uint16 view.
    r.params = reinterpret_cast<const uint16_t*>(
        params.data() + ri.slot0 * cfg.n_kv_heads + head);
    r.param_stride = 2 * cfg.n_kv_heads;
  }
  return r;
}

cpu::KvHeadRun PagedKvCache::SeqView::k_run(int run, int head) const {
  return head_run(run, head, /*is_k=*/true);
}

cpu::KvHeadRun PagedKvCache::SeqView::v_run(int run, int head) const {
  return head_run(run, head, /*is_k=*/false);
}

int64_t PagedKvCache::gather(int seq, Tensor& k_out, Tensor& v_out) const {
  // The view's runs are the resident rows in position order — the sinks,
  // then the retained tail, NOT just the last query's window, so a prefill
  // span's earliest row still finds its whole trailing window. A plain
  // sequence is the sink = tail0 = 0 case: every row, in order.
  const SeqView sv = view(seq);
  const cpu::AttentionKernels& ker =
      cpu::attention_kernel_for(cpu::Isa::kScalar);
  const int dim = cfg_.head_dim;
  int64_t rows = 0;
  for (const SeqView::Run& r : sv.runs_) rows += r.n_tokens;
  k_out = Tensor({rows, head_span()});
  v_out = Tensor({rows, head_span()});
  std::vector<float> tile(static_cast<size_t>(cfg_.page_size) * dim);
  int64_t row0 = 0;
  for (int r = 0; r < sv.num_page_runs(); ++r) {
    const int64_t n = sv.runs_[static_cast<size_t>(r)].n_tokens;
    for (int h = 0; h < cfg_.n_kv_heads; ++h) {
      for (const bool is_k : {true, false}) {
        ker.dequant(sv.head_run(r, h, is_k), 0, n, dim, tile.data());
        Tensor& out = is_k ? k_out : v_out;
        for (int64_t i = 0; i < n; ++i)
          std::copy_n(tile.data() + i * dim, dim, out.row(row0 + i) + h * dim);
      }
    }
    row0 += n;
  }
  return sv.tail0();
}

}  // namespace qserve
