#include "src/stm/runtime.hpp"

#include <new>
#include <utility>

#include "src/util/check.hpp"

namespace rubic::stm {

Runtime::Runtime(RuntimeConfig config)
    : config_(config), active_backend_(config.backend) {}

bool Runtime::try_set_backend(BackendKind kind) {
  {
    // Belt-and-braces quiescence check: callers guarantee no transaction is
    // running *or starting* for the whole call (e.g. via
    // MalleablePool::run_quiesced), but refusing here turns a misuse into a
    // deterministic no-switch instead of a protocol-mixing heisenbug.
    std::lock_guard lock(registry_mutex_);
    for (const auto& ctx : contexts_) {
      if (ctx->active()) return false;
    }
  }
  if (kind == backend()) return true;
  // Flush cross-protocol reclamation state: after this no limbo entry
  // queued under the old protocol survives into the new one.
  drain_all_matured_quiescent();
  active_backend_.store(kind, std::memory_order_release);
  return true;
}

Runtime::~Runtime() {
  // By contract all worker threads are done; every queued free is safe now.
  std::lock_guard lock(registry_mutex_);
  for (auto& ctx : contexts_) {
    RUBIC_CHECK_MSG(!ctx->active(),
                    "Runtime destroyed with a transaction in flight");
    for (std::size_t i = ctx->limbo_head_; i < ctx->limbo_.size(); ++i) {
      ::operator delete(ctx->limbo_[i].ptr);
    }
    ctx->limbo_.clear();
    ctx->limbo_head_ = 0;
  }
}

TxnDesc& Runtime::register_thread() {
  const std::uint32_t id = next_ctx_id_.fetch_add(1, std::memory_order_relaxed);
  util::SplitMix64 seeder(0xC0FFEE ^ (std::uint64_t{id} << 32 | 0x5eedULL));
  auto ctx = std::make_unique<TxnDesc>(*this, id, seeder.next());
  TxnDesc& ref = *ctx;
  std::lock_guard lock(registry_mutex_);
  contexts_.push_back(std::move(ctx));
  return ref;
}

TxnStatsSnapshot Runtime::aggregate_stats() const {
  TxnStatsSnapshot out;
  std::lock_guard lock(registry_mutex_);
  for (const auto& ctx : contexts_) {
    out += snapshot(std::as_const(*ctx).stats());
  }
  return out;
}

std::size_t Runtime::thread_count() const {
  std::lock_guard lock(registry_mutex_);
  return contexts_.size();
}

void Runtime::epoch_enter(TxnDesc& ctx) noexcept {
  // seq_cst: the epoch announcement must be globally visible before any
  // shared read of this transaction, or a concurrent advance could reclaim
  // a node this transaction is about to dereference.
  ctx.local_epoch_.store(global_epoch_.load(std::memory_order_acquire),
                         std::memory_order_seq_cst);
}

void Runtime::epoch_exit(TxnDesc& ctx) noexcept {
  ctx.local_epoch_.store(0, std::memory_order_release);
}

void Runtime::defer_free(TxnDesc& ctx, void* ptr) {
  ctx.limbo_.push_back({global_epoch_.load(std::memory_order_acquire), ptr});
  if (++ctx.defers_since_advance_ >= 64) {
    ctx.defers_since_advance_ = 0;
    try_advance_epoch(ctx);
  }
}

void Runtime::try_advance_epoch(TxnDesc& ctx) {
  std::uint64_t g = global_epoch_.load(std::memory_order_acquire);
  bool all_caught_up = true;
  {
    std::lock_guard lock(registry_mutex_);
    for (const auto& c : contexts_) {
      const std::uint64_t e = c->local_epoch_.load(std::memory_order_acquire);
      if (e != 0 && e != g) {
        all_caught_up = false;
        break;
      }
    }
  }
  if (all_caught_up) {
    // A lost CAS means someone else advanced — equally good for us.
    global_epoch_.compare_exchange_strong(g, g + 1, std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }
  drain_matured(ctx, global_epoch_.load(std::memory_order_acquire));
}

void Runtime::drain_matured(TxnDesc& ctx, std::uint64_t global) {
  auto& limbo = ctx.limbo_;
  while (ctx.limbo_head_ < limbo.size() &&
         limbo[ctx.limbo_head_].epoch + 2 <= global) {
    ::operator delete(limbo[ctx.limbo_head_].ptr);
    ++ctx.limbo_head_;
  }
  // Compact once the drained prefix dominates, amortized O(1) per entry.
  if (ctx.limbo_head_ > 1024 && ctx.limbo_head_ * 2 >= limbo.size()) {
    limbo.erase(limbo.begin(),
                limbo.begin() + static_cast<std::ptrdiff_t>(ctx.limbo_head_));
    ctx.limbo_head_ = 0;
  }
}

void Runtime::drain_all_matured_quiescent() {
  std::lock_guard lock(registry_mutex_);
  for (const auto& ctx : contexts_) {
    RUBIC_CHECK_MSG(!ctx->active(),
                    "drain_all_matured_quiescent with a transaction running");
    // A non-zero local epoch with an inactive status means an epoch_enter
    // without its epoch_exit — advancing by 2 below would then reclaim
    // entries that context may still reference. Catch the broken pairing
    // in debug builds instead of silently corrupting limbo state.
    RUBIC_DCHECK_MSG(
        ctx->local_epoch_.load(std::memory_order_acquire) == 0,
        "drain_all_matured_quiescent with a context still inside an epoch");
  }
  // Two bumps mature everything queued up to now.
  global_epoch_.fetch_add(2, std::memory_order_acq_rel);
  const std::uint64_t global = global_epoch_.load(std::memory_order_acquire);
  for (const auto& ctx : contexts_) {
    drain_matured(*ctx, global);
  }
}

std::size_t Runtime::limbo_size() const {
  // Test hook: only meaningful while no worker thread is mutating its limbo
  // (quiescent points between experiment phases).
  std::lock_guard lock(registry_mutex_);
  std::size_t total = 0;
  for (const auto& ctx : contexts_) {
    total += ctx->limbo_.size() - ctx->limbo_head_;
  }
  return total;
}

Runtime& global_runtime() {
  static Runtime instance;
  return instance;
}

}  // namespace rubic::stm
