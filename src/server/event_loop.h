// Non-blocking event loop for the serving path: epoll readiness dispatch
// plus a hashed timer wheel for idle / drain deadlines.
//
// Threading model (see DESIGN.md "Network serving"): ONE loop thread owns
// its connections and runs all of their socket IO and command execution;
// the sharded server guards each shard's stack with a lock, so any loop
// may execute on any shard. The cross-thread entry points are Post() and
// Wake()/Stop(); the latter two are async-signal-safe (an eventfd write)
// so a SIGTERM handler may call them directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace reo {

/// Opaque handle for a scheduled timer (0 = invalid).
using TimerId = uint64_t;

/// Hashed timer wheel: O(1) schedule/cancel, coarse `tick_ms` resolution.
/// Deadlines land in slot (deadline / tick) % slots with a rounds counter
/// for far-future entries — the classic scheme (Varghese & Lauck) used by
/// every serious server runtime; ample for multi-millisecond socket
/// timeouts.
class TimerWheel {
 public:
  explicit TimerWheel(uint64_t tick_ms = 10, size_t slots = 512);

  /// Schedules `cb` to fire `delay_ms` after `now_ms`.
  TimerId Schedule(uint64_t now_ms, uint64_t delay_ms, std::function<void()> cb);

  /// Cancels a pending timer; no-op for already-fired or invalid ids.
  void Cancel(TimerId id);

  /// Fires every timer due at or before `now_ms`.
  void Advance(uint64_t now_ms);

  /// Milliseconds until the next pending deadline (clamped to >= 0), or
  /// -1 when no timers are pending (block indefinitely).
  int NextTimeoutMs(uint64_t now_ms) const;

  size_t pending() const { return live_.size(); }

 private:
  struct Entry {
    TimerId id = 0;
    uint64_t deadline_ms = 0;
    std::function<void()> cb;
  };

  uint64_t tick_ms_;
  std::vector<std::list<Entry>> slots_;
  /// id -> (slot, iterator) for O(1) cancel.
  std::unordered_map<TimerId, std::pair<size_t, std::list<Entry>::iterator>> live_;
  /// Every pending deadline, ordered, so NextTimeoutMs() is O(1) instead
  /// of scanning live_ on every loop iteration.
  std::multiset<uint64_t> deadlines_;
  uint64_t last_tick_ = 0;  ///< wheel position already drained (in ticks)
  TimerId next_id_ = 1;
};

/// epoll wrapper dispatching readiness to per-fd callbacks.
class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...), dispatching to
  /// `handler(ready_events)`. One handler per fd.
  Status Add(int fd, uint32_t events, std::function<void(uint32_t)> handler);

  /// Changes the interest set of a registered fd.
  Status Modify(int fd, uint32_t events);

  /// Deregisters `fd`. Safe to call from inside a handler (pending
  /// dispatches to the fd this iteration are suppressed).
  void Remove(int fd);

  /// Schedules a one-shot timer relative to now.
  TimerId AddTimer(uint64_t delay_ms, std::function<void()> cb);
  void CancelTimer(TimerId id);

  /// Runs until Stop(). Dispatches IO, then due timers, each iteration.
  void Run();

  /// Requests Run() to return after the current iteration. Thread- and
  /// async-signal-safe.
  void Stop();

  /// Wakes a blocked epoll_wait without stopping. Thread- and
  /// async-signal-safe.
  void Wake();

  /// Enqueues `task` to run on the loop thread, FIFO across all posting
  /// threads. Thread-safe (not signal-safe: takes a mutex) — the sharded
  /// server hands accepted sockets and drain steps to a shard's loop
  /// this way; the loop runs them between IO dispatches. Tasks still
  /// queued when Run() returns are destroyed unrun.
  void Post(std::function<void()> task);

  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// CLOCK_MONOTONIC milliseconds, cached once per loop iteration.
  uint64_t now_ms() const { return now_ms_; }

 private:
  uint64_t ReadClockMs() const;
  void DrainPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd; written by Wake()/Stop()
  std::unordered_map<int, std::function<void(uint32_t)>> handlers_;
  /// Bumped on Add()/Remove() so stale ready-list entries are skipped.
  uint64_t generation_ = 0;
  std::unordered_map<int, uint64_t> fd_generation_;
  TimerWheel timers_;
  uint64_t now_ms_ = 0;
  /// Set via Stop() from any thread or a signal handler; lock-free
  /// relaxed atomics are both data-race-free and async-signal-safe.
  std::atomic<bool> stop_{false};
  /// Cross-thread task queue (Post). Guarded by post_mu_; drained in one
  /// swap per loop iteration so posters never block on running tasks.
  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace reo
