// User-level cooperative threading, modelled after the lthread library the
// paper uses inside the enclave (§4.3). Tasks run on a scheduler owned by
// one OS thread; Yield() returns control to the scheduler, which resumes
// the next runnable task. There is no preemption.
//
// Scheduling is a FIFO ready queue: Spawn/Yield/wakeup append, each
// RunOnce() round pops the tasks that were ready when the round started.
// This keeps round semantics identical to the original list scan while
// making a round O(runnable) instead of O(ever-created) — with 20k mostly
// idle connection tasks parked on a reactor thread, only the woken few are
// touched.
//
// Cross-thread wakeups: everything on a Scheduler is owned by its OS
// thread EXCEPT MakeRunnableFromAnyThread/Notify, which other threads (the
// poller, shutdown paths) use to wake a blocked task. The handoff is a
// per-task wake token plus a mutex-protected mailbox the scheduler thread
// drains; a wake that races with the task still running simply parks the
// token, which the scheduler consumes the moment the task blocks — wakeups
// are never lost, at worst a task observes one spurious resume.
#ifndef SRC_LTHREAD_LTHREAD_H_
#define SRC_LTHREAD_LTHREAD_H_

#include <ucontext.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace seal::lthread {

class Scheduler;

// One coroutine task. Created by Scheduler::Spawn.
class Task {
 public:
  enum class State { kRunnable, kRunning, kBlocked, kFinished };

  ~Task();
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  State state() const { return state_; }
  uint64_t id() const { return id_; }

  // Task-local pointer for the embedding layer (the async-call runtime binds
  // each task to the call slot it is currently serving; the reactor binds
  // each task to its connection context).
  void set_user_data(void* p) { user_data_ = p; }
  void* user_data() const { return user_data_; }

  // CPU nanoseconds consumed by THIS task's slices only (other tasks
  // interleaved on the same OS thread are excluded), including the current
  // slice when called from inside the running task. The SGX simulator uses
  // this to charge in-enclave execution overhead per handler.
  int64_t cpu_nanos() const;

 private:
  friend class Scheduler;

  Task(Scheduler* scheduler, uint64_t id, std::function<void()> fn, size_t stack_size);

  static void Trampoline();
  // Unmaps the stack; called once the task has finished and switched off it.
  void ReleaseStack();

  Scheduler* scheduler_;
  uint64_t id_;
  std::function<void()> fn_;
  State state_ = State::kRunnable;
  void* user_data_ = nullptr;
  int64_t cpu_nanos_ = 0;
  int64_t slice_cpu_start_ = 0;  // thread CPU stamp at the current resume
  // Set by MakeRunnableFromAnyThread; consumed on the scheduler thread
  // (mailbox drain, or SwitchTo when the wake raced the task blocking).
  std::atomic<bool> wake_pending_{false};
  // An anonymous mapping reserved at Spawn but backed page by page on first
  // touch, so a task costs only the stack depth it reached; unmapped when
  // the task finishes, before the Task object itself is compacted away.
  void* stack_ = nullptr;
  size_t stack_size_ = 0;
  ucontext_t context_;
};

// A cooperative scheduler. One Scheduler per OS thread; only the two
// cross-thread entry points documented below may be called from elsewhere.
class Scheduler {
 public:
  static constexpr size_t kDefaultStackSize = 256 * 1024;

  Scheduler() = default;
  ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Creates a task; it will first run on the next Run()/RunOnce().
  Task* Spawn(std::function<void()> fn, size_t stack_size = kDefaultStackSize);

  // Runs runnable tasks until all have finished.
  void Run();

  // Runs at most one scheduling round (each task ready at round start gets
  // one slice). Returns true if any task made progress.
  bool RunOnce();

  // --- called from inside a running task ---

  // Yields back to the scheduler; the task stays runnable.
  static void Yield();
  // Marks the current task blocked and yields; another context must call
  // MakeRunnable / MakeRunnableFromAnyThread to resume it.
  static void Block();

  // Wakes a blocked task. Only from the scheduler's own thread.
  void MakeRunnable(Task* task);

  // --- cross-thread entry points (any thread) ---

  // Wakes `task`, which must belong to this scheduler and must not have
  // finished (callers own that guarantee: a connection's wakers are torn
  // down before its task exits). Safe to race with the task blocking,
  // running, or being already runnable; also wakes WaitForWork.
  void MakeRunnableFromAnyThread(Task* task);

  // Wakes the scheduler thread out of WaitForWork without waking a task
  // (new work arrived by some other channel, or shutdown).
  void Notify();

  // --- scheduler-thread idle parking ---

  // Blocks the OS thread until MakeRunnableFromAnyThread or Notify is
  // called. Returns immediately if a wakeup is already pending. Call only
  // from the scheduler's own thread, outside RunOnce.
  void WaitForWork();

  // The currently running task on this thread, or nullptr.
  static Task* Current();

  size_t live_tasks() const { return live_; }
  // Tasks currently queued to run (scheduler thread only; metrics).
  size_t ready_depth() const { return ready_.size(); }

 private:
  friend class Task;

  void SwitchTo(Task* task);
  // Moves mailbox wakeups into the ready queue (scheduler thread only).
  void DrainExternalWakeups();

  std::vector<std::unique_ptr<Task>> tasks_;
  std::deque<Task*> ready_;
  size_t live_ = 0;
  uint64_t next_id_ = 1;
  ucontext_t main_context_;

  // Cross-thread wakeup mailbox.
  std::mutex ext_mutex_;
  std::condition_variable ext_cv_;
  std::vector<Task*> ext_wakeups_;
  bool notified_ = false;
};

}  // namespace seal::lthread

#endif  // SRC_LTHREAD_LTHREAD_H_
