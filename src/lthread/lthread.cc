#include "src/lthread/lthread.h"

#include <sys/mman.h>

#include <cassert>
#include <new>

#include "src/common/clock.h"

namespace seal::lthread {

namespace {
thread_local Scheduler* t_scheduler = nullptr;
thread_local Task* t_current = nullptr;
}  // namespace

Task::Task(Scheduler* scheduler, uint64_t id, std::function<void()> fn, size_t stack_size)
    : scheduler_(scheduler), id_(id), fn_(std::move(fn)), stack_size_(stack_size) {
  stack_ = mmap(nullptr, stack_size_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (stack_ == MAP_FAILED) {
    stack_ = nullptr;
    throw std::bad_alloc();
  }
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = stack_size_;
  context_.uc_link = nullptr;  // we always swap back explicitly
  makecontext(&context_, reinterpret_cast<void (*)()>(&Task::Trampoline), 0);
}

Task::~Task() { ReleaseStack(); }

void Task::ReleaseStack() {
  if (stack_ != nullptr) {
    munmap(stack_, stack_size_);
    stack_ = nullptr;
  }
}

void Task::Trampoline() {
  Task* self = t_current;
  self->fn_();
  self->state_ = State::kFinished;
  // Return to the scheduler.
  swapcontext(&self->context_, &self->scheduler_->main_context_);
}

Task* Scheduler::Spawn(std::function<void()> fn, size_t stack_size) {
  tasks_.push_back(std::unique_ptr<Task>(new Task(this, next_id_++, std::move(fn), stack_size)));
  ++live_;
  ready_.push_back(tasks_.back().get());
  return tasks_.back().get();
}

void Scheduler::SwitchTo(Task* task) {
  Scheduler* prev_sched = t_scheduler;
  Task* prev_task = t_current;
  t_scheduler = this;
  t_current = task;
  task->state_ = Task::State::kRunning;
  task->slice_cpu_start_ = ThreadCpuNanos();
  swapcontext(&main_context_, &task->context_);
  task->cpu_nanos_ += ThreadCpuNanos() - task->slice_cpu_start_;
  t_current = prev_task;
  t_scheduler = prev_sched;
  switch (task->state_) {
    case Task::State::kFinished:
      --live_;
      task->ReleaseStack();
      break;
    case Task::State::kRunning:  // swapped out without setting a state
      task->state_ = Task::State::kRunnable;
      ready_.push_back(task);
      break;
    case Task::State::kRunnable:  // yielded: runs again next round
      ready_.push_back(task);
      break;
    case Task::State::kBlocked:
      // A cross-thread wake may have landed while the task was still
      // running (wake-before-block). Consume the parked token now so the
      // wakeup is not lost.
      if (task->wake_pending_.exchange(false, std::memory_order_acq_rel)) {
        task->state_ = Task::State::kRunnable;
        ready_.push_back(task);
      }
      break;
  }
}

void Scheduler::DrainExternalWakeups() {
  std::vector<Task*> pending;
  {
    std::lock_guard<std::mutex> lock(ext_mutex_);
    if (ext_wakeups_.empty()) {
      return;
    }
    pending.swap(ext_wakeups_);
  }
  for (Task* task : pending) {
    // state_ is only written by this thread, so the read is safe; the
    // token decides whether this mailbox entry still means anything.
    if (task->state_ == Task::State::kBlocked &&
        task->wake_pending_.exchange(false, std::memory_order_acq_rel)) {
      task->state_ = Task::State::kRunnable;
      ready_.push_back(task);
    }
  }
}

bool Scheduler::RunOnce() {
  DrainExternalWakeups();
  bool progressed = false;
  // Snapshot: tasks queued during the round (spawns, yields, wakeups) run
  // next round.
  size_t count = ready_.size();
  for (size_t i = 0; i < count; ++i) {
    Task* task = ready_.front();
    ready_.pop_front();
    assert(task->state_ == Task::State::kRunnable && "non-runnable task in ready queue");
    SwitchTo(task);
    progressed = true;
  }
  // Compact finished tasks occasionally to bound memory.
  if (tasks_.size() > 64) {
    size_t alive = 0;
    for (const auto& t : tasks_) {
      if (t->state_ != Task::State::kFinished) {
        ++alive;
      }
    }
    if (alive * 2 < tasks_.size()) {
      // Neutralise any mailbox entries that still point at tasks we are
      // about to free. Wakers guarantee no NEW wakes for finished tasks
      // (they tear down before the task exits), so post-drain the mailbox
      // cannot regrow a dangling pointer.
      DrainExternalWakeups();
      std::vector<std::unique_ptr<Task>> keep;
      keep.reserve(alive);
      for (auto& t : tasks_) {
        if (t->state_ != Task::State::kFinished) {
          keep.push_back(std::move(t));
        }
      }
      tasks_ = std::move(keep);
    }
  }
  return progressed;
}

void Scheduler::Run() {
  while (live_ > 0) {
    if (!RunOnce()) {
      // All remaining tasks are blocked: nothing can make progress from
      // here without an external MakeRunnable, so bail to the caller.
      break;
    }
  }
}

void Scheduler::Yield() {
  Task* self = t_current;
  assert(self != nullptr && "Yield outside a task");
  self->state_ = Task::State::kRunnable;
  swapcontext(&self->context_, &self->scheduler_->main_context_);
}

void Scheduler::Block() {
  Task* self = t_current;
  assert(self != nullptr && "Block outside a task");
  self->state_ = Task::State::kBlocked;
  swapcontext(&self->context_, &self->scheduler_->main_context_);
}

void Scheduler::MakeRunnable(Task* task) {
  if (task->state_ == Task::State::kBlocked) {
    task->wake_pending_.store(false, std::memory_order_relaxed);  // direct wake wins
    task->state_ = Task::State::kRunnable;
    ready_.push_back(task);
  }
}

void Scheduler::MakeRunnableFromAnyThread(Task* task) {
  task->wake_pending_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(ext_mutex_);
    ext_wakeups_.push_back(task);
  }
  ext_cv_.notify_one();
}

void Scheduler::Notify() {
  {
    std::lock_guard<std::mutex> lock(ext_mutex_);
    notified_ = true;
  }
  ext_cv_.notify_one();
}

void Scheduler::WaitForWork() {
  std::unique_lock<std::mutex> lock(ext_mutex_);
  ext_cv_.wait(lock, [this] { return notified_ || !ext_wakeups_.empty(); });
  notified_ = false;
}

Task* Scheduler::Current() { return t_current; }

int64_t Task::cpu_nanos() const {
  if (t_current == this && state_ == State::kRunning) {
    return cpu_nanos_ + (ThreadCpuNanos() - slice_cpu_start_);
  }
  return cpu_nanos_;
}

}  // namespace seal::lthread
