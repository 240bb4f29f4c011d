#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/lthread/lthread.h"

namespace seal::lthread {
namespace {

TEST(Lthread, RunsSingleTask) {
  Scheduler sched;
  bool ran = false;
  sched.Spawn([&] { ran = true; });
  sched.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.live_tasks(), 0u);
}

TEST(Lthread, TasksInterleaveOnYield) {
  Scheduler sched;
  std::string trace;
  sched.Spawn([&] {
    trace += "a1 ";
    Scheduler::Yield();
    trace += "a2 ";
  });
  sched.Spawn([&] {
    trace += "b1 ";
    Scheduler::Yield();
    trace += "b2 ";
  });
  sched.Run();
  EXPECT_EQ(trace, "a1 b1 a2 b2 ");
}

TEST(Lthread, ManyTasksAllComplete) {
  Scheduler sched;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    sched.Spawn([&] {
      for (int j = 0; j < 5; ++j) {
        Scheduler::Yield();
      }
      ++done;
    });
  }
  sched.Run();
  EXPECT_EQ(done, 100);
}

TEST(Lthread, BlockAndWake) {
  Scheduler sched;
  bool finished = false;
  Task* blocked = sched.Spawn([&] {
    Scheduler::Block();
    finished = true;
  });
  // One round: the task blocks and cannot finish.
  sched.RunOnce();
  EXPECT_FALSE(finished);
  EXPECT_EQ(blocked->state(), Task::State::kBlocked);
  // Run() bails when everything is blocked.
  sched.Run();
  EXPECT_FALSE(finished);
  // Wake it and it completes.
  sched.MakeRunnable(blocked);
  sched.Run();
  EXPECT_TRUE(finished);
}

TEST(Lthread, CurrentVisibleInsideTask) {
  Scheduler sched;
  Task* self = nullptr;
  Task* spawned = sched.Spawn([&] { self = Scheduler::Current(); });
  sched.Run();
  EXPECT_EQ(self, spawned);
  EXPECT_EQ(Scheduler::Current(), nullptr);
}

TEST(Lthread, UserDataSurvivesYields) {
  Scheduler sched;
  int payload = 7;
  int* observed = nullptr;
  sched.Spawn([&] {
    Scheduler::Current()->set_user_data(&payload);
    Scheduler::Yield();
    observed = static_cast<int*>(Scheduler::Current()->user_data());
  });
  sched.Spawn([&] {
    // A second task must not see the first task's user data.
    EXPECT_EQ(Scheduler::Current()->user_data(), nullptr);
    Scheduler::Yield();
  });
  sched.Run();
  ASSERT_NE(observed, nullptr);
  EXPECT_EQ(*observed, 7);
}

TEST(Lthread, TasksSpawnedDuringRunExecute) {
  Scheduler sched;
  bool inner_ran = false;
  sched.Spawn([&] { sched.Spawn([&] { inner_ran = true; }); });
  sched.Run();
  EXPECT_TRUE(inner_ran);
}

TEST(Lthread, DeepCallStacksWork) {
  Scheduler sched;
  // Recursion exercising a fair chunk of the coroutine stack.
  std::function<int(int)> fib = [&](int n) -> int {
    volatile char pad[256];  // consume stack
    pad[0] = 0;
    return n < 2 ? n : fib(n - 1) + fib(n - 2);
  };
  int result = 0;
  sched.Spawn([&] { result = fib(15); });
  sched.Run();
  EXPECT_EQ(result, 610);
}

// A task can use its whole stack, down to the bottom page, and the stack is
// unmapped as soon as the task finishes.
TEST(Lthread, FullStackIsUsableAndUnmappedAtTaskEnd) {
  Scheduler sched;
  constexpr size_t kStack = 64 * 1024;
  constexpr size_t kBuffer = 48 * 1024;  // the rest covers the frames above
  uintptr_t lowest = 0;
  int sum = 0;
  sched.Spawn(
      [&] {
        volatile uint8_t buffer[kBuffer];
        for (size_t i = 0; i < kBuffer; ++i) {
          buffer[i] = static_cast<uint8_t>(i);
        }
        for (size_t i = 0; i < kBuffer; i += 4096) {
          sum += buffer[i];
        }
        lowest = reinterpret_cast<uintptr_t>(&buffer[0]);
      },
      kStack);
  sched.Run();
  EXPECT_EQ(sum, 0);  // every page start holds i % 256 == 0
  const uintptr_t page_size = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  void* page = reinterpret_cast<void*>(lowest & ~(page_size - 1));
  EXPECT_NE(msync(page, page_size, MS_ASYNC), 0) << "stack still mapped after the task ended";
}

// --- cross-thread wakeup (the reactor's poller -> shard-thread path) ---

TEST(LthreadCrossThread, WakeupFromAnotherThread) {
  Scheduler sched;
  std::atomic<bool> blocked{false};
  std::atomic<bool> done{false};
  Task* task = sched.Spawn([&] {
    blocked.store(true, std::memory_order_release);
    Scheduler::Block();
    done.store(true, std::memory_order_release);
  });
  std::thread waker([&] {
    while (!blocked.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // Give the scheduler time to actually park in WaitForWork.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    sched.MakeRunnableFromAnyThread(task);
  });
  while (!done.load(std::memory_order_acquire)) {
    if (!sched.RunOnce()) {
      sched.WaitForWork();
    }
  }
  waker.join();
  EXPECT_EQ(sched.live_tasks(), 0u);
  while (sched.RunOnce()) {
  }
}

// Hammers the wake-before-block window: the waker races the task's park.
// Pre-wake-token schedulers lose wakeups that land between "decide to
// block" and "actually parked"; the per-task token makes them stick.
TEST(LthreadCrossThread, WakeBeforeBlockRaceLosesNoWakeups) {
  constexpr int kRounds = 2000;
  Scheduler sched;
  std::atomic<int> progress{0};
  Task* task = sched.Spawn([&] {
    for (int i = 0; i < kRounds; ++i) {
      Scheduler::Block();
      progress.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  std::atomic<bool> stop{false};
  std::thread waker([&] {
    // No handshake with the task: wakes land at arbitrary points relative
    // to Block(), including before it (absorbed by the wake token).
    while (!stop.load(std::memory_order_acquire)) {
      sched.MakeRunnableFromAnyThread(task);
      std::this_thread::yield();
    }
  });
  while (progress.load(std::memory_order_acquire) < kRounds) {
    if (!sched.RunOnce()) {
      sched.WaitForWork();
    }
  }
  stop.store(true, std::memory_order_release);
  waker.join();
  EXPECT_EQ(progress.load(), kRounds);
  // Drain: the final wake may have re-queued the (now finished) task's
  // bookkeeping; RunOnce until idle must not crash or find stale state.
  while (sched.RunOnce()) {
  }
  EXPECT_EQ(sched.live_tasks(), 0u);
}

TEST(LthreadCrossThread, ManyTasksWokenFromManyThreads) {
  constexpr int kTasks = 32;
  constexpr int kRoundsPerTask = 50;
  Scheduler sched;
  std::vector<Task*> tasks;
  std::atomic<int> finished{0};
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(sched.Spawn([&] {
      for (int r = 0; r < kRoundsPerTask; ++r) {
        Scheduler::Block();
      }
      finished.fetch_add(1, std::memory_order_acq_rel);
    }));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> wakers;
  for (int w = 0; w < 3; ++w) {
    wakers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (Task* t : tasks) {
          sched.MakeRunnableFromAnyThread(t);
        }
        std::this_thread::yield();
      }
    });
  }
  while (finished.load(std::memory_order_acquire) < kTasks) {
    if (!sched.RunOnce()) {
      sched.WaitForWork();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : wakers) {
    w.join();
  }
  while (sched.RunOnce()) {
  }
  EXPECT_EQ(sched.live_tasks(), 0u);
}

TEST(LthreadCrossThread, NotifyWakesWaitForWork) {
  Scheduler sched;
  std::atomic<bool> notified{false};
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    notified.store(true, std::memory_order_release);
    sched.Notify();
  });
  // No tasks at all: WaitForWork must park until Notify, not spin or hang.
  sched.WaitForWork();
  EXPECT_TRUE(notified.load(std::memory_order_acquire));
  notifier.join();
}

}  // namespace
}  // namespace seal::lthread
