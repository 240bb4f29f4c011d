#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/asyncall/asyncall.h"
#include "src/sgx/enclave.h"

namespace seal::asyncall {
namespace {

sgx::EnclaveConfig FastConfig() {
  sgx::EnclaveConfig config;
  config.inject_costs = false;
  return config;
}

TEST(AsyncCall, BasicEcall) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  int observed = 0;
  int id = enclave.RegisterEcall("set", [&](void* d) { observed = *static_cast<int*>(d); });
  AsyncCallRuntime::Options options;
  options.enclave_threads = 1;
  options.tasks_per_thread = 4;
  AsyncCallRuntime runtime(&enclave, options);
  runtime.Start();
  int value = 99;
  ASSERT_TRUE(runtime.AsyncEcall(id, &value).ok());
  EXPECT_EQ(observed, 99);
  runtime.Stop();
}

TEST(AsyncCall, NotStartedFails) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  int id = enclave.RegisterEcall("nop", [](void*) {});
  AsyncCallRuntime runtime(&enclave, AsyncCallRuntime::Options{});
  EXPECT_FALSE(runtime.AsyncEcall(id, nullptr).ok());
}

TEST(AsyncCall, UnknownEcallFails) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  AsyncCallRuntime runtime(&enclave, AsyncCallRuntime::Options{});
  runtime.Start();
  EXPECT_FALSE(runtime.AsyncEcall(12345, nullptr).ok());
  runtime.Stop();
}

TEST(AsyncCall, HandlerRunsInsideEnclave) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  bool inside = false;
  int id = enclave.RegisterEcall("check", [&](void*) { inside = sgx::Enclave::InsideEnclave(); });
  AsyncCallRuntime runtime(&enclave, AsyncCallRuntime::Options{});
  runtime.Start();
  ASSERT_TRUE(runtime.AsyncEcall(id, nullptr).ok());
  EXPECT_TRUE(inside);
  runtime.Stop();
}

TEST(AsyncCall, OnlyOneTransitionPairPerWorker) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  int id = enclave.RegisterEcall("nop", [](void*) {});
  AsyncCallRuntime::Options options;
  options.enclave_threads = 2;
  AsyncCallRuntime runtime(&enclave, options);
  runtime.Start();
  // Each worker enters as its thread starts; wait for both entries, or one
  // worker can serve all 50 calls before the other thread has run at all.
  for (int ms = 0; enclave.stats().ecalls < 2u && ms < 10000; ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(runtime.AsyncEcall(id, nullptr).ok());
  }
  // 2 worker entries only; the 50 async-ecalls do not touch the gate.
  EXPECT_EQ(enclave.stats().ecalls, 2u);
  runtime.Stop();
}

TEST(AsyncCall, AsyncOcallExecutedByAppThread) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  std::thread::id app_thread = std::this_thread::get_id();
  std::thread::id ocall_thread;
  int ocall_id = enclave.RegisterOcall("where", [&](void*) {
    ocall_thread = std::this_thread::get_id();
  });
  Status ocall_status = Internal("unset");
  int ecall_id = enclave.RegisterEcall("do", [&](void*) {
    ocall_status = AsyncCallRuntime::AsyncOcall(ocall_id, nullptr);
  });
  AsyncCallRuntime runtime(&enclave, AsyncCallRuntime::Options{});
  runtime.Start();
  ASSERT_TRUE(runtime.AsyncEcall(ecall_id, nullptr).ok());
  EXPECT_TRUE(ocall_status.ok());
  EXPECT_EQ(ocall_thread, app_thread);  // the binding invariant from §4.3
  runtime.Stop();
}

TEST(AsyncCall, AsyncOcallOutsideHandlerFails) {
  EXPECT_FALSE(AsyncCallRuntime::AsyncOcall(0, nullptr).ok());
}

TEST(AsyncCall, ManyConcurrentCallers) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  std::atomic<int> sum{0};
  int ocall_id = enclave.RegisterOcall("bump", [&](void* d) {
    sum.fetch_add(*static_cast<int*>(d));
  });
  int ecall_id = enclave.RegisterEcall("work", [&](void* d) {
    // Each ecall performs an ocall, exercising the full Fig. 4 protocol.
    (void)AsyncCallRuntime::AsyncOcall(ocall_id, d);
  });
  AsyncCallRuntime::Options options;
  options.enclave_threads = 2;
  options.tasks_per_thread = 8;
  AsyncCallRuntime runtime(&enclave, options);
  runtime.Start();
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int one = 1;
      for (int i = 0; i < kCallsPerThread; ++i) {
        ASSERT_TRUE(runtime.AsyncEcall(ecall_id, &one).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(sum.load(), kThreads * kCallsPerThread);
  runtime.Stop();
}

TEST(AsyncCall, MultipleOcallsWithinOneEcall) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  int count = 0;
  int ocall_id = enclave.RegisterOcall("tick", [&](void*) { ++count; });
  int ecall_id = enclave.RegisterEcall("multi", [&](void*) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(AsyncCallRuntime::AsyncOcall(ocall_id, nullptr).ok());
    }
  });
  AsyncCallRuntime runtime(&enclave, AsyncCallRuntime::Options{});
  runtime.Start();
  ASSERT_TRUE(runtime.AsyncEcall(ecall_id, nullptr).ok());
  EXPECT_EQ(count, 5);
  runtime.Stop();
}

TEST(AsyncCall, RestartWorks) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  int runs = 0;
  int id = enclave.RegisterEcall("inc", [&](void*) { ++runs; });
  AsyncCallRuntime runtime(&enclave, AsyncCallRuntime::Options{});
  runtime.Start();
  ASSERT_TRUE(runtime.AsyncEcall(id, nullptr).ok());
  runtime.Stop();
  runtime.Start();
  ASSERT_TRUE(runtime.AsyncEcall(id, nullptr).ok());
  runtime.Stop();
  EXPECT_EQ(runs, 2);
}

TEST(AsyncCall, SlotIndexStaysInRangeAcrossTicketWrap) {
  // The ticket counter is unsigned so the wrap is well-defined; the mapped
  // slot must stay in [0, max_app_threads) on both sides of it. (The old
  // signed counter overflowed into UB here and could go negative.)
  for (int max : {1, 7, 64}) {
    for (uint32_t ticket : {uint32_t{0}, uint32_t{1}, UINT32_MAX - 1, UINT32_MAX}) {
      int slot = AsyncCallRuntime::SlotIndexForTicket(ticket, max);
      EXPECT_GE(slot, 0) << "ticket " << ticket << " max " << max;
      EXPECT_LT(slot, max) << "ticket " << ticket << " max " << max;
    }
  }
  // Power-of-two slot arrays cycle cleanly through the wrap: ...62, 63, 0...
  EXPECT_EQ(AsyncCallRuntime::SlotIndexForTicket(UINT32_MAX, 64), 63);
  EXPECT_EQ(AsyncCallRuntime::SlotIndexForTicket(0, 64), 0);
}

TEST(AsyncCall, EcallsKeepWorkingThroughTicketWrap) {
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  std::atomic<int> runs{0};
  int id = enclave.RegisterEcall("inc", [&](void*) { runs.fetch_add(1); });
  AsyncCallRuntime::Options options;
  options.enclave_threads = 1;
  options.tasks_per_thread = 4;
  options.max_app_threads = 8;
  AsyncCallRuntime runtime(&enclave, options);
  runtime.set_next_slot_for_testing(UINT32_MAX - 2);
  runtime.Start();
  // Fresh threads so every caller draws a new ticket; the sequence crosses
  // UINT32_MAX -> 0 mid-batch.
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] { ASSERT_TRUE(runtime.AsyncEcall(id, nullptr).ok()); });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(runs.load(), kThreads);
  runtime.Stop();
}

TEST(AsyncCall, StopFailsUnclaimedPendingCall) {
  // Regression: Stop() used to leave a posted-but-unclaimed async-ecall in
  // kEcallPending forever -- the workers exited without claiming it and
  // nothing ever signalled the slot, stranding the application thread. With
  // one worker running one task we can pin the only task on a gated handler
  // and guarantee the second call is still unclaimed when Stop() lands.
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  std::atomic<bool> in_handler{false};
  std::atomic<bool> release{false};
  int gate_id = enclave.RegisterEcall("gate", [&](void*) {
    in_handler.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  int nop_id = enclave.RegisterEcall("nop", [](void*) {});
  AsyncCallRuntime::Options options;
  options.enclave_threads = 1;
  options.tasks_per_thread = 1;
  options.max_app_threads = 4;
  AsyncCallRuntime runtime(&enclave, options);
  runtime.Start();

  Status status_a = Internal("unset");
  std::thread a([&] { status_a = runtime.AsyncEcall(gate_id, nullptr); });
  while (!in_handler.load()) {
    std::this_thread::yield();
  }
  // The single task is now busy; this call stays kEcallPending.
  Status status_b = Internal("unset");
  std::thread b([&] { status_b = runtime.AsyncEcall(nop_id, nullptr); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::thread stopper([&] { runtime.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release.store(true);

  stopper.join();
  a.join();
  b.join();
  // The in-flight call drained; the unclaimed one failed instead of hanging.
  EXPECT_TRUE(status_a.ok()) << status_a.message();
  EXPECT_FALSE(status_b.ok());
  EXPECT_NE(status_b.message().find("stopped"), std::string::npos) << status_b.message();
}

TEST(AsyncCall, StopDrainsInFlightOcall) {
  // Regression: Stop() during an async-ocall round-trip must let the ocall
  // complete and the handler resume to kResultReady, not cut the protocol
  // mid-flight.
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  std::atomic<bool> in_ocall{false};
  std::atomic<bool> release{false};
  int ocall_id = enclave.RegisterOcall("slow", [&](void*) {
    in_ocall.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  Status ocall_status = Internal("unset");
  int ecall_id = enclave.RegisterEcall("do", [&](void*) {
    ocall_status = AsyncCallRuntime::AsyncOcall(ocall_id, nullptr);
  });
  AsyncCallRuntime::Options options;
  options.enclave_threads = 1;
  options.tasks_per_thread = 1;
  AsyncCallRuntime runtime(&enclave, options);
  runtime.Start();

  Status status = Internal("unset");
  std::thread app([&] { status = runtime.AsyncEcall(ecall_id, nullptr); });
  while (!in_ocall.load()) {
    std::this_thread::yield();
  }
  std::thread stopper([&] { runtime.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release.store(true);
  stopper.join();
  app.join();

  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_TRUE(ocall_status.ok()) << ocall_status.message();
  // The runtime is down now: new calls fail fast rather than queueing.
  EXPECT_FALSE(runtime.AsyncEcall(ecall_id, nullptr).ok());
}

TEST(AsyncCall, StopRacingProducersNeverStrandsAndNeverLosesWork) {
  // Producers hammer the runtime while Stop() lands mid-stream. Every call
  // must terminate (this test hung under the old timeout-reliant wakeups),
  // and the drain invariant must hold: a call that reported Ok ran its
  // handler exactly once, a call that failed never ran it.
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  std::atomic<int> runs{0};
  int id = enclave.RegisterEcall("inc", [&](void*) { runs.fetch_add(1); });
  AsyncCallRuntime::Options options;
  options.enclave_threads = 2;
  options.tasks_per_thread = 2;
  options.max_app_threads = 4;  // fewer slots than producers: forced sharing
  AsyncCallRuntime runtime(&enclave, options);
  runtime.Start();

  constexpr int kProducers = 8;
  constexpr int kCallsPerProducer = 200;
  std::atomic<int> ok_calls{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kCallsPerProducer; ++i) {
        if (runtime.AsyncEcall(id, nullptr).ok()) {
          ok_calls.fetch_add(1);
        }
      }
    });
  }
  // Let some traffic through, then pull the plug under load.
  while (runs.load() < kProducers * kCallsPerProducer / 4) {
    std::this_thread::yield();
  }
  runtime.Stop();
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(runs.load(), ok_calls.load());
  EXPECT_GT(ok_calls.load(), 0);
}

TEST(AsyncCall, MultiProducerStressWithSharedSlots) {
  // Regression for the lost-wakeup ordering: with more producers than slots
  // every transition's notify must land for the protocol to make progress.
  // Under the old code (notify without the slot mutex held, Stop never
  // signalling) this configuration stalled for the full wait_for timeout on
  // a measurable fraction of calls and could hang outright.
  sgx::Enclave enclave(FastConfig(), ToBytes("code"), "signer");
  std::atomic<int> sum{0};
  int ocall_id = enclave.RegisterOcall("bump", [&](void* d) {
    sum.fetch_add(*static_cast<int*>(d));
  });
  int ecall_id = enclave.RegisterEcall("work", [&](void* d) {
    // Two ocall round-trips per ecall doubles the cross-thread handoffs.
    ASSERT_TRUE(AsyncCallRuntime::AsyncOcall(ocall_id, d).ok());
    ASSERT_TRUE(AsyncCallRuntime::AsyncOcall(ocall_id, d).ok());
  });
  AsyncCallRuntime::Options options;
  options.enclave_threads = 2;
  options.tasks_per_thread = 4;
  options.max_app_threads = 4;  // 16 producers share 4 slots
  AsyncCallRuntime runtime(&enclave, options);
  runtime.Start();
  constexpr int kThreads = 16;
  constexpr int kCallsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int one = 1;
      for (int i = 0; i < kCallsPerThread; ++i) {
        ASSERT_TRUE(runtime.AsyncEcall(ecall_id, &one).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(sum.load(), kThreads * kCallsPerThread * 2);
  runtime.Stop();
}

}  // namespace
}  // namespace seal::asyncall
