/**
 * @file
 * Tests of the user-space fibers (common/fiber.hh): a long ping-pong
 * of switches, floating-point state (a live double and a non-default
 * MXCSR rounding mode) kept per context across switches, deep
 * recursion on a fiber stack, a fiber resumed on a different thread
 * than the one that started it, and the scheduler's hand-offs between
 * fibers on one and on several workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fiber.hh"

using namespace clumsy;

namespace
{

/**
 * Sum 1..n through n nested calls. Each frame holds a buffer it reads
 * after the call returns, so none can be folded into a loop.
 */
std::uint64_t
deepSum(std::uint64_t n)
{
    volatile char pad[64];
    pad[n % sizeof(pad)] = 1;
    const std::uint64_t below = n == 0 ? 0 : deepSum(n - 1);
    return below + n * static_cast<std::uint64_t>(pad[n % sizeof(pad)]);
}

/**
 * The running thread's id. pthread_self() is declared const, so a
 * direct call may be folded with one made before a suspend, on the
 * thread the fiber ran on then; a call through a volatile pointer is
 * made every time.
 */
std::thread::id (*volatile currentThread)() = &std::this_thread::get_id;

/** Round 2.25 to an integer under the current rounding mode. */
double
roundNow()
{
    volatile double x = 2.25; // no folding under the default mode
    return std::nearbyint(x);
}

} // namespace

TEST(Fiber, PingPongOfManySwitches)
{
    constexpr int kRounds = 100000;
    int inside = 0;
    Fiber fiber([&](Fiber &self) {
        for (int i = 0; i < kRounds; ++i) {
            ++inside;
            self.suspend();
        }
    });
    for (int i = 0; i < kRounds; ++i) {
        ASSERT_FALSE(fiber.finished());
        fiber.resume();
        ASSERT_EQ(inside, i + 1);
    }
    fiber.resume(); // the body returns
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(inside, kRounds);
}

TEST(Fiber, FloatingPointStateIsPerContext)
{
    const int callerMode = std::fegetround();
    ASSERT_EQ(callerMode, FE_TONEAREST);
    double seen = 0.0;
    int modeAfter = -1;
    double roundedAfter = 0.0;
    Fiber fiber([&](Fiber &self) {
        volatile double third = 1.0;
        const double live = third / 3.0;
        std::fesetround(FE_UPWARD);
        self.suspend();
        // The caller ran round-to-nearest in between.
        modeAfter = std::fegetround();
        roundedAfter = roundNow();
        seen = live;
        std::fesetround(FE_TONEAREST);
    });
    fiber.resume();
    // The fiber's rounding mode stays with the fiber.
    EXPECT_EQ(std::fegetround(), callerMode);
    EXPECT_EQ(roundNow(), 2.0);
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(modeAfter, FE_UPWARD);
    EXPECT_EQ(roundedAfter, 3.0);
    EXPECT_EQ(seen, 1.0 / 3.0);
    EXPECT_EQ(std::fegetround(), callerMode);
}

TEST(Fiber, DeepRecursionOnTheFiberStack)
{
    // ~20k frames of ~100+ bytes: megabytes of stack, well past one
    // page, inside the default reservation.
    constexpr std::uint64_t kDepth = 20000;
    std::uint64_t sum = 0;
    Fiber fiber([&](Fiber &self) {
        sum = deepSum(kDepth);
        self.suspend();
        sum += deepSum(kDepth); // and again after a switch
    });
    fiber.resume();
    EXPECT_EQ(sum, kDepth * (kDepth + 1) / 2);
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(sum, kDepth * (kDepth + 1));
}

TEST(Fiber, ResumesOnAnotherThread)
{
    std::thread::id first, second;
    std::uint64_t carried = 0;
    Fiber fiber([&](Fiber &self) {
        std::uint64_t local = 0x9e3779b97f4a7c15ull;
        first = currentThread();
        self.suspend();
        second = currentThread();
        carried = local;
    });
    // The first thread outlives the second, so their ids differ.
    std::atomic<bool> suspended{false}, finished{false};
    std::thread a([&] {
        fiber.resume();
        suspended = true;
        while (!finished)
            std::this_thread::yield();
    });
    while (!suspended)
        std::this_thread::yield();
    ASSERT_FALSE(fiber.finished());
    std::thread b([&] {
        fiber.resume();
        finished = true;
    });
    b.join();
    a.join();
    EXPECT_TRUE(fiber.finished());
    EXPECT_NE(first, second);
    EXPECT_EQ(carried, 0x9e3779b97f4a7c15ull);
}

/**
 * A token ring: fiber i, on each of its turns, makes fiber i+1 ready
 * and suspends. Exactly one fiber is ready at a time, so the turns
 * run in ring order at every worker count, while with several workers
 * a fiber often resumes on a different one than it suspended on.
 */
TEST(FiberScheduler, TokenRingRunsInOrderOnAnyWorkerCount)
{
    constexpr std::size_t kFibers = 5;
    constexpr int kTurns = 2000;
    for (const unsigned workers : {1u, 2u, 3u, 8u}) {
        std::vector<std::size_t> order;
        FiberScheduler *self = nullptr;
        FiberScheduler sched(kFibers, [&](std::size_t i) {
            for (int t = 0; t < kTurns; ++t) {
                order.push_back(i);
                self->ready((i + 1) % kFibers);
                self->suspend(i);
            }
            // Woken once more after its last turn: pass the token on
            // so every fiber gets to return.
            if (i + 1 < kFibers)
                self->ready(i + 1);
        });
        self = &sched;
        sched.ready(0);
        sched.run(workers);
        ASSERT_EQ(order.size(), kFibers * kTurns) << workers;
        for (std::size_t k = 0; k < order.size(); ++k)
            ASSERT_EQ(order[k], k % kFibers) << "workers " << workers;
    }
}

/**
 * A fiber that makes itself ready and suspends yields: it is requeued
 * once off its stack, behind the fibers already ready. On one worker
 * two yielding fibers therefore alternate.
 */
TEST(FiberScheduler, SelfReadyYieldsBehindReadyFibers)
{
    constexpr int kYields = 1000;
    for (const unsigned workers : {1u, 2u, 4u}) {
        std::vector<std::size_t> order;
        std::mutex m;
        FiberScheduler *self = nullptr;
        FiberScheduler sched(2, [&](std::size_t i) {
            for (int t = 0; t < kYields; ++t) {
                {
                    const std::lock_guard<std::mutex> lock(m);
                    order.push_back(i);
                }
                self->ready(i);
                self->suspend(i);
            }
        });
        self = &sched;
        sched.ready(0);
        sched.ready(1);
        sched.run(workers);
        ASSERT_EQ(order.size(), 2u * kYields);
        if (workers == 1) {
            for (std::size_t k = 0; k < order.size(); ++k)
                ASSERT_EQ(order[k], k % 2);
        }
    }
}

TEST(FiberSchedulerDeathTest, StallPanicsInsteadOfHanging)
{
    EXPECT_DEATH(
        {
            FiberScheduler *self = nullptr;
            FiberScheduler sched(2, [&](std::size_t i) {
                self->suspend(i); // no one ever makes it ready again
            });
            self = &sched;
            sched.ready(0);
            sched.ready(1);
            sched.run(1);
        },
        "fiber scheduler stalled");
}
