#include "common/fiber.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <thread>

#include "common/logging.hh"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CLUMSY_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CLUMSY_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define CLUMSY_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CLUMSY_FIBER_TSAN 1
#endif

#if defined(CLUMSY_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CLUMSY_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// clumsy_fiber_switch(save, load): push the callee-saved registers,
// MXCSR and the x87 control word, store the stack pointer to *save,
// then load the stack pointer @p load and pop the same set off it.
// clumsy_fiber_start is where a fresh stack "returns" to: the
// constructor leaves the Fiber in r12 and Fiber::entry in r13.
extern "C" {
void clumsy_fiber_switch(void **save, void *load);
void clumsy_fiber_start();
}

asm(R"(
    .text
    .p2align 4
    .globl clumsy_fiber_switch
    .hidden clumsy_fiber_switch
    .type clumsy_fiber_switch, @function
clumsy_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size clumsy_fiber_switch, .-clumsy_fiber_switch

    .p2align 4
    .globl clumsy_fiber_start
    .hidden clumsy_fiber_start
    .type clumsy_fiber_start, @function
clumsy_fiber_start:
    movq %r12, %rdi
    callq *%r13
    ud2
    .size clumsy_fiber_start, .-clumsy_fiber_start
)");
#endif

namespace clumsy
{

namespace
{

std::size_t
pageBytes()
{
    return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

} // namespace

Fiber::Fiber(Body body) : body_(std::move(body))
{
    const std::size_t page = pageBytes();
    void *const map =
        mmap(nullptr, kStackBytes + page, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
             0);
    if (map == MAP_FAILED)
        panic("fiber stack: mmap of %zu bytes failed", kStackBytes + page);
    if (mprotect(map, page, PROT_NONE) != 0)
        panic("fiber stack: guard page mprotect failed");
    stack_ = static_cast<char *>(map) + page;

#if defined(__x86_64__)
    // The frame clumsy_fiber_switch pops: the control words (this
    // thread's, as a new thread inherits them), r15, r14, r13 = entry,
    // r12 = this, rbx, rbp = 0 (ends frame-pointer walks), then the
    // "return" into clumsy_fiber_start, which finds its stack 16-byte
    // aligned, as the ABI wants before its call.
    std::uint32_t mxcsr = 0;
    std::uint16_t fpcw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpcw));
    auto *frame =
        reinterpret_cast<std::uint64_t *>(stack_ + kStackBytes - 80);
    frame[0] = mxcsr | (static_cast<std::uint64_t>(fpcw) << 32);
    frame[1] = 0;
    frame[2] = 0;
    frame[3] = reinterpret_cast<std::uint64_t>(&Fiber::entry);
    frame[4] = reinterpret_cast<std::uint64_t>(this);
    frame[5] = 0;
    frame[6] = 0;
    frame[7] = reinterpret_cast<std::uint64_t>(&clumsy_fiber_start);
    frame[8] = 0;
    frame[9] = 0;
    self_.sp = frame;
#else
    if (getcontext(&self_.uc) != 0)
        panic("fiber: getcontext failed");
    self_.uc.uc_stack.ss_sp = stack_;
    self_.uc.uc_stack.ss_size = kStackBytes;
    self_.uc.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&self_.uc, reinterpret_cast<void (*)()>(&ucontextEntry),
                2, static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
#endif

#if defined(CLUMSY_FIBER_TSAN)
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
    CLUMSY_ASSERT(finished_ || !started_,
                  "a fiber was destroyed while suspended");
#if defined(CLUMSY_FIBER_ASAN)
    // The body's last frame never returned: clear its redzones so the
    // next mapping at this address starts clean.
    __asan_unpoison_memory_region(stack_, kStackBytes);
#endif
#if defined(CLUMSY_FIBER_TSAN)
    __tsan_destroy_fiber(tsanFiber_);
#endif
    const std::size_t page = pageBytes();
    munmap(stack_ - page, kStackBytes + page);
}

void
Fiber::transfer(Context &from, Context &to)
{
#if defined(__x86_64__)
    clumsy_fiber_switch(&from.sp, to.sp);
#else
    swapcontext(&from.uc, &to.uc);
#endif
}

#if !defined(__x86_64__)
void
Fiber::ucontextEntry(unsigned hi, unsigned lo)
{
    entry(reinterpret_cast<Fiber *>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo));
}
#endif

void
Fiber::arrived()
{
#if defined(CLUMSY_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(fakeStack_, &callerStack_,
                                    &callerStackBytes_);
#endif
}

void
Fiber::entry(Fiber *self) noexcept
{
    self->arrived();
    self->body_(*self);
    self->finished_ = true;
    // Leave for good: ASan drops the fake stack (null save slot).
#if defined(CLUMSY_FIBER_ASAN)
    __sanitizer_start_switch_fiber(nullptr, self->callerStack_,
                                   self->callerStackBytes_);
#endif
#if defined(CLUMSY_FIBER_TSAN)
    __tsan_switch_to_fiber(self->tsanCaller_, 0);
#endif
    transfer(self->self_, self->caller_);
    panic("a finished fiber was resumed");
}

void
Fiber::resume()
{
    CLUMSY_ASSERT(!finished_, "resume of a finished fiber");
    started_ = true;
#if defined(CLUMSY_FIBER_ASAN)
    void *callerFake = nullptr;
    __sanitizer_start_switch_fiber(&callerFake, stack_, kStackBytes);
#endif
#if defined(CLUMSY_FIBER_TSAN)
    tsanCaller_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
    transfer(caller_, self_);
#if defined(CLUMSY_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(callerFake, nullptr, nullptr);
#endif
}

void
Fiber::suspend()
{
#if defined(CLUMSY_FIBER_ASAN)
    __sanitizer_start_switch_fiber(&fakeStack_, callerStack_,
                                   callerStackBytes_);
#endif
#if defined(CLUMSY_FIBER_TSAN)
    __tsan_switch_to_fiber(tsanCaller_, 0);
#endif
    transfer(self_, caller_);
    arrived();
}

FiberScheduler::FiberScheduler(std::size_t fibers,
                               std::function<void(std::size_t)> body)
    : body_(std::move(body)), state_(fibers, State::Idle)
{
    fibers_.reserve(fibers);
    for (std::size_t i = 0; i < fibers; ++i)
        fibers_.push_back(
            std::make_unique<Fiber>([this, i](Fiber &) { body_(i); }));
}

void
FiberScheduler::ready(std::size_t i)
{
    const std::lock_guard<std::mutex> lock(m_);
    switch (state_[i]) {
      case State::Idle:
        state_[i] = State::Queued;
        queue_.push_back(i);
        cv_.notify_one();
        return;
      case State::Running:
        state_[i] = State::Woken; // requeued once off its stack
        return;
      default:
        panic("fiber %zu made ready while not suspended", i);
    }
}

void
FiberScheduler::run(unsigned workers)
{
    if (fibers_.empty())
        return;
    const auto w = static_cast<unsigned>(std::clamp<std::size_t>(
        workers, 1, fibers_.size()));
    std::vector<std::thread> threads;
    threads.reserve(w - 1);
    for (unsigned t = 1; t < w; ++t)
        threads.emplace_back([this, w] { work(w); });
    work(w);
    for (std::thread &t : threads)
        t.join();
}

void
FiberScheduler::work(unsigned workers)
{
    std::unique_lock<std::mutex> lock(m_);
    while (true) {
        if (queue_.empty() && done_ < fibers_.size()) {
            if (++idle_ == workers)
                panic("fiber scheduler stalled: %zu of %zu fibers "
                      "suspended and none ready",
                      fibers_.size() - done_, fibers_.size());
            cv_.wait(lock, [this] {
                return !queue_.empty() || done_ == fibers_.size();
            });
            --idle_;
        }
        if (queue_.empty())
            return; // every body has returned
        const std::size_t i = queue_.front();
        queue_.pop_front();
        state_[i] = State::Running;
        lock.unlock();
        fibers_[i]->resume();
        lock.lock();
        if (fibers_[i]->finished()) {
            state_[i] = State::Done;
            if (++done_ == fibers_.size())
                cv_.notify_all();
        } else if (state_[i] == State::Woken) {
            state_[i] = State::Queued;
            queue_.push_back(i);
        } else {
            state_[i] = State::Idle;
        }
    }
}

} // namespace clumsy
