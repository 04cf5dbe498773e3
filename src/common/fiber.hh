/**
 * @file
 * Stackful user-space fibers and a small scheduler that multiplexes
 * them over a few OS threads.
 *
 * A Fiber runs a body on its own stack and can suspend anywhere in
 * that body, however deep the call chain — the line card's DRAM
 * fabric suspends a chip in the middle of an L2 miss. Switching is a
 * plain register switch in user space: on x86-64, a few instructions
 * that save the callee-saved general registers, MXCSR and the x87
 * control word (everything the System V ABI says a call preserves);
 * elsewhere, ucontext. No switch enters the kernel.
 *
 * Stacks are mmap'd with MAP_NORESERVE and committed by the kernel
 * page by page as the body touches them, like an OS thread's stack; a
 * PROT_NONE guard page below each one turns an overflow into a fault
 * instead of silent corruption. Switches carry the ASan and TSan
 * fiber annotations, so both sanitizers follow the body across
 * stacks and threads.
 *
 * Threads. A fiber may be resumed by a different thread each time, as
 * long as no two threads run it at once and it is fully off its stack
 * (suspended, not merely about to suspend) when the next one resumes
 * it. FiberScheduler keeps both rules. Code running on a fiber must
 * not hold a lock across a suspend, nor keep thread-specific values
 * across one: the compiler may fold two calls of a function declared
 * const, such as pthread_self() or errno's location, into the first.
 */

#ifndef CLUMSY_COMMON_FIBER_HH
#define CLUMSY_COMMON_FIBER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace clumsy
{

/** One stackful context (see the file comment). */
class Fiber
{
  public:
    using Body = std::function<void(Fiber &)>;

    /**
     * Address space reserved per stack, committed only as touched:
     * the default stack size of an OS thread.
     */
    static constexpr std::size_t kStackBytes = std::size_t{8} << 20;

    /** A fiber that runs @p body(*this) once first resumed. */
    explicit Fiber(Body body);

    /** The fiber must have finished or never have started. */
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Run the fiber on the calling thread until its body suspends or
     * returns. Not on a finished fiber.
     */
    void resume();

    /**
     * From the fiber's own body: switch back to the resume() that
     * entered it. Returns at the next resume(), on whichever thread
     * calls it.
     */
    void suspend();

    /** Has the body returned? */
    bool finished() const { return finished_; }

  private:
    /** A saved register context. */
    struct Context
    {
#if defined(__x86_64__)
        void *sp = nullptr; ///< where the switch pushed the registers
#else
        ucontext_t uc{};
#endif
    };

    /** Save the running context into @p from; continue at @p to. */
    static void transfer(Context &from, Context &to);

    /** First code on the new stack: run the body, then leave. */
    static void entry(Fiber *self) noexcept;

#if !defined(__x86_64__)
    /** makecontext passes ints: entry's argument in two halves. */
    static void ucontextEntry(unsigned hi, unsigned lo);
#endif

    /** Tell the sanitizers this context is running again. */
    void arrived();

    Body body_;
    char *stack_ = nullptr; ///< lowest of kStackBytes; guard page below
    Context self_;   ///< the fiber while it is switched out
    Context caller_; ///< the resume() that entered it
    bool started_ = false;
    bool finished_ = false;

    // Sanitizer state (unused without a sanitizer).
    void *fakeStack_ = nullptr;         ///< ASan: this fiber's
    const void *callerStack_ = nullptr; ///< ASan: the resumer's stack
    std::size_t callerStackBytes_ = 0;
    void *tsanFiber_ = nullptr;  ///< TSan: this fiber
    void *tsanCaller_ = nullptr; ///< TSan: the resumer
};

/**
 * A fixed set of fibers run by a few OS workers. Fiber i runs
 * body(i); it first runs once made ready, and after each suspend it
 * runs again only once made ready again, on whichever worker is free.
 * Ready fibers run in the order they were made ready.
 */
class FiberScheduler
{
  public:
    FiberScheduler(std::size_t fibers,
                   std::function<void(std::size_t)> body);

    /**
     * Make fiber @p i runnable. Call before run(), or from a fiber of
     * this scheduler — fiber @p i itself included, even just before
     * it suspends: it then runs again once it is off its stack. Each
     * ready() must be matched by a suspend (or the first run).
     */
    void ready(std::size_t i);

    /** From inside fiber @p i: switch out until its next ready(). */
    void suspend(std::size_t i) { fibers_[i]->suspend(); }

    /**
     * Run ready fibers on @p workers threads, the calling thread
     * included, until every body has returned. Panics when every
     * worker is idle while some fiber is still suspended: no one is
     * left to make it ready.
     */
    void run(unsigned workers);

  private:
    /** Where fiber i is in its cycle. */
    enum class State : char
    {
        Idle,    ///< not started, or suspended and not ready
        Queued,  ///< ready, waiting for a worker
        Running, ///< on a worker
        Woken,   ///< on a worker, made ready before it switched out
        Done,    ///< body returned
    };

    /** One worker's loop. */
    void work(unsigned workers);

    std::function<void(std::size_t)> body_;
    std::vector<std::unique_ptr<Fiber>> fibers_;
    std::vector<State> state_;

    std::mutex m_;
    std::condition_variable cv_; ///< queue grew, or every fiber is done
    std::deque<std::size_t> queue_;
    std::size_t done_ = 0;
    unsigned idle_ = 0; ///< workers waiting on cv_
};

} // namespace clumsy

#endif // CLUMSY_COMMON_FIBER_HH
