/**
 * @file
 * The card-wide DRAM fabric: one analytical dram::DramModel shared by
 * every chip on the line card, with the conservative commit protocol
 * that lets chips simulate in parallel yet touch the model in a
 * deterministic global order.
 *
 * Determinism contract. Every DRAM request is committed at a point
 * p = max(request time, the chip's previous commit point), and the
 * fabric admits commits in strictly increasing (p, chip index) order:
 * a chip may apply its access only once every other unfinished chip's
 * published bound lies strictly above p — or at p with a larger chip
 * index. Published bounds are monotone lower bounds on each chip's
 * future request times (the chip step loop publishes the minimum
 * alive-engine data time every step, and any request an engine issues
 * mid-packet is at or after the time its packet started), so the
 * admitted order is a total order that does not depend on how the
 * chips are scheduled: the DramModel's bank state evolves identically at every
 * --card-jobs value, which is the whole byte-identity argument.
 *
 * Execution. Every chip runs its step loop on its own fiber
 * (common/fiber.hh), and the fibers share `tokens` OS workers; at
 * one token the only worker is the thread that runs the card. A chip
 * holds an execution token while it simulates, so at most `tokens`
 * chips run at once. A chip waiting for its commit turn records the
 * wait, releases its token and switches back to the scheduler, deep
 * inside its L2-miss path; another chip then runs on that worker and
 * raises its bound. The waiter with the globally smallest (p, chip)
 * among unfinished chips is always admissible, so the fabric is
 * deadlock-free for any token count >= 1.
 *
 * Token grants. A token goes to a named chip, never to whoever wakes
 * first. Whenever a token is free — a chip releases its token to wait
 * for its commit turn, or finishes — or a bound rises while one is
 * free, the fabric grants it to, in order:
 *  1. the commit waiter with the smallest (p, chip), if it is safe
 *     (it is the only waiter that can be: every other waiter's p is
 *     above its published bound);
 *  2. otherwise the lowest-index chip that has not started yet.
 * With neither, the token stays free. A granted chip goes onto the
 * scheduler's ready list, and the next free worker switches to it.
 * Every chip starts out waiting to start, so the constructor grants
 * the first `tokens` chips. This cannot deadlock: with every
 * unfinished chip waiting and a token free, either some chip has not
 * started (rule 2 serves it) or every unfinished chip is a commit
 * waiter, and then the smallest (p, chip) among them bounds every
 * other chip from below — it is safe, and rule 1 serves it. Safety is
 * monotone (bounds only rise, finished chips stay finished), so a
 * granted commit stays admissible. The grant choice only decides
 * which chip runs next; the (p, chip) commit order, and so every
 * result byte, is fixed by the bounds alone.
 */

#ifndef CLUMSY_LINECARD_FABRIC_HH
#define CLUMSY_LINECARD_FABRIC_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/fiber.hh"
#include "common/types.hh"
#include "dram/dram.hh"

namespace clumsy::linecard
{

/** The shared DRAM model plus the commit protocol (see file doc). */
class DramFabric
{
  public:
    /**
     * @param config     bank model behind every chip's L2.
     * @param chips      chips on the card (one protocol slot each).
     * @param tokens     execution tokens: max chips simulating at
     *                   once (>= 1; the resolved --card-jobs).
     * @param flatQuanta the flat DRAM penalty already inside every
     *                   L2 miss's latency (the row-hit time), which
     *                   request() subtracts so its return value is
     *                   pure extra stall.
     * @param fibers     the chips' fibers, fiber c running chip c;
     *                   the fabric makes each one ready when it
     *                   grants it a token, the first `tokens` at once.
     */
    DramFabric(const dram::DramConfig &config, unsigned chips,
               unsigned tokens, Quanta flatQuanta, FiberScheduler &fibers);

    /**
     * Raise @p chip's published bound: a monotone lower bound (chip
     * quanta) on the time of any DRAM request it can still make.
     * Calls with a bound at or below the current one are no-ops.
     */
    void publish(unsigned chip, Quanta bound);

    /**
     * Commit one DRAM line transfer for @p chip at
     * p = max(@p reqTime, the chip's previous commit point), from the
     * chip's fiber, suspending it until the commit is globally next
     * in (p, chip) order. Returns
     * the stall beyond the flat penalty: completion - reqTime -
     * flatQuanta, always >= 0 because the model's cheapest access is
     * the row hit the flat penalty equals.
     */
    Quanta request(unsigned chip, std::uint64_t addr, Quanta reqTime);

    /** Mark @p chip done (it blocks no one) and release its token. */
    void finish(unsigned chip);

    /** The shared model (stable once every chip has finished). */
    const dram::DramModel &model() const { return model_; }

  private:
    /** What a chip waits for, if anything. */
    enum class Wait : char
    {
        None,   ///< running, granted or finished
        Start,  ///< not started: waits for its first token
        Commit, ///< in request(), for its turn and a token
    };

    /** Is @p chip's commit at @p p globally next? (lock held) */
    bool safeLocked(unsigned chip, Quanta p) const;

    /** Hand every free token to the next eligible waiter (file doc). */
    void grantLocked();

    /**
     * Record that @p chip waits for a commit token and switch to the
     * scheduler until it is granted one. (lock held; released across
     * the switch, since the chip may come back on another worker)
     */
    void awaitGrant(std::unique_lock<std::mutex> &lk, unsigned chip);

    dram::DramModel model_;
    Quanta flat_;
    unsigned tokens_;
    unsigned running_ = 0; ///< tokens held or granted

    std::vector<Quanta> bound_;      ///< published lower bounds
    std::vector<Quanta> lastCommit_; ///< per-chip last commit point
    std::vector<char> done_;
    std::vector<Wait> wait_; ///< why each chip blocks; None once granted

    FiberScheduler &fibers_;
    mutable std::mutex m_;
};

/**
 * One chip's handle on the fabric, behind the npu::SharedL2Port's
 * DramGateway seam. Also dedups bound publishes chip-side so the
 * per-step publish usually costs no lock at all.
 */
class ChipDramPort final : public dram::DramGateway
{
  public:
    ChipDramPort() = default;

    void bind(DramFabric *fabric, unsigned chip)
    {
        fabric_ = fabric;
        chip_ = chip;
    }

    Quanta request(std::uint64_t addr, Quanta reqTime) override
    {
        return fabric_->request(chip_, addr, reqTime);
    }

    /** Forward a bound publish, skipping non-increases locally. */
    void publish(Quanta bound)
    {
        if (bound <= published_)
            return;
        published_ = bound;
        fabric_->publish(chip_, bound);
    }

  private:
    DramFabric *fabric_ = nullptr;
    unsigned chip_ = 0;
    Quanta published_ = -1; ///< so the first bound (0) gets through
};

} // namespace clumsy::linecard

#endif // CLUMSY_LINECARD_FABRIC_HH
