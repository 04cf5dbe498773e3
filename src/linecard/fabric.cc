#include "linecard/fabric.hh"

#include <algorithm>

#include "common/logging.hh"

namespace clumsy::linecard
{

DramFabric::DramFabric(const dram::DramConfig &config, unsigned chips,
                       unsigned tokens, Quanta flatQuanta,
                       FiberScheduler &fibers)
    : model_(config),
      flat_(flatQuanta),
      tokens_(std::max(1u, tokens)),
      bound_(chips, 0),
      lastCommit_(chips, 0),
      done_(chips, 0),
      wait_(chips, Wait::Start),
      fibers_(fibers)
{
    CLUMSY_ASSERT(chips >= 1, "fabric needs at least one chip");
    const std::lock_guard<std::mutex> lk(m_);
    grantLocked();
}

void
DramFabric::awaitGrant(std::unique_lock<std::mutex> &lk, unsigned chip)
{
    wait_[chip] = Wait::Commit;
    lk.unlock();
    fibers_.suspend(chip);
    lk.lock();
    CLUMSY_ASSERT(wait_[chip] == Wait::None,
                  "chip %u resumed without a token", chip);
}

void
DramFabric::grantLocked()
{
    const unsigned chips = static_cast<unsigned>(wait_.size());
    while (running_ < tokens_) {
        // 1. The smallest (p, chip) commit waiter, if admissible. A
        // commit waiter's p is its last commit point.
        unsigned next = chips;
        for (unsigned c = 0; c < chips; ++c)
            if (wait_[c] == Wait::Commit &&
                (next == chips || lastCommit_[c] < lastCommit_[next]))
                next = c;
        if (next < chips && !safeLocked(next, lastCommit_[next]))
            next = chips;
        // 2. Otherwise the lowest-index chip not yet started.
        for (unsigned c = 0; next == chips && c < chips; ++c)
            if (wait_[c] == Wait::Start)
                next = c;
        if (next == chips)
            return; // the token stays free
        wait_[next] = Wait::None;
        ++running_;
        fibers_.ready(next);
    }
}

void
DramFabric::publish(unsigned chip, Quanta bound)
{
    std::lock_guard<std::mutex> lk(m_);
    if (bound <= bound_[chip])
        return;
    bound_[chip] = bound;
    grantLocked();
}

bool
DramFabric::safeLocked(unsigned chip, Quanta p) const
{
    for (unsigned j = 0; j < bound_.size(); ++j) {
        if (j == chip || done_[j])
            continue;
        if (bound_[j] < p || (bound_[j] == p && j < chip))
            return false;
    }
    return true;
}

Quanta
DramFabric::request(unsigned chip, std::uint64_t addr, Quanta reqTime)
{
    std::unique_lock<std::mutex> lk(m_);

    // The commit point. Clamping to the chip's own previous commit
    // keeps the per-chip sequence monotone (port slot times are not:
    // with MSHRs > 1 a later access can land on an earlier slot), so
    // the global (p, chip) order below is a genuine total order.
    const Quanta p = std::max(reqTime, lastCommit_[chip]);
    CLUMSY_ASSERT(p >= bound_[chip],
                  "DRAM request earlier than the chip's published bound");
    bound_[chip] = p;
    lastCommit_[chip] = p;

    if (safeLocked(chip, p)) {
        grantLocked(); // the raised bound may admit a waiter
    } else {
        // Lend our execution token while suspended so the chips we
        // wait on can run; a grant hands one back once our commit is
        // next. Safety is monotone (bounds only rise, done only
        // sets), so it still holds when we resume.
        --running_;
        grantLocked();
        awaitGrant(lk, chip);
        CLUMSY_ASSERT(safeLocked(chip, p),
                      "commit token granted out of (p, chip) order");
    }

    const Quanta done = model_.access(addr, p);
    const Quanta extra = done - reqTime - flat_;
    CLUMSY_ASSERT(extra >= 0, "DRAM completed before the flat penalty");
    return extra;
}

void
DramFabric::finish(unsigned chip)
{
    std::lock_guard<std::mutex> lk(m_);
    done_[chip] = 1;
    --running_;
    grantLocked();
}

} // namespace clumsy::linecard
