#include "linecard/card.hh"

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/fiber.hh"
#include "common/logging.hh"
#include "common/pool.hh"
#include "linecard/fabric.hh"
#include "npu/dispatcher.hh"
#include "traffic/traffic.hh"

namespace clumsy::linecard
{

namespace
{

/** CardConfig::cardJobs resolved and clamped to one worker per chip. */
unsigned
resolveCardJobs(unsigned cardJobs, unsigned chips)
{
    const unsigned jobs = cardJobs == 0
                              ? WorkStealingPool::hardwareWorkers()
                              : cardJobs;
    return std::max(1u, std::min(jobs, chips));
}

/**
 * Does the card policy read the packet it places? Only flow does; rr
 * and shortest place by count alone.
 */
bool
dispatchReadsPackets(npu::DispatchPolicy policy)
{
    return policy == npu::DispatchPolicy::FlowHash;
}

/**
 * The card dispatcher and its state. Its "queue depths" are total
 * assigned counts (the split is feedback-free), so a copy continues
 * the identical assignment.
 */
class CardDispatch
{
  public:
    CardDispatch(npu::DispatchPolicy policy, unsigned chips)
        : disp_(policy, chips), depths_(chips, 0), alive_(chips, 1)
    {
    }

    /** @return the chip the next packet, @p pkt, goes to. */
    unsigned assign(const net::Packet &pkt)
    {
        const int choice = disp_.choose(pkt, depths_, alive_);
        CLUMSY_ASSERT(choice >= 0,
                      "card dispatch failed with every chip alive");
        ++depths_[static_cast<unsigned>(choice)];
        return static_cast<unsigned>(choice);
    }

  private:
    npu::Dispatcher disp_;
    std::vector<unsigned> depths_;
    std::vector<char> alive_;
};

/**
 * The card split from some point of the global stream on: the
 * card-wide source and the card dispatcher's state.
 */
class SplitCursor
{
  public:
    SplitCursor(const net::TraceConfig &trace, std::int64_t gapCycles,
                npu::DispatchPolicy policy, unsigned chips)
        : src_(traffic::makeSource(trace, gapCycles)),
          dispatch_(policy, chips)
    {
    }

    SplitCursor(const SplitCursor &o)
        : src_(o.src_->clone()), dispatch_(o.dispatch_)
    {
    }

    SplitCursor(SplitCursor &&) = default;

    /** Draw the next packet into @p pkt; @return the chip it goes to. */
    unsigned draw(net::Packet &pkt)
    {
        pkt = src_->next();
        return dispatch_.assign(pkt);
    }

    /** Arrival time of the packet the last draw() produced. */
    std::int64_t arrival() const { return src_->lastArrivalCycles(); }

  private:
    std::unique_ptr<traffic::PacketSource> src_;
    CardDispatch dispatch_;
};

/** A packet of the split with its global arrival time. */
struct SplitEntry
{
    net::Packet pkt;
    std::int64_t arrival = 0;
};

/**
 * One chip's share of the split, replayed privately: the packets
 * already split off for the chip, then the global stream from a
 * cursor on, keeping only the chip's packets.
 */
class ReplaySource
{
  public:
    ReplaySource(std::vector<SplitEntry> queued, SplitCursor cursor,
                 unsigned chip)
        : queued_(std::move(queued)), cursor_(std::move(cursor)),
          chip_(chip)
    {
    }

    net::Packet next()
    {
        if (head_ < queued_.size()) {
            SplitEntry &e = queued_[head_++];
            arrival_ = e.arrival;
            return std::move(e.pkt);
        }
        net::Packet pkt;
        do {
            ++drawn_;
        } while (cursor_.draw(pkt) != chip_);
        arrival_ = cursor_.arrival();
        return pkt;
    }

    /** Arrival time of the packet the last next() returned. */
    std::int64_t lastArrivalCycles() const { return arrival_; }

    /** Packets this replay drew from its cursor. */
    std::uint64_t drawn() const { return drawn_; }

  private:
    std::vector<SplitEntry> queued_;
    std::size_t head_ = 0;
    SplitCursor cursor_;
    unsigned chip_;
    std::int64_t arrival_ = 0;
    std::uint64_t drawn_ = 0;
};

/**
 * The card-wide split, generated once and shared by every chip (see
 * the card.hh file comment): one cursor behind a mutex, and per chip a
 * FIFO of at most kSplitFifoCapacity packets drawn for it while
 * another chip was looking for its own.
 */
class CardSplit
{
  public:
    CardSplit(const net::TraceConfig &trace, std::int64_t gapCycles,
              npu::DispatchPolicy policy, unsigned chips)
        : trace_(trace), cursor_(trace, gapCycles, policy, chips),
          lanes_(chips)
    {
        for (Lane &lane : lanes_)
            lane.fifo.resize(kSplitFifoCapacity);
    }

    /**
     * Chip @p chip's next packet into @p pkt / @p arrival, or — when
     * the chip has been detached — its private replay into
     * @p replay, which then supplies every later packet.
     * @return false when the chip was detached.
     */
    bool next(unsigned chip, net::Packet &pkt, std::int64_t &arrival,
              std::unique_ptr<ReplaySource> &replay)
    {
        const std::lock_guard<std::mutex> lock(m_);
        Lane &own = lanes_[chip];
        if (own.detached) {
            replay = std::move(own.replay);
            return false;
        }
        if (own.size > 0) {
            SplitEntry &e = own.fifo[own.head];
            own.head = (own.head + 1) % kSplitFifoCapacity;
            --own.size;
            pkt = std::move(e.pkt);
            arrival = e.arrival;
            return true;
        }
        while (true) {
            ++drawn_;
            const unsigned to = cursor_.draw(pkt);
            if (to == chip) {
                arrival = cursor_.arrival();
                return true;
            }
            Lane &lane = lanes_[to];
            if (lane.detached)
                continue;
            if (lane.size == kSplitFifoCapacity) {
                detach(to, std::move(pkt));
                continue;
            }
            SplitEntry &e =
                lane.fifo[(lane.head + lane.size) % kSplitFifoCapacity];
            e.pkt = std::move(pkt);
            e.arrival = cursor_.arrival();
            peakFifoDepth_ = std::max(peakFifoDepth_, ++lane.size);
        }
    }

    const net::TraceConfig &trace() const { return trace_; }

    /** Packets the shared cursor drew. Call after every chip is done. */
    std::uint64_t drawn() const { return drawn_; }

    /** Chips detached so far. Call after every chip is done. */
    unsigned detached() const { return detached_; }

    /** Deepest any FIFO got. Call after every chip is done. */
    std::size_t peakFifoDepth() const { return peakFifoDepth_; }

  private:
    struct Lane
    {
        std::vector<SplitEntry> fifo; ///< ring of kSplitFifoCapacity
        std::size_t head = 0;
        std::size_t size = 0;
        bool detached = false;
        std::unique_ptr<ReplaySource> replay; ///< until the chip takes it
    };

    /**
     * Chip @p chip's FIFO is full and @p overflow is its next packet:
     * hand the chip its queued packets, the overflowing one and a
     * clone of the cursor, and stop buffering for it.
     */
    void detach(unsigned chip, net::Packet overflow)
    {
        Lane &lane = lanes_[chip];
        std::vector<SplitEntry> queued;
        queued.reserve(lane.size + 1);
        for (; lane.size > 0; --lane.size) {
            queued.push_back(std::move(lane.fifo[lane.head]));
            lane.head = (lane.head + 1) % kSplitFifoCapacity;
        }
        queued.push_back({std::move(overflow), cursor_.arrival()});
        lane.replay = std::make_unique<ReplaySource>(std::move(queued),
                                                     cursor_, chip);
        lane.detached = true;
        lane.fifo.clear();
        lane.fifo.shrink_to_fit();
        ++detached_;
    }

    const net::TraceConfig trace_;
    std::mutex m_;
    SplitCursor cursor_;
    std::vector<Lane> lanes_;
    std::uint64_t drawn_ = 0;
    unsigned detached_ = 0;
    std::size_t peakFifoDepth_ = 0;
};

/** Chip @p chip's view of the shared split, as the chip's source. */
class ChipShare final : public traffic::PacketSource
{
  public:
    ChipShare(CardSplit &split, unsigned chip) : split_(split), chip_(chip)
    {
    }

    net::Packet next() override
    {
        if (!replay_) {
            net::Packet pkt;
            if (split_.next(chip_, pkt, arrival_, replay_))
                return pkt;
        }
        net::Packet pkt = replay_->next();
        arrival_ = replay_->lastArrivalCycles();
        return pkt;
    }

    std::int64_t lastArrivalCycles() const override { return arrival_; }

    const net::TraceConfig &config() const override
    {
        return split_.trace();
    }

    std::unique_ptr<traffic::PacketSource> clone() const override
    {
        panic("a chip's share of the card split is not cloneable");
    }

    /** Packets this chip's private replay drew (0 if never detached). */
    std::uint64_t replayDrawn() const
    {
        return replay_ ? replay_->drawn() : 0;
    }

  private:
    CardSplit &split_;
    unsigned chip_;
    std::int64_t arrival_ = 0;
    std::unique_ptr<ReplaySource> replay_;
};

} // namespace

void
CardConfig::validate() const
{
    if (chips < 1)
        fatal("a line card needs at least one chip, got %u", chips);
    dram.validate();
    if (!perChipCr.empty() && perChipCr.size() != chips)
        fatal("per-chip Cr list names %zu chips but the card has %u",
              perChipCr.size(), chips);
    for (double cr : perChipCr) {
        if (cr <= 0.0 || cr > 1.0)
            fatal("per-chip Cr %g outside (0, 1]", cr);
    }
}

std::vector<std::uint64_t>
cardAssignCounts(const net::TraceConfig &trace, std::int64_t gapCycles,
                 const CardConfig &card, std::uint64_t numPackets)
{
    std::vector<std::uint64_t> counts(card.chips, 0);
    if (dispatchReadsPackets(card.dispatch)) {
        SplitCursor cursor(trace, gapCycles, card.dispatch, card.chips);
        net::Packet pkt;
        for (std::uint64_t s = 0; s < numPackets; ++s)
            ++counts[cursor.draw(pkt)];
    } else {
        // The placement never reads the packet: skip drawing the trace.
        CardDispatch dispatch(card.dispatch, card.chips);
        const net::Packet blank;
        for (std::uint64_t s = 0; s < numPackets; ++s)
            ++counts[dispatch.assign(blank)];
    }
    return counts;
}

CardRunResult
runCard(const core::AppFactory &factory,
        const core::ExperimentConfig &config, const npu::NpuConfig &npu,
        const CardConfig &card, bool golden, unsigned trial)
{
    card.validate();
    const bool dramOn = card.dram.banks > 0;

    // The per-chip experiment template. With the DRAM model on, the
    // flat miss penalty becomes exactly the model's row-hit time —
    // the model then only ever *adds* stall (the gateway returns
    // completion minus the flat floor, >= 0), so dram-banks=0 and the
    // historical flat model remain one timing family.
    core::ExperimentConfig base = config;
    if (dramOn)
        base.processor.hierarchy.memCycles = card.dram.rowHitCycles;
    npu::NpuConfig npuBase = npu;
    npuBase.chipJobs = 1; // the card owns the thread budget
    npuBase.ingressCapacity = card.ingressCapacity;
    npuBase.validate(base.processor.hierarchy);

    // The card-wide trace, and each chip's packet count from the
    // counting pre-pass.
    const net::TraceConfig trace = [&] {
        const std::unique_ptr<core::PacketApp> app = factory();
        return core::resolveTraceConfig(base, *app);
    }();
    const std::vector<std::uint64_t> counts = cardAssignCounts(
        trace, npuBase.arrivalGapCycles, card, base.numPackets);

    const unsigned jobs = resolveCardJobs(card.cardJobs, card.chips);

    // Every chip runs on its own fiber, `jobs` workers switching
    // between them. With shared DRAM the fabric's tokens decide which
    // chips run and suspend a chip until its commit turn; without it
    // the chips share nothing, and each runs to its end once started.
    CardRunResult result;
    result.chips.resize(card.chips);
    CardSplit split(trace, npuBase.arrivalGapCycles, card.dispatch,
                    card.chips);
    std::vector<std::uint64_t> replayDrawn(card.chips, 0);
    std::unique_ptr<DramFabric> fabric;
    std::vector<ChipDramPort> ports(card.chips);
    FiberScheduler fibers(card.chips, [&](std::size_t job) {
        const unsigned c = static_cast<unsigned>(job);
        core::ExperimentConfig cc = base;
        cc.numPackets = counts[c];
        if (!card.perChipCr.empty())
            cc.cr = card.perChipCr[c];

        ChipShare source(split, c);
        npu::ChipEnv env;
        env.source = &source;
        env.engineSaltBase = c * npuBase.peCount;
        if (fabric) {
            env.dram = &ports[c];
            env.dramSalt =
                static_cast<std::uint64_t>(c) * base.processor.memBytes;
            ChipDramPort *const port = &ports[c];
            env.progress = [port](Quanta bound) {
                port->publish(bound);
            };
        }
        result.chips[c] =
            npu::runChipStream(factory, cc, npuBase, golden, trial, env);
        if (fabric)
            fabric->finish(c);
        replayDrawn[c] = source.replayDrawn();
    });
    if (dramOn) {
        fabric = std::make_unique<DramFabric>(
            card.dram, card.chips, jobs,
            cyclesToQuanta(card.dram.rowHitCycles), fibers);
        for (unsigned c = 0; c < card.chips; ++c)
            ports[c].bind(fabric.get(), c);
    } else {
        for (unsigned c = 0; c < card.chips; ++c)
            fibers.ready(c);
    }
    fibers.run(jobs);

    result.split.generated =
        (dispatchReadsPackets(card.dispatch) ? base.numPackets : 0) +
        split.drawn();
    for (const std::uint64_t n : replayDrawn)
        result.split.generated += n;
    result.split.detached = split.detached();
    result.split.peakFifoDepth = split.peakFifoDepth();

    if (golden) {
        for (unsigned c = 0; c < card.chips; ++c)
            CLUMSY_ASSERT(!result.chips[c].merged.fatal,
                          "golden card run must not die (chip %u)", c);
    }

    // ---- card-level reduction, in chip order ------------------------
    CardMetrics &m = result.card;
    m.chipPackets.resize(card.chips);
    m.chipMakespanCycles.resize(card.chips);
    double totalPackets = 0.0, maxPackets = 0.0;
    for (unsigned c = 0; c < card.chips; ++c) {
        const npu::ChipStreamResult &r = result.chips[c];
        const double processed =
            static_cast<double>(r.merged.packetsProcessed);
        m.chipPackets[c] = processed;
        m.chipMakespanCycles[c] = r.chip.makespanCycles;
        m.makespanCycles =
            std::max(m.makespanCycles, r.chip.makespanCycles);
        totalPackets += processed;
        maxPackets = std::max(maxPackets, processed);
        m.ingressDrops += r.chip.ingressDrops;
        m.dramStallCycles += r.chip.dramStallCycles;
    }
    m.packetsProcessed = totalPackets;
    m.throughputPps =
        m.makespanCycles > 0.0
            ? totalPackets / (m.makespanCycles / (npuBase.clockMhz * 1e6))
            : 0.0;
    const double meanPackets =
        totalPackets / static_cast<double>(card.chips);
    m.loadImbalance = meanPackets > 0.0 ? maxPackets / meanPackets : 1.0;
    if (fabric) {
        const dram::DramStats &d = fabric->model().stats();
        m.dramAccesses = static_cast<double>(d.accesses);
        m.dramRowHits = static_cast<double>(d.rowHits);
        m.dramRowMisses = static_cast<double>(d.rowMisses);
        m.dramRowConflicts = static_cast<double>(d.rowConflicts);
        m.dramRowHitFraction =
            d.accesses > 0 ? static_cast<double>(d.rowHits) /
                                 static_cast<double>(d.accesses)
                           : 0.0;
    }

    // Fold the per-chip digests in chip order: equal streams of chip
    // results produce equal card digests, at every job count.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const npu::ChipStreamResult &r : result.chips) {
        fold(r.valueDigest);
        fold(r.merged.packetsProcessed);
    }
    result.valueDigest = h;
    return result;
}

CardMetrics
averageCardMetrics(const std::vector<CardMetrics> &runs)
{
    CLUMSY_ASSERT(!runs.empty(), "need at least one card run");
    CardMetrics avg;
    avg.loadImbalance = 0.0;
    avg.chipPackets.assign(runs.front().chipPackets.size(), 0.0);
    avg.chipMakespanCycles.assign(
        runs.front().chipMakespanCycles.size(), 0.0);
    for (const CardMetrics &m : runs) {
        avg.makespanCycles += m.makespanCycles;
        avg.throughputPps += m.throughputPps;
        avg.loadImbalance += m.loadImbalance;
        avg.packetsProcessed += m.packetsProcessed;
        avg.ingressDrops += m.ingressDrops;
        avg.dramAccesses += m.dramAccesses;
        avg.dramRowHits += m.dramRowHits;
        avg.dramRowMisses += m.dramRowMisses;
        avg.dramRowConflicts += m.dramRowConflicts;
        avg.dramRowHitFraction += m.dramRowHitFraction;
        avg.dramStallCycles += m.dramStallCycles;
        for (std::size_t i = 0; i < avg.chipPackets.size(); ++i)
            avg.chipPackets[i] += m.chipPackets[i];
        for (std::size_t i = 0; i < avg.chipMakespanCycles.size(); ++i)
            avg.chipMakespanCycles[i] += m.chipMakespanCycles[i];
    }
    const double n = static_cast<double>(runs.size());
    avg.makespanCycles /= n;
    avg.throughputPps /= n;
    avg.loadImbalance /= n;
    avg.packetsProcessed /= n;
    avg.ingressDrops /= n;
    avg.dramAccesses /= n;
    avg.dramRowHits /= n;
    avg.dramRowMisses /= n;
    avg.dramRowConflicts /= n;
    avg.dramRowHitFraction /= n;
    avg.dramStallCycles /= n;
    for (double &v : avg.chipPackets)
        v /= n;
    for (double &v : avg.chipMakespanCycles)
        v /= n;
    return avg;
}

core::RunMetrics
mergeCardRunMetrics(const CardRunResult &run)
{
    core::RunMetrics m;
    double dataCycles = 0.0;
    double dataEnergy = 0.0;
    double dcacheMisses = 0.0;
    for (const npu::ChipStreamResult &r : run.chips) {
        const core::RunMetrics &c = r.merged;
        m.packetsAttempted += c.packetsAttempted;
        m.packetsProcessed += c.packetsProcessed;
        m.packetsWithError += c.packetsWithError;
        if (c.fatal && !m.fatal) {
            m.fatal = true;
            m.fatalReason = c.fatalReason;
        }
        const double processed =
            static_cast<double>(c.packetsProcessed);
        dataCycles += c.cyclesPerPacket * processed;
        dataEnergy += c.energyPerPacketPj * processed;
        m.totalEnergyPj += c.totalEnergyPj;
        m.l1dEnergyPj += c.l1dEnergyPj;
        m.instructions += c.instructions;
        m.dcacheAccesses += c.dcacheAccesses;
        dcacheMisses +=
            c.dcacheMissRate * static_cast<double>(c.dcacheAccesses);
        m.faultsInjected += c.faultsInjected;
        m.parityTrips += c.parityTrips;
        m.eccCorrections += c.eccCorrections;
        m.freqSwitches += c.freqSwitches;
        m.ctrlEventsApplied += c.ctrlEventsApplied;
        for (const auto &kv : c.errorsByType)
            m.errorsByType[kv.first] += kv.second;
    }
    const double processed =
        static_cast<double>(std::max<std::uint64_t>(
            m.packetsProcessed, 1));
    m.cyclesPerPacket = dataCycles / processed;
    m.energyPerPacketPj = dataEnergy / processed;
    m.dcacheMissRate =
        m.dcacheAccesses > 0
            ? dcacheMisses / static_cast<double>(m.dcacheAccesses)
            : 0.0;
    return m;
}

CardExperimentResult
runCardExperiment(const core::AppFactory &factory,
                  const core::ExperimentConfig &config,
                  const npu::NpuConfig &npu, const CardConfig &card)
{
    CardExperimentResult result;
    result.golden = runCard(factory, config, npu, card, true, 0);
    std::vector<CardMetrics> faulty;
    std::vector<core::RunMetrics> merged;
    faulty.reserve(config.trials);
    merged.reserve(config.trials);
    for (unsigned t = 0; t < config.trials; ++t) {
        const CardRunResult run =
            runCard(factory, config, npu, card, false, t);
        faulty.push_back(run.card);
        merged.push_back(mergeCardRunMetrics(run));
    }
    if (merged.empty()) {
        result.faultyCard = result.golden.card;
        return result;
    }
    result.core = core::aggregateTrials(
        factory()->name(),
        core::GoldenRecord{mergeCardRunMetrics(result.golden), {}}, merged);
    result.faultyCard = averageCardMetrics(faulty);
    // A merged trial is fatal when any of its chips died.
    result.fatalFraction = result.core.fatalFraction;
    return result;
}

} // namespace clumsy::linecard
