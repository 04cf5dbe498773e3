#include "sweep/spec.hh"

#include <algorithm>
#include <charconv>

#include "common/cli.hh"
#include "common/logging.hh"
#include "fault/fault_map.hh"
#include "linecard/card.hh"

namespace clumsy::sweep
{

std::string
formatDouble(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    CLUMSY_ASSERT(res.ec == std::errc(), "double format overflow");
    return std::string(buf, res.ptr);
}

core::ExperimentConfig
makeConfig(const SweepSpec &spec, const SweepCell &cell)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = spec.packets;
    cfg.trials = spec.trials;
    cfg.traceSeed = spec.traceSeed;
    cfg.faultSeed = spec.faultSeed;
    cfg.cr = cell.point.cr;
    cfg.dynamicFrequency = cell.point.dynamic;
    cfg.scheme = cell.scheme;
    cfg.plane = cell.plane;
    cfg.faultScale = cell.faultScale;
    cfg.processor.hierarchy.scheme = cell.scheme;
    cfg.processor.hierarchy.codec = cell.codec;
    cfg.processor.hierarchy.subBlockRecovery = cell.subblock;
    cfg.traceFlows = cell.flows;
    cfg.churnLifetime = cell.churn;
    cfg.flowZipf = cell.flowZipf;
    cfg.processor.faultMap = fault::faultMapSpecFromString(cell.faultMap);
    cfg.processor.faultMap.seed = spec.mapSeed;
    cfg.processor.hierarchy.wayDisable.retireThreshold = cell.retire;
    cfg.ctrl.rate = cell.ctrlRate;
    cfg.ctrl.mix = cell.updates;
    return cfg;
}

npu::NpuConfig
makeNpuConfig(const SweepCell &cell)
{
    npu::NpuConfig npuCfg;
    npuCfg.peCount = cell.peCount;
    npuCfg.dispatch = cell.dispatch;
    npuCfg.queueCapacity = cell.queueCap;
    npuCfg.dropWhenFull = cell.drop;
    npuCfg.flowRehash = cell.flowRehash;
    npuCfg.dvs = cell.dvs;
    npuCfg.mshrs = cell.mshrs;
    npuCfg.l2 = cell.l2;
    npuCfg.arrivalGapCycles = cell.arrivalGap;
    npuCfg.chipJobs = cell.chipJobs;
    if (!cell.perPeCr.empty()) {
        for (const std::string &cr : cli::split(cell.perPeCr, ':'))
            npuCfg.perPeCr.push_back(cli::parseDouble("per-engine Cr", cr));
        if (npuCfg.perPeCr.size() != cell.peCount)
            fatal("per-pe-cr '%s' names %zu engines but pes=%u",
                  cell.perPeCr.c_str(), npuCfg.perPeCr.size(),
                  cell.peCount);
    }
    return npuCfg;
}

linecard::CardConfig
makeCardConfig(const SweepCell &cell)
{
    linecard::CardConfig cardCfg;
    cardCfg.chips = cell.chips;
    cardCfg.dispatch = cell.cardDispatch;
    cardCfg.dram.banks = cell.dramBanks;
    cardCfg.dram.rowBytes = cell.dramRowBytes;
    cardCfg.dram.rowHitCycles = cell.dramHit;
    cardCfg.dram.rowMissCycles = cell.dramMiss;
    cardCfg.dram.rowConflictCycles = cell.dramConflict;
    cardCfg.cardJobs = cell.cardJobs;
    cardCfg.ingressCapacity = cell.ingressCap;
    for (const std::string &cr : cli::split(cell.perChipCr, ':'))
        cardCfg.perChipCr.push_back(cli::parseDouble("per-chip Cr", cr));
    return cardCfg;
}

void
checkCell(const SweepCell &cell)
{
    (void)makeNpuConfig(cell);
    linecard::CardConfig card = makeCardConfig(cell);
    // DramConfig::validate skips the latencies while the model is off;
    // a bad latency is a bad value whether or not it is used.
    card.dram.banks = std::max(card.dram.banks, 1u);
    card.validate();
}

} // namespace clumsy::sweep
