/**
 * @file
 * Declarative experiment-grid specification for the sweep engine.
 *
 * A SweepSpec is the cartesian product of the swept dimensions (app,
 * operating point, recovery scheme, ... — one axis per grid key of the
 * knob table, sweep/knobs.hh) plus the scalar knobs shared by every
 * cell (packets, trials, seeds). It round-trips through a compact grid
 * string:
 *
 *   app=route,md5;cr=1,0.5,dynamic;scheme=two-strike;trials=8
 *
 * Dimensions omitted from the string keep their single-value
 * defaults, so the paper's full Table I / Figures 9-12 grids and a
 * one-cell smoke run are expressed in the same language. Expansion
 * order is fixed (the knob table's order, outermost first), which
 * gives every cell a stable index and canonical key — the anchor for
 * the deterministic reduction and for --resume.
 *
 * A SweepCell is one configuration: every knob's value, including the
 * knobs only clumsy_sim sets (they keep their defaults in a sweep).
 */

#ifndef CLUMSY_SWEEP_SPEC_HH
#define CLUMSY_SWEEP_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "ctrl/ctrl.hh"
#include "dram/dram.hh"
#include "linecard/card.hh"
#include "mem/cache.hh"
#include "mem/recovery.hh"
#include "npu/config.hh"

namespace clumsy::sweep
{

/** One frequency configuration: a static Cr or the dynamic scheme. */
struct OperatingPoint
{
    double cr = 1.0;      ///< relative cycle time (1 when dynamic)
    bool dynamic = false; ///< dynamic frequency adaptation

    bool operator==(const OperatingPoint &) const = default;
};

/** The declarative grid. */
struct SweepSpec
{
    // One value list per grid axis of the knob table (sweep/knobs.cc),
    // in expansion-nesting order, outermost first. Each default keeps
    // results byte-identical to sweeps from before the axis existed.
    std::vector<std::string> apps; ///< parse() defaults to all apps
    std::vector<OperatingPoint> points = {OperatingPoint{}};
    std::vector<mem::RecoveryScheme> schemes = {
        mem::RecoveryScheme::NoDetection};
    std::vector<mem::CheckCodec> codecs = {mem::CheckCodec::Parity};
    std::vector<core::FaultPlane> planes = {core::FaultPlane::Both};
    std::vector<double> faultScales = {1.0};
    std::vector<unsigned> peCounts = {1};
    std::vector<npu::DispatchPolicy> dispatches = {
        npu::DispatchPolicy::RoundRobin};
    std::vector<std::string> perPeCrs = {""}; ///< "" = uniform
    std::vector<npu::DvsMode> dvsModes = {npu::DvsMode::Fault};
    std::vector<unsigned> mshrs = {1};
    std::vector<npu::L2Mode> l2Modes = {npu::L2Mode::Private};
    std::vector<std::int64_t> arrivalGaps = {0}; ///< 0 = saturated
    std::vector<unsigned> chipJobs = {1}; ///< host threads, not physics
    std::vector<unsigned> chips = {1};
    std::vector<unsigned> dramBanks = {0}; ///< 0 = bank model off
    std::vector<unsigned> cardJobs = {1}; ///< host threads, not physics
    std::vector<std::uint32_t> flows = {0}; ///< 0 = the app's own
    std::vector<std::uint64_t> churns = {0}; ///< 0 = the app's own
    std::vector<std::string> faultMaps = {"off"};
    std::vector<unsigned> retires = {0};
    std::vector<std::uint32_t> ctrlRates = {0}; ///< 0 = no control plane
    std::vector<ctrl::CtrlMix> updateMixes = {ctrl::CtrlMix::All};

    // Scalar knobs shared by every cell. The fault map's generation
    // seed is one of them: the map is the silicon under test, the same
    // in every cell, while faultSeed varies which weak cells fire.
    std::uint64_t packets = 2000;
    unsigned trials = 4;
    std::uint64_t traceSeed = 1;
    std::uint64_t faultSeed = 0x5eed;
    std::uint64_t mapSeed = 0xfa17;

    /**
     * Parse a grid string (semicolon-separated key=value,value,...
     * pairs; the keys are the knob table's grid keys). "app=all" /
     * "scheme=all" expand to the full sets. fatal()s on unknown keys,
     * on bad values and on any cell that checkCell() rejects.
     */
    static SweepSpec parse(const std::string &grid);

    /**
     * Canonical grid string listing every dimension and scalar;
     * parse(toGridString()) reproduces the spec exactly.
     */
    std::string toGridString() const;

    /** Total number of grid cells (product of dimension sizes). */
    std::size_t cellCount() const;
};

/** One point of the expanded grid, or one clumsy_sim run. */
struct SweepCell
{
    std::size_t index = 0; ///< position in expansion order
    std::string app;
    OperatingPoint point;
    mem::RecoveryScheme scheme = mem::RecoveryScheme::NoDetection;
    mem::CheckCodec codec = mem::CheckCodec::Parity;
    core::FaultPlane plane = core::FaultPlane::Both;
    double faultScale = 1.0;
    unsigned peCount = 1;
    npu::DispatchPolicy dispatch = npu::DispatchPolicy::RoundRobin;
    std::string perPeCr; ///< colon-separated Cr list; "" = uniform
    npu::DvsMode dvs = npu::DvsMode::Fault;
    unsigned mshrs = 1;
    npu::L2Mode l2 = npu::L2Mode::Private;
    std::int64_t arrivalGap = 0; ///< inter-arrival gap, base cycles
    unsigned chipJobs = 1;       ///< chip-run worker threads
    unsigned chips = 1;          ///< line-card chip count
    unsigned dramBanks = 0;      ///< shared-DRAM banks (0 = model off)
    unsigned cardJobs = 1;       ///< inter-chip worker threads
    std::uint32_t flows = 0;     ///< flow override (0 = app default)
    std::uint64_t churn = 0;     ///< mean flow lifetime (0 = app's own)
    std::string faultMap = "off"; ///< "off", "spatial" or a map path
    unsigned retire = 0;         ///< way-disable threshold (0 = off)
    std::uint32_t ctrlRate = 0;  ///< ctrl events per 1000 pkts (0 = off)
    ctrl::CtrlMix updates = ctrl::CtrlMix::All; ///< event mix at ctrl>0

    // Knobs with no grid key: clumsy_sim sets them, a sweep keeps
    // these defaults.
    bool subblock = false;         ///< sub-block strike recovery
    unsigned queueCap = 16;        ///< per-engine input queue slots
    bool drop = false;             ///< drop when the queue is full
    bool flowRehash = false;       ///< rehash flows off dead engines
    npu::DispatchPolicy cardDispatch = npu::DispatchPolicy::RoundRobin;
    std::string perChipCr;         ///< colon-separated; "" = uniform
    std::uint32_t dramRowBytes = dram::DramConfig{}.rowBytes;
    std::int64_t dramHit = dram::DramConfig{}.rowHitCycles;
    std::int64_t dramMiss = dram::DramConfig{}.rowMissCycles;
    std::int64_t dramConflict = dram::DramConfig{}.rowConflictCycles;
    unsigned ingressCap = 0;       ///< per-chip ingress FIFO (0 = none)
    double flowZipf = -1.0;        ///< Zipf skew (< 0 = the app's own)
    std::uint32_t sessionCapacity = 1024;  ///< session app table slots
    std::uint32_t sessionTimeout = 4096;   ///< session idle timeout

    /** @return true when any chip-group knob is off its default. */
    bool isNpu() const;

    /** @return true when any card-group knob is off its default. */
    bool isCard() const;

    /**
     * Stable identity of the cell within any spec that contains it:
     * "app=crc;cr=0.5;scheme=two-strike;codec=parity;plane=both;
     * fault-scale=1", then the other grid knobs in table order. The
     * knob table decides which appear (most only at non-default
     * values), so result files written before a knob existed keep
     * resuming against unchanged keys. Used as the JSON result key
     * and by --resume.
     */
    std::string key() const;
};

/** Expand the grid in canonical nesting order. */
std::vector<SweepCell> expand(const SweepSpec &spec);

/** The ExperimentConfig a cell runs under. */
core::ExperimentConfig makeConfig(const SweepSpec &spec,
                                  const SweepCell &cell);

/**
 * The chip configuration of a cell (meaningful when cell.isNpu()).
 * fatal()s when the per-pe-cr list names a different number of
 * engines than pes.
 */
npu::NpuConfig makeNpuConfig(const SweepCell &cell);

/**
 * The line-card configuration of a cell (meaningful when
 * cell.isCard()): chips behind the card dispatcher sharing a
 * dramBanks-bank DRAM, advanced by cardJobs workers.
 */
linecard::CardConfig makeCardConfig(const SweepCell &cell);

/**
 * The checks that span knobs (Cr lists vs. pes / chips, DRAM latency
 * order even with the bank model off), run where a configuration is
 * built; single-knob ranges are the table's. fatal()s on a bad cell.
 */
void checkCell(const SweepCell &cell);

/** Shortest round-trip decimal text for a double ("0.5", "1"). */
std::string formatDouble(double v);

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_SPEC_HH
