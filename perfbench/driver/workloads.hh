/**
 * @file
 * The benchmark's workloads. Each one expands a seed into the configs
 * the simulator sees, runs one timed unit — a closed batch of
 * simulation runs, each started when the previous one ends — and, in
 * the traced run, probes its layers in isolation and reports exact
 * work counters.
 *
 *   paper_sweep  the single-core paper grid through sweep::runSweep
 *   card_8chip   one 8-chip line card, golden plus faulty trials; its
 *                traced run also probes one long chip stream
 *
 * A unit's modelled outputs are rendered to JSON text that holds no
 * host time, so every unit of one process must render the same text.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hh"
#include "sweep/json.hh"

namespace perfbench
{

/** What one timed unit produced. */
struct UnitResult
{
    /**
     * Modelled outputs as JSON: "expect" (compared with the committed
     * expected file at the default seed), "conservation" (packet
     * accounting per simulation run) and "dram" (row partition per
     * card run).
     */
    std::string outputs;
    /** Simulated packets offered, all runs of the unit. */
    double packets = 0.0;
    /** Host time of each cell of the unit, ms. */
    std::vector<double> cellsMs;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Expand @p seed into the simulator's configs. */
    virtual void configure(std::uint64_t seed) = 0;

    /** Run one unit; spans go to @p log under run id @p run. */
    virtual UnitResult runUnit(SpanLog &log, int run) = 0;

    /**
     * Traced run only: time layer probes into @p log and write exact
     * counters (from the last unit) into @p counters, expected/actual
     * hash pairs into @p checks, and the probes' own modelled outputs,
     * shaped like UnitResult::outputs, into @p outputs. Each writer is
     * inside an open object.
     */
    virtual void probeLayers(SpanLog &log,
                             clumsy::sweep::JsonWriter &counters,
                             clumsy::sweep::JsonWriter &checks,
                             clumsy::sweep::JsonWriter &outputs) = 0;
};

/** The workload named @p name, or null when there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
