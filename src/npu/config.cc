#include "npu/config.hh"

#include "common/logging.hh"
#include "common/names.hh"

namespace clumsy::npu
{

namespace
{

const EnumNames<DispatchPolicy, 6> kDispatchNames = {
    {DispatchPolicy::RoundRobin, "rr"},
    {DispatchPolicy::FlowHash, "flow"},
    {DispatchPolicy::ShortestQueue, "shortest"},
    {DispatchPolicy::RoundRobin, "round-robin"},
    {DispatchPolicy::FlowHash, "flow-hash"},
    {DispatchPolicy::ShortestQueue, "shortest-queue"}};
const EnumNames<DvsMode, 3> kDvsNames = {{DvsMode::Static, "static"},
                                         {DvsMode::Fault, "fault"},
                                         {DvsMode::Queue, "queue"}};
const EnumNames<L2Mode, 2> kL2Names = {{L2Mode::Private, "private"},
                                       {L2Mode::Shared, "shared"}};

} // namespace

std::string
to_string(DispatchPolicy policy)
{
    return nameOf(kDispatchNames, policy);
}

DispatchPolicy
dispatchFromString(const std::string &name)
{
    return valueNamed(kDispatchNames, "dispatch policy", name);
}

std::string
to_string(DvsMode mode)
{
    return nameOf(kDvsNames, mode);
}

DvsMode
dvsFromString(const std::string &name)
{
    return valueNamed(kDvsNames, "dvs mode", name);
}

std::string
to_string(L2Mode mode)
{
    return nameOf(kL2Names, mode);
}

L2Mode
l2ModeFromString(const std::string &name)
{
    return valueNamed(kL2Names, "L2 mode", name);
}

void
NpuConfig::validate(const mem::HierarchyConfig &hier) const
{
    CLUMSY_ASSERT(peCount >= 1, "chip needs at least one engine");
    CLUMSY_ASSERT(queueCapacity >= 1, "queues need room for a packet");
    CLUMSY_ASSERT(arrivalGapCycles >= 0, "arrival gap must be >= 0");
    CLUMSY_ASSERT(perPeCr.empty() || perPeCr.size() == peCount,
                  "perPeCr must be empty or name every engine");
    for (double cr : perPeCr)
        CLUMSY_ASSERT(cr > 0.0 && cr <= 1.0,
                      "per-engine Cr outside (0, 1]");
    CLUMSY_ASSERT(clockMhz > 0.0, "clock must be positive");
    CLUMSY_ASSERT(mshrs >= 1, "the port needs at least one MSHR");
    // The single-engine-equivalence requirement: port service must be
    // coverable by the access's own embedded L2 latency, otherwise a
    // lone engine would queue behind itself.
    CLUMSY_ASSERT(portHitCycles >= 0 &&
                      portHitCycles <= hier.l2HitCycles,
                  "port hit service exceeds the L2 hit latency");
    CLUMSY_ASSERT(portMissCycles >= 0 &&
                      portMissCycles <= hier.l2HitCycles + hier.memCycles,
                  "port miss service exceeds the L2 miss latency");
}

} // namespace clumsy::npu
