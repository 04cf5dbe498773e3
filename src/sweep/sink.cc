#include "sweep/sink.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/logging.hh"
#include "sweep/json.hh"
#include "sweep/knobs.hh"

namespace clumsy::sweep
{

namespace
{

// --- serialization ---------------------------------------------------

/**
 * Call @p f(name, member) on RunMetrics' scalar members in their JSON
 * order; @p m may be const (writing) or not (reading).
 */
template <typename M, typename F>
void
forEachRunField(M &m, F f)
{
    f("packets_attempted", m.packetsAttempted);
    f("packets_processed", m.packetsProcessed);
    f("packets_with_error", m.packetsWithError);
    f("fatal", m.fatal);
    f("fatal_reason", m.fatalReason);
    f("cycles_per_packet", m.cyclesPerPacket);
    f("energy_per_packet_pj", m.energyPerPacketPj);
    f("total_energy_pj", m.totalEnergyPj);
    f("l1d_energy_pj", m.l1dEnergyPj);
    f("instructions", m.instructions);
    f("dcache_accesses", m.dcacheAccesses);
    f("dcache_miss_rate", m.dcacheMissRate);
    f("faults_injected", m.faultsInjected);
    f("parity_trips", m.parityTrips);
    f("ecc_corrections", m.eccCorrections);
    f("freq_switches", m.freqSwitches);
}

void
writeRunMetrics(JsonWriter &w, const core::RunMetrics &m)
{
    w.beginObject();
    forEachRunField(m, [&w](const char *name, const auto &v) {
        w.key(name).value(v);
    });
    // Elided at zero so pre-ctrl documents and rate-0 runs serialize
    // byte-identically to what earlier versions wrote.
    if (m.ctrlEventsApplied != 0)
        w.key("ctrl_events_applied").value(m.ctrlEventsApplied);
    w.key("errors_by_type").beginObject();
    for (const auto &kv : m.errorsByType)
        w.key(kv.first).value(kv.second);
    w.endObject();
    w.endObject();
}

/**
 * The members of a metrics struct as its JSON object lists them:
 * scalars first, then per-engine / per-chip arrays. Fields added after
 * the first documents were written are optional when read back.
 */
template <typename M>
struct MetricField
{
    const char *name;
    double M::*scalar = nullptr;
    std::vector<double> M::*array = nullptr;
    bool optional = false;
};

using npu::ChipMetrics;
const MetricField<ChipMetrics> kChipFields[] = {
    {"makespan_cycles", &ChipMetrics::makespanCycles},
    {"throughput_pps", &ChipMetrics::throughputPps},
    {"load_imbalance", &ChipMetrics::loadImbalance},
    {"queue_occ_mean", &ChipMetrics::queueOccMean},
    {"queue_occ_max", &ChipMetrics::queueOccMax},
    {"drops_queue_full", &ChipMetrics::dropsQueueFull},
    {"drops_dead_pe", &ChipMetrics::dropsDeadPe},
    {"backpressure_stalls", &ChipMetrics::backpressureStalls},
    {"l2_port_waits", &ChipMetrics::l2PortWaits},
    {"l2_port_wait_cycles", &ChipMetrics::l2PortWaitCycles},
    // Shared-L2 counters: newer than the first chip documents.
    {"cross_engine_hits", &ChipMetrics::crossEngineHits, nullptr, true},
    {"cross_engine_hit_fraction", &ChipMetrics::crossEngineHitFraction,
     nullptr, true},
    {"l2_evictions_by_other", &ChipMetrics::l2EvictionsByOther, nullptr,
     true},
    {"mshr_merges", &ChipMetrics::mshrMerges, nullptr, true},
    {"chip_edf", &ChipMetrics::chipEdf},
    {"pe_utilization", nullptr, &ChipMetrics::peUtilization},
    {"pe_packets", nullptr, &ChipMetrics::pePackets},
    {"pe_l2_hits", nullptr, &ChipMetrics::peL2Hits, true},
    {"pe_l2_misses", nullptr, &ChipMetrics::peL2Misses, true},
    // Per-PE DVS trajectories: newer than the first chip documents.
    {"pe_cr_final", nullptr, &ChipMetrics::peCrFinal, true},
    {"pe_cr_mean", nullptr, &ChipMetrics::peCrMean, true},
    {"pe_epochs", nullptr, &ChipMetrics::peEpochs, true},
    {"pe_steps_up", nullptr, &ChipMetrics::peStepsUp, true},
    {"pe_steps_down", nullptr, &ChipMetrics::peStepsDown, true},
};

using linecard::CardMetrics;
const MetricField<CardMetrics> kCardFields[] = {
    {"makespan_cycles", &CardMetrics::makespanCycles},
    {"throughput_pps", &CardMetrics::throughputPps},
    {"load_imbalance", &CardMetrics::loadImbalance},
    {"packets_processed", &CardMetrics::packetsProcessed},
    {"ingress_drops", &CardMetrics::ingressDrops},
    {"dram_accesses", &CardMetrics::dramAccesses},
    {"dram_row_hits", &CardMetrics::dramRowHits},
    {"dram_row_misses", &CardMetrics::dramRowMisses},
    {"dram_row_conflicts", &CardMetrics::dramRowConflicts},
    {"dram_row_hit_fraction", &CardMetrics::dramRowHitFraction},
    {"dram_stall_cycles", &CardMetrics::dramStallCycles},
    {"chip_packets", nullptr, &CardMetrics::chipPackets},
    {"chip_makespan_cycles", nullptr, &CardMetrics::chipMakespanCycles},
};

template <typename M, std::size_t N>
void
writeMetrics(JsonWriter &w, const M &m, const MetricField<M> (&fields)[N])
{
    w.beginObject();
    for (const MetricField<M> &f : fields) {
        w.key(f.name);
        if (f.scalar) {
            w.value(m.*f.scalar);
            continue;
        }
        w.beginArray();
        for (double v : m.*f.array)
            w.value(v);
        w.endArray();
    }
    w.endObject();
}

std::string
cellJson(const CellOutcome &out, bool provenance)
{
    JsonWriter w;
    w.beginObject();
    w.key("key").value(out.cell.key());
    writeCellKnobs(w, out.cell);
    w.key("result").raw(experimentResultJson(out.result));
    if (out.hasNpu)
        w.key("npu").raw(goldenFaultyJson(chipMetricsJson(out.npuGolden),
                                          chipMetricsJson(out.npuFaulty)));
    if (out.hasCard)
        w.key("card").raw(goldenFaultyJson(cardMetricsJson(out.cardGolden),
                                           cardMetricsJson(out.cardFaulty)));
    if (provenance)
        w.key("wall_ms").value(out.wallMs);
    w.endObject();
    return w.str();
}

/** Member @p key of @p obj; fatal()s when absent or not of @p kind. */
const JsonValue &
field(const JsonValue &obj, const char *key,
      std::optional<JsonValue::Kind> kind = std::nullopt)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        fatal("sweep JSON: missing field '%s'", key);
    if (kind && v->kind != *kind)
        fatal("sweep JSON: field '%s' has the wrong type", key);
    return *v;
}

double
numField(const JsonValue &obj, const char *key)
{
    return field(obj, key, JsonValue::Kind::Num).num;
}

core::RunMetrics
parseRunMetrics(const JsonValue &o)
{
    core::RunMetrics m;
    forEachRunField(m, [&o](const char *name, auto &v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            v = field(o, name, JsonValue::Kind::Bool).b;
        else if constexpr (std::is_same_v<T, std::string>)
            v = field(o, name, JsonValue::Kind::Str).str;
        else
            v = static_cast<T>(numField(o, name));
    });
    if (o.find("ctrl_events_applied"))
        m.ctrlEventsApplied = static_cast<std::uint64_t>(
            numField(o, "ctrl_events_applied"));
    for (const auto &kv : field(o, "errors_by_type").obj)
        m.errorsByType[kv.first] =
            static_cast<std::uint64_t>(kv.second.num);
    return m;
}

template <typename M, std::size_t N>
M
parseMetrics(const JsonValue &o, const MetricField<M> (&fields)[N])
{
    M m;
    for (const MetricField<M> &f : fields) {
        if (f.optional && !o.find(f.name))
            continue;
        if (f.scalar) {
            m.*f.scalar = numField(o, f.name);
            continue;
        }
        for (const JsonValue &v : field(o, f.name).arr)
            (m.*f.array).push_back(v.num);
    }
    return m;
}

CellOutcome
parseCell(const JsonValue &o)
{
    CellOutcome out;
    out.cell = cellFromKey(field(o, "key", JsonValue::Kind::Str).str);
    if (const JsonValue *chip = o.find("npu")) {
        out.hasNpu = true;
        out.npuGolden = parseMetrics(field(*chip, "golden"), kChipFields);
        out.npuFaulty = parseMetrics(field(*chip, "faulty"), kChipFields);
    }
    if (const JsonValue *card = o.find("card")) {
        out.hasCard = true;
        out.cardGolden = parseMetrics(field(*card, "golden"), kCardFields);
        out.cardFaulty = parseMetrics(field(*card, "faulty"), kCardFields);
    }
    if (const JsonValue *wall = o.find("wall_ms"))
        out.wallMs = wall->num;

    const JsonValue &res = field(o, "result");
    out.result.app = out.cell.app;
    out.result.golden = parseRunMetrics(field(res, "golden"));
    out.result.faulty = parseRunMetrics(field(res, "faulty_last"));
    const JsonValue &agg = field(res, "aggregate");
    out.result.anyErrorProb = numField(agg, "any_error_prob");
    out.result.fatalProb = numField(agg, "fatal_prob");
    out.result.fatalFraction = numField(agg, "fatal_fraction");
    out.result.fallibility = numField(agg, "fallibility");
    out.result.cyclesPerPacket = numField(agg, "cycles_per_packet");
    out.result.energyPerPacketPj =
        numField(agg, "energy_per_packet_pj");
    out.result.l1dEnergyPerPacketPj =
        numField(agg, "l1d_energy_per_packet_pj");
    out.result.edf = numField(agg, "edf");
    for (const auto &kv : field(agg, "error_prob_by_type").obj)
        out.result.errorProbByType[kv.first] = kv.second.num;
    return out;
}

} // namespace

std::string
experimentResultJson(const core::ExperimentResult &res)
{
    JsonWriter w;
    w.beginObject();
    w.key("golden");
    writeRunMetrics(w, res.golden);
    w.key("faulty_last");
    writeRunMetrics(w, res.faulty);
    w.key("aggregate").beginObject();
    w.key("any_error_prob").value(res.anyErrorProb);
    w.key("fatal_prob").value(res.fatalProb);
    w.key("fatal_fraction").value(res.fatalFraction);
    w.key("fallibility").value(res.fallibility);
    w.key("cycles_per_packet").value(res.cyclesPerPacket);
    w.key("energy_per_packet_pj").value(res.energyPerPacketPj);
    w.key("l1d_energy_per_packet_pj").value(res.l1dEnergyPerPacketPj);
    w.key("edf").value(res.edf);
    w.key("error_prob_by_type").beginObject();
    for (const auto &kv : res.errorProbByType)
        w.key(kv.first).value(kv.second);
    w.endObject();
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
chipMetricsJson(const npu::ChipMetrics &metrics)
{
    JsonWriter w;
    writeMetrics(w, metrics, kChipFields);
    return w.str();
}

std::string
cardMetricsJson(const linecard::CardMetrics &metrics)
{
    JsonWriter w;
    writeMetrics(w, metrics, kCardFields);
    return w.str();
}

std::string
goldenFaultyJson(const std::string &golden, const std::string &faulty)
{
    return "{\"golden\": " + golden + ", \"faulty\": " + faulty + "}";
}

std::string
hexU64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
renderJson(const SweepOutcome &outcome, bool provenance)
{
    std::string out = "{\n";
    out += "  \"format\": \"clumsy-sweep-v1\",\n";
    out += "  \"spec\": \"" +
           jsonEscape(outcome.spec.toGridString()) + "\",\n";
    out += "  \"cells\": " + std::to_string(outcome.cells.size()) +
           ",\n";
    if (provenance) {
        out += "  \"provenance\": {\"git\": \"" +
               jsonEscape(gitDescribe()) +
               "\", \"jobs\": " + std::to_string(outcome.jobs) +
               ", \"resumed\": " +
               std::to_string(outcome.resumedCount) +
               ", \"wall_ms\": " + jsonNumber(outcome.wallMs) + "},\n";
    }
    out += "  \"results\": [\n";
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
        out += "    " + cellJson(outcome.cells[i], provenance);
        out += i + 1 < outcome.cells.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
renderCsv(const SweepOutcome &outcome)
{
    std::string out =
        csvKnobHeader() +
        ",fallibility,"
        "any_error_prob,fatal_prob,fatal_fraction,cycles_per_packet,"
        "energy_per_packet_pj,l1d_energy_per_packet_pj,edf,"
        "golden_cycles_per_packet,golden_energy_per_packet_pj,"
        "golden_dcache_miss_rate,wall_ms\n";
    auto field = [&out](double v) {
        out += ',';
        out += formatDouble(v);
    };
    for (const CellOutcome &c : outcome.cells) {
        const core::ExperimentResult &r = c.result;
        out += csvKnobFields(c.cell);
        field(r.fallibility);
        field(r.anyErrorProb);
        field(r.fatalProb);
        field(r.fatalFraction);
        field(r.cyclesPerPacket);
        field(r.energyPerPacketPj);
        field(r.l1dEnergyPerPacketPj);
        field(r.edf);
        field(r.golden.cyclesPerPacket);
        field(r.golden.energyPerPacketPj);
        field(r.golden.dcacheMissRate);
        field(c.wallMs);
        out += '\n';
    }
    return out;
}

std::map<std::string, CellOutcome>
loadCompletedCells(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    const JsonValue doc = parseJson(text);
    if (doc.kind != JsonValue::Kind::Obj)
        fatal("%s: not a JSON object", path.c_str());
    const JsonValue *format = doc.find("format");
    if (!format || format->str != "clumsy-sweep-v1")
        fatal("%s: not a clumsy-sweep-v1 document", path.c_str());

    std::map<std::string, CellOutcome> cells;
    for (const JsonValue &entry : field(doc, "results").arr) {
        CellOutcome out = parseCell(entry);
        const std::string key = out.cell.key();
        if (entry.find("key")->str != key)
            fatal("%s: stored key '%s' is not canonical", path.c_str(),
                  entry.find("key")->str.c_str());
        cells.emplace(key, std::move(out));
    }
    return cells;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open %s for writing", path.c_str());
    out << content;
    out.close();
    if (!out)
        fatal("error writing %s", path.c_str());
}

std::string
gitDescribe()
{
    FILE *pipe =
        popen("git describe --always --dirty 2>/dev/null", "r");
    if (!pipe)
        return "unknown";
    char buf[128] = {0};
    std::string out;
    while (std::fgets(buf, sizeof(buf), pipe))
        out += buf;
    pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

} // namespace clumsy::sweep
