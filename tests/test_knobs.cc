/**
 * @file
 * Tests of the knob table (sweep/knobs.hh) as a whole: every row is
 * one knob, every non-default value reaches the config echo, every
 * grid key survives the sweep's key/JSON/CSV/resume path, and every
 * value a grid rejects is rejected at parse time with the message the
 * command line gives.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/cli.hh"
#include "sweep/json.hh"
#include "sweep/knobs.hh"
#include "sweep/runner.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"

using namespace clumsy;
using namespace clumsy::sweep;

namespace
{

/** A non-default value per flag, plus grid keys the value needs. */
struct Probe
{
    std::string value;
    std::string context; ///< extra grid entries ("pes=2")
};

const std::map<std::string, Probe> &
probes()
{
    static const std::map<std::string, Probe> p = {
        {"--app", {"md5", ""}},
        {"--cr", {"0.5", ""}},
        {"--dynamic", {"", ""}},
        {"--scheme", {"two-strike", ""}},
        {"--codec", {"secded", ""}},
        {"--plane", {"data", ""}},
        {"--fault-scale", {"2.5", ""}},
        {"--subblock", {"", ""}},
        {"--pes", {"4", ""}},
        {"--dispatch", {"flow", ""}},
        {"--per-pe-cr", {"1:0.5", "pes=2"}},
        {"--dvs", {"queue", ""}},
        {"--mshrs", {"4", ""}},
        {"--l2", {"shared", ""}},
        {"--flow-rehash", {"", ""}},
        {"--queue-cap", {"8", ""}},
        {"--drop", {"", ""}},
        {"--arrival-gap", {"400", ""}},
        {"--chip-jobs", {"4", ""}},
        {"--chips", {"2", ""}},
        {"--card-dispatch", {"flow", ""}},
        {"--per-chip-cr", {"1:0.5", ""}},
        {"--dram-banks", {"4", ""}},
        {"--dram-row-bytes", {"1024", ""}},
        {"--dram-hit", {"50", ""}},
        {"--dram-miss", {"100", ""}},
        {"--dram-conflict", {"150", ""}},
        {"--ingress-cap", {"32", ""}},
        {"--card-jobs", {"2", ""}},
        {"--flows", {"64", ""}},
        {"--churn", {"100", ""}},
        {"--flow-zipf", {"1.5", ""}},
        {"--session-capacity", {"512", ""}},
        {"--session-timeout", {"100", ""}},
        {"--fault-map", {"spatial", ""}},
        {"--way-retire", {"3", ""}},
        {"--ctrl-rate", {"50", ""}},
        {"--ctrl-mix", {"fib", "ctrl=50"}},
        {"--packets", {"300", ""}},
        {"--trials", {"2", ""}},
        {"--seed", {"7", ""}},
        {"--fault-seed", {"9", ""}},
        {"--fault-map-seed", {"11", ""}},
    };
    return p;
}

const Probe &
probeFor(const Knob &k)
{
    const auto it = probes().find(k.flag);
    if (it == probes().end())
        ADD_FAILURE() << "no probe value for " << k.flag
                      << ": add one to probes()";
    static const Probe none;
    return it == probes().end() ? none : it->second;
}

std::string
echoOf(const SweepSpec &spec, const SweepCell &cell)
{
    JsonWriter w(2);
    w.beginObject();
    writeConfigEcho(w, spec, cell);
    w.endObject();
    return w.str();
}

} // namespace

TEST(KnobTable, EachFlagGridKeyAndNameIsOneRow)
{
    std::set<std::string> flags, grids, names;
    for (const Knob &k : knobTable()) {
        ASSERT_NE(k.flag, nullptr);
        EXPECT_TRUE(flags.insert(k.flag).second) << k.flag;
        if (k.grid) {
            EXPECT_TRUE(grids.insert(k.grid).second) << k.grid;
        }
        EXPECT_TRUE(names.insert(k.name).second) << k.name;
    }
    EXPECT_EQ(flags.size(), probes().size());
}

TEST(KnobTable, EchoRecordsEveryNonDefaultKnob)
{
    const SweepSpec baseSpec;
    SweepCell baseCell;
    baseCell.app = "crc";
    for (const Knob &k : knobTable()) {
        const std::string flag = k.flag;
        SweepCell before = baseCell;
        // The host scheduling knobs: a card run (chips and engines
        // both on) at K workers and at one must echo, and so compare,
        // equal.
        const bool scheduling =
            flag == "--chip-jobs" || flag == "--card-jobs";
        if (scheduling) {
            before.peCount = 2;
            before.chips = 2;
        }
        SweepSpec spec = baseSpec;
        SweepCell cell = before;
        k.set(spec, cell, probeFor(k).value);
        const std::string base = echoOf(baseSpec, before);
        const std::string echo = echoOf(spec, cell);
        if (scheduling) {
            EXPECT_EQ(echo, base) << flag;
            continue;
        }
        EXPECT_NE(echo, base) << flag;
        const std::string name = k.echoName ? k.echoName : k.name.c_str();
        EXPECT_NE(echo.find("\"" + name + "\": "), std::string::npos)
            << flag << " does not echo \"" << name << "\":\n"
            << echo;
    }
}

TEST(KnobTable, GridKeysRoundTripThroughKeyJsonCsvAndResume)
{
    const std::string path = testing::TempDir() + "knob_roundtrip.json";
    for (const Knob &k : knobTable()) {
        if (!k.grid)
            continue;
        const Probe &p = probeFor(k);
        const std::string entry = std::string(k.grid) + "=" + p.value;
        std::string grid = "app=crc;packets=50;trials=1";
        if (!p.context.empty())
            grid += ";" + p.context;
        grid += ";" + entry;
        const SweepSpec spec = SweepSpec::parse(grid);
        EXPECT_EQ(SweepSpec::parse(spec.toGridString()).toGridString(),
                  spec.toGridString())
            << entry;
        EXPECT_NE(spec.toGridString().find(entry), std::string::npos)
            << entry;
        if (!k.pick)
            continue; // a scalar: no cell field, no key or column

        const std::vector<SweepCell> cells = expand(spec);
        ASSERT_EQ(cells.size(), 1u) << entry;
        const SweepCell &cell = cells[0];
        EXPECT_FALSE(k.isDefault(spec, cell)) << entry;
        EXPECT_NE((";" + cell.key() + ";").find(";" + entry + ";"),
                  std::string::npos)
            << entry << " missing from " << cell.key();

        SweepOutcome outcome;
        outcome.spec = spec;
        outcome.cells.resize(1);
        outcome.cells[0].cell = cell;
        outcome.cells[0].result.app = cell.app;
        writeFile(path, renderJson(outcome, false));
        const auto loaded = loadCompletedCells(path);
        ASSERT_EQ(loaded.count(cell.key()), 1u) << entry;
        const SweepCell &back = loaded.at(cell.key()).cell;
        EXPECT_EQ(csvKnobFields(back), csvKnobFields(cell)) << entry;
        EXPECT_EQ(back.key(), cell.key()) << entry;

        const std::string csv = renderCsv(outcome);
        const std::string row = csv.substr(csv.find('\n') + 1);
        EXPECT_EQ(row.rfind(csvKnobFields(cell), 0), 0u) << entry;
    }
}

TEST(KnobTable, TierFollowsTheKnobs)
{
    for (const Knob &k : knobTable()) {
        SweepSpec spec;
        SweepCell cell;
        k.set(spec, cell, probeFor(k).value);
        EXPECT_EQ(cell.isNpu(), k.group == Group::Chip) << k.flag;
        EXPECT_EQ(cell.isCard(), k.group == Group::Card) << k.flag;
    }
}

// One verdict per value: what the command line rejects, the grid
// rejects at parse time — before any cell runs — with the same message
// (the CTest cli_*_rejects_* cases pin the command-line side).
TEST(KnobTable, GridRejectsAtParseWithTheCommandLineMessage)
{
    EXPECT_EXIT(SweepSpec::parse("app=crc;cr=2"),
                ::testing::ExitedWithCode(1),
                "cr must be in \\(0, 1\\], got 2");
    EXPECT_EXIT(SweepSpec::parse("app=crc;cr=0"),
                ::testing::ExitedWithCode(1),
                "cr must be in \\(0, 1\\], got 0");
    EXPECT_EXIT(SweepSpec::parse("app=crc;pes=2,4;per-pe-cr=1:0.5"),
                ::testing::ExitedWithCode(1),
                "per-pe-cr '1:0.5' names 2 engines but pes=4");
    EXPECT_EXIT(SweepSpec::parse("app=crc;per-pe-cr=7"),
                ::testing::ExitedWithCode(1),
                "per-pe-cr entry 7 outside \\(0, 1\\]");
    EXPECT_EXIT(SweepSpec::parse("app=crc;fault-scale=-1"),
                ::testing::ExitedWithCode(1),
                "fault-scale must be >= 0, got -1");
    EXPECT_EXIT(SweepSpec::parse("app=crc;trials=0"),
                ::testing::ExitedWithCode(1), "trials must be >= 1");
    EXPECT_EXIT(SweepSpec::parse("app=crc;pes=0"),
                ::testing::ExitedWithCode(1), "pes must be >= 1");
    EXPECT_EXIT(SweepSpec::parse("app=crc;chips=0"),
                ::testing::ExitedWithCode(1),
                "a line card needs at least one chip");
    // A narrow integer knob does not wrap.
    EXPECT_EXIT(SweepSpec::parse("app=crc;pes=4294967297"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(KnobTable, CommandLineFlagsComposeInAnyOrder)
{
    SweepSpec spec;
    SweepCell a, b;
    cli::ArgParser pa("t", ""), pb("t", "");
    addKnobFlags(pa, spec, a);
    addKnobFlags(pb, spec, b);
    const char *one[] = {"t", "--dynamic", "--cr", "0.5"};
    const char *two[] = {"t", "--cr", "0.5", "--dynamic"};
    pa.parse(4, const_cast<char **>(one));
    pb.parse(4, const_cast<char **>(two));
    EXPECT_EQ(a.point, (OperatingPoint{0.5, true}));
    EXPECT_EQ(b.point, a.point);
}
