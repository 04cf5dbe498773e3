/**
 * @file
 * The knob table: one row per configuration knob of a run — its grid
 * key (none for knobs only clumsy_sim sets), flag, JSON/CSV name,
 * help, validator and the SweepSpec/SweepCell field it sets, whose
 * initializer is the default. Grid parse and format, expand(),
 * SweepCell::key(), isNpu()/isCard(), the cell JSON and CSV, --resume,
 * clumsy_sim's flags, --help and config echo all loop over it, so a
 * value gets one verdict wherever it enters. Outputs visit the rows
 * group by group (Group), and a row's Show policies elide it where
 * documents written before the knob existed must stay byte-identical.
 */

#ifndef CLUMSY_SWEEP_KNOBS_HH
#define CLUMSY_SWEEP_KNOBS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "sweep/json.hh"
#include "sweep/spec.hh"

namespace clumsy::cli
{
class ArgParser;
} // namespace clumsy::cli

namespace clumsy::sweep
{

/**
 * A row's group: its --help section, its place in each output, and
 * the tier it selects — any Chip row away from its default puts a run
 * on the chip model, any Card row on the line card.
 */
enum class Group
{
    Point,    ///< app, operating point, checking, fault rate
    Chip,     ///< the multi-engine chip (src/npu/)
    Card,     ///< the line card and its DRAM (src/linecard/)
    Traffic,  ///< the packet stream (src/traffic/) and session app
    FaultMap, ///< weak-cell maps and way-disable (src/fault/)
    Ctrl,     ///< control-plane churn (src/ctrl/)
    Run,      ///< packets, trials, seeds: scalars shared by a grid
};

/** One knob's value in a run, typed for JSON and CSV. */
using KnobValue = std::variant<std::uint64_t, double, bool, std::string>;

/** When a row appears in one output (cell key, cell JSON, echo). */
enum class Show
{
    Group,   ///< the row's group policy (see applyGroupPolicy)
    Never,
    Always,
    Changed, ///< away from the row's default
    OwnTier, ///< while the row's tier runs (isNpu() / isCard())
    AtTier,  ///< at the row's tier or above: cards echo chip knobs
    CtrlOn,  ///< while the control plane runs (ctrl rate > 0)
    ChangedCtrlOn, ///< changed, and the control plane runs
    ChangedOrCtrlOn,
    ChangedMapOff, ///< changed, and no fault map echoes it
};

/** One row of the table. */
struct Knob
{
    const char *grid = nullptr;     ///< grid key; nullptr = CLI only
    const char *flag = nullptr;     ///< command-line flag
    std::string name{}; ///< JSON/CSV name; default: key, '-' as '_'
    const char *echoName = nullptr; ///< echo name, where it differs
    const char *metavar = nullptr;  ///< default N/X by type; none: switch
    std::string help{}; ///< --help appends the row's default
    Group group = Group::Point;
    Show inKey = Show::Group;  ///< in SweepCell::key()
    Show inJson = Show::Group; ///< in the cell JSON; not Never = a CSV column
    Show inEcho = Show::Group; ///< in clumsy_sim's config echo

    // Typed operations, bound to the row's field by knobs.cc.
    /** Parse, validate and store one value (flag or scalar grid key). */
    std::function<void(SweepSpec &, SweepCell &, const std::string &)>
        set{};
    /** Grid keys: parse and validate a value list. */
    std::function<void(SweepSpec &, const std::vector<std::string> &)>
        setAxis{};
    /** Swept axes: number of values. */
    std::function<std::size_t(const SweepSpec &)> axisSize{};
    /** Swept axes: copy value @p i into the cell. */
    std::function<void(const SweepSpec &, std::size_t, SweepCell &)> pick{};
    /** The run's value. */
    std::function<KnobValue(const SweepSpec &, const SweepCell &)> value{};
    /** Canonical text of the run's value (grid strings, cell keys). */
    std::function<std::string(const SweepSpec &, const SweepCell &)> text{};
    /** Whether the run keeps the row's default. */
    std::function<bool(const SweepSpec &, const SweepCell &)> isDefault{};
    /** Echo writer, where the row echoes more than its own value. */
    std::function<void(JsonWriter &, const SweepSpec &, const SweepCell &)>
        echo{};
};

/** Every knob, in grid order (which is also expansion order). */
const std::vector<Knob> &knobTable();

/**
 * Register every row's flag on @p parser, one --help section per
 * group. A flag stores into @p spec (scalars) or @p cell.
 */
void addKnobFlags(cli::ArgParser &parser, SweepSpec &spec, SweepCell &cell);

/** Write the config echo's members into @p w's open object. */
void writeConfigEcho(JsonWriter &w, const SweepSpec &spec,
                     const SweepCell &cell);

/** Write the cell's knob members into @p w's open cell object. */
void writeCellKnobs(JsonWriter &w, const SweepCell &cell);

/**
 * The cell a key names (--resume): every knob the key lists, the rest
 * at their defaults — exactly what the key's elisions mean.
 */
SweepCell cellFromKey(const std::string &key);

/** The knob columns of the CSV header: "app,cr,dynamic,...". */
std::string csvKnobHeader();

/** The cell's knob columns, matching csvKnobHeader(). */
std::string csvKnobFields(const SweepCell &cell);

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_KNOBS_HH
