#include "sweep/knobs.hh"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "apps/app.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/names.hh"

namespace clumsy::sweep
{

namespace
{

const SweepSpec &
defaultSpec()
{
    static const SweepSpec spec;
    return spec;
}

const SweepCell &
defaultCell()
{
    static const SweepCell cell;
    return cell;
}

// --- value codecs ----------------------------------------------------

/** Spellings of the enums the sweep names itself, canonical first. */
const EnumNames<mem::RecoveryScheme, 5> kSchemeNames = {
    {mem::RecoveryScheme::NoDetection, "no-detection"},
    {mem::RecoveryScheme::OneStrike, "one-strike"},
    {mem::RecoveryScheme::TwoStrike, "two-strike"},
    {mem::RecoveryScheme::ThreeStrike, "three-strike"},
    {mem::RecoveryScheme::NoDetection, "no detection"}};
const EnumNames<mem::CheckCodec, 2> kCodecNames = {
    {mem::CheckCodec::Parity, "parity"}, {mem::CheckCodec::Secded, "secded"}};
const EnumNames<core::FaultPlane, 3> kPlaneNames = {
    {core::FaultPlane::Both, "both"},
    {core::FaultPlane::ControlOnly, "control"},
    {core::FaultPlane::DataOnly, "data"}};

/** Parse one value of a field type; fatal()s on malformed text. */
template <typename T>
T
decodeValue(const char *what, const std::string &text)
{
    if constexpr (std::is_same_v<T, double>)
        return cli::parseDouble(what, text);
    else if constexpr (std::is_integral_v<T>) {
        const std::uint64_t v = cli::parseU64(what, text);
        if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
            fatal("%s: '%s' is out of range", what, text.c_str());
        return static_cast<T>(v);
    } else if constexpr (std::is_same_v<T, std::string>)
        return text;
    else if constexpr (std::is_same_v<T, OperatingPoint>)
        return text == "dynamic"
                   ? OperatingPoint{1.0, true}
                   : OperatingPoint{cli::parseDouble(what, text), false};
    else if constexpr (std::is_same_v<T, mem::RecoveryScheme>)
        return valueNamed(kSchemeNames, what, text);
    else if constexpr (std::is_same_v<T, mem::CheckCodec>)
        return valueNamed(kCodecNames, what, text);
    else if constexpr (std::is_same_v<T, core::FaultPlane>)
        return valueNamed(kPlaneNames, what, text);
    else if constexpr (std::is_same_v<T, npu::DispatchPolicy>)
        return npu::dispatchFromString(text);
    else if constexpr (std::is_same_v<T, npu::DvsMode>)
        return npu::dvsFromString(text);
    else if constexpr (std::is_same_v<T, npu::L2Mode>)
        return npu::l2ModeFromString(text);
    else
        return ctrl::mixFromString(text);
}

/** Canonical text of one value (grid strings and cell keys). */
template <typename T>
std::string
formatValue(const T &v)
{
    if constexpr (std::is_same_v<T, double>)
        return formatDouble(v);
    else if constexpr (std::is_integral_v<T>)
        return std::to_string(v);
    else if constexpr (std::is_same_v<T, std::string>)
        return v;
    else if constexpr (std::is_same_v<T, OperatingPoint>)
        return v.dynamic ? "dynamic" : formatDouble(v.cr);
    else if constexpr (std::is_same_v<T, mem::RecoveryScheme>)
        return nameOf(kSchemeNames, v);
    else if constexpr (std::is_same_v<T, mem::CheckCodec>)
        return nameOf(kCodecNames, v);
    else if constexpr (std::is_same_v<T, core::FaultPlane>)
        return nameOf(kPlaneNames, v);
    else if constexpr (std::is_same_v<T, ctrl::CtrlMix>)
        return ctrl::to_string(v);
    else
        return npu::to_string(v);
}

/** JSON (or, with @p csv, CSV) text of a value. */
std::string
render(const KnobValue &v, bool csv)
{
    if (const auto *n = std::get_if<std::uint64_t>(&v))
        return std::to_string(*n);
    if (const auto *x = std::get_if<double>(&v))
        return jsonNumber(*x);
    if (const auto *b = std::get_if<bool>(&v))
        return csv ? (*b ? "1" : "0") : (*b ? "true" : "false");
    const std::string &str = std::get<std::string>(v);
    return csv ? str : "\"" + jsonEscape(str) + "\"";
}

/** How a row reads, checks and prints its field type. */
template <typename T>
struct Typed
{
    void (*check)(const char *, const T &) = nullptr; ///< fatal()s if bad
    T (*decode)(const char *, const std::string &) = decodeValue<T>;
    std::string (*format)(const T &) = formatValue<T>;
    std::vector<T> (*all)() = nullptr; ///< what a grid's "all" means
};

const Typed<bool> kSwitch{
    .decode = [](const char *, const std::string &) { return true; }};

/** "pes must be >= 1"; a dashed knob reads as words ("queue cap"). */
template <typename T>
void
atLeastOne(const char *what, const T &n)
{
    std::string words = what;
    std::replace(words.begin(), words.end(), '-', ' ');
    if (n == 0)
        fatal("%s must be >= 1", words.c_str());
}

void
nonNegative(const char *what, const double &x)
{
    if (x < 0.0)
        fatal("%s must be >= 0, got %s", what, formatDouble(x).c_str());
}

/** Per-engine / per-chip Cr lists: "" (spelled "uniform") or a:b:c. */
const Typed<std::string> kCrList{
    .check =
        [](const char *what, const std::string &list) {
            for (const std::string &cr : cli::split(list, ':')) {
                const double x = cli::parseDouble(what, cr);
                if (x <= 0.0 || x > 1.0)
                    fatal("%s entry %s outside (0, 1]", what, cr.c_str());
            }
        },
    .decode = [](const char *, const std::string &text) -> std::string {
        return text == "uniform" ? "" : text;
    },
    .format = [](const std::string &list) -> std::string {
        return list.empty() ? "uniform" : list;
    }};

// --- row builders ------------------------------------------------------

/**
 * The operations every row has, over the field @p field reaches from
 * a (spec, cell) pair; also fills in the name and metavar defaults.
 */
template <typename T, typename Field>
void
bind(Knob &k, const Typed<T> &t, Field field)
{
    const char *what = k.grid ? k.grid : k.flag + 2;
    if (k.name.empty()) {
        k.name = what;
        std::replace(k.name.begin(), k.name.end(), '-', '_');
    }
    if (!k.metavar && !std::is_same_v<T, bool>)
        k.metavar = std::is_integral_v<T> ? "N" : "X";
    k.set = [t, field, what](SweepSpec &s, SweepCell &c,
                             const std::string &text) {
        T v = t.decode(what, text);
        if (t.check)
            t.check(what, v);
        field(s, c) = std::move(v);
    };
    k.value = [t, field](const SweepSpec &s, const SweepCell &c) {
        const auto &v = field(s, c);
        if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double>)
            return KnobValue(v);
        else if constexpr (std::is_integral_v<T>)
            return KnobValue(static_cast<std::uint64_t>(v));
        else if constexpr (std::is_same_v<T, OperatingPoint>)
            return KnobValue(v.cr); // "dynamic" is a row of its own
        else
            return KnobValue(t.format(v));
    };
    k.text = [t, field](const SweepSpec &s, const SweepCell &c) {
        return t.format(field(s, c));
    };
    k.isDefault = [field](const SweepSpec &s, const SweepCell &c) {
        return field(s, c) == field(defaultSpec(), defaultCell());
    };
}

/** A SweepCell field (any member path @p field reaches). */
template <typename T, typename Field>
Knob
option(Knob k, Field field, const Typed<T> &t = {})
{
    bind(k, t, field);
    return k;
}

template <typename M>
auto
cellField(M SweepCell::*member)
{
    return [member](auto &, auto &cell) -> auto & { return cell.*member; };
}

/** A grid axis over a SweepCell field. */
template <typename T>
Knob
axis(Knob k, std::vector<T> SweepSpec::*values, T SweepCell::*member,
     const Typed<T> &t = {})
{
    k = option<T>(k, cellField(member), t);
    k.setAxis = [set = k.set, t, values, member](
                    SweepSpec &s, const std::vector<std::string> &texts) {
        if (t.all && texts.size() == 1 && texts[0] == "all") {
            s.*values = t.all();
            return;
        }
        // An axis always takes its default: it is what toGridString()
        // prints for an axis the grid does not sweep.
        (s.*values).clear();
        for (const std::string &text : texts) {
            SweepCell c;
            if (text != t.format(c.*member))
                set(s, c, text);
            (s.*values).push_back(c.*member);
        }
    };
    k.axisSize = [values](const SweepSpec &s) { return (s.*values).size(); };
    k.pick = [values, member](const SweepSpec &s, std::size_t i,
                              SweepCell &c) { c.*member = (s.*values)[i]; };
    return k;
}

/** A grid scalar: one SweepSpec field shared by every cell. */
template <typename T>
Knob
scalar(Knob k, T SweepSpec::*member, const Typed<T> &t = {})
{
    bind(k, t, [member](auto &s, auto &) -> auto & { return s.*member; });
    k.setAxis = [set = k.set, grid = k.grid](
                    SweepSpec &s, const std::vector<std::string> &texts) {
        if (texts.size() != 1)
            fatal("grid key '%s' takes a single value", grid);
        SweepCell unused;
        set(s, unused, texts[0]);
    };
    return k;
}

// --- when a row shows ----------------------------------------------------

bool
shows(Show show, const Knob &k, const SweepSpec &s, const SweepCell &c)
{
    const bool changed = !k.isDefault(s, c);
    switch (show) {
      case Show::Group:
      case Show::Never:
        return false;
      case Show::Always:
        return true;
      case Show::Changed:
        return changed;
      case Show::OwnTier:
        return k.group == Group::Chip ? c.isNpu() : c.isCard();
      case Show::AtTier:
        return c.isCard() || (k.group == Group::Chip && c.isNpu());
      case Show::CtrlOn:
        return c.ctrlRate != 0;
      case Show::ChangedCtrlOn:
        return changed && c.ctrlRate != 0;
      case Show::ChangedOrCtrlOn:
        return changed || c.ctrlRate != 0;
      case Show::ChangedMapOff:
        return changed && c.faultMap == defaultCell().faultMap;
    }
    panic("unreachable show policy");
}

/**
 * A group's usual policies, for the Show fields a row leaves at Group.
 * Only grid axes reach the cell key, JSON and CSV. Core knobs show
 * always, chip and card knobs whenever the run is at their tier, the
 * rest only away from their defaults — elisions that keep documents
 * written before a knob existed byte-identical.
 */
void
applyGroupPolicy(Knob &k)
{
    const Group g = k.group;
    const bool core = g == Group::Point;
    if (k.inKey == Show::Group)
        k.inKey = !k.pick ? Show::Never
                  : core  ? Show::Always
                          : Show::Changed;
    if (k.inJson == Show::Group)
        k.inJson = !k.pick                   ? Show::Never
                   : core || g == Group::Chip ? Show::Always
                                              : Show::Changed;
    if (k.inEcho == Show::Group)
        k.inEcho = core || g == Group::Run                ? Show::Always
                   : g == Group::Chip || g == Group::Card ? Show::AtTier
                                                          : Show::Changed;
}

// --- the table -----------------------------------------------------------

std::vector<Knob>
buildTable()
{
    using npu::DispatchPolicy;
    using S = SweepSpec;
    using C = SweepCell;
    std::vector<Knob> t;
    Group group = Group::Point;
    auto add = [&t, &group](Knob k) {
        k.group = group;
        applyGroupPolicy(k);
        t.push_back(std::move(k));
    };

    add(axis<std::string>(
        {.grid = "app", .flag = "--app", .metavar = "NAME",
         .help = "crc tl route drr nat md5 url + adpcm session lpm"},
        &S::apps, &C::app,
        {.check = [](const char *,
                     const std::string &app) { (void)apps::makeApp(app); },
         .all = [] { return apps::allAppNames(); }}));
    Knob cr = axis<OperatingPoint>(
        {.grid = "cr", .flag = "--cr",
         .help = "relative cycle time in (0, 1], or dynamic"},
        &S::points, &C::point,
        {.check = [](const char *, const OperatingPoint &p) {
             if (p.cr <= 0.0 || p.cr > 1.0)
                 fatal("cr must be in (0, 1], got %s",
                       formatDouble(p.cr).c_str());
         }});
    // A flag sets its own half of the point, so --cr and --dynamic
    // compose in either order.
    cr.set = [set = cr.set](S &s, C &c, const std::string &text) {
        C parsed;
        set(s, parsed, text);
        if (parsed.point.dynamic)
            c.point.dynamic = true;
        else
            c.point.cr = parsed.point.cr;
    };
    add(std::move(cr));
    add(option<bool>(
        {.flag = "--dynamic", .help = "same as --cr dynamic",
         .inJson = Show::Always},
        [](auto &, auto &c) -> auto & { return c.point.dynamic; }, kSwitch));
    add(axis<mem::RecoveryScheme>(
        {.grid = "scheme", .flag = "--scheme", .metavar = "S",
         .help = "no-detection | one-strike | two-strike | three-strike"},
        &S::schemes, &C::scheme, {.all = [] {
            return std::vector<mem::RecoveryScheme>(
                std::begin(mem::kAllRecoverySchemes),
                std::end(mem::kAllRecoverySchemes));
        }}));
    add(axis<mem::CheckCodec>(
        {.grid = "codec", .flag = "--codec", .metavar = "C",
         .help = "parity | secded"},
        &S::codecs, &C::codec));
    add(axis<core::FaultPlane>(
        {.grid = "plane", .flag = "--plane", .metavar = "P",
         .help = "both | control | data"},
        &S::planes, &C::plane));
    add(axis<double>(
        {.grid = "fault-scale", .flag = "--fault-scale",
         .help = "fault-rate multiplier"},
        &S::faultScales, &C::faultScale, {.check = nonNegative}));
    add(option<bool>(
        {.flag = "--subblock", .help = "sub-block strike recovery",
         .inEcho = Show::Changed},
        cellField(&C::subblock), kSwitch));

    // pes, dispatch and per-pe-cr spell out every chip cell's key.
    group = Group::Chip;
    add(axis<unsigned>(
        {.grid = "pes", .flag = "--pes", .help = "processing engines",
         .inKey = Show::OwnTier},
        &S::peCounts, &C::peCount, {.check = atLeastOne}));
    add(axis<DispatchPolicy>(
        {.grid = "dispatch", .flag = "--dispatch", .metavar = "P",
         .help = "rr | flow | shortest", .inKey = Show::OwnTier},
        &S::dispatches, &C::dispatch));
    add(axis<std::string>(
        {.grid = "per-pe-cr", .flag = "--per-pe-cr", .metavar = "LIST",
         .help = "Cr per engine, e.g. 1:0.5", .inKey = Show::OwnTier},
        &S::perPeCrs, &C::perPeCr, kCrList));
    add(axis<npu::DvsMode>(
        {.grid = "dvs", .flag = "--dvs", .metavar = "M",
         .help = "per-engine DVS: static | fault | queue"},
        &S::dvsModes, &C::dvs));
    add(axis<unsigned>(
        {.grid = "mshrs", .flag = "--mshrs", .help = "shared-L2 port MSHRs"},
        &S::mshrs, &C::mshrs, {.check = atLeastOne}));
    add(axis<npu::L2Mode>(
        {.grid = "l2", .flag = "--l2", .metavar = "M",
         .help = "L2 contents: private | shared"},
        &S::l2Modes, &C::l2));
    add(option<bool>(
        {.flag = "--flow-rehash",
         .help = "flow dispatch: rehash flows off dead engines"},
        cellField(&C::flowRehash), kSwitch));
    add(option<unsigned>(
        {.flag = "--queue-cap", .help = "per-engine input queue slots"},
        cellField(&C::queueCap), {.check = atLeastOne}));
    add(option<bool>(
        {.flag = "--drop", .name = "drop_when_full",
         .help = "drop arrivals at a full queue instead of stalling"},
        cellField(&C::drop), kSwitch));
    add(axis<std::int64_t>(
        {.grid = "gap", .flag = "--arrival-gap",
         .echoName = "arrival_gap_cycles",
         .help = "inter-arrival gap, base cycles; 0 = saturated"},
        &S::arrivalGaps, &C::arrivalGap));
    // Host scheduling, not the modeled chip: results are byte-identical
    // at every value, so runs at K workers and at one echo equal.
    add(axis<unsigned>(
        {.grid = "chip-jobs", .flag = "--chip-jobs",
         .help = "threads per chip run; 0 = all", .inEcho = Show::Never},
        &S::chipJobs, &C::chipJobs));

    // chips spells out every card cell's key.
    group = Group::Card;
    add(axis<unsigned>(
        {.grid = "chips", .flag = "--chips", .help = "chips on the card",
         .inKey = Show::OwnTier},
        &S::chips, &C::chips, {.check = [](const char *, const unsigned &n) {
            if (n == 0)
                fatal("a line card needs at least one chip, got %u", n);
        }}));
    add(option<DispatchPolicy>(
        {.flag = "--card-dispatch", .metavar = "P",
         .help = "inter-chip dispatch: rr | flow | shortest"},
        cellField(&C::cardDispatch)));
    add(option<std::string>(
        {.flag = "--per-chip-cr", .metavar = "LIST", .help = "Cr per chip"},
        cellField(&C::perChipCr), kCrList));
    add(axis<unsigned>(
        {.grid = "dram-banks", .flag = "--dram-banks",
         .help = "shared-DRAM banks; 0 = flat DRAM penalty"},
        &S::dramBanks, &C::dramBanks));
    add(option<std::uint32_t>(
        {.flag = "--dram-row-bytes", .help = "DRAM row bytes, power of two"},
        cellField(&C::dramRowBytes),
        {.check = [](const char *, const std::uint32_t &n) {
             if (n == 0 || (n & (n - 1)) != 0)
                 fatal("dram row bytes must be a power of two, got %u", n);
         }}));
    add(option<std::int64_t>(
        {.flag = "--dram-hit", .name = "dram_hit_cycles",
         .help = "DRAM row-hit cycles"},
        cellField(&C::dramHit)));
    add(option<std::int64_t>(
        {.flag = "--dram-miss", .name = "dram_miss_cycles",
         .help = "DRAM row-miss cycles"},
        cellField(&C::dramMiss)));
    add(option<std::int64_t>(
        {.flag = "--dram-conflict", .name = "dram_conflict_cycles",
         .help = "DRAM row-conflict cycles"},
        cellField(&C::dramConflict)));
    add(option<unsigned>(
        {.flag = "--ingress-cap", .help = "chip ingress FIFO; 0 = unbounded"},
        cellField(&C::ingressCap)));
    // Host scheduling, like chip-jobs.
    add(axis<unsigned>(
        {.grid = "card-jobs", .flag = "--card-jobs",
         .help = "chips run at once; 0 = all", .inEcho = Show::Never},
        &S::cardJobs, &C::cardJobs));

    group = Group::Traffic;
    add(axis<std::uint32_t>(
        {.grid = "flows", .flag = "--flows",
         .help = "live flow population; unset (0) = the app's own"},
        &S::flows, &C::flows, {.check = atLeastOne}));
    add(axis<std::uint64_t>(
        {.grid = "churn", .flag = "--churn",
         .help = "mean flow lifetime, packets; 0 = the app's own"},
        &S::churns, &C::churn));
    add(option<double>(
        {.flag = "--flow-zipf",
         .help = "flow-popularity Zipf skew; < 0 = the app's own"},
        cellField(&C::flowZipf), {.check = nonNegative}));
    add(option<std::uint32_t>(
        {.flag = "--session-capacity", .help = "session app table slots"},
        cellField(&C::sessionCapacity), {.check = atLeastOne}));
    add(option<std::uint32_t>(
        {.flag = "--session-timeout",
         .help = "session app idle timeout, packets"},
        cellField(&C::sessionTimeout), {.check = atLeastOne}));

    group = Group::FaultMap;
    Knob faultMap = axis<std::string>(
        {.grid = "faultmap", .flag = "--fault-map", .echoName = "fault_map",
         .metavar = "MAP", .help = "weak-cell map: off | spatial | FILE"},
        &S::faultMaps, &C::faultMap);
    // The echo keeps the map's generation seed next to the map.
    faultMap.echo = [](JsonWriter &w, const S &s, const C &c) {
        w.key("fault_map").value(c.faultMap);
        w.key("map_seed").value(s.mapSeed);
    };
    add(std::move(faultMap));
    add(axis<unsigned>(
        {.grid = "retire", .flag = "--way-retire", .echoName = "way_retire",
         .help = "retire an L1D way after N strike-outs"},
        &S::retires, &C::retire));

    // The event mix means nothing without a stream: at rate 0 it stays
    // out of the key and the cell JSON.
    group = Group::Ctrl;
    add(axis<std::uint32_t>(
        {.grid = "ctrl", .flag = "--ctrl-rate",
         .help = "control-plane updates per 1000 packets"},
        &S::ctrlRates, &C::ctrlRate));
    add(axis<ctrl::CtrlMix>(
        {.grid = "updates", .flag = "--ctrl-mix", .metavar = "M",
         .help = "update mix: fib | nat | session | all",
         .inKey = Show::ChangedCtrlOn, .inJson = Show::CtrlOn,
         .inEcho = Show::ChangedOrCtrlOn},
        &S::updateMixes, &C::updates));

    group = Group::Run;
    add(scalar<std::uint64_t>(
        {.grid = "packets", .flag = "--packets",
         .help = "packets per run (card-wide on a card)"},
        &S::packets));
    add(scalar<unsigned>(
        {.grid = "trials", .flag = "--trials", .help = "faulty trials"},
        &S::trials, {.check = atLeastOne}));
    add(scalar<std::uint64_t>(
        {.grid = "seed", .flag = "--seed", .help = "trace seed"},
        &S::traceSeed));
    add(scalar<std::uint64_t>(
        {.grid = "fault-seed", .flag = "--fault-seed", .help = "fault seed"},
        &S::faultSeed));
    // Echoed by the faultmap row while a map is on.
    add(scalar<std::uint64_t>(
        {.grid = "map-seed", .flag = "--fault-map-seed",
         .help = "fault-map generation seed",
         .inEcho = Show::ChangedMapOff},
        &S::mapSeed));
    return t;
}

// --- output orders -------------------------------------------------------

// The table is in grid order; the cell JSON/CSV and the echo keep the
// group orders their documents have always had.
constexpr Group kColumnOrder[] = {Group::Point, Group::Chip, Group::Card,
                                  Group::Traffic, Group::Ctrl,
                                  Group::FaultMap};
constexpr Group kEchoOrder[] = {Group::Point,   Group::FaultMap,
                                Group::Chip,    Group::Card,
                                Group::Traffic, Group::Ctrl,
                                Group::Run};

template <std::size_t N, typename Fn>
void
forEachInOrder(const Group (&order)[N], Fn fn)
{
    for (const Group g : order) {
        for (const Knob &k : knobTable()) {
            if (k.group == g)
                fn(k);
        }
    }
}

/** The cell's knob columns: every row with a cell-JSON member. */
template <typename Fn>
void
forEachColumn(Fn fn)
{
    forEachInOrder(kColumnOrder, [&fn](const Knob &k) {
        if (k.inJson != Show::Never)
            fn(k);
    });
}

bool
anyChanged(Group group, const SweepCell &cell)
{
    for (const Knob &k : knobTable()) {
        if (k.group == group && !k.isDefault(defaultSpec(), cell))
            return true;
    }
    return false;
}

/** --help section titles, in Group order. */
const char *const kSectionTitles[] = {
    "workload and operating point",
    "chip (any of these runs the chip model)",
    "line card (any of these runs the card tier)",
    "traffic",
    "fault map",
    "control plane",
    "experiment",
};

} // namespace

const std::vector<Knob> &
knobTable()
{
    static const std::vector<Knob> table = buildTable();
    return table;
}

void
addKnobFlags(cli::ArgParser &parser, SweepSpec &spec, SweepCell &cell)
{
    const Knob *prev = nullptr;
    for (const Knob &k : knobTable()) {
        if (!prev || prev->group != k.group)
            parser.section(kSectionTitles[static_cast<int>(k.group)]);
        prev = &k;
        const std::string def = render(k.value(defaultSpec(), defaultCell()),
                                       true);
        if (k.metavar)
            parser.option(k.flag, k.metavar,
                          k.help + (def.empty() ? "" : " (default " + def +
                                                           ")"),
                          [&k, &spec, &cell](const std::string &v) {
                              k.set(spec, cell, v);
                          });
        else
            parser.flag(k.flag, k.help,
                        [&k, &spec, &cell] { k.set(spec, cell, ""); });
    }
}

void
writeConfigEcho(JsonWriter &w, const SweepSpec &spec, const SweepCell &cell)
{
    forEachInOrder(kEchoOrder, [&](const Knob &k) {
        if (!shows(k.inEcho, k, spec, cell))
            return;
        if (k.echo)
            k.echo(w, spec, cell);
        else
            w.key(k.echoName ? std::string(k.echoName) : k.name)
                .raw(render(k.value(spec, cell), false));
    });
}

void
writeCellKnobs(JsonWriter &w, const SweepCell &cell)
{
    forEachColumn([&](const Knob &k) {
        if (shows(k.inJson, k, defaultSpec(), cell))
            w.key(k.name).raw(render(k.value(defaultSpec(), cell), false));
    });
}

SweepCell
cellFromKey(const std::string &key)
{
    // A key is a one-cell grid string.
    return expand(SweepSpec::parse(key)).front();
}

std::string
csvKnobHeader()
{
    std::string out;
    forEachColumn([&out](const Knob &k) {
        if (!out.empty())
            out += ',';
        out += k.name;
    });
    return out;
}

std::string
csvKnobFields(const SweepCell &cell)
{
    std::string out;
    bool first = true;
    forEachColumn([&](const Knob &k) {
        if (!first)
            out += ',';
        out += render(k.value(defaultSpec(), cell), true);
        first = false;
    });
    return out;
}

// --- SweepSpec / SweepCell, over the table -------------------------------

SweepSpec
SweepSpec::parse(const std::string &grid)
{
    SweepSpec spec;
    spec.apps = apps::allAppNames();

    for (const std::string &pair : cli::split(grid, ';')) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            fatal("grid entry '%s' is not key=value", pair.c_str());
        const std::string key = pair.substr(0, eq);
        const std::vector<std::string> values =
            cli::split(pair.substr(eq + 1), ',');
        if (values.empty())
            fatal("grid key '%s' has no values", key.c_str());
        const auto &table = knobTable();
        const auto row =
            std::find_if(table.begin(), table.end(), [&key](const Knob &k) {
                return k.grid && key == k.grid;
            });
        if (row == table.end())
            fatal("unknown grid key '%s'", key.c_str());
        row->setAxis(spec, values);
    }
    for (const SweepCell &cell : expand(spec))
        checkCell(cell);
    return spec;
}

std::string
SweepSpec::toGridString() const
{
    std::string out;
    for (const Knob &k : knobTable()) {
        if (!k.grid)
            continue;
        std::string values;
        for (std::size_t i = 0; i < (k.pick ? k.axisSize(*this) : 1); ++i) {
            SweepCell cell;
            if (k.pick)
                k.pick(*this, i, cell);
            if (i)
                values += ',';
            values += k.text(*this, cell);
        }
        if (!out.empty())
            out += ';';
        out += k.grid;
        out += '=';
        out += values;
    }
    return out;
}

std::size_t
SweepSpec::cellCount() const
{
    std::size_t n = 1;
    for (const Knob &k : knobTable()) {
        if (k.axisSize)
            n *= k.axisSize(*this);
    }
    return n;
}

std::vector<SweepCell>
expand(const SweepSpec &spec)
{
    std::vector<const Knob *> axes;
    for (const Knob &k : knobTable()) {
        if (k.axisSize) {
            CLUMSY_ASSERT(k.axisSize(spec) > 0,
                          "every grid dimension needs at least one value");
            axes.push_back(&k);
        }
    }
    // Cartesian product in table order, the first axis outermost.
    const std::size_t total = spec.cellCount();
    std::vector<SweepCell> cells(total);
    for (std::size_t i = 0; i < total; ++i) {
        SweepCell &cell = cells[i];
        cell.index = i;
        std::size_t rest = i;
        for (std::size_t a = axes.size(); a-- > 0;) {
            const std::size_t size = axes[a]->axisSize(spec);
            axes[a]->pick(spec, rest % size, cell);
            rest /= size;
        }
    }
    return cells;
}

bool
SweepCell::isNpu() const
{
    return anyChanged(Group::Chip, *this);
}

bool
SweepCell::isCard() const
{
    return anyChanged(Group::Card, *this);
}

std::string
SweepCell::key() const
{
    std::string k;
    for (const Knob &row : knobTable()) {
        if (!shows(row.inKey, row, defaultSpec(), *this))
            continue;
        if (!k.empty())
            k += ';';
        k += row.grid;
        k += '=';
        k += row.text(defaultSpec(), *this);
    }
    return k;
}

} // namespace clumsy::sweep
