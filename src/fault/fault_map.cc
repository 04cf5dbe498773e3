#include "fault/fault_map.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"

namespace clumsy::fault
{

namespace
{

/** Standard gaussian via Box-Muller (one draw per call, two uniforms). */
double
gauss(Rng &rng)
{
    const double u1 = 1.0 - rng.uniform(); // (0, 1]: log stays finite
    const double u2 = rng.uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

/** Poisson sample (Knuth); means here are small enough for exp(-m). */
std::uint32_t
poisson(Rng &rng, double mean)
{
    if (mean <= 0.0)
        return 0;
    const double limit = std::exp(-mean);
    std::uint32_t k = 0;
    double p = 1.0;
    do {
        ++k;
        p *= rng.uniform();
    } while (p > limit);
    return k - 1;
}

/** Shortest round-trip decimal form of a double. */
std::string
fmtDouble(double v)
{
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    CLUMSY_ASSERT(res.ec == std::errc{}, "double format overflow");
    return std::string(buf, res.ptr);
}

bool
cellKeyLess(const WeakCell &a, const WeakCell &b)
{
    if (a.set != b.set)
        return a.set < b.set;
    if (a.way != b.way)
        return a.way < b.way;
    return a.bit < b.bit;
}

bool
cellKeyEqual(const WeakCell &a, const WeakCell &b)
{
    return a.set == b.set && a.way == b.way && a.bit == b.bit;
}

} // namespace

FaultMapSpec
faultMapSpecFromString(const std::string &value)
{
    FaultMapSpec spec;
    if (value.empty() || value == "off") {
        spec.mode = FaultMapMode::Off;
    } else if (value == "spatial") {
        spec.mode = FaultMapMode::Generated;
    } else {
        spec.mode = FaultMapMode::File;
        spec.path = value;
    }
    return spec;
}

FaultMap::FaultMap(FaultMapGeometry geom, std::uint64_t seed,
                   std::vector<WeakCell> cells)
    : geom_(geom), seed_(seed), cells_(std::move(cells))
{
    CLUMSY_ASSERT(geom_.sets > 0 && geom_.ways > 0 &&
                      geom_.lineBytes > 0 && geom_.lineBytes % 4 == 0,
                  "bad fault-map geometry");
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const WeakCell &c = cells_[i];
        CLUMSY_ASSERT(c.set < geom_.sets && c.way < geom_.ways &&
                          c.bit < geom_.lineBytes * 8,
                      "weak cell outside the mapped array");
        CLUMSY_ASSERT(c.vth > 0.0 && c.vth <= 1.0 && c.pFail > 0.0 &&
                          c.pFail <= 1.0,
                      "weak cell strength outside (0, 1]");
        CLUMSY_ASSERT(i == 0 || cellKeyLess(cells_[i - 1], c),
                      "weak cells must be strictly sorted");
    }
}

FaultMap
FaultMap::generate(const FaultMapGeometry &geom,
                   const FaultMapParams &params, std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint32_t lineBits = geom.lineBytes * 8;

    // Per-way strength factors: lognormal, clamped to +/- 2 sigma so
    // one way can be chronically weak without dominating the array.
    std::vector<double> wayFactor(geom.ways);
    double factorSum = 0.0;
    for (double &f : wayFactor) {
        const double g = std::clamp(gauss(rng), -2.0, 2.0);
        f = std::exp(g * params.waySigma);
        factorSum += f;
    }

    auto pickWay = [&]() -> std::uint32_t {
        // Weight way choice by strength factor (weak ways collect
        // more cells).
        const double u = rng.uniform() * factorSum;
        double acc = 0.0;
        for (std::uint32_t w = 0; w < geom.ways; ++w) {
            acc += wayFactor[w];
            if (u < acc)
                return w;
        }
        return geom.ways - 1;
    };

    auto drawStrength = [&](WeakCell &c) {
        c.vth = std::clamp(
            params.vthMean + gauss(rng) * params.vthSigma, 0.05, 1.0);
        const double lo = std::log(params.pFailMin);
        const double hi = std::log(params.pFailMax);
        c.pFail = std::exp(rng.uniform(lo, hi));
    };

    std::vector<WeakCell> cells;

    // Clustered weak rows: each cluster anchors at a random row of one
    // way and sprays cells over gaussian-nearby rows.
    const std::uint32_t nClusters = poisson(rng, params.clustersPerArray);
    for (std::uint32_t c = 0; c < nClusters; ++c) {
        const std::uint32_t anchor =
            static_cast<std::uint32_t>(rng.below(geom.sets));
        const std::uint32_t way = pickWay();
        const std::uint32_t n =
            poisson(rng, params.cellsPerCluster * wayFactor[way]);
        for (std::uint32_t i = 0; i < n; ++i) {
            WeakCell cell;
            const double off = gauss(rng) * params.clusterRowSigma;
            const std::int64_t row =
                static_cast<std::int64_t>(anchor) +
                static_cast<std::int64_t>(std::llround(off));
            // Wrap rather than clamp: edge rows stay no more likely
            // than interior ones.
            cell.set = static_cast<std::uint32_t>(
                ((row % geom.sets) + geom.sets) % geom.sets);
            cell.way = way;
            cell.bit = static_cast<std::uint32_t>(rng.below(lineBits));
            drawStrength(cell);
            cells.push_back(cell);
        }
    }

    // Isolated background weak cells, uniform over the array.
    const std::uint32_t nBg = poisson(rng, params.backgroundPerArray);
    for (std::uint32_t i = 0; i < nBg; ++i) {
        WeakCell cell;
        cell.set = static_cast<std::uint32_t>(rng.below(geom.sets));
        cell.way = pickWay();
        cell.bit = static_cast<std::uint32_t>(rng.below(lineBits));
        drawStrength(cell);
        cells.push_back(cell);
    }

    std::stable_sort(cells.begin(), cells.end(), cellKeyLess);
    cells.erase(std::unique(cells.begin(), cells.end(), cellKeyEqual),
                cells.end());
    return FaultMap(geom, seed, std::move(cells));
}

std::string
FaultMap::toText() const
{
    std::string out;
    out.reserve(64 + cells_.size() * 40);
    out += "clumsy-faultmap v1\n";
    out += "geometry sets=" + std::to_string(geom_.sets) +
           " ways=" + std::to_string(geom_.ways) +
           " line-bytes=" + std::to_string(geom_.lineBytes) + "\n";
    out += "seed " + std::to_string(seed_) + "\n";
    out += "cells " + std::to_string(cells_.size()) + "\n";
    for (const WeakCell &c : cells_) {
        out += "cell " + std::to_string(c.set) + " " +
               std::to_string(c.way) + " " + std::to_string(c.bit) +
               " " + fmtDouble(c.vth) + " " + fmtDouble(c.pFail) + "\n";
    }
    out += "end\n";
    return out;
}

std::string
FaultMap::parseText(const std::string &text, FaultMap &out)
{
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;

    auto nextLine = [&]() -> bool {
        if (!std::getline(in, line))
            return false;
        ++lineNo;
        return true;
    };
    auto err = [&](const std::string &what) {
        return "fault map line " + std::to_string(lineNo) + ": " + what;
    };

    if (!nextLine() || line != "clumsy-faultmap v1")
        return "fault map line 1: missing 'clumsy-faultmap v1' header";

    FaultMapGeometry geom;
    if (!nextLine())
        return "fault map: truncated before geometry line";
    {
        unsigned long sets = 0, ways = 0, lineBytes = 0;
        std::istringstream ls(line);
        std::string tag, f1, f2, f3;
        ls >> tag >> f1 >> f2 >> f3;
        if (tag != "geometry" ||
            f1.rfind("sets=", 0) != 0 || f2.rfind("ways=", 0) != 0 ||
            f3.rfind("line-bytes=", 0) != 0)
            return err("expected 'geometry sets=N ways=N line-bytes=N'");
        try {
            sets = std::stoul(f1.substr(5));
            ways = std::stoul(f2.substr(5));
            lineBytes = std::stoul(f3.substr(11));
        } catch (const std::exception &) {
            return err("unparseable geometry value");
        }
        if (sets == 0 || ways == 0 || lineBytes == 0 || lineBytes % 4)
            return err("geometry values must be positive, line-bytes "
                       "a multiple of 4");
        geom.sets = static_cast<std::uint32_t>(sets);
        geom.ways = static_cast<std::uint32_t>(ways);
        geom.lineBytes = static_cast<std::uint32_t>(lineBytes);
    }

    std::uint64_t seed = 0;
    if (!nextLine())
        return "fault map: truncated before seed line";
    {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag >> seed;
        if (tag != "seed" || ls.fail())
            return err("expected 'seed N'");
    }

    std::size_t count = 0;
    if (!nextLine())
        return "fault map: truncated before cells line";
    {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag >> count;
        if (tag != "cells" || ls.fail())
            return err("expected 'cells N'");
    }

    std::vector<WeakCell> cells;
    cells.reserve(count);
    const std::uint32_t lineBits = geom.lineBytes * 8;
    for (std::size_t i = 0; i < count; ++i) {
        if (!nextLine())
            return "fault map: truncated cell list (expected " +
                   std::to_string(count) + " cells)";
        std::istringstream ls(line);
        std::string tag;
        WeakCell c;
        ls >> tag >> c.set >> c.way >> c.bit >> c.vth >> c.pFail;
        if (tag != "cell" || ls.fail())
            return err("expected 'cell set way bit vth pfail'");
        std::string trailing;
        if (ls >> trailing)
            return err("trailing junk after cell fields");
        if (c.set >= geom.sets || c.way >= geom.ways ||
            c.bit >= lineBits)
            return err("cell outside the declared geometry");
        if (!(c.vth > 0.0) || c.vth > 1.0 || !(c.pFail > 0.0) ||
            c.pFail > 1.0)
            return err("cell vth/pfail must be in (0, 1]");
        if (!cells.empty() && !cellKeyLess(cells.back(), c))
            return err("cells must be strictly sorted by "
                       "(set, way, bit)");
        cells.push_back(c);
    }

    if (!nextLine() || line != "end")
        return err("expected 'end' after the cell list");
    while (nextLine()) {
        if (!line.empty())
            return err("trailing junk after 'end'");
    }

    out = FaultMap(geom, seed, std::move(cells));
    return "";
}

std::string
FaultMap::saveFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return "cannot open " + path + " for writing";
    const std::string text = toText();
    f.write(text.data(), static_cast<std::streamsize>(text.size()));
    f.flush();
    if (!f)
        return "write to " + path + " failed";
    return "";
}

std::string
FaultMap::loadFile(const std::string &path, FaultMap &out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return "cannot open fault map " + path;
    std::ostringstream buf;
    buf << f.rdbuf();
    return parseText(buf.str(), out);
}

std::vector<std::uint32_t>
FaultMap::perRowCounts() const
{
    std::vector<std::uint32_t> counts(geom_.sets, 0);
    for (const WeakCell &c : cells_)
        ++counts[c.set];
    return counts;
}

std::vector<std::uint32_t>
FaultMap::perWayCounts() const
{
    std::vector<std::uint32_t> counts(geom_.ways, 0);
    for (const WeakCell &c : cells_)
        ++counts[c.way];
    return counts;
}

double
FaultMap::dispersionIndex() const
{
    if (cells_.empty() || geom_.sets == 0)
        return 0.0;
    const std::vector<std::uint32_t> counts = perRowCounts();
    const double mean =
        static_cast<double>(cells_.size()) / geom_.sets;
    double var = 0.0;
    for (const std::uint32_t c : counts) {
        const double d = c - mean;
        var += d * d;
    }
    var /= geom_.sets;
    return var / mean;
}

std::size_t
FaultMap::activeCellCount(double cr) const
{
    std::size_t n = 0;
    for (const WeakCell &c : cells_)
        if (c.vth >= cr)
            ++n;
    return n;
}

} // namespace clumsy::fault
