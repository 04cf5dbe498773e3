/**
 * @file
 * Spatially correlated weak-cell fault maps for the L1 D-cache.
 *
 * The paper's eq. (4) model redraws faults i.i.d. on every access;
 * measured undervolted SRAMs instead expose a fixed population of weak
 * cells — clustered by row, varying in strength across ways and across
 * arrays (MoRS; see PAPERS.md). A FaultMap captures that population:
 * each WeakCell names one bit of one cached frame (set, way, bit
 * within the line) together with an activation threshold `vth` (the
 * relative cycle time below which the cell starts failing) and a
 * per-access failure probability `pFail` at the threshold. As the
 * cycle time drops further below `vth`, the cell's effective rate
 * grows by the same exponential factor as eq. (4) — the map sharpens
 * with voltage, matching the measured behaviour.
 *
 * Maps are either generated from a seeded spatial model
 * (FaultMap::generate) or imported from a versioned text format
 * (parseText / loadFile) so externally measured maps drop in. The
 * canonical text form round-trips byte-identically through
 * export -> import -> export.
 *
 * The map decides *which* cells can fail; the FaultInjector's timing
 * model decides *when* they are exercised (fault/injector.hh).
 */

#ifndef CLUMSY_FAULT_FAULT_MAP_HH
#define CLUMSY_FAULT_FAULT_MAP_HH

#include <cstdint>
#include <string>
#include <vector>

namespace clumsy::fault
{

/** Array shape a map is defined over (mirrors the L1D geometry). */
struct FaultMapGeometry
{
    std::uint32_t sets = 128;
    std::uint32_t ways = 1;
    std::uint32_t lineBytes = 32;

    std::uint32_t wordsPerLine() const { return lineBytes / 4; }

    /** Word-granular slots: one per (set, way, word-in-line). */
    std::uint32_t slots() const
    {
        return sets * ways * wordsPerLine();
    }

    /** Addressable bits in the mapped array. */
    std::uint64_t bits() const
    {
        return std::uint64_t{sets} * ways * lineBytes * 8;
    }

    bool operator==(const FaultMapGeometry &o) const
    {
        return sets == o.sets && ways == o.ways &&
               lineBytes == o.lineBytes;
    }
};

/** One weak cell: a single bit of one frame plus its strength. */
struct WeakCell
{
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    std::uint32_t bit = 0; ///< bit index within the line (0..8*lineBytes)

    /**
     * Activation threshold: the cell is inert while cr > vth and
     * fails with probability >= pFail once cr <= vth.
     */
    double vth = 0.5;

    /** Per-access failure probability at cr == vth. */
    double pFail = 0.01;

    /** Word slot within the line this cell lives in. */
    std::uint32_t wordIndex() const { return bit / 32; }

    /** Bit position within its 32-bit word. */
    std::uint32_t bitInWord() const { return bit % 32; }
};

/** Parameters of the seeded spatial generation model. */
struct FaultMapParams
{
    /** Poisson mean of weak-row clusters per array. */
    double clustersPerArray = 6.0;

    /** Poisson mean of weak cells per cluster (before way scaling). */
    double cellsPerCluster = 24.0;

    /** Gaussian row spread of a cluster around its anchor row. */
    double clusterRowSigma = 1.2;

    /** Poisson mean of isolated (background) weak cells per array. */
    double backgroundPerArray = 8.0;

    /**
     * Lognormal sigma of per-way strength variation: each way's
     * expected cell count is scaled by exp(g * waySigma) with g a
     * standard gaussian clamped to [-2, 2], so the spread stays
     * within exp(+/- 2 * waySigma).
     */
    double waySigma = 0.5;

    /** Mean / sigma of the gaussian activation threshold vth. */
    double vthMean = 0.55;
    double vthSigma = 0.15;

    /** Log-uniform range of per-cell failure probability at vth. */
    double pFailMin = 1e-3;
    double pFailMax = 0.2;
};

/** How a processor's fault plane is sourced. */
enum class FaultMapMode
{
    Off,       ///< uniform eq. (4) injection only (the default)
    Generated, ///< seeded spatial model (FaultMap::generate)
    File,      ///< imported from the versioned text format
};

/** Apps-facing selection of a fault map (rides in ProcessorConfig). */
struct FaultMapSpec
{
    FaultMapMode mode = FaultMapMode::Off;

    /** Map file for FaultMapMode::File. */
    std::string path;

    /** Generation seed (Generated mode). Held fixed across trials:
     *  the map is manufactured silicon, not a per-run draw. */
    std::uint64_t seed = 0xfa17;

    /**
     * Per-PE salt: engine `pe` of a chip generates from
     * seed + peSalt * golden-ratio so each PE's array carries its own
     * weak-cell population (per-array variation) while the chip-level
     * seed still names the whole chip's silicon.
     */
    std::uint32_t peSalt = 0;

    FaultMapParams params;

    bool enabled() const { return mode != FaultMapMode::Off; }

    /** The generation seed after salting. */
    std::uint64_t effectiveSeed() const
    {
        return seed + std::uint64_t{peSalt} * 0x9e3779b97f4a7c15ull;
    }
};

/**
 * Parse a `faultmap=` axis / `--fault-map` flag value: "off",
 * "spatial" (seeded generation), or anything else as a map-file path.
 */
FaultMapSpec faultMapSpecFromString(const std::string &value);

/** A concrete weak-cell population over one array. */
class FaultMap
{
  public:
    FaultMap() = default;

    /**
     * Build from parts. Cells must be in-range for the geometry and
     * strictly sorted by (set, way, bit) with no duplicates —
     * CLUMSY_ASSERTed; external input goes through parseText, which
     * reports violations as errors instead.
     */
    FaultMap(FaultMapGeometry geom, std::uint64_t seed,
             std::vector<WeakCell> cells);

    /** Generate a map from the seeded spatial model. */
    static FaultMap generate(const FaultMapGeometry &geom,
                             const FaultMapParams &params,
                             std::uint64_t seed);

    const FaultMapGeometry &geometry() const { return geom_; }
    std::uint64_t seed() const { return seed_; }

    /** All weak cells, sorted by (set, way, bit). */
    const std::vector<WeakCell> &cells() const { return cells_; }

    /** Canonical versioned text form (ends with "end\n"). */
    std::string toText() const;

    /**
     * Parse the canonical text form. @return "" on success, else a
     * human-readable error (out is untouched on failure).
     */
    static std::string parseText(const std::string &text, FaultMap &out);

    /** Write toText() to a file. @return "" on success, else error. */
    std::string saveFile(const std::string &path) const;

    /** Read + parse a file. @return "" on success, else error. */
    static std::string loadFile(const std::string &path, FaultMap &out);

    // ----- analysis helpers (inspect tool + statistical tests) -----

    /** Weak cells per set (row), size geometry().sets. */
    std::vector<std::uint32_t> perRowCounts() const;

    /** Weak cells per way, size geometry().ways. */
    std::vector<std::uint32_t> perWayCounts() const;

    /**
     * Index of dispersion (variance / mean) of the per-row counts.
     * ~1 for a spatially uniform population, > 1 when cells cluster
     * by row. @return 0 when the map is empty.
     */
    double dispersionIndex() const;

    /** Cells active (vth >= cr) at relative cycle time cr. */
    std::size_t activeCellCount(double cr) const;

  private:
    FaultMapGeometry geom_;
    std::uint64_t seed_ = 0;
    std::vector<WeakCell> cells_;
};

} // namespace clumsy::fault

#endif // CLUMSY_FAULT_FAULT_MAP_HH
