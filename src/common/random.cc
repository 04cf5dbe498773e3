#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace clumsy
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    reseed(seed);
}

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
    for (ZipfTable &table : zipf_)
        table = ZipfTable{};
    zipfLast_ = 0;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    CLUMSY_ASSERT(bound > 0, "below() needs a positive bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double rate)
{
    CLUMSY_ASSERT(rate > 0.0, "exponential() needs a positive rate");
    // 1 - uniform() is in (0, 1], keeping log() finite.
    return -std::log(1.0 - uniform()) / rate;
}

const std::vector<double> &
Rng::zipfCdf(std::uint64_t n, double s)
{
    for (unsigned i = 0; i < 2; ++i) {
        if (zipf_[i].n == n && zipf_[i].s == s) {
            zipfLast_ = i;
            return zipf_[i].cdf;
        }
    }
    zipfLast_ ^= 1u;
    ZipfTable &table = zipf_[zipfLast_];
    table.n = n;
    table.s = s;
    table.cdf.resize(n);
    double sum = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k), s);
        table.cdf[k - 1] = sum;
    }
    for (auto &v : table.cdf)
        v /= sum;
    return table.cdf;
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    CLUMSY_ASSERT(n > 0, "zipf() needs at least one item");
    const std::vector<double> &cdf = zipfCdf(n, s);
    const double u = uniform();
    // Binary search the CDF for the first entry >= u.
    std::uint64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        const std::uint64_t mid = (lo + hi) / 2;
        if (cdf[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo + 1;
}

} // namespace clumsy
