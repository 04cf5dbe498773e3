/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * cache hit reads (with and without a live injector), fault-injector
 * sampling, radix lookups, one full route packet and url trace
 * generation. These guard the simulator's own performance
 * (host side), not the modeled machine.
 */

#include <benchmark/benchmark.h>

#include "apps/app.hh"
#include "apps/radix_tree.hh"
#include "common/logging.hh"
#include "core/processor.hh"
#include "fault/injector.hh"
#include "net/trace_gen.hh"

using namespace clumsy;

namespace
{

void
BM_CacheHitRead(benchmark::State &state)
{
    core::ClumsyProcessor proc;
    const SimAddr addr = proc.alloc(64, 64);
    proc.write32(addr, 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(proc.read32(addr));
}
BENCHMARK(BM_CacheHitRead);

void
BM_CacheHitReadLiveInjector(benchmark::State &state)
{
    // The paper's operating point: an over-clocked, parity-protected
    // L1D whose every sensed read draws from the injector (faults at
    // the model's own rate) and charges the Cr-scaled read energy.
    core::ProcessorConfig config;
    config.staticCr = 0.5;
    config.hierarchy.scheme = mem::RecoveryScheme::TwoStrike;
    core::ClumsyProcessor proc(config);
    const SimAddr addr = proc.alloc(64, 64);
    proc.write32(addr, 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(proc.read32(addr));
}
BENCHMARK(BM_CacheHitReadLiveInjector);

void
BM_CacheMissRead(benchmark::State &state)
{
    core::ClumsyProcessor proc;
    const SimAddr base = proc.alloc(1u << 20, 128);
    SimAddr addr = base;
    for (auto _ : state) {
        benchmark::DoNotOptimize(proc.read32(addr));
        addr = base + ((addr - base + 4096 + 32) & ((1u << 20) - 1));
    }
}
BENCHMARK(BM_CacheMissRead);

void
BM_InjectorCorrupt(benchmark::State &state)
{
    fault::FaultInjector injector{fault::FaultModel{}, 7};
    injector.setCycleTime(0.25);
    std::uint32_t v = 0x12345678;
    for (auto _ : state) {
        v = injector.corrupt(v, 32);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_InjectorCorrupt);

void
BM_RadixLookup(benchmark::State &state)
{
    core::ClumsyProcessor proc;
    apps::RadixTree tree(proc);
    Rng rng(3);
    std::vector<std::uint32_t> keys;
    for (int i = 0; i < 1024; ++i) {
        keys.push_back(static_cast<std::uint32_t>(rng.next()));
        tree.insert(proc, keys.back(), i);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.lookup(proc, keys[i++ & 1023]));
    }
}
BENCHMARK(BM_RadixLookup);

void
BM_RoutePacket(benchmark::State &state)
{
    setQuiet(true);
    auto app = apps::makeApp("route");
    core::ClumsyProcessor proc;
    app->initialize(proc);
    net::TraceConfig tc = app->traceConfig();
    net::TraceGenerator gen(tc);
    core::ValueRecorder rec;
    for (auto _ : state) {
        const net::Packet pkt = gen.next();
        rec.beginPacket();
        app->processPacket(proc, pkt, rec);
    }
}
BENCHMARK(BM_RoutePacket);

void
BM_UrlTraceGen(benchmark::State &state)
{
    // Each url packet draws a Zipf flow rank and a Zipf URL rank from
    // one generator: two distributions alternating per packet.
    setQuiet(true);
    net::TraceGenerator gen(apps::makeApp("url")->traceConfig());
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_UrlTraceGen);

} // namespace

BENCHMARK_MAIN();
