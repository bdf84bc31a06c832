// aplint: allow-file(leader-only) single-warp test harness: the launched warp is the
// leader by construction, exercising the cache API without an election.

/**
 * @file
 * Frame allocation under pressure: the victim index hands out unused
 * speculative and poisoned frames without a sweep, the clock sweep is
 * bounded (a scan over a cache three times too small inspects a few
 * frames per eviction, not a revolution), and a cache whose frames
 * are all pinned applies backpressure — the allocating warp waits for
 * a release instead of aborting.
 */

#include <gtest/gtest.h>

#include "gpufs/page_cache.hh"
#include "sim/check/simcheck.hh"

namespace ap::gpufs {
namespace {

struct VictimFixture
{
    explicit VictimFixture(uint32_t frames, uint32_t staging = 8)
    {
        cfg.numFrames = frames;
        cfg.stagingSlots = staging;
        dev = std::make_unique<sim::Device>(sim::CostModel{}, 64 << 20);
        io = std::make_unique<hostio::HostIoEngine>(*dev, bs);
        io->setFaultInjector(&fi);
        cache = std::make_unique<PageCache>(*dev, *io, cfg);
        file = bs.create("f", 1024 * 4096);
        auto* p = bs.data(file, 0, 1024 * 4096);
        for (size_t i = 0; i + 8 <= 1024 * 4096; i += 8)
            std::memcpy(p + i, &i, 8);
    }

    /** Acquire and release page @p p, checking its first word. */
    void
    touch(sim::Warp& w, uint64_t p) AP_LEADER_ONLY
    {
        PageKey key = makePageKey(file, p);
        AcquireResult r = cache->acquirePage(w, key, 1, false);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(w.mem().load<uint64_t>(r.frameAddr), p * 4096);
        cache->releasePage(w, key, 1);
    }

    int32_t
    rc(uint64_t p)
    {
        return cache->residentRefcountHost(makePageKey(file, p));
    }

    uint64_t
    counter(const char* name) const
    {
        return dev->stats().counter(name);
    }

    Config cfg;
    hostio::BackingStore bs;
    hostio::FaultInjector fi;
    std::unique_ptr<sim::Device> dev;
    std::unique_ptr<hostio::HostIoEngine> io;
    std::unique_ptr<PageCache> cache;
    hostio::FileId file = 0;
};

/**
 * 16 warps, 8 frames: each warp holds its own page across a long
 * stall, so half of them find every frame pinned and must wait.
 * @return warps that completed
 */
int
runPinnedOversubscription(VictimFixture& fx) AP_LEADER_ONLY
{
    int done = 0;
    fx.dev->launch(2, 8, [&](sim::Warp& w) {
        const uint64_t p = static_cast<uint64_t>(w.globalWarpId());
        PageKey key = makePageKey(fx.file, p);
        AcquireResult r = fx.cache->acquirePage(w, key, 1, false);
        ASSERT_TRUE(r.ok());
        w.stall(20000);
        EXPECT_EQ(w.mem().load<uint64_t>(r.frameAddr + 8), p * 4096 + 8);
        fx.cache->releasePage(w, key, 1);
        ++done;
    });
    return done;
}

TEST(AllocBackpressure, MoreWarpsThanFramesAllComplete)
{
    VictimFixture fx(/*frames=*/8);
    EXPECT_EQ(runPinnedOversubscription(fx), 16);
    EXPECT_GT(fx.counter("pagecache.alloc_waits"), 0u);
    EXPECT_EQ(fx.counter("gpufs.major_faults"), 16u);
    for (uint64_t p = 0; p < 16; ++p)
        EXPECT_TRUE(fx.rc(p) == -1 || fx.rc(p) == 0) << "page " << p;
}

TEST(AllocBackpressure, SimcheckArmedRunIsClean)
{
    namespace chk = sim::check;
    chk::SimCheck& sc = chk::SimCheck::get();
    sc.reset();
    sc.setEnabled(true);
    sc.setFailOnReport(false);
    {
        VictimFixture fx(/*frames=*/8);
        EXPECT_EQ(runPinnedOversubscription(fx), 16);
        EXPECT_GT(fx.counter("pagecache.alloc_waits"), 0u);
    }
    EXPECT_TRUE(sc.reports().empty())
        << sc.reports().size() << " simcheck reports";
    sc.setEnabled(false);
    sc.reset();
}

struct ScanResult
{
    sim::Cycles cycles = 0;
    uint64_t pages = 0;
    double scannedP99 = 0;
    uint64_t evictions = 0;
};

/** 64 warps scan pages [0, pages), warp i taking pages i, i+64, ... */
ScanResult
scan(uint32_t frames, uint64_t pages) AP_LEADER_ONLY
{
    VictimFixture fx(frames, /*staging=*/64);
    ScanResult r;
    r.cycles = fx.dev->launch(4, 16, [&](sim::Warp& w) {
        for (uint64_t p = static_cast<uint64_t>(w.globalWarpId());
             p < pages; p += 64)
            fx.touch(w, p);
    });
    r.pages = pages;
    const Histogram* h =
        fx.dev->stats().findHistogram("pagecache.alloc_scanned");
    r.scannedP99 = h ? h->quantile(0.99) : -1;
    r.evictions = fx.counter("gpufs.evictions");
    return r;
}

TEST(VictimIndex, OverflowScanSweepsAFewFramesNotARevolution)
{
    const uint32_t frames = 128;
    const uint64_t pages = 3 * frames;
    ScanResult over = scan(frames, pages);
    ScanResult fits = scan(4 * frames, pages);
    ASSERT_GT(over.evictions, 0u);
    EXPECT_EQ(fits.evictions, 0u);
    // Every eviction swept (no readahead, so the index stays empty);
    // the pre-index allocator inspected a whole revolution each time.
    EXPECT_GT(over.scannedP99, 0.0);
    EXPECT_LT(over.scannedP99, frames / 8.0);
    const double over_cpp = static_cast<double>(over.cycles) / over.pages;
    const double fits_cpp = static_cast<double>(fits.cycles) / fits.pages;
    EXPECT_LT(over_cpp, 2.0 * fits_cpp)
        << "overflow " << over_cpp << " vs fits " << fits_cpp
        << " cycles/page";
}

TEST(VictimIndex, UnusedSpeculativeFrameEvictedBeforeDemandTouched)
{
    VictimFixture fx(/*frames=*/8);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        for (uint64_t p = 0; p < 7; ++p)
            fx.touch(w, p); // frames 0..6, demand-touched
        EXPECT_EQ(fx.cache->prefetchPage(w, makePageKey(fx.file, 100),
                                         /*speculative=*/true),
                  PrefetchResult::Started); // frame 7
        w.stall(200000);                    // let the fill land
        fx.touch(w, 7); // free pool empty: needs a victim
    });
    EXPECT_EQ(fx.rc(100), -1);
    for (uint64_t p = 0; p < 8; ++p)
        EXPECT_EQ(fx.rc(p), 0) << "page " << p;
    EXPECT_EQ(fx.counter("pagecache.evict.spec_victim"), 1u);
    EXPECT_EQ(fx.counter("pagecache.evict.clock_sweep"), 0u);
    EXPECT_EQ(fx.counter("prefetch.wasted"), 1u);
    // Served from the index: the clock sweep never ran.
    EXPECT_EQ(fx.dev->stats().findHistogram("pagecache.alloc_scanned"),
              nullptr);
}

TEST(VictimIndex, PoisonedFrameReclaimedThroughIndex)
{
    VictimFixture fx(/*frames=*/8);
    fx.fi.failReads(fx.file, 100 * 4096, 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        for (uint64_t p = 0; p < 7; ++p)
            fx.touch(w, p);
        // The failed fill leaves frame 7 poisoned at refcount 0.
        EXPECT_FALSE(fx.cache
                         ->acquirePage(w, makePageKey(fx.file, 100), 1,
                                       false)
                         .ok());
        fx.touch(w, 7);
    });
    EXPECT_EQ(fx.rc(100), -1);
    for (uint64_t p = 0; p < 8; ++p)
        EXPECT_EQ(fx.rc(p), 0) << "page " << p;
    EXPECT_EQ(fx.counter("pagecache.evict.poisoned_reclaim"), 1u);
    EXPECT_EQ(fx.counter("pagecache.evict.clock_sweep"), 0u);
    EXPECT_EQ(fx.dev->stats().findHistogram("pagecache.alloc_scanned"),
              nullptr);
}

TEST(VictimIndex, DemandedSpeculativeFrameIsNotASpecVictim)
{
    VictimFixture fx(/*frames=*/8);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        for (uint64_t p = 0; p < 7; ++p)
            fx.touch(w, p);
        EXPECT_EQ(fx.cache->prefetchPage(w, makePageKey(fx.file, 100),
                                         /*speculative=*/true),
                  PrefetchResult::Started); // frame 7, indexed
        w.stall(200000);
        fx.touch(w, 100); // demand clears the tag; the entry goes stale
        fx.touch(w, 7);
    });
    // The stale index entry was dropped and the clock took frame 0.
    EXPECT_EQ(fx.rc(100), 0);
    EXPECT_EQ(fx.rc(0), -1);
    EXPECT_EQ(fx.counter("pagecache.evict.spec_victim"), 0u);
    EXPECT_EQ(fx.counter("pagecache.evict.clock_sweep"), 1u);
    EXPECT_EQ(fx.counter("prefetch.useful"), 1u);
    EXPECT_EQ(fx.counter("prefetch.wasted"), 0u);
    const Histogram* h =
        fx.dev->stats().findHistogram("pagecache.alloc_scanned");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
    EXPECT_EQ(h->max(), 1.0);
}

} // namespace
} // namespace ap::gpufs
