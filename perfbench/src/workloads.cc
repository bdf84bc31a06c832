/**
 * @file
 * The benchmark's four workloads. Each builds a fresh stack per
 * measured phase, times its set-up and its measured phase separately,
 * checks every output against a host-side reference, and reports
 * simulated end-to-end metrics plus per-layer metrics. NOTES.md
 * explains why each workload exists and which layer it loads.
 */

#include <cstring>

#include "collage/dataset.hh"
#include "core/vm.hh"
#include "harness.hh"
#include "serving/serving.hh"

namespace perfbench {
namespace {

using ap::sim::kWarpSize;
using ap::sim::LaneArray;
using ap::sim::Warp;

constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kWordsPerPage = kPageBytes / 4;

/**
 * Shared timing of one measured phase: host wall and CPU seconds
 * between start() and stop().
 */
struct PhaseClock
{
    Clock::time_point t0;
    double cpu0 = 0;

    void
    start()
    {
        t0 = Clock::now();
        cpu0 = processCpuSeconds();
    }

    void
    stop(RepeatResult& r)
    {
        r.hostS += secondsSince(t0);
        r.cpuS += processCpuSeconds() - cpu0;
    }
};

/**
 * Device-side apointer call timing, kept in both runs: per-operation
 * latency (the workload's sim_p50_us/sim_p99_us) and dereference
 * latency split by whether every lane was linked before the call.
 */
struct DerefTiming
{
    Samples op;
    Samples hitDeref;
    Samples faultDeref;

    void
    fill(Metrics& layer) const
    {
        layer["core.hit_deref_cycles_mean"] = hitDeref.mean();
        layer["core.fault_deref_cycles_p50"] = faultDeref.quantile(0.50);
        layer["core.fault_deref_cycles_p99"] = faultDeref.quantile(0.99);
    }
};

/** True when every lane of @p p holds a linked translation. */
template <typename T>
bool
allLinked(const ap::core::AptrVec<T>& p)
{
    for (int l = 0; l < kWarpSize; ++l)
        if (!p.linked(l))
            return false;
    return true;
}

/**
 * A device span around one apointer call: opened at Warp::now()
 * before, closed after. Disabled tracers make this two branches.
 */
class DevSpan
{
  public:
    DevSpan(Tracer& t, Warp& w, const char* name, int32_t parent,
            uint64_t op)
        : t_(t), w_(w), idx_(t.begin(name, true, w.now(), parent, op))
    {
    }
    ~DevSpan() { t_.end(idx_, w_.now()); }
    DevSpan(const DevSpan&) = delete;
    DevSpan& operator=(const DevSpan&) = delete;

    int32_t index() const { return idx_; }

  private:
    Tracer& t_;
    Warp& w_;
    int32_t idx_;
};

/**
 * Per-layer metrics, stats digest and instruction count of a workload
 * whose measured phase is everything @p s recorded.
 */
void
recordPhaseStats(const ap::StatGroup& s, RepeatResult& res)
{
    layerMetricsFromStats(s, res.layer);
    res.layer["sim.stats_digest"] = digest52(statsJson(s));
    res.instructions = s.counter("sim.instructions");
}

/** Order- and position-sensitive word checksum term. */
inline uint64_t
wordTerm(uint32_t value, uint64_t word_index)
{
    return mix64(value ^ (word_index << 32));
}

// ---------------------------------------------------------------------
// scan-overflow: 64 warps scan every word of a file 3x the page cache
// through apointers, readahead on. Eviction, host-IO batching,
// readahead and page-crossing translation do the work.
// ---------------------------------------------------------------------

constexpr int kScanBlocks = 8;
constexpr int kScanWarpsPerBlock = 8;
constexpr int kScanWarps = kScanBlocks * kScanWarpsPerBlock;
constexpr uint32_t kScanFrames = 1024;
/** Mean pages per warp slice; slices vary by +-kScanSliceJitter. */
constexpr uint64_t kScanPagesPerWarp = 48;
constexpr uint64_t kScanSliceJitter = 4;

/**
 * The scan's own compute per 32-word read: fold the words into the
 * checksum, plus one instruction per lane whose word passes a filter
 * (low nibble zero). The filter makes the work data-dependent, as a
 * real filter-and-aggregate scan is.
 */
constexpr int kScanFoldInstr = 4;

inline int
scanFilterMatches(const LaneArray<uint32_t>& v)
{
    int n = 0;
    for (int l = 0; l < kWarpSize; ++l)
        n += (v[l] & 0xf) == 0;
    return n;
}

RepeatResult
runScanOverflow(uint64_t seed, Tracer& tr, bool doctor, bool setup_only)
{
    RepeatResult res;

    // Each warp scans its own contiguous slice of seeded length,
    // starting at a seeded page of the slice and wrapping, so how the
    // 64 streams interleave (and thus the eviction order) depends on
    // the seed. The file is about 3x the cache.
    Clock::time_point setup_t0 = Clock::now();
    int32_t setup = tr.beginHost("setup");
    Rng slice_rng(subSeed(seed, 2));
    std::vector<uint64_t> first(kScanWarps), len(kScanWarps),
        rot(kScanWarps);
    uint64_t pages = 0;
    for (int wid = 0; wid < kScanWarps; ++wid) {
        first[wid] = pages;
        len[wid] = kScanPagesPerWarp - kScanSliceJitter +
                   slice_rng.below(2 * kScanSliceJitter + 1);
        rot[wid] = slice_rng.below(len[wid]);
        pages += len[wid];
    }
    const uint64_t file_bytes = pages * kPageBytes;

    ap::gpufs::Config fscfg;
    fscfg.numFrames = kScanFrames;
    fscfg.readahead.enabled = true;
    fscfg.readahead.streams = 2 * kScanWarps;
    Stack st(ap::core::GvmConfig{}, fscfg);

    int32_t fill = tr.beginHost("fill", setup);
    ap::hostio::FileId f = st.bs.create("scan.bin", file_bytes);
    std::vector<uint32_t> words(file_bytes / 4);
    Rng content(subSeed(seed, 1));
    for (uint32_t& x : words)
        x = static_cast<uint32_t>(content.next());
    st.bs.pwrite(f, words.data(), file_bytes, 0);
    tr.endHost(fill);

    int32_t ref = tr.beginHost("reference", setup);
    std::vector<uint64_t> expect(kScanWarps, 0);
    for (int wid = 0; wid < kScanWarps; ++wid) {
        uint64_t w0 = first[wid] * kWordsPerPage;
        for (uint64_t i = 0; i < len[wid] * kWordsPerPage; ++i)
            expect[wid] += wordTerm(words[w0 + i], w0 + i);
    }
    if (doctor)
        expect[0] ^= 1;
    tr.endHost(ref);
    tr.endHost(setup);
    res.setupS.push_back(secondsSince(setup_t0));
    if (setup_only)
        return res;

    PhaseClock pc;
    pc.start();
    int32_t measure = tr.beginHost("measure");
    DerefTiming dt;
    std::vector<uint64_t> got(kScanWarps, 0);
    uint64_t errored_ops = 0;
    ap::sim::Cycles cycles = 0;
    {
        HostSpan launch(tr, "launch", measure);
        cycles = st.dev->launch(
            kScanBlocks, kScanWarpsPerBlock, [&](Warp& w) {
                const int wid = w.globalWarpId();
                DevSpan warp_span(tr, w, "warp", -1, wid);
                const int32_t ws = warp_span.index();
                ap::core::AptrVec<uint32_t> p;
                {
                    DevSpan s(tr, w, "gvmmap", ws, wid);
                    p = ap::core::gvmmap<uint32_t>(
                        w, *st.rt, file_bytes, ap::hostio::O_GRDONLY, f,
                        0);
                }
                {
                    DevSpan s(tr, w, "add", ws, wid);
                    p.addPerLane(w, LaneArray<int64_t>::iota(0));
                }
                int64_t cur = 0; // word index of lane 0
                uint64_t acc = 0;
                for (uint64_t k = 0; k < len[wid]; ++k) {
                    const uint64_t op = first[wid] + k;
                    const int64_t page = static_cast<int64_t>(
                        first[wid] + (rot[wid] + k) % len[wid]);
                    const double t_op = w.now();
                    DevSpan op_span(tr, w, "page", ws, op);
                    const int32_t os = op_span.index();
                    for (uint64_t i = 0; i < kWordsPerPage / kWarpSize;
                         ++i) {
                        const int64_t target =
                            page * kWordsPerPage + i * kWarpSize;
                        {
                            DevSpan s(tr, w, "add", os, op);
                            p.add(w, target - cur);
                        }
                        cur = target;
                        const bool hit = allLinked(p);
                        const double t_rd = w.now();
                        LaneArray<uint32_t> v;
                        {
                            DevSpan s(tr, w, "read", os, op);
                            v = p.read(w);
                        }
                        (hit ? dt.hitDeref : dt.faultDeref)
                            .add(w.now() - t_rd);
                        if (p.erroredLanes())
                            errored_ops++;
                        w.issue(kScanFoldInstr + scanFilterMatches(v));
                        for (int l = 0; l < kWarpSize; ++l)
                            acc += wordTerm(v[l],
                                            static_cast<uint64_t>(cur + l));
                    }
                    dt.op.add(w.now() - t_op);
                }
                {
                    DevSpan s(tr, w, "destroy", ws, wid);
                    p.destroy(w);
                }
                got[wid] = acc;
            });
    }
    uint64_t mismatches = 0;
    {
        HostSpan verify(tr, "verify", measure);
        for (int wid = 0; wid < kScanWarps; ++wid)
            mismatches += got[wid] != expect[wid];
    }
    tr.endHost(measure);
    pc.stop(res);

    const uint64_t reads = pages * (kWordsPerPage / kWarpSize);
    res.attempted = reads + kScanWarps;
    res.fail(errored_ops, "scan-overflow: apointer reads with errored lanes");
    res.fail(mismatches, "scan-overflow: per-warp checksums disagree with "
                         "the host reference");

    const double secs = st.dev->costModel().toSeconds(cycles);
    res.sim["sim_p50_us"] = st.us(dt.op.quantile(0.50));
    res.sim["sim_p99_us"] = st.us(dt.op.quantile(0.99));
    res.sim["sim_qps"] = pages / secs;
    res.layer["sim_gbps"] = file_bytes / secs / 1e9;
    res.layer["ops.samples"] = static_cast<double>(dt.op.v.size());
    dt.fill(res.layer);
    recordPhaseStats(st.stats(), res);
    return res;
}

// ---------------------------------------------------------------------
// rmw-zipf: 32 warps read-modify-write Zipf-skewed 4-byte counters
// through O_GRDWR apointers with the per-threadblock TLB on. The file
// is 1.5x the page cache; each warp owns 32 words of every page, so
// the final file is exactly predictable from the generated updates.
// ---------------------------------------------------------------------

constexpr int kRmwBlocks = 4;
constexpr int kRmwWarpsPerBlock = 8;
constexpr int kRmwWarps = kRmwBlocks * kRmwWarpsPerBlock;
static_assert(kRmwWarps * kWarpSize == kWordsPerPage,
              "every word of a page has exactly one owning lane");
constexpr uint32_t kRmwFrames = 1024;
constexpr uint64_t kRmwPages = 1536;
constexpr uint32_t kRmwUpdatesPerWarp = 2048;
/** Updates per operation: a warp applies its updates in batches. */
constexpr uint32_t kRmwBatch = 32;
static_assert(kRmwUpdatesPerWarp % kRmwBatch == 0, "whole batches");

/** YCSB's default Zipfian constant (Cooper et al., SoCC 2010). */
constexpr double kRmwZipfS = 0.99;

/** Increment lane @p l of warp @p wid applies at update @p k. */
inline uint32_t
rmwDelta(uint64_t dseed, uint64_t wid, uint64_t k, int l)
{
    uint64_t h = mix64(dseed ^ (wid << 40) ^ k);
    return 1 + static_cast<uint32_t>((h >> (2 * l)) & 3);
}

RepeatResult
runRmwZipf(uint64_t seed, Tracer& tr, bool doctor, bool setup_only)
{
    RepeatResult res;
    const uint64_t file_bytes = kRmwPages * kPageBytes;

    Clock::time_point setup_t0 = Clock::now();
    int32_t setup = tr.beginHost("setup");
    ap::gpufs::Config fscfg;
    fscfg.numFrames = kRmwFrames;
    fscfg.readahead.enabled = true;
    ap::core::GvmConfig gcfg;
    gcfg.useTlb = true;
    Stack st(gcfg, fscfg);

    int32_t fill = tr.beginHost("fill", setup);
    ap::hostio::FileId f = st.bs.create("counters.bin", file_bytes);
    std::vector<uint32_t> expect(file_bytes / 4);
    Rng content(subSeed(seed, 11));
    for (uint32_t& x : expect)
        x = static_cast<uint32_t>(content.next());
    st.bs.pwrite(f, expect.data(), file_bytes, 0);
    tr.endHost(fill);

    // Pre-generate every warp's page sequence (Zipf over a seeded
    // permutation of pages) and replay the updates on the host copy.
    int32_t ref = tr.beginHost("reference", setup);
    const Zipf zipf(kRmwPages, kRmwZipfS, subSeed(seed, 12));
    const uint64_t dseed = subSeed(seed, 13);
    std::vector<std::vector<uint32_t>> pages(kRmwWarps);
    for (int wid = 0; wid < kRmwWarps; ++wid) {
        Rng r(subSeed(seed, 100 + wid));
        pages[wid].resize(kRmwUpdatesPerWarp);
        for (uint32_t k = 0; k < kRmwUpdatesPerWarp; ++k) {
            const uint64_t pg = zipf.sample(r);
            pages[wid][k] = static_cast<uint32_t>(pg);
            for (int l = 0; l < kWarpSize; ++l)
                expect[pg * kWordsPerPage + wid * kWarpSize + l] +=
                    rmwDelta(dseed, wid, k, l);
        }
    }
    if (doctor)
        expect[pages[0][0] * kWordsPerPage] += 1;
    tr.endHost(ref);
    tr.endHost(setup);
    res.setupS.push_back(secondsSince(setup_t0));
    if (setup_only)
        return res;

    PhaseClock pc;
    pc.start();
    int32_t measure = tr.beginHost("measure");
    DerefTiming dt;
    uint64_t errored_ops = 0;
    ap::sim::Cycles cycles = 0;
    {
        HostSpan launch(tr, "launch", measure);
        cycles = st.dev->launch(
            kRmwBlocks, kRmwWarpsPerBlock, [&](Warp& w) {
                const int wid = w.globalWarpId();
                DevSpan warp_span(tr, w, "warp", -1, wid);
                const int32_t ws = warp_span.index();
                ap::core::AptrVec<uint32_t> p;
                {
                    DevSpan s(tr, w, "gvmmap", ws, wid);
                    p = ap::core::gvmmap<uint32_t>(
                        w, *st.rt, file_bytes, ap::hostio::O_GRDWR, f, 0);
                }
                {
                    DevSpan s(tr, w, "add", ws, wid);
                    p.addPerLane(w, LaneArray<int64_t>::iota(
                                        int64_t(wid) * kWarpSize));
                }
                int64_t cur = 0; // current page
                for (uint32_t b = 0; b < kRmwUpdatesPerWarp; b += kRmwBatch) {
                    const uint64_t op =
                        (uint64_t(wid) * kRmwUpdatesPerWarp + b) / kRmwBatch;
                    const double t_op = w.now();
                    DevSpan op_span(tr, w, "batch", ws, op);
                    const int32_t os = op_span.index();
                    for (uint32_t k = b; k < b + kRmwBatch; ++k) {
                        const int64_t pg = pages[wid][k];
                        if (pg != cur) {
                            DevSpan s(tr, w, "add", os, op);
                            p.add(w, (pg - cur) * static_cast<int64_t>(
                                                      kWordsPerPage));
                            cur = pg;
                        }
                        const bool hit = allLinked(p);
                        const double t_rd = w.now();
                        LaneArray<uint32_t> v;
                        {
                            DevSpan s(tr, w, "read", os, op);
                            v = p.read(w);
                        }
                        (hit ? dt.hitDeref : dt.faultDeref)
                            .add(w.now() - t_rd);
                        for (int l = 0; l < kWarpSize; ++l)
                            v[l] += rmwDelta(dseed, wid, k, l);
                        {
                            DevSpan s(tr, w, "write", os, op);
                            p.write(w, v);
                        }
                        if (p.erroredLanes())
                            errored_ops++;
                    }
                    dt.op.add(w.now() - t_op);
                }
                {
                    DevSpan s(tr, w, "destroy", ws, wid);
                    p.destroy(w);
                }
            });
    }
    {
        HostSpan flush(tr, "flush", measure);
        st.fs->cache().flushDirtyHost();
    }
    uint64_t mismatches = 0;
    {
        HostSpan verify(tr, "verify", measure);
        const uint8_t* data = st.bs.data(f, 0, file_bytes);
        for (uint64_t i = 0; i < expect.size(); ++i) {
            uint32_t x;
            std::memcpy(&x, data + i * 4, 4);
            mismatches += x != expect[i];
        }
    }
    tr.endHost(measure);
    pc.stop(res);

    const uint64_t updates = uint64_t(kRmwWarps) * kRmwUpdatesPerWarp;
    res.attempted = updates + expect.size();
    res.fail(errored_ops, "rmw-zipf: updates with errored lanes");
    res.fail(mismatches, "rmw-zipf: counters differ from the host "
                         "reference after flushDirtyHost");

    const double secs = st.dev->costModel().toSeconds(cycles);
    res.sim["sim_p50_us"] = st.us(dt.op.quantile(0.50));
    res.sim["sim_p99_us"] = st.us(dt.op.quantile(0.99));
    res.sim["sim_qps"] = updates / secs;
    res.layer["sim_mups"] = updates * kWarpSize / secs / 1e6;
    res.layer["sim_gbps"] = updates * kWarpSize * 8.0 / secs / 1e9;
    res.layer["ops.samples"] = static_cast<double>(dt.op.v.size());
    dt.fill(res.layer);
    recordPhaseStats(st.stats(), res);
    return res;
}

// ---------------------------------------------------------------------
// serve-lsh: open-loop Poisson collage/LSH queries (every 8th a 16 KB
// file scan) through serving::serve on a warmed, resident working
// set, at a fixed ladder of offered rates. One fresh stack per rung.
// ---------------------------------------------------------------------

/**
 * The rate ladder and each rung's request count. serve() takes arrival
 * times in absolute cycles from 0, so the requests due while the
 * warm-up kernel runs are released late, in one burst (serving.late_us).
 * The counts keep them under 1% of every rung (serving.late_frac).
 */
struct ServeRung
{
    double rateQps;
    uint32_t requests;
};
constexpr ServeRung kServeLadder[] = {
    {100e3, 8192}, {150e3, 8192}, {210e3, 12288}};
constexpr size_t kServeNominal = 0;
constexpr double kServeSloP99Us = 1000.0;
constexpr uint32_t kServeImages = 256;
constexpr uint32_t kServeQueryBlocks = 2048;
constexpr uint64_t kServeScanWindow = 256 * 1024;

/** Seeds of the serving workloads' fixed image corpus and query pool. */
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kQueryPoolSeed = 7;

/** Set-up shared by the serving workloads' rungs. */
struct ServingSetup
{
    ap::collage::Dataset ds;
    ap::serving::ServingWorkload wl;
};

ServingSetup
buildServing(Stack& st, Tracer& tr, int32_t setup, uint32_t images,
             uint32_t query_blocks)
{
    ServingSetup s;
    int32_t dspan = tr.beginHost("dataset", setup);
    // The image corpus and the query pool are fixed, as a deployed
    // index and its catalogue of queries are; the seed draws which
    // queries arrive and when. (A seeded pool moved the nominal p50,
    // a log2-bucket estimate at a bucket edge, by up to 9%.)
    ap::collage::DatasetParams dp;
    dp.numImages = images;
    dp.numBuckets = images / 8;
    dp.seed = kCorpusSeed;
    s.ds = ap::collage::Dataset::build(st.bs, dp);
    tr.endHost(dspan);
    // makeWorkload computes the host reference winner of every query
    // block and writes the scan side file.
    int32_t ref = tr.beginHost("reference", setup);
    s.wl = ap::serving::makeWorkload(st.bs, s.ds, query_blocks,
                                     kQueryPoolSeed);
    tr.endHost(ref);
    return s;
}

/**
 * Fault every page of @p files into the cache (one gmmap/gmunmap per
 * page across 128 warps), so the measured phase starts warm. Past
 * 128 warps the warm-up is bound by host-IO bandwidth.
 */
void
warmUp(Stack& st, Tracer& tr, int32_t setup,
       const std::vector<std::pair<ap::hostio::FileId, uint64_t>>& files)
{
    HostSpan span(tr, "warmup", setup);
    std::vector<std::pair<ap::hostio::FileId, uint64_t>> pages;
    for (auto [f, bytes] : files)
        for (uint64_t off = 0; off < bytes; off += kPageBytes)
            pages.emplace_back(f, off);
    st.dev->launch(16, 8, [&](Warp& w) {
        for (size_t i = w.globalWarpId(); i < pages.size(); i += 128) {
            auto [f, off] = pages[i];
            if (st.fs->gmmap(w, f, off, ap::hostio::O_GRDONLY))
                st.fs->gmunmap(w, f, off);
        }
    });
}

RepeatResult
runServeLsh(uint64_t seed, Tracer& tr, bool doctor, bool setup_only)
{
    RepeatResult res;
    double slo_qps = 0, late_frac = 0;
    std::string digests;
    for (size_t rung = 0; rung < std::size(kServeLadder); ++rung) {
        const double rate = kServeLadder[rung].rateQps;
        Clock::time_point setup_t0 = Clock::now();
        int32_t setup = tr.beginHost("setup");
        ap::gpufs::Config fscfg;
        fscfg.numFrames = 4096;
        Stack st(ap::core::GvmConfig{}, fscfg);
        ServingSetup s =
            buildServing(st, tr, setup, kServeImages, kServeQueryBlocks);
        // Scans draw their offsets from the first 256 KB of the side
        // file, which keeps the whole working set resident.
        s.wl.scanFileBytes = kServeScanWindow;
        if (doctor)
            for (uint32_t& e : s.wl.expected)
                e ^= 1u;
        warmUp(st, tr, setup,
               {{s.ds.histFile, uint64_t(kServeImages) *
                                    s.ds.params.recordSize},
                {s.wl.scanFile, kServeScanWindow}});
        tr.endHost(setup);
        res.setupS.push_back(secondsSince(setup_t0));
        if (setup_only)
            return res;

        ap::serving::ServingConfig cfg;
        cfg.arrival = ap::serving::Arrival::Poisson;
        cfg.requests = kServeLadder[rung].requests;
        cfg.clients = cfg.requests;
        cfg.arrivals.meanGapCycles =
            st.dev->costModel().clockGhz * 1e9 / rate;
        cfg.scanEvery = 8;
        cfg.scanBytes = 16384;
        cfg.ioDepthCap = 16;
        cfg.numBlocks = 2;
        cfg.warpsPerBlock = 8;
        cfg.seed = subSeed(seed, 23 + rung);

        // Arrival times are absolute cycles from 0, so requests due
        // before the warmed kernel starts are late by up to this much.
        const double late_cycles = st.dev->engine().now();
        uint32_t late = 0;
        for (double t : ap::serving::openLoopArrivals(
                 cfg.arrival, cfg.arrivals, cfg.requests, cfg.seed))
            late += t < late_cycles;
        late_frac = std::max(late_frac, double(late) / cfg.requests);
        st.stats().reset();
        PhaseClock pc;
        pc.start();
        ap::serving::ServingResult r;
        {
            HostSpan measure(tr, "measure");
            HostSpan serve(tr, "serve", measure.index());
            r = ap::serving::serve(*st.rt, s.ds, s.wl, cfg);
        }
        pc.stop(res);

        res.attempted += cfg.requests;
        res.fail(r.shed, "serve-lsh: shed requests");
        res.fail(r.validationErrors,
                 "serve-lsh: answers disagree with the host reference");
        res.fail(cfg.requests - std::min(cfg.requests,
                                         r.completed + r.shed),
                 "serve-lsh: unresolved requests");
        digests += statsJson(st.stats());
        res.instructions += st.stats().counter("sim.instructions");

        const double p99_us = st.us(r.e2eP99);
        if (r.shed == 0 && p99_us <= kServeSloP99Us)
            slo_qps = std::max(slo_qps, rate);
        res.layer["serving.p99_us_" +
                  std::to_string(static_cast<int>(rate / 1000)) + "k"] =
            p99_us;
        if (rung != kServeNominal)
            continue;
        const double secs = st.dev->costModel().toSeconds(r.elapsed);
        res.sim["sim_p50_us"] = st.us(r.e2eP50);
        res.sim["sim_p99_us"] = p99_us;
        res.sim["sim_qps"] = r.qps;
        res.layer["sim_gbps"] =
            (cfg.requests / cfg.scanEvery) * double(cfg.scanBytes) / secs /
            1e9;
        res.layer["ops.samples"] = r.completed;
        res.layer["serving.queue_wait_p95_us"] = st.us(r.queueWaitP95);
        res.layer["serving.service_p50_us"] = st.us(r.serviceP50);
        res.layer["serving.io_deferrals"] = double(r.ioDeferrals);
        res.layer["serving.shed"] = r.shed;
        res.layer["serving.late_us"] = st.us(late_cycles);
        layerMetricsFromStats(st.stats(), res.layer);
    }
    res.layer["slo_qps"] = slo_qps;
    res.layer["serving.late_frac"] = late_frac;
    res.layer["sim.stats_digest"] = digest52(digests);
    return res;
}

// ---------------------------------------------------------------------
// tenant-mix: a latency-sensitive victim tenant and a streaming
// antagonist share a 512-frame cache through serving::serve, closed
// loop, QoS isolation on (registry attached to cache and host IO).
// ---------------------------------------------------------------------

constexpr uint32_t kTenantVictimRequests = 16384;
constexpr uint32_t kTenantAntagonistRequests = 96;

RepeatResult
runTenantMix(uint64_t seed, Tracer& tr, bool doctor, bool setup_only)
{
    RepeatResult res;
    Clock::time_point setup_t0 = Clock::now();
    int32_t setup = tr.beginHost("setup");
    ap::gpufs::Config fscfg;
    fscfg.numFrames = 512;
    fscfg.readahead.enabled = true;
    fscfg.readahead.maxQueueDepth = 96;
    fscfg.readahead.freeFrameWatermark = 0;
    Stack st(ap::core::GvmConfig{}, fscfg);
    ServingSetup s = buildServing(st, tr, setup, 256, 32);
    if (doctor) {
        // Doctor the data instead of the reference: the victim's first
        // sweep scans page 0, so its answer must disagree.
        float bad = -1.0f;
        st.bs.pwrite(s.wl.scanFile, &bad, sizeof(bad), 0);
    }
    tr.endHost(setup);
    res.setupS.push_back(secondsSince(setup_t0));
    if (setup_only)
        return res;

    ap::serving::ServingConfig cfg;
    cfg.arrival = ap::serving::Arrival::Closed;
    cfg.numBlocks = 4;
    cfg.warpsPerBlock = 4;
    cfg.seed = subSeed(seed, 31);
    cfg.qosIsolation = true;

    ap::serving::TenantTraffic victim;
    victim.name = "victim";
    victim.clients = 16;
    victim.requests = kTenantVictimRequests;
    victim.meanThinkCycles = 500000;
    victim.scanEvery = 1;
    victim.scanBytes = 4096;
    victim.scanWindowBytes = 128 * 1024;
    victim.scanSweep = true;
    victim.scanWideEvery = 8;
    cfg.tenants.push_back(victim);

    ap::serving::TenantTraffic antagonist;
    antagonist.name = "antagonist";
    antagonist.clients = 8;
    antagonist.requests = kTenantAntagonistRequests;
    antagonist.meanThinkCycles = 5000;
    antagonist.startCycles = 500000;
    antagonist.scanEvery = 1;
    antagonist.scanBytes = 128 * 1024;
    cfg.tenants.push_back(antagonist);

    PhaseClock pc;
    pc.start();
    ap::serving::ServingResult r;
    {
        HostSpan measure(tr, "measure");
        HostSpan serve(tr, "serve", measure.index());
        r = ap::serving::serve(*st.rt, s.ds, s.wl, cfg);
    }
    pc.stop(res);

    const uint32_t want = victim.requests + antagonist.requests;
    res.attempted = want + cfg.tenants.size();
    res.fail(r.shed, "tenant-mix: shed requests");
    res.fail(r.validationErrors,
             "tenant-mix: answers disagree with the host reference");
    res.fail(want - std::min(want, r.completed + r.shed),
             "tenant-mix: unresolved requests");
    res.fail(r.teardownOk ? 0 : cfg.tenants.size(),
             "tenant-mix: tenant teardown left residual state");

    const ap::serving::TenantResult& v = r.tenants.at(0);
    const ap::serving::TenantResult& a = r.tenants.at(1);
    const double secs = st.dev->costModel().toSeconds(r.elapsed);
    res.sim["sim_p50_us"] = st.us(v.e2eP50);
    res.sim["sim_p99_us"] = st.us(v.e2eP99);
    res.sim["sim_qps"] = r.qps;
    res.layer["sim_gbps"] =
        (double(v.completed) * victim.scanBytes +
         double(a.completed) * antagonist.scanBytes) /
        secs / 1e9;
    res.layer["ops.samples"] = v.completed;
    res.layer["serving.queue_wait_p95_us"] = st.us(r.queueWaitP95);
    res.layer["serving.service_p50_us"] = st.us(r.serviceP50);
    res.layer["serving.io_deferrals"] = double(r.ioDeferrals);
    res.layer["serving.shed"] = r.shed;
    res.layer["tenant.victim_major_faults"] = double(v.majorFaults);
    res.layer["tenant.victim_io_mb"] = v.ioBytes / (1024.0 * 1024.0);
    recordPhaseStats(st.stats(), res);
    return res;
}

} // namespace

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"serve-lsh", runServeLsh},
        {"scan-overflow", runScanOverflow},
        {"rmw-zipf", runRmwZipf},
        {"tenant-mix", runTenantMix},
    };
    return all;
}

} // namespace perfbench
