/**
 * @file
 * Shared pieces of the repository benchmark: seeded input generators,
 * the simulated stack every workload builds, the span recorder behind
 * the traced run, and the conversion of a measured phase's device
 * statistics into the per-layer metric set.
 *
 * The benchmark drives the system only through its public entry
 * points; everything here sits outside src/ and measures each layer
 * from the outside.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "hostio/backing_store.hh"
#include "hostio/host_io_engine.hh"
#include "sim/device.hh"

namespace perfbench {

// ---------------------------------------------------------------------
// Generators. Every input of every workload derives from the run's
// --seed through these, so one seed names one set of inputs.
// ---------------------------------------------------------------------

/** SplitMix64 finalizer: a bijective 64-bit mix. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Sub-seed @p salt of @p seed: independent streams per use. */
inline uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    return mix64(seed ^ mix64(salt));
}

/** SplitMix64 stream. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        s_ += 0x9e3779b97f4a7c15ULL;
        return mix64(s_ - 0x9e3779b97f4a7c15ULL);
    }

    /** Uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

    /** Uniform integer in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t s_;
};

/**
 * Zipf(s) over ranks [0, n): rank r is drawn with probability
 * proportional to 1 / (r + 1)^s. A seeded permutation maps ranks to
 * items, so the hot items are scattered rather than clustered at 0.
 */
class Zipf
{
  public:
    Zipf(uint64_t n, double s, uint64_t perm_seed);

    uint64_t sample(Rng& rng) const;

  private:
    std::vector<double> cdf_;
    std::vector<uint64_t> item_;
};

// ---------------------------------------------------------------------
// Timing.
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU seconds (user + system). */
double processCpuSeconds();

/** Peak resident set size of this process, MB. */
double peakRssMb();

// ---------------------------------------------------------------------
// Span recorder for the traced run.
// ---------------------------------------------------------------------

/**
 * In-memory span log. Host spans are timed in host seconds around
 * the calls the benchmark makes into the system; device spans are
 * timed in simulated cycles with Warp::now() around each apointer
 * call. Spans carry a parent index and a per-operation ID, and are
 * written out only when the run ends. A disabled tracer records
 * nothing and costs one branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on_(enabled) {}

    /** Open a span; returns its index (or -1 when disabled). */
    int32_t begin(const char* name, bool device, double start,
                  int32_t parent, uint64_t op);

    /** Close span @p idx at @p end (no-op for -1). */
    void end(int32_t idx, double end);

    /** Open a host span at the current host time (operation ID 0). */
    int32_t beginHost(const char* name, int32_t parent = -1);

    /** Close a host span at the current host time. */
    void endHost(int32_t idx);

    size_t size() const { return spans_.size(); }

    /**
     * Self time per span name: each span's duration minus the part of
     * it its children cover, summed over spans of that name. Host
     * names are in seconds, device names in cycles.
     */
    std::map<std::string, double> selfTimes() const;

    /** Write every span as one JSON document. */
    void write(const std::string& path) const;

  private:
    struct Span
    {
        const char* name;
        bool device;
        double start;
        double end;
        int32_t parent;
        uint64_t op;
    };

    bool on_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII host span. */
class HostSpan
{
  public:
    HostSpan(Tracer& t, const char* name, int32_t parent = -1)
        : t_(t), idx_(t.beginHost(name, parent))
    {
    }
    ~HostSpan() { t_.endHost(idx_); }
    HostSpan(const HostSpan&) = delete;
    HostSpan& operator=(const HostSpan&) = delete;

    int32_t index() const { return idx_; }

  private:
    Tracer& t_;
    int32_t idx_;
};

// ---------------------------------------------------------------------
// The simulated stack.
// ---------------------------------------------------------------------

/** Device + host IO + GPUfs + ActivePointers runtime. */
struct Stack
{
    Stack(const ap::core::GvmConfig& gcfg, const ap::gpufs::Config& fscfg);

    ap::hostio::BackingStore bs;
    std::unique_ptr<ap::sim::Device> dev;
    std::unique_ptr<ap::hostio::HostIoEngine> io;
    std::unique_ptr<ap::gpufs::GpuFs> fs;
    std::unique_ptr<ap::core::GvmRuntime> rt;

    ap::StatGroup& stats() { return dev->stats(); }

    /** Simulated microseconds of @p cycles. */
    double us(double cycles) const
    {
        return dev->costModel().toSeconds(cycles) * 1e6;
    }
};

// ---------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/**
 * Latency samples of one kind of device operation, in cycles. Exact
 * percentiles (sorted samples, nearest rank).
 */
struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }
    double quantile(double q) const;
    double mean() const;
};

/** What one repeat of a workload measured. */
struct RepeatResult
{
    /** Host seconds of each set-up in this repeat (one per phase). */
    std::vector<double> setupS;

    /** Host wall and CPU seconds of the measured phases. */
    double hostS = 0;
    double cpuS = 0;

    /** Simulated warp-instructions executed by the measured phases. */
    double instructions = 0;

    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Simulated end-to-end metrics (deterministic for a seed). */
    Metrics sim;

    /** Per-layer metrics (deterministic for a seed). */
    Metrics layer;

    /** Diagnostics printed on failure. */
    std::vector<std::string> errors;

    void
    fail(uint64_t n, const std::string& why)
    {
        if (n == 0)
            return;
        failed += n;
        errors.push_back(why);
    }
};

/**
 * Fill the per-layer metrics derivable from a measured phase's device
 * statistics (sim, core, gpufs, hostio, prefetch, tenant counters)
 * into @p out.
 */
void layerMetricsFromStats(const ap::StatGroup& s, Metrics& out);

/** 52-bit FNV-1a digest of @p s, exact as a double. */
double digest52(const std::string& s);

/** The phase's full StatGroup::dumpJson text. */
std::string statsJson(const ap::StatGroup& s);

/**
 * Every workload's entry point: one repeat of the workload for @p seed.
 * @p doctor corrupts the host reference (the run must then fail);
 * @p setup_only returns after timing one set-up.
 */
using WorkloadFn = RepeatResult (*)(uint64_t seed, Tracer& tr,
                                    bool doctor, bool setup_only);

struct Workload
{
    const char* name;
    WorkloadFn run;
};

/** The four workloads, in BENCHMARK.json order. */
const std::vector<Workload>& workloads();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
