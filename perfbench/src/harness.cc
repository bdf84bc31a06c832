#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/json.hh"

namespace perfbench {

Zipf::Zipf(uint64_t n, double s, uint64_t perm_seed)
    : cdf_(n), item_(n)
{
    double sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf_[r] = sum;
    }
    for (double& c : cdf_)
        c /= sum;
    for (uint64_t i = 0; i < n; ++i)
        item_[i] = i;
    Rng rng(perm_seed);
    for (uint64_t i = n - 1; i > 0; --i)
        std::swap(item_[i], item_[rng.below(i + 1)]);
}

uint64_t
Zipf::sample(Rng& rng) const
{
    double u = rng.uniform();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    size_t r = std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
    return item_[r];
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int32_t
Tracer::begin(const char* name, bool device, double start,
              int32_t parent, uint64_t op)
{
    if (!on_)
        return -1;
    spans_.push_back(Span{name, device, start, start, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
}

void
Tracer::end(int32_t idx, double end)
{
    if (idx >= 0)
        spans_[static_cast<size_t>(idx)].end = end;
}

int32_t
Tracer::beginHost(const char* name, int32_t parent)
{
    if (!on_)
        return -1;
    return begin(name, false, secondsSince(origin_), parent, 0);
}

void
Tracer::endHost(int32_t idx)
{
    if (idx >= 0)
        end(idx, secondsSince(origin_));
}

std::map<std::string, double>
Tracer::selfTimes() const
{
    // Children of one parent never overlap (host calls are sequential,
    // one warp's apointer calls are sequential), so the covered part
    // is the sum of the children's durations.
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::string key =
            std::string(s.device ? "dev." : "host.") + s.name;
        // Clamp the rounding residue of a span its children fill.
        out[key] += std::max(0.0, (s.end - s.start) - child[i]);
    }
    return out;
}

void
Tracer::write(const std::string& path) const
{
    std::ofstream os(path);
    os << "{\"clock\":{\"host\":\"s\",\"device\":\"cycles\"},\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (i)
            os << ",\n";
        os << "{\"id\":" << i << ",\"name\":";
        ap::json::quote(os, s.name);
        os << ",\"clock\":\"" << (s.device ? "device" : "host")
           << "\",\"start\":";
        ap::json::number(os, s.start);
        os << ",\"end\":";
        ap::json::number(os, s.end);
        os << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
    }
    os << "]}\n";
}

Stack::Stack(const ap::core::GvmConfig& gcfg, const ap::gpufs::Config& fscfg)
{
    dev = std::make_unique<ap::sim::Device>();
    io = std::make_unique<ap::hostio::HostIoEngine>(*dev, bs);
    fs = std::make_unique<ap::gpufs::GpuFs>(*dev, *io, fscfg);
    rt = std::make_unique<ap::core::GvmRuntime>(*fs, gcfg);
}

double
Samples::quantile(double q) const
{
    if (v.empty())
        return 0;
    std::vector<double> s = v;
    size_t k = static_cast<size_t>(std::ceil(q * s.size()));
    k = std::clamp<size_t>(k, 1, s.size()) - 1;
    std::nth_element(s.begin(), s.begin() + k, s.end());
    return s[k];
}

double
Samples::mean() const
{
    if (v.empty())
        return 0;
    double sum = 0;
    for (double x : v)
        sum += x;
    return sum / v.size();
}

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
sumCounters(const ap::StatGroup& s, const char* prefix,
            std::initializer_list<const char*> reasons)
{
    double total = 0;
    for (const char* r : reasons)
        total += s.counter(std::string(prefix) + r);
    return total;
}

double
histQ(const ap::StatGroup& s, const std::string& name, double q)
{
    const ap::Histogram* h = s.findHistogram(name);
    return h ? h->quantile(q) : 0;
}

} // namespace

void
layerMetricsFromStats(const ap::StatGroup& s, Metrics& m)
{
    auto c = [&](const char* n) { return double(s.counter(n)); };
    constexpr double kMb = 1024.0 * 1024.0;

    m["sim.instructions"] = c("sim.instructions");
    m["sim.lock_contended_frac"] =
        ratio(c("sim.lock_contended"), c("sim.lock_acquires"));

    m["core.fault_entries"] = c("core.fault_entries");
    m["core.pages_linked"] = c("core.pages_linked");
    m["core.tlb_hit_ratio"] = ratio(
        c("core.tlb_hits"), c("core.tlb_hits") + c("core.tlb_misses"));
    const auto tlb_reasons = {"conflict", "invalidation", "shootdown",
                              "teardown"};
    m["core.tlb_doa_rate"] =
        ratio(sumCounters(s, "tlb.doa.", tlb_reasons),
              sumCounters(s, "tlb.evict.", tlb_reasons));

    m["gpufs.major_faults"] = c("gpufs.major_faults");
    m["gpufs.minor_faults"] = c("gpufs.minor_faults");
    m["gpufs.evictions"] = c("gpufs.evictions");
    m["gpufs.writebacks"] = c("gpufs.writebacks");
    m["gpufs.alloc_cycles_p50"] = histQ(s, "faultpath.major.alloc", 0.50);
    m["gpufs.alloc_cycles_p99"] = histQ(s, "faultpath.major.alloc", 0.99);
    m["gpufs.fault_cycles_p50"] = histQ(s, "faultpath.major.total", 0.50);
    m["gpufs.fault_cycles_p99"] = histQ(s, "faultpath.major.total", 0.99);
    const ap::Histogram* hits = s.findHistogram("pagecache.life.demand_hits");
    m["gpufs.hits_per_fill"] = hits ? hits->mean() : 0;
    const auto pc_reasons = {"clock_sweep", "reserve_refill",
                             "bucket_overflow", "poisoned_reclaim",
                             "spec_victim", "cross_tenant", "teardown"};
    m["gpufs.doa_frac"] =
        ratio(sumCounters(s, "pagecache.doa.", pc_reasons),
              sumCounters(s, "pagecache.evict.", pc_reasons));

    m["hostio.reqs_per_transfer"] =
        ratio(c("hostio.read_requests") + c("hostio.write_requests"),
              c("hostio.transfers"));
    m["hostio.read_mb"] = c("hostio.read_bytes") / kMb;
    m["hostio.write_mb"] = c("hostio.write_bytes") / kMb;
    m["hostio.retries"] = c("hostio.retries");
    m["hostio.queue_wait_cycles_p50"] =
        histQ(s, "faultpath.major.queue_wait", 0.50);
    m["hostio.queue_wait_cycles_p99"] =
        histQ(s, "faultpath.major.queue_wait", 0.99);
    m["hostio.transfer_cycles_p50"] =
        histQ(s, "faultpath.major.transfer", 0.50);

    m["prefetch.issued"] = c("prefetch.issued");
    m["prefetch.accuracy"] =
        ratio(c("prefetch.useful"), c("prefetch.issued"));
    m["prefetch.coverage"] =
        ratio(c("prefetch.useful"),
              c("prefetch.useful") + c("gpufs.major_faults"));
    m["prefetch.throttled"] = c("prefetch.throttled");

    m["tenant.evict_skipped"] = c("tenant.evict_skipped");
    m["tenant.cross_evictions"] = c("tenant.cross_evictions");
    m["tenant.reserve_hits"] = c("tenant.reserve_hits");
}

double
digest52(const std::string& s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return static_cast<double>(h >> 12);
}

std::string
statsJson(const ap::StatGroup& s)
{
    std::ostringstream os;
    s.dumpJson(os);
    return os.str();
}

} // namespace perfbench
