/**
 * @file
 * apbench: run one benchmark workload for a given time and print its
 * metrics. The last line of standard output is one JSON object:
 *
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1 a
 * separate traced run adds spans and the metrics are the per-layer
 * set, including the tracing overhead. The workload repeats from a
 * fresh stack until --seconds have passed; host times are medians
 * over the repeats, and every repeat of a seed must reproduce the
 * same simulated statistics bit for bit.
 *
 * Usage: apbench --workload <name> --seed <n> --seconds <s>
 *                --trace <0|1> [--trace-out <path>] [--doctor]
 */

#include <malloc.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "harness.hh"
#include "util/json.hh"

namespace perfbench {
namespace {

struct MetricDef
{
    const char* name;
    const char* unit;
};

/** End-to-end metrics (BENCHMARK.json "end_to_end"). */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"peak_rss_mb", "MB"}, {"sim_p50_us", "us"},
    {"sim_p99_us", "us"},  {"sim_qps", "1/s"},
};

/** Per-layer metrics (BENCHMARK.json "per_layer"). */
constexpr MetricDef kPerLayer[] = {
    {"fail_frac", "ratio"},
    {"slo_qps", "1/s"},
    {"sim_gbps", "GB/s"},
    {"sim_mups", "Mupd/s"},
    {"ops.samples", "count"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
    {"host_s", "s"},
    {"sim.host_cpu_s", "s"},
    {"sim.minst_per_host_s", "Minst/s"},
    {"sim.instructions", "count"},
    {"sim.lock_contended_frac", "ratio"},
    {"sim.stats_digest", "digest"},
    {"core.fault_entries", "count"},
    {"core.pages_linked", "count"},
    {"core.hit_deref_cycles_mean", "cycles"},
    {"core.fault_deref_cycles_p50", "cycles"},
    {"core.fault_deref_cycles_p99", "cycles"},
    {"core.tlb_hit_ratio", "ratio"},
    {"core.tlb_doa_rate", "ratio"},
    {"gpufs.major_faults", "count"},
    {"gpufs.minor_faults", "count"},
    {"gpufs.evictions", "count"},
    {"gpufs.writebacks", "count"},
    {"gpufs.alloc_cycles_p50", "cycles"},
    {"gpufs.alloc_cycles_p99", "cycles"},
    {"gpufs.fault_cycles_p50", "cycles"},
    {"gpufs.fault_cycles_p99", "cycles"},
    {"gpufs.hits_per_fill", "count"},
    {"gpufs.doa_frac", "ratio"},
    {"hostio.reqs_per_transfer", "ratio"},
    {"hostio.read_mb", "MB"},
    {"hostio.write_mb", "MB"},
    {"hostio.retries", "count"},
    {"hostio.queue_wait_cycles_p50", "cycles"},
    {"hostio.queue_wait_cycles_p99", "cycles"},
    {"hostio.transfer_cycles_p50", "cycles"},
    {"prefetch.issued", "count"},
    {"prefetch.accuracy", "ratio"},
    {"prefetch.coverage", "ratio"},
    {"prefetch.throttled", "count"},
    {"serving.queue_wait_p95_us", "us"},
    {"serving.service_p50_us", "us"},
    {"serving.io_deferrals", "count"},
    {"serving.shed", "count"},
    {"serving.late_us", "us"},
    {"serving.late_frac", "ratio"},
    {"serving.p99_us_100k", "us"},
    {"serving.p99_us_150k", "us"},
    {"serving.p99_us_210k", "us"},
    {"tenant.evict_skipped", "count"},
    {"tenant.cross_evictions", "count"},
    {"tenant.reserve_hits", "count"},
    {"tenant.victim_major_faults", "count"},
    {"tenant.victim_io_mb", "MB"},
    {"self.host.setup_s", "s"},
    {"self.host.dataset_s", "s"},
    {"self.host.fill_s", "s"},
    {"self.host.reference_s", "s"},
    {"self.host.warmup_s", "s"},
    {"self.host.measure_s", "s"},
    {"self.host.launch_s", "s"},
    {"self.host.serve_s", "s"},
    {"self.host.flush_s", "s"},
    {"self.host.verify_s", "s"},
    {"self.dev.warp_cycles", "cycles"},
    {"self.dev.gvmmap_cycles", "cycles"},
    {"self.dev.page_cycles", "cycles"},
    {"self.dev.batch_cycles", "cycles"},
    {"self.dev.add_cycles", "cycles"},
    {"self.dev.read_cycles", "cycles"},
    {"self.dev.write_cycles", "cycles"},
    {"self.dev.destroy_cycles", "cycles"},
};

/** Fewest set-ups setup_s is the median of. */
constexpr size_t kMinSetups = 15;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool doctor = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "apbench: " << why
              << "\nusage: apbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>] "
                 "[--doctor]\nworkloads:";
    for (const Workload& w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string_view k = argv[i];
        if (k == "--doctor") {
            a.doctor = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + std::string(k));
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--trace-out")
                a.traceOut = v;
            else
                usage("unknown argument " + std::string(k));
        } catch (const std::exception&) {
            usage("bad value for " + std::string(k) + ": " + v);
        }
    }
    return a;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics& values, const MetricDef* defs, size_t ndefs)
{
    for (size_t i = 0; i < ndefs; ++i) {
        auto it = values.find(defs[i].name);
        std::cout << "  " << defs[i].name << " = "
                  << (it == values.end() ? 0.0 : it->second) << " "
                  << defs[i].unit << "\n";
    }
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":{";
    for (size_t i = 0; i < ndefs; ++i) {
        auto it = values.find(defs[i].name);
        if (i)
            std::cout << ",";
        ap::json::quote(std::cout, defs[i].name);
        std::cout << ":{\"value\":";
        ap::json::number(std::cout, it == values.end() ? 0.0 : it->second);
        std::cout << ",\"unit\":";
        ap::json::quote(std::cout, defs[i].unit);
        std::cout << "}";
    }
    std::cout << "}}" << std::endl;
}

int
run(const Args& a)
{
    const Workload* wl = nullptr;
    for (const Workload& w : workloads())
        if (a.workload == w.name)
            wl = &w;
    if (!wl)
        usage("unknown workload '" + a.workload + "'");

    // Untraced repeats give every end-to-end number; in a traced run,
    // traced repeats alternate with them so the overhead compares
    // repeats made under the same machine conditions.
    Tracer off(false);
    std::vector<RepeatResult> plain, traced;
    Tracer last_trace(true);
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        plain.push_back(wl->run(a.seed, off, a.doctor, false));
        if (a.trace) {
            Tracer tr(true);
            traced.push_back(wl->run(a.seed, tr, a.doctor, false));
            last_trace = std::move(tr);
        }
        if (secondsSince(t0) >= a.seconds)
            break;
    }

    uint64_t attempted = 0, failed = 0;
    std::vector<double> setups, hosts, cpus, traced_hosts;
    const RepeatResult& ref = plain.front();
    auto account = [&](const RepeatResult& r) {
        attempted += r.attempted + 1; // + the determinism check
        failed += r.failed;
        for (const std::string& e : r.errors)
            std::cerr << "apbench: FAIL: " << e << "\n";
        if (r.sim != ref.sim || r.layer != ref.layer) {
            failed++;
            std::cerr << "apbench: FAIL: a repeat of seed " << a.seed
                      << " produced different simulated statistics\n";
        }
    };
    for (const RepeatResult& r : plain) {
        account(r);
        setups.insert(setups.end(), r.setupS.begin(), r.setupS.end());
        hosts.push_back(r.hostS);
        cpus.push_back(r.cpuS);
    }
    for (const RepeatResult& r : traced) {
        account(r);
        traced_hosts.push_back(r.hostS);
    }
    // setup_s is a median over at least kMinSetups set-ups.
    while (!a.trace && setups.size() < kMinSetups) {
        RepeatResult r = wl->run(a.seed, off, a.doctor, true);
        setups.insert(setups.end(), r.setupS.begin(), r.setupS.end());
    }
    const bool correct = failed == 0;

    std::cout << "apbench " << wl->name << " seed=" << a.seed
              << " repeats=" << plain.size()
              << (a.trace ? " (+ traced)" : "") << "\n";
    if (!a.trace) {
        Metrics m = ref.sim;
        m["setup_s"] = median(setups);
        m["peak_rss_mb"] = peakRssMb();
        printResult(correct, attempted, failed, m, kEndToEnd,
                    std::size(kEndToEnd));
        return correct ? 0 : 1;
    }

    Metrics m = ref.layer;
    m["fail_frac"] = attempted ? double(failed) / attempted : 0;
    m["host_s"] = median(hosts);
    m["sim.host_cpu_s"] = median(cpus);
    m["sim.minst_per_host_s"] = ref.instructions / 1e6 / median(hosts);
    m["trace.overhead_s"] = median(traced_hosts) - median(hosts);
    m["trace.spans"] = static_cast<double>(last_trace.size());
    for (const auto& [name, self] : last_trace.selfTimes())
        m["self." + name + (name.rfind("dev.", 0) == 0 ? "_cycles" : "_s")] =
            self;
    if (!a.traceOut.empty())
        last_trace.write(a.traceOut);
    printResult(correct, attempted, failed, m, kPerLayer,
                std::size(kPerLayer));
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    // Keep freed memory in the heap for the next set-up to reuse. Each
    // stack allocates a 256 MB simulated device; from fresh pages, the
    // kernel's page faults are three quarters of a set-up and swing
    // with the host's memory load. After the first set-up, setup_s
    // times the program's own set-up work instead.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, INT_MAX);
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
