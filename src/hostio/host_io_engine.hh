/**
 * @file
 * The host I/O engine: models the GPUfs host-side daemon that services
 * file RPCs from running GPU kernels, the PCIe bus, and the transfer
 * batching optimization from paper section V ("Optimizing for small
 * page size"): multiple outstanding small transfers are aggregated on
 * the host and cross the bus in a single DMA. Both directions batch —
 * reads (host -> GPU) and dirty-page writebacks (GPU -> host) — each
 * through its own direction of the link, drained by the same batcher.
 *
 * Failure semantics (DESIGN.md section 10): every transfer validates
 * its byte range up front and returns an IoStatus instead of
 * asserting. An attached FaultInjector can fail or delay individual
 * transfer attempts; transient failures are retried with capped
 * exponential backoff, tracked per request so one poisoned request
 * cannot wedge the batch it rode in on.
 */

#ifndef AP_HOSTIO_HOST_IO_ENGINE_HH
#define AP_HOSTIO_HOST_IO_ENGINE_HH

#include <deque>
#include <map>
#include <vector>

#include "hostio/backing_store.hh"
#include "hostio/fault_injector.hh"
#include "hostio/io_result.hh"
#include "sim/device.hh"
#include "tenant/tenant.hh"
#include "util/annotations.hh"

namespace ap::hostio {

/**
 * Services device-originated file reads/writes. Calls are made from
 * inside warp fibers and block the calling warp until the data has
 * crossed the (simulated) PCIe bus or the transfer has failed for
 * good.
 */
class HostIoEngine
{
  public:
    /** Retry policy for failed transfer attempts. */
    struct RetryPolicy
    {
        /** Total attempts per request (first try included). */
        int maxAttempts = 6;
        /** Backoff before retry k is backoffBase << k, capped below. */
        sim::Cycles backoffBase = 2000;
        sim::Cycles backoffCap = 64000;
    };

    /**
     * Fair-scheduling knobs for the per-tenant deficit-round-robin
     * dispatcher, active only while a TenantRegistry is attached.
     */
    struct QosConfig
    {
        /** Bytes of deficit credit one IO-weight unit earns per
         * round-robin visit; a tenant with ioWeight w may dispatch up
         * to w * quantumBytes per round (plus carried-over deficit). */
        size_t quantumBytes = 16384;

        /** Credit per visit for zero-weight tenants: one page per
         * round, so best-effort traffic trickles but never starves. */
        size_t floorBytes = 4096;
    };

    /**
     * @param dev      the simulated GPU (shares its engine and memory)
     * @param store    the host file system
     * @param batching enable host-side aggregation of small transfers
     */
    HostIoEngine(sim::Device& dev, BackingStore& store,
                 bool batching = true);

    /**
     * Read (f, off, len) from the host into device memory at @p gpu_dst.
     * Blocks the calling warp until the bytes have landed or the
     * request has failed terminally. With batching enabled, concurrent
     * requests within the aggregation window share one PCIe transfer.
     * @return Ok, BadFile/Eof for an invalid range, or IoError after
     *         retries are exhausted
     */
    IoStatus readToGpu(sim::Warp& w, FileId f, uint64_t off, size_t len,
                       sim::Addr gpu_dst) AP_YIELDS AP_MUST_CHECK;

    /**
     * Asynchronous variant of readToGpu: enqueue the request (sharing
     * the batching machinery) and invoke @p on_done with the terminal
     * status at the simulated completion time instead of blocking the
     * warp. Transient failures are retried engine-side before @p
     * on_done fires. Used by the prefetch (gmadvise) path.
     * @return Ok if the request was enqueued (the callback will fire
     *         exactly once), or a validation error (callback never
     *         fires)
     */
    /**
     * @param low_priority speculative traffic (readahead): within an
     *        aggregation window, demand requests dispatch first, so a
     *        burst of speculation never delays a demand DMA that
     *        arrived in the same batch
     */
    IoStatus readToGpuAsync(sim::Warp& w, FileId f, uint64_t off,
                            size_t len, sim::Addr gpu_dst,
                            std::function<void(IoStatus)> on_done,
                            bool low_priority = false) AP_MUST_CHECK;

    /**
     * Write device memory (gpu_src, len) to the host file at (f, off).
     * Blocks the calling warp until the transfer completes or fails
     * terminally. With batching enabled, concurrent writes within the
     * aggregation window share one GPU -> host DMA, exactly as reads
     * do in the other direction.
     * @return Ok, BadFile/Eof for an invalid range, or IoError after
     *         retries are exhausted
     */
    IoStatus writeFromGpu(sim::Warp& w, FileId f, uint64_t off,
                          size_t len, sim::Addr gpu_src)
        AP_YIELDS AP_MUST_CHECK;

    /**
     * A device-to-host RPC with a tiny payload (e.g. gopen): charges a
     * round trip and runs @p host_fn on the host at the service time.
     * Control RPCs are assumed reliable; the injector only affects
     * data transfers.
     * @return the value produced by @p host_fn
     */
    int64_t rpc(sim::Warp& w, const std::function<int64_t()>& host_fn)
        AP_YIELDS;

    /** Enable/disable batching of reads and writes (ablation knob). */
    void setBatching(bool on) { batching = on; }

    /** Whether batching is enabled. */
    bool batchingEnabled() const { return batching; }

    /** Attach a fault injector (null detaches; not owned). */
    void setFaultInjector(FaultInjector* fi) { injector = fi; }

    /** The attached fault injector, or null. */
    FaultInjector* faultInjector() { return injector; }

    /** Replace the retry policy. */
    void setRetryPolicy(const RetryPolicy& p) { retry = p; }

    /** The retry policy in force. */
    const RetryPolicy& retryPolicy() const { return retry; }

    /** The backing store served by this engine. */
    BackingStore& store() { return *store_; }

    /**
     * Attach the tenant registry (null detaches; not owned). While
     * attached, batched reads route through per-tenant queues drained
     * by deficit round-robin over the registry's IO weights; without
     * it the engine runs the original single-queue batcher unchanged.
     * Writes use the single-queue batcher either way. Attach only
     * while no batched reads are queued.
     */
    void setTenantRegistry(tenant::TenantRegistry* reg)
    {
        registry_ = reg;
    }

    /** The attached tenant registry, or null. */
    tenant::TenantRegistry* tenantRegistry() { return registry_; }

    /** Replace the fair-scheduling knobs. */
    void setQosConfig(const QosConfig& q) { qos = q; }

    /** The fair-scheduling knobs in force. */
    const QosConfig& qosConfig() const { return qos; }

    /**
     * Host-side congestion probe: transfers not yet delivered —
     * batched reads and writes awaiting dispatch (either read queue
     * discipline) plus those with the DMA in flight. The readahead
     * throttle gates speculation on this so a deep queue of guesses
     * never builds up in front of demand traffic; writes count too,
     * since they occupy the same host daemon as the reads the
     * throttle is trying to protect.
     */
    size_t queueDepth() const
    {
        return toGpu.pending.size() + qosQueued + toGpu.inflight +
               toHost.pending.size() + toHost.inflight;
    }

    /** Batched reads of tenant @p asid still awaiting dispatch. */
    size_t queueDepthOf(tenant::TenantId asid) const
    {
        auto it = qosQueues.find(asid);
        if (it == qosQueues.end())
            return 0;
        return it->second.demand.size() + it->second.spec.size();
    }

  private:
    struct Request
    {
        FileId file;
        uint64_t off;
        size_t len;
        sim::Addr gpu;                 ///< read dst / write src
        sim::Fiber* waiter = nullptr;  ///< resumed if non-null
        IoStatus* out = nullptr;       ///< status for the waiter
        std::function<void(IoStatus)> onDone; ///< called if set
        int attempt = 0;               ///< retry ordinal (0 = first)
        bool low = false;              ///< low-priority (speculative)
        uint64_t fid = 0;              ///< fault id (0 = untracked)
        tenant::TenantId asid = 0;     ///< requesting address space
    };

    /** One tenant's pending batched reads plus its DRR credit. */
    struct TenantQueue
    {
        std::deque<Request> demand;
        std::deque<Request> spec;  ///< low-priority (readahead)
        uint64_t deficit = 0;      ///< unspent dispatch credit, bytes

        bool empty() const { return demand.empty() && spec.empty(); }

        const Request& front() const
        {
            return demand.empty() ? spec.front() : demand.front();
        }
    };

    /**
     * One direction of the PCIe link: its DMA channel plus the FIFO
     * aggregation window in front of it. Reads travel toGpu, writes
     * toHost; the batcher, the unbatched path and the completion
     * logic are shared and differ only in the direction handed in.
     */
    struct Link
    {
        Link(double bytes_per_cycle, bool writes_)
            : writes(writes_), bus(bytes_per_cycle)
        {
        }

        const bool writes; ///< device -> host (writes) or host -> device
        sim::BwServer bus;
        std::vector<Request> pending; ///< FIFO window awaiting dispatch
        size_t inflight = 0;          ///< dispatched, DMA not landed
        bool dispatchScheduled = false;
    };

    /** Backoff before re-issuing attempt @p attempt + 1. */
    sim::Cycles backoff(int attempt) const;

    /** Injector delay for this attempt (also counts the stat). */
    sim::Cycles injectedDelay(const Request& r);

    /**
     * The blocking transfer both readToGpu and writeFromGpu run:
     * validate, then submit attempts on @p link until one completes
     * or retries run out. @p fid is the FaultPath record the
     * attempts stamp (0 = untracked).
     */
    IoStatus transfer(sim::Warp& w, Link& link, FileId f, uint64_t off,
                      size_t len, sim::Addr gpu_addr, uint64_t fid)
        AP_YIELDS;

    /** Enqueue attempt @p r on @p link by whichever path is set. */
    void submit(Link& link, Request r);

    /** Add @p r to @p link's aggregation window, arming dispatch. */
    void enqueueBatched(Link& link, Request r);

    /** Issue @p r as its own PCIe transfer on @p link. */
    void issueUnbatched(Link& link, Request r);

    /**
     * Ship @p group (@p bytes in total, gathered on the host by
     * @p host_free) as ONE DMA on @p link: one pcieLatency setup for
     * the whole group, and an injected delay on any member holds up
     * the whole transfer.
     * @return the DMA's completion time, injected delay excluded
     */
    sim::Cycles ship(Link& link, std::vector<Request> group,
                     size_t bytes, sim::Cycles host_free);

    /**
     * Host-side completion of one attempt on @p link: consult the
     * injector, move the bytes (file -> frame for reads, frame ->
     * file for writes) or report the failure to finish().
     */
    void complete(Link& link, const Request& r);

    /**
     * Deliver the attempt outcome: resume a blocked waiter with the
     * status, or (async reads) retry transient failures engine-side
     * and invoke the callback with the terminal status.
     */
    void finish(Link& link, const Request& r, IoStatus st);

    /** Dispatch-event body: drains @p link's window and, for reads,
     * the per-tenant queues. */
    void dispatch(Link& link);

    /**
     * FIFO batch dispatch: take @p link's whole window (demand before
     * speculation), split it into groups of at most maxBatchBytes and
     * ship each group as one DMA.
     */
    void dispatchBatch(Link& link);

    /**
     * Deficit round-robin dispatch of reads (registry attached): pick
     * the next tenant whose accumulated credit covers its head request
     * and ship ONE transfer of at most maxBatchBytes from its queue,
     * then re-arm the dispatch event while requests remain. One
     * transfer per tenant per visit is the isolation mechanism: a
     * tenant streaming megabytes can no longer convoy the whole
     * aggregation window into back-to-back DMAs ahead of everyone
     * else. Writes always use the FIFO batcher.
     */
    void dispatchQos();

    /** DRR credit one visit earns tenant @p asid. */
    uint64_t quantumFor(tenant::TenantId asid) const;

    /**
     * Arm @p link's dispatch event if requests remain queued:
     * work-conserving, at max(now + hostBatchWindow, bus free time).
     */
    void armDispatch(Link& link);

    sim::Device* dev;
    BackingStore* store_;
    FaultInjector* injector = nullptr;
    RetryPolicy retry;
    QosConfig qos;
    tenant::TenantRegistry* registry_ = nullptr;
    bool batching;
    Link toGpu;  ///< reads: host -> device
    Link toHost; ///< writes: device -> host
    /** Per-tenant read queues (registry attached); share toGpu's
     * dispatch event and bus. */
    std::map<tenant::TenantId, TenantQueue> qosQueues;
    size_t qosQueued = 0;     ///< total requests across qosQueues
    tenant::TenantId rrCursor = 0; ///< next ASID the DRR visits
};

} // namespace ap::hostio

#endif // AP_HOSTIO_HOST_IO_ENGINE_HH
