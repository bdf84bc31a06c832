#include "hostio/host_io_engine.hh"

#include <algorithm>

#include "sim/check/simcheck.hh"
#include "util/logging.hh"

namespace ap::hostio {

namespace {

/** Annotate a DMA landing in device memory as a host-actor write. */
void
noteDmaWrite(sim::Device* dev, sim::Addr dst, size_t len)
{
    if (sim::check::SimCheck::armed)
        sim::check::SimCheck::get().onWrite(dev->mem().checkMemId, dst,
                                            len);
}

/** Annotate a DMA out of device memory as a host-actor read. */
void
noteDmaRead(sim::Device* dev, sim::Addr src, size_t len)
{
    if (sim::check::SimCheck::armed)
        sim::check::SimCheck::get().onRead(dev->mem().checkMemId, src,
                                           len);
}

/**
 * Resume a fiber directly from a host completion. Bypasses
 * Engine::scheduleFiber, so the host -> fiber synchronization edge must
 * be drawn by hand before the switch.
 */
void
resumeWithEdge(sim::Fiber* f)
{
    if (sim::check::SimCheck::armed) {
        auto& sc = sim::check::SimCheck::get();
        sc.edgeToFiber(f);
        sc.fiberResuming(f);
    }
    f->resume();
}

} // namespace

HostIoEngine::HostIoEngine(sim::Device& dev_, BackingStore& store,
                           bool batching_)
    : dev(&dev_), store_(&store), batching(batching_),
      toGpu(dev_.costModel().pcieBytesPerCycle, false),
      toHost(dev_.costModel().pcieBytesPerCycle, true)
{
}

sim::Cycles
HostIoEngine::backoff(int attempt) const
{
    sim::Cycles b = retry.backoffBase;
    for (int i = 0; i < attempt && b < retry.backoffCap; ++i)
        b *= 2;
    return std::min(b, retry.backoffCap);
}

sim::Cycles
HostIoEngine::injectedDelay(const Request& r)
{
    if (!injector)
        return 0;
    sim::Cycles d = injector->completionDelay(r.file, r.off, r.attempt);
    if (d > 0)
        dev->stats().inc("hostio.injected_delays");
    return d;
}

IoStatus
HostIoEngine::readToGpu(sim::Warp& w, FileId f, uint64_t off, size_t len,
                        sim::Addr gpu_dst)
{
    return transfer(w, toGpu, f, off, len, gpu_dst, w.activeFault());
}

IoStatus
HostIoEngine::writeFromGpu(sim::Warp& w, FileId f, uint64_t off, size_t len,
                           sim::Addr gpu_src)
{
    // Untracked by FaultPath: a writeback runs inside the evicting
    // fault's alloc stage, and stamping it would claim that fault's
    // enqueue/transfer marks before its fill is even issued.
    return transfer(w, toHost, f, off, len, gpu_src, 0);
}

IoStatus
HostIoEngine::transfer(sim::Warp& w, Link& link, FileId f, uint64_t off,
                       size_t len, sim::Addr gpu_addr, uint64_t fid)
{
    IoStatus v = store_->checkRange(f, off, len);
    if (v != IoStatus::Ok) {
        dev->stats().inc("hostio.failures");
        return v;
    }
    sim::Engine& eng = dev->engine();
    dev->stats().inc(link.writes ? "hostio.write_requests"
                                 : "hostio.read_requests");
    dev->stats().inc(link.writes ? "hostio.write_bytes"
                                 : "hostio.read_bytes",
                     len);
    // Enqueue the request into the host RPC ring (a few stores over
    // PCIe-visible memory plus a doorbell).
    w.issue(8);

    // The retry loop: each attempt enqueues one transfer and blocks;
    // the completion hands back the attempt's status. A transient
    // failure backs off (capped exponential) and re-enqueues, so a
    // poisoned attempt leaves its batch and retries on its own.
    for (int attempt = 0;; ++attempt) {
        IoStatus st = IoStatus::Ok;
        submit(link, Request{f, off, len, gpu_addr, sim::Fiber::current(),
                             &st, nullptr, attempt, false, fid,
                             w.tenant()});
        eng.block();
        if (st != IoStatus::Again) {
            if (st != IoStatus::Ok)
                dev->stats().inc("hostio.failures");
            return st;
        }
        if (attempt + 1 >= retry.maxAttempts) {
            dev->stats().inc("hostio.failures");
            return IoStatus::IoError;
        }
        dev->stats().inc("hostio.retries");
        dev->faultPath().attempt(fid);
        eng.waitUntil(eng.now() + backoff(attempt));
    }
}

void
HostIoEngine::submit(Link& link, Request r)
{
    // First submission keeps this stamp; retries re-stamp the transfer
    // marks only, so queue_wait absorbs the backoff.
    dev->faultPath().stamp(r.fid, sim::FaultStage::Enqueue,
                           dev->engine().now());
    if (batching)
        enqueueBatched(link, std::move(r));
    else
        issueUnbatched(link, std::move(r));
}

void
HostIoEngine::issueUnbatched(Link& link, Request r)
{
    // One PCIe transfer per request: each pays the full DMA setup.
    const sim::CostModel& cm = dev->costModel();
    sim::Engine& eng = dev->engine();
    sim::Cycles host = eng.now() + cm.hostRequestCost;
    sim::Cycles done = link.bus.acquireWithSetup(
        host, static_cast<double>(r.len), cm.pcieLatency);
    done += injectedDelay(r);
    dev->faultPath().stamp(r.fid, sim::FaultStage::TransferStart, host);
    ++link.inflight;
    eng.schedule(done, [this, &link, r = std::move(r)] {
        dev->stats().inc("hostio.transfers");
        dev->faultPath().stamp(r.fid, sim::FaultStage::TransferEnd,
                               dev->engine().now());
        --link.inflight;
        complete(link, r);
    });
}

void
HostIoEngine::enqueueBatched(Link& link, Request r)
{
    if (!link.writes && registry_) {
        // Fair scheduling: queue under the requesting tenant; the
        // dispatch event drains the queues by deficit round-robin.
        TenantQueue& q = qosQueues[r.asid];
        (r.low ? q.spec : q.demand).push_back(std::move(r));
        ++qosQueued;
    } else {
        link.pending.push_back(std::move(r));
    }
    // The dispatch event may already be scheduled by an earlier
    // requester; publish this requester's clock into the host channel
    // so the batch that carries its DMA is ordered after it (for a
    // write, after the stores that produced the bytes it ships).
    if (sim::check::SimCheck::armed)
        sim::check::SimCheck::get().hostRelease();
    armDispatch(link);
}

void
HostIoEngine::armDispatch(Link& link)
{
    if (link.dispatchScheduled ||
        (link.pending.empty() && (link.writes || qosQueued == 0)))
        return;
    const sim::CostModel& cm = dev->costModel();
    sim::Engine& eng = dev->engine();
    link.dispatchScheduled = true;
    // Work-conserving aggregation: while a transfer is in flight,
    // keep accumulating requests and dispatch them as one batch
    // when the DMA channel frees up (the GPUfs host daemon drains
    // its whole RPC queue per iteration).
    sim::Cycles when = std::max(eng.now() + cm.hostBatchWindow,
                                link.bus.freeTime());
    eng.schedule(when, [this, &link] { dispatch(link); });
}

void
HostIoEngine::dispatch(Link& link)
{
    link.dispatchScheduled = false;
    if (!link.pending.empty())
        dispatchBatch(link);
    if (!link.writes && qosQueued > 0)
        dispatchQos();
}

sim::Cycles
HostIoEngine::ship(Link& link, std::vector<Request> group, size_t bytes,
                   sim::Cycles host_free)
{
    const sim::CostModel& cm = dev->costModel();
    sim::Cycles done = link.bus.acquireWithSetup(
        host_free, static_cast<double>(bytes), cm.pcieLatency);
    link.inflight += group.size();
    dev->stats().inc("hostio.batched_requests", group.size());
    for (const Request& r : group)
        dev->faultPath().stamp(r.fid, sim::FaultStage::TransferStart,
                               host_free);
    // An injected delay on any member holds up the whole DMA (the
    // batch completes as one transaction).
    sim::Cycles delay = 0;
    for (const Request& r : group)
        delay = std::max(delay, injectedDelay(r));
    // The transfer is counted when the DMA lands, matching the
    // unbatched path (counting at dispatch time let mid-run stats
    // reads disagree between the two paths).
    dev->engine().schedule(
        done + delay, [this, &link, group = std::move(group)] {
            dev->stats().inc("hostio.transfers");
            link.inflight -= group.size();
            for (const Request& r : group) {
                dev->faultPath().stamp(r.fid,
                                       sim::FaultStage::TransferEnd,
                                       dev->engine().now());
                complete(link, r);
            }
        });
    return done;
}

void
HostIoEngine::dispatchBatch(Link& link)
{
    const sim::CostModel& cm = dev->costModel();
    sim::Engine& eng = dev->engine();

    std::vector<Request> reqs = std::move(link.pending);
    link.pending.clear();
    if (reqs.empty())
        return;

    // Demand before speculation: low-priority (readahead) requests
    // move to the tail of the window, so they ride later transfers and
    // never push a demand DMA past the maxBatchBytes split.
    std::stable_partition(reqs.begin(), reqs.end(),
                          [](const Request& r) { return !r.low; });

    // Split into transfers of at most maxBatchBytes.
    const char* what = link.writes ? "wb x" : "batch x";
    size_t i = 0;
    sim::Cycles host_free = eng.now();
    while (i < reqs.size()) {
        size_t j = i;
        size_t bytes = 0;
        while (j < reqs.size() &&
               (j == i || bytes + reqs[j].len <= cm.maxBatchBytes)) {
            bytes += reqs[j].len;
            ++j;
        }
        // The host gathers the group through its staging buffer (file
        // contents for a read, frame bytes for a write), then issues
        // one DMA for the whole group: one setup cost for all of it.
        host_free += static_cast<double>(j - i) * cm.hostRequestCost;
        sim::Cycles done =
            ship(link,
                 std::vector<Request>(
                     std::make_move_iterator(reqs.begin() + i),
                     std::make_move_iterator(reqs.begin() + j)),
                 bytes, host_free);
        dev->tracer().span(-2, "dma",
                           what + std::to_string(j - i) + " (" +
                               std::to_string(bytes) + "B)",
                           host_free, done,
                           {{"requests", static_cast<double>(j - i)},
                            {"bytes", static_cast<double>(bytes)}});
        i = j;
    }
}

uint64_t
HostIoEngine::quantumFor(tenant::TenantId asid) const
{
    uint32_t w = registry_->ioWeightOf(asid);
    if (w == 0)
        return qos.floorBytes;
    return static_cast<uint64_t>(w) * qos.quantumBytes;
}

void
HostIoEngine::dispatchQos()
{
    const sim::CostModel& cm = dev->costModel();
    sim::Engine& eng = dev->engine();

    // Select the tenant to serve: visit queues in ASID round-robin
    // order from the cursor, crediting one quantum per visit, until a
    // tenant's deficit covers its head request. Deficits persist
    // across visits, so a large request accumulates credit over rounds
    // and every tenant (floor included) eventually dispatches — the
    // loop terminates because each visit strictly grows some deficit.
    TenantQueue* tq = nullptr;
    tenant::TenantId asid = 0;
    while (!tq) {
        auto it = qosQueues.lower_bound(rrCursor);
        if (it == qosQueues.end())
            it = qosQueues.begin();
        size_t seen = 0;
        while (it->second.empty()) {
            if (++seen > qosQueues.size())
                return; // nothing queued (caller checked; be safe)
            ++it;
            if (it == qosQueues.end())
                it = qosQueues.begin();
        }
        it->second.deficit += quantumFor(it->first);
        rrCursor = static_cast<tenant::TenantId>(it->first + 1);
        if (it->second.deficit >= it->second.front().len) {
            asid = it->first;
            tq = &it->second;
        }
    }

    // Assemble ONE transfer from this tenant's queue, demand before
    // speculation, bounded by both the DMA split size and the credit.
    TenantQueue& q = *tq;
    std::vector<Request> group;
    size_t bytes = 0;
    auto take = [&](std::deque<Request>& dq) {
        while (!dq.empty()) {
            size_t len = dq.front().len;
            if (!group.empty() && bytes + len > cm.maxBatchBytes)
                break;
            if (bytes + len > q.deficit)
                break;
            bytes += len;
            group.push_back(std::move(dq.front()));
            dq.pop_front();
        }
    };
    take(q.demand);
    take(q.spec);
    AP_ASSERT(!group.empty(), "DRR selected a tenant it cannot serve");
    q.deficit -= bytes;
    qosQueued -= group.size();
    if (q.empty())
        q.deficit = 0; // no banking credit while idle (classic DRR)

    // Transfer mechanics identical to the FIFO batcher: one staging
    // gather on the host, one DMA setup for the group.
    const size_t n = group.size();
    sim::Cycles host_free =
        eng.now() + static_cast<double>(n) * cm.hostRequestCost;
    sim::Cycles done = ship(toGpu, std::move(group), bytes, host_free);
    dev->stats().inc("hostio.qos_dispatches");
    const std::string& pfx = registry_->statPrefix(asid);
    dev->stats().inc(pfx + "io_requests", n);
    dev->stats().inc(pfx + "io_bytes", bytes);
    dev->tracer().span(-2, "dma",
                       "qos t" + std::to_string(asid) + " x" +
                           std::to_string(n) + " (" +
                           std::to_string(bytes) + "B)",
                       host_free, done,
                       {{"requests", static_cast<double>(n)},
                        {"bytes", static_cast<double>(bytes)},
                        {"tenant", static_cast<double>(asid)}});

    // One transfer per dispatch event: the next round is a fresh event
    // ordered behind this DMA, which is what lets another tenant's
    // requests interleave instead of convoying behind this one.
    armDispatch(toGpu);
}

void
HostIoEngine::complete(Link& link, const Request& r)
{
    Fault fl = Fault::None;
    if (injector)
        fl = link.writes
                 ? injector->onWrite(r.file, r.off, r.len, r.attempt)
                 : injector->onRead(r.file, r.off, r.len, r.attempt);
    if (fl == Fault::None) {
        uint8_t* frame = dev->mem().raw(r.gpu, r.len);
        IoStatus st;
        if (link.writes) {
            noteDmaRead(dev, r.gpu, r.len);
            st = store_->pwriteChecked(r.file, frame, r.len, r.off);
        } else {
            noteDmaWrite(dev, r.gpu, r.len);
            st = store_->preadChecked(r.file, frame, r.len, r.off);
        }
        finish(link, r, st);
        return;
    }
    dev->stats().inc("hostio.injected_faults");
    finish(link, r, fl == Fault::Transient ? IoStatus::Again
                                           : IoStatus::IoError);
}

void
HostIoEngine::finish(Link& link, const Request& r, IoStatus st)
{
    if (r.waiter) {
        // Blocking request: hand the attempt status to the fiber; its
        // retry loop owns backoff and re-submission.
        *r.out = st;
        resumeWithEdge(r.waiter);
        return;
    }
    // Async request: the engine retries transients itself, so the
    // callback fires exactly once with a terminal status.
    if (st == IoStatus::Again) {
        if (r.attempt + 1 >= retry.maxAttempts) {
            dev->stats().inc("hostio.failures");
            r.onDone(IoStatus::IoError);
            return;
        }
        dev->stats().inc("hostio.retries");
        dev->faultPath().attempt(r.fid);
        sim::Engine& eng = dev->engine();
        Request nr = r;
        nr.attempt++;
        eng.schedule(eng.now() + backoff(r.attempt),
                     [this, &link, nr = std::move(nr)]() mutable {
                         submit(link, std::move(nr));
                     });
        return;
    }
    if (st != IoStatus::Ok)
        dev->stats().inc("hostio.failures");
    r.onDone(st);
}

IoStatus
HostIoEngine::readToGpuAsync(sim::Warp& w, FileId f, uint64_t off,
                             size_t len, sim::Addr gpu_dst,
                             std::function<void(IoStatus)> on_done,
                             bool low_priority)
{
    IoStatus v = store_->checkRange(f, off, len);
    if (v != IoStatus::Ok) {
        dev->stats().inc("hostio.failures");
        return v;
    }
    dev->stats().inc("hostio.read_requests");
    dev->stats().inc("hostio.read_bytes", len);
    if (low_priority)
        dev->stats().inc("hostio.low_priority_requests");
    w.issue(8);
    submit(toGpu, Request{f, off, len, gpu_dst, nullptr, nullptr,
                          std::move(on_done), 0, low_priority,
                          w.activeFault(), w.tenant()});
    return IoStatus::Ok;
}

int64_t
HostIoEngine::rpc(sim::Warp& w, const std::function<int64_t()>& host_fn)
{
    const sim::CostModel& cm = dev->costModel();
    sim::Engine& eng = dev->engine();
    dev->stats().inc("hostio.rpcs");
    w.issue(8);

    int64_t result = 0;
    sim::Fiber* waiter = sim::Fiber::current();
    sim::Cycles done =
        eng.now() + 2 * cm.pcieLatency + cm.hostRequestCost;
    eng.schedule(done, [&result, &host_fn, waiter] {
        result = host_fn();
        resumeWithEdge(waiter);
    });
    eng.block();
    return result;
}

} // namespace ap::hostio
