#include <gtest/gtest.h>

#include <sstream>

#include "hostio/host_io_engine.hh"

namespace ap::hostio {
namespace {

struct IoFixture
{
    sim::Device dev{sim::CostModel{}, 1 << 22};
    BackingStore bs;
};

TEST(HostIo, ReadDeliversBytes)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 8192);
    for (int i = 0; i < 8192; ++i)
        fx.bs.data(f, 0, 8192)[i] = static_cast<uint8_t>(i * 13);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(8192);
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        EXPECT_EQ(io.readToGpu(w, f, 0, 8192, dst), IoStatus::Ok);
    });
    for (int i = 0; i < 8192; ++i)
        EXPECT_EQ(fx.dev.mem().load<uint8_t>(dst + i),
                  static_cast<uint8_t>(i * 13));
}

TEST(HostIo, ReadBlocksForTransferTime)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 1 << 20);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(1 << 20);
    sim::Cycles dt = 0;
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        sim::Cycles t0 = w.now();
        EXPECT_EQ(io.readToGpu(w, f, 0, 1 << 20, dst), IoStatus::Ok);
        dt = w.now() - t0;
    });
    const sim::CostModel& cm = fx.dev.costModel();
    // At least the PCIe serialization time of 1 MB.
    EXPECT_GE(dt, (1 << 20) / cm.pcieBytesPerCycle);
}

TEST(HostIo, BatchingAggregatesConcurrentReads)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 64 * 4096);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(64 * 4096);
    // 16 warps each read one 4 KB page concurrently.
    fx.dev.launch(1, 16, [&](sim::Warp& w) {
        int i = w.warpInBlock();
        EXPECT_EQ(io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096),
                  IoStatus::Ok);
    });
    // All 16 requests should share very few PCIe transfers.
    EXPECT_LE(fx.dev.stats().counter("hostio.transfers"), 2u);
    EXPECT_EQ(fx.dev.stats().counter("hostio.read_requests"), 16u);
}

TEST(HostIo, NoBatchingIssuesOneTransferPerRead)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 64 * 4096);
    HostIoEngine io(fx.dev, fx.bs, /*batching=*/false);
    sim::Addr dst = fx.dev.mem().alloc(64 * 4096);
    fx.dev.launch(1, 16, [&](sim::Warp& w) {
        int i = w.warpInBlock();
        EXPECT_EQ(io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096),
                  IoStatus::Ok);
    });
    EXPECT_EQ(fx.dev.stats().counter("hostio.transfers"), 16u);
}

TEST(HostIo, BatchingIsFasterForSmallPages)
{
    auto run = [](bool batching) {
        IoFixture fx;
        FileId f = fx.bs.create("f", 256 * 4096);
        HostIoEngine io(fx.dev, fx.bs, batching);
        sim::Addr dst = fx.dev.mem().alloc(256 * 4096);
        return fx.dev.launch(2, 32, [&](sim::Warp& w) {
            for (int k = 0; k < 4; ++k) {
                int i = w.globalWarpId() * 4 + k;
                EXPECT_EQ(io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096),
                  IoStatus::Ok);
            }
        });
    };
    sim::Cycles batched = run(true);
    sim::Cycles unbatched = run(false);
    EXPECT_LT(batched, unbatched);
}

TEST(HostIo, WriteFromGpuPersists)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 4096);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr src = fx.dev.mem().alloc(4096);
    for (int i = 0; i < 4096; ++i)
        fx.dev.mem().store<uint8_t>(src + i, static_cast<uint8_t>(i));
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        EXPECT_EQ(io.writeFromGpu(w, f, 0, 4096, src), IoStatus::Ok);
    });
    for (int i = 0; i < 4096; ++i)
        EXPECT_EQ(fx.bs.data(f, 0, 4096)[i], static_cast<uint8_t>(i));
}

/** N warps each write back their own 4 KB page at the same time. */
uint64_t
concurrentWriteTransfers(bool batching, int warps)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", warps * 4096);
    HostIoEngine io(fx.dev, fx.bs, batching);
    sim::Addr src = fx.dev.mem().alloc(warps * 4096);
    for (int i = 0; i < warps * 4096; ++i)
        fx.dev.mem().store<uint8_t>(src + i, static_cast<uint8_t>(i * 7 + 3));
    fx.dev.launch(1, warps, [&](sim::Warp& w) {
        int i = w.warpInBlock();
        EXPECT_EQ(io.writeFromGpu(w, f, i * 4096, 4096, src + i * 4096),
                  IoStatus::Ok);
    });
    EXPECT_EQ(fx.dev.stats().counter("hostio.write_requests"),
              static_cast<uint64_t>(warps));
    const uint8_t* host = fx.bs.data(f, 0, warps * 4096);
    for (int i = 0; i < warps * 4096; ++i)
        EXPECT_EQ(host[i], static_cast<uint8_t>(i * 7 + 3)) << "byte " << i;
    EXPECT_EQ(io.queueDepth(), 0u);
    return fx.dev.stats().counter("hostio.transfers");
}

TEST(HostIo, BatchingAggregatesConcurrentWrites)
{
    // 16 dirty pages written back inside one aggregation window ride
    // a single GPU -> host DMA, and every byte still lands.
    EXPECT_EQ(concurrentWriteTransfers(true, 16), 1u);
}

TEST(HostIo, NoBatchingIssuesOneTransferPerWrite)
{
    EXPECT_EQ(concurrentWriteTransfers(false, 16), 16u);
}

TEST(HostIo, BatchedWritesFinishSoonerThanUnbatched)
{
    auto run = [](bool batching) {
        IoFixture fx;
        FileId f = fx.bs.create("f", 32 * 4096);
        HostIoEngine io(fx.dev, fx.bs, batching);
        sim::Addr src = fx.dev.mem().alloc(32 * 4096);
        return fx.dev.launch(1, 32, [&](sim::Warp& w) {
            int i = w.warpInBlock();
            EXPECT_EQ(io.writeFromGpu(w, f, i * 4096, 4096,
                                      src + i * 4096),
                      IoStatus::Ok);
        });
    };
    // Unbatched, the 32 setups serialize on the write channel.
    const sim::CostModel cm;
    EXPECT_LT(run(true) + 16 * cm.pcieLatency, run(false));
}

TEST(HostIo, QueueDepthCountsQueuedWrites)
{
    // Writes waiting in the aggregation window (not yet dispatched)
    // are host-side backlog too: the readahead throttle and the
    // serving admission gate must see them.
    IoFixture fx;
    FileId f = fx.bs.create("f", 8 * 4096);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr src = fx.dev.mem().alloc(8 * 4096);
    size_t observed = 0;
    fx.dev.launch(1, 5, [&](sim::Warp& w) {
        int i = w.warpInBlock();
        if (i < 4) {
            EXPECT_EQ(io.writeFromGpu(w, f, i * 4096, 4096,
                                      src + i * 4096),
                      IoStatus::Ok);
        } else {
            // Inside the window, before the dispatch event fires.
            w.stall(w.costModel().hostBatchWindow / 2);
            observed = io.queueDepth();
        }
    });
    EXPECT_EQ(observed, 4u);
    EXPECT_EQ(fx.dev.stats().counter("hostio.transfers"), 1u);
    EXPECT_EQ(io.queueDepth(), 0u);
}

TEST(HostIo, WriteBatchesShowInTheTrace)
{
    IoFixture fx;
    fx.dev.tracer().enable();
    FileId f = fx.bs.create("f", 4 * 4096);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr src = fx.dev.mem().alloc(4 * 4096);
    fx.dev.launch(1, 4, [&](sim::Warp& w) {
        int i = w.warpInBlock();
        EXPECT_EQ(io.writeFromGpu(w, f, i * 4096, 4096, src + i * 4096),
                  IoStatus::Ok);
    });
    // One "dma" span for the one write group, like a read batch.
    std::ostringstream os;
    fx.dev.tracer().writeJson(os);
    const std::string json = os.str();
    size_t at = json.find("\"wb x4 (16384B)\"");
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(json.find("\"wb x", at + 1), std::string::npos);
}

TEST(HostIo, RpcRunsOnHostAndReturnsValue)
{
    IoFixture fx;
    HostIoEngine io(fx.dev, fx.bs);
    int64_t got = 0;
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        got = io.rpc(w, [] { return int64_t(4242); });
    });
    EXPECT_EQ(got, 4242);
}

TEST(HostIo, LargeReadSplitsIntoMaxBatchTransfers)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 3 << 20);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(3 << 20);
    // 3 MB of 4 KB requests with a 1 MB batch limit => >= 3 transfers.
    fx.dev.launch(1, 24, [&](sim::Warp& w) {
        for (int k = 0; k < 32; ++k) {
            uint64_t i = w.warpInBlock() * 32u + k;
            EXPECT_EQ(io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096),
                  IoStatus::Ok);
        }
    });
    EXPECT_GE(fx.dev.stats().counter("hostio.transfers"), 3u);
}

} // namespace
} // namespace ap::hostio
