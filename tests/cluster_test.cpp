/**
 * @file
 * Tests for resource specs, GPU servers (subscription vs. commitment),
 * the cluster registry, and the pre-warm pool.
 */
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/resources.hpp"
#include "cluster/server.hpp"

namespace nbos::cluster {
namespace {

ResourceSpec
kernel_request(std::int32_t gpus)
{
    return ResourceSpec{4000 * gpus, 16384LL * gpus, gpus, 16.0 * gpus};
}

TEST(ResourceSpecTest, FitsWithin)
{
    const ResourceSpec small{1000, 1024, 1, 16.0};
    const ResourceSpec big = ResourceSpec::server_8gpu();
    EXPECT_TRUE(small.fits_within(big));
    EXPECT_FALSE(big.fits_within(small));
    EXPECT_TRUE(big.fits_within(big));
}

TEST(ResourceSpecTest, FitsFailsPerDimension)
{
    const ResourceSpec capacity{1000, 1000, 4, 64.0};
    EXPECT_FALSE((ResourceSpec{2000, 500, 1, 1.0}).fits_within(capacity));
    EXPECT_FALSE((ResourceSpec{500, 2000, 1, 1.0}).fits_within(capacity));
    EXPECT_FALSE((ResourceSpec{500, 500, 8, 1.0}).fits_within(capacity));
    EXPECT_FALSE((ResourceSpec{500, 500, 1, 128.0}).fits_within(capacity));
}

TEST(ResourceSpecTest, Arithmetic)
{
    const ResourceSpec a{1000, 2048, 2, 32.0};
    const ResourceSpec b{500, 1024, 1, 16.0};
    const ResourceSpec sum = a + b;
    EXPECT_EQ(sum.millicpus, 1500);
    EXPECT_EQ(sum.memory_mb, 3072);
    EXPECT_EQ(sum.gpus, 3);
    EXPECT_DOUBLE_EQ(sum.vram_gb, 48.0);
    const ResourceSpec diff = sum - b;
    EXPECT_EQ(diff, a);
}

TEST(ResourceSpecTest, ServerShape)
{
    const ResourceSpec shape = ResourceSpec::server_8gpu();
    EXPECT_EQ(shape.gpus, 8);
    EXPECT_EQ(shape.millicpus, 64000);
}

TEST(ResourceSpecTest, ToStringMentionsEveryDimension)
{
    const std::string s = kernel_request(4).to_string();
    EXPECT_NE(s.find("gpus=4"), std::string::npos);
    EXPECT_NE(s.find("cpus="), std::string::npos);
}

TEST(GpuServerTest, CommitAndRelease)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    EXPECT_EQ(server.idle_gpus(), 8);
    EXPECT_TRUE(server.commit(kernel_request(4)));
    EXPECT_EQ(server.committed_gpus(), 4);
    EXPECT_EQ(server.idle_gpus(), 4);
    server.release(kernel_request(4));
    EXPECT_EQ(server.committed_gpus(), 0);
}

TEST(GpuServerTest, CommitFailsWhenFull)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    EXPECT_TRUE(server.commit(kernel_request(8)));
    EXPECT_FALSE(server.can_commit(kernel_request(1)));
    EXPECT_FALSE(server.commit(kernel_request(1)));
    EXPECT_EQ(server.committed_gpus(), 8);
}

TEST(GpuServerTest, PartialCommitsAccumulate)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    EXPECT_TRUE(server.commit(kernel_request(2)));
    EXPECT_TRUE(server.commit(kernel_request(4)));
    EXPECT_FALSE(server.commit(kernel_request(4)));
    EXPECT_TRUE(server.commit(kernel_request(2)));
    EXPECT_EQ(server.idle_gpus(), 0);
}

TEST(GpuServerTest, SubscriptionRatioMatchesPaperExample)
{
    // §3.4.1: 8-GPU server with 4 kernels x 4 GPUs -> S=16, SR=16/(8*3).
    GpuServer server(1, ResourceSpec::server_8gpu());
    for (int i = 0; i < 4; ++i) {
        server.subscribe(kernel_request(4));
    }
    EXPECT_EQ(server.subscribed_gpus(), 16);
    EXPECT_NEAR(subscription_ratio(server.subscribed_gpus(),
                                   server.capacity().gpus, 3),
                0.667, 0.001);
}

TEST(GpuServerTest, UnsubscribeRestoresRatio)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    server.subscribe(kernel_request(4));
    server.unsubscribe(kernel_request(4));
    EXPECT_EQ(server.subscribed_gpus(), 0);
    EXPECT_DOUBLE_EQ(subscription_ratio(server.subscribed_gpus(),
                                        server.capacity().gpus, 3),
                     0.0);
}

TEST(GpuServerTest, SubscriptionIndependentOfCommitment)
{
    // Oversubscription: subscriptions can exceed capacity while
    // commitments cannot.
    GpuServer server(1, ResourceSpec::server_8gpu());
    for (int i = 0; i < 6; ++i) {
        server.subscribe(kernel_request(4));
    }
    EXPECT_EQ(server.subscribed_gpus(), 24);
    EXPECT_TRUE(server.commit(kernel_request(8)));
    EXPECT_FALSE(server.can_commit(kernel_request(1)));
}

TEST(GpuServerTest, DeviceIdsAssignedLowestFirst)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    const auto first = server.commit_devices(kernel_request(2));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, (std::vector<std::int32_t>{0, 1}));
    const auto second = server.commit_devices(kernel_request(3));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, (std::vector<std::int32_t>{2, 3, 4}));
    EXPECT_TRUE(server.device_in_use(0));
    EXPECT_TRUE(server.device_in_use(4));
    EXPECT_FALSE(server.device_in_use(5));
}

TEST(GpuServerTest, ReleasedDevicesAreReassigned)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    const auto a = server.commit_devices(kernel_request(2));
    const auto b = server.commit_devices(kernel_request(2));
    ASSERT_TRUE(a && b);
    server.release_devices(kernel_request(2), *a);
    EXPECT_FALSE(server.device_in_use(0));
    EXPECT_TRUE(server.device_in_use(2));
    // Freed ids 0/1 are handed out again before higher ids.
    const auto c = server.commit_devices(kernel_request(3));
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, (std::vector<std::int32_t>{0, 1, 4}));
}

TEST(GpuServerTest, CommitDevicesFailsWhenFull)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    ASSERT_TRUE(server.commit_devices(kernel_request(8)).has_value());
    EXPECT_FALSE(server.commit_devices(kernel_request(1)).has_value());
    EXPECT_EQ(server.committed_gpus(), 8);
}

TEST(GpuServerTest, ReleaseDevicesToleratesBadIds)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    ASSERT_TRUE(server.commit(kernel_request(1)));
    server.release_devices(kernel_request(1), {-1, 99});
    EXPECT_EQ(server.committed_gpus(), 0);
}

TEST(GpuServerTest, ContainerBookkeeping)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    Container c;
    c.id = 10;
    c.server = 1;
    c.kernel = 5;
    server.add_container(c);
    ASSERT_NE(server.find_container(10), nullptr);
    EXPECT_EQ(server.find_container(10)->kernel, 5);
    server.remove_container(10);
    EXPECT_EQ(server.find_container(10), nullptr);
}

TEST(ClusterTest, AddRemoveServers)
{
    Cluster cluster;
    GpuServer& a = cluster.add_server();
    GpuServer& b = cluster.add_server();
    // remove_server frees the GpuServer, so take the ids before: touching
    // `a` after removal is a use-after-free (caught by the ASan CI job).
    const ServerId a_id = a.id();
    const ServerId b_id = b.id();
    EXPECT_NE(a_id, b_id);
    EXPECT_EQ(cluster.size(), 2u);
    EXPECT_TRUE(cluster.remove_server(a_id));
    EXPECT_FALSE(cluster.remove_server(a_id));
    EXPECT_EQ(cluster.size(), 1u);
    EXPECT_EQ(cluster.find(a_id), nullptr);
    EXPECT_NE(cluster.find(b_id), nullptr);
}

TEST(ClusterTest, TotalsAggregate)
{
    Cluster cluster;
    GpuServer& a = cluster.add_server();
    GpuServer& b = cluster.add_server();
    EXPECT_EQ(cluster.total_gpus(), 16);
    a.subscribe(kernel_request(4));
    b.subscribe(kernel_request(2));
    EXPECT_EQ(cluster.total_subscribed_gpus(), 6);
    a.commit(kernel_request(3));
    EXPECT_EQ(cluster.total_committed_gpus(), 3);
    // Removing a loaded server takes its current load out of the totals.
    const ServerId a_id = a.id();
    ASSERT_TRUE(cluster.remove_server(a_id));
    EXPECT_EQ(cluster.total_gpus(), 8);
    EXPECT_EQ(cluster.total_subscribed_gpus(), 2);
    EXPECT_EQ(cluster.total_committed_gpus(), 0);
    b.unsubscribe(kernel_request(2));
    EXPECT_EQ(cluster.total_subscribed_gpus(), 0);
}

TEST(ClusterTest, ClusterSubscriptionRatio)
{
    Cluster cluster;
    GpuServer& a = cluster.add_server();
    cluster.add_server();
    // S=12, G=16, R=3 -> 12/48 = 0.25.
    for (int i = 0; i < 3; ++i) {
        a.subscribe(kernel_request(4));
    }
    EXPECT_NEAR(cluster.cluster_subscription_ratio(3), 0.25, 1e-9);
}

TEST(ClusterTest, EmptyClusterRatioIsZero)
{
    Cluster cluster;
    EXPECT_DOUBLE_EQ(cluster.cluster_subscription_ratio(3), 0.0);
}

TEST(ClusterTest, CustomServerShape)
{
    Cluster cluster(ResourceSpec{8000, 32768, 4, 64.0});
    cluster.add_server();
    EXPECT_EQ(cluster.total_gpus(), 4);
}

TEST(PrewarmPoolTest, AcquireFromEmptyPoolMisses)
{
    PrewarmPool pool(3);
    pool.register_server(1);
    EXPECT_FALSE(pool.acquire(1));
    EXPECT_EQ(pool.total_misses(), 1u);
}

TEST(PrewarmPoolTest, RefillThenAcquire)
{
    PrewarmPool pool(3);
    pool.register_server(1);
    pool.begin_refill(1);
    EXPECT_EQ(pool.pending(1), 1);
    pool.complete_refill(1);
    EXPECT_EQ(pool.available(1), 1);
    EXPECT_TRUE(pool.acquire(1));
    EXPECT_EQ(pool.available(1), 0);
    EXPECT_EQ(pool.total_acquired(), 1u);
}

TEST(PrewarmPoolTest, DeficitAccountsForPending)
{
    PrewarmPool pool(3);
    pool.register_server(1);
    EXPECT_EQ(pool.deficit(1), 3);
    pool.begin_refill(1);
    EXPECT_EQ(pool.deficit(1), 2);
    pool.complete_refill(1);
    EXPECT_EQ(pool.deficit(1), 2);
    pool.complete_refill(1);
    pool.complete_refill(1);
    EXPECT_EQ(pool.deficit(1), 0);
}

TEST(PrewarmPoolTest, ReleaseReturnsContainer)
{
    PrewarmPool pool(1);
    pool.register_server(1);
    pool.begin_refill(1);
    pool.complete_refill(1);
    EXPECT_TRUE(pool.acquire(1));
    pool.release(1);
    EXPECT_TRUE(pool.acquire(1));
}

TEST(PrewarmPoolTest, UnknownServerSafe)
{
    PrewarmPool pool(2);
    EXPECT_EQ(pool.available(42), 0);
    EXPECT_EQ(pool.deficit(42), 0);
    EXPECT_FALSE(pool.acquire(42));
}

TEST(PrewarmPoolTest, UnregisterForgetsState)
{
    PrewarmPool pool(2);
    pool.register_server(1);
    pool.begin_refill(1);
    pool.complete_refill(1);
    pool.unregister_server(1);
    EXPECT_EQ(pool.available(1), 0);
}

/** Property: commitments never exceed capacity across random sequences. */
class CommitProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CommitProperty, NeverOvercommits)
{
    GpuServer server(1, ResourceSpec::server_8gpu());
    std::uint64_t state = GetParam();
    std::vector<ResourceSpec> held;
    for (int i = 0; i < 500; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::int32_t gpus = 1 + static_cast<std::int32_t>(
                                          (state >> 33) % 8);
        if ((state >> 62) % 2 == 0 || held.empty()) {
            const ResourceSpec spec = kernel_request(gpus);
            if (server.commit(spec)) {
                held.push_back(spec);
            }
        } else {
            server.release(held.back());
            held.pop_back();
        }
        EXPECT_GE(server.idle_gpus(), 0);
        EXPECT_LE(server.committed_gpus(), 8);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommitProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nbos::cluster
