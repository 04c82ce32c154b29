// Federated fleet tests: ring placement, cluster config parsing, and a
// real 3-node in-process fleet exercising the full peer path — transparent
// forwarding (framed and streaming), REPLICATE/FETCH round-trips,
// pull-through caching, FEDTRAIN publish, async-TRAIN proxy jobs, peer
// health/failover, and the client's reconnect-on-reset retry.
//
// Every fleet test computes placement dynamically: members are named by
// their ephemeral 127.0.0.1:port address, so which node owns a given model
// name changes run to run — the tests ask the ring instead of assuming.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/csv.hpp"
#include "src/service/client.hpp"
#include "src/service/cluster/breaker.hpp"
#include "src/service/cluster/cluster.hpp"
#include "src/service/cluster/config.hpp"
#include "src/service/cluster/membership.hpp"
#include "src/service/cluster/ring.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/service/snapshot.hpp"

namespace {

using namespace kinet;           // NOLINT
using namespace kinet::service;  // NOLINT

// ---------------------------------------------------------------- ring

TEST(HashRing, OwnershipIsDeterministicAndTotal) {
    const HashRing ring({"a:1", "b:2", "c:3"}, 64);
    for (const char* key : {"alpha", "beta", "gamma", "delta", ""}) {
        const std::string& owner = ring.owner_of(key);
        EXPECT_EQ(owner, ring.owner_of(key)) << key;  // stable
        EXPECT_TRUE(owner == "a:1" || owner == "b:2" || owner == "c:3");
    }
}

TEST(HashRing, MembersAgreeRegardlessOfConstructionOrder) {
    // Placement must be a pure function of the member *set*, or different
    // nodes would route the same model to different owners.
    const HashRing forward({"a:1", "b:2", "c:3"}, 64);
    const HashRing backward({"c:3", "b:2", "a:1"}, 64);
    for (int i = 0; i < 200; ++i) {
        const std::string key = "model-" + std::to_string(i);
        EXPECT_EQ(forward.owner_of(key), backward.owner_of(key)) << key;
        EXPECT_EQ(forward.preference(key, 2), backward.preference(key, 2)) << key;
    }
}

TEST(HashRing, VirtualNodesSpreadPlacement) {
    const HashRing ring({"a:1", "b:2", "c:3"}, 64);
    std::map<std::string, int> counts;
    for (int i = 0; i < 600; ++i) {
        counts[ring.owner_of("m" + std::to_string(i))]++;
    }
    ASSERT_EQ(counts.size(), 3U) << "some member owns nothing";
    for (const auto& [node, n] : counts) {
        // 600 keys over 3 nodes with 64 vnodes: no node should be wildly
        // off a fair share (a degenerate hash would put ~all on one node).
        EXPECT_GT(n, 60) << node;
        EXPECT_LT(n, 400) << node;
    }
}

TEST(HashRing, PreferenceListsAreDistinctAndStartAtTheOwner) {
    const HashRing ring({"a:1", "b:2", "c:3"}, 32);
    for (int i = 0; i < 50; ++i) {
        const std::string key = "k" + std::to_string(i);
        const auto pref = ring.preference(key, 2);
        ASSERT_EQ(pref.size(), 2U);
        EXPECT_EQ(pref[0], ring.owner_of(key));
        EXPECT_NE(pref[0], pref[1]);
    }
    // Asking for more replicas than members clamps to the member count.
    EXPECT_EQ(ring.preference("x", 9).size(), 3U);
    // A single-node ring owns everything.
    const HashRing solo({"only:1"}, 8);
    EXPECT_EQ(solo.owner_of("anything"), "only:1");
}

// ---------------------------------------------------------------- config

TEST(ClusterConfigParse, PeerListAndAddressForms) {
    const PeerAddress self{"127.0.0.1", 9190};
    const ClusterConfig cfg =
        parse_peer_list(self, "127.0.0.1:9191, 127.0.0.1:9192,127.0.0.1:9190");
    EXPECT_EQ(cfg.self.name(), "127.0.0.1:9190");
    // Self and duplicates are dropped from the peer set.
    ASSERT_EQ(cfg.peers.size(), 2U);
    EXPECT_EQ(cfg.peers[0].name(), "127.0.0.1:9191");
    EXPECT_EQ(cfg.peers[1].name(), "127.0.0.1:9192");

    EXPECT_THROW((void)parse_peer_address("nohost"), Error);
    EXPECT_THROW((void)parse_peer_address("h:"), Error);
    EXPECT_THROW((void)parse_peer_address(":123"), Error);
    EXPECT_THROW((void)parse_peer_address("h:0"), Error);
    EXPECT_THROW((void)parse_peer_address("h:70000"), Error);
    EXPECT_THROW((void)parse_peer_address("h:12x"), Error);
}

TEST(ClusterConfigParse, FileFormRoundTrips) {
    const std::string path = ::testing::TempDir() + "kinet_cluster_test.conf";
    {
        std::ofstream out(path);
        out << "# three-site fleet\n"
            << "self 10.0.0.1:9190\n"
            << "peer 10.0.0.2:9190\n"
            << "peer 10.0.0.3:9190\n"
            << "virtual-nodes 32\n"
            << "replicas 3\n"
            << "probe-interval-ms 250\n";
    }
    const ClusterConfig cfg = load_cluster_config(path);
    EXPECT_EQ(cfg.self.name(), "10.0.0.1:9190");
    ASSERT_EQ(cfg.peers.size(), 2U);
    EXPECT_EQ(cfg.virtual_nodes, 32U);
    EXPECT_EQ(cfg.replicas, 3U);
    EXPECT_EQ(cfg.probe_interval_ms, 250U);
    std::remove(path.c_str());

    EXPECT_THROW((void)load_cluster_config("/nonexistent/cluster.conf"), Error);
    {
        std::ofstream out(path);
        out << "peer 10.0.0.2:9190\n";  // no self line
    }
    EXPECT_THROW((void)load_cluster_config(path), Error);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- fleet

/// Builds the ClusterConfig for member `self_index` of `addrs`.
ClusterConfig fleet_config(const std::vector<PeerAddress>& addrs, std::size_t self_index) {
    ClusterConfig cfg;
    cfg.self = addrs[self_index];
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (i != self_index) {
            cfg.peers.push_back(addrs[i]);
        }
    }
    cfg.replicas = 2;
    cfg.probe_interval_ms = 100;
    cfg.connect_timeout_ms = 1000;
    cfg.peer_timeout_ms = 30000;
    return cfg;
}

/// Shared 3-node fleet: servers on ephemeral ports, clustered after start
/// (ports are only known then), one model trained on its ring owner.
class FleetTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        std::vector<PeerAddress> addrs;
        for (std::size_t i = 0; i < 3; ++i) {
            ServerOptions options;
            options.train_workers = 2;
            servers_[i] = new SynthServer(options);
            servers_[i]->start();
            addrs.push_back(PeerAddress{"127.0.0.1", servers_[i]->port()});
        }
        for (std::size_t i = 0; i < 3; ++i) {
            servers_[i]->enable_cluster(fleet_config(addrs, i));
        }
        owned_ = new std::string(model_owned_by(0));
        const Response r = servers_[0]->handle(parse_request(
            "TRAIN " + *owned_ + " records=400 sim-seed=11 epochs=2 gan-seed=1"));
        ASSERT_TRUE(r.ok) << r.error;
        // The owner trained it locally: no peer has a copy yet, so every
        // cross-node read below genuinely exercises the peer path.
        EXPECT_NE(servers_[0]->registry().get(*owned_), nullptr);
        EXPECT_EQ(servers_[1]->registry().get(*owned_), nullptr);
        EXPECT_EQ(servers_[2]->registry().get(*owned_), nullptr);
    }
    static void TearDownTestSuite() {
        for (auto*& server : servers_) {
            delete server;
            server = nullptr;
        }
        delete owned_;
        owned_ = nullptr;
    }

    /// A model name the fleet places on node `index` (ephemeral ports make
    /// placement run-dependent, so names are found, not hardcoded).
    static std::string model_owned_by(std::size_t index) {
        const auto c = servers_[index]->cluster();
        for (int i = 0; i < 4096; ++i) {
            const std::string name = "fleet-" + std::to_string(i);
            if (c->owns(name)) {
                return name;
            }
        }
        ADD_FAILURE() << "ring never placed any name on member " << index;
        return "fleet-unplaced";
    }

    static SynthServer* servers_[3];
    static std::string* owned_;  // model name owned (and trained) on node 0
};

SynthServer* FleetTest::servers_[3] = {nullptr, nullptr, nullptr};
std::string* FleetTest::owned_ = nullptr;

TEST_F(FleetTest, MembersAgreeOnPlacement) {
    for (int i = 0; i < 40; ++i) {
        const std::string name = "agree-" + std::to_string(i);
        const std::string owner = servers_[0]->cluster()->owner_of(name);
        EXPECT_EQ(servers_[1]->cluster()->owner_of(name), owner);
        EXPECT_EQ(servers_[2]->cluster()->owner_of(name), owner);
        EXPECT_EQ(servers_[1]->cluster()->preference(name),
                  servers_[0]->cluster()->preference(name));
    }
}

TEST_F(FleetTest, ClusterOpReportsRingAndHealth) {
    auto client = SynthClient::connect("127.0.0.1", servers_[1]->port());
    const auto view = client.cluster(*owned_);
    EXPECT_EQ(view.at("enabled"), "1");
    EXPECT_EQ(view.at("self"), servers_[1]->cluster()->self_name());
    EXPECT_EQ(view.at("members"), "3");
    EXPECT_EQ(view.at("members_up"), "3");
    EXPECT_EQ(view.at("owner"), servers_[0]->cluster()->self_name());
    client.quit();

    // Standalone daemons answer CLUSTER too — with the feature off.
    SynthServer solo;
    solo.start();
    auto solo_client = SynthClient::connect("127.0.0.1", solo.port());
    EXPECT_EQ(solo_client.cluster().at("enabled"), "0");
    solo_client.quit();
    solo.stop();
}

TEST_F(FleetTest, ForwardedSampleIsByteIdenticalToOwnerDirect) {
    auto direct = SynthClient::connect("127.0.0.1", servers_[0]->port());
    auto via_peer = SynthClient::connect("127.0.0.1", servers_[1]->port());
    const std::string expect = direct.sample_csv(*owned_, 120, 77);
    const std::uint64_t forwards_before = servers_[1]->cluster()->forwards.load();

    // Framed: the non-owner proxies to the owner and relays the bytes.
    EXPECT_EQ(via_peer.sample_csv(*owned_, 120, 77), expect);
    EXPECT_GT(servers_[1]->cluster()->forwards.load(), forwards_before);
    // Forwarding relays, it does not cache: the model stays remote.
    EXPECT_EQ(servers_[1]->registry().get(*owned_), nullptr);

    // Streaming: the relay preserves content through CHUNK/END framing.
    std::string streamed;
    const std::uint64_t rows = via_peer.sample_stream(
        *owned_, 120, 77, [&](const std::string& part) { streamed += part; },
        /*chunk_rows=*/32);
    EXPECT_EQ(rows, 120U);
    EXPECT_EQ(streamed, expect);

    // VALIDATE forwards the same way (same seed, same draw, same rate).
    EXPECT_DOUBLE_EQ(via_peer.validate(*owned_, 150, 5), direct.validate(*owned_, 150, 5));

    // Errors relay as errors: an unknown model is unknown fleet-wide.
    EXPECT_THROW((void)via_peer.sample_csv("fleet-ghost-model", 10, 1), Error);
    direct.quit();
    via_peer.quit();
}

TEST_F(FleetTest, ReplicateAndFetchRoundTripByteIdentically) {
    auto owner = SynthClient::connect("127.0.0.1", servers_[0]->port());
    const std::string snapshot = owner.fetch(*owned_);
    owner.quit();
    ASSERT_FALSE(snapshot.empty());

    // Push the snapshot to node 2 under a new name; it verifies the
    // checksum, registers the model, and serves it locally from then on.
    auto peer = SynthClient::connect("127.0.0.1", servers_[2]->port());
    peer.replicate("fleet-replica-copy", snapshot);
    EXPECT_NE(servers_[2]->registry().get("fleet-replica-copy"), nullptr);
    EXPECT_EQ(peer.fetch("fleet-replica-copy"), snapshot)
        << "replicated model re-serializes differently";

    // A corrupted container is rejected whole — nothing registers.
    std::string corrupt = snapshot;
    corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
    EXPECT_THROW(peer.replicate("fleet-corrupt", corrupt), Error);
    EXPECT_EQ(servers_[2]->registry().get("fleet-corrupt"), nullptr);
    peer.quit();
}

TEST_F(FleetTest, FedtrainPublishesTheModelToEveryPeer) {
    auto client = SynthClient::connect("127.0.0.1", servers_[2]->port());
    TrainSpec spec;
    spec.records = 300;
    spec.sim_seed = 13;
    spec.epochs = 2;
    spec.gan_seed = 3;
    const std::uint64_t job = client.fedtrain_async("fleet-fed", spec);
    const auto info = client.wait_for_job(job);  // long-polls POLL wait=1
    ASSERT_EQ(info.at("state"), "done")
        << (info.count("error") != 0 ? info.at("error") : std::string{});
    client.quit();

    // The snapshot landed everywhere, and every node serves identical
    // bytes for the same seed — locally, no forwarding involved.
    std::string expect;
    for (auto* server : servers_) {
        ASSERT_NE(server->registry().get("fleet-fed"), nullptr);
        auto c = SynthClient::connect("127.0.0.1", server->port());
        const std::string csv_text = c.sample_csv("fleet-fed", 60, 9);
        if (expect.empty()) {
            expect = csv_text;
        }
        EXPECT_EQ(csv_text, expect);
        c.quit();
    }
    EXPECT_GE(servers_[2]->cluster()->replications_out.load(), 2U);
}

TEST_F(FleetTest, AsyncTrainOnANonOwnerRunsAsALocalProxyJob) {
    // A name some *other* node owns, submitted here, must proxy.
    std::string name;
    for (int i = 0; i < 4096 && name.empty(); ++i) {
        const std::string candidate = "fleet-proxy-" + std::to_string(i);
        if (!servers_[1]->cluster()->owns(candidate)) {
            name = candidate;
        }
    }
    ASSERT_FALSE(name.empty());
    auto client = SynthClient::connect("127.0.0.1", servers_[1]->port());
    TrainSpec spec;
    spec.records = 300;
    spec.sim_seed = 17;
    spec.epochs = 2;
    spec.gan_seed = 4;
    const std::uint64_t job = client.train_async(name, spec);
    // The job id is pollable *here*, on the submitting node, even though
    // the fit runs on the owner.
    const auto info = client.wait_for_job(job);
    EXPECT_EQ(info.at("state"), "done");
    const std::string& trained_owner = servers_[1]->cluster()->owner_of(name);
    for (std::size_t i = 0; i < 3; ++i) {
        if (servers_[i]->cluster()->self_name() == trained_owner) {
            EXPECT_NE(servers_[i]->registry().get(name), nullptr)
                << "owner never registered the proxied fit";
        }
    }
    // The submitting node never fitted it locally — the job was a proxy.
    EXPECT_EQ(servers_[1]->registry().get(name), nullptr);
    // And the model is reachable fleet-wide through routing.
    EXPECT_EQ(csv::parse(client.sample_csv(name, 20, 2)).rows.size(), 20U);
    client.quit();
}

TEST_F(FleetTest, StatsCarriesTheClusterSection) {
    // Each ctest case runs in its own process, so this fixture may be fresh:
    // generate the peer RPC traffic the latency lines require ourselves.
    servers_[1]->cluster()->probe_now();
    auto client = SynthClient::connect("127.0.0.1", servers_[1]->port());
    Request stats;
    stats.op = Op::stats;
    const std::string payload = client.rpc(stats).payload;
    EXPECT_NE(payload.find("peers=2"), std::string::npos) << payload;
    EXPECT_NE(payload.find("peers_up=2"), std::string::npos) << payload;
    EXPECT_NE(payload.find("forwards="), std::string::npos) << payload;
    EXPECT_NE(payload.find("forward_errors="), std::string::npos) << payload;
    EXPECT_NE(payload.find("replications="), std::string::npos) << payload;
    // Per-peer latency appears once the peer has served at least one RPC.
    EXPECT_NE(payload.find(".rpc_p99_us="), std::string::npos) << payload;
    client.quit();
}

// Failover gets its own fleet: killing a shared-fixture member would poison
// the tests above.
TEST(FleetFailover, DeadOwnerFailsOverToTheReplicaAndComesBack) {
    std::vector<SynthServer*> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 3; ++i) {
        ServerOptions options;
        auto* s = new SynthServer(options);
        s->start();
        servers.push_back(s);
        addrs.push_back(PeerAddress{"127.0.0.1", s->port()});
    }
    for (std::size_t i = 0; i < 3; ++i) {
        servers[i]->enable_cluster(fleet_config(addrs, i));
    }

    // Train on node 0's slot and publish everywhere (FEDTRAIN handles both).
    std::string name;
    for (int i = 0; i < 4096 && name.empty(); ++i) {
        const std::string candidate = "failover-" + std::to_string(i);
        if (servers[0]->cluster()->owns(candidate)) {
            name = candidate;
        }
    }
    ASSERT_FALSE(name.empty());
    {
        auto seed_client = SynthClient::connect("127.0.0.1", servers[0]->port());
        TrainSpec spec;
        spec.records = 300;
        spec.sim_seed = 23;
        spec.epochs = 2;
        spec.gan_seed = 5;
        const std::uint64_t job = seed_client.fedtrain_async(name, spec);
        ASSERT_EQ(seed_client.wait_for_job(job).at("state"), "done");
        seed_client.quit();
    }
    auto survivor = SynthClient::connect("127.0.0.1", servers[1]->port());
    const std::string expect = survivor.sample_csv(name, 80, 42);

    // Kill the owner abruptly. A probe round marks it down on the others.
    servers[0]->stop();
    servers[1]->cluster()->probe_now();
    servers[2]->cluster()->probe_now();
    EXPECT_FALSE(servers[1]->cluster()->peer_up(servers[0]->cluster()->self_name()));

    // The survivors keep serving the model — identical bytes, from their
    // published replicas — and report the death on the health surface.
    EXPECT_EQ(survivor.sample_csv(name, 80, 42), expect);
    EXPECT_EQ(survivor.cluster().at("members_up"), "2");
    auto other = SynthClient::connect("127.0.0.1", servers[2]->port());
    EXPECT_EQ(other.sample_csv(name, 80, 42), expect);
    other.quit();
    survivor.quit();
    for (auto* s : servers) {
        delete s;
    }
}

/// Binds an ephemeral port, releases it, and returns the number — a port a
/// restarted server can plausibly rebind (SO_REUSEADDR covers TIME_WAIT).
std::uint16_t reserve_port() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    KINET_CHECK(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    KINET_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                "bind() failed");
    socklen_t len = sizeof(addr);
    KINET_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                "getsockname() failed");
    ::close(fd);
    return ntohs(addr.sin_port);
}

// ---------------------------------------------------------------- membership

TEST(Membership, ViewSerializeParseRoundTrips) {
    MemberView view;
    view.epoch = 7;
    view.members = {
        Member{"10.0.0.1:9190", PeerAddress{"10.0.0.1", 9190}, MemberState::active},
        Member{"10.0.0.2:9190", PeerAddress{"10.0.0.2", 9190}, MemberState::joining},
        Member{"10.0.0.3:9190", PeerAddress{"10.0.0.3", 9190}, MemberState::leaving},
        Member{"10.0.0.4:9190", PeerAddress{"10.0.0.4", 9190}, MemberState::down},
    };
    const MemberView parsed = MemberView::parse(view.serialize());
    EXPECT_EQ(parsed.epoch, 7U);
    ASSERT_EQ(parsed.members.size(), 4U);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(parsed.members[i].name, view.members[i].name);
        EXPECT_EQ(parsed.members[i].addr, view.members[i].addr);
        EXPECT_EQ(parsed.members[i].state, view.members[i].state);
    }
    // Ring membership is joining+active only: leaving/down members keep
    // answering RPCs but own nothing, so marking a member leaving is what
    // moves its snapshots.
    EXPECT_EQ(parsed.ring_nodes(),
              (std::vector<std::string>{"10.0.0.1:9190", "10.0.0.2:9190"}));
    // Unknown trailing lines (the EPOCH payload appends ring parameters)
    // must not break parsing.
    const MemberView tolerant =
        MemberView::parse(view.serialize() + "virtual_nodes=64\nreplicas=2\n");
    EXPECT_EQ(tolerant.epoch, 7U);
    EXPECT_EQ(tolerant.members.size(), 4U);
    EXPECT_THROW((void)MemberView::parse("members=0\n"), Error);  // no epoch line
}

TEST(Membership, TableBumpsAreMonotonicAndAdoptIsStrictlyNewerWins) {
    MemberView initial;
    initial.epoch = 1;
    initial.members = {Member{"a:1", PeerAddress{"a", 1}, MemberState::active}};
    MembershipTable table(initial);
    EXPECT_EQ(table.epoch(), 1U);

    // join: new member bumps; the identical re-join is idempotent.
    EXPECT_EQ(table.join("b:2", PeerAddress{"b", 2}).epoch, 2U);
    EXPECT_EQ(table.join("b:2", PeerAddress{"b", 2}).epoch, 2U);
    EXPECT_EQ(table.view().find("b:2")->state, MemberState::joining);

    // set_state: bumps only on change.
    EXPECT_EQ(table.set_state("b:2", MemberState::active).epoch, 3U);
    EXPECT_EQ(table.set_state("b:2", MemberState::active).epoch, 3U);

    // A re-join of a leaving member re-admits it (bump back to joining).
    EXPECT_EQ(table.set_state("b:2", MemberState::leaving).epoch, 4U);
    EXPECT_EQ(table.join("b:2", PeerAddress{"b", 2}).epoch, 5U);
    EXPECT_EQ(table.view().find("b:2")->state, MemberState::joining);

    // remove: bumps when present, not when absent.
    EXPECT_EQ(table.remove("b:2").epoch, 6U);
    EXPECT_EQ(table.remove("b:2").epoch, 6U);

    // adopt: strictly newer replaces wholesale; same-or-older is refused.
    MemberView newer;
    newer.epoch = 9;
    newer.members = {Member{"c:3", PeerAddress{"c", 3}, MemberState::active}};
    EXPECT_TRUE(table.adopt(newer));
    EXPECT_EQ(table.epoch(), 9U);
    EXPECT_FALSE(table.adopt(newer));
    MemberView older = newer;
    older.epoch = 4;
    EXPECT_FALSE(table.adopt(older));
    EXPECT_EQ(table.view().find("c:3")->name, "c:3");
}

TEST(Breaker, RecordSuccessReportsTheCloseTransitionOnce) {
    BreakerOptions options;
    options.failure_threshold = 1;
    options.open_ms = 10;
    CircuitBreaker breaker(options, 1);
    // Healthy traffic: no transition to report.
    EXPECT_FALSE(breaker.record_success());
    breaker.record_failure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
    // The success that closes an open circuit is the recovery edge —
    // reported exactly once, then quiet again.
    EXPECT_TRUE(breaker.record_success());
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
    EXPECT_FALSE(breaker.record_success());
    // A disabled breaker never reports an edge.
    CircuitBreaker disabled(BreakerOptions{0, 10, 2.0, 100, 0.0}, 1);
    disabled.record_failure();
    EXPECT_FALSE(disabled.record_success());
}

// ------------------------------------------------------- dynamic membership

/// fleet_config with timers effectively off: tests drive probes and
/// dissemination explicitly, so nothing converges behind the test's back.
ClusterConfig quiet_fleet_config(const std::vector<PeerAddress>& addrs,
                                 std::size_t self_index) {
    ClusterConfig cfg = fleet_config(addrs, self_index);
    cfg.probe_interval_ms = 3600000;
    cfg.anti_entropy_interval_ms = 0;
    return cfg;
}

TEST(DynamicMembership, FourthMemberJoinsPullsItsSnapshotsAndServes) {
    // Three running members; the fourth's port is reserved up front so the
    // post-join ring is computable before the join happens.
    std::vector<SynthServer*> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 3; ++i) {
        auto* s = new SynthServer(ServerOptions{});
        s->start();
        servers.push_back(s);
        addrs.push_back(PeerAddress{"127.0.0.1", s->port()});
    }
    for (std::size_t i = 0; i < 3; ++i) {
        servers[i]->enable_cluster(quiet_fleet_config(addrs, i));
    }
    const PeerAddress joiner_addr{"127.0.0.1", reserve_port()};

    // A model the *new* ring will place on the joiner, owned by somebody
    // else today — the join must move it.
    std::vector<std::string> new_nodes;
    for (const auto& addr : addrs) {
        new_nodes.push_back(addr.name());
    }
    new_nodes.push_back(joiner_addr.name());
    const HashRing new_ring(new_nodes, ClusterConfig{}.virtual_nodes);
    std::string moved;
    for (int i = 0; i < 4096 && moved.empty(); ++i) {
        const std::string candidate = "join-moved-" + std::to_string(i);
        if (new_ring.owner_of(candidate) == joiner_addr.name()) {
            moved = candidate;
        }
    }
    ASSERT_FALSE(moved.empty());
    const std::string old_owner = servers[0]->cluster()->owner_of(moved);
    for (std::size_t i = 0; i < 3; ++i) {
        if (servers[i]->cluster()->self_name() == old_owner) {
            const Response r = servers[i]->handle(parse_request(
                "TRAIN " + moved + " records=400 sim-seed=11 epochs=2 gan-seed=1"));
            ASSERT_TRUE(r.ok) << r.error;
        }
    }
    auto owner_client = SynthClient::connect("127.0.0.1", servers[0]->port());
    const std::string golden = owner_client.sample_csv(moved, 64, 99);
    owner_client.quit();

    // A ring-aware client built against the 3-member view, used before and
    // after the join — the epoch bump must reroute it, not break it.
    RingClient ring_client({addrs[0]});
    EXPECT_EQ(ring_client.sample_csv(moved, 64, 99), golden);
    const std::uint64_t client_epoch_before = ring_client.epoch();

    // Join.  join_fleet announces via the seed, adopts the fleet view,
    // pulls what the rebalanced ring places on the joiner (the `moved`
    // snapshot), and only then goes active.
    ServerOptions joiner_options;
    joiner_options.port = joiner_addr.port;
    SynthServer joiner(joiner_options);
    joiner.start();
    ClusterConfig tuning = quiet_fleet_config({joiner_addr}, 0);
    joiner.join_fleet(tuning, addrs[0]);

    const auto jc = joiner.cluster();
    ASSERT_NE(jc, nullptr);
    EXPECT_EQ(jc->view().find(jc->self_name())->state, MemberState::active);
    EXPECT_EQ(jc->view().members.size(), 4U);
    EXPECT_NE(joiner.registry().get(moved), nullptr)
        << "join did not pull the snapshot the new ring places on the joiner";
    EXPECT_GE(jc->handoff_snapshots.load(), 1U);

    // Deterministic dissemination: the seed learned at JOIN time; everyone
    // else learns through explicit probe rounds (pong carries the newer
    // epoch; the prober pulls the view).  probe_now() adopts inline.
    for (int round = 0; round < 3; ++round) {
        for (auto* s : servers) {
            s->cluster()->probe_now();
        }
    }
    const std::uint64_t epoch = jc->epoch();
    for (auto* s : servers) {
        EXPECT_EQ(s->cluster()->epoch(), epoch) << s->cluster()->self_name();
        EXPECT_EQ(s->cluster()->view().members.size(), 4U);
        EXPECT_EQ(s->cluster()->owner_of(moved), jc->self_name());
    }
    EXPECT_GT(epoch, client_epoch_before);

    // The new owner serves the moved model byte-identically — directly and
    // through the ring client, whose stale epoch stamp is answered with the
    // retryable wrong_owner rejection, absorbed by a refresh + re-route.
    auto direct = SynthClient::connect("127.0.0.1", joiner.port());
    EXPECT_EQ(direct.sample_csv(moved, 64, 99), golden);
    direct.quit();
    EXPECT_EQ(ring_client.sample_csv(moved, 64, 99), golden);
    EXPECT_GE(ring_client.reroutes(), 1U);
    EXPECT_EQ(ring_client.epoch(), epoch);
    EXPECT_EQ(ring_client.owner_of(moved), jc->self_name());

    // wrong_owner is a *retryable* coded error — a plain client's retry
    // machinery treats it like queue_full/draining.
    EXPECT_TRUE(is_retryable_error("wrong_owner: epoch=9 owner=x"));

    // LEAVE: the joiner drains out again.  The handoff pushes `moved` back
    // into the surviving ring before the member departs.
    {
        auto admin = SynthClient::connect("127.0.0.1", joiner.port());
        Request leave;
        leave.op = Op::leave;
        leave.model = jc->self_name();
        const Response left = admin.call(leave);
        ASSERT_TRUE(left.ok) << left.error;
        const auto kv = parse_kv_payload(left.payload);
        EXPECT_EQ(kv.at("draining"), "1");
        EXPECT_GT(parse_u64(kv.at("epoch"), "leave epoch"), epoch);
    }
    for (int round = 0; round < 3; ++round) {
        for (auto* s : servers) {
            s->cluster()->probe_now();
        }
    }
    for (auto* s : servers) {
        EXPECT_EQ(s->cluster()->view().members.size(), 3U)
            << s->cluster()->self_name();
        EXPECT_NE(s->cluster()->owner_of(moved), jc->self_name());
    }
    auto survivor = SynthClient::connect("127.0.0.1", servers[1]->port());
    EXPECT_EQ(survivor.sample_csv(moved, 64, 99), golden)
        << "leave handoff lost the snapshot";
    survivor.quit();

    joiner.stop();
    for (auto* s : servers) {
        delete s;
    }
}

TEST(DynamicMembership, FedtrainProgressCountsThePeersPublishWalks) {
    std::vector<SynthServer*> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 3; ++i) {
        auto* s = new SynthServer(ServerOptions{});
        s->start();
        servers.push_back(s);
        addrs.push_back(PeerAddress{"127.0.0.1", s->port()});
    }
    for (std::size_t i = 0; i < 3; ++i) {
        servers[i]->enable_cluster(quiet_fleet_config(addrs, i));
    }
    ServerOptions joiner_options;
    joiner_options.port = reserve_port();
    SynthServer joiner(joiner_options);
    joiner.start();
    joiner.join_fleet(quiet_fleet_config({PeerAddress{"127.0.0.1", joiner_options.port}}, 0),
                      addrs[0]);

    // The seed adopted the 4-member view at JOIN time; its static config
    // still lists the 2 peers it started with.
    SynthServer& original = *servers[0];
    ASSERT_EQ(original.cluster()->config().peers.size(), 2U);
    ASSERT_EQ(original.cluster()->peer_names().size(), 3U);

    constexpr std::size_t kEpochs = 2;
    const Response submitted = original.handle(parse_request(
        "FEDTRAIN fed-after-join records=300 sim-seed=13 epochs=2 gan-seed=3"));
    ASSERT_TRUE(submitted.ok) << submitted.error;
    const auto reply = parse_kv_payload(submitted.payload);
    EXPECT_EQ(reply.at("peers"), "3");

    Request poll;
    poll.op = Op::poll;
    poll.positional.push_back(reply.at("job"));
    std::map<std::string, std::string> info;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    do {
        info = parse_kv_payload(original.handle(poll).payload);
        const auto done = parse_u64(info.at("epochs_done"), "epochs_done");
        const auto total = parse_u64(info.at("epochs_total"), "epochs_total");
        ASSERT_LE(done, total) << "progress overshot its total in state " << info.at("state");
        ASSERT_EQ(total, kEpochs + 3);
        if (info.at("state") != "queued" && info.at("state") != "running") {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (std::chrono::steady_clock::now() < deadline);
    ASSERT_EQ(info.at("state"), "done")
        << (info.count("error") != 0 ? info.at("error") : std::string{});
    EXPECT_EQ(info.at("epochs_done"), std::to_string(kEpochs + 3));
    EXPECT_NE(joiner.registry().get("fed-after-join"), nullptr)
        << "publish skipped the member that joined after startup";

    joiner.stop();
    for (auto* s : servers) {
        delete s;
    }
}

TEST(FleetRebalance, RetireSkipsThePushWhenTheOwnerAlreadyPulled) {
    std::vector<std::unique_ptr<SynthServer>> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 3; ++i) {
        servers.push_back(std::make_unique<SynthServer>(ServerOptions{}));
        servers.back()->start();
        addrs.push_back(PeerAddress{"127.0.0.1", servers.back()->port()});
    }
    for (std::size_t i = 0; i < 3; ++i) {
        servers[i]->enable_cluster(quiet_fleet_config(addrs, i));
    }
    // A model whose preference list (replicas=2 of 3 members) leaves out
    // member 2, which nevertheless holds the only copy: fwd=1 keeps the
    // TRAIN local instead of forwarding it to the owner.
    SynthServer& holder = *servers[2];
    std::string name;
    std::vector<std::string> preference;
    for (int i = 0; i < 4096 && name.empty(); ++i) {
        const std::string candidate = "retire-" + std::to_string(i);
        preference = holder.cluster()->preference(candidate);
        if (std::find(preference.begin(), preference.end(), holder.cluster()->self_name()) ==
            preference.end()) {
            name = candidate;
        }
    }
    ASSERT_FALSE(name.empty());
    const Response trained = holder.handle(
        parse_request("TRAIN " + name + " records=400 sim-seed=11 epochs=2 gan-seed=1 fwd=1"));
    ASSERT_TRUE(trained.ok) << trained.error;
    auto holder_client = SynthClient::connect("127.0.0.1", holder.port());
    const std::string golden = holder_client.sample_csv(name, 64, 99);
    holder_client.quit();

    SynthServer* owner = nullptr;
    for (auto& s : servers) {
        if (s->cluster()->self_name() == preference.front()) {
            owner = s.get();
        }
    }
    ASSERT_NE(owner, nullptr);

    // The owner pulls first...
    const std::uint64_t owner_handoffs = owner->cluster()->handoff_snapshots.load();
    (void)owner->rebalance_now();
    EXPECT_EQ(owner->cluster()->handoff_snapshots.load(), owner_handoffs + 1);
    ASSERT_NE(owner->registry().get(name), nullptr);

    // ...so the old holder's digest of the owner already lists the model at
    // its revision: it retires its copy without pushing a snapshot.
    const std::uint64_t holder_handoffs = holder.cluster()->handoff_snapshots.load();
    const std::uint64_t holder_replications = holder.cluster()->replications_out.load();
    (void)holder.rebalance_now();
    EXPECT_EQ(holder.cluster()->handoff_snapshots.load(), holder_handoffs);
    EXPECT_EQ(holder.cluster()->replications_out.load(), holder_replications);
    EXPECT_EQ(holder.registry().get(name), nullptr) << "the misplaced copy was not retired";

    auto owner_client = SynthClient::connect("127.0.0.1", owner->port());
    EXPECT_EQ(owner_client.sample_csv(name, 64, 99), golden);
    owner_client.quit();
}

TEST(FleetRepair, BreakerRecoveryTriggersAnImmediateAntiEntropyRound) {
    // Two members; `a` sits on a reserved port so it can restart in place.
    ServerOptions a_options;
    a_options.port = reserve_port();
    SynthServer a(a_options);
    a.start();
    SynthServer b{ServerOptions{}};
    b.start();
    const std::vector<PeerAddress> addrs = {
        PeerAddress{"127.0.0.1", a.port()},
        PeerAddress{"127.0.0.1", b.port()},
    };
    auto cfg_for = [&addrs](std::size_t i) {
        ClusterConfig cfg = fleet_config(addrs, i);
        // Timers parked, but anti-entropy *enabled* — the recovery wake is
        // only honoured when the operator runs with repair on.
        cfg.probe_interval_ms = 3600000;
        cfg.anti_entropy_interval_ms = 3600000;
        cfg.breaker.failure_threshold = 1;
        return cfg;
    };
    a.enable_cluster(cfg_for(0));
    b.enable_cluster(cfg_for(1));

    // A model owned by `a`, trained only there.  With replicas=2 of 2
    // members, `b` is in its preference set, so any anti-entropy round on
    // `b` pulls it — the test is *when* that round happens.
    std::string model;
    for (int i = 0; i < 1024 && model.empty(); ++i) {
        const std::string candidate = "repair-" + std::to_string(i);
        if (a.cluster()->owner_of(candidate) == a.cluster()->self_name()) {
            model = candidate;
        }
    }
    ASSERT_FALSE(model.empty());
    const Response trained = a.handle(parse_request(
        "TRAIN " + model + " records=400 sim-seed=7 epochs=2 gan-seed=1"));
    ASSERT_TRUE(trained.ok) << trained.error;
    ASSERT_EQ(b.registry().get(model), nullptr);

    // Outage: one failed probe opens the breaker (threshold 1).
    a.stop();
    b.cluster()->probe_now();
    // Recovery: probes bypass the open breaker, so the first probe after
    // the restart succeeds and closes it — and that close edge must
    // schedule an immediate anti-entropy round on the prober thread,
    // without waiting out the (hour-long here) periodic interval.
    a.start();
    b.cluster()->probe_now();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (b.registry().get(model) == nullptr &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_NE(b.registry().get(model), nullptr)
        << "breaker recovery did not trigger the repair round";
    const Response stats = b.handle(parse_request("STATS"));
    ASSERT_TRUE(stats.ok) << stats.error;
    const auto kv = parse_kv_payload(stats.payload);
    EXPECT_GE(parse_u64(kv.at("anti_entropy_rounds"), "anti_entropy_rounds"), 1U);
    a.stop();
    b.stop();
}

// ---------------------------------------------------------------- client

TEST(ClientReconnect, ResendsOnceOnAStaleConnectionAfterServerRestart) {
    ServerOptions options;
    options.port = reserve_port();
    SynthServer server(options);
    server.start();

    ClientOptions plain;
    plain.connect_timeout_ms = 2000;
    ClientOptions resilient = plain;
    resilient.reconnect_on_reset = true;
    auto sticky = SynthClient::connect("127.0.0.1", server.port(), plain);
    auto retrying = SynthClient::connect("127.0.0.1", server.port(), resilient);
    sticky.ping();
    retrying.ping();

    // Restart: both pooled connections are now dead sockets.
    server.stop();
    server.start();

    // Without the option the stale connection surfaces as a transport
    // error; with it, one transparent reconnect-and-resend succeeds.
    EXPECT_THROW(sticky.ping(), Error);
    EXPECT_NO_THROW(retrying.ping());
    retrying.quit();
    server.stop();
}

TEST(ClientLongPoll, WaitReturnsPromptlyOnCompletionAndOnTimeout) {
    SynthServer server;
    server.start();
    auto client = SynthClient::connect("127.0.0.1", server.port());

    TrainSpec slow;
    slow.records = 1000;
    slow.epochs = 500;  // far longer than the poll windows below
    const std::uint64_t job = client.train_async("longpoll-m", slow);

    // A bounded long-poll on a running job returns at its timeout with a
    // live snapshot, not an error — and not after the full fit.
    const auto t0 = std::chrono::steady_clock::now();
    const auto running = client.poll_job_wait(job, 200);
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    EXPECT_TRUE(running.at("state") == "running" || running.at("state") == "queued");
    EXPECT_LT(waited.count(), 5000);

    // Completion (here: cancellation) wakes a parked long-poll promptly —
    // wait_for_job would spin for the whole fit otherwise.
    (void)client.cancel_job(job);
    EXPECT_EQ(client.wait_for_job(job).at("state"), "cancelled");

    // POLL wait=1 on an unknown job is still a clean error.
    EXPECT_THROW((void)client.poll_job_wait(99999, 100), Error);
    client.quit();
    server.stop();
}

}  // namespace
