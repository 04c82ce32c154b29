// The four-member fleet fixture, its membership changes, and the FEDTRAIN
// operation of the train workload (see bench.hpp).
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "src/service/cluster/ring.hpp"
#include "src/service/protocol.hpp"

namespace kinetbench {

using kinet::service::ClusterConfig;
using kinet::service::HashRing;
using kinet::service::MemberView;
using kinet::service::Op;
using kinet::service::PeerAddress;
using kinet::service::Request;
using kinet::service::Response;
using kinet::service::SynthClient;
using kinet::service::SynthServer;

namespace {

constexpr std::size_t kVirtualNodes = 64;
constexpr std::size_t kParked = 3'600'000;  // ms: a timer that never fires in a run
constexpr int kConvergeRounds = 2000;

std::unique_ptr<SynthClient> connect_to(const PeerAddress& addr) {
    return std::make_unique<SynthClient>(SynthClient::connect(addr.host, addr.port));
}

/// The member ring the fleet computes placement with, for the given
/// member names — the same hash ring the servers build.
HashRing ring_of(const std::vector<std::string>& names, std::size_t members) {
    return HashRing(std::vector<std::string>(names.begin(), names.begin() +
                                                                static_cast<std::ptrdiff_t>(members)),
                    kVirtualNodes);
}

}  // namespace

ClusterConfig Fleet::config_for(std::size_t i) const {
    ClusterConfig config;
    config.self = addrs_.at(i);
    for (std::size_t j = 0; j < kMembers - 1; ++j) {
        if (j != i) {
            config.peers.push_back(addrs_[j]);
        }
    }
    config.virtual_nodes = kVirtualNodes;
    config.replicas = kReplicas;
    // Convergence is driven by probe_now/rebalance_now, so the run measures
    // work, not timer intervals.
    config.probe_interval_ms = kParked;
    config.anti_entropy_interval_ms = 0;
    return config;
}

Fleet::Fleet(const Models& models) : models_(models) {
    for (std::size_t i = 0; i + 1 < kMembers; ++i) {
        servers_.push_back(std::make_unique<SynthServer>(member_options()));
        servers_.back()->start();
        addrs_.push_back(PeerAddress{"127.0.0.1", servers_.back()->port()});
        names_.push_back(addrs_.back().name());
    }
    for (std::size_t i = 0; i + 1 < kMembers; ++i) {
        servers_[i]->enable_cluster(config_for(i));
        clients_.push_back(connect_to(addrs_[i]));
    }
    servers_.push_back(nullptr);
    clients_.push_back(nullptr);
    addrs_.push_back(PeerAddress{"127.0.0.1", 0});
    names_.emplace_back();
    start_joiner();
    choose_models();
    const HashRing before = ring_of(names_, kMembers - 1);
    for (std::size_t m = 0; m < kModels; ++m) {
        for (const auto& holder : before.preference(model_names_[m], kReplicas)) {
            const auto at = std::find(names_.begin(), names_.end(), holder) - names_.begin();
            clients_.at(static_cast<std::size_t>(at))
                ->replicate(model_names_[m], models_.snapshot(model_is_unsw(m)));
        }
    }
    ClusterConfig tuning = config_for(kMembers - 1);
    tuning.peers.clear();
    servers_[kMembers - 1]->join_fleet(tuning, addrs_[0]);
    joined_ = true;
    (void)converge(servers_[kMembers - 1]->cluster()->epoch());
    clients_[kMembers - 1] = connect_to(addrs_[kMembers - 1]);
    last_epoch_.assign(kMembers, 0);
    for (std::size_t i = 0; i < kMembers; ++i) {
        last_epoch_[i] = servers_[i]->cluster()->epoch();
    }
}

Fleet::~Fleet() {
    clients_.clear();
    for (auto& server : servers_) {
        if (server != nullptr) {
            server->stop();
        }
    }
}

void Fleet::start_joiner() {
    // The same address on every rejoin keeps the member's ring identity,
    // so every churn cycle moves the same models.
    auto& joiner = servers_[kMembers - 1];
    joiner = std::make_unique<SynthServer>(member_options(addrs_[kMembers - 1].port));
    joiner->start();
    addrs_[kMembers - 1].port = joiner->port();
    names_[kMembers - 1] = addrs_[kMembers - 1].name();
}

void Fleet::choose_models() {
    const HashRing after = ring_of(names_, kMembers);
    const std::string& joiner = names_[kMembers - 1];
    std::vector<std::string> owned, replicated, unmoved;
    for (int k = 0; owned.size() < 3 || replicated.size() < 3 || unmoved.size() < 6; ++k) {
        if (k > 100000) {
            throw std::runtime_error("fleet: could not place the model set");
        }
        const std::string name = "model-" + std::to_string(k);
        const auto pref = after.preference(name, kReplicas);
        auto& bucket = pref[0] == joiner ? owned : pref[1] == joiner ? replicated : unmoved;
        const std::size_t want = &bucket == &unmoved ? 6 : 3;
        if (bucket.size() < want) {
            bucket.push_back(name);
        }
    }
    model_names_ = owned;
    model_names_.insert(model_names_.end(), replicated.begin(), replicated.end());
    model_names_.insert(model_names_.end(), unmoved.begin(), unmoved.end());
}

std::vector<std::size_t> Fleet::placement(std::size_t m) const {
    const HashRing ring = ring_of(names_, member_count());
    std::vector<std::size_t> out;
    for (const auto& holder : ring.preference(model_names_.at(m), kReplicas)) {
        out.push_back(static_cast<std::size_t>(
            std::find(names_.begin(), names_.end(), holder) - names_.begin()));
    }
    return out;
}

std::size_t Fleet::non_owner(std::size_t m, std::uint64_t draw) const {
    const auto pref = placement(m);
    std::vector<std::size_t> others;
    for (std::size_t i = 0; i < member_count(); ++i) {
        if (std::find(pref.begin(), pref.end(), i) == pref.end()) {
            others.push_back(i);
        }
    }
    return others[draw % others.size()];
}

bool Fleet::converged(std::uint64_t epoch) const {
    for (std::size_t i = 0; i < member_count(); ++i) {
        if (servers_[i]->cluster()->epoch() != epoch) {
            return false;
        }
    }
    for (std::size_t m = 0; m < kModels; ++m) {
        for (const std::size_t holder : placement(m)) {
            if (servers_[holder]->registry().get(model_names_[m]) == nullptr) {
                return false;
            }
        }
    }
    return true;
}

double Fleet::converge(std::uint64_t epoch) {
    double rebalance_ms = 0.0;
    for (int round = 0; round < kConvergeRounds; ++round) {
        for (std::size_t i = 0; i < member_count(); ++i) {
            servers_[i]->cluster()->probe_now();
        }
        if (converged(epoch)) {
            return rebalance_ms;
        }
        for (std::size_t i = 0; i < member_count(); ++i) {
            Span span("cluster.rebalance_now");
            const auto t0 = Clock::now();
            span.set_items(static_cast<double>(servers_[i]->rebalance_now()));
            rebalance_ms += ms_since(t0);
        }
        if (converged(epoch)) {
            return rebalance_ms;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("fleet: members did not converge on epoch " + std::to_string(epoch));
}

void Fleet::observe_epochs(Outcome::Op& op) {
    for (std::size_t i = 0; i < member_count(); ++i) {
        Request request;
        request.op = Op::epoch;
        const std::uint64_t epoch = MemberView::parse(clients_[i]->rpc(request).payload).epoch;
        op.expect(epoch > last_epoch_[i], "member " + names_[i] + " epoch went from " +
                                              std::to_string(last_epoch_[i]) + " to " +
                                              std::to_string(epoch));
        last_epoch_[i] = epoch;
    }
}

std::uint64_t Fleet::handoff_total() {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kMembers; ++i) {
        if (clients_[i] == nullptr) {
            continue;
        }
        const auto stats = clients_[i]->stats("");
        if (const auto it = stats.find("handoff_snapshots"); it != stats.end()) {
            total += std::stoull(it->second);
        }
    }
    return total;
}

std::vector<std::string> Fleet::wire_placements() {
    std::vector<std::string> out;
    for (std::size_t m = 0; m < kModels; ++m) {
        out.push_back(clients_[0]->cluster(model_names_[m]).at("pref"));
    }
    return out;
}

namespace {

std::size_t count_changed(const std::vector<std::string>& a, const std::vector<std::string>& b) {
    std::size_t changed = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        changed += a[i] != b.at(i) ? 1 : 0;
    }
    return changed;
}

}  // namespace

Fleet::Change Fleet::leave(Outcome::Op& op) {
    Change change;
    const auto placed_before = wire_placements();
    const std::uint64_t handoffs_before = handoff_total();
    const auto t0 = Clock::now();
    std::uint64_t epoch = 0;
    {
        Span span("cluster.leave");
        Request request;
        request.op = Op::leave;
        request.model = names_[kMembers - 1];
        const Response left = clients_[kMembers - 1]->call(request);
        if (!op.expect(left.ok, "LEAVE failed: " + left.error)) {
            return change;
        }
        epoch = std::stoull(kinet::service::parse_kv_payload(left.payload).at("epoch"));
        joined_ = false;
        change.rebalance_ms = converge(epoch);
    }
    change.seconds = seconds_between(t0, Clock::now());
    // The leaver still answers STATS while it drains.
    change.handoffs = handoff_total() - handoffs_before;
    clients_[kMembers - 1].reset();
    servers_[kMembers - 1]->stop();
    servers_[kMembers - 1].reset();
    change.moved = count_changed(placed_before, wire_placements());
    observe_epochs(op);
    return change;
}

Fleet::Change Fleet::join(Outcome::Op& op) {
    Change change;
    const auto placed_before = wire_placements();
    const std::uint64_t handoffs_before = handoff_total();
    const auto t0 = Clock::now();
    {
        Span span("cluster.join");
        start_joiner();
        ClusterConfig tuning = config_for(kMembers - 1);
        tuning.peers.clear();
        {
            Span join_span("cluster.join_fleet");
            const auto tj = Clock::now();
            servers_[kMembers - 1]->join_fleet(tuning, addrs_[0]);
            change.join_fleet_ms = ms_since(tj);
        }
        joined_ = true;
        change.rebalance_ms = converge(servers_[kMembers - 1]->cluster()->epoch());
    }
    change.seconds = seconds_between(t0, Clock::now());
    clients_[kMembers - 1] = connect_to(addrs_[kMembers - 1]);
    change.handoffs = handoff_total() - handoffs_before;
    change.moved = count_changed(placed_before, wire_placements());
    observe_epochs(op);
    return change;
}

void Fleet::check_models_agree(Outcome::Op& op, std::uint64_t seed) {
    for (std::size_t m = 0; m < kModels; ++m) {
        const std::string expected =
            reference_csv(models_.model(model_is_unsw(m)), 8, seed + m, {});
        for (std::size_t i = 0; i < member_count(); ++i) {
            const std::string got = clients_[i]->sample_csv(model_names_[m], 8, seed + m);
            op.expect(got == expected, "model " + model_names_[m] + " answers differently from " +
                                           names_[i] + " after a membership change");
        }
    }
}

// -------------------------------------------------------------- FEDTRAIN

FedtrainResult run_fedtrain(Fleet& fleet, std::size_t site, const std::string& model, bool unsw,
                            std::uint64_t sim_seed, std::uint64_t gan_seed, bool time_publish,
                            Outcome::Op& op) {
    constexpr std::size_t kEpochs = 3;
    kinet::service::TrainSpec spec;
    spec.records = 1000;
    spec.sim_seed = sim_seed;
    spec.epochs = kEpochs;
    spec.gan_seed = gan_seed;
    spec.domain = unsw ? "unsw" : "lab";
    SynthClient& client = fleet.client(site);

    FedtrainResult result;
    std::map<std::string, std::string> info;
    const auto t0 = Clock::now();
    {
        Span span("cluster.fedtrain");
        const std::uint64_t id = client.fedtrain_async(model, spec);
        if (time_publish) {
            // Progress counts epochs first, then one unit per peer
            // published to: the first poll that sees the last epoch done
            // marks the start of registration and publish.
            double publish_start = -1.0;
            for (;;) {
                info = client.poll_job(id);
                const std::string& state = info.at("state");
                if (state != "queued" && state != "running") {
                    break;
                }
                if (publish_start < 0.0 && std::stoull(info.at("epochs_done")) >= kEpochs) {
                    publish_start = ms_since(t0);
                }
                std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
            if (publish_start >= 0.0) {
                result.publish_ms = ms_since(t0) - publish_start;
            }
        } else {
            info = client.wait_for_job(id, 5000);
        }
    }
    result.seconds = seconds_between(t0, Clock::now());

    if (!op.expect(info.at("state") == "done",
                   "FEDTRAIN at " + fleet.member_name(site) + " ended " + info.at("state") +
                       (info.count("error") != 0 ? ": " + info.at("error") : ""))) {
        return result;
    }
    const std::uint64_t done = std::stoull(info.at("epochs_done"));
    const std::uint64_t total = std::stoull(info.at("epochs_total"));
    op.expect(done == total, "FEDTRAIN done with epochs_done=" + std::to_string(done) +
                                 " epochs_total=" + std::to_string(total));
    // publish walks the live view: one unit per other member.
    const std::uint64_t published = fleet.member_count() - 1;
    op.known_fault(total == kEpochs + published,
                   "FEDTRAIN at " + fleet.member_name(site) + " sized its progress for " +
                       std::to_string(total - kEpochs) + " peers but published to " +
                       std::to_string(published));

    const auto stats = client.stats(model);
    for (const char* key : {"final_g_loss", "final_d_loss"}) {
        const auto it = stats.find(key);
        op.expect(it != stats.end() && std::isfinite(std::stod(it->second)),
                  std::string("FEDTRAIN model lacks a finite ") + key);
    }
    // Every member answers from its own published copy (fwd=1 pins the
    // request to the member it is sent to).
    Request sample;
    sample.op = Op::sample;
    sample.model = model;
    sample.positional.push_back("64");
    sample.kv["seed"] = std::to_string(gan_seed);
    sample.kv[std::string(kinet::service::kForwardedKey)] = "1";
    const std::string expected = client.rpc(sample).payload;
    for (std::size_t i = 0; i < fleet.member_count(); ++i) {
        const Response got = fleet.client(i).call(sample);
        op.expect(got.ok && got.payload == expected,
                  "published model " + model + " differs on " + fleet.member_name(i));
    }
    return result;
}

}  // namespace kinetbench
