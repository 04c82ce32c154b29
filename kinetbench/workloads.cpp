// The three workloads.  Each one sets up its fixture several times (the
// median is setup_s), then runs a closed loop of whole rounds from one
// client thread until --seconds have passed, checking every response
// against an independent reference outside the timed region.  A traced
// run splits the budget: an untraced pass, a traced pass of the same loop
// (their ratio is the tracing overhead), then the layer suite.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <random>

#include "bench.hpp"
#include "src/common/csv.hpp"
#include "src/service/protocol.hpp"
#include "src/service/snapshot.hpp"

namespace kinetbench {

using kinet::service::Op;
using kinet::service::Request;
using kinet::service::Response;
using kinet::service::SynthClient;
using kinet::service::SynthServer;

namespace {

constexpr int kSetups = 5;

/// Builds the fixture kSetups times; keeps the last one and reports the
/// lower quartile of the build times as setup_s, read like the other
/// times (an end-to-end metric, so untraced runs only).
template <typename Fixture>
std::unique_ptr<Fixture> timed_setup(const RunConfig& config,
                                     const std::function<std::unique_ptr<Fixture>()>& build,
                                     Report& report) {
    std::vector<double> seconds;
    std::unique_ptr<Fixture> fixture;
    for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
        fixture.reset();
        const auto t0 = Clock::now();
        fixture = build();
        seconds.push_back(seconds_between(t0, Clock::now()));
    }
    if (!config.trace) {
        report.add("setup_s", quantile(seconds, 0.25), "s");
    }
    return fixture;
}

/// The user-facing figures every workload reports, gathered per round.
/// Each metric is read at the run's better quartile of rounds: rates at the
/// upper quartile, times at the lower.  Contention from other tenants of
/// the host only ever slows a round, and it comes in bursts that can cover
/// most of a run, so the faster rounds are the ones that show the
/// program's own speed (see README, "Host drift").  Within a round, the typical value of a sample set is its median when it
/// has at least 100 samples (enough for ten beyond its p90), else its mean:
/// a stream or train round holds four requests that mix the two models, and
/// the median of so few two-humped samples jumps between the humps.  The
/// tail is the round's p90, or its typical value below 100 samples.
class Figures {
public:
    void add_request(double ms, std::size_t rows_returned) {
        round_.latency_ms.push_back(ms);
        round_.request_ms += ms;
        if (rows_returned > 0) {
            round_.rows += rows_returned;
            round_.row_request_ms += ms;
        }
    }
    void add_stream(const StreamResult& r) {
        round_.first_chunk_ms.push_back(r.first_chunk_ms);
        round_.gap_ms.insert(round_.gap_ms.end(), r.gaps_ms.begin(), r.gaps_ms.end());
    }
    void add_change(double seconds) { round_.change_s.push_back(seconds); }
    /// Closes a round; a round whose operations all failed adds nothing.
    void end_round() {
        if (round_.rows > 0) {
            rows_per_s_.push_back(static_cast<double>(round_.rows) / round_.row_request_ms * 1e3);
        }
        if (!round_.latency_ms.empty()) {
            requests_per_s_.push_back(static_cast<double>(round_.latency_ms.size()) /
                                      round_.request_ms * 1e3);
            latency_ms_.push_back(typical(round_.latency_ms));
            latency_tail_ms_.push_back(tail(round_.latency_ms));
        }
        if (!round_.first_chunk_ms.empty()) {
            first_chunk_ms_.push_back(typical(round_.first_chunk_ms));
        }
        if (!round_.gap_ms.empty()) {
            gap_tail_ms_.push_back(tail(round_.gap_ms));
        }
        if (!round_.change_s.empty()) {
            change_s_.push_back(typical(round_.change_s));
        }
        round_ = Round{};
    }
    /// Time per unit of work (a row, or a request when no rows came back),
    /// for the traced pass's overhead.
    [[nodiscard]] double unit_cost() const {
        return 1.0 / better_rate(rows_per_s_.empty() ? requests_per_s_ : rows_per_s_);
    }
    [[nodiscard]] double change_cost() const { return better_time(change_s_); }
    void report_to(Report& report) const {
        report.add("rows_per_s", better_rate(rows_per_s_), "rows/s");
        report.add("first_chunk_ms", better_time(first_chunk_ms_), "ms");
        report.add("chunk_gap_p90_ms", better_time(gap_tail_ms_), "ms");
        report.add("requests_per_s", better_rate(requests_per_s_), "req/s");
        report.add("latency_p50_ms", better_time(latency_ms_), "ms");
        report.add("latency_p90_ms", better_time(latency_tail_ms_), "ms");
        report.add("change_s", better_time(change_s_), "s");
        report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    }

private:
    static constexpr std::size_t kTailSamples = 100;
    struct Round {
        std::uint64_t rows = 0;
        double row_request_ms = 0.0;
        double request_ms = 0.0;
        std::vector<double> latency_ms;
        std::vector<double> first_chunk_ms;
        std::vector<double> gap_ms;
        std::vector<double> change_s;
    };
    static double typical(const std::vector<double>& v) {
        if (v.size() >= kTailSamples) {
            return median(v);
        }
        double sum = 0.0;
        for (const double x : v) {
            sum += x;
        }
        return sum / static_cast<double>(v.size());
    }
    static double tail(const std::vector<double>& v) {
        return v.size() >= kTailSamples ? quantile(v, 0.9) : typical(v);
    }

    static double better_rate(const std::vector<double>& per_round) {
        return quantile(per_round, 0.75);
    }
    static double better_time(const std::vector<double>& per_round) {
        return quantile(per_round, 0.25);
    }

    Round round_;
    std::vector<double> rows_per_s_, requests_per_s_, latency_ms_, latency_tail_ms_,
        first_chunk_ms_, gap_tail_ms_, change_s_;
};

/// Runs whole rounds until `seconds` have passed (and at least
/// `min_rounds`, so every sample count the tail rule looks at is fixed by
/// the workload's shape).
void run_rounds(double seconds, int min_rounds, const std::function<void(int)>& round) {
    const auto t0 = Clock::now();
    for (int r = 0; r < min_rounds || seconds_between(t0, Clock::now()) < seconds; ++r) {
        round(r);
    }
}

/// Runs `loop` untraced (the end-to-end figures) or, in a traced run, an
/// untraced pass and a traced pass, and reports the tracing overhead as
/// the traced pass's cost per unit of work against the untraced pass's.
/// `unit_cost` reads the cost per unit from a pass's figures.
void run_passes(const RunConfig& config, Report& report,
                const std::function<Figures(double, bool)>& loop,
                const std::function<double(const Figures&)>& unit_cost) {
    if (!config.trace) {
        loop(config.seconds, false).report_to(report);
        return;
    }
    const Figures plain = loop(config.seconds * 0.4, false);
    Tracer::get().enable(true);
    const Figures traced = loop(config.seconds * 0.4, true);
    report.add("trace.overhead_pct", (unit_cost(traced) / unit_cost(plain) - 1.0) * 100.0, "%");
}

std::string what_of(const std::exception& e) { return e.what(); }

}  // namespace

// ================================================================ stream

int run_stream(const RunConfig& config) {
    // One member holds a lab and a UNSW model; one connection runs a closed
    // loop of large streamed SAMPLEs in 512-row chunks, alternating models,
    // every fourth one pinning a conditional column.  Every other request
    // is followed by a model update: the snapshot is pushed again (REPLICATE)
    // and a first chunk is served from it — change_s.  The pinned request
    // fails its label check every time, on the known conditioning fault
    // (README, "Output checks"), so its pin and seed come from the round
    // number, not --seed: a counted failure must not depend on the seed.
    struct Fixture {
        Models models;
        std::unique_ptr<SynthServer> server;
        std::unique_ptr<SynthClient> client;
    };
    Report report;
    Outcome outcome;
    const auto fx = timed_setup<Fixture>(
        config,
        [] {
            auto f = std::make_unique<Fixture>(Fixture{train_models(), nullptr, nullptr});
            f->server = std::make_unique<SynthServer>(member_options());
            f->server->start();
            f->client = std::make_unique<SynthClient>(
                SynthClient::connect("127.0.0.1", f->server->port()));
            f->client->replicate("lab", f->models.lab_snapshot);
            f->client->replicate("unsw", f->models.unsw_snapshot);
            return f;
        },
        report);
    constexpr std::size_t kChunk = 512;
    constexpr std::size_t kSizes[] = {12288, 16384, 20480, 24576};
    const Models& models = fx->models;
    SynthClient& client = *fx->client;

    auto loop = [&](double seconds, bool traced) {
        Figures fig;
        std::mt19937_64 rng(config.seed * 0x9E3779B97F4A7C15ULL + (traced ? 1 : 0));
        // A round is four requests: lab, UNSW, lab, UNSW (pinned).
        run_rounds(seconds, 6, [&](int round) {
            for (int k = 0; k < 4; ++k) {
                const bool unsw = k % 2 == 1;
                const std::string name = unsw ? "unsw" : "lab";
                const auto& model = models.model(unsw);
                const std::size_t n = kSizes[(static_cast<std::size_t>(round) + k) % 4];
                const bool pinned = k == 3;
                const std::uint64_t seed = pinned ? 5000 + static_cast<std::uint64_t>(round) : rng();
                const std::string pin =
                    pinned ? draw_pin(model, unsw, static_cast<std::uint64_t>(round)) : std::string();
                Outcome::Op op(outcome);
                try {
                    const StreamResult r =
                        stream_sample(client, name, model.schema(), n, seed, kChunk, pin);
                    fig.add_request(r.total_ms, r.rows_parsed);
                    fig.add_stream(r);
                    op.expect(r.rows_parsed == n, "parsed " + std::to_string(r.rows_parsed) +
                                                      " rows of " + std::to_string(n));
                    const std::string bad = check_csv(r.text, model.schema(), n);
                    if (op.expect(bad.empty(), "stream " + name + ": " + bad) && pinned) {
                        const std::size_t misses = rows_without_pin(r.text, model.schema(), pin);
                        op.known_fault(misses == 0, "stream " + name + " cond=" + pin + ": " +
                                                        std::to_string(misses) + " of " +
                                                        std::to_string(n) +
                                                        " rows lack the pinned label");
                    }
                    // Byte-for-byte against the in-process sampler on every
                    // pinned request and every third other one.
                    if (pinned || (static_cast<std::size_t>(round) * 4 + k) % 3 == 0) {
                        op.expect(r.text == reference_csv(model, n, seed, pin),
                                  "stream " + name + " n=" + std::to_string(n) +
                                      " differs from the in-process sample");
                    }
                } catch (const std::exception& e) {
                    op.expect(false, "stream " + name + ": " + what_of(e));
                }
                if (k % 2 == 1) {
                    // A model update: the lab model after the second
                    // request, the UNSW model after the fourth.
                    const bool update_unsw = k == 3;
                    const std::string updated = update_unsw ? "unsw" : "lab";
                    const auto& updated_model = models.model(update_unsw);
                    Outcome::Op change(outcome);
                    try {
                        Span span("service.model_update");
                        const auto t0 = Clock::now();
                        client.replicate(updated, models.snapshot(update_unsw));
                        const StreamResult first = stream_sample(
                            client, updated, updated_model.schema(), kChunk, seed, kChunk, {});
                        fig.add_change(seconds_between(t0, Clock::now()));
                        change.expect(first.text == reference_csv(updated_model, kChunk, seed, {}),
                                      "updated model " + updated + " serves different bytes");
                    } catch (const std::exception& e) {
                        change.expect(false, "model update " + updated + ": " + what_of(e));
                    }
                }
            }
            fig.end_round();
        });
        return fig;
    };
    run_passes(config, report, loop, [](const Figures& f) { return f.unit_cost(); });
    if (config.trace) {
        const ServeTarget target{fx->server.get(), "lab"};
        Fleet fleet(models);
        layer_suite(config, models, target, fleet, report, outcome);
    }
    return finish(config, report, outcome);
}

// ================================================================= fleet

int run_fleet(const RunConfig& config) {
    // Tiny requests on the four-member fleet, half paying a forward hop at
    // a non-owner and half routed to the owner (RingClient for framed
    // requests, the owner's own connection for streamed ones).  Each round
    // is 512 requests followed by one leave-and-rejoin cycle of the fourth
    // member.
    struct Fixture {
        Models models;
        std::unique_ptr<Fleet> fleet;
        std::unique_ptr<kinet::service::RingClient> ring;
    };
    Report report;
    Outcome outcome;
    const auto fx = timed_setup<Fixture>(
        config,
        [] {
            auto f = std::make_unique<Fixture>(Fixture{train_models(), nullptr, nullptr});
            f->fleet = std::make_unique<Fleet>(f->models);
            kinet::service::ClientOptions options;
            options.reconnect_on_reset = true;
            options.connect_attempts = 3;
            f->ring = std::make_unique<kinet::service::RingClient>(
                std::vector<kinet::service::PeerAddress>{f->fleet->addresses()[0]}, options);
            f->ring->refresh();
            return f;
        },
        report);
    Fleet& fleet = *fx->fleet;
    kinet::service::RingClient& ring = *fx->ring;
    const Models& models = fx->models;
    constexpr int kRoundRequests = 512;

    auto loop = [&](double seconds, bool traced) {
        Figures fig;
        std::mt19937_64 rng(config.seed * 0xD1B54A32D192ED03ULL + (traced ? 1 : 0));
        run_rounds(seconds, 4, [&](int round) {
            for (int i = 0; i < kRoundRequests; ++i) {
                const std::size_t m = rng() % Fleet::kModels;
                const bool unsw = fleet.model_is_unsw(m);
                const auto& model = models.model(unsw);
                const std::string& name = fleet.model_name(m);
                const std::uint64_t seed = rng();
                const std::size_t n = 1 + rng() % 16;
                const int kind = i % 4;  // 0,1 framed SAMPLE; 2 streamed SAMPLE; 3 VALIDATE
                const bool forwarded = (i / 4) % 2 == 0;
                const std::string pin = kind == 1 ? draw_pin(model, unsw, rng()) : std::string();
                const std::size_t member = forwarded ? fleet.non_owner(m, rng()) : fleet.placement(m)[0];
                Outcome::Op op(outcome);
                try {
                    if (kind == 2) {
                        const std::size_t rows = 8 * n;
                        const StreamResult r = stream_sample(fleet.client(member), name,
                                                             model.schema(), rows, seed, 8, pin);
                        fig.add_request(r.total_ms, r.rows_parsed);
                        fig.add_stream(r);
                        op.expect(r.text == reference_csv(model, rows, seed, pin),
                                  "streamed " + name + " differs from the in-process sample");
                        continue;
                    }
                    Request request;
                    request.op = kind == 3 ? Op::validate : Op::sample;
                    request.model = name;
                    if (kind == 3) {
                        request.kv["n"] = std::to_string(n);
                    } else {
                        request.positional.push_back(std::to_string(n));
                    }
                    request.kv["seed"] = std::to_string(seed);
                    if (!pin.empty()) {
                        request.kv["cond"] = pin;
                    }
                    Response response;
                    std::size_t rows = 0;
                    const auto t0 = Clock::now();
                    {
                        Span span(forwarded ? "service.request.forwarded" : "service.request.ring");
                        response = forwarded ? fleet.client(member).call(request) : ring.rpc(request);
                        if (response.ok && kind != 3) {
                            Span parse("client.parse", static_cast<double>(n));
                            rows = kinet::data::Table::from_csv(
                                       kinet::csv::parse(response.payload), model.schema())
                                       .rows();
                        }
                    }
                    const double ms = ms_since(t0);
                    fig.add_request(ms, rows);
                    if (!op.expect(response.ok, name + ": " + response.error)) {
                        continue;
                    }
                    if (kind == 3) {
                        op.expect(kinet::service::parse_kv_payload(response.payload).at("validity") ==
                                      reference_validity(model, models.oracle(unsw), n, seed),
                                  "VALIDATE " + name + " disagrees with the oracle recount");
                    } else {
                        op.expect(response.payload == reference_csv(model, n, seed, pin),
                                  "SAMPLE " + name + " differs from the in-process sample");
                        op.expect(check_csv(response.payload, model.schema(), n).empty(),
                                  "SAMPLE " + name + " fails the output checks");
                        if (forwarded && i % 16 == 0) {
                            const Response direct =
                                fleet.client(fleet.placement(m)[0]).call(request);
                            op.expect(direct.ok && direct.payload == response.payload,
                                      "forwarded and owner-direct bytes differ for " + name);
                        }
                    }
                } catch (const std::exception& e) {
                    op.expect(false, name + ": " + what_of(e));
                }
            }
            // One churn cycle: the fourth member leaves, then rejoins.
            Outcome::Op op(outcome);
            try {
                const Fleet::Change left = fleet.leave(op);
                const Fleet::Change joined = fleet.join(op);
                fleet.check_models_agree(op, 1000 + static_cast<std::uint64_t>(round));
                fig.add_change(left.seconds + joined.seconds);
            } catch (const std::exception& e) {
                op.expect(false, "churn cycle: " + what_of(e));
            }
            fig.end_round();
        });
        return fig;
    };
    run_passes(config, report, loop, [](const Figures& f) { return f.unit_cost(); });
    if (config.trace) {
        const std::size_t owner = fleet.placement(0)[0];
        const ServeTarget target{&fleet.server(owner), fleet.model_name(0)};
        layer_suite(config, models, target, fleet, report, outcome);
    }
    return finish(config, report, outcome);
}

// ================================================================= train

int run_train(const RunConfig& config) {
    // FEDTRAIN async=1 at each of the four sites in turn on simulated site
    // data, awaited with POLL wait=1 (change_s); after each publish a
    // consumer pulls 8192 rows of the fresh model through another member
    // in 128-row chunks — the requests behind the row and latency figures.
    struct Fixture {
        Models models;
        std::unique_ptr<Fleet> fleet;
    };
    Report report;
    Outcome outcome;
    const auto fx = timed_setup<Fixture>(
        config,
        [] {
            auto f = std::make_unique<Fixture>(Fixture{train_models(), nullptr});
            f->fleet = std::make_unique<Fleet>(f->models);
            return f;
        },
        report);
    Fleet& fleet = *fx->fleet;
    const Models& models = fx->models;
    constexpr std::size_t kPullRows = 8192;
    constexpr std::size_t kPullChunk = 128;

    auto loop = [&](double seconds, bool traced) {
        Figures fig;
        std::mt19937_64 rng(config.seed * 0x94D049BB133111EBULL + (traced ? 1 : 0));
        run_rounds(seconds, 4, [&](int round) {
            for (std::size_t site = 0; site < Fleet::kMembers; ++site) {
                const bool unsw = site % 2 == 1;
                const std::string name = "fed-" + std::to_string(site);
                const std::uint64_t sim_seed = rng() % 1000000;
                const std::uint64_t gan_seed = rng() % 1000000;
                bool published = false;
                {
                    Outcome::Op op(outcome);
                    try {
                        fig.add_change(
                            run_fedtrain(fleet, site, name, unsw, sim_seed, gan_seed, false, op)
                                .seconds);
                        published = true;
                    } catch (const std::exception& e) {
                        op.expect(false, "FEDTRAIN " + name + ": " + what_of(e));
                    }
                }
                Outcome::Op pull(outcome);
                if (!pull.expect(published, "no model to pull after a failed FEDTRAIN")) {
                    continue;
                }
                try {
                    const auto& schema = models.model(unsw).schema();
                    const std::uint64_t seed = rng();
                    SynthClient& consumer = fleet.client((site + 1) % Fleet::kMembers);
                    const StreamResult r =
                        stream_sample(consumer, name, schema, kPullRows, seed, kPullChunk, {});
                    fig.add_request(r.total_ms, r.rows_parsed);
                    fig.add_stream(r);
                    pull.expect(check_csv(r.text, schema, kPullRows).empty(),
                                "pull of " + name + " fails the output checks");
                    if ((static_cast<std::size_t>(round) + site) % 2 == 0) {
                        // Byte-exact against the published snapshot sampled
                        // in-process.
                        const auto published_model =
                            kinet::service::read_snapshot(consumer.fetch(name));
                        pull.expect(r.text == reference_csv(*published_model, kPullRows, seed, {}),
                                    "pull of " + name + " differs from its snapshot's sample");
                    }
                } catch (const std::exception& e) {
                    pull.expect(false, "pull of " + name + ": " + what_of(e));
                }
            }
            fig.end_round();
        });
        return fig;
    };
    run_passes(config, report, loop, [](const Figures& f) { return f.change_cost(); });
    if (config.trace) {
        const std::size_t owner = fleet.placement(0)[0];
        const ServeTarget target{&fleet.server(owner), fleet.model_name(0)};
        layer_suite(config, models, target, fleet, report, outcome);
    }
    return finish(config, report, outcome);
}

}  // namespace kinetbench
