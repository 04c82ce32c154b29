// kinetbench — the end-to-end benchmark program for the kinetd serving stack.
//
// Shared pieces: timing and statistics, the in-memory span recorder of the
// traced run, the result report, the benchmark's own CSV rendering and
// output checks (written apart from the library's encoder so a check never
// passes because the code under test agrees with itself), and the
// fixtures every workload builds on.  Servers run in-process and are
// reached over loopback TCP through the public SynthServer, SynthClient and
// RingClient APIs; the program has one client thread, so none of this is
// thread-safe.
#ifndef KINETBENCH_BENCH_H
#define KINETBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/kinetgan.hpp"
#include "src/data/table.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"

namespace kinetbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
    return seconds_between(t0, Clock::now()) * 1e3;
}

// ------------------------------------------------------------ statistics

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// --------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run: name, start, end, parent
/// and an item count (rows, calls, bytes ...) that per-item rates divide
/// by.  Spans are only recorded while enabled; the untraced run pays one
/// branch per span site.
class Tracer {
public:
    struct Record {
        const char* name;
        std::int64_t parent;
        double start_us;
        double end_us;
        double items;
    };
    struct Summary {
        std::uint64_t count = 0;
        double items = 0.0;
        double total_us = 0.0;
        double self_us = 0.0;  // total minus the time covered by child spans
        std::vector<double> durations_us;
    };

    static Tracer& get();
    void enable(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    std::int64_t begin(const char* name);
    void end(std::int64_t id, double items);
    [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
    /// Per-name aggregates, self time included.
    [[nodiscard]] std::map<std::string, Summary> summarize() const;
    /// Writes every span (one JSON object per line) and then the summary.
    void write(const std::string& path) const;

private:
    bool enabled_ = false;
    Clock::time_point t0_ = Clock::now();
    std::vector<Record> records_;
    std::vector<std::int64_t> open_;
};

/// RAII span; a no-op while tracing is off.
class Span {
public:
    explicit Span(const char* name, double items = 0.0)
        : id_(Tracer::get().enabled() ? Tracer::get().begin(name) : -1), items_(items) {}
    ~Span() {
        if (id_ >= 0) {
            Tracer::get().end(id_, items_);
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void set_items(double items) { items_ = items; }

private:
    std::int64_t id_;
    double items_;
};

// ---------------------------------------------------------------- report

/// Operations attempted and failed, and whether every output check held.
/// A failed check marks its operation failed and the run incorrect; a
/// known program fault marks the operation failed but leaves `correct`
/// alone, since `correct` speaks of the operations that did not fail.
class Outcome {
public:
    class Op {
    public:
        explicit Op(Outcome& outcome) : outcome_(outcome) {}
        ~Op();
        Op(const Op&) = delete;
        Op& operator=(const Op&) = delete;
        /// An output check; false fails the op and the run.
        bool expect(bool ok, const std::string& what);
        /// The check for a known program fault: false fails the op only.
        bool known_fault(bool ok, const std::string& what);

    private:
        Outcome& outcome_;
        bool failed_ = false;
    };

    void note(const std::string& problem);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t known_faults = 0;
    bool correct = true;
    std::vector<std::string> problems;  // first few, for stderr
};

/// The metrics of one run, printed as the last line of stdout.
class Report {
public:
    void add(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] std::string json(const Outcome& outcome) const;

private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// ------------------------------------------------------ CSV and checks

/// The benchmark's own rendering of a table as the wire's CSV: labels for
/// categorical cells, printf "%.6f" for numeric ones, RFC-4180 quoting.
void render_csv(const kinet::data::Table& table, bool header, std::string& out);

/// Independent validation of a CSV response: exactly `rows` data rows
/// under the schema's header, every categorical cell one of its column's
/// labels and every numeric cell a finite number.  Returns an empty string
/// when the text passes, else what failed.
[[nodiscard]] std::string check_csv(const std::string& text,
                                    const std::vector<kinet::data::ColumnMeta>& schema,
                                    std::size_t rows);

/// The data rows of a CSV response (already passed by check_csv) whose
/// cell in the pinned column is not the pinned label; `pin` is
/// "column:label".
[[nodiscard]] std::size_t rows_without_pin(const std::string& text,
                                           const std::vector<kinet::data::ColumnMeta>& schema,
                                           const std::string& pin);

/// What sample_seeded / sample_conditional_seeded produce in-process,
/// rendered by render_csv — the byte-exact reference for a SAMPLE.
[[nodiscard]] std::string reference_csv(const kinet::core::KiNetGan& model, std::size_t n,
                                        std::uint64_t seed, const std::string& cond);

/// "%.4f" of the fraction of `n` in-process rows that the KG oracle
/// accepts, counted row by row with ValidityOracle::is_valid — the
/// reference for VALIDATE.
[[nodiscard]] std::string reference_validity(const kinet::core::KiNetGan& model,
                                             const kinet::kg::ValidityOracle& oracle,
                                             std::size_t n, std::uint64_t seed);

// -------------------------------------------------------------- fixtures

/// The two trained models every workload serves: one per paper domain,
/// fitted in-process from fixed simulator seeds, plus their snapshots.
struct Models {
    std::unique_ptr<kinet::core::KiNetGan> lab;
    std::unique_ptr<kinet::core::KiNetGan> unsw;
    std::string lab_snapshot;
    std::string unsw_snapshot;
    kinet::kg::ValidityOracle lab_oracle;
    kinet::kg::ValidityOracle unsw_oracle;

    [[nodiscard]] const kinet::core::KiNetGan& model(bool unsw_kind) const {
        return unsw_kind ? *unsw : *lab;
    }
    [[nodiscard]] const std::string& snapshot(bool unsw_kind) const {
        return unsw_kind ? unsw_snapshot : lab_snapshot;
    }
    [[nodiscard]] const kinet::kg::ValidityOracle& oracle(bool unsw_kind) const {
        return unsw_kind ? unsw_oracle : lab_oracle;
    }
};

[[nodiscard]] Models train_models();

/// Options every in-process member starts with.
[[nodiscard]] kinet::service::ServerOptions member_options(std::uint16_t port = 0);

/// A "column:value" pin drawn from a model's conditional columns.
[[nodiscard]] std::string draw_pin(const kinet::core::KiNetGan& model, bool unsw,
                                   std::uint64_t draw);

/// Times to the first chunk and between chunks of one streamed SAMPLE,
/// and its reassembled CSV text.
struct StreamResult {
    std::string text;
    std::size_t rows_parsed = 0;
    double total_ms = 0.0;
    double first_chunk_ms = 0.0;
    std::vector<double> gaps_ms;
};

/// Sends one streamed SAMPLE and parses every chunk into the schema as it
/// arrives — the client side of the user's path.  Throws on ERR frames.
StreamResult stream_sample(kinet::service::SynthClient& client, const std::string& model,
                           const std::vector<kinet::data::ColumnMeta>& schema, std::size_t n,
                           std::uint64_t seed, std::size_t chunk_rows, const std::string& pin);

/// The four-member fleet the fleet and train workloads run on: three
/// statically configured members plus a fourth that joins through
/// join_fleet, replicas=2, every timer not under test parked, and a dozen
/// registered models (alternately copies of the lab and UNSW snapshot)
/// whose names are chosen so that the fourth member's arrival changes the
/// placement of exactly six of them — three it comes to own, three it
/// comes to replicate — on every run, whatever ports the members get.
class Fleet {
public:
    static constexpr std::size_t kMembers = 4;
    static constexpr std::size_t kModels = 12;
    static constexpr std::size_t kReplicas = 2;

    explicit Fleet(const Models& models);
    ~Fleet();
    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    struct Change {
        double seconds = 0.0;         // request sent until converged
        double join_fleet_ms = 0.0;   // join only: the join_fleet call
        double rebalance_ms = 0.0;    // rebalance_now time across members
        std::uint64_t handoffs = 0;   // STATS handoff_snapshots delta
        std::size_t moved = 0;        // models whose placement changed
    };
    /// The fourth member LEAVEs over the wire; returns once every survivor
    /// reports the new epoch and holds its placement.
    Change leave(Outcome::Op& op);
    /// A fresh fourth member on the same address joins through
    /// join_fleet; returns once every member agrees and holds placement.
    Change join(Outcome::Op& op);
    /// Every model answers one SAMPLE byte-identically from every member,
    /// and equal to the in-process reference.
    void check_models_agree(Outcome::Op& op, std::uint64_t seed);

    [[nodiscard]] std::size_t member_count() const { return joined_ ? kMembers : kMembers - 1; }
    [[nodiscard]] kinet::service::SynthServer& server(std::size_t i) { return *servers_.at(i); }
    [[nodiscard]] kinet::service::SynthClient& client(std::size_t i) { return *clients_.at(i); }
    [[nodiscard]] const std::string& member_name(std::size_t i) const { return names_.at(i); }
    [[nodiscard]] const std::vector<kinet::service::PeerAddress>& addresses() const {
        return addrs_;
    }
    [[nodiscard]] const std::string& model_name(std::size_t m) const { return model_names_.at(m); }
    [[nodiscard]] bool model_is_unsw(std::size_t m) const { return m % 2 == 1; }
    /// Preference list of model m under the current membership.
    [[nodiscard]] std::vector<std::size_t> placement(std::size_t m) const;
    /// A member outside model m's preference list (pays the forward hop).
    [[nodiscard]] std::size_t non_owner(std::size_t m, std::uint64_t draw) const;

private:
    [[nodiscard]] kinet::service::ClusterConfig config_for(std::size_t i) const;
    void start_joiner();
    void choose_models();
    [[nodiscard]] bool converged(std::uint64_t epoch) const;
    /// Drives probe_now/rebalance_now until every member adopted `epoch`
    /// and holds its placement; returns the rebalance time.
    double converge(std::uint64_t epoch);
    /// Each member's epoch read over the wire (EPOCH op) must exceed its
    /// last observation.
    void observe_epochs(Outcome::Op& op);
    [[nodiscard]] std::uint64_t handoff_total();
    [[nodiscard]] std::vector<std::string> wire_placements();

    const Models& models_;
    std::vector<std::unique_ptr<kinet::service::SynthServer>> servers_;
    std::vector<std::unique_ptr<kinet::service::SynthClient>> clients_;
    std::vector<kinet::service::PeerAddress> addrs_;
    std::vector<std::string> names_;
    std::vector<std::string> model_names_;
    std::vector<std::uint64_t> last_epoch_;
    bool joined_ = false;
};

/// One FEDTRAIN at `site`, awaited with POLL wait=1 (or, with
/// `time_publish`, polled without waiting so the publish phase can be
/// timed from its progress), then checked: the job is done, its losses are
/// finite, the published model answers one SAMPLE byte-identically from
/// every member, and its progress denominator covers the publish fan-out
/// it performed (the known fault: sized from the static peer list, not the
/// live view).
struct FedtrainResult {
    double seconds = 0.0;
    double publish_ms = -1.0;  // with time_publish only
};
FedtrainResult run_fedtrain(Fleet& fleet, std::size_t site, const std::string& model,
                            bool unsw, std::uint64_t sim_seed, std::uint64_t gan_seed,
                            bool time_publish, Outcome::Op& op);

// ------------------------------------------------------------- workloads

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
    std::string self_path;  // argv[0], for the 1-thread GEMM probe
};

/// Where the layer suite sends its service-level probes.
struct ServeTarget {
    kinet::service::SynthServer* server = nullptr;
    std::string model;  // a lab-model copy held locally by `server`
};

int run_stream(const RunConfig& config);
int run_fleet(const RunConfig& config);
int run_train(const RunConfig& config);

/// The traced run's per-layer metrics: every layer probed from outside on
/// fixed inputs, the same way on every workload, the cluster layer by one
/// churn cycle and one FEDTRAIN on `fleet`.  A failed check in a probe
/// makes the run incorrect without counting as a workload operation.
void layer_suite(const RunConfig& config, const Models& models, const ServeTarget& target,
                 Fleet& fleet, Report& report, Outcome& outcome);

/// Median wall time of a 256x256x256 matmul on this process's pool.
[[nodiscard]] double gemm256_ms();

/// Prints the report line (and problems to stderr) and returns the exit
/// code.
int finish(const RunConfig& config, const Report& report, const Outcome& outcome);

/// CPUs this process may run on (what `nproc` prints), at least 1.
[[nodiscard]] std::size_t host_cores();

}  // namespace kinetbench

#endif  // KINETBENCH_BENCH_H
