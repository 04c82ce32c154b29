// Statistics, tracing, reporting, CSV checks and the shared fixtures of the
// kinetbench program (see bench.hpp).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "src/common/csv.hpp"
#include "src/kg/network_kg.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/netsim/unsw_synthesizer.hpp"
#include "src/service/snapshot.hpp"

namespace kinetbench {

using kinet::core::KiNetGan;
using kinet::data::ColumnMeta;
using kinet::data::Table;

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double peak_rss_mib() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t host_cores() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 1 : n;
    }
    return static_cast<std::size_t>(CPU_COUNT(&allowed));
}

// --------------------------------------------------------------- tracing

Tracer& Tracer::get() {
    static Tracer tracer;
    return tracer;
}

std::int64_t Tracer::begin(const char* name) {
    const auto id = static_cast<std::int64_t>(records_.size());
    const double now = seconds_between(t0_, Clock::now()) * 1e6;
    records_.push_back(Record{name, open_.empty() ? -1 : open_.back(), now, now, 0.0});
    open_.push_back(id);
    return id;
}

void Tracer::end(std::int64_t id, double items) {
    auto& record = records_.at(static_cast<std::size_t>(id));
    record.end_us = seconds_between(t0_, Clock::now()) * 1e6;
    record.items = items;
    // Spans close in LIFO order on the one client thread.
    if (!open_.empty() && open_.back() == id) {
        open_.pop_back();
    }
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
    std::vector<double> child_us(records_.size(), 0.0);
    for (const auto& r : records_) {
        if (r.parent >= 0) {
            child_us[static_cast<std::size_t>(r.parent)] += r.end_us - r.start_us;
        }
    }
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const auto& r = records_[i];
        auto& s = out[r.name];
        const double dur = r.end_us - r.start_us;
        ++s.count;
        s.items += r.items;
        s.total_us += dur;
        s.self_us += dur - child_us[i];
        s.durations_us.push_back(dur);
    }
    return out;
}

void Tracer::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "kinetbench: cannot write trace file " << path << "\n";
        return;
    }
    char line[512];
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const auto& r = records_[i];
        std::snprintf(line, sizeof line,
                      "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"start_us\":%.3f,"
                      "\"end_us\":%.3f,\"items\":%.17g}\n",
                      i, r.name, static_cast<long long>(r.parent), r.start_us, r.end_us,
                      r.items);
        out << line;
    }
    for (const auto& [name, s] : summarize()) {
        std::snprintf(line, sizeof line,
                      "{\"summary\":\"%s\",\"count\":%llu,\"items\":%.17g,\"total_us\":%.3f,"
                      "\"self_us\":%.3f}\n",
                      name.c_str(), static_cast<unsigned long long>(s.count), s.items,
                      s.total_us, s.self_us);
        out << line;
    }
}

// ---------------------------------------------------------------- report

Outcome::Op::~Op() {
    ++outcome_.attempted;
    if (failed_) {
        ++outcome_.failed;
    }
}

bool Outcome::Op::expect(bool ok, const std::string& what) {
    if (!ok) {
        failed_ = true;
        outcome_.correct = false;
        outcome_.note(what);
    }
    return ok;
}

bool Outcome::Op::known_fault(bool ok, const std::string& what) {
    if (!ok) {
        failed_ = true;
        ++outcome_.known_faults;
        if (outcome_.known_faults == 1) {
            outcome_.note("known fault: " + what);
        }
    }
    return ok;
}

void Outcome::note(const std::string& problem) {
    if (problems.size() < 8) {
        problems.push_back(problem);
    }
}

void Report::add(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, v] : metrics_) {
        if (n == name) {
            v = {value, unit};
            return;
        }
    }
    metrics_.push_back({name, {value, unit}});
}

std::string Report::json(const Outcome& outcome) const {
    std::ostringstream out;
    out << "{\"correct\": " << (outcome.correct ? "true" : "false")
        << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
        << ", \"metrics\": {";
    bool first = true;
    char number[64];
    for (const auto& [name, value] : metrics_) {
        // JSON has no NaN/inf; a non-finite measurement is a bug here
        // and finish() refuses to report it.
        std::snprintf(number, sizeof number, "%.17g", value.first);
        out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
            << ", \"unit\": \"" << value.second << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

int finish(const RunConfig& config, const Report& report, const Outcome& outcome) {
    for (const auto& problem : outcome.problems) {
        std::cerr << "kinetbench: " << problem << "\n";
    }
    if (outcome.known_faults > 0) {
        std::cerr << "kinetbench: " << outcome.known_faults
                  << " operation(s) failed on a known program fault\n";
    }
    if (config.trace) {
        Tracer::get().write(config.out_dir + "/trace-" + config.workload + "-" +
                            std::to_string(config.seed) + ".jsonl");
    }
    const std::string line = report.json(outcome);
    if (line.find("nan") != std::string::npos || line.find("inf") != std::string::npos) {
        std::cerr << "kinetbench: non-finite metric in " << line << "\n";
        return 2;
    }
    std::cout << line << std::endl;
    return 0;
}

// ------------------------------------------------------ CSV and checks

namespace {

void append_cell(std::string& out, const std::string& cell) {
    if (cell.find_first_of(",\"\n\r") == std::string::npos) {
        out += cell;
        return;
    }
    out.push_back('"');
    for (const char c : cell) {
        out += c == '"' ? std::string("\"\"") : std::string(1, c);
    }
    out.push_back('"');
}

/// Splits one CSV line into cells (RFC-4180 quotes).
std::vector<std::string> split_line(const std::string& line) {
    std::vector<std::string> cells(1);
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
                cells.back().push_back('"');
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                cells.back().push_back(c);
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            cells.emplace_back();
        } else {
            cells.back().push_back(c);
        }
    }
    return cells;
}

/// Splits "column:value"; nullopt for an empty pin.
std::optional<std::pair<std::string, std::string>> split_pin(const std::string& pin) {
    if (pin.empty()) {
        return std::nullopt;
    }
    const auto colon = pin.find(':');
    return std::make_pair(pin.substr(0, colon), pin.substr(colon + 1));
}

}  // namespace

void render_csv(const Table& table, bool header, std::string& out) {
    const auto& schema = table.schema();
    if (header) {
        for (std::size_t c = 0; c < schema.size(); ++c) {
            if (c > 0) {
                out.push_back(',');
            }
            append_cell(out, schema[c].name);
        }
        out.push_back('\n');
    }
    char number[64];
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t c = 0; c < schema.size(); ++c) {
            if (c > 0) {
                out.push_back(',');
            }
            if (schema[c].is_categorical()) {
                append_cell(out, schema[c].categories.at(table.category_at(r, c)));
            } else {
                std::snprintf(number, sizeof number, "%.6f",
                              static_cast<double>(table.value(r, c)));
                out += number;
            }
        }
        out.push_back('\n');
    }
}

std::string check_csv(const std::string& text, const std::vector<ColumnMeta>& schema,
                      std::size_t rows) {
    std::vector<std::set<std::string>> labels(schema.size());
    std::string header;
    for (std::size_t c = 0; c < schema.size(); ++c) {
        labels[c].insert(schema[c].categories.begin(), schema[c].categories.end());
        if (c > 0) {
            header.push_back(',');
        }
        append_cell(header, schema[c].name);
    }
    std::size_t line_no = 0;
    std::size_t data_rows = 0;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            return "response does not end in a newline";
        }
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line_no++ == 0) {
            if (line != header) {
                return "header '" + line + "' is not the schema's '" + header + "'";
            }
            continue;
        }
        const auto cells = split_line(line);
        if (cells.size() != schema.size()) {
            return "row " + std::to_string(data_rows) + " has " + std::to_string(cells.size()) +
                   " cells";
        }
        for (std::size_t c = 0; c < schema.size(); ++c) {
            if (schema[c].is_categorical()) {
                if (labels[c].count(cells[c]) == 0) {
                    return "label '" + cells[c] + "' not a category of " + schema[c].name;
                }
            } else {
                char* parse_end = nullptr;
                const double v = std::strtod(cells[c].c_str(), &parse_end);
                if (cells[c].empty() || *parse_end != '\0' || !std::isfinite(v)) {
                    return "numeric cell '" + cells[c] + "' of " + schema[c].name +
                           " is not a finite number";
                }
            }
        }
        ++data_rows;
    }
    if (line_no == 0) {
        return "empty response (no header)";
    }
    if (data_rows != rows) {
        return std::to_string(data_rows) + " rows, asked for " + std::to_string(rows);
    }
    return {};
}

std::size_t rows_without_pin(const std::string& text, const std::vector<ColumnMeta>& schema,
                             const std::string& pin) {
    const auto [column, label] = *split_pin(pin);
    std::size_t c = 0;
    while (c < schema.size() && schema[c].name != column) {
        ++c;
    }
    std::size_t misses = 0;
    std::size_t start = text.find('\n') + 1;  // past the header
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        const auto cells = split_line(text.substr(start, end - start));
        misses += c < cells.size() && cells[c] == label ? 0 : 1;
        start = end + 1;
    }
    return misses;
}

std::string reference_csv(const KiNetGan& model, std::size_t n, std::uint64_t seed,
                          const std::string& cond) {
    const auto pin = split_pin(cond);
    const Table table = pin.has_value()
                            ? model.sample_conditional_seeded(n, pin->first, pin->second, seed)
                            : model.sample_seeded(n, seed);
    std::string out;
    render_csv(table, true, out);
    return out;
}

std::string reference_validity(const KiNetGan& model, const kinet::kg::ValidityOracle& oracle,
                               std::size_t n, std::uint64_t seed) {
    const Table table = model.sample_seeded(n, seed);
    std::vector<std::size_t> cols;
    for (const auto& attr : oracle.attribute_names()) {
        cols.push_back(table.column_index(attr));
    }
    std::size_t valid = 0;
    std::vector<std::string> values(cols.size());
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t i = 0; i < cols.size(); ++i) {
            values[i] = table.label_at(r, cols[i]);
        }
        valid += oracle.is_valid(values) ? 1 : 0;
    }
    char out[32];
    std::snprintf(out, sizeof out, "%.4f",
                  n == 0 ? 0.0 : static_cast<double>(valid) / static_cast<double>(n));
    return out;
}

// -------------------------------------------------------------- fixtures

namespace {

std::unique_ptr<KiNetGan> fit_model(bool unsw) {
    // Fixed inputs: the models are the fixture, not the workload, so every
    // seed serves networks of the same shape and cost.
    kinet::core::KiNetGanOptions options;
    options.gan.epochs = 2;
    options.gan.seed = 7;
    Table table;
    if (unsw) {
        kinet::netsim::UnswOptions sim;
        sim.records = 1200;
        sim.seed = 11;
        table = kinet::netsim::UnswNb15Synthesizer(sim).generate();
    } else {
        kinet::netsim::LabSimOptions sim;
        sim.records = 1200;
        sim.seed = 11;
        table = kinet::netsim::LabTrafficSimulator(sim).generate();
    }
    const auto kg = unsw ? kinet::kg::NetworkKg::build_unsw() : kinet::kg::NetworkKg::build_lab();
    auto model = std::make_unique<KiNetGan>(
        kg.make_oracle(),
        unsw ? kinet::netsim::unsw_conditional_columns()
             : kinet::netsim::lab_conditional_columns(),
        options);
    model->fit(table);
    return model;
}

}  // namespace

Models train_models() {
    Models m{fit_model(false), fit_model(true), {}, {},
             kinet::kg::NetworkKg::build_lab().make_oracle(),
             kinet::kg::NetworkKg::build_unsw().make_oracle()};
    m.lab_snapshot = kinet::service::write_snapshot(*m.lab);
    m.unsw_snapshot = kinet::service::write_snapshot(*m.unsw);
    return m;
}

kinet::service::ServerOptions member_options(std::uint16_t port) {
    kinet::service::ServerOptions options;
    options.port = port;
    // No client-supplied paths: the benchmark never LOADs, SAVEs or reads
    // CSV datasets, and must not touch files outside its checkout.
    options.snapshot_dir.clear();
    options.data_dir.clear();
    options.request_workers = 2;
    options.train_workers = 1;
    return options;
}

std::string draw_pin(const KiNetGan& model, bool unsw, std::uint64_t draw) {
    const auto cols = unsw ? kinet::netsim::unsw_conditional_columns()
                           : kinet::netsim::lab_conditional_columns();
    const auto& meta = model.schema().at(cols[draw % cols.size()]);
    return meta.name + ":" + meta.categories[(draw / cols.size()) % meta.categories.size()];
}

StreamResult stream_sample(kinet::service::SynthClient& client, const std::string& model,
                           const std::vector<ColumnMeta>& schema, std::size_t n,
                           std::uint64_t seed, std::size_t chunk_rows, const std::string& pin) {
    StreamResult result;
    std::string header;
    std::string parse_buffer;
    const auto t0 = Clock::now();
    auto last = t0;
    bool first = true;
    Span request_span("service.stream_request", static_cast<double>(n));
    (void)client.sample_stream(
        model, n, seed,
        [&](const std::string& chunk) {
            const auto now = Clock::now();
            if (first) {
                result.first_chunk_ms = seconds_between(t0, now) * 1e3;
                header = chunk.substr(0, chunk.find('\n') + 1);
                parse_buffer = chunk;
            } else {
                result.gaps_ms.push_back(seconds_between(last, now) * 1e3);
                parse_buffer.assign(header);
                parse_buffer += chunk;
            }
            last = now;
            first = false;
            Span parse_span("client.parse");
            const Table parsed =
                Table::from_csv(kinet::csv::parse(parse_buffer), schema);
            parse_span.set_items(static_cast<double>(parsed.rows()));
            result.rows_parsed += parsed.rows();
            result.text += chunk;
        },
        chunk_rows, pin);
    result.total_ms = ms_since(t0);
    return result;
}

}  // namespace kinetbench
