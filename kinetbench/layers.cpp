// The traced run's layer suite: every layer timed from outside, by calls
// into its public functions on fixed inputs, inside spans whose self time
// and item counts give the per-layer metrics.  GEMM and encode metrics
// carry their FLOP and byte counts, computed from the shapes and the bytes
// produced.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "bench.hpp"
#include "src/common/csv.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/gan/cond_vector.hpp"
#include "src/gan/gan_common.hpp"
#include "src/kg/network_kg.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/nn/nn.hpp"
#include "src/service/protocol.hpp"
#include "src/service/snapshot.hpp"
#include "src/tensor/ops.hpp"

extern char** environ;

namespace kinetbench {

using kinet::Rng;
using kinet::data::Table;
using kinet::tensor::Matrix;

namespace {

constexpr double kProbeMs = 120.0;  // wall budget of one probe
double g_sink = 0.0;                // keeps probe results observable

/// Repeats `body` inside spans named `name` for about `budget_ms` (at
/// least three times); `body` returns the items it processed.
void probe(const char* name, const std::function<double()>& body, double budget_ms = kProbeMs) {
    const auto t0 = Clock::now();
    for (int reps = 0; reps < 3 || ms_since(t0) < budget_ms; ++reps) {
        Span span(name);
        span.set_items(body());
    }
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (auto& v : m.data()) {
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return m;
}

struct Layers {
    std::map<std::string, Tracer::Summary> spans;

    void refresh() { spans = Tracer::get().summarize(); }
    /// Self microseconds per item of the spans named `name`.
    [[nodiscard]] double us_per_item(const std::string& name) const {
        const auto& s = spans.at(name);
        return s.self_us / s.items;
    }
    [[nodiscard]] double median_ms(const std::string& name) const {
        return median(spans.at(name).durations_us) / 1e3;
    }
};

/// Median wall time of a 256x256x256 matmul in a child process whose pool
/// has `threads` lanes (the pool size is fixed per process).
double child_gemm_ms(const std::string& self, std::size_t threads) {
    int fds[2];
    if (::pipe(fds) != 0) {
        return -1.0;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "KINET_NUM_THREADS=", 18) != 0) {
            env_store.emplace_back(*e);
        }
    }
    env_store.push_back("KINET_NUM_THREADS=" + std::to_string(threads));
    std::vector<char*> envp;
    for (auto& e : env_store) {
        envp.push_back(e.data());
    }
    envp.push_back(nullptr);
    std::string a0 = self, a1 = "--probe", a2 = "gemm256";
    char* argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr, argv, envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    if (rc == 0) {
        char buf[256];
        ssize_t got = 0;
        while ((got = ::read(fds[0], buf, sizeof buf)) > 0) {
            out.append(buf, static_cast<std::size_t>(got));
        }
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    ::close(fds[0]);
    return out.empty() ? -1.0 : std::strtod(out.c_str(), nullptr);
}

}  // namespace

double gemm256_ms() {
    Rng rng(256);
    const Matrix a = random_matrix(256, 256, rng);
    const Matrix b = random_matrix(256, 256, rng);
    std::vector<double> ms;
    const auto t0 = Clock::now();
    while (ms.size() < 20 || (ms_since(t0) < 300.0 && ms.size() < 400)) {
        const auto t = Clock::now();
        g_sink += kinet::tensor::matmul(a, b).data()[0];
        ms.push_back(ms_since(t));
    }
    return median(ms);
}

void layer_suite(const RunConfig& config, const Models& models, const ServeTarget& target,
                 Fleet& fleet, Report& report, Outcome& outcome) {
    Tracer::get().enable(true);
    const kinet::core::KiNetGan& lab = *models.lab;
    Rng rng(config.seed);
    const Table chunk = lab.sample_seeded(512, config.seed);

    // ---- common
    probe("common.rng.normal", [&] {
        for (int i = 0; i < 100000; ++i) {
            g_sink += rng.normal();
        }
        return 100000.0;
    });
    probe("common.rng.gumbel", [&] {
        for (int i = 0; i < 100000; ++i) {
            g_sink += rng.gumbel();
        }
        return 100000.0;
    });
    std::string encoded_csv;
    probe("common.csv.encode", [&] {
        encoded_csv.clear();
        kinet::csv::serialize_append(chunk.to_csv(), false, encoded_csv);
        return static_cast<double>(chunk.rows());
    });
    std::string chunk_text;
    render_csv(chunk, true, chunk_text);
    probe("common.csv.parse", [&] {
        return static_cast<double>(
            Table::from_csv(kinet::csv::parse(chunk_text), lab.schema()).rows());
    });
    probe("common.parallel.dispatch", [&] {
        for (int i = 0; i < 200; ++i) {
            kinet::parallel_for(64, 1, [](std::size_t b, std::size_t e) { g_sink += double(e - b); });
        }
        return 200.0;
    });

    // ---- tensor: the generator trunk at the sampling batch, packed B
    const auto& gan = lab.options().gan;
    const std::size_t batch = gan.batch_size;
    const std::size_t cond_width =
        kinet::gan::CondVectorBuilder(lab.schema(), kinet::netsim::lab_conditional_columns()).width();
    const std::size_t in_dim = gan.noise_dim + cond_width;
    const std::size_t out_dim = lab.transformer().output_width();
    const std::size_t hidden = gan.hidden_dim;
    std::vector<std::size_t> dims = {in_dim};
    for (std::size_t l = 0; l < gan.hidden_layers; ++l) {
        dims.push_back(hidden);
    }
    dims.push_back(out_dim);
    double layer_flops = 0.0;  // one forward over one batch
    std::vector<Matrix> weights, biases, inputs;
    std::vector<kinet::tensor::PackedGemmB> packed;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        weights.push_back(random_matrix(dims[l], dims[l + 1], rng));
        biases.push_back(random_matrix(1, dims[l + 1], rng));
        inputs.push_back(random_matrix(batch, dims[l], rng));
        packed.push_back(kinet::tensor::pack_gemm_b(weights.back()));
        layer_flops += 2.0 * double(batch) * double(dims[l]) * double(dims[l + 1]);
    }
    Matrix out;
    probe("tensor.gemm.serve", [&] {
        for (int r = 0; r < 20; ++r) {
            for (std::size_t l = 0; l < packed.size(); ++l) {
                kinet::tensor::matmul_packed_bias_into(inputs[l], packed[l], biases[l], out);
                g_sink += out.data()[0];
            }
        }
        return 20.0 * layer_flops;
    });
    // Training shapes: the forward product plus both backward products of
    // every trunk layer.
    std::vector<Matrix> grads;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        grads.push_back(random_matrix(batch, dims[l + 1], rng));
    }
    probe("tensor.gemm.train", [&] {
        for (std::size_t l = 0; l < weights.size(); ++l) {
            g_sink += kinet::tensor::matmul(inputs[l], weights[l]).data()[0];
            g_sink += kinet::tensor::matmul_tn(inputs[l], grads[l]).data()[0];
            g_sink += kinet::tensor::matmul_nt(grads[l], weights[l]).data()[0];
        }
        return 3.0 * layer_flops;
    });

    // ---- nn
    {
        Rng net_rng(7);
        auto trunk = kinet::gan::make_generator_trunk(in_dim, hidden, gan.hidden_layers, out_dim,
                                                      net_rng);
        auto disc = kinet::gan::make_discriminator(out_dim + cond_width, hidden, gan.hidden_layers,
                                                   gan.dropout, net_rng);
        kinet::nn::InferenceContext ctx;
        const Matrix z = random_matrix(batch, in_dim, rng);
        Matrix g_out;
        probe("nn.generator.forward", [&] {
            trunk->forward_inference(z, g_out, ctx);
            g_sink += g_out.data()[0];
            return static_cast<double>(batch);
        });
        std::vector<kinet::nn::Parameter*> g_params, d_params;
        trunk->collect_parameters(g_params);
        disc->collect_parameters(d_params);
        kinet::nn::Adam g_opt(g_params, gan.lr_generator);
        kinet::nn::Adam d_opt(d_params, gan.lr_discriminator);
        const Matrix d_in = random_matrix(batch, out_dim + cond_width, rng);
        const Matrix g_grad = random_matrix(batch, out_dim, rng);
        const Matrix d_grad = random_matrix(batch, 1, rng);
        probe("nn.train_step", [&] {
            disc->zero_grad();
            g_sink += disc->forward(d_in, true).data()[0];
            (void)disc->backward(d_grad);
            d_opt.step();
            trunk->zero_grad();
            g_sink += trunk->forward(z, true).data()[0];
            (void)trunk->backward(g_grad);
            g_opt.step();
            return 1.0;
        });
    }

    // ---- data
    kinet::netsim::LabSimOptions sim;
    sim.records = 1000;
    sim.seed = 5;
    const Table lab_table = kinet::netsim::LabTrafficSimulator(sim).generate();
    {
        const Matrix encoded = lab.transformer().transform(chunk, rng);
        Matrix raw;
        Table decoded(lab.schema());
        probe("data.decode", [&] {
            lab.transformer().inverse_into(encoded, raw, decoded);
            return static_cast<double>(decoded.rows());
        });
        probe("data.transformer_fit", [&] {
            kinet::data::TableTransformer tf;
            tf.fit(lab_table, lab.options().transformer, rng);
            return 1.0;
        });
        const kinet::data::ConditionalSampler sampler(lab_table,
                                                      kinet::netsim::lab_conditional_columns());
        probe("data.sampler_draw", [&] {
            for (int i = 0; i < 10000; ++i) {
                g_sink += double(sampler.draw_empirical(rng).anchor_value);
            }
            return 10000.0;
        });
    }

    // ---- kg
    probe("kg.oracle_build", [&] {
        g_sink += double(kinet::kg::NetworkKg::build_lab().make_oracle().valid_tuples().size());
        return 1.0;
    });
    {
        std::vector<std::vector<std::string>> tuples;
        for (std::size_t r = 0; r < chunk.rows(); ++r) {
            std::vector<std::string> values;
            for (const auto& attr : models.lab_oracle.attribute_names()) {
                values.push_back(chunk.label_at(r, chunk.column_index(attr)));
            }
            tuples.push_back(std::move(values));
        }
        probe("kg.is_valid", [&] {
            for (const auto& t : tuples) {
                g_sink += models.lab_oracle.is_valid(t) ? 1.0 : 0.0;
            }
            return static_cast<double>(tuples.size());
        });
    }

    // ---- netsim
    probe("netsim.generate", [&] {
        return static_cast<double>(kinet::netsim::LabTrafficSimulator(sim).generate().rows());
    });

    // ---- core
    probe("core.sample", [&] {
        auto cursor = lab.open_sample_cursor(8192, config.seed, 512);
        double rows = 0.0;
        while (const Table* c = cursor->next()) {
            rows += static_cast<double>(c->rows());
        }
        return rows;
    });
    probe("core.first_chunk", [&] {
        auto cursor = lab.open_sample_cursor(32768, config.seed, 512);
        return static_cast<double>(cursor->next()->rows());
    });
    {
        kinet::core::KiNetGanOptions options;
        options.gan.epochs = 4;
        kinet::core::KiNetGan model(kinet::kg::NetworkKg::build_lab().make_oracle(),
                                    kinet::netsim::lab_conditional_columns(), options);
        auto last = Clock::now();
        std::vector<double> epoch_ms;
        model.fit(lab_table, [&](std::size_t, std::size_t) {
            epoch_ms.push_back(ms_since(last));
            last = Clock::now();
            return true;
        });
        report.add("core.fit_epoch_ms", median(epoch_ms), "ms");
    }

    // ---- service
    std::string snapshot;
    probe("service.snapshot.write", [&] {
        snapshot = kinet::service::write_snapshot(*models.lab);
        return static_cast<double>(snapshot.size());
    });
    probe("service.snapshot.read", [&] {
        g_sink += double(kinet::service::read_snapshot(snapshot)->schema().size());
        return static_cast<double>(snapshot.size());
    });
    auto client = kinet::service::SynthClient::connect("127.0.0.1", target.server->port());
    probe("service.ping", [&] {
        for (int i = 0; i < 50; ++i) {
            client.ping();
        }
        return 50.0;
    });
    const auto small = kinet::service::parse_request("SAMPLE " + target.model + " 8 seed=" +
                                                     std::to_string(config.seed));
    probe("service.handle_small", [&] {
        for (int i = 0; i < 20; ++i) {
            const auto r = target.server->handle(small);
            g_sink += double(r.payload.size());
        }
        return 20.0;
    });
    // Streamed wall time per row, for the transport residual below.
    double stream_rows = 0.0, stream_us = 0.0;
    for (int i = 0; i < 4; ++i) {
        const StreamResult r = stream_sample(client, target.model, lab.schema(), 16384,
                                             config.seed + i, 512, {});
        stream_rows += static_cast<double>(r.rows_parsed);
        stream_us += r.total_ms * 1e3;
    }

    // ---- cluster: forwarded against owner-direct requests, one churn
    // cycle seen by a RingClient whose view it makes stale, and one FEDTRAIN
    Outcome probe_outcome;
    {
        Outcome::Op op(probe_outcome);
        // Each (model, seed) is asked once through a non-owner and once of
        // its owner, so both sides sample the same mix of models.
        std::vector<double> fwd, direct;
        for (int i = 0; i < 200; ++i) {
            const bool forwarded = i % 2 == 0;
            const std::size_t m = static_cast<std::size_t>(i / 2) % Fleet::kModels;
            const std::uint64_t seed = 77 + static_cast<std::uint64_t>(i / 2);
            auto& via = fleet.client(forwarded ? fleet.non_owner(m, seed) : fleet.placement(m)[0]);
            Span span(forwarded ? "service.request.forwarded" : "service.request.direct");
            const auto t0 = Clock::now();
            const std::string got = via.sample_csv(fleet.model_name(m), 8, seed);
            (forwarded ? fwd : direct).push_back(ms_since(t0) * 1e3);
            op.expect(got == reference_csv(models.model(fleet.model_is_unsw(m)), 8, seed, {}),
                      std::string("cluster probe: ") + (forwarded ? "forwarded" : "owner-direct") +
                          " bytes differ from the in-process sample");
        }
        report.add("cluster.forward_extra_us", median(fwd) - median(direct), "us");

        kinet::service::RingClient ring({fleet.addresses()[0]});
        ring.refresh();
        const Fleet::Change left = fleet.leave(op);
        const Fleet::Change joined = fleet.join(op);
        for (std::size_t m = 0; m < Fleet::kModels; ++m) {
            g_sink += double(ring.sample_csv(fleet.model_name(m), 4, m).size());
        }
        report.add("cluster.join_fleet_ms", joined.join_fleet_ms, "ms");
        report.add("cluster.rebalance_ms", left.rebalance_ms + joined.rebalance_ms, "ms");
        report.add("cluster.handoff_per_moved",
                   double(left.handoffs + joined.handoffs) /
                       double(std::max<std::size_t>(left.moved + joined.moved, 1)),
                   "ratio");
        report.add("cluster.reroutes", static_cast<double>(ring.reroutes()), "count");
        report.add("cluster.join_s", joined.seconds, "s");
        report.add("cluster.leave_s", left.seconds, "s");

        // At the joined member, whose progress total is right.
        const FedtrainResult r =
            run_fedtrain(fleet, Fleet::kMembers - 1, "probe-fed", false, 3, 4, true, op);
        report.add("cluster.publish_ms", r.publish_ms, "ms");
    }
    if (!probe_outcome.correct) {
        outcome.correct = false;
        for (const auto& p : probe_outcome.problems) {
            outcome.note("layer suite: " + p);
        }
    }

    // ---- the speedup of 256^3 at all cores over one, in child processes
    const double one = child_gemm_ms(config.self_path, 1);
    const double all = child_gemm_ms(
        config.self_path, static_cast<std::size_t>(::sysconf(_SC_NPROCESSORS_ONLN)));

    Layers l;
    l.refresh();
    const double encode_us = l.us_per_item("common.csv.encode");
    const double parse_us = l.us_per_item("common.csv.parse");
    const double bytes_per_row = double(encoded_csv.size()) / double(chunk.rows());
    report.add("common.rng.normal_ns", l.us_per_item("common.rng.normal") * 1e3, "ns");
    report.add("common.rng.gumbel_ns", l.us_per_item("common.rng.gumbel") * 1e3, "ns");
    report.add("common.csv.encode_us_per_row", encode_us, "us");
    report.add("common.csv.encode_bytes_per_row", bytes_per_row, "bytes");
    report.add("common.csv.encode_mb_per_s", bytes_per_row / encode_us, "MB/s");
    report.add("common.csv.parse_us_per_row", parse_us, "us");
    report.add("common.parallel.dispatch_us", l.us_per_item("common.parallel.dispatch"), "us");
    report.add("tensor.gemm.serve_gflops", 1e-3 / l.us_per_item("tensor.gemm.serve"), "GFLOP/s");
    report.add("tensor.gemm.serve_flop_per_row", layer_flops / double(batch), "FLOP");
    report.add("tensor.gemm.train_gflops", 1e-3 / l.us_per_item("tensor.gemm.train"), "GFLOP/s");
    report.add("tensor.gemm.train_flop_per_step", 3.0 * layer_flops, "FLOP");
    report.add("tensor.gemm.speedup_nproc", one > 0.0 && all > 0.0 ? one / all : 0.0, "x");
    report.add("nn.generator.forward_us_per_row", l.us_per_item("nn.generator.forward"), "us");
    report.add("nn.train_step_ms", l.median_ms("nn.train_step"), "ms");
    report.add("data.decode_us_per_row", l.us_per_item("data.decode"), "us");
    report.add("data.transformer_fit_ms", l.median_ms("data.transformer_fit"), "ms");
    report.add("data.sampler_draw_ns", l.us_per_item("data.sampler_draw") * 1e3, "ns");
    report.add("kg.oracle_build_ms", l.median_ms("kg.oracle_build"), "ms");
    report.add("kg.is_valid_ns", l.us_per_item("kg.is_valid") * 1e3, "ns");
    report.add("netsim.generate_us_per_row", l.us_per_item("netsim.generate"), "us");
    const double sample_us = l.us_per_item("core.sample");
    report.add("core.sample_us_per_row", sample_us, "us");
    report.add("core.first_chunk_ms", l.median_ms("core.first_chunk"), "ms");
    report.add("service.snapshot.write_mb_per_s", 1.0 / l.us_per_item("service.snapshot.write"),
               "MB/s");
    report.add("service.snapshot.read_mb_per_s", 1.0 / l.us_per_item("service.snapshot.read"),
               "MB/s");
    report.add("service.snapshot.bytes", double(snapshot.size()), "bytes");
    report.add("service.ping_us", l.us_per_item("service.ping"), "us");
    report.add("service.handle_small_us", l.us_per_item("service.handle_small"), "us");
    // A residual, not a measurement of its own: the streamed wall time per
    // row minus what the in-process layers account for.
    report.add("service.transport_us_per_row",
               stream_us / stream_rows - sample_us - encode_us - parse_us, "us");
    report.add("trace.spans", static_cast<double>(Tracer::get().size()), "count");
}

}  // namespace kinetbench
