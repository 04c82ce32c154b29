// Golden tests for the serving CSV encoder, data::Table::append_csv.
//
// Every SAMPLE path (framed, streamed, forwarded) writes its rows through
// append_csv, so its bytes are the wire contract.  The reference here is
// written independently of the library: quoting by RFC 4180's rule and
// continuous cells by snprintf("%.6f").  Covered: both netsim schemas at
// several chunk sizes, the zero-row header-only payload, quoted labels and
// column names, and framed/streamed/in-process SAMPLE agreement at 1 and 4
// threads (the pool size is latched per process, so that check re-executes
// this binary with KINET_NUM_THREADS pinned).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/check.hpp"
#include "src/data/table.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/netsim/unsw_synthesizer.hpp"
#include "src/service/client.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"

namespace {

using namespace kinet;           // NOLINT
using namespace kinet::service;  // NOLINT
using data::ColumnMeta;
using data::Table;

// ------------------------------------------------------------ reference

std::string reference_cell(const std::string& cell) {
    if (cell.find_first_of(",\"\n\r") == std::string::npos) {
        return cell;
    }
    std::string out = "\"";
    for (const char c : cell) {
        out += c == '"' ? std::string("\"\"") : std::string(1, c);
    }
    return out + "\"";
}

std::string reference_csv(const Table& table, bool include_header) {
    std::string out;
    const auto& schema = table.schema();
    if (include_header) {
        for (std::size_t c = 0; c < schema.size(); ++c) {
            if (c > 0) {
                out += ",";
            }
            out += reference_cell(schema[c].name);
        }
        out += "\n";
    }
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t c = 0; c < schema.size(); ++c) {
            if (c > 0) {
                out += ",";
            }
            const float v = table.value(r, c);
            if (schema[c].is_categorical()) {
                out += reference_cell(schema[c].categories[static_cast<std::size_t>(std::lround(v))]);
            } else {
                char buf[512];
                const int n = std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(v));
                out.append(buf, static_cast<std::size_t>(n));
            }
        }
        out += "\n";
    }
    return out;
}

// ------------------------------------------------------- trained models

constexpr const char* kLab = "enc-lab";
constexpr const char* kUnsw = "enc-unsw";

void train_both(SynthServer& server) {
    for (const std::string& request :
         {std::string("TRAIN ") + kLab + " records=400 sim-seed=11 epochs=2 gan-seed=1",
          std::string("TRAIN ") + kUnsw +
              " domain=unsw records=400 sim-seed=11 epochs=2 gan-seed=1"}) {
        const Response r = server.handle(parse_request(request));
        if (!r.ok) {
            throw Error("training the encoder fixture failed: " + r.error);
        }
    }
}

/// The three ways a client gets `n` seeded rows of `model`: in process
/// (the model's own sample, encoded by the reference), framed SAMPLE and
/// streamed SAMPLE over TCP.
struct SampleViews {
    std::string in_process;
    std::string framed;
    std::string streamed;
};

SampleViews sample_views(SynthServer& server, const std::string& model, std::size_t n,
                         std::uint64_t seed, std::size_t chunk_rows) {
    SampleViews views;
    const auto entry = server.registry().get(model);
    if (entry == nullptr) {
        throw Error("encoder fixture lost model " + model);
    }
    views.in_process = reference_csv(entry->model->sample_seeded(n, seed), true);
    auto client = SynthClient::connect("127.0.0.1", server.port());
    views.framed = client.sample_csv(model, n, seed);
    (void)client.sample_stream(
        model, n, seed, [&](const std::string& part) { views.streamed += part; }, chunk_rows);
    client.quit();
    return views;
}

class CsvEncoderTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        server_ = new SynthServer(ServerOptions{});
        server_->start();
        train_both(*server_);
    }
    static void TearDownTestSuite() {
        delete server_;
        server_ = nullptr;
    }

    static SynthServer* server_;
};

SynthServer* CsvEncoderTest::server_ = nullptr;

TEST_F(CsvEncoderTest, MatchesThePrintfReferenceOnBothSchemasAtEveryChunkSize) {
    constexpr std::size_t kRows = 1200;
    for (const char* name : {kLab, kUnsw}) {
        const auto entry = server_->registry().get(name);
        ASSERT_NE(entry, nullptr);
        std::string first_encoding;
        for (const std::size_t chunk_rows :
             {std::size_t{1}, std::size_t{7}, std::size_t{512}, std::size_t{1000}}) {
            auto cursor = entry->model->open_sample_cursor(kRows, 31, chunk_rows);
            // One reused buffer across chunks, as the serving paths use it:
            // append_csv appends and never clears.
            std::string encoded = "preamble|";
            std::string expect = "preamble|";
            std::size_t chunks = 0;
            while (const Table* chunk = cursor->next()) {
                chunk->append_csv(encoded, chunks == 0);
                expect += reference_csv(*chunk, chunks == 0);
                ++chunks;
            }
            ASSERT_EQ(encoded, expect) << name << " chunk=" << chunk_rows;
            if (first_encoding.empty()) {
                first_encoding = encoded;
            }
            EXPECT_EQ(encoded, first_encoding) << name << " chunk=" << chunk_rows;
        }
    }
}

TEST_F(CsvEncoderTest, FramedStreamedAndInProcessSampleAgree) {
    for (const char* name : {kLab, kUnsw}) {
        const SampleViews views = sample_views(*server_, name, 700, 5, 64);
        EXPECT_EQ(views.framed, views.in_process) << name;
        EXPECT_EQ(views.streamed, views.in_process) << name;

        // A zero-row framed SAMPLE still carries the header.
        const auto entry = server_->registry().get(name);
        auto client = SynthClient::connect("127.0.0.1", server_->port());
        EXPECT_EQ(client.sample_csv(name, 0, 1),
                  reference_csv(Table(entry->model->schema()), true))
            << name;
        client.quit();
    }
}

TEST(CsvEncoder, ZeroRowTableWritesOnlyTheHeader) {
    for (const auto& schema : {netsim::lab_schema(), netsim::unsw_schema()}) {
        const Table empty(schema);
        std::string out;
        empty.append_csv(out, /*include_header=*/true);
        EXPECT_EQ(out, reference_csv(empty, true));
        EXPECT_EQ(out.back(), '\n');
        EXPECT_EQ(out.find('\n'), out.size() - 1) << "header-only payload has one line";
        empty.append_csv(out, /*include_header=*/false);
        EXPECT_EQ(out, reference_csv(empty, true)) << "no rows and no header appends nothing";
    }
}

TEST(CsvEncoder, QuotesLabelsAndColumnNamesThatNeedIt) {
    Table table({ColumnMeta::categorical_column("kind,\"a\"\nb", {"x,\"y\"\nz", "plain"}),
                 ColumnMeta::continuous_column("bytes \"in\""),
                 ColumnMeta::continuous_column("v")});
    table.append_row({0.0F, -0.0F, 1e-7F});
    table.append_row({1.0F, 3.4e38F, -5e-7F});
    table.append_row({0.0F, 0.125F, 1234.5678F});
    std::string out;
    table.append_csv(out, true);
    EXPECT_EQ(out, reference_csv(table, true));
    const std::string header = "\"kind,\"\"a\"\"\nb\",\"bytes \"\"in\"\"\",v\n";
    EXPECT_EQ(out.substr(0, header.size()), header);
    EXPECT_NE(out.find("\n\"x,\"\"y\"\"\nz\",-0.000000,0.000000\n"), std::string::npos) << out;
}

// -------------------------------------------------- thread-count identity

/// Child side of the thread-identity test: trains both fixture models,
/// checks the three views agree, and prints one hash over all of them.
int print_sample_hash() {
    SynthServer server{ServerOptions{}};
    server.start();
    train_both(server);
    std::string all;
    for (const char* name : {kLab, kUnsw}) {
        for (const std::size_t chunk_rows : {std::size_t{1}, std::size_t{7}, std::size_t{512}}) {
            const SampleViews views = sample_views(server, name, 600, 17, chunk_rows);
            if (views.framed != views.in_process || views.streamed != views.in_process) {
                std::fprintf(stderr, "%s chunk=%zu: SAMPLE views differ\n", name, chunk_rows);
                return 1;
            }
            all += views.framed;
        }
    }
    server.stop();
    std::printf("%016llx\n", static_cast<unsigned long long>(bytes::fnv1a(all)));
    return 0;
}

TEST(CsvEncoderThreads, SampleBytesAreIdenticalAtOneAndFourThreads) {
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) {
        GTEST_SKIP() << "cannot resolve own binary path";
    }
    exe[len] = '\0';
    std::string hashes[2];
    const char* counts[2] = {"1", "4"};
    for (int i = 0; i < 2; ++i) {
        const std::string cmd = std::string("KINET_NUM_THREADS=") + counts[i] + " '" + exe +
                                "' --encoder-sample-hash";
        FILE* pipe = popen(cmd.c_str(), "r");
        ASSERT_NE(pipe, nullptr);
        char line[64] = {};
        const bool got = std::fgets(line, sizeof(line), pipe) != nullptr;
        const int rc = pclose(pipe);
        ASSERT_TRUE(got) << "no hash from child with KINET_NUM_THREADS=" << counts[i];
        ASSERT_EQ(rc, 0) << "child failed with KINET_NUM_THREADS=" << counts[i];
        hashes[i] = line;
    }
    EXPECT_EQ(hashes[0], hashes[1]) << "SAMPLE bytes differ between 1 and 4 threads";
}

}  // namespace

// Custom main: `--encoder-sample-hash` turns the binary into the child side
// of the thread-identity test.
int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--encoder-sample-hash") {
            try {
                return print_sample_hash();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "encoder hash child: %s\n", e.what());
                return 1;
            }
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
