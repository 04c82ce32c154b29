// kinetbench entry point:
//   kinetbench --workload stream|fleet|train --seed N --seconds S --trace 0|1
//              [--out-dir DIR]
// prints the run's result as the last line of stdout (see README.md).
// `kinetbench --probe gemm256` is the child the traced run spawns to time
// a 256^3 matmul at a given KINET_NUM_THREADS.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

/// Restricts this process to the first `count` CPUs it may run on.
void pin_to_first_cpus(std::size_t count) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        return;
    }
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    std::size_t taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < count; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &chosen);
            ++taken;
        }
    }
    (void)::sched_setaffinity(0, sizeof chosen, &chosen);
}

/// Widens this process to every online CPU (the GEMM probe measures the
/// whole host, whatever set its parent ran on).
void unpin() {
    cpu_set_t all;
    CPU_ZERO(&all);
    const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (long cpu = 0; cpu < online && cpu < CPU_SETSIZE; ++cpu) {
        CPU_SET(static_cast<int>(cpu), &all);
    }
    (void)::sched_setaffinity(0, sizeof all, &all);
}

int usage() {
    std::cerr << "usage: kinetbench --workload stream|fleet|train --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    return 64;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace kinetbench;
    RunConfig config;
    config.self_path = argv[0];
    std::string probe;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            config.workload = value;
        } else if (key == "--seed") {
            config.seed = std::stoull(value);
        } else if (key == "--seconds") {
            config.seconds = std::stod(value);
        } else if (key == "--trace") {
            config.trace = value != "0";
        } else if (key == "--out-dir") {
            config.out_dir = value;
        } else if (key == "--probe") {
            probe = value;
        } else {
            return usage();
        }
    }
    if (probe == "gemm256") {
        unpin();
        std::printf("%.6f\n", gemm256_ms());
        return 0;
    }
    // Each workload runs on a fixed set of CPUs, pinned before any thread
    // starts.  On a shared VM every CPU a run spreads over is one more the
    // hypervisor can steal, and a request that wakes a thread on an idle
    // vCPU waits for the hypervisor to run it: the fleet, one small request
    // in flight at a time, lost up to 12% of its CPU time to steal and half
    // its speed on four CPUs, against under 1% on one.  stream and train
    // keep two: stream's client parses on one while the server generates
    // on the other, and train's pool still runs in parallel.
    pin_to_first_cpus(config.workload == "fleet" ? 1 : 2);
    // The pool size is read once, at first use, so it is set before any
    // work: every CPU of the set for training; one fewer for stream, whose
    // client thread needs the other.  A KINET_NUM_THREADS already in the
    // environment wins (the 1-thread reference figures).
    const std::size_t cores = host_cores();
    const std::size_t pool = config.workload == "train" || cores == 1 ? cores : cores - 1;
    ::setenv("KINET_NUM_THREADS", std::to_string(pool).c_str(), 0);
    try {
        if (config.workload == "stream") {
            return run_stream(config);
        }
        if (config.workload == "fleet") {
            return run_fleet(config);
        }
        if (config.workload == "train") {
            return run_train(config);
        }
    } catch (const std::exception& e) {
        std::cerr << "kinetbench: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
