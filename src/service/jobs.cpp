#include "src/service/jobs.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "src/common/check.hpp"
#include "src/service/journal.hpp"

namespace kinet::service {
namespace {

/// Terminal job records retained for POLL after completion.  Beyond this,
/// the oldest terminal records are pruned so a long-lived daemon's job
/// table stays bounded; live (queued/running) jobs are never pruned.
constexpr std::size_t kMaxTerminalJobs = 256;

}  // namespace

/// All fields except the atomics are guarded by JobManager::mu_; the
/// atomics let the executing work report progress and observe cancellation
/// without taking the manager lock on the training path.
struct JobManager::Job {
    std::uint64_t id = 0;
    std::string model;
    JobState state = JobState::queued;
    std::string error;
    Work work;
    std::atomic<std::size_t> epochs_total{0};
    std::atomic<std::size_t> epochs_done{0};
    std::atomic<bool> cancel{false};
};

namespace {

/// Point-in-time copy of one job's fields; caller holds JobManager::mu_.
JobInfo snapshot_locked(const JobManager::Job& job) {
    JobInfo out;
    out.id = job.id;
    out.model = job.model;
    out.state = job.state;
    // done before total, pairing with report_progress's total-then-done
    // stores: a reader never sees progress past the total it reads.
    out.epochs_done = job.epochs_done.load(std::memory_order_acquire);
    out.epochs_total = job.epochs_total.load(std::memory_order_acquire);
    out.error = job.error;
    return out;
}

}  // namespace

std::string_view job_state_name(JobState state) {
    switch (state) {
    case JobState::queued:
        return "queued";
    case JobState::running:
        return "running";
    case JobState::done:
        return "done";
    case JobState::failed:
        return "failed";
    case JobState::cancelled:
        return "cancelled";
    }
    return "?";
}

bool JobManager::Context::cancel_requested() const noexcept {
    return job_.cancel.load(std::memory_order_relaxed);
}

void JobManager::Context::report_progress(std::size_t epochs_done) noexcept {
    job_.epochs_done.store(epochs_done, std::memory_order_relaxed);
}

void JobManager::Context::report_progress(std::size_t epochs_done,
                                          std::size_t epochs_total) noexcept {
    job_.epochs_total.store(epochs_total, std::memory_order_release);
    job_.epochs_done.store(epochs_done, std::memory_order_release);
}

JobManager::JobManager(std::size_t workers) {
    const std::size_t count = workers == 0 ? 1 : workers;
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

JobManager::~JobManager() { stop(); }

std::uint64_t JobManager::submit(std::string model, std::size_t epochs_total, Work work,
                                 std::string request_line) {
    KINET_CHECK(work != nullptr, "JobManager::submit: null work");
    auto job = std::make_shared<Job>();
    job->model = std::move(model);
    job->epochs_total.store(epochs_total, std::memory_order_relaxed);
    job->work = std::move(work);
    std::uint64_t id = 0;
    {
        const MutexLock lock(mu_);
        KINET_CHECK(!stopping_, "JobManager::submit: manager is stopped");
        id = next_id_++;
        job->id = id;
        // Journal before queueing: if the durable append fails (disk error
        // or injected fault) the submit throws and no job runs that a
        // restart could not see.  The id is burned; ids need not be dense.
        if (journal_ != nullptr) {
            journal_->append_submit(id, epochs_total, job->model, request_line);
        }
        jobs_[id] = job;
        queue_.push_back(std::move(job));
        prune_terminal_locked();
    }
    cv_.notify_one();
    return id;
}

void JobManager::set_journal(std::shared_ptr<JobJournal> journal) {
    const MutexLock lock(mu_);
    journal_ = std::move(journal);
}

void JobManager::restore_terminal(const JobInfo& info) {
    auto job = std::make_shared<Job>();
    job->id = info.id;
    job->model = info.model;
    job->state = info.state;
    job->epochs_total.store(info.epochs_total, std::memory_order_relaxed);
    job->error = info.error;
    job->epochs_done.store(info.epochs_done, std::memory_order_relaxed);
    const MutexLock lock(mu_);
    KINET_CHECK(!stopping_, "JobManager::restore_terminal: manager is stopped");
    next_id_ = std::max(next_id_, info.id + 1);
    if (journal_ != nullptr) {
        journal_->append_submit(info.id, info.epochs_total, info.model, std::string{});
        journal_->append_terminal(info.id, info.state, info.error);
    }
    jobs_[info.id] = std::move(job);
    prune_terminal_locked();
}

std::optional<JobInfo> JobManager::info(std::uint64_t id) const {
    const MutexLock lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        return std::nullopt;
    }
    return snapshot_locked(*it->second);
}

std::optional<JobInfo> JobManager::wait(std::uint64_t id, std::size_t timeout_ms) {
    UniqueLock lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        return std::nullopt;
    }
    // Hold the shared_ptr, not the iterator: terminal pruning may erase the
    // map entry while we sleep, and the snapshot must still be readable.
    const std::shared_ptr<Job> job = it->second;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    // Condition checked inline (not via a wait predicate) so the analysis
    // sees the guarded reads happen with mu_ held.
    while (!(stopping_ || job->state == JobState::done || job->state == JobState::failed ||
             job->state == JobState::cancelled)) {
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
            break;
        }
    }
    return snapshot_locked(*job);
}

std::optional<JobInfo> JobManager::request_cancel(std::uint64_t id) {
    const MutexLock lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        return std::nullopt;
    }
    Job& job = *it->second;
    job.cancel.store(true, std::memory_order_relaxed);
    if (job.state == JobState::queued) {
        job.state = JobState::cancelled;  // the worker skips it on pop
        journal_terminal_locked(job);
        cv_.notify_all();                 // wake POLL wait= long-polls
    }
    return snapshot_locked(job);
}

std::vector<JobInfo> JobManager::list() const {
    const MutexLock lock(mu_);
    std::vector<JobInfo> out;
    out.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) {
        out.push_back(snapshot_locked(*job));
    }
    return out;
}

std::size_t JobManager::size() const {
    const MutexLock lock(mu_);
    return jobs_.size();
}

void JobManager::cancel_all() {
    const MutexLock lock(mu_);
    for (auto& job : queue_) {
        if (job->state == JobState::queued) {
            job->state = JobState::cancelled;
        }
    }
    queue_.clear();
    for (auto& [id, job] : jobs_) {
        job->cancel.store(true, std::memory_order_relaxed);
    }
}

void JobManager::stop() {
    {
        const MutexLock lock(mu_);
        if (stopping_) {
            return;
        }
        stopping_ = true;  // from here on submit() refuses new work
    }
    cancel_all();
    cv_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
    workers_.clear();
}

void JobManager::worker_loop() {
    for (;;) {
        std::shared_ptr<Job> job;
        {
            UniqueLock lock(mu_);
            while (!stopping_ && queue_.empty()) {
                cv_.wait(lock);
            }
            if (queue_.empty()) {
                return;  // stopping and drained
            }
            job = queue_.front();
            queue_.pop_front();
            if (job->state != JobState::queued) {
                continue;  // cancelled while queued
            }
            job->state = JobState::running;
        }

        Context context(*job);
        std::string error;
        bool ok = false;
        try {
            job->work(context);
            ok = true;
        } catch (const std::exception& e) {
            error = e.what();
        } catch (...) {
            error = "non-standard exception";
        }

        {
            const MutexLock lock(mu_);
            if (ok) {
                // A cancel that lands after the work already published its
                // result arrived too late: the job is done.
                job->state = JobState::done;
                job->epochs_done.store(job->epochs_total.load(std::memory_order_relaxed),
                                       std::memory_order_relaxed);
            } else if (job->cancel.load(std::memory_order_relaxed)) {
                job->state = JobState::cancelled;
            } else {
                job->state = JobState::failed;
                job->error = std::move(error);
            }
            journal_terminal_locked(*job);
            job->work = nullptr;  // release captured resources promptly
        }
        cv_.notify_all();  // wake long-polls parked in wait()
    }
}

void JobManager::journal_terminal_locked(const Job& job) {
    if (journal_ == nullptr) {
        return;
    }
    // A lost terminal record is exactly the state a crash leaves behind;
    // recovery already resolves it deterministically (the job is treated as
    // interrupted), so a failed append here must not take the worker down.
    try {
        journal_->append_terminal(job.id, job.state, job.error);
    } catch (const std::exception&) {
    }
}

void JobManager::prune_terminal_locked() {
    std::size_t terminal = 0;
    for (const auto& [id, job] : jobs_) {
        if (job->state == JobState::done || job->state == JobState::failed ||
            job->state == JobState::cancelled) {
            ++terminal;
        }
    }
    for (auto it = jobs_.begin(); it != jobs_.end() && terminal > kMaxTerminalJobs;) {
        const JobState s = it->second->state;
        if (s == JobState::done || s == JobState::failed || s == JobState::cancelled) {
            it = jobs_.erase(it);
            --terminal;
        } else {
            ++it;
        }
    }
}

}  // namespace kinet::service
