// Async training-job subsystem for the synthetic-data service.
//
// A TRAIN is minutes of compute; serving it inline holds a connection
// thread *and* a shared pool worker for the whole fit, so a handful of
// concurrent trainings starve every SAMPLE/VALIDATE client (the paper's
// deployment has many sites training against one shared daemon).  The
// JobManager gives training its own small executor: dedicated worker
// threads pull queued jobs, run them with a cancellation + progress
// context, and record a terminal state the protocol's POLL/CANCEL/JOBS
// ops expose.  Request-pool latency is therefore independent of how many
// fits are in flight.
//
// Cancellation is cooperative: request_cancel() flips a flag the running
// work observes (KiNetGan::fit checks it at epoch boundaries via its
// FitObserver); a job still queued is cancelled immediately without ever
// running.
#ifndef KINETGAN_SERVICE_JOBS_H
#define KINETGAN_SERVICE_JOBS_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.hpp"

namespace kinet::service {

class JobJournal;

enum class JobState { queued, running, done, failed, cancelled };

[[nodiscard]] std::string_view job_state_name(JobState state);

/// A point-in-time view of one job, safe to read after the job finished.
struct JobInfo {
    std::uint64_t id = 0;
    std::string model;
    JobState state = JobState::queued;
    std::size_t epochs_done = 0;
    std::size_t epochs_total = 0;
    std::string error;  // failure message (state == failed only)
};

class JobManager {
public:
    struct Job;  // internal; opaque to callers

    /// Handed to running work: progress reporting + the cancellation flag.
    class Context {
    public:
        /// True once request_cancel() (or stop()) hit this job; work should
        /// abort promptly — KiNetGan::fit does so by returning false from
        /// its FitObserver.
        [[nodiscard]] bool cancel_requested() const noexcept;
        /// Records completed-epoch progress for POLL.
        void report_progress(std::size_t epochs_done) noexcept;
        /// Records progress and resizes the denominator together, for work
        /// whose last phase is sized only once it starts (FEDTRAIN's publish
        /// walks the membership view as it stands then).
        void report_progress(std::size_t epochs_done, std::size_t epochs_total) noexcept;

    private:
        friend class JobManager;
        explicit Context(Job& job) : job_(job) {}
        Job& job_;
    };

    using Work = std::function<void(Context&)>;

    /// Starts `workers` dedicated executor threads (at least 1).  These are
    /// separate from the request pool on purpose: a fit occupying every
    /// executor never delays a SAMPLE.
    explicit JobManager(std::size_t workers);
    ~JobManager();
    JobManager(const JobManager&) = delete;
    JobManager& operator=(const JobManager&) = delete;

    /// Enqueues work and returns its job id immediately.  `epochs_total` is
    /// the progress denominator reported by POLL.  On success the work
    /// function is responsible for publishing its result (the server's
    /// training jobs put() the fitted model into the registry) before
    /// returning; a throw marks the job failed — or cancelled, when
    /// cancellation was requested first.
    ///
    /// With a journal attached, the submission is durably journaled before
    /// it is queued (a failed append fails the submit — no job may run that
    /// a restart cannot see).  `request_line` is the original wire request
    /// recorded for crash recovery; empty marks the job non-resumable.
    std::uint64_t submit(std::string model, std::size_t epochs_total, Work work,
                         std::string request_line = {});

    /// Attaches (or, with nullptr, detaches) the durable job journal.
    /// Detaching is also the chaos-test crash hatch: a "crashed" in-process
    /// daemon stops journaling, freezing the on-disk state exactly as
    /// kill -9 would.
    void set_journal(std::shared_ptr<JobJournal> journal);

    /// Re-creates a terminal job record from the recovery journal: the id
    /// becomes POLLable with the given state/error, and the id allocator
    /// advances past it so new jobs never collide with journaled ones.
    /// Re-journals the record when a journal is attached (recovery rotates
    /// the journal, so restored records must be written back).
    void restore_terminal(const JobInfo& info);

    /// Snapshot of one job; nullopt if the id was never allocated (or the
    /// record was pruned — only terminal jobs are ever pruned).
    [[nodiscard]] std::optional<JobInfo> info(std::uint64_t id) const;

    /// Blocks until the job reaches a terminal state (done/failed/cancelled)
    /// or `timeout_ms` elapses, then returns its snapshot — the long-poll
    /// behind `POLL <id> wait=1`.  A caller must inspect the returned state:
    /// a timeout simply returns the still-live snapshot.  Returns nullopt
    /// for unknown ids immediately.  Progress (epochs_done) does not wake
    /// the wait; only terminal transitions and stop() do.
    [[nodiscard]] std::optional<JobInfo> wait(std::uint64_t id, std::size_t timeout_ms);

    /// Requests cancellation and returns the job's post-cancel snapshot in
    /// one critical section (nullopt if the id is unknown).  A queued job
    /// is cancelled on the spot; a running one stops at its next progress
    /// check; a job already terminal keeps its state — the snapshot shows
    /// it either way.
    std::optional<JobInfo> request_cancel(std::uint64_t id);

    /// All retained jobs, oldest first.
    [[nodiscard]] std::vector<JobInfo> list() const;

    /// Number of retained job records (live + terminal).
    [[nodiscard]] std::size_t size() const;

    [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

    /// Requests cancellation of every live job (queued ones become
    /// cancelled on the spot) without touching the executor threads —
    /// the manager keeps accepting new work afterwards.
    void cancel_all();

    /// Cancels queued and running jobs, then joins the executors; no
    /// further submissions are accepted.  Idempotent; also invoked by the
    /// destructor.
    void stop();

private:
    void worker_loop();
    /// Best-effort terminal append — a journal failure here is equivalent
    /// to crashing before the record landed, which recovery handles.
    void journal_terminal_locked(const Job& job) KINET_REQUIRES(mu_);
    void prune_terminal_locked() KINET_REQUIRES(mu_);

    mutable Mutex mu_;
    CondVar cv_;
    bool stopping_ KINET_GUARDED_BY(mu_) = false;
    std::uint64_t next_id_ KINET_GUARDED_BY(mu_) = 1;
    /// Durable journal (nullptr = journaling off).  Appends happen inside
    /// the manager's critical sections, so journal order == job-state order;
    /// training jobs are rare enough that the fsync under mu_ is immaterial.
    std::shared_ptr<JobJournal> journal_ KINET_GUARDED_BY(mu_);
    /// Ordered by id.  The map and queue structure is guarded; the pointed-
    /// to Job records carry their own discipline (see jobs.cpp).
    std::map<std::uint64_t, std::shared_ptr<Job>> jobs_ KINET_GUARDED_BY(mu_);
    std::deque<std::shared_ptr<Job>> queue_ KINET_GUARDED_BY(mu_);
    std::vector<std::thread> workers_;
};

}  // namespace kinet::service

#endif  // KINETGAN_SERVICE_JOBS_H
