#pragma once
/// \file server.hpp
/// \brief The resident decomposition server behind `dmtk serve`.
///
/// The batch CLI pays the full cold-start bill on every invocation:
/// process launch, ExecContext construction (arena allocation and first
/// touch), the checked read of the tensor, plan construction, then the
/// actual sweeps. A resident server keeps the expensive parts warm —
/// per-worker ExecContexts stay alive with their workspace arenas already
/// sized, and one shared TensorCache holds the checked tensors of the
/// files already read — so a repeat request of a file already seen skips
/// straight to the sweeps. Plans themselves are not kept: a batch builds
/// one on its worker's warm context, which costs microseconds against a
/// request's milliseconds of sweeps.
///
/// Architecture (one process, three thread kinds):
///
///  - The ACCEPT thread owns the listening Unix-domain socket and spawns
///    one reader per connection.
///  - READER threads parse and validate newline-delimited JSON requests.
///    Cheap requests (info/stats/shutdown) are answered inline; compute
///    requests (decompose/mttkrp) are validated, their tensor header
///    probed, their batch key computed, and then enqueued — or refused
///    with a structured "busy" error when the bounded queue is full.
///    Validation up front means a malformed request never occupies a
///    queue slot and a worker never throws on bad input.
///  - WORKER threads (--workers) each own a private ExecContext. A
///    workspace arena is therefore touched by exactly one thread for its
///    whole life — the single rule that keeps the whole server
///    ASan/TSan-clean without locking the hot path. The one structure
///    workers share is the TensorCache, whose entries are immutable
///    tensors behind shared_ptrs; its lock guards only the map and LRU
///    list, never a read (see tensor_cache.hpp).
///
/// Batching: when a worker dequeues a compute job it also extracts every
/// queued job with the same batch key (the PlanKey, plus the mode for
/// mttkrp). Both request types then run the same way: the batch's first
/// member builds one plan on the worker's context — a CpAlsSweepPlanT for
/// decompose, an Auto MttkrpPlanT for mttkrp (the mode's root-to-leaf
/// path through the dimension tree, which reads the tensor in place) —
/// and every member runs through it back to back on its resident tensor.
/// `batch_window_ms` optionally lingers before extraction so
/// closely-spaced clients can coalesce.
///
/// Admission control: `queue_depth` bounds queued jobs (excess rejected
/// "busy" immediately), `queue_timeout_ms` bounds how stale a job may
/// get before a worker sheds it with a "timeout" error instead of
/// burning compute for a client that has likely given up.
///
/// Self-healing: per-job exceptions map to structured errors where they
/// happen — a plan build that throws (arena exhaustion, or the
/// `arena.alloc` fault site) fails only the member that tried it with an
/// "internal" error, and the next member builds again. A backstop in the
/// worker loop catches anything that escapes batch processing itself —
/// every job in the batch gets an "internal" error and the worker thread
/// survives to take the next batch (counted in `worker_failures`). A
/// "health" request reports all of it: uptime, queue occupancy, failure
/// counters, and any armed fault-site trigger counts (util/fault.hpp).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/sweep_plan.hpp"
#include "job/decompose_job.hpp"
#include "serve/job_queue.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/tensor_cache.hpp"
#include "util/mutex.hpp"

namespace dmtk::serve {

struct ServeOptions {
  std::string socket;            ///< Unix-domain socket path (required)
  int workers = 1;               ///< decomposition worker threads
  int threads = 0;               ///< threads per worker ExecContext (0=auto)
  std::size_t queue_depth = 64;  ///< admission bound; beyond it -> "busy"
  int queue_timeout_ms = 30000;  ///< oldest-job age bound; beyond -> "timeout"
  int batch_window_ms = 0;       ///< linger before same-key extraction
  std::size_t max_batch = 16;    ///< jobs coalesced per batch (>= 1)
  /// Entry cap of the shared tensor cache (0 disables it).
  std::size_t cache_entries = 32;
  /// Byte budget of the shared tensor cache.
  std::size_t cache_bytes = 256u << 20;
};

/// Everything that determines a dense sweep plan's construction: the
/// batch key of dense compute jobs and the "key" field of decompose
/// responses. `scheme` must be RESOLVED (never Auto): keying on the
/// request's literal scheme would split identical plans under two keys
/// ("auto" and "dimtree" build the same tree, as do "auto" with a named
/// method and "permode").
struct PlanKey {
  std::vector<index_t> dims;
  index_t rank = 0;
  SweepScheme scheme = SweepScheme::PerMode;
  MttkrpMethod method = MttkrpMethod::Auto;  ///< PerMode kernel selection
  bool f32 = false;

  /// Canonical string form.
  [[nodiscard]] std::string to_string() const;
};

/// The line Server::start writes to stderr when `workers` contexts of
/// `threads` threads each (already resolved: no 0) ask for more threads
/// than `cores`; empty when they fit or `cores` is unknown (<= 0).
[[nodiscard]] std::string oversubscription_warning(int workers, int threads,
                                                   int cores);

/// Thrown by Server::start on socket setup failures (bad path, bind).
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Server {
 public:
  explicit Server(ServeOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket (unlinking any stale file at the path), start the
  /// accept/worker threads. Throws ServeError on socket failures.
  void start();

  /// Block until a shutdown has been requested (by a client's shutdown
  /// request, request_stop(), or a signal handler calling
  /// request_stop()). Polls an atomic so it coexists with signal
  /// handlers that cannot touch condition variables.
  void wait();

  /// Ask the server to shut down. Async-signal-safe (one atomic store);
  /// wakes wait() within its poll interval. Does not tear down — the
  /// owning thread calls stop().
  void request_stop() noexcept { stop_requested_.store(true); }

  /// Full teardown: stop accepting, drain and join workers (queued jobs
  /// still get responses), unblock and join readers, unlink the socket.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] const ServeOptions& options() const { return opts_; }

  /// The stats-request payload (server, tensor-cache and queue counters)
  /// — exposed for in-process tests.
  [[nodiscard]] Json stats_json() const;

  /// The health-request payload: uptime, worker/queue occupancy, the
  /// self-healing counters (worker batch failures, accept faults), and
  /// armed fault-site trigger counts. Cheap enough to poll from a
  /// liveness probe.
  [[nodiscard]] Json health_json() const;

 private:
  struct Conn {
    Mutex write_mu;  ///< one response line at a time; guards fd
    /// -1 once closed. Written by the accept loop (before the reader
    /// exists) and by the reader's close; read by every sender. The
    /// reader additionally snapshots it once under the lock for its recv
    /// loop — see reader_loop.
    int fd DMTK_GUARDED_BY(write_mu) = -1;
    std::atomic<bool> done{false};  ///< reader exited; slot is reapable
  };

  /// A connection and the reader thread that owns its receive side.
  struct ReaderSlot {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };

  struct Job {
    Request req;
    std::shared_ptr<Conn> conn;
    std::optional<DecomposeJob> decompose;  ///< decompose requests
    std::vector<index_t> dims;  ///< probed extents (mttkrp)
    PlanKey key;                ///< batch key (dense decompose / mttkrp)
    bool dense = false;
    std::chrono::steady_clock::time_point received;
  };

  using Queue = JobQueue<Job>;

  void accept_loop();
  /// Join and drop every reader whose connection has finished. Called
  /// from the accept loop so a resident server's fd/thread footprint
  /// tracks LIVE connections, not total connections ever served.
  void reap_readers();
  void reader_loop(std::shared_ptr<Conn> conn);
  void handle_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  /// Validate a compute request against its tensor's header and build
  /// the job (+ batch key). Throws ProtocolError.
  Job make_job(Request r, const std::shared_ptr<Conn>& conn);
  void worker_loop(ExecContext& ctx);
  void run_decompose_batch(ExecContext& ctx, std::vector<Queue::Item>& jobs);
  /// The coalesced same-key dense decomposes: one CpAlsSweepPlanT for the
  /// batch, every member run through it on its resident tensor.
  template <typename T>
  void decompose_warm(ExecContext& ctx, std::vector<Queue::Item>& jobs);
  void run_mttkrp_batch(ExecContext& ctx, std::vector<Queue::Item>& jobs);
  /// Send one finished decompose's success response.
  void send_decompose(const Queue::Item& item, const DecomposeOutcome& out,
                      double queue_ms, double plan_ms, std::size_t batch_size,
                      std::size_t batch_index);
  /// The coalesced same-shape mttkrps: one MttkrpPlanT for the batch,
  /// every member executed through it on its resident tensor.
  template <typename T>
  void mttkrp_exec(ExecContext& ctx, std::vector<Queue::Item*>& live);
  Json handle_info(const Request& r);
  void send_line(const std::shared_ptr<Conn>& conn, const Json& j);
  /// Inside a catch block: map the in-flight exception to a structured
  /// error response (ProtocolError keeps its code; IoError -> io_error;
  /// std::invalid_argument (DecomposeJob's rejections, DimensionError) ->
  /// invalid_request; anything else -> internal).
  void send_error_for_exception(const std::shared_ptr<Conn>& conn,
                                const Json& id);
  /// Age-check one job: true = still fresh; false = timeout response sent.
  bool admit_or_timeout(const Queue::Item& item);

  ServeOptions opts_;
  TensorCache tensors_;
  Queue queue_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::thread accept_thread_;
  /// One private ExecContext per worker thread; workers never share them.
  std::vector<std::unique_ptr<ExecContext>> workers_;
  std::vector<std::thread> worker_threads_;
  Mutex conns_mu_;
  /// Live (unreaped) connections.
  std::vector<ReaderSlot> readers_ DMTK_GUARDED_BY(conns_mu_);

  std::chrono::steady_clock::time_point started_at_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  /// Batches whose processing escaped the per-job handlers (worker
  /// backstop fired): every job in the batch got an "internal" error and
  /// the worker thread survived to take the next batch.
  std::atomic<std::uint64_t> worker_failures_{0};
  /// Accepted connections dropped by the `serve.accept` fault site.
  std::atomic<std::uint64_t> accept_faults_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_jobs_{0};
  std::atomic<std::uint64_t> max_batch_observed_{0};
};

}  // namespace dmtk::serve
