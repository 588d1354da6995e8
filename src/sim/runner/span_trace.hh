/**
 * @file
 * Engine span tracing: wall-time attribution for the run engine's
 * sweep machinery (not the simulated system).
 *
 * PRs 8-9 missed perf targets partly because nothing attributed a
 * sweep's host wall time: was it trace pregen, distill decode,
 * simulation, or the run cache? EngineTrace records host-time spans
 * around those stages and emits
 *
 *  - a Chrome/Perfetto trace with one track per engine worker thread
 *    (one "X" slice per span), activated by `nurapid_sim
 *    --engine-trace-out FILE` or the NURAPID_ENGINE_TRACE env var
 *    (which regen_bench.sh forwards per bench binary), and
 *  - an `[engine]` stderr footer summing per-stage busy seconds
 *    (self time, so nested spans are not double counted) plus the
 *    share of wall time covered by any span at all.
 *
 * The trace file is written in Chrome's JSON *array* format — `[`
 * followed by one event object per line, trailing comma allowed, no
 * closing bracket required — and is opened in append mode: separate
 * processes (the 17 bench binaries of one regen_bench sweep) append
 * their spans to the same file under distinct pids, yielding a single
 * whole-sweep trace that loads in ui.perfetto.dev as-is.
 *
 * Cost model: span sites are per-run granularity (hundreds per
 * sweep), never per-reference; a disabled site costs one relaxed
 * atomic load and a predictably-not-taken branch. Recording is
 * lock-free after a thread's first span (thread-local buffers,
 * registered once under a mutex).
 */

#ifndef NURAPID_SIM_RUNNER_SPAN_TRACE_HH
#define NURAPID_SIM_RUNNER_SPAN_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nurapid {

class EngineTrace
{
  public:
    /** One finished span, recorded by ~EngineSpan. */
    struct SpanRec
    {
        const char *stage;       //!< static stage name (aggregation key)
        std::string label;       //!< display label (may carry run detail)
        std::uint64_t ts_us;     //!< wall-clock microseconds since epoch
        std::uint64_t start_ns;  //!< steady-clock start (coverage math)
        std::uint64_t dur_ns;    //!< steady-clock duration
        std::uint64_t self_ns;   //!< duration minus enclosed child spans
        bool top_level;          //!< no enclosing engine span
    };

    static EngineTrace &instance();

    /** True once tracing was activated by enable() or the
     *  NURAPID_ENGINE_TRACE environment variable. */
    bool enabled() const { return on.load(std::memory_order_relaxed); }

    /** Activates tracing; spans recorded from now on are appended to
     *  @p path at flush. Registers an atexit flush. Idempotent (the
     *  first path wins). */
    void enable(const std::string &path);

    /** Appends the recorded spans to the trace file and prints the
     *  `[engine]` footer to stderr. Called automatically at process
     *  exit; safe to call earlier (later flushes append the rest). */
    void flush();

    /** @name Recording internals (EngineSpan only). */
    ///@{
    struct ThreadBuf
    {
        int tid = 0;
        std::vector<SpanRec> spans;
    };
    /** This thread's buffer, registered on first use. */
    ThreadBuf &threadBuf();
    ///@}

  private:
    EngineTrace();

    std::atomic<bool> on{false};
    std::mutex mtx;  //!< guards path/buffers/flush bookkeeping
    std::string path;
    std::uint64_t enable_ns = 0;  //!< steady clock at activation
    /** shared_ptr keeps buffers alive past worker-thread exit. */
    std::vector<std::shared_ptr<ThreadBuf>> buffers;
    std::size_t flushed = 0;  //!< spans already written (per buffer sum)
    bool wrote_header = false;
};

/**
 * RAII engine span. @p stage must be a string literal (it is the
 * footer's aggregation key); @p label defaults to the stage name.
 */
class EngineSpan
{
  public:
    explicit EngineSpan(const char *stage) : EngineSpan(stage, stage) {}
    EngineSpan(const char *stage, std::string label);
    ~EngineSpan();

    EngineSpan(const EngineSpan &) = delete;
    EngineSpan &operator=(const EngineSpan &) = delete;

  private:
    bool active;
    const char *stage = nullptr;
    std::string label;
    std::uint64_t ts_us = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;  //!< accumulated by nested spans
    EngineSpan *parent = nullptr;
};

} // namespace nurapid

#endif // NURAPID_SIM_RUNNER_SPAN_TRACE_HH
