/**
 * @file
 * The benchmark's own span recorder. Spans are opened and closed
 * around calls into the libraries' public entry points, from the
 * driving thread only; each span keeps its name, start, end, parent
 * and the frame or request id it belongs to. Spans stay in memory
 * until the run ends and are then written out as one JSON file.
 *
 * A span's self time is its duration minus the part of its interval
 * that its child spans cover.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adbench {

/** One closed (or still open) span. */
struct Span
{
    std::string name;
    double startMs = 0.0;
    double endMs = -1.0;  ///< < startMs while open.
    int parent = -1;      ///< index of the enclosing span, -1 = root.
    std::int64_t id = -1; ///< frame or request id.
};

/** Per-name totals over every span of that name. */
struct SpanStats
{
    std::int64_t count = 0;
    double totalMs = 0.0; ///< summed durations.
    double selfMs = 0.0;  ///< summed self times.
};

class Tracer
{
  public:
    /** A disabled tracer records nothing and costs one branch. */
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; returns its index. */
    int begin(const std::string& name, std::int64_t id = -1);

    /** Close span @p index (must be the innermost open span). */
    void end(int index);

    /** RAII wrapper around begin()/end(). */
    class Scope
    {
      public:
        Scope(Tracer& t, const std::string& name, std::int64_t id = -1)
            : t_(t), index_(t.enabled() ? t.begin(name, id) : -1)
        {
        }
        ~Scope()
        {
            if (index_ >= 0)
                t_.end(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /** Index of the span, -1 when tracing is off. */
        int index() const { return index_; }

      private:
        Tracer& t_;
        int index_;
    };

    const std::vector<Span>& spans() const { return spans_; }

    /** Duration of span @p i (ms). */
    double durationMs(int i) const
    {
        return spans_[static_cast<std::size_t>(i)].endMs -
               spans_[static_cast<std::size_t>(i)].startMs;
    }

    /** Self time of every span, by index. */
    std::vector<double> selfTimesMs() const;

    /** Totals keyed by span name. */
    std::map<std::string, SpanStats> stats() const;

    /**
     * Tree check: for every span with children, the children lie
     * inside it and children plus self time equal its duration, and
     * the self times of a whole tree sum to its root's duration.
     * Returns the worst absolute mismatch (ms).
     */
    double reconciliationErrorMs() const;

    /** The spans as a JSON document with @p header merged in. */
    std::string toJson(const std::string& header) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace adbench

#endif // PERFBENCH_TRACER_HH
