#include "tracer.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "harness.hh"

namespace adbench {

int
Tracer::begin(const std::string& name, std::int64_t id)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startMs = nowMs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int index)
{
    if (open_.empty() || open_.back() != index)
        ad::fatal("adbench tracer: span ", index, " closed out of order");
    spans_[static_cast<std::size_t>(index)].endMs = nowMs();
    open_.pop_back();
}

namespace {

/** Length of the union of [a, b) intervals, each clipped to [lo, hi). */
double
coveredMs(std::vector<std::pair<double, double>> iv, double lo, double hi)
{
    for (auto& [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, curA = 0.0, curB = -1.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
        if (b <= a)
            continue;
        if (!open || a > curB) {
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        } else {
            curB = std::max(curB, b);
        }
    }
    if (open)
        covered += curB - curA;
    return covered;
}

std::vector<std::vector<int>>
childrenOf(const std::vector<Span>& spans)
{
    std::vector<std::vector<int>> kids(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            kids[static_cast<std::size_t>(spans[i].parent)].push_back(
                static_cast<int>(i));
    return kids;
}

} // namespace

std::vector<double>
Tracer::selfTimesMs() const
{
    const auto kids = childrenOf(spans_);
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        std::vector<std::pair<double, double>> iv;
        for (const int k : kids[i])
            iv.emplace_back(spans_[static_cast<std::size_t>(k)].startMs,
                            spans_[static_cast<std::size_t>(k)].endMs);
        self[i] = (spans_[i].endMs - spans_[i].startMs) -
                  coveredMs(std::move(iv), spans_[i].startMs,
                            spans_[i].endMs);
    }
    return self;
}

std::map<std::string, SpanStats>
Tracer::stats() const
{
    const auto self = selfTimesMs();
    std::map<std::string, SpanStats> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto& s = out[spans_[i].name];
        ++s.count;
        s.totalMs += spans_[i].endMs - spans_[i].startMs;
        s.selfMs += self[i];
    }
    return out;
}

double
Tracer::reconciliationErrorMs() const
{
    const auto kids = childrenOf(spans_);
    const auto self = selfTimesMs();
    double worst = 0.0;
    // Per span: children stay inside the parent, and the children's
    // summed durations plus self time give the parent's duration.
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& p = spans_[i];
        if (p.endMs < p.startMs)
            return INFINITY; // left open
        double childSum = 0.0;
        for (const int k : kids[i]) {
            const Span& c = spans_[static_cast<std::size_t>(k)];
            worst = std::max({worst, p.startMs - c.startMs,
                              c.endMs - p.endMs});
            childSum += c.endMs - c.startMs;
        }
        worst = std::max(
            worst, std::fabs(childSum + self[i] - (p.endMs - p.startMs)));
    }
    // Per tree: every descendant's self time sums to the root span.
    std::vector<double> treeSelf(spans_.size(), 0.0);
    for (std::size_t i = spans_.size(); i-- > 0;) {
        treeSelf[i] += self[i];
        if (spans_[i].parent >= 0)
            treeSelf[static_cast<std::size_t>(spans_[i].parent)] +=
                treeSelf[i];
    }
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent < 0)
            worst = std::max(worst,
                             std::fabs(treeSelf[i] -
                                       (spans_[i].endMs - spans_[i].startMs)));
    return worst;
}

std::string
Tracer::toJson(const std::string& header) const
{
    const auto self = selfTimesMs();
    std::ostringstream os;
    os << "{\"schema\": \"adbench.trace.v1\", \"timeline\": \"wall-clock ms\", "
          "\"header\": "
       << header << ",\n \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n  " : "\n  ") << "{\"i\": " << i
           << ", \"name\": " << quoted(s.name) << ", \"start_ms\": "
           << num(s.startMs) << ", \"end_ms\": " << num(s.endMs)
           << ", \"parent\": " << s.parent << ", \"id\": " << s.id
           << ", \"self_ms\": " << num(self[i]) << "}";
    }
    os << "\n ]}\n";
    return os.str();
}

} // namespace adbench
