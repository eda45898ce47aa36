#include "util/stats_registry.hpp"

#include <chrono>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace otft::stats {

Histogram::Histogram(double lo, double hi, std::size_t num_bins)
    : lo_(lo), hi_(hi), bins_(num_bins, 0)
{
    if (num_bins == 0 || hi <= lo)
        fatal("Histogram: need num_bins >= 1 and hi > lo");
}

void
Histogram::sample(double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (v < lo_) {
        ++underflow_;
        return;
    }
    if (v >= hi_) {
        ++overflow_;
        return;
    }
    const double frac = (v - lo_) / (hi_ - lo_);
    auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(bins_.size()));
    if (idx >= bins_.size()) // guard the v ~ hi_ rounding edge
        idx = bins_.size() - 1;
    ++bins_[idx];
}

std::vector<std::uint64_t>
Histogram::binsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bins_;
}

std::uint64_t
Histogram::underflow() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return underflow_;
}

std::uint64_t
Histogram::overflow() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overflow_;
}

std::uint64_t
Histogram::totalSamples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = underflow_ + overflow_;
    for (std::uint64_t b : bins_)
        total += b;
    return total;
}

double
Histogram::percentile(double p) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return percentileLocked(p);
}

double
Histogram::percentileLocked(double p) const
{
    std::uint64_t n = 0;
    for (std::uint64_t b : bins_)
        n += b;
    if (n == 0)
        return lo_;
    const double clamped = p < 0.0 ? 0.0 : (p > 100.0 ? 100.0 : p);
    const double target =
        clamped / 100.0 * static_cast<double>(n);
    const double width =
        (hi_ - lo_) / static_cast<double>(bins_.size());
    double cum = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] == 0)
            continue;
        const double next = cum + static_cast<double>(bins_[i]);
        if (target <= next) {
            const double frac =
                (target - cum) / static_cast<double>(bins_[i]);
            return lo_ + width * (static_cast<double>(i) + frac);
        }
        cum = next;
    }
    return hi_;
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::fill(bins_.begin(), bins_.end(), 0);
    underflow_ = 0;
    overflow_ = 0;
}

/** Registry node: one kind-tagged payload plus metadata. */
struct Registry::Node
{
    NodeKind kind;
    std::string desc;
    Counter counter;
    Accumulator accumulator;
    std::unique_ptr<Histogram> histogram;

    explicit Node(NodeKind k) : kind(k) {}
};

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

namespace {

const char *
kindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Counter:
        return "counter";
      case NodeKind::Accumulator:
        return "accumulator";
      case NodeKind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace

Registry::Node &
Registry::findOrCreate(const std::string &name, NodeKind kind,
                       const std::string &desc)
{
    if (name.empty())
        fatal("stats: node name must not be empty");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = nodes.find(name);
    if (it == nodes.end())
        it = nodes.emplace(name, std::make_unique<Node>(kind)).first;
    Node &node = *it->second;
    if (node.kind != kind)
        fatal("stats: node '", name, "' registered as ",
              kindName(node.kind), ", requested as ", kindName(kind));
    if (node.desc.empty() && !desc.empty())
        node.desc = desc;
    return node;
}

Counter &
Registry::counter(const std::string &name, const std::string &desc)
{
    return findOrCreate(name, NodeKind::Counter, desc).counter;
}

Accumulator &
Registry::accumulator(const std::string &name, const std::string &desc)
{
    return findOrCreate(name, NodeKind::Accumulator, desc).accumulator;
}

Histogram &
Registry::histogram(const std::string &name, double lo, double hi,
                    std::size_t num_bins, const std::string &desc)
{
    Node &node = findOrCreate(name, NodeKind::Histogram, desc);
    if (!node.histogram)
        node.histogram = std::make_unique<Histogram>(lo, hi, num_bins);
    return *node.histogram;
}

bool
Registry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nodes.find(name) != nodes.end();
}

std::map<std::string, std::uint64_t>
Registry::counterSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::uint64_t> values;
    for (const auto &[name, node] : nodes)
        if (node->kind == NodeKind::Counter)
            values[name] = node->counter.value();
    return values;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, node] : nodes) {
        node->counter.reset();
        node->accumulator.reset();
        if (node->histogram)
            node->histogram->reset();
    }
}

namespace {

bool
nodeIsEmpty(const Registry::Node &node)
{
    switch (node.kind) {
      case NodeKind::Counter:
        return node.counter.value() == 0;
      case NodeKind::Accumulator:
        return node.accumulator.count() == 0;
      case NodeKind::Histogram:
        return !node.histogram || node.histogram->totalSamples() == 0;
    }
    return true;
}

/** Format a double compactly for JSON (round-trips via %.17g). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
}

} // namespace

void
Registry::dumpText(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Table table({"stat", "value", "description"});
    for (const auto &[name, node] : nodes) {
        if (nodeIsEmpty(*node))
            continue;
        std::ostringstream value;
        switch (node->kind) {
          case NodeKind::Counter:
            value << node->counter.value();
            break;
          case NodeKind::Accumulator: {
            const Accumulator &a = node->accumulator;
            value << "n=" << a.count()
                  << " sum=" << formatNumber(a.sum())
                  << " mean=" << formatNumber(a.mean())
                  << " min=" << formatNumber(a.min())
                  << " max=" << formatNumber(a.max());
            break;
          }
          case NodeKind::Histogram: {
            const Histogram &h = *node->histogram;
            const auto bins = h.binsSnapshot();
            value << "n=" << h.totalSamples() << " [";
            for (std::size_t i = 0; i < bins.size(); ++i)
                value << (i ? " " : "") << bins[i];
            value << "] under=" << h.underflow()
                  << " over=" << h.overflow()
                  << " p50=" << formatNumber(h.p50())
                  << " p95=" << formatNumber(h.p95());
            break;
          }
        }
        table.row().add(name).add(value.str()).add(node->desc);
    }
    table.render(os);
}

void
Registry::dumpJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n";
    bool first = true;
    for (const auto &[name, node] : nodes) {
        if (!first)
            os << ",\n";
        first = false;
        // Names are conventionally dotted identifiers, but nothing
        // enforces that — escape so arbitrary keys stay valid JSON.
        os << "  \"" << json::escape(name) << "\": ";
        switch (node->kind) {
          case NodeKind::Counter:
            os << node->counter.value();
            break;
          case NodeKind::Accumulator: {
            const Accumulator &a = node->accumulator;
            os << "{\"count\": " << a.count()
               << ", \"sum\": " << jsonNumber(a.sum())
               << ", \"min\": " << jsonNumber(a.min())
               << ", \"max\": " << jsonNumber(a.max())
               << ", \"mean\": " << jsonNumber(a.mean()) << "}";
            break;
          }
          case NodeKind::Histogram: {
            const Histogram &h = *node->histogram;
            const auto bins = h.binsSnapshot();
            os << "{\"lo\": " << jsonNumber(h.lo())
               << ", \"hi\": " << jsonNumber(h.hi())
               << ", \"underflow\": " << h.underflow()
               << ", \"overflow\": " << h.overflow()
               << ", \"p50\": " << jsonNumber(h.p50())
               << ", \"p95\": " << jsonNumber(h.p95())
               << ", \"bins\": [";
            for (std::size_t i = 0; i < bins.size(); ++i)
                os << (i ? ", " : "") << bins[i];
            os << "]}";
            break;
          }
        }
    }
    os << "\n}\n";
}

Counter &
counter(const std::string &name, const std::string &desc)
{
    return Registry::instance().counter(name, desc);
}

Accumulator &
accumulator(const std::string &name, const std::string &desc)
{
    return Registry::instance().accumulator(name, desc);
}

Histogram &
histogram(const std::string &name, double lo, double hi,
          std::size_t num_bins, const std::string &desc)
{
    return Registry::instance().histogram(name, lo, hi, num_bins, desc);
}

std::int64_t
monotonicNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace otft::stats
