#include "util/stats_registry.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <sstream>
#include <variant>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace otft::stats {

std::size_t
detail::claimShard()
{
    static std::atomic<std::size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed) % shardCount;
}

std::uint64_t
Counter::value() const
{
    std::uint64_t total = 0;
    for (const Shard &s : shards_)
        total += s.value.load(std::memory_order_relaxed);
    return total;
}

void
Counter::reset()
{
    for (Shard &s : shards_)
        s.value.store(0, std::memory_order_relaxed);
}

void
Accumulator::Moments::merge(const Moments &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        // Start from the first non-empty shard, so a node one thread
        // fed reads back exactly the sum that thread added.
        *this = other;
        return;
    }
    if (other.min < min)
        min = other.min;
    if (other.max > max)
        max = other.max;
    count += other.count;
    sum += other.sum;
}

Accumulator::Moments
Accumulator::merged() const
{
    Moments total;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        total.merge(s.moments);
    }
    return total;
}

void
Accumulator::reset()
{
    for (Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.moments = Moments{};
    }
}

Histogram::Histogram(double lo, double hi, std::size_t num_bins)
    : lo_(lo), hi_(hi), numBins_(num_bins)
{
    if (num_bins == 0 || hi <= lo)
        fatal("Histogram: need num_bins >= 1 and hi > lo");
    for (Shard &s : shards_)
        s.lines.resize((num_bins + binsPerLine - 1) / binsPerLine);
}

void
Histogram::sample(double v)
{
    Shard &s = shards_[detail::shardSlot()];
    // A NaN fails both range tests, so it counts as overflow rather
    // than reaching the index cast.
    std::uint64_t *count = &s.overflow;
    if (v < lo_) {
        count = &s.underflow;
    } else if (v < hi_) {
        const double frac = (v - lo_) / (hi_ - lo_);
        auto idx = static_cast<std::size_t>(
            frac * static_cast<double>(numBins_));
        if (idx >= numBins_) // guard the v ~ hi_ rounding edge
            idx = numBins_ - 1;
        count = &s.lines[idx / binsPerLine].n[idx % binsPerLine];
    }
    std::lock_guard<std::mutex> lock(s.mutex);
    ++*count;
}

std::vector<std::uint64_t>
Histogram::binsSnapshot() const
{
    std::vector<std::uint64_t> bins(numBins_, 0);
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        for (std::size_t i = 0; i < numBins_; ++i)
            bins[i] += s.lines[i / binsPerLine].n[i % binsPerLine];
    }
    return bins;
}

std::uint64_t
Histogram::underflow() const
{
    std::uint64_t total = 0;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        total += s.underflow;
    }
    return total;
}

std::uint64_t
Histogram::overflow() const
{
    std::uint64_t total = 0;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        total += s.overflow;
    }
    return total;
}

std::uint64_t
Histogram::totalSamples() const
{
    std::uint64_t total = underflow() + overflow();
    for (std::uint64_t b : binsSnapshot())
        total += b;
    return total;
}

double
Histogram::percentile(double p) const
{
    const std::vector<std::uint64_t> bins = binsSnapshot();
    std::uint64_t n = 0;
    for (std::uint64_t b : bins)
        n += b;
    if (n == 0)
        return lo_;
    const double clamped = p < 0.0 ? 0.0 : (p > 100.0 ? 100.0 : p);
    const double target =
        clamped / 100.0 * static_cast<double>(n);
    const double width =
        (hi_ - lo_) / static_cast<double>(bins.size());
    double cum = 0.0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (bins[i] == 0)
            continue;
        const double next = cum + static_cast<double>(bins[i]);
        if (target <= next) {
            const double frac =
                (target - cum) / static_cast<double>(bins[i]);
            return lo_ + width * (static_cast<double>(i) + frac);
        }
        cum = next;
    }
    return hi_;
}

void
Histogram::reset()
{
    for (Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        std::fill(s.lines.begin(), s.lines.end(), BinLine{});
        s.underflow = 0;
        s.overflow = 0;
    }
}

/**
 * Registry node: its description and a payload of exactly one kind.
 * The payload's alternative index is the node's kind.
 */
struct Registry::Node
{
    using Payload =
        std::variant<std::unique_ptr<Counter>, std::unique_ptr<Accumulator>,
                     std::unique_ptr<Histogram>>;

    std::string desc;
    Payload payload;
};

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

namespace {

/** Kind names in the order of Registry::Node::Payload's alternatives. */
constexpr const char *kindNames[] = {"counter", "accumulator",
                                     "histogram"};

} // namespace

template <typename T, typename... Args>
T &
Registry::findOrCreate(const std::string &name, const std::string &desc,
                       Args &&...args)
{
    if (name.empty())
        fatal("stats: node name must not be empty");
    using Slot = std::unique_ptr<T>;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = nodes.find(name);
    if (it == nodes.end()) {
        auto node = std::make_unique<Node>();
        node->payload.template emplace<Slot>(
            std::make_unique<T>(std::forward<Args>(args)...));
        it = nodes.emplace(name, std::move(node)).first;
    }
    Node &node = *it->second;
    Slot *slot = std::get_if<Slot>(&node.payload);
    if (slot == nullptr)
        fatal("stats: node '", name, "' registered as ",
              kindNames[node.payload.index()], ", requested as ",
              kindNames[Node::Payload(std::in_place_type<Slot>).index()]);
    if (node.desc.empty() && !desc.empty())
        node.desc = desc;
    return **slot;
}

Counter &
Registry::counter(const std::string &name, const std::string &desc)
{
    return findOrCreate<Counter>(name, desc);
}

Accumulator &
Registry::accumulator(const std::string &name, const std::string &desc)
{
    return findOrCreate<Accumulator>(name, desc);
}

Histogram &
Registry::histogram(const std::string &name, double lo, double hi,
                    std::size_t num_bins, const std::string &desc)
{
    return findOrCreate<Histogram>(name, desc, lo, hi, num_bins);
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
        if (const auto *c = std::get_if<std::unique_ptr<Counter>>(
                &node->payload))
            values[name] = (*c)->value();
    return values;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, node] : nodes)
        std::visit([](auto &payload) { payload->reset(); },
                   node->payload);
}

namespace {

/** One callable per payload kind, for std::visit. */
template <typename... Fs>
struct Overloaded : Fs...
{
    using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

bool
nodeIsEmpty(const Registry::Node &node)
{
    return std::visit(
        Overloaded{
            [](const std::unique_ptr<Counter> &c) { return c->value() == 0; },
            [](const std::unique_ptr<Accumulator> &a) {
                return a->count() == 0;
            },
            [](const std::unique_ptr<Histogram> &h) {
                return h->totalSamples() == 0;
            }},
        node.payload);
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
        std::visit(
            Overloaded{
                [&](const std::unique_ptr<Counter> &c) {
                    value << c->value();
                },
                [&](const std::unique_ptr<Accumulator> &a) {
                    value << "n=" << a->count()
                          << " sum=" << formatNumber(a->sum())
                          << " mean=" << formatNumber(a->mean())
                          << " min=" << formatNumber(a->min())
                          << " max=" << formatNumber(a->max());
                },
                [&](const std::unique_ptr<Histogram> &h) {
                    const auto bins = h->binsSnapshot();
                    value << "n=" << h->totalSamples() << " [";
                    for (std::size_t i = 0; i < bins.size(); ++i)
                        value << (i ? " " : "") << bins[i];
                    value << "] under=" << h->underflow()
                          << " over=" << h->overflow()
                          << " p50=" << formatNumber(h->p50())
                          << " p95=" << formatNumber(h->p95());
                }},
            node->payload);
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
        std::visit(
            Overloaded{
                [&](const std::unique_ptr<Counter> &c) { os << c->value(); },
                [&](const std::unique_ptr<Accumulator> &a) {
                    os << "{\"count\": " << a->count()
                       << ", \"sum\": " << json::number(a->sum())
                       << ", \"min\": " << json::number(a->min())
                       << ", \"max\": " << json::number(a->max())
                       << ", \"mean\": " << json::number(a->mean()) << "}";
                },
                [&](const std::unique_ptr<Histogram> &h) {
                    const auto bins = h->binsSnapshot();
                    os << "{\"lo\": " << json::number(h->lo())
                       << ", \"hi\": " << json::number(h->hi())
                       << ", \"underflow\": " << h->underflow()
                       << ", \"overflow\": " << h->overflow()
                       << ", \"p50\": " << json::number(h->p50())
                       << ", \"p95\": " << json::number(h->p95())
                       << ", \"bins\": [";
                    for (std::size_t i = 0; i < bins.size(); ++i)
                        os << (i ? ", " : "") << bins[i];
                    os << "]}";
                }},
            node->payload);
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
