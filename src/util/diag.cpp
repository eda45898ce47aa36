#include "util/diag.hpp"

#include <algorithm>
#include <filesystem>
#include <ostream>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::diag {

namespace {

/** The calling thread's context label. */
thread_local std::string t_context;

} // namespace

Collector &
Collector::instance()
{
    static Collector collector;
    return collector;
}

void
Collector::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
    if (!enabled)
        dumps_.store(false, std::memory_order_relaxed);
}

void
Collector::setDumpDirectory(const std::string &dir)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dumpDir_ = dir;
    }
    if (dir.empty()) {
        dumps_.store(false, std::memory_order_relaxed);
        return;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("diag: cannot create dump dir '", dir, "': ",
              ec.message());
    enabled_.store(true, std::memory_order_relaxed);
    dumps_.store(true, std::memory_order_relaxed);
}

std::string
Collector::dumpDirectory() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dumpDir_;
}

void
Collector::setMaxDumps(std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maxDumps_ = n;
}

void
Collector::add(const std::string &context, const char *name,
               std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    contexts_[context][name] += n;
}

bool
Collector::recordDump(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dumpPaths_.size() >= maxDumps_) {
        ++dumpsSkipped_;
        return false;
    }
    // Content-addressed dumps dedupe: the same failure registers once.
    if (std::find(dumpPaths_.begin(), dumpPaths_.end(), path) ==
        dumpPaths_.end())
        dumpPaths_.push_back(path);
    return true;
}

std::vector<std::string>
Collector::dumpPaths() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dumpPaths_;
}

Collector::Breakdown
Collector::breakdown() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return contexts_;
}

void
Collector::dumpJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n  \"schema\": \"" << diagSchema << "\",\n";

    os << "  \"contexts\": {";
    bool first = true;
    for (const auto &[context, counts] : contexts_) {
        os << (first ? "\n" : ",\n") << "    \""
           << json::escape(context.empty() ? "(unlabeled)" : context)
           << "\": {";
        bool first_count = true;
        for (const auto &[name, n] : counts) {
            os << (first_count ? "" : ", ") << "\""
               << json::escape(name) << "\": " << n;
            first_count = false;
        }
        os << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"dumps_skipped\": " << dumpsSkipped_ << ",\n";
    os << "  \"dumps\": [";
    for (std::size_t i = 0; i < dumpPaths_.size(); ++i)
        os << (i ? ", " : "") << "\"" << json::escape(dumpPaths_[i])
           << "\"";
    os << "]\n}\n";
}

void
Collector::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    contexts_.clear();
    dumpPaths_.clear();
    dumpsSkipped_ = 0;
}

Counter::Counter(const char *name, const char *description)
    : name_(name), counter_(stats::counter(name, description))
{
}

void
Counter::add(std::uint64_t n) const
{
    if (n == 0)
        return;
    counter_ += n;
    Collector &c = Collector::instance();
    if (c.enabled())
        c.add(t_context, name_, n);
}

const std::string &
context()
{
    return t_context;
}

namespace detail {

std::size_t
enterContext(const std::string &label)
{
    const std::size_t length = t_context.size();
    if (length != 0)
        t_context += '/';
    t_context += label;
    return length;
}

void
leaveContext(std::size_t length)
{
    t_context.resize(length);
}

} // namespace detail

} // namespace otft::diag
