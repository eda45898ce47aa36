#include "util/diag.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <ostream>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/stats_registry.hpp"

namespace otft::diag {

namespace {

/** The calling thread's context label. */
thread_local std::string t_context;

/** JSON number with the registry's non-finite policy (emit 0). */
void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << 0;
        return;
    }
    const auto precision = os.precision(17);
    os << v;
    os.precision(precision);
}

} // namespace

const char *
toString(SolveKind kind)
{
    return kind == SolveKind::Dc ? "dc" : "transient_step";
}

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
Collector::setAttribute(const std::string &key, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    attributes_[key] = value;
}

std::map<std::string, double>
Collector::attributes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attributes_;
}

void
Collector::recordSolve(const std::string &context, SolveKind kind,
                       bool converged, int iterations,
                       int chord_iterations, int jacobian_refreshes,
                       int singular_recoveries, double final_residual)
{
    (void)kind;
    std::lock_guard<std::mutex> lock(mutex_);
    ContextStats &s = contexts_[context];
    ++s.solves;
    if (!converged) {
        ++s.failures;
        if (std::isfinite(final_residual))
            s.worstFinalResidual =
                std::max(s.worstFinalResidual, final_residual);
        else
            s.worstFinalResidual =
                std::numeric_limits<double>::infinity();
    } else {
        s.maxIterations = std::max(s.maxIterations, iterations);
    }
    s.iterations += static_cast<std::uint64_t>(iterations);
    s.chordIterations += static_cast<std::uint64_t>(chord_iterations);
    s.jacobianRefreshes +=
        static_cast<std::uint64_t>(jacobian_refreshes);
    s.singularRecoveries +=
        static_cast<std::uint64_t>(singular_recoveries);
}

void
Collector::recordEvent(const std::string &context, Event event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ContextStats &s = contexts_[context];
    switch (event) {
      case Event::StepAccept:
        ++s.stepAccepts;
        break;
      case Event::StepReject:
        ++s.stepRejects;
        break;
      case Event::NewtonRetry:
        ++s.newtonRetries;
        break;
      case Event::SourceStepping:
        ++s.sourceStepping;
        break;
      case Event::GminStepping:
        ++s.gminStepping;
        break;
    }
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

ContextStats
Collector::contextStats(const std::string &context) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = contexts_.find(context);
    return it != contexts_.end() ? it->second : ContextStats{};
}

std::size_t
Collector::contextCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return contexts_.size();
}

void
Collector::dumpJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n  \"schema\": \"" << diagSchema << "\",\n";

    os << "  \"attributes\": {";
    bool first = true;
    for (const auto &[key, value] : attributes_) {
        os << (first ? "" : ", ") << "\"" << json::escape(key)
           << "\": ";
        writeNumber(os, value);
        first = false;
    }
    os << "},\n";

    os << "  \"contexts\": {";
    first = true;
    for (const auto &[name, s] : contexts_) {
        os << (first ? "\n" : ",\n") << "    \""
           << json::escape(name.empty() ? "(unlabeled)" : name)
           << "\": {"
           << "\"solves\": " << s.solves
           << ", \"failures\": " << s.failures
           << ", \"iterations\": " << s.iterations
           << ", \"chord_iterations\": " << s.chordIterations
           << ", \"jacobian_refreshes\": " << s.jacobianRefreshes
           << ", \"singular_recoveries\": " << s.singularRecoveries
           << ", \"step_accepts\": " << s.stepAccepts
           << ", \"step_rejects\": " << s.stepRejects
           << ", \"newton_retries\": " << s.newtonRetries
           << ", \"source_stepping\": " << s.sourceStepping
           << ", \"gmin_stepping\": " << s.gminStepping
           << ", \"max_iterations\": " << s.maxIterations
           << ", \"worst_final_residual\": ";
        writeNumber(os, s.worstFinalResidual);
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
    attributes_.clear();
    dumpsSkipped_ = 0;
}

void
recordEvent(Event event)
{
    Collector &c = Collector::instance();
    if (!c.enabled())
        return;
    c.recordEvent(t_context, event);
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

SolveProbe::SolveProbe(SolveKind kind)
    : kind_(kind)
{
    Collector &c = Collector::instance();
    active_ = c.enabled();
    if (!active_)
        return;
    dumps_ = c.dumpsEnabled();
    context_ = t_context;
    ring_.reserve(8);
}

SolveProbe::~SolveProbe()
{
    if (active_ && !closed_)
        finish(false);
}

void
SolveProbe::iteration(int iter, double residual_norm,
                      double max_update, bool chord)
{
    if (!active_)
        return;
    ++iterations_;
    if (chord)
        ++chordIterations_;
    finalResidual_ = residual_norm;
    const IterationSample sample{iter, residual_norm, max_update,
                                 chord};
    if (ring_.size() < ringCapacity) {
        ring_.push_back(sample);
    } else {
        ring_[ringNext_] = sample;
        ringNext_ = (ringNext_ + 1) % ringCapacity;
    }
}

void
SolveProbe::finish(bool converged)
{
    if (!active_ || closed_)
        return;
    closed_ = true;
    Collector::instance().recordSolve(
        context_, kind_, converged, iterations_, chordIterations_,
        refreshes_, recoveries_, finalResidual_);

    static stats::Counter &stat_failed_solves = stats::counter(
        "diag.solves_failed",
        "solves closed as failed while diagnostics were enabled");
    if (!converged)
        ++stat_failed_solves;
}

std::vector<IterationSample>
SolveProbe::trace() const
{
    std::vector<IterationSample> out;
    out.reserve(ring_.size());
    if (ring_.size() < ringCapacity) {
        out = ring_;
    } else {
        for (std::size_t i = 0; i < ring_.size(); ++i)
            out.push_back(ring_[(ringNext_ + i) % ring_.size()]);
    }
    return out;
}

} // namespace otft::diag
