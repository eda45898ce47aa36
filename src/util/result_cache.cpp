#include "util/result_cache.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::cache {

namespace {

/** Schema tag of the persisted cache file. */
constexpr const char *cacheSchema = "otft-result-cache-2";
constexpr const char *cacheFileName = "result_cache.json";

stats::Counter &
statHits()
{
    static stats::Counter &c =
        stats::counter("cache.hits", "result-cache lookups that hit");
    return c;
}

stats::Counter &
statMisses()
{
    static stats::Counter &c = stats::counter(
        "cache.misses", "result-cache lookups that missed");
    return c;
}

stats::Counter &
statEvictions()
{
    static stats::Counter &c = stats::counter(
        "cache.evictions", "result-cache entries evicted (LRU)");
    return c;
}

std::string
compositeKey(const std::string &domain, std::uint64_t key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    return domain + ":" + hex;
}

} // namespace

KeyHasher &
KeyHasher::add(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        state ^= bytes[i];
        state *= 1099511628211ull; // FNV prime
    }
    return *this;
}

KeyHasher &
KeyHasher::add(double v)
{
    if (v == 0.0)
        v = 0.0; // collapse -0.0 and +0.0 to one key
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return add(&bits, sizeof(bits));
}

KeyHasher &
KeyHasher::add(std::uint64_t v)
{
    return add(&v, sizeof(v));
}

KeyHasher &
KeyHasher::add(std::int64_t v)
{
    return add(&v, sizeof(v));
}

KeyHasher &
KeyHasher::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    return add(s.data(), s.size());
}

KeyHasher &
KeyHasher::add(const std::vector<double> &vs)
{
    add(static_cast<std::uint64_t>(vs.size()));
    for (double v : vs)
        add(v);
    return *this;
}

ResultCache::ResultCache() = default;

ResultCache &
ResultCache::instance()
{
    static ResultCache cache;
    return cache;
}

void
ResultCache::setEnabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = enabled;
}

bool
ResultCache::enabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return enabled_;
}

void
ResultCache::setDirectory(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    dir_ = dir;
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("result_cache: cannot create cache dir '", dir_,
              "': ", ec.message());
    // Entries already in memory are not in this file (or not only),
    // so a load that lands on them leaves the cache dirty.
    const bool had_entries = !entries.empty();
    dirty_ = !loadLocked() || had_entries;
}

const std::string &
ResultCache::directory() const
{
    // dir_ only changes under the lock, but returning a reference is
    // safe: configuration happens once at session start.
    return dir_;
}

bool
ResultCache::lookup(const std::string &domain, std::uint64_t key,
                    std::vector<double> &out)
{
    OTFT_TRACE_SCOPE("cache.lookup");
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) {
        ++statMisses();
        trace::recordInstant("cache.miss");
        return false;
    }
    const auto it = entries.find(compositeKey(domain, key));
    if (it == entries.end()) {
        ++statMisses();
        trace::recordInstant("cache.miss");
        return false;
    }
    // Refresh LRU position.
    lru.splice(lru.begin(), lru, it->second.lruPos);
    out = it->second.values;
    ++statHits();
    trace::recordInstant("cache.hit");
    return true;
}

void
ResultCache::store(const std::string &domain, std::uint64_t key,
                   std::vector<double> values)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_)
        return;
    const std::string composite = compositeKey(domain, key);
    const auto it = entries.find(composite);
    if (it != entries.end()) {
        // Deterministic producers always store the same payload;
        // overwrite keeps the cache correct even if a producer is
        // versioned without a salt bump. Only a bitwise change makes
        // the file stale.
        std::vector<double> &old = it->second.values;
        if (old.size() != values.size() ||
            std::memcmp(old.data(), values.data(),
                        values.size() * sizeof(double)) != 0) {
            old = std::move(values);
            dirty_ = true;
        }
        lru.splice(lru.begin(), lru, it->second.lruPos);
        return;
    }
    lru.push_front(composite);
    entries.emplace(composite,
                    Entry{std::move(values), lru.begin()});
    dirty_ = true;
    evictLocked();
}

bool
ResultCache::evictLocked()
{
    const bool evicting = entries.size() > capacity;
    while (entries.size() > capacity) {
        entries.erase(lru.back());
        lru.pop_back();
        ++statEvictions();
        trace::recordInstant("cache.evict");
    }
    return evicting;
}

bool
ResultCache::loadLocked()
{
    const std::string path =
        (std::filesystem::path(dir_) / cacheFileName).string();
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return true; // no persisted cache yet
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());

    // A mangled cache file must never abort a run: the cache is an
    // optimization, so parse failures log and behave as a miss.
    json::Value doc;
    try {
        doc = json::parse(text);
    } catch (const FatalError &e) {
        warn("result_cache: ignoring corrupt ", path, " (", e.what(),
             ")");
        return false;
    }
    try {
        if (!doc.isObject() ||
            doc.string("schema") != cacheSchema) {
            warn("result_cache: ignoring ", path,
                 " (unrecognized schema)");
            return false;
        }
        if (!doc.has("entries"))
            return false;
        std::size_t loaded = 0;
        bool complete = true;
        for (const auto &[composite, value] :
             doc.at("entries").asObject()) {
            // Skip malformed entries, keep the rest.
            if (!value.isArray()) {
                complete = false;
                continue;
            }
            const auto &items = value.asArray();
            std::vector<double> values;
            values.reserve(items.size());
            for (const auto &item : items) {
                if (!item.isNumber())
                    break;
                values.push_back(item.asNumber());
            }
            if (values.size() != items.size()) {
                complete = false;
                continue;
            }
            const auto [it, inserted] =
                entries.emplace(composite, Entry{std::move(values), {}});
            if (!inserted)
                continue; // memory already holds this key
            lru.push_front(composite);
            it->second.lruPos = lru.begin();
            ++loaded;
        }
        if (evictLocked())
            complete = false;
        static stats::Counter &stat_loaded = stats::counter(
            "cache.disk_loaded", "result-cache entries loaded from disk");
        stat_loaded += loaded;
        inform("result_cache: loaded ", loaded, " entries from ", path);
        return complete;
    } catch (const FatalError &e) {
        warn("result_cache: ignoring malformed ", path, " (", e.what(),
             ")");
        return false;
    }
}

void
ResultCache::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dir_.empty() || !dirty_)
        return;
    const std::string path =
        (std::filesystem::path(dir_) / cacheFileName).string();
    // Write a per-process sibling and rename it over the target: the
    // rename is atomic, so a reader (or a sibling binary sharing the
    // directory) sees either the old file or the new one, never a
    // truncated or interleaved mix.
    const std::string tmp_path =
        path + ".tmp." + std::to_string(::getpid());
    std::ofstream os(tmp_path);
    if (!os) {
        warn("result_cache: cannot write ", tmp_path);
        return;
    }
    os << "{\"schema\": \"" << cacheSchema << "\", \"entries\": {";
    std::size_t written = 0;
    for (const auto &[composite, entry] : entries) {
        // Non-finite payloads have no JSON spelling; keep them
        // in-memory only rather than corrupting the file.
        bool finite = true;
        for (double v : entry.values)
            finite = finite && std::isfinite(v);
        if (!finite)
            continue;
        os << (written++ ? ", " : "") << "\"" << json::escape(composite)
           << "\": [";
        // json::number round-trips binary64 exactly, preserving the
        // bit-identical determinism contract across persistence.
        for (std::size_t i = 0; i < entry.values.size(); ++i)
            os << (i ? ", " : "") << json::number(entry.values[i]);
        os << "]";
    }
    os << "}}\n";
    os.close();
    std::error_code ec;
    if (!os) {
        warn("result_cache: short write to ", tmp_path);
        std::filesystem::remove(tmp_path, ec);
        return;
    }
    std::filesystem::rename(tmp_path, path, ec);
    if (ec) {
        warn("result_cache: cannot replace ", path, ": ", ec.message());
        std::filesystem::remove(tmp_path, ec);
        return;
    }
    dirty_ = false;
    inform("result_cache: persisted ", written, " entries to ", path);
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries.clear();
    lru.clear();
    dirty_ = true;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries.size();
}

EnabledOverride::EnabledOverride(bool enabled)
    : prev(ResultCache::instance().enabled())
{
    ResultCache::instance().setEnabled(enabled);
}

EnabledOverride::~EnabledOverride()
{
    ResultCache::instance().setEnabled(prev);
}

bool
lookup(const std::string &domain, std::uint64_t key,
       std::vector<double> &out)
{
    return ResultCache::instance().lookup(domain, key, out);
}

void
store(const std::string &domain, std::uint64_t key,
      std::vector<double> values)
{
    ResultCache::instance().store(domain, key, std::move(values));
}

} // namespace otft::cache
