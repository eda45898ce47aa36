/**
 * @file
 * Content-addressed result cache for deterministic physics results.
 *
 * Characterization and exploration sweeps repeat identical work: the
 * fig11-fig15 benches share cells across design points, and perf reps
 * and warm re-runs re-measure the same arc points. Results are pure
 * functions of their inputs, so they are memoized here under a
 * content hash of everything that can change the answer (netlist
 * canonical form, device-model parameters, solver configuration,
 * stimulus parameters).
 *
 * Determinism contract: cached payloads are the exact doubles a cold
 * computation produced (in memory verbatim; on disk via %.17g, which
 * round-trips binary64 exactly). Callers use a hit *as* the result,
 * never as an iteration seed, so cache-warm output is bit-identical
 * to cache-cold output and immune to which parallel task computed the
 * entry first.
 *
 * Thread safety: all public methods lock one internal mutex; the
 * cache is shared freely across the util/parallel worker pool.
 *
 * Persistence: in-memory LRU always; optionally backed by a JSON file
 * (`<dir>/result_cache.json`) loaded at setDirectory() and written by
 * flush() when memory no longer matches it. cli::Session wires
 * `--cache-dir` to this and flushes on exit, so a
 * fully warm run writes nothing. Corrupt or truncated cache files are
 * never fatal: parse failures warn and behave as a miss.
 */

#ifndef OTFT_UTIL_RESULT_CACHE_HPP
#define OTFT_UTIL_RESULT_CACHE_HPP

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace otft::cache {

/**
 * FNV-1a 64-bit streaming hasher for cache keys. Doubles are hashed
 * by bit pattern (after normalizing -0.0 to +0.0), strings with a
 * length prefix so concatenations cannot collide, and every key
 * should start with a versioned salt ("arcpoint-v4") so a change in
 * the producing algorithm retires stale entries.
 */
class KeyHasher
{
  public:
    KeyHasher &add(const void *data, std::size_t len);
    KeyHasher &add(double v);
    KeyHasher &add(std::uint64_t v);
    KeyHasher &add(std::int64_t v);
    KeyHasher &add(int v) { return add(static_cast<std::int64_t>(v)); }
    KeyHasher &add(bool v) { return add(static_cast<std::int64_t>(v)); }
    KeyHasher &add(const std::string &s);
    KeyHasher &add(const char *s) { return add(std::string(s)); }
    KeyHasher &add(const std::vector<double> &vs);

    /** The accumulated 64-bit digest. */
    std::uint64_t digest() const { return state; }

  private:
    std::uint64_t state = 1469598103934665603ull; // FNV offset basis
};

/** The process-wide content-addressed cache. */
class ResultCache
{
  public:
    static ResultCache &instance();

    /** Maximum in-memory entries before LRU eviction. */
    static constexpr std::size_t capacity = 65536;

    /**
     * Master enable of this cache: arc points, design-point timing
     * and IPC (cli::Session maps `OTFT_CACHE=0` here). The
     * in-process `Memo` tables (block netlists, the
     * synthesizer's block and timing tables, the explorer's
     * front-end streams) are not behind it. Disabled, lookup()
     * always misses and store() is a no-op (existing entries are
     * retained for re-enabling).
     */
    void setEnabled(bool enabled);
    bool enabled() const;

    /**
     * Enable disk persistence under `dir` (created if missing; fatal
     * only when creation fails — that is a user-configuration error).
     * Loads `dir/result_cache.json` immediately; a corrupt, truncated,
     * or schema-mismatched file warns and is treated as empty. An
     * empty dir disables persistence.
     *
     * The cache is clean afterwards only when memory now matches the
     * file exactly: it was empty before the load, and the load
     * skipped no malformed entry and evicted nothing. Otherwise (a
     * bad file, or entries stored before this call) the next flush()
     * writes.
     */
    void setDirectory(const std::string &dir);
    const std::string &directory() const;

    /**
     * Look up `domain` + `key`. On hit the payload is copied into
     * `out` and the entry is refreshed in LRU order.
     */
    bool lookup(const std::string &domain, std::uint64_t key,
                std::vector<double> &out);

    /** Insert (or overwrite) an entry. */
    void store(const std::string &domain, std::uint64_t key,
               std::vector<double> values);

    /**
     * Write the current entries to `dir/result_cache.json` when a
     * directory is configured and the cache is dirty; otherwise a
     * no-op. The cache is dirty when its entries differ from the file
     * it last loaded or wrote: after a store of a new key or of a
     * bitwise-different payload, after clear(), and after a load that
     * did not reproduce the file exactly (see setDirectory()). A
     * clean flush leaves the file untouched, so a warm sibling sharing
     * the directory never replaces a newer file with its older copy.
     *
     * The file is written to a temporary sibling and renamed over the
     * target, so a killed run or a concurrent flush never leaves a
     * truncated file. Write failures warn, leave the previous file
     * intact and the cache dirty (never fatal: persistence is an
     * optimization).
     */
    void flush();

    /** Drop every entry (configuration is retained). */
    void clear();

    /** Current entry count. */
    std::size_t size() const;

  private:
    ResultCache();

    struct Entry
    {
        std::vector<double> values;
        std::list<std::string>::iterator lruPos;
    };

    /** @return whether anything was evicted. */
    bool evictLocked();
    /**
     * Load dir_'s file into memory. @return true when every entry of
     * the file (or no file) was loaded and nothing evicted.
     */
    bool loadLocked();

    mutable std::mutex mutex_;
    bool enabled_ = true;
    /** Memory differs from the file last loaded or written. */
    bool dirty_ = false;
    std::string dir_;
    /** Most-recently-used keys at the front. */
    std::list<std::string> lru;
    std::unordered_map<std::string, Entry> entries;
};

/**
 * RAII scope that sets the process-wide enable and restores the
 * previous setting on exit (tests, benches).
 */
class EnabledOverride
{
  public:
    explicit EnabledOverride(bool enabled);
    ~EnabledOverride();

    EnabledOverride(const EnabledOverride &) = delete;
    EnabledOverride &operator=(const EnabledOverride &) = delete;

  private:
    bool prev;
};

/** Shorthand accessors on the process-wide instance. */
bool lookup(const std::string &domain, std::uint64_t key,
            std::vector<double> &out);
void store(const std::string &domain, std::uint64_t key,
           std::vector<double> values);

} // namespace otft::cache

#endif // OTFT_UTIL_RESULT_CACHE_HPP
