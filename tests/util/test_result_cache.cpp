/**
 * @file
 * Unit tests for the content-addressed result cache: key hashing,
 * LRU behavior, enable/disable semantics, JSON persistence
 * round-trips, and resilience against mangled cache files.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/result_cache.hpp"
#include "util/stats_registry.hpp"
#include "util/trace.hpp"

namespace otft::cache {
namespace {

/**
 * The cache under test is the process-wide singleton; each fixture
 * run starts from a clean, memory-only configuration and restores it
 * afterwards so the other test_util suites never see leftovers.
 */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto &c = ResultCache::instance();
        c.setEnabled(true);
        c.clear();
    }

    void
    TearDown() override
    {
        auto &c = ResultCache::instance();
        c.setDirectory("");
        c.setEnabled(true);
        c.clear();
        if (!tempDir.empty())
            std::filesystem::remove_all(tempDir);
    }

    /** A fresh per-test scratch directory. */
    std::string
    makeTempDir(const std::string &tag)
    {
        const auto dir = std::filesystem::temp_directory_path() /
                         ("otft_cache_test_" + tag);
        std::filesystem::remove_all(dir);
        tempDir = dir.string();
        return tempDir;
    }

    std::string tempDir;
};

/** Whole-file contents, byte for byte. */
std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

TEST_F(ResultCacheTest, KeyHasherSeparatesInputs)
{
    const auto digest_of = [](auto &&fill) {
        KeyHasher h;
        fill(h);
        return h.digest();
    };
    const std::uint64_t a =
        digest_of([](KeyHasher &h) { h.add("salt").add(1.0); });
    const std::uint64_t b =
        digest_of([](KeyHasher &h) { h.add("salt").add(2.0); });
    const std::uint64_t c =
        digest_of([](KeyHasher &h) { h.add("tlas").add(1.0); });
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(b, c);

    // Same content, same digest.
    EXPECT_EQ(digest_of([](KeyHasher &h) { h.add("salt").add(1.0); }),
              a);
}

TEST_F(ResultCacheTest, KeyHasherNormalizesNegativeZero)
{
    KeyHasher pos, neg;
    pos.add(0.0);
    neg.add(-0.0);
    EXPECT_EQ(pos.digest(), neg.digest());
}

TEST_F(ResultCacheTest, KeyHasherLengthPrefixPreventsSplicing)
{
    // "ab" + "c" must not collide with "a" + "bc".
    KeyHasher split_a, split_b;
    split_a.add("ab").add("c");
    split_b.add("a").add("bc");
    EXPECT_NE(split_a.digest(), split_b.digest());

    // Vector boundaries are prefixed the same way.
    KeyHasher vec_a, vec_b;
    vec_a.add(std::vector<double>{1.0, 2.0}).add(
        std::vector<double>{3.0});
    vec_b.add(std::vector<double>{1.0}).add(
        std::vector<double>{2.0, 3.0});
    EXPECT_NE(vec_a.digest(), vec_b.digest());
}

TEST_F(ResultCacheTest, StoreThenLookupRoundTrips)
{
    auto &c = ResultCache::instance();
    const std::vector<double> payload = {1.5, -2.25, 3.0e-300};
    c.store("test.domain", 42, payload);

    std::vector<double> out;
    ASSERT_TRUE(c.lookup("test.domain", 42, out));
    EXPECT_EQ(out, payload);

    // Different key or domain: miss.
    EXPECT_FALSE(c.lookup("test.domain", 43, out));
    EXPECT_FALSE(c.lookup("other.domain", 42, out));
}

TEST_F(ResultCacheTest, StoreOverwritesExistingEntry)
{
    auto &c = ResultCache::instance();
    c.store("test.domain", 7, {1.0});
    c.store("test.domain", 7, {2.0});
    EXPECT_EQ(c.size(), 1u);
    std::vector<double> out;
    ASSERT_TRUE(c.lookup("test.domain", 7, out));
    EXPECT_EQ(out, std::vector<double>({2.0}));
}

TEST_F(ResultCacheTest, LruEvictsOldestAtCapacity)
{
    auto &c = ResultCache::instance();
    constexpr std::uint64_t capacity = ResultCache::capacity;
    for (std::uint64_t k = 1; k <= capacity; ++k)
        c.store("d", k, {static_cast<double>(k)});
    EXPECT_EQ(c.size(), capacity);

    // Touch key 1 so key 2 becomes the LRU victim.
    std::vector<double> out;
    ASSERT_TRUE(c.lookup("d", 1, out));
    c.store("d", capacity + 1, {0.0});

    EXPECT_EQ(c.size(), capacity);
    EXPECT_TRUE(c.lookup("d", 1, out));
    EXPECT_FALSE(c.lookup("d", 2, out));
    EXPECT_TRUE(c.lookup("d", 3, out));
    EXPECT_TRUE(c.lookup("d", capacity, out));
    EXPECT_TRUE(c.lookup("d", capacity + 1, out));
}

TEST_F(ResultCacheTest, DisabledCacheMissesAndDropsStores)
{
    auto &c = ResultCache::instance();
    c.store("d", 1, {1.0});
    c.setEnabled(false);

    std::vector<double> out;
    EXPECT_FALSE(c.lookup("d", 1, out));
    c.store("d", 2, {2.0});

    // Entries stored while enabled survive a disable/enable cycle.
    c.setEnabled(true);
    EXPECT_TRUE(c.lookup("d", 1, out));
    EXPECT_FALSE(c.lookup("d", 2, out));
}

TEST_F(ResultCacheTest, PersistenceRoundTripsExactBits)
{
    const std::string dir = makeTempDir("roundtrip");
    auto &c = ResultCache::instance();
    c.setDirectory(dir);

    // Values chosen to stress %.17g round-tripping.
    const std::vector<double> payload = {
        0.1, 1.0 / 3.0, 6.02214076e23, -2.2250738585072014e-308};
    c.store("liberty.arcpoint", 0xdeadbeefull, payload);
    c.flush();

    // Reload into a cold cache.
    c.clear();
    c.setDirectory(dir);
    std::vector<double> out;
    ASSERT_TRUE(c.lookup("liberty.arcpoint", 0xdeadbeefull, out));
    ASSERT_EQ(out.size(), payload.size());
    for (std::size_t i = 0; i < payload.size(); ++i)
        EXPECT_EQ(out[i], payload[i]) << "index " << i;
}

TEST_F(ResultCacheTest, FlushLeavesOnlyTheCacheFile)
{
    const std::string dir = makeTempDir("flush_clean");
    auto &c = ResultCache::instance();
    c.setDirectory(dir);
    c.store("d", 1, {1.0});
    c.flush();
    c.store("d", 2, {2.0});
    c.flush();

    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>({"result_cache.json"}));
}

TEST_F(ResultCacheTest, FailedFlushKeepsThePreviousFile)
{
    const std::string dir = makeTempDir("flush_fail");
    const std::string path = dir + "/result_cache.json";
    auto &c = ResultCache::instance();
    c.setDirectory(dir);
    c.store("d", 1, {1.0});
    c.flush();
    const std::string before = readFile(path);
    ASSERT_NE(before.find("d:0000000000000001"), std::string::npos);

    // A directory on the temporary file's path makes the write fail,
    // whatever the permissions of the user running the test.
    const std::string tmp_path =
        path + ".tmp." + std::to_string(::getpid());
    std::filesystem::create_directories(tmp_path);

    stats::Counter &warnings = stats::counter("log.warnings");
    const std::uint64_t warned = warnings.value();
    c.store("d", 2, {2.0});
    c.flush();
    EXPECT_GT(warnings.value(), warned);
    EXPECT_EQ(readFile(path), before);
    EXPECT_TRUE(std::filesystem::is_directory(tmp_path));
}

TEST_F(ResultCacheTest, CorruptCacheFilesAreIgnoredNotFatal)
{
    const std::string dir = makeTempDir("corrupt");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/result_cache.json";

    // Fuzz-ish set of mangled files: none may throw, all must leave
    // the cache empty and usable.
    const char *variants[] = {
        "",                                       // empty file
        "{",                                      // truncated object
        "not json at all",                        // garbage
        "[1, 2, 3]",                              // wrong top type
        "{\"schema\": \"something-else\"}",       // wrong schema
        "{\"schema\": \"otft-result-cache-2\", "
        "\"entries\": {\"d:0\": [1.0, ",          // truncated entry
        "{\"schema\": \"otft-result-cache-2\", "
        "\"entries\": {\"d:0\": \"oops\"}}",      // non-array payload
        "{\"schema\": \"otft-result-cache-2\", "
        "\"entries\": {\"d:0\": [true, null]}}",  // non-numeric items
        "{\"schema\": \"otft-result-cache-1\", "   // previous schema
        "\"entries\": {\"d:0000000000000001\": [1.5]}}",
    };
    auto &c = ResultCache::instance();
    for (const char *text : variants) {
        {
            std::ofstream os(path);
            os << text;
        }
        c.setDirectory("");
        c.clear();
        EXPECT_NO_THROW(c.setDirectory(dir)) << "input: " << text;
        EXPECT_EQ(c.size(), 0u) << "input: " << text;

        // The cache must stay fully usable afterwards.
        c.store("d", 9, {9.0});
        std::vector<double> out;
        EXPECT_TRUE(c.lookup("d", 9, out));
        c.clear();
    }
}

TEST_F(ResultCacheTest, MalformedEntriesSkippedGoodOnesKept)
{
    const std::string dir = makeTempDir("partial");
    std::filesystem::create_directories(dir);
    {
        std::ofstream os(dir + "/result_cache.json");
        os << "{\"schema\": \"otft-result-cache-2\", \"entries\": {"
           << "\"d:0000000000000001\": [1.5], "
           << "\"d:0000000000000002\": \"bad\", "
           << "\"d:0000000000000003\": [3.5, 4.5]}}";
    }
    auto &c = ResultCache::instance();
    c.setDirectory(dir);
    EXPECT_EQ(c.size(), 2u);
    std::vector<double> out;
    EXPECT_TRUE(c.lookup("d", 1, out));
    EXPECT_EQ(out, std::vector<double>({1.5}));
    EXPECT_FALSE(c.lookup("d", 2, out));
    EXPECT_TRUE(c.lookup("d", 3, out));
    EXPECT_EQ(out, std::vector<double>({3.5, 4.5}));
}

/** Write `text` as the cache file, as a sibling process would. */
void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    os << text;
}

/** A valid cache file holding the given `key: [values]` members. */
std::string
cacheFileText(const std::string &members)
{
    return "{\"schema\": \"otft-result-cache-2\", \"entries\": {" +
           members + "}}\n";
}

TEST_F(ResultCacheTest, WarmRunLeavesTheFileUntouched)
{
    const std::string dir = makeTempDir("warm");
    const std::string path = dir + "/result_cache.json";
    auto &c = ResultCache::instance();
    c.setDirectory(dir);
    c.store("d", 1, {1.5});
    c.store("d", 2, {2.5, 3.5});
    c.flush();
    const std::string written = readFile(path);

    // Backdate the file so a rewrite would show in its mtime.
    const auto old_time = std::filesystem::last_write_time(path) -
                          std::chrono::hours(1);
    std::filesystem::last_write_time(path, old_time);

    // A warm run: clear, load, hit every entry, flush.
    c.clear();
    c.setDirectory(dir);
    std::vector<double> out;
    EXPECT_TRUE(c.lookup("d", 1, out));
    EXPECT_TRUE(c.lookup("d", 2, out));
    c.flush();
    EXPECT_EQ(readFile(path), written);
    EXPECT_EQ(std::filesystem::last_write_time(path), old_time);

    // A sibling sharing the directory writes a newer file; this
    // cache's clean flush must not replace it with its older copy.
    const std::string sibling =
        cacheFileText("\"d:0000000000000001\": [1.5], "
                      "\"d:0000000000000002\": [2.5, 3.5], "
                      "\"d:0000000000000003\": [4.5]");
    writeFile(path, sibling);
    c.flush();
    EXPECT_EQ(readFile(path), sibling);
}

TEST_F(ResultCacheTest, OnlyAChangedEntryMakesTheFlushWrite)
{
    const std::string dir = makeTempDir("dirty");
    const std::string path = dir + "/result_cache.json";
    auto &c = ResultCache::instance();
    c.setDirectory(dir);
    c.store("d", 1, {0.0, 1.0});
    c.flush();
    c.clear();
    c.setDirectory(dir);

    // A marker file shows whether a flush wrote: same entries, but
    // spelled unlike the writer would.
    const std::string marker =
        cacheFileText("\"d:0000000000000001\": [0.0, 1.0]");
    writeFile(path, marker);

    // Re-storing a bitwise-identical payload changes nothing.
    c.store("d", 1, {0.0, 1.0});
    c.flush();
    EXPECT_EQ(readFile(path), marker);

    // -0.0 == 0.0, but the payload changed bit for bit.
    c.store("d", 1, {-0.0, 1.0});
    c.flush();
    EXPECT_NE(readFile(path), marker);
    c.clear();
    c.setDirectory(dir);
    std::vector<double> out;
    ASSERT_TRUE(c.lookup("d", 1, out));
    EXPECT_TRUE(std::signbit(out[0]));

    // A new key makes the next flush write, and only the next one.
    writeFile(path, marker);
    c.store("d", 2, {2.0});
    c.flush();
    const std::string with_new_key = readFile(path);
    EXPECT_NE(with_new_key.find("d:0000000000000002"), std::string::npos);
    writeFile(path, marker);
    c.flush();
    EXPECT_EQ(readFile(path), marker);
}

TEST_F(ResultCacheTest, EntriesStoredBeforeSetDirectoryArePersisted)
{
    const std::string dir = makeTempDir("early");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/result_cache.json";
    writeFile(path, cacheFileText("\"d:0000000000000001\": [1.5]"));

    auto &c = ResultCache::instance();
    c.store("d", 2, {2.5});
    c.setDirectory(dir);
    EXPECT_EQ(c.size(), 2u);
    c.flush();

    c.clear();
    c.setDirectory(dir);
    std::vector<double> out;
    EXPECT_TRUE(c.lookup("d", 1, out));
    EXPECT_TRUE(c.lookup("d", 2, out));
    EXPECT_EQ(out, std::vector<double>({2.5}));

    // The same holds with no file to load yet.
    std::filesystem::remove(path);
    c.setDirectory("");
    c.clear();
    c.store("d", 3, {3.5});
    c.setDirectory(dir);
    c.flush();
    EXPECT_NE(readFile(path).find("d:0000000000000003"),
              std::string::npos);
}

TEST_F(ResultCacheTest, NextFlushRepairsACorruptOrPartlyMalformedFile)
{
    const std::string dir = makeTempDir("repair");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/result_cache.json";
    auto &c = ResultCache::instance();
    for (const std::string &text :
         {std::string("{"), std::string("not json at all"),
          std::string("{\"schema\": \"something-else\"}"),
          std::string("{\"schema\": \"otft-result-cache-1\", "
                      "\"entries\": {\"d:0000000000000001\": [1.5]}}\n"),
          cacheFileText("\"d:0000000000000001\": [1.5], "
                        "\"d:0000000000000002\": \"bad\""),
          cacheFileText("\"d:0000000000000001\": [1.5], "
                        "\"d:0000000000000003\": [2.5, true]")}) {
        writeFile(path, text);
        c.setDirectory("");
        c.clear();
        c.setDirectory(dir);
        c.flush();
        const std::string repaired = readFile(path);
        EXPECT_NE(repaired, text);

        // The repaired file holds exactly the entries that loaded.
        const std::size_t loaded = c.size();
        c.clear();
        c.setDirectory(dir);
        EXPECT_EQ(c.size(), loaded) << "input: " << text;
        c.flush();
        EXPECT_EQ(readFile(path), repaired) << "input: " << text;
    }
}

TEST_F(ResultCacheTest, LoadThatEvictsMakesTheNextFlushWrite)
{
    const std::string dir = makeTempDir("evict_load");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/result_cache.json";
    std::string members;
    char member[48];
    for (std::size_t k = 0; k <= ResultCache::capacity; ++k) {
        std::snprintf(member, sizeof(member), "%s\"d:%016zx\": [1]",
                      k ? ", " : "", k);
        members += member;
    }
    const std::string text = cacheFileText(members);
    writeFile(path, text);

    auto &c = ResultCache::instance();
    c.setDirectory(dir);
    EXPECT_EQ(c.size(), ResultCache::capacity);
    c.flush();
    EXPECT_LT(readFile(path).size(), text.size());
}

TEST_F(ResultCacheTest, FreeFunctionsUseTheSingleton)
{
    store("free.fn", 5, {5.5});
    std::vector<double> out;
    EXPECT_TRUE(lookup("free.fn", 5, out));
    EXPECT_EQ(out, std::vector<double>({5.5}));
    EXPECT_EQ(ResultCache::instance().size(), 1u);
}

TEST_F(ResultCacheTest, TimelineRecordsHitMissAndEvictEvents)
{
    const std::string path = makeTempDir("trace") + "/timeline.json";
    std::filesystem::create_directories(tempDir);
    auto &c = ResultCache::instance();
    // Leave room for exactly two more entries.
    for (std::uint64_t k = 0; k + 2 < ResultCache::capacity; ++k)
        c.store("fill", k, {0.0});

    trace::start(path);
    std::vector<double> out;
    const std::size_t base = trace::eventCount();
    EXPECT_FALSE(c.lookup("t", 1, out)); // miss (+ lookup span)
    const std::size_t after_miss = trace::eventCount();
    EXPECT_GE(after_miss - base, 2u);

    c.store("t", 1, {1.0});
    EXPECT_TRUE(c.lookup("t", 1, out)); // hit (+ lookup span)
    const std::size_t after_hit = trace::eventCount();
    EXPECT_GE(after_hit - after_miss, 2u);

    c.store("t", 2, {2.0}); // fills the cache to capacity
    c.store("t", 3, {3.0}); // evicts the LRU entry
    const std::size_t after_evict = trace::eventCount();
    EXPECT_GE(after_evict - after_hit, 1u);

    trace::stop();

    // The emitted timeline names the cache decisions.
    std::ifstream is(path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("cache.miss"), std::string::npos);
    EXPECT_NE(text.find("cache.hit"), std::string::npos);
    EXPECT_NE(text.find("cache.evict"), std::string::npos);
}

TEST_F(ResultCacheTest, NoTimelineEventsWhenNotCollecting)
{
    ASSERT_FALSE(trace::collecting());
    auto &c = ResultCache::instance();
    std::vector<double> out;
    const std::size_t before = trace::eventCount();
    c.store("quiet", 1, {1.0});
    EXPECT_TRUE(c.lookup("quiet", 1, out));
    EXPECT_EQ(trace::eventCount(), before);
}

} // namespace
} // namespace otft::cache
