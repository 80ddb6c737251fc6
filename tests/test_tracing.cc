/**
 * @file
 * Unit tests for the structured event tracer: span nesting (B/E
 * pairing per thread), per-thread timestamp monotonicity, instants,
 * args escaping, the Chrome trace-event JSON shape, the ambient
 * currentTracer(), and thread-local buffer behavior under the pool.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "support/thread_pool.hh"
#include "support/tracing.hh"

namespace vanguard {
namespace {

/** Minimal JSON syntax checker: objects, arrays, strings (with
 *  escapes), numbers, true/false/null. */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    document()
    {
        return value() && (skipSpace(), pos_ == s_.size());
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (static_cast<unsigned char>(s_[pos_]) < 0x20)
                return false;
            pos_ += s_[pos_] == '\\' ? 2 : 1;
        }
        return pos_++ < s_.size();
    }

    bool
    value()
    {
        skipSpace();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{' || c == '[') {
            char close = c == '{' ? '}' : ']';
            ++pos_;
            if (eat(close))
                return true;
            do {
                if (c == '{' && !(string() && eat(':')))
                    return false;
                if (!value())
                    return false;
            } while (eat(','));
            return eat(close);
        }
        if (c == '"')
            return string();
        for (const char *lit : {"true", "false", "null"}) {
            if (s_.compare(pos_, std::string(lit).size(), lit) == 0) {
                pos_ += std::string(lit).size();
                return true;
            }
        }
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        return pos_ > start;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

void
expectParsesAsJson(const std::string &text)
{
    EXPECT_TRUE(JsonChecker(text).document()) << text;
}

TEST(Tracing, SpansNestPerThread)
{
    Tracer t;
    {
        TraceSpan outer(&t, "outer");
        {
            TraceSpan inner(&t, "inner");
        }
        t.instant("tick");
    }
    auto threads = t.snapshotByThread();
    ASSERT_EQ(threads.size(), 1u);
    const auto &ev = threads[0];
    ASSERT_EQ(ev.size(), 5u);
    EXPECT_EQ(ev[0].phase, 'B');
    EXPECT_EQ(ev[0].name, "outer");
    EXPECT_EQ(ev[1].phase, 'B');
    EXPECT_EQ(ev[1].name, "inner");
    EXPECT_EQ(ev[2].phase, 'E');
    EXPECT_EQ(ev[2].name, "inner");
    EXPECT_EQ(ev[3].phase, 'i');
    EXPECT_EQ(ev[3].name, "tick");
    EXPECT_EQ(ev[4].phase, 'E');
    EXPECT_EQ(ev[4].name, "outer");
}

TEST(Tracing, TimestampsMonotonicPerThread)
{
    Tracer t;
    ThreadPool pool(4);
    pool.parallelFor(64, [&t](size_t i) {
        TraceSpan span(&t, "job" + std::to_string(i));
        t.instant("mid");
    });
    auto threads = t.snapshotByThread();
    ASSERT_FALSE(threads.empty());
    size_t total = 0;
    for (const auto &ev : threads) {
        for (size_t i = 1; i < ev.size(); ++i)
            EXPECT_GE(ev[i].tsMicros, ev[i - 1].tsMicros);
        // Every B has its E on the same thread, in order.
        std::vector<std::string> stack;
        for (const auto &e : ev) {
            if (e.phase == 'B') {
                stack.push_back(e.name);
            } else if (e.phase == 'E') {
                ASSERT_FALSE(stack.empty());
                EXPECT_EQ(stack.back(), e.name);
                stack.pop_back();
            }
        }
        EXPECT_TRUE(stack.empty());
        total += ev.size();
    }
    EXPECT_EQ(total, 64u * 3);
}

TEST(Tracing, EnvelopesGetTracksOfTheirOwn)
{
    // Envelopes overlap each other and a live thread's spans, yet each
    // lands on its own track: B/E stay balanced and every track's
    // timestamps stay monotonic.
    Tracer t;
    uint64_t t0 = t.nowMicros();
    {
        TraceSpan job(&t, "job");
        t.instant("mid");
    }
    uint64_t t1 = t.nowMicros() + 50;
    t.envelope("phase.a", t0, t1);
    t.envelope("phase.b", t0 + 10, t1 + 10);
    t.envelope("phase.c", t0 + 20, t0 + 20);
    {
        TraceSpan later(&t, "later");
    }

    auto tracks = t.snapshotByThread();
    ASSERT_EQ(tracks.size(), 4u); // the thread + three envelopes
    std::map<std::string, int> open;
    for (const auto &ev : tracks) {
        for (size_t i = 1; i < ev.size(); ++i)
            EXPECT_GE(ev[i].tsMicros, ev[i - 1].tsMicros);
        std::vector<std::string> stack;
        for (const auto &e : ev) {
            if (e.phase == 'B') {
                stack.push_back(e.name);
                ++open[e.name];
            } else if (e.phase == 'E') {
                ASSERT_FALSE(stack.empty());
                EXPECT_EQ(stack.back(), e.name);
                stack.pop_back();
                --open[e.name];
            }
        }
        EXPECT_TRUE(stack.empty());
    }
    for (const char *name : {"job", "later", "phase.a", "phase.b",
                             "phase.c"}) {
        ASSERT_TRUE(open.count(name)) << name;
        EXPECT_EQ(open[name], 0) << name;
    }
    EXPECT_EQ(tracks[1].front().tsMicros, t0);
    EXPECT_EQ(tracks[1].back().tsMicros, t1);

    // The thread's buffer is still its own after the envelopes.
    EXPECT_EQ(tracks[0].size(), 5u);
    expectParsesAsJson(t.toChromeJson());
}

TEST(Tracing, ArgsHelperEscapes)
{
    std::string json = Tracer::args(
        {{"benchmark", "bzip2-like"}, {"note", "say \"hi\"\\"}});
    EXPECT_EQ(json, "{\"benchmark\":\"bzip2-like\","
                    "\"note\":\"say \\\"hi\\\"\\\\\"}");
}

TEST(Tracing, ChromeJsonShape)
{
    Tracer t;
    t.begin("span", Tracer::args({{"k", "v"}}));
    t.end("span");
    t.instant("blip");
    std::string json = t.toChromeJson();

    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"vanguard-trace v1\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    // Instants carry thread scope so Perfetto renders them as marks.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"k\":\"v\"}"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(Tracing, EmptyTracerStillValidJson)
{
    Tracer t;
    std::string json = t.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\": []"), std::string::npos);
}

TEST(Tracing, NullSpanIsNoop)
{
    // TraceSpan and ScopedCurrentTracer must be safe with tracing off.
    TraceSpan span(nullptr, "nothing");
    EXPECT_EQ(currentTracer(), nullptr);
    ScopedCurrentTracer off(nullptr);
    EXPECT_EQ(currentTracer(), nullptr);
}

TEST(Tracing, AmbientTracerScopesAndRestores)
{
    Tracer t;
    EXPECT_EQ(currentTracer(), nullptr);
    {
        ScopedCurrentTracer ambient(&t);
        EXPECT_EQ(currentTracer(), &t);
        {
            ScopedCurrentTracer off(nullptr);
            EXPECT_EQ(currentTracer(), nullptr);
        }
        EXPECT_EQ(currentTracer(), &t);
        TraceSpan span(currentTracer(), "ambient");
    }
    EXPECT_EQ(currentTracer(), nullptr);
    auto threads = t.snapshotByThread();
    ASSERT_EQ(threads.size(), 1u);
    EXPECT_EQ(threads[0].size(), 2u);
}

TEST(Tracing, SequentialTracersDoNotShareBuffers)
{
    // The thread-local cache is keyed by tracer id: a second tracer
    // (possibly at the same address) must start with a fresh buffer.
    for (int round = 0; round < 2; ++round) {
        Tracer t;
        t.instant("only");
        auto threads = t.snapshotByThread();
        ASSERT_EQ(threads.size(), 1u);
        EXPECT_EQ(threads[0].size(), 1u);
    }
}

} // namespace
} // namespace vanguard
