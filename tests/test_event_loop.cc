/**
 * @file
 * Tests for the shared discrete-event queue (common/event_loop.hh):
 * the (time, kind, id, seq) pop order, the payload staying out of
 * that order, coalesced wake-ups (including a stale later wake that
 * clears the pending mark when it pops), runUntil's inclusive bound,
 * and the clock accessors on an empty loop.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/event_loop.hh"

namespace {

using namespace ad;

enum class Kind
{
    First = 0,
    Second = 1,
    Wake = 2
};

struct Tag
{
    int value = 0;
};

using Loop = EventLoop<Kind>;
using TaggedLoop = EventLoop<Kind, Tag>;

// The empty payload takes no space: a key-only event is 24 bytes.
static_assert(sizeof(SimEvent<Kind>) == 24);

struct Key
{
    double t;
    Kind kind;
    int id;
    std::int64_t seq;

    bool
    operator==(const Key& o) const
    {
        return t == o.t && kind == o.kind && id == o.id && seq == o.seq;
    }
};

std::vector<Key>
drainKeys(Loop& loop, double untilMs)
{
    std::vector<Key> out;
    loop.runUntil(untilMs, [&](const Loop::Event& ev) {
        out.push_back({ev.timeMs, ev.kind, ev.id, ev.seq});
    });
    return out;
}

TEST(EventLoop, PopsInTimeKindIdSeqOrder)
{
    Loop loop;
    // Pushed in an order that matches none of the key fields.
    loop.push({2.0, Kind::First, 0, 0});
    loop.push({1.0, Kind::Second, 1, 5});
    loop.push({1.0, Kind::Second, 1, 2});
    loop.push({1.0, Kind::Second, 0, 9});
    loop.push({1.0, Kind::First, 7, 7});
    loop.push({0.5, Kind::Wake, 3, 3});

    const std::vector<Key> want = {
        {0.5, Kind::Wake, 3, 3},   {1.0, Kind::First, 7, 7},
        {1.0, Kind::Second, 0, 9}, {1.0, Kind::Second, 1, 2},
        {1.0, Kind::Second, 1, 5}, {2.0, Kind::First, 0, 0}};
    EXPECT_EQ(drainKeys(loop, std::numeric_limits<double>::infinity()),
              want);
    EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, PayloadTakesNoPartInTheOrder)
{
    using Event = TaggedLoop::Event;
    // Same key, different payloads: neither orders before the other.
    const Event a{1.0, Kind::First, 2, 3, Tag{1}};
    const Event b{1.0, Kind::First, 2, 3, Tag{9}};
    EXPECT_FALSE(a > b);
    EXPECT_FALSE(b > a);

    // Payloads that run against the key order leave it unchanged.
    TaggedLoop loop;
    loop.push({3.0, Kind::First, 0, 0, Tag{1}});
    loop.push({2.0, Kind::First, 0, 0, Tag{2}});
    loop.push({1.0, Kind::First, 0, 0, Tag{3}});
    std::vector<int> tags;
    loop.runUntil(10.0, [&](const Event& ev) {
        tags.push_back(ev.payload.value);
    });
    EXPECT_EQ(tags, (std::vector<int>{3, 2, 1}));
}

TEST(EventLoop, WakeUpsCoalesceAndStaleWakesClearThePendingMark)
{
    Loop loop;
    loop.wakeAt(10.0, Kind::Wake);
    loop.wakeAt(12.0, Kind::Wake); // later than pending: no-op.
    loop.wakeAt(10.0, Kind::Wake); // equal to pending: no-op.
    loop.wakeAt(5.0, Kind::Wake);  // earlier: pushed; 10 goes stale.
    EXPECT_DOUBLE_EQ(loop.nextMs(), 5.0);

    std::vector<double> popped;
    const auto record = [&](const Loop::Event& ev) {
        EXPECT_EQ(ev.kind, Kind::Wake);
        popped.push_back(ev.timeMs);
    };
    loop.runUntil(5.0, record);
    // The pop cleared the mark, so a wake after it lands even though
    // the stale 10 ms wake is still queued.
    loop.wakeAt(8.0, Kind::Wake);
    loop.runUntil(8.0, record);
    loop.wakeAt(20.0, Kind::Wake); // pending = 20.
    // The stale 10 ms wake pops and clears the mark set for 20...
    loop.runUntil(10.0, record);
    // ...so a wake at 25, later than the queued 20, is not coalesced.
    loop.wakeAt(25.0, Kind::Wake);
    loop.runUntil(std::numeric_limits<double>::infinity(), record);

    EXPECT_EQ(popped, (std::vector<double>{5.0, 8.0, 10.0, 20.0, 25.0}));
}

TEST(EventLoop, WakeMarksAreKeptPerKind)
{
    Loop loop;
    loop.wakeAt(4.0, Kind::Wake);
    loop.wakeAt(6.0, Kind::Second); // other kind: not coalesced.
    loop.push({1.0, Kind::First, 0, 0});
    // A pop of another kind leaves the Wake mark alone.
    EXPECT_EQ(drainKeys(loop, 1.0).size(), 1u);
    loop.wakeAt(5.0, Kind::Wake);
    EXPECT_EQ(drainKeys(loop, 10.0).size(), 2u);
}

TEST(EventLoop, RunUntilIsInclusiveAndHandlesEventsPushedInside)
{
    Loop loop;
    loop.push({1.0, Kind::First, 0, 0});
    loop.push({2.0, Kind::First, 0, 1});
    loop.push({3.0, Kind::First, 0, 2});
    std::vector<double> seen;
    loop.runUntil(2.0, [&](const Loop::Event& ev) {
        seen.push_back(ev.timeMs);
        EXPECT_DOUBLE_EQ(loop.lastMs(), ev.timeMs);
        // Scheduled inside the window: handled in this call.
        if (ev.kind == Kind::First && ev.seq == 0)
            loop.push({1.5, Kind::Second, 0, 0});
    });
    EXPECT_EQ(seen, (std::vector<double>{1.0, 1.5, 2.0}));
    EXPECT_DOUBLE_EQ(loop.lastMs(), 2.0);
    EXPECT_DOUBLE_EQ(loop.nextMs(), 3.0);
    EXPECT_FALSE(loop.empty());
}

TEST(EventLoop, EmptyLoopClock)
{
    Loop loop;
    EXPECT_TRUE(loop.empty());
    EXPECT_DOUBLE_EQ(loop.lastMs(), 0.0);
    EXPECT_EQ(loop.nextMs(), std::numeric_limits<double>::infinity());
    loop.runUntil(100.0, [](const Loop::Event&) { FAIL(); });
    EXPECT_DOUBLE_EQ(loop.lastMs(), 0.0);
}

} // namespace
