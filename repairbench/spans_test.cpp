// Self-test of the benchmark's self-time computation (spans.hpp):
// nested spans, a child that covers its parent completely, sibling
// and overlapping children, and children that stick out of their
// parent.  Exit 0 = all cases pass.
#include <cstdio>
#include <numeric>

#include "spans.hpp"

using repairbench::Span;
using repairbench::selfTimes;

namespace {

int g_failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++g_failures;
    }
}

uint64_t
total(const std::vector<uint64_t> &v)
{
    return std::accumulate(v.begin(), v.end(), uint64_t{0});
}

void
nestedSpans()
{
    // pass [0,100) > item [10,90) > call [20,50)
    std::vector<Span> s = {{"pass", 0, 100, -1},
                           {"item", 10, 90, 0},
                           {"call", 20, 50, 1}};
    auto self = selfTimes(s);
    expect(self[0] == 20, "nested: pass self = 100 - 80");
    expect(self[1] == 50, "nested: item self = 80 - 30");
    expect(self[2] == 30, "nested: leaf self = its duration");
    expect(total(self) == 100, "nested: self times sum to the root");
}

void
childCoversParent()
{
    std::vector<Span> s = {{"item", 5, 25, -1}, {"call", 5, 25, 0}};
    auto self = selfTimes(s);
    expect(self[0] == 0, "full cover: parent self is zero");
    expect(self[1] == 20, "full cover: child keeps the time");
}

void
siblingChildren()
{
    // Two disjoint siblings plus a gap between and around them.
    std::vector<Span> s = {{"item", 0, 100, -1},
                           {"parse", 10, 30, 0},
                           {"repair", 40, 90, 0}};
    auto self = selfTimes(s);
    expect(self[0] == 30, "siblings: parent self = 100 - 20 - 50");
    expect(total(self) == 100, "siblings: self times sum to the root");
}

void
overlappingChildren()
{
    // Overlapping siblings are covered once, not twice.
    std::vector<Span> s = {{"task", 0, 100, -1},
                           {"a", 10, 60, 0},
                           {"b", 40, 80, 0},
                           {"c", 50, 55, 0}};
    auto self = selfTimes(s);
    expect(self[0] == 30, "overlap: parent self = 100 - |[10,80)|");
}

void
childOutsideParent()
{
    // A child reported with a coarser clock may poke out of its
    // parent; only the overlap counts and self never goes negative.
    std::vector<Span> s = {{"item", 10, 20, -1}, {"call", 8, 25, 0}};
    auto self = selfTimes(s);
    expect(self[0] == 0, "clip: parent self clamps at zero");
}

void
spanLogNesting()
{
    static uint64_t now = 0;
    repairbench::SpanLog log([] { return now; });
    {
        repairbench::Scope off(log, "ignored");  // disabled: no span
    }
    expect(log.spans.empty(), "log: disabled log records nothing");
    log.setEnabled(true);
    {
        repairbench::Scope pass(log, "pass");
        now = 10;
        {
            repairbench::Scope item(log, "item");
            now = 30;
        }
        now = 40;
    }
    expect(log.spans.size() == 2, "log: two spans");
    expect(log.spans[1].parent == 0, "log: item nests under pass");
    expect(log.spans[0].duration() == 40, "log: pass duration");
    expect(log.innermostContaining(12, 20) == 1,
           "log: innermost containing span is the item");
    expect(log.innermostContaining(32, 35) == 0,
           "log: outside the item the pass contains it");
}

} // namespace

int
main()
{
    nestedSpans();
    childCoversParent();
    siblingChildren();
    overlappingChildren();
    childOutsideParent();
    spanLogNesting();
    if (g_failures == 0)
        std::printf("spans_test: all cases passed\n");
    return g_failures == 0 ? 0 : 1;
}
