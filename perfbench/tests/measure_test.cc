// Tests of the benchmark's own arithmetic (src/measure.h). A plain binary:
// prints each failed check and exits non-zero if any failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "measure.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::printf("%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestP90SampleCountRule() {
  // Ten samples must lie beyond p90, so 100 is the least sample count.
  CHECK(SamplesBeyond(100, 0.9) == 10);
  CHECK(SamplesBeyond(99, 0.9) == 9);
  CHECK(SamplesBeyond(250, 0.9) == 25);
  CHECK(!PercentileSupported(99, 0.9));
  CHECK(PercentileSupported(100, 0.9));
  CHECK(MinSamplesFor(0.9) == 100);
  CHECK(MinSamplesFor(0.5) == 20);
  CHECK(MinSamplesFor(0.99) == 1000);
  // Nearest rank: p90 of 1..100 is 90, with 91..100 beyond it.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(Near(NearestRank(v, 0.9), 90.0));
  CHECK(Near(Median(v), 50.5));
  CHECK(Near(Median({3.0, 1.0, 2.0}), 2.0));
  CHECK(Near(Median({}), 0.0));
}

void TestDigestIgnoresRowOrder() {
  std::vector<std::vector<uint64_t>> rows = {
      {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 2, 3}, {0, 0, 0}};
  OutputDigest a;
  for (const auto& r : rows) a.Add(RowDigest(r));
  std::mt19937 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(rows.begin(), rows.end(), rng);
    OutputDigest b;
    for (const auto& r : rows) b.Add(RowDigest(r));
    CHECK(a == b);
  }
  // A changed cell, a dropped duplicate, or swapped columns all differ.
  OutputDigest changed, dropped, swapped;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto r = rows[i];
    if (i == 0) r[0] += 1;
    changed.Add(RowDigest(r));
  }
  bool skipped = false;
  for (const auto& r : rows) {
    if (!skipped && r == std::vector<uint64_t>{1, 2, 3}) {
      skipped = true;
      continue;
    }
    dropped.Add(RowDigest(r));
  }
  for (auto r : rows) {
    if (r == std::vector<uint64_t>{4, 5, 6}) std::swap(r[0], r[1]);
    swapped.Add(RowDigest(r));
  }
  CHECK(a != changed);
  CHECK(a != dropped);
  CHECK(dropped.rows == a.rows - 1);
  CHECK(a != swapped);
}

Span MakeSpan(uint64_t id, uint64_t parent, const std::string& name,
              int64_t start, int64_t end, uint64_t request = 1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSpanSelfTime() {
  // request [0,100): children align [10,20), fd [30,90); fd has two
  // overlapping children [40,60) and [50,70) (parallel) and one that
  // spills past its end [85,95).
  std::vector<Span> spans = {
      MakeSpan(1, 0, "request", 0, 100),
      MakeSpan(2, 1, "align", 10, 20),
      MakeSpan(3, 1, "fd", 30, 90),
      MakeSpan(4, 3, "task", 40, 60),
      MakeSpan(5, 3, "task", 50, 70),
      MakeSpan(6, 3, "tail", 85, 95),
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 100 - 10 - 60);     // request minus align and fd
  CHECK(self[1] == 10);                // leaf
  CHECK(self[2] == 60 - 30 - 5);       // [40,70) once, [85,90) clipped
  CHECK(self[3] == 20 && self[4] == 20);
  CHECK(self[5] == 10);
  CHECK(CoveredNs({{0, 5}, {3, 8}, {20, 30}}, 0, 25) == 13);
  CHECK(CoveredNs({}, 0, 10) == 0);

  auto by_request = SelfMsByRequest(spans);
  CHECK(Near(by_request[1]["task"], 40e-6));
  CHECK(Near(by_request[1]["fd"], 25e-6));
}

void TestUnattributedReconciliation() {
  // Self times of a span tree whose children stay inside their parents sum
  // to the root's duration, so the unattributed remainder of an end-to-end
  // time equal to that duration is exactly the root's own self time.
  std::vector<Span> spans = {
      MakeSpan(1, 0, "request", 0, 1000000),
      MakeSpan(2, 1, "match.align", 0, 100000),
      MakeSpan(3, 1, "fd.build", 100000, 300000),
      MakeSpan(4, 1, "fd.run", 300000, 900000),
  };
  auto self = SelfMsByRequest(spans)[1];
  double total = 0;
  for (const auto& kv : self) total += kv.second;
  CHECK(Near(total, 1.0));
  std::map<std::string, double> layers = self;
  layers.erase("request");
  CHECK(Near(UnattributedMs(1.0, layers), self["request"]));
  CHECK(Near(UnattributedMs(1.0, layers), 0.1));
  // An end-to-end time below the layer sum leaves a negative remainder.
  CHECK(Near(UnattributedMs(0.5, layers), -0.4));
  CHECK(Near(UnattributedMs(2.0, {}), 2.0));
}

void TestStealCorrection() {
  // /proc/stat: user nice system idle iowait irq softirq steal guest ...
  CHECK(StealTicks("cpu  1056336 0 33242 1972578 733 0 10679 33320 0 0\n") ==
        33320);
  CHECK(StealTicks("cpu 1 2 3 4 5 6 7 8") == 8);
  CHECK(StealTicks("cpu 1 2 3 4 5 6 7") == -1);     // kernel without steal
  CHECK(StealTicks("cpu0 1 2 3 4 5 6 7 8") == -1);  // a per-vCPU line
  CHECK(StealTicks("") == -1);
  // One busy thread (CPU time + steal = wall): all steal is its loss.
  CHECK(Near(StealFreeMs(268.0, 133.0, 135.0), 135.0));
  CHECK(Near(StealFreeMs(150.0, 0.0, 150.0), 150.0));
  // Two busy threads: 40 ms of summed steal cost the longest one 20 ms.
  CHECK(Near(StealFreeMs(100.0, 40.0, 160.0), 80.0));
  // A mostly idle process (waiting on I/O) still counts parallelism >= 1.
  CHECK(Near(StealFreeMs(100.0, 10.0, 20.0), 90.0));
  CHECK(Near(StealFreeMs(100.0, -5.0, 100.0), 100.0));  // never runs back
  CHECK(Near(StealFreeMs(0.0, 10.0, 0.0), 0.0));
}

void TestTraceOverhead() {
  // Replay plumbing comes out of each traced request before the median.
  CHECK(Near(TraceOverheadMs({12.0, 30.0, 14.0}, {1.0, 10.0, 2.0}, 10.0),
             2.0));
  CHECK(Near(TraceOverheadMs({12.0, 11.0}, {}, 10.0), 1.5));
}

}  // namespace

int main() {
  TestP90SampleCountRule();
  TestStealCorrection();
  TestDigestIgnoresRowOrder();
  TestSpanSelfTime();
  TestUnattributedReconciliation();
  TestTraceOverhead();
  if (failures == 0) std::printf("measure_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
