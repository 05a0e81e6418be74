// The status metrics table (service/metrics.hpp): its documentation, and
// the encode / decode / merge walk that tuned and tunelb share.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "service/metrics.hpp"

namespace repro::service {
namespace {

/// The status reply example of docs/SERVICE.md §4: the first fenced block
/// of that section that mentions "live_sessions".
Json documented_status() {
  std::ifstream in(REPRO_SERVICE_DOC);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  const std::size_t section = doc.find("\n## 4.");
  const std::size_t section_end = doc.find("\n## 5.", section);
  EXPECT_NE(section, std::string::npos);
  std::size_t at = section;
  while ((at = doc.find("```json\n", at)) < section_end) {
    const std::size_t begin = at + 8;
    const std::size_t end = doc.find("```", begin);
    const std::string block = doc.substr(begin, end - begin);
    if (block.find("\"live_sessions\"") != std::string::npos) return Json::parse(block);
    at = end + 3;
  }
  ADD_FAILURE() << "no status block in docs/SERVICE.md section 4";
  return Json::object();
}

TEST(Metrics, EveryTableRowIsInTheDocumentedStatusSchema) {
  const Json doc = documented_status();
  for (const MetricDef& def : kMetricTable) {
    const std::string path = def.section().empty()
                                 ? std::string(def.key())
                                 : std::string(def.section()) + "." + std::string(def.key());
    const Json* parent = def.section().empty() ? &doc : doc.find(def.section());
    const Json* field = parent != nullptr ? parent->find(def.key()) : nullptr;
    ASSERT_NE(field, nullptr) << path << " is missing from docs/SERVICE.md section 4";
    switch (def.kind) {
      case MetricKind::kFlag: EXPECT_TRUE(field->is_bool()) << path; break;
      case MetricKind::kRows: {
        ASSERT_TRUE(field->is_array() && !field->as_array().empty()) << path;
        const Json& row = field->as_array().front();
        EXPECT_NE(row.find(kTenantKey), nullptr) << path;
        for (const std::string_view column : kTenantColumnNames)
          EXPECT_NE(row.find(column), nullptr) << path << "[]." << column;
        break;
      }
      default: EXPECT_TRUE(field->is_number()) << path; break;
    }
  }
}

TEST(Metrics, EncodeDecodeRoundTripsEveryRow) {
  MetricsSnapshot snapshot;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    snapshot.set(static_cast<Metric>(i),
                 kMetricTable[i].kind == MetricKind::kFlag ? 1 : 10 + i);
  }
  snapshot.tenants["acme"] = {3, 1, 2};
  Json status = Json::object();
  snapshot.encode_into(status);
  const MetricsSnapshot back = MetricsSnapshot::decode(Json::parse(status.dump()));
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kMetricTable[i].kind == MetricKind::kRows) continue;
    EXPECT_EQ(back[static_cast<Metric>(i)], snapshot[static_cast<Metric>(i)])
        << kMetricTable[i].key();
  }
  EXPECT_EQ(back.tenants, snapshot.tenants);
}

TEST(Metrics, MergeSumsNumbersOrsFlagsAndMergesTenantRows) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.set(Metric::kTells, 5);
  b.set(Metric::kTells, 7);
  a.set(Metric::kLiveSessions, 2);
  b.set(Metric::kLiveSessions, 1);
  a.set(Metric::kShipFenced, 1);
  a.tenants["acme"] = {2, 0, 1};
  b.tenants["acme"] = {1, 1, 0};
  b.tenants["beta"] = {4, 0, 0};
  a.merge(b);
  EXPECT_EQ(a[Metric::kTells], 12u);
  EXPECT_EQ(a[Metric::kLiveSessions], 3u);
  EXPECT_EQ(a[Metric::kShipFenced], 1u);
  EXPECT_EQ(a[Metric::kShipConnected], 0u);
  ASSERT_EQ(a.tenants.size(), 2u);
  EXPECT_EQ(a.tenants["acme"], (TenantRow{3, 1, 1}));
  EXPECT_EQ(a.tenants["beta"], (TenantRow{4, 0, 0}));
}

TEST(Metrics, DecodeReadsMissingAndMistypedFieldsAsZero) {
  const MetricsSnapshot snapshot = MetricsSnapshot::decode(Json::parse(
      R"({"tells":"many","opened":-3,"quotas":[],"ship":{"resyncs":2.0,"reconnects":1e30},)"
      R"("live_sessions":4})"));
  EXPECT_EQ(snapshot[Metric::kTells], 0u);
  EXPECT_EQ(snapshot[Metric::kOpened], 0u);
  EXPECT_EQ(snapshot[Metric::kShedAnonymous], 0u);
  EXPECT_EQ(snapshot[Metric::kShipResyncs], 2u);
  EXPECT_EQ(snapshot[Metric::kShipReconnects], 0u);
  EXPECT_EQ(snapshot[Metric::kLiveSessions], 4u);
  EXPECT_TRUE(snapshot.tenants.empty());
}

}  // namespace
}  // namespace repro::service
