#include "service/metrics.hpp"

namespace repro::service {
namespace {

/// A non-negative JSON number as a count; anything else reads as zero.
std::uint64_t count_of(const Json* value) {
  if (value == nullptr) return 0;
  switch (value->type()) {
    case Json::Type::kUint: return value->as_uint64();
    case Json::Type::kInt: return value->as_int64() > 0 ? value->as_uint64() : 0;
    case Json::Type::kDouble: {
      const double count = value->as_double();  // the cast is undefined past 2^64
      return count > 0.0 && count < 0x1p64 ? static_cast<std::uint64_t>(count) : 0;
    }
    default: return 0;
  }
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    values_[i] = kMetricTable[i].kind == MetricKind::kFlag
                     ? (values_[i] | other.values_[i])
                     : values_[i] + other.values_[i];
  }
  for (const auto& [tenant, columns] : other.tenants) {
    TenantRow& mine = tenants[tenant];
    for (std::size_t c = 0; c < kTenantColumnCount; ++c) mine[c] += columns[c];
  }
}

void MetricsSnapshot::encode_into(Json& status) const {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& def = kMetricTable[i];
    Json* parent = &status;
    if (!def.section().empty()) {
      if (status.find(def.section()) == nullptr)
        status.set(std::string(def.section()), Json::object());
      for (auto& [name, member] : status.as_object())
        if (name == def.section()) parent = &member;
    }
    Json value(values_[i]);
    if (def.kind == MetricKind::kFlag) value = Json(values_[i] != 0);
    if (def.kind == MetricKind::kRows) {
      value = Json::array();
      for (const auto& [tenant, columns] : tenants) {
        Json row = Json::object();
        row.set(std::string(kTenantKey), tenant);
        for (std::size_t c = 0; c < kTenantColumnCount; ++c)
          row.set(std::string(kTenantColumnNames[c]), columns[c]);
        value.push_back(std::move(row));
      }
    }
    parent->set(std::string(def.key()), std::move(value));
  }
}

MetricsSnapshot MetricsSnapshot::decode(const Json& status) {
  MetricsSnapshot snapshot;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& def = kMetricTable[i];
    const Json* parent = def.section().empty() ? &status : status.find(def.section());
    const Json* field =
        parent != nullptr && parent->is_object() ? parent->find(def.key()) : nullptr;
    if (field != nullptr && field->is_bool()) {
      snapshot.values_[i] = field->as_bool() ? 1 : 0;
    } else if (def.kind != MetricKind::kRows) {
      snapshot.values_[i] = count_of(field);
    } else if (field != nullptr && field->is_array()) {
      for (const Json& row : field->as_array()) {
        const Json* tenant = row.is_object() ? row.find(kTenantKey) : nullptr;
        if (tenant == nullptr || !tenant->is_string()) continue;
        TenantRow& columns = snapshot.tenants[tenant->as_string()];
        for (std::size_t c = 0; c < kTenantColumnCount; ++c)
          columns[c] += count_of(row.find(kTenantColumnNames[c]));
      }
    }
  }
  return snapshot;
}

void MetricSet::add_to(MetricsSnapshot& snapshot) const noexcept {
  for (std::size_t i = 0; i < kMetricCount; ++i)
    snapshot.values_[i] += slots_[i].load(std::memory_order_relaxed);
}

}  // namespace repro::service
