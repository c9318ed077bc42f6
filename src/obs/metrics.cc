#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace omega {

namespace {

// Shared ascending-bounds check for histogram construction.
bool StrictlyAscending(const std::vector<uint64_t>& bounds) {
  for (size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) return false;
  }
  return true;
}

void AppendLabels(std::string& out, std::string_view labels) {
  if (!labels.empty()) {
    out.push_back('{');
    out.append(labels);
    out.push_back('}');
  }
}

// Histogram series carry `le` merged with the entry's own labels:
// name_bucket{class="EXACT",le="50"}.
void AppendLabelsWithLe(std::string& out, std::string_view labels,
                        std::string_view le) {
  out.push_back('{');
  if (!labels.empty()) {
    out.append(labels);
    out.push_back(',');
  }
  out.append("le=\"");
  out.append(le);
  out.append("\"}");
}

}  // namespace

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  const bool ascending = StrictlyAscending(bounds_);
  assert(ascending && "histogram bounds must be strictly ascending");
  (void)ascending;
}

void Histogram::Observe(uint64_t value) {
  size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  buckets_[i].FetchAdd(1);
  sum_.FetchAdd(value);
  count_.FetchAdd(1);  // last: publishes the bucket and sum adds above
}

std::vector<uint64_t> Histogram::LatencyBoundsUs() {
  return {50,    100,   250,    500,    1000,   2500,   5000,
          10000, 25000, 50000, 100000, 250000, 1000000};
}

MetricsRegistry* MetricsRegistry::Global() {
  // Intentionally leaked: snapshot mappings and retired epochs may record
  // final observations while static destructors run.
  static MetricsRegistry* const g = new MetricsRegistry();
  return g;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreateLocked(
    std::string_view name, std::string_view help, std::string_view labels,
    Kind kind) {
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels) {
      // A name/labels collision across kinds means two call sites disagree
      // about what the series is — surface it loudly in debug builds.
      assert(e->kind == kind && "metric re-registered with a different kind");
      return e->kind == kind ? e.get() : nullptr;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = std::string(labels);
  entry->help = std::string(help);
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help,
                                     std::string_view labels) {
  MutexLock lock(mu_);
  Entry* e = FindOrCreateLocked(name, help, labels, Kind::kCounter);
  if (e == nullptr) return nullptr;
  if (!e->counter) e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 std::string_view labels) {
  MutexLock lock(mu_);
  Entry* e = FindOrCreateLocked(name, help, labels, Kind::kGauge);
  if (e == nullptr) return nullptr;
  if (!e->gauge) e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         std::string_view labels,
                                         std::vector<uint64_t> bounds) {
  MutexLock lock(mu_);
  Entry* e = FindOrCreateLocked(name, help, labels, Kind::kHistogram);
  if (e == nullptr) return nullptr;
  if (!e->histogram) {
    if (bounds.empty()) bounds = Histogram::LatencyBoundsUs();
    e->histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return e->histogram.get();
}

std::string MetricsRegistry::RenderText() const {
  // Snapshot entry pointers under the lock, then render lock-free: the
  // instruments are stable and their cells are relaxed-atomic.
  std::vector<const Entry*> entries;
  {
    MutexLock lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& e : entries_) entries.push_back(e.get());
  }
  // Group label variants of one family under a single # TYPE header.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry* a, const Entry* b) {
                     return a->name < b->name;
                   });

  std::string out;
  std::string_view last_family;
  for (const Entry* e : entries) {
    if (e->name != last_family) {
      last_family = e->name;
      if (!e->help.empty()) {
        out.append("# HELP ").append(e->name).append(" ").append(e->help)
            .append("\n");
      }
      out.append("# TYPE ").append(e->name).append(" ");
      switch (e->kind) {
        case Kind::kCounter:
          out.append("counter\n");
          break;
        case Kind::kGauge:
          out.append("gauge\n");
          break;
        case Kind::kHistogram:
          out.append("histogram\n");
          break;
      }
    }
    switch (e->kind) {
      case Kind::kCounter:
        out.append(e->name);
        AppendLabels(out, e->labels);
        out.append(" ").append(std::to_string(e->counter->Value()))
            .append("\n");
        break;
      case Kind::kGauge:
        out.append(e->name);
        AppendLabels(out, e->labels);
        out.append(" ").append(std::to_string(e->gauge->Value()))
            .append("\n");
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e->histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.BucketCount(i);
          out.append(e->name).append("_bucket");
          AppendLabelsWithLe(out, e->labels, std::to_string(h.bounds()[i]));
          out.append(" ").append(std::to_string(cumulative)).append("\n");
        }
        cumulative += h.BucketCount(h.bounds().size());
        out.append(e->name).append("_bucket");
        AppendLabelsWithLe(out, e->labels, "+Inf");
        out.append(" ").append(std::to_string(cumulative)).append("\n");
        out.append(e->name).append("_sum");
        AppendLabels(out, e->labels);
        out.append(" ").append(std::to_string(h.Sum())).append("\n");
        out.append(e->name).append("_count");
        AppendLabels(out, e->labels);
        out.append(" ").append(std::to_string(h.Count())).append("\n");
        break;
      }
    }
  }
  return out;
}

}  // namespace omega
