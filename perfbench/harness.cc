#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "datasets/l4all.h"
#include "datasets/yago.h"
#include "ontology/ontology_io.h"
#include "store/graph_io.h"

namespace perfbench {

std::vector<DatasetSpec> DatasetsFor(const std::string& workload,
                                     uint64_t seed) {
  // L4All's shape is set by the 21 random seed timelines every other
  // timeline copies, so its answer counts swing by a quarter from one
  // generator seed to the next (L4 Q5: 450k vs 578k answers). It keeps the
  // generator's canonical seed 42 (the figure benches' dataset); served
  // swaps to seed 43. YAGO's shape is stable across generator seeds, so it
  // follows the benchmark seed.
  constexpr uint64_t kL4AllSeed = 42;
  const uint64_t yago_seed = seed * 1000003 + 29;
  if (workload == "paper") {
    return {{"l4all", false, 4, kL4AllSeed}, {"yago", true, 0, yago_seed}};
  }
  if (workload == "join") {
    return {{"l4all", false, 3, kL4AllSeed}, {"yago", true, 0, yago_seed}};
  }
  if (workload == "served") {
    return {{"l4all-a", false, 3, kL4AllSeed},
            {"l4all-b", false, 3, kL4AllSeed + 1}};
  }
  return {};
}

std::string GraphPath(const std::string& dir, const DatasetSpec& spec) {
  return dir + "/" + spec.name + ".graph";
}
std::string OntologyPath(const std::string& dir, const DatasetSpec& spec) {
  return dir + "/" + spec.name + ".ontology";
}
std::string SnapshotPath(const std::string& dir, const DatasetSpec& spec) {
  return dir + "/" + spec.name + ".snap";
}

omega::Status WriteInputs(const DatasetSpec& spec, const std::string& dir) {
  if (spec.yago) {
    omega::YagoOptions options;
    options.seed = spec.seed;
    omega::YagoDataset d = omega::GenerateYago(options);
    OMEGA_RETURN_NOT_OK(omega::SaveGraph(d.graph, GraphPath(dir, spec)));
    return omega::SaveOntology(d.ontology, OntologyPath(dir, spec));
  }
  omega::L4AllOptions options = omega::L4AllScalePreset(spec.l4all_level);
  options.seed = spec.seed;
  omega::L4AllDataset d = omega::GenerateL4All(options);
  OMEGA_RETURN_NOT_OK(omega::SaveGraph(d.graph, GraphPath(dir, spec)));
  return omega::SaveOntology(d.ontology, OntologyPath(dir, spec));
}

omega::Result<std::unique_ptr<Loaded>> LoadFromText(const std::string& dir,
                                                    const DatasetSpec& spec) {
  auto out = std::make_unique<Loaded>();
  double t0 = NowMs();
  omega::Result<omega::GraphStore> graph =
      omega::LoadGraph(GraphPath(dir, spec));
  if (!graph.ok()) return graph.status();
  omega::Result<omega::Ontology> ontology =
      omega::LoadOntology(OntologyPath(dir, spec));
  if (!ontology.ok()) return ontology.status();
  out->graph = std::make_unique<omega::GraphStore>(std::move(graph).value());
  out->ontology =
      std::make_unique<omega::Ontology>(std::move(ontology).value());
  double t1 = NowMs();
  out->reach = omega::ReachabilityIndex::BuildAll(*out->graph);
  out->sketch = omega::DistanceSketch::Build(*out->graph);
  out->load_ms = t1 - t0;
  out->index_ms = NowMs() - t1;
  return out;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double HarrellDavis(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = (n + 1) * p / 100.0;
  const double b = (n + 1) * (1 - p / 100.0);
  // Order statistic i weighs the Beta(a, b) mass on ((i-1)/n, i/n], taken
  // at the midpoint; normalising drops the Beta function.
  std::vector<double> log_w(v.size());
  double max_log_w = -INFINITY;
  for (size_t i = 0; i < v.size(); ++i) {
    const double x = (static_cast<double>(i) + 0.5) / n;
    log_w[i] = (a - 1) * std::log(x) + (b - 1) * std::log1p(-x);
    max_log_w = std::max(max_log_w, log_w[i]);
  }
  double sum = 0, total = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double w = std::exp(log_w[i] - max_log_w);
    sum += w * v[i];
    total += w;
  }
  return sum / total;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 10) errors.push_back(what);
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
