// Shared pieces of the benchmark driver: command-line arguments, the
// generated input files, timed dataset set-up through the public load /
// index / snapshot API, summary statistics, and the result line.
#ifndef OMEGA_PERFBENCH_HARNESS_H_
#define OMEGA_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/distance_sketch.h"
#include "index/index_manager.h"
#include "index/reachability_index.h"
#include "ontology/ontology.h"
#include "store/graph_store.h"

namespace perfbench {

struct Args {
  std::string mode;      // "gen" or "run"
  std::string workload;  // paper | join | served
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;       // where the generated inputs live
};

/// One generated dataset of a workload.
struct DatasetSpec {
  std::string name;  // file stem and label, e.g. "l4all" or "yago"
  bool yago = false;
  int l4all_level = 4;
  uint64_t seed = 0;
};

/// The datasets a workload needs, with generator seeds derived from the
/// benchmark seed.
std::vector<DatasetSpec> DatasetsFor(const std::string& workload,
                                     uint64_t seed);

/// Generates `spec` with src/datasets and writes its graph and ontology
/// as text files under `dir`.
omega::Status WriteInputs(const DatasetSpec& spec, const std::string& dir);

std::string GraphPath(const std::string& dir, const DatasetSpec& spec);
std::string OntologyPath(const std::string& dir, const DatasetSpec& spec);
std::string SnapshotPath(const std::string& dir, const DatasetSpec& spec);

/// A dataset set up from its text files: parsed, CSR-built, indexed.
struct Loaded {
  std::unique_ptr<omega::GraphStore> graph;
  std::unique_ptr<omega::Ontology> ontology;
  omega::ReachabilityIndex reach;
  omega::DistanceSketch sketch;
  double load_ms = 0;   // LoadGraph + LoadOntology
  double index_ms = 0;  // ReachabilityIndex::BuildAll + DistanceSketch::Build
};

omega::Result<std::unique_ptr<Loaded>> LoadFromText(const std::string& dir,
                                                    const DatasetSpec& spec);

/// A loaded dataset ready for QueryEngine: its indexes preloaded into an
/// IndexManager.
struct EngineDataset {
  std::unique_ptr<Loaded> loaded;
  std::unique_ptr<omega::IndexManager> indexes;
};

// --- statistics -------------------------------------------------------------

double Median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);
/// Harrell-Davis estimate of the p-th percentile, p in (0, 100): a mean of
/// every order statistic weighted by a Beta((n+1)p, (n+1)(1-p)) density, so
/// the estimate moves smoothly when the samples near the percentile are
/// sparse instead of jumping from one sample to the next.
double HarrellDavis(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);
/// VmHWM of this process in MB.
double PeakRssMb();

double NowMs();

// --- the result line ----------------------------------------------------------

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few check failures, to stderr
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const std::string& what);
  /// The last line of standard output: one JSON object.
  std::string Json() const;
};

}  // namespace perfbench

#endif  // OMEGA_PERFBENCH_HARNESS_H_
