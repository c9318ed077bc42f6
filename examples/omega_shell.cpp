// The console layer of the paper's Figure 1: an interactive shell that
// loads or generates a dataset, accepts CRP queries with APPROX/RELAX, and
// returns answers incrementally in batches — "results are returned
// incrementally to the user in order of their increasing edit or relaxation
// distance, with users being able to specify a limit on the number of
// results returned in each phase".
//
//   $ ./build/examples/omega_shell                  # starts with L4All L1
//   omega> .help
//   omega> (?X) <- APPROX (Librarians, type-, ?X)
//   omega> .more                                    # next batch
//
// Also usable non-interactively:
//   $ echo '(?X) <- RELAX (Librarians, type-, ?X)' | ./build/examples/omega_shell
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/query_service.h"

#include "common/strings.h"
#include "common/timer.h"
#include "datasets/l4all.h"
#include "datasets/yago.h"
#include "eval/query_engine.h"
#include "net/admin_server.h"
#include "net/ops_routes.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ontology/ontology_io.h"
#include "plan/plan_node.h"
#include "rpq/query_parser.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "store/graph_io.h"

using namespace omega;

namespace {

class Shell {
 public:
  Shell() {
    std::fprintf(stderr, "loading default dataset (L4All L1) ...\n");
    L4AllDataset dataset = GenerateL4All(L4AllScalePreset(1));
    dataset_ = Dataset::FromParts(std::move(dataset.graph),
                                  std::move(dataset.ontology));
    RebuildEngine();
  }

  int Run() {
    std::string line;
    while (Prompt(), std::getline(std::cin, line)) {
      const std::string text{StripWhitespace(line)};
      if (text.empty()) continue;
      if (text == ".quit" || text == ".exit") break;
      if (text[0] == '.') {
        Command(text);
      } else {
        Query(text);
      }
    }
    return 0;
  }

 private:
  void Prompt() const {
    if (interactive_) std::printf("omega> ");
  }

  const GraphStore& graph() const { return dataset_->graph(); }

  void RebuildEngine() {
    engine_ = std::make_unique<QueryEngine>(
        &dataset_->graph(), dataset_->ontology(), dataset_->indexes());
    stream_.reset();
    history_.clear();  // .serve replays are per-dataset
    std::fprintf(stderr, "dataset: %zu nodes, %zu edges, %zu labels%s\n",
                 graph().NumNodes(), graph().NumEdges(),
                 graph().labels().size(),
                 dataset_->backing() != nullptr ? " (mmap snapshot)" : "");
    // The admin-plane service keeps serving across `.gen`/`.load`/`.snapshot
    // load`: hot-swap it to the new dataset so /metrics, /statusz and
    // /readyz describe what the shell now holds.
    if (admin_service_ != nullptr) {
      const Status status = admin_service_->SwapDataset(dataset_);
      if (status.ok()) {
        std::fprintf(stderr, "admin service swapped to the new dataset "
                             "(epoch %llu)\n",
                     static_cast<unsigned long long>(
                         admin_service_->dataset_epoch()));
      } else {
        std::printf("admin service swap failed: %s\n",
                    status.ToString().c_str());
      }
    }
  }

  void Command(const std::string& text) {
    auto words = Split(text, ' ', /*trim=*/true);
    const std::string& cmd = words[0];
    if (cmd == ".help") {
      std::printf(
          "  <query>                   e.g. (?X) <- APPROX (UK, a-.b, ?X)\n"
          "  .more                     next batch of the current query\n"
          "  .batch N                  answers per batch (default 10)\n"
          "  .gen l4all LEVEL          generate L4All L1..L4\n"
          "  .gen yago SCALE           generate the YAGO-like graph\n"
          "  .load GRAPH [ONTOLOGY]    load omega-graph-v1 / ontology files\n"
          "  .save GRAPH [ONTOLOGY]    save the current dataset\n"
          "  .snapshot save FILE       write the dataset as a binary snapshot\n"
          "  .snapshot load FILE       mmap-open a snapshot as the dataset\n"
          "  .snapshot info FILE       print a snapshot's header + sections\n"
          "  .swap FILE [W [C [R]]]    replay this session's queries through\n"
          "                            a QueryService and hot-swap to the\n"
          "                            snapshot FILE mid-run (epoch demo)\n"
          "  .costs INS DEL SUB        APPROX edit costs (default 1 1 1)\n"
          "  .opt da|disjunction on|off   toggle the §4.3 optimisations\n"
          "  .plan bushy|textual       join-order planning mode\n"
          "  .explain QUERY            show the chosen plan with estimates\n"
          "  .explain analyze QUERY    run QUERY to completion and show the\n"
          "                            plan with estimated vs actual rows\n"
          "  .metrics [FILE]           Prometheus-style metrics exposition\n"
          "  .trace on|off|show|save FILE   per-query trace spans (JSON)\n"
          "  .admin PORT [SLOW_US]     start the ops-plane HTTP server on\n"
          "                            127.0.0.1:PORT (0 = ephemeral) with a\n"
          "                            persistent QueryService + flight\n"
          "                            recorder (slow threshold SLOW_US)\n"
          "  .admin stop               shut the admin server down\n"
          "  .events [N]               recent structured events (swaps,\n"
          "                            snapshot opens, rejections, ...)\n"
          "  .events sink FILE         append events to FILE as JSONL\n"
          "  .slowlog [N]              flight-recorder slow-query log\n"
          "  .budget N                 live-tuple budget (0 = unlimited)\n"
          "  .serve [W [C [R]]]        replay this session's queries through a\n"
          "                            QueryService: W workers, C client\n"
          "                            threads, R requests each (default 4 4 25)\n"
          "  .stats                    per-operator counters of the last query\n"
          "  .node LABEL               inspect a node's edges\n"
          "  .quit\n");
    } else if (cmd == ".explain" && words.size() >= 3 &&
               words[1] == "analyze") {
      std::vector<std::string> rest(words.begin() + 2, words.end());
      ExplainAnalyze(Join(rest, " "));
    } else if (cmd == ".explain" && words.size() >= 2) {
      // Query text may contain spaces: rejoin the remaining words.
      std::vector<std::string> rest(words.begin() + 1, words.end());
      Explain(Join(rest, " "));
    } else if (cmd == ".metrics") {
      // What `GET /metrics` renders: the process-wide families, including
      // the service families `.serve` counts into Global().
      const std::string rendered =
          RenderMetrics(MetricsRegistry::Global(), admin_service_.get());
      if (words.size() >= 2) {
        std::FILE* f = std::fopen(words[1].c_str(), "w");
        if (f == nullptr) {
          std::printf("cannot open %s\n", words[1].c_str());
          return;
        }
        std::fwrite(rendered.data(), 1, rendered.size(), f);
        std::fclose(f);
        std::printf("wrote %zu bytes to %s\n", rendered.size(),
                    words[1].c_str());
      } else {
        std::printf("%s", rendered.c_str());
      }
    } else if (cmd == ".trace" && words.size() >= 2) {
      Trace(words);
    } else if (cmd == ".admin") {
      if (words.size() >= 2 && words[1] == "stop") {
        StopAdmin();
      } else if (words.size() >= 2) {
        const int port = std::atoi(words[1].c_str());
        if (port < 0 || port > 65535) {
          std::printf("port must be 0..65535 (0 = ephemeral)\n");
          return;
        }
        const uint64_t slow_us =
            words.size() > 2
                ? static_cast<uint64_t>(std::atoll(words[2].c_str()))
                : 0;
        StartAdmin(static_cast<uint16_t>(port), slow_us);
      } else if (admin_server_ != nullptr) {
        std::printf("admin server on http://%s:%u/ (.admin stop to stop)\n",
                    admin_server_->bind_address().c_str(),
                    admin_server_->port());
      } else {
        std::printf("admin server not running (.admin PORT to start)\n");
      }
    } else if (cmd == ".events") {
      if (words.size() >= 3 && words[1] == "sink") {
        const Status status = EventLog::Global()->AttachJsonlSink(words[2]);
        if (status.ok()) {
          std::printf("events now appended to %s as JSONL\n",
                      words[2].c_str());
        } else {
          std::printf("%s\n", status.ToString().c_str());
        }
        return;
      }
      const size_t max =
          words.size() > 1
              ? static_cast<size_t>(std::max(1, std::atoi(words[1].c_str())))
              : 32;
      const std::string text = EventLog::Global()->ToText(max);
      if (text.empty()) {
        std::printf("(no events recorded yet)\n");
      } else {
        std::printf("%s", text.c_str());
      }
    } else if (cmd == ".slowlog") {
      FlightRecorder* recorder =
          flight_recorder_ != nullptr
              ? flight_recorder_.get()
              : EffectiveFlightRecorder(admin_service_.get());
      if (recorder == nullptr) {
        std::printf("no flight recorder (start one with .admin PORT)\n");
        return;
      }
      const size_t max =
          words.size() > 1
              ? static_cast<size_t>(std::max(1, std::atoi(words[1].c_str())))
              : 16;
      std::printf("%s", recorder->SlowLogText(max).c_str());
    } else if (cmd == ".plan" && words.size() == 2) {
      if (words[1] == "textual") {
        options_.plan_mode = PlanMode::kTextual;
      } else if (words[1] == "bushy") {
        options_.plan_mode = PlanMode::kGreedyBushy;
      } else {
        std::printf("plan mode must be 'bushy' or 'textual'\n");
        return;
      }
      std::printf("plan mode: %s\n", words[1].c_str());
    } else if (cmd == ".more") {
      Fetch();
    } else if (cmd == ".batch" && words.size() == 2) {
      batch_size_ = std::max(1, std::atoi(words[1].c_str()));
      std::printf("batch size %zu\n", batch_size_);
    } else if (cmd == ".gen" && words.size() >= 2 && words[1] == "l4all") {
      const int level = words.size() > 2 ? std::atoi(words[2].c_str()) : 1;
      if (level < 1 || level > 4) {
        std::printf("level must be 1..4\n");
        return;
      }
      L4AllDataset dataset = GenerateL4All(L4AllScalePreset(level));
      dataset_ = Dataset::FromParts(std::move(dataset.graph),
                                    std::move(dataset.ontology));
      RebuildEngine();
    } else if (cmd == ".gen" && words.size() >= 2 && words[1] == "yago") {
      YagoOptions options;
      if (words.size() > 2) options.scale = std::atof(words[2].c_str());
      YagoDataset dataset = GenerateYago(options);
      dataset_ = Dataset::FromParts(std::move(dataset.graph),
                                    std::move(dataset.ontology));
      RebuildEngine();
    } else if (cmd == ".load" && words.size() >= 2) {
      Result<GraphStore> graph = LoadGraph(words[1]);
      if (!graph.ok()) {
        std::printf("%s\n", graph.status().ToString().c_str());
        return;
      }
      std::optional<Ontology> ontology;
      if (words.size() > 2) {
        Result<Ontology> loaded = LoadOntology(words[2]);
        if (!loaded.ok()) {
          std::printf("%s\n", loaded.status().ToString().c_str());
          return;
        }
        ontology = std::move(loaded).value();
      } else {
        ontology = Ontology();  // empty: RELAX unavailable
      }
      dataset_ = Dataset::FromParts(std::move(graph).value(),
                                    std::move(ontology));
      RebuildEngine();
    } else if (cmd == ".save" && words.size() >= 2) {
      Status status = SaveGraph(graph(), words[1]);
      if (status.ok() && words.size() > 2) {
        if (dataset_->ontology() == nullptr) {
          std::printf("no ontology to save\n");
          return;
        }
        status = SaveOntology(*dataset_->ontology(), words[2]);
      }
      std::printf("%s\n", status.ToString().c_str());
    } else if (cmd == ".snapshot" && words.size() == 3) {
      Snapshot(words[1], words[2]);
    } else if (cmd == ".swap" && words.size() >= 2) {
      const size_t workers =
          words.size() > 2 ? std::max(1, std::atoi(words[2].c_str())) : 4;
      const size_t clients =
          words.size() > 3 ? std::max(1, std::atoi(words[3].c_str())) : 4;
      const size_t repeat =
          words.size() > 4 ? std::max(1, std::atoi(words[4].c_str())) : 25;
      SwapDemo(words[1], workers, clients, repeat);
    } else if (cmd == ".costs" && words.size() == 4) {
      options_.evaluator.approx.insertion_cost = std::atoi(words[1].c_str());
      options_.evaluator.approx.deletion_cost = std::atoi(words[2].c_str());
      options_.evaluator.approx.substitution_cost =
          std::atoi(words[3].c_str());
      std::printf("APPROX costs: ins=%d del=%d sub=%d\n",
                  options_.evaluator.approx.insertion_cost,
                  options_.evaluator.approx.deletion_cost,
                  options_.evaluator.approx.substitution_cost);
    } else if (cmd == ".opt" && words.size() == 3) {
      const bool on = words[2] == "on";
      if (words[1] == "da") {
        options_.distance_aware = on;
      } else if (words[1] == "disjunction") {
        options_.decompose_alternation = on;
      }
      std::printf("distance-aware=%d decompose-alternation=%d\n",
                  options_.distance_aware, options_.decompose_alternation);
    } else if (cmd == ".budget" && words.size() == 2) {
      options_.evaluator.max_live_tuples =
          static_cast<size_t>(std::atoll(words[1].c_str()));
      std::printf("budget %zu live tuples\n",
                  options_.evaluator.max_live_tuples);
    } else if (cmd == ".serve") {
      const size_t workers =
          words.size() > 1 ? std::max(1, std::atoi(words[1].c_str())) : 4;
      const size_t clients =
          words.size() > 2 ? std::max(1, std::atoi(words[2].c_str())) : 4;
      const size_t repeat =
          words.size() > 3 ? std::max(1, std::atoi(words[3].c_str())) : 25;
      Serve(workers, clients, repeat);
    } else if (cmd == ".stats") {
      if (stream_ == nullptr) {
        std::printf("no active query\n");
        return;
      }
      if (stream_->plan() != nullptr) {
        std::printf("%s", stream_->ExplainString().c_str());
      }
      const EvaluatorStats stats = stream_->stats();
      std::printf(
          "tuples popped %llu, pushed %llu, expansions %llu, neighbour "
          "fetches %llu, seeds %llu, max |D_R| %llu, max join live %llu, "
          "rounds %llu\n",
          static_cast<unsigned long long>(stats.tuples_popped),
          static_cast<unsigned long long>(stats.tuples_pushed),
          static_cast<unsigned long long>(stats.succ_expansions),
          static_cast<unsigned long long>(stats.neighbor_group_fetches),
          static_cast<unsigned long long>(stats.seeds_added),
          static_cast<unsigned long long>(stats.max_dictionary_size),
          static_cast<unsigned long long>(stats.max_join_live),
          static_cast<unsigned long long>(stats.rounds));
    } else if (cmd == ".node" && words.size() >= 2) {
      // Node labels may contain spaces: rejoin the remaining words.
      std::vector<std::string> rest(words.begin() + 1, words.end());
      InspectNode(Join(rest, " "));
    } else {
      std::printf("unknown command (try .help)\n");
    }
  }

  void InspectNode(const std::string& label) {
    auto node = graph().FindNode(label);
    if (!node) {
      std::printf("no node labelled '%s'\n", label.c_str());
      return;
    }
    std::printf("node #%u '%s', degree %zu\n", *node, label.c_str(),
                graph().Degree(*node));
    for (LabelId l = 0; l < graph().labels().size(); ++l) {
      for (NodeId m : graph().Neighbors(*node, l, Direction::kOutgoing)) {
        std::printf("  --%s--> %s\n",
                    std::string(graph().labels().Name(l)).c_str(),
                    std::string(graph().NodeLabel(m)).c_str());
      }
      for (NodeId m : graph().Neighbors(*node, l, Direction::kIncoming)) {
        std::printf("  <--%s-- %s\n",
                    std::string(graph().labels().Name(l)).c_str(),
                    std::string(graph().NodeLabel(m)).c_str());
      }
    }
  }

  void Snapshot(const std::string& verb, const std::string& path) {
    if (verb == "save") {
      Timer timer;
      const Status status =
          WriteSnapshot(graph(), dataset_->ontology(), path);
      if (!status.ok()) {
        std::printf("%s\n", status.ToString().c_str());
        return;
      }
      std::printf("wrote %s in %.1f ms\n", path.c_str(), timer.ElapsedMs());
    } else if (verb == "load") {
      Timer timer;
      Result<std::shared_ptr<const Dataset>> dataset =
          SnapshotReader::Open(path);
      if (!dataset.ok()) {
        std::printf("%s\n", dataset.status().ToString().c_str());
        return;
      }
      dataset_ = std::move(dataset).value();
      std::fprintf(stderr, "opened %s in %.1f ms\n", path.c_str(),
                   timer.ElapsedMs());
      RebuildEngine();
    } else if (verb == "info") {
      Result<SnapshotInfo> info = SnapshotReader::Inspect(path);
      if (!info.ok()) {
        std::printf("%s\n", info.status().ToString().c_str());
        return;
      }
      std::printf("%s", info->ToString().c_str());
    } else {
      std::printf(".snapshot verb must be save, load or info\n");
    }
  }

  /// Hot-swap demonstration: replays the session's queries like `.serve`,
  /// but halfway through the run another thread calls SwapDataset() with
  /// the snapshot at `path` — in-flight queries drain on the old epoch,
  /// later admissions answer from the new one, and the per-epoch counts
  /// show the cutover. The shell's own dataset/engine are left untouched.
  void SwapDemo(const std::string& path, size_t workers, size_t clients,
                size_t repeat) {
    if (history_.empty()) {
      std::printf(
          "no queries to replay yet — run a few queries first, then .swap\n");
      return;
    }
    Result<std::shared_ptr<const Dataset>> next = SnapshotReader::Open(path);
    if (!next.ok()) {
      std::printf("%s\n", next.status().ToString().c_str());
      return;
    }
    QueryServiceOptions service_options;
    service_options.num_workers = workers;
    service_options.max_queue = std::max<size_t>(64, clients * 2);
    service_options.engine = options_;
    // Its own registry, not Global(): it may run beside the admin-plane
    // service, and its table reports this replay and its swap alone.
    QueryService service(dataset_, service_options);

    const size_t total = clients * repeat;
    std::atomic<size_t> ok{0}, errors{0}, submitted{0};
    std::atomic<size_t> epoch_counts[2] = {{0}, {0}};
    Timer timer;
    std::thread swapper([&] {
      // Swap once roughly mid-run.
      while (submitted.load() < total / 2) {
        std::this_thread::yield();
      }
      const Status status = service.SwapDataset(*next);
      if (!status.ok()) {
        std::printf("swap failed: %s\n", status.ToString().c_str());
      }
    });
    std::vector<std::thread> client_threads;
    client_threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        for (size_t r = 0; r < repeat; ++r) {
          QueryRequest request;
          request.query = Clone(history_[(c + r) % history_.size()]);
          request.top_k = batch_size_;
          request.bypass_cache = (c + r) % 4 == 0;
          ++submitted;
          const QueryResponse response =
              service.Execute(std::move(request));
          if (response.status.ok()) {
            ++ok;
            ++epoch_counts[response.epoch % 2];
          } else {
            ++errors;
          }
        }
      });
    }
    for (std::thread& t : client_threads) t.join();
    swapper.join();
    const double elapsed_ms = timer.ElapsedMs();

    std::printf(
        "%zu requests on %zu workers in %.1f ms => %.0f qps; %zu ok, "
        "%zu failed\n",
        total, service.num_workers(), elapsed_ms,
        elapsed_ms > 0 ? 1000.0 * static_cast<double>(total) / elapsed_ms
                       : 0.0,
        ok.load(), errors.load());
    std::printf(
        "hot swap to '%s': %zu answers served by epoch 0 (old dataset), "
        "%zu by epoch 1 (snapshot)\n",
        path.c_str(), epoch_counts[0].load(), epoch_counts[1].load());
    std::printf("%s", service.stats().ToString().c_str());
  }

  void Explain(const std::string& text) {
    Result<omega::Query> query = ParseQuery(text);
    if (!query.ok()) {
      std::printf("%s\n", query.status().ToString().c_str());
      return;
    }
    Result<std::string> rendered = engine_->ExplainQuery(*query, options_);
    if (!rendered.ok()) {
      std::printf("%s\n", rendered.status().ToString().c_str());
      return;
    }
    std::printf("%s", rendered->c_str());
  }

  /// EXPLAIN ANALYZE: executes the query to completion (answers are counted,
  /// not printed) and renders the plan tree with each operator's estimated
  /// vs actual cardinality and the mis-estimate ratio.
  void ExplainAnalyze(const std::string& text) {
    Result<omega::Query> query = ParseQuery(text);
    if (!query.ok()) {
      std::printf("%s\n", query.status().ToString().c_str());
      return;
    }
    QueryEngineOptions options = options_;
    if (trace_enabled_) {
      trace_ = std::make_unique<TraceRecorder>();
      options.evaluator.trace = trace_.get();
    }
    Timer timer;
    Result<std::unique_ptr<QueryResultStream>> stream =
        engine_->Execute(*query, options);
    if (!stream.ok()) {
      std::printf("%s\n", stream.status().ToString().c_str());
      return;
    }
    size_t answers = 0;
    QueryAnswer answer;
    while ((*stream)->Next(&answer)) ++answers;
    const double elapsed_ms = timer.ElapsedMs();
    if (!(*stream)->status().ok()) {
      std::printf("query failed: %s\n",
                  (*stream)->status().ToString().c_str());
      return;
    }
    std::printf("%s", (*stream)->ExplainString().c_str());
    std::printf("(%zu answers in %.2f ms)\n", answers, elapsed_ms);
    if (trace_ != nullptr && (*stream)->plan() != nullptr) {
      RecordOperatorTrace(*(*stream)->plan(), trace_.get());
    }
  }

  void Trace(const std::vector<std::string>& words) {
    const std::string& verb = words[1];
    if (verb == "on") {
      trace_enabled_ = true;
      std::printf("tracing on: each query records spans (.trace show)\n");
    } else if (verb == "off") {
      trace_enabled_ = false;
      trace_.reset();
      std::printf("tracing off\n");
    } else if (verb == "show") {
      const std::string json = CurrentTraceJson();
      if (json.empty()) {
        std::printf("no trace recorded (.trace on, then run a query)\n");
        return;
      }
      std::printf("%s\n", json.c_str());
    } else if (verb == "save" && words.size() >= 3) {
      const std::string json = CurrentTraceJson();
      if (json.empty()) {
        std::printf("no trace recorded (.trace on, then run a query)\n");
        return;
      }
      std::FILE* f = std::fopen(words[2].c_str(), "w");
      if (f == nullptr) {
        std::printf("cannot open %s\n", words[2].c_str());
        return;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %zu bytes to %s\n", json.size() + 1,
                  words[2].c_str());
    } else {
      std::printf(".trace verb must be on, off, show or save FILE\n");
    }
  }

  /// `.trace show`/`save` source: the interactively recorded trace when one
  /// exists, otherwise the newest slow-query trace captured by the admin
  /// plane's flight recorder (so `.trace save` works on served traffic too).
  std::string CurrentTraceJson() const {
    if (trace_ != nullptr) return trace_->ToJson();
    const FlightRecorder* recorder =
        flight_recorder_ != nullptr
            ? flight_recorder_.get()
            : EffectiveFlightRecorder(admin_service_.get());
    if (recorder == nullptr) return "";
    const std::vector<FlightRecorder::SlowQuery> slow = recorder->Slow(0);
    for (auto it = slow.rbegin(); it != slow.rend(); ++it) {
      if (!it->trace_json.empty()) return it->trace_json;
    }
    return "";
  }

  void StartAdmin(uint16_t port, uint64_t slow_threshold_us) {
    if (admin_server_ != nullptr) {
      std::printf("admin server already on http://%s:%u/ (.admin stop "
                  "first)\n",
                  admin_server_->bind_address().c_str(),
                  admin_server_->port());
      return;
    }
    FlightRecorderOptions recorder_options;
    if (slow_threshold_us > 0) {
      recorder_options.slow_threshold_us = slow_threshold_us;
    }
    flight_recorder_ =
        std::make_unique<FlightRecorder>(recorder_options);
    QueryServiceOptions service_options;
    service_options.num_workers = 4;
    service_options.engine = options_;
    service_options.flight_recorder = flight_recorder_.get();
    // `.serve` traffic lands in Global() with or without the admin plane,
    // so `.metrics` and /metrics render one set of service families.
    service_options.metrics = MetricsRegistry::Global();
    admin_service_ = std::make_unique<QueryService>(dataset_,
                                                    service_options);
    AdminServerOptions server_options;
    server_options.port = port;
    admin_server_ = std::make_unique<AdminServer>(server_options);
    OpsPlaneOptions ops;
    ops.recorder = flight_recorder_.get();
    ops.service = admin_service_.get();
    RegisterOpsRoutes(admin_server_.get(), ops);
    const Status status = admin_server_->Start();
    if (!status.ok()) {
      std::printf("%s\n", status.ToString().c_str());
      admin_server_.reset();
      admin_service_.reset();
      return;
    }
    std::printf(
        "admin server on http://%s:%u/ — /metrics /healthz /readyz "
        "/statusz /tracez /eventz (slow threshold %llu us; .admin stop "
        "to shut down)\n",
        admin_server_->bind_address().c_str(), admin_server_->port(),
        static_cast<unsigned long long>(
            flight_recorder_->slow_threshold_us()));
  }

  void StopAdmin() {
    if (admin_server_ == nullptr) {
      std::printf("admin server not running\n");
      return;
    }
    // Server first (its handlers read the service), then the service; the
    // flight recorder stays so `.slowlog` keeps working after `.admin stop`.
    admin_server_->Shutdown();
    admin_server_.reset();
    admin_service_.reset();
    std::printf("admin server stopped\n");
  }

  /// The Figure-1 console serves one user; `.serve` shows the same engine
  /// behind the new serving layer: it replays this session's queries from
  /// `clients` concurrent threads against a QueryService sharing the
  /// current (frozen) graph + ontology, then prints throughput and the
  /// per-class serving statistics.
  void Serve(size_t workers, size_t clients, size_t repeat) {
    if (history_.empty()) {
      std::printf(
          "no queries to replay yet — run a few queries first, then .serve\n");
      return;
    }
    // With the admin plane up, replay through its persistent service so the
    // traffic lands in /metrics, /statusz and the flight recorder; otherwise
    // spin up an ephemeral service as before.
    std::unique_ptr<QueryService> local_service;
    QueryService* service = admin_service_.get();
    if (service != nullptr) {
      std::printf("(replaying through the admin-plane service: %zu workers)\n",
                  service->num_workers());
    } else {
      QueryServiceOptions service_options;
      service_options.num_workers = workers;
      service_options.max_queue = std::max<size_t>(64, clients * 2);
      service_options.engine = options_;
      // Counts outlive this service in Global(), so `.metrics` shows them;
      // the stats table below is therefore the session's, as with the
      // admin plane's service.
      service_options.metrics = MetricsRegistry::Global();
      local_service =
          std::make_unique<QueryService>(dataset_, service_options);
      service = local_service.get();
    }

    std::atomic<size_t> ok{0}, errors{0};
    Timer timer;
    std::vector<std::thread> client_threads;
    client_threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        for (size_t r = 0; r < repeat; ++r) {
          QueryRequest request;
          request.query = Clone(history_[(c + r) % history_.size()]);
          request.top_k = batch_size_;
          // Every fourth request skips the cache so the engine keeps
          // seeing concurrent load even once everything is cached.
          request.bypass_cache = (c + r) % 4 == 0;
          if (service->Execute(std::move(request)).status.ok()) {
            ++ok;
          } else {
            ++errors;
          }
        }
      });
    }
    for (std::thread& t : client_threads) t.join();
    const double elapsed_ms = timer.ElapsedMs();

    const size_t total = clients * repeat;
    std::printf(
        "%zu requests (%zu distinct queries) on %zu workers in %.1f ms "
        "=> %.0f qps; %zu ok, %zu failed\n",
        total, history_.size(), service->num_workers(), elapsed_ms,
        elapsed_ms > 0 ? 1000.0 * static_cast<double>(total) / elapsed_ms
                       : 0.0,
        ok.load(), errors.load());
    std::printf("%s", service->stats().ToString().c_str());
  }

  void Query(const std::string& text) {
    Result<omega::Query> query = ParseQuery(text);
    if (!query.ok()) {
      std::printf("%s\n", query.status().ToString().c_str());
      return;
    }
    // Remember the query for `.serve` replay (bounded, deduplicated on the
    // cache key so replays mix distinct queries, not one repeated line).
    if (history_.size() < 32) {
      const std::string key = query->CanonicalKey();
      bool known = false;
      for (const omega::Query& q : history_) {
        if (q.CanonicalKey() == key) {
          known = true;
          break;
        }
      }
      if (!known) history_.push_back(Clone(*query));
    }
    QueryEngineOptions options = options_;
    if (trace_enabled_) {
      // A fresh recorder per query: the engine records plan / compile /
      // index-probe spans into it, Fetch adds the operator totals once the
      // stream drains, and `.trace show` dumps the JSON.
      trace_ = std::make_unique<TraceRecorder>();
      options.evaluator.trace = trace_.get();
    }
    Result<std::unique_ptr<QueryResultStream>> stream =
        engine_->Execute(*query, options);
    if (!stream.ok()) {
      std::printf("%s\n", stream.status().ToString().c_str());
      return;
    }
    stream_ = std::move(stream).value();
    emitted_ = 0;
    finished_ = false;
    Fetch();
  }

  void Fetch() {
    if (stream_ == nullptr) {
      std::printf("no active query\n");
      return;
    }
    if (finished_) {
      std::printf("(no more answers; %zu total)\n", emitted_);
      return;
    }
    Timer timer;
    QueryAnswer answer;
    size_t in_batch = 0;
    while (in_batch < batch_size_ && stream_->Next(&answer)) {
      ++in_batch;
      std::printf("  #%zu  d=%d ", ++emitted_, answer.distance);
      for (size_t i = 0; i < answer.bindings.size(); ++i) {
        std::printf(" ?%s=%s", stream_->head()[i].c_str(),
                    std::string(graph().NodeLabel(answer.bindings[i]))
                        .c_str());
      }
      std::printf("\n");
    }
    if (!stream_->status().ok()) {
      std::printf("query failed: %s\n",
                  stream_->status().ToString().c_str());
      stream_.reset();
      return;
    }
    if (in_batch < batch_size_) {
      // Keep the drained stream around: .stats still renders its plan tree
      // with the per-operator counters of the completed run.
      finished_ = true;
      if (trace_enabled_ && trace_ != nullptr && stream_->plan() != nullptr) {
        RecordOperatorTrace(*stream_->plan(), trace_.get());
      }
      std::printf("(no more answers; %zu total, %.2f ms)\n", emitted_,
                  timer.ElapsedMs());
    } else {
      std::printf("(batch of %zu in %.2f ms; .more for the next batch)\n",
                  in_batch, timer.ElapsedMs());
    }
  }

  /// The current dataset (owned in-memory build or mmap-backed snapshot);
  /// shared so `.serve`/`.swap` services and their in-flight queries keep
  /// it alive across a mid-session `.gen`/`.load`/`.snapshot load`.
  std::shared_ptr<const Dataset> dataset_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<QueryResultStream> stream_;
  std::vector<omega::Query> history_;  // session queries replayed by .serve
  QueryEngineOptions options_;
  size_t batch_size_ = 10;
  size_t emitted_ = 0;
  bool finished_ = false;
  bool trace_enabled_ = false;          // .trace on|off
  std::unique_ptr<TraceRecorder> trace_;  // last traced query's spans
  /// Ops plane (`.admin`): a shell-owned flight recorder feeding a
  /// persistent QueryService, exposed over the embedded HTTP server.
  /// Declaration order matters — members destroy in reverse, so the server
  /// (whose handlers read the service) goes down first, then the service,
  /// then the recorder it writes into.
  std::unique_ptr<FlightRecorder> flight_recorder_;
  std::unique_ptr<QueryService> admin_service_;
  std::unique_ptr<AdminServer> admin_server_;
  bool interactive_ = isatty(0);
};

}  // namespace

int main() { return Shell().Run(); }
