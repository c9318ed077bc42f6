#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <atomic>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "automata/approx.h"
#include "automata/epsilon_removal.h"
#include "automata/relax.h"
#include "automata/thompson.h"
#include "checker.h"
#include "datasets/query_sets.h"
#include "eval/query_engine.h"
#include "obs/trace.h"
#include "plan/plan_node.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace perfbench {
namespace {

using omega::ConjunctMode;
using omega::Query;
using omega::QueryAnswer;
using omega::Status;
using omega::TraceRecorder;

constexpr size_t kTupleBudget = 20'000'000;  // the figure benches' '?' limit
constexpr int kProtocolRuns = 5;             // §4.1: five runs, first dropped
constexpr size_t kBatch = 10;                // §4.1: answers per batch
constexpr size_t kFlexibleTopK = 100;        // §4.1: flexible queries' cut
constexpr size_t kPage = 10;                 // served: one first page
constexpr int kSetups = 3;                   // setup_s is their median

// served: two closed-loop clients over two workers. Every kSwapEvery-th
// request (counted over both clients) is preceded by a hot swap, made
// inline by the client that sends it. Popularity is Zipf(kZipfS) over the
// fixed pool order; each client round is every pool entry once plus
// kRoundDraws popularity draws, shuffled. These give a cache hit ratio near
// 0.88: the median is a hit, and the 95th percentile falls among the misses
// of the cluster of ~3 ms first pages (L4 Q1/Q4-Q6), where the latency
// distribution is flat enough for it to repeat from run to run.
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr uint64_t kSwapEvery = 300;
constexpr double kZipfS = 1.0;
constexpr size_t kRoundDraws = 200;

uint64_t NextRandom(uint64_t* state) {  // SplitMix64
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

size_t Uniform(uint64_t* state, size_t n) { return NextRandom(state) % n; }

template <typename T>
void Shuffle(std::vector<T>* v, uint64_t* state) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[Uniform(state, i)]);
  }
}

const char* ModeName(ConjunctMode mode) {
  return mode == ConjunctMode::kExact
             ? "exact"
             : (mode == ConjunctMode::kApprox ? "approx" : "relax");
}

constexpr ConjunctMode kModes[] = {ConjunctMode::kExact, ConjunctMode::kApprox,
                                   ConjunctMode::kRelax};

// One distinct query of a workload.
struct Cell {
  std::string name;
  size_t dataset = 0;  // index into the workload's DatasetSpecs
  Query query;
  size_t limit = 0;    // answers wanted; 0 drains the stream
  bool all_exact = true;
};

omega::Result<Cell> MakeCell(std::string name, size_t dataset,
                             omega::Result<Query> query, size_t limit) {
  if (!query.ok()) {
    return Status::InvalidArgument(name + ": " + query.status().ToString());
  }
  Cell cell;
  cell.name = std::move(name);
  cell.dataset = dataset;
  cell.query = std::move(query).value();
  cell.limit = limit;
  for (const auto& c : cell.query.conjuncts) {
    cell.all_exact = cell.all_exact && c.mode == ConjunctMode::kExact;
  }
  return cell;
}

// --- the queries --------------------------------------------------------------

// Fig. 4 and Fig. 9 in every mode. YAGO Q4/APPROX is left out: it exhausts
// the tuple budget (the paper's own '?').
omega::Status PaperCells(std::vector<Cell>* cells) {
  const std::pair<const char*, const std::vector<omega::NamedQuery>*> sets[] =
      {{"l4all", &omega::L4AllQuerySet()}, {"yago", &omega::YagoQuerySet()}};
  for (size_t d = 0; d < 2; ++d) {
    for (const omega::NamedQuery& nq : *sets[d].second) {
      for (ConjunctMode mode : kModes) {
        if (d == 1 && nq.name == "Q4" && mode == ConjunctMode::kApprox) {
          continue;
        }
        auto cell = MakeCell(
            std::string(sets[d].first) + "." + nq.name + "." + ModeName(mode),
            d, omega::MakeSingleConjunctQuery(nq.conjunct, mode),
            mode == ConjunctMode::kExact ? 0 : kFlexibleTopK);
        if (!cell.ok()) return cell.status();
        cells->push_back(std::move(cell).value());
      }
    }
  }
  return Status::OK();
}

// Join templates: {0} is replaced by a constant drawn under the seed from
// the template's constant list. Dataset 0 is L4All, 1 is YAGO.
struct JoinTemplate {
  const char* name;
  size_t dataset;
  size_t instances;  // queries drawn for the join workload (0: served only)
  size_t served;     // queries drawn for the served pool (L4All only)
  const char* text;
  enum Constants { kTimeline, kOccupation, kSubject, kCity, kPrize, kCountry }
      constants;
};

const JoinTemplate kJoinTemplates[] = {
    // A selective closure probe joined to a variable-to-variable RELAX
    // conjunct: the planner's order and the rank join decide the cost
    // (hundreds of ms even for a first page, so not in the served pool).
    {"probe_relax_type", 0, 1, 0,
     "(?X, ?C) <- ({0}, next+, ?X), RELAX (?X, type, ?C)",
     JoinTemplate::kTimeline},
    // An exact closure from a constant (an index probe) and an exact chain.
    {"probe_exact_job", 0, 7, 2,
     "(?X, ?J) <- ({0}, next+, ?X), (?X, job, ?J)", JoinTemplate::kTimeline},
    {"exact_job_chain", 0, 8, 2,
     "(?E, ?S) <- ({0}, type-, ?J), (?E, job, ?J), (?J, sector, ?S)",
     JoinTemplate::kOccupation},
    {"subject_approx_next", 0, 3, 2,
     "(?E, ?F) <- ({0}, type-.qualif-, ?E), APPROX (?E, next, ?F)",
     JoinTemplate::kSubject},
    {"relax_subject_level", 0, 7, 2,
     "(?E, ?L) <- RELAX ({0}, type-, ?Q), (?E, qualif, ?Q), (?Q, level, ?L)",
     JoinTemplate::kSubject},
    {"born_relax_grad", 1, 7, 0,
     "(?P, ?U) <- ({0}, bornIn-, ?P), RELAX (?P, gradFrom, ?U)",
     JoinTemplate::kCity},
    {"prize_spouse_birthplace", 1, 7, 0,
     "(?P, ?C) <- ({0}, hasWonPrize-, ?P), (?P, marriedTo, ?Q), "
     "RELAX (?Q, bornIn, ?C), (?C, locatedIn, ?K)",
     JoinTemplate::kPrize},
    {"country_relax_events", 1, 3, 0,
     "(?X, ?Y) <- ({0}, locatedIn-, ?X), RELAX (?X, happenedIn-, ?Y)",
     JoinTemplate::kCountry},
};

// The constant of instance `i` of a template. Instances differ in cost, so
// each instance index keeps the same class of constant under every seed:
// L4All timelines copy one of 21 seed timelines (timeline t copies t mod 21),
// so the seed picks which copy of a fixed seed timeline to start from; the
// class and YAGO constants are fixed per instance, and YAGO itself is
// generated under the seed.
std::string DrawConstant(JoinTemplate::Constants kind, size_t i,
                         uint64_t* rng) {
  static const char* const kOccupations[] = {
      "Software Professionals", "Research Scientists", "Statisticians",
      "Analysts",               "Network Technicians", "Support Technicians",
      "Librarians",             "Web Developers"};
  static const char* const kSubjects[] = {
      "Information Systems", "Computer Science", "Software Engineering",
      "Artificial Intelligence", "Mathematics", "Statistics",
      "Operational Research", "Informatics"};
  constexpr size_t kL3Timelines = 5221;
  constexpr size_t kSeedTimelines = 21;
  switch (kind) {
    case JoinTemplate::kTimeline: {
      const size_t copy = Uniform(rng, kL3Timelines / kSeedTimelines);
      const size_t t = copy * kSeedTimelines + (i * 5) % kSeedTimelines + 1;
      return "Alumni " + std::to_string(t) + " Episode 1";
    }
    case JoinTemplate::kOccupation:
      return kOccupations[i % std::size(kOccupations)];
    case JoinTemplate::kSubject:
      return kSubjects[i % std::size(kSubjects)];
    case JoinTemplate::kCity:
      return "city_" + std::to_string(2 + 5 * i);
    case JoinTemplate::kPrize:
      return "prize_" + std::to_string(i % 8);
    case JoinTemplate::kCountry:
      return "country_" + std::to_string(3 + 2 * i);
  }
  return "";
}

std::string Instantiate(const char* text, const std::string& constant) {
  std::string out = text;
  out.replace(out.find("{0}"), 3, constant);
  return out;
}

// The join workload's queries, or (`served`) the served pool's.
omega::Status JoinCells(uint64_t seed, bool served, std::vector<Cell>* cells) {
  uint64_t rng = seed * 0x2545f4914f6cdd1dull + 3;
  for (const JoinTemplate& t : kJoinTemplates) {
    const size_t n = served ? t.served : t.instances;
    for (size_t i = 0; i < n; ++i) {
      const std::string constant = DrawConstant(t.constants, i, &rng);
      auto cell = MakeCell(std::string(t.name) + "[" + constant + "]",
                           t.dataset,
                           omega::ParseQuery(Instantiate(t.text, constant)),
                           kFlexibleTopK);
      if (!cell.ok()) return cell.status();
      cells->push_back(std::move(cell).value());
    }
  }
  return Status::OK();
}

// --- per-layer figures (traced runs) ------------------------------------------

int64_t Attr(const TraceRecorder::Span& span, std::string_view key) {
  for (const auto& a : span.attrs) {
    if (a.key == key) return a.value;
  }
  return 0;
}

// Span durations of one traced query, as the program recorded them.
struct TraceTimes {
  double plan_us = 0, compile_us = 0, execute_us = -1;
};

struct Layers {
  std::vector<double> load_ms, index_ms, write_ms, open_ms;
  std::vector<double> parse_us, automata_us;
  uint64_t automata_states = 0, automata_transitions = 0;
  std::vector<double> plan_us, compile_us, execute_us, next_ms;
  uint64_t probes = 0, fallbacks = 0;
  std::vector<double> log_est_error;
  uint64_t fetches = 0, popped = 0, pushed = 0, seeds = 0, emitted = 0;
  uint64_t dict_peak = 0;
  uint64_t join_pulls = 0, join_emits = 0, join_live_peak = 0;
  std::vector<double> queue_ms, exec_ms, cache_lookup_us, swap_ms;
  uint64_t hits = 0, lookups = 0;
  double drain_ms = 0;

  void AddStats(const omega::EvaluatorStats& s) {
    fetches += s.neighbor_group_fetches;
    popped += s.tuples_popped;
    pushed += s.tuples_pushed;
    seeds += s.seeds_added;
    emitted += s.answers_emitted;
    dict_peak = std::max<uint64_t>(dict_peak, s.max_dictionary_size);
  }

  // Reads one query's spans. Operator and index-probe events are counted
  // only when `counts` (once per distinct query, so counts repeat).
  TraceTimes AddTrace(const TraceRecorder& trace, bool counts) {
    TraceTimes t;
    const std::vector<TraceRecorder::Span> spans = trace.Snapshot();
    std::vector<const TraceRecorder::Span*> ops;
    for (const TraceRecorder::Span& s : spans) {
      if (s.name == "plan") {
        t.plan_us += s.dur_us;
        plan_us.push_back(s.dur_us);
      } else if (s.name == "compile") {
        t.compile_us += s.dur_us;
        compile_us.push_back(s.dur_us);
      } else if (s.name == "execute") {
        t.execute_us = s.dur_us;
      } else if (s.name == "cache_lookup") {
        cache_lookup_us.push_back(s.dur_us);
      } else if (s.name == "index_probe" && counts) {
        ++(Attr(s, "substituted") != 0 ? probes : fallbacks);
      } else if (s.name.rfind("op ", 0) == 0 && counts) {
        const double est = std::max<double>(1, Attr(s, "est_rows"));
        const double act = std::max<double>(1, Attr(s, "act_rows"));
        log_est_error.push_back(std::fabs(std::log(est / act)));
        ops.push_back(&s);
      }
    }
    size_t pos = 0;
    if (!ops.empty()) AddOperator(ops, &pos);
    return t;
  }

  // Operator events arrive in pre-order (leaves "op #i ...", joins with two
  // children). A join's event carries no pull count, so its pulls are the
  // rows its two inputs emitted. Returns the subtree root's emits.
  uint64_t AddOperator(const std::vector<const TraceRecorder::Span*>& ops,
                       size_t* pos) {
    if (*pos >= ops.size()) return 0;
    const TraceRecorder::Span& s = *ops[(*pos)++];
    const uint64_t emits = static_cast<uint64_t>(Attr(s, "emits"));
    if (s.name.rfind("op #", 0) == 0) return emits;
    join_pulls += AddOperator(ops, pos);
    join_pulls += AddOperator(ops, pos);
    join_emits += emits;
    join_live_peak = std::max<uint64_t>(
        join_live_peak, static_cast<uint64_t>(Attr(s, "live_peak")));
    return emits;
  }

  void Merge(const Layers& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&plan_us, o.plan_us);
    cat(&compile_us, o.compile_us);
    cat(&execute_us, o.execute_us);
    cat(&next_ms, o.next_ms);
    cat(&log_est_error, o.log_est_error);
    cat(&queue_ms, o.queue_ms);
    cat(&exec_ms, o.exec_ms);
    cat(&cache_lookup_us, o.cache_lookup_us);
    cat(&swap_ms, o.swap_ms);
    cat(&open_ms, o.open_ms);
    probes += o.probes;
    fallbacks += o.fallbacks;
    join_pulls += o.join_pulls;
    join_emits += o.join_emits;
    join_live_peak = std::max(join_live_peak, o.join_live_peak);
    hits += o.hits;
    lookups += o.lookups;
  }

  void Emit(Report* r) const {
    auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    r->Add("store.load_ms", Median(load_ms), "ms");
    r->Add("store.neighbor_fetches", static_cast<double>(fetches), "count");
    r->Add("index.build_ms", Median(index_ms), "ms");
    r->Add("index.probes", static_cast<double>(probes), "count");
    r->Add("index.fallbacks", static_cast<double>(fallbacks), "count");
    r->Add("snapshot.write_ms", Median(write_ms), "ms");
    r->Add("snapshot.open_ms", Median(open_ms), "ms");
    r->Add("rpq.parse_us", Median(parse_us), "us");
    r->Add("automata.build_us", Median(automata_us), "us");
    r->Add("automata.states", static_cast<double>(automata_states), "count");
    r->Add("automata.transitions", static_cast<double>(automata_transitions),
           "count");
    r->Add("plan.plan_us", Median(plan_us), "us");
    r->Add("plan.compile_us", Median(compile_us), "us");
    double log_sum = 0;
    for (double x : log_est_error) log_sum += x;
    r->Add("plan.est_error",
           log_est_error.empty()
               ? 1.0
               : std::exp(log_sum / static_cast<double>(log_est_error.size())),
           "ratio");
    r->Add("eval.execute_us", Median(execute_us), "us");
    r->Add("eval.next_ms", Median(next_ms), "ms");
    r->Add("eval.tuples_popped", static_cast<double>(popped), "count");
    r->Add("eval.tuples_pushed", static_cast<double>(pushed), "count");
    r->Add("eval.seeds", static_cast<double>(seeds), "count");
    r->Add("eval.pops_per_answer",
           ratio(static_cast<double>(popped), static_cast<double>(emitted)),
           "ratio");
    r->Add("eval.dict_peak", static_cast<double>(dict_peak), "count");
    r->Add("join.pulls_per_emit",
           ratio(static_cast<double>(join_pulls),
                 static_cast<double>(join_emits)),
           "ratio");
    r->Add("join.live_peak", static_cast<double>(join_live_peak), "count");
    r->Add("service.queue_wait_ms", Median(queue_ms), "ms");
    r->Add("service.exec_ms", Median(exec_ms), "ms");
    r->Add("service.cache_lookup_us", Median(cache_lookup_us), "us");
    r->Add("service.cache_hit_ratio",
           ratio(static_cast<double>(hits), static_cast<double>(lookups)),
           "ratio");
    r->Add("service.swap_ms", Median(swap_ms), "ms");
    r->Add("service.drain_ms", drain_ms, "ms");
  }
};

// An untraced run reports the end-to-end metrics. A traced run reports the
// per-layer metrics and shows its own end-to-end figures on standard error,
// whose difference from an untraced run is the tracing overhead.
void Finish(const Args& args, const Report& e2e, const Layers& layers,
            Report* report) {
  if (!args.trace) {
    report->metrics = e2e.metrics;
    return;
  }
  for (const auto& [name, value] : e2e.metrics) {
    std::fprintf(stderr, "perfbench: traced %s = %.6g %s\n", name.c_str(),
                 value.first, value.second.c_str());
  }
  layers.Emit(report);
}

// rpq and automata, measured by calling ParseQuery and the automaton
// builders on every distinct query (median of five calls each).
Status MeasureFrontEnd(const std::vector<Cell>& cells,
                       const std::vector<const omega::GraphStore*>& graphs,
                       const std::vector<const omega::Ontology*>& ontologies,
                       Layers* layers) {
  std::vector<std::unique_ptr<omega::BoundOntology>> bound;
  for (size_t d = 0; d < graphs.size(); ++d) {
    bound.push_back(
        std::make_unique<omega::BoundOntology>(ontologies[d], graphs[d]));
  }
  constexpr int kRepeats = 5;
  for (const Cell& cell : cells) {
    const std::string text = cell.query.ToString();
    std::vector<double> parse;
    for (int i = 0; i < kRepeats; ++i) {
      const double t0 = NowMs();
      omega::Result<Query> q = omega::ParseQuery(text);
      parse.push_back((NowMs() - t0) * 1000);
      if (!q.ok()) return q.status();
    }
    layers->parse_us.push_back(Median(parse));
    const omega::BoundOntology& ont = *bound[cell.dataset];
    for (const omega::Conjunct& c : cell.query.conjuncts) {
      // As the evaluator does: (?X, R, C) runs as (C, R-, ?X).
      omega::RegexPtr reversed;
      const omega::RegexNode* regex = c.regex.get();
      if (c.source.is_variable && !c.target.is_variable) {
        reversed = omega::ReverseRegex(*c.regex);
        regex = reversed.get();
      }
      std::vector<double> build;
      omega::Nfa nfa;
      for (int i = 0; i < kRepeats; ++i) {
        const double t0 = NowMs();
        nfa = omega::RemoveEpsilons(omega::BuildThompsonNfa(
            *regex, graphs[cell.dataset]->labels(), &ont));
        if (c.mode == ConjunctMode::kApprox) {
          nfa = omega::BuildApproxAutomaton(nfa, omega::ApproxOptions{});
        } else if (c.mode == ConjunctMode::kRelax) {
          nfa = omega::BuildRelaxAutomaton(nfa, ont, omega::RelaxOptions{});
        }
        build.push_back((NowMs() - t0) * 1000);
      }
      layers->automata_us.push_back(Median(build));
      layers->automata_states += nfa.NumStates();
      layers->automata_transitions += nfa.NumTransitions();
    }
  }
  return Status::OK();
}

// --- engine-driven workloads (paper, join) -------------------------------------

struct Execution {
  Status status;
  std::vector<QueryAnswer> answers;
  double execute_us = 0, first_ms = 0, total_ms = 0, next_ms = 0;
  omega::EvaluatorStats stats;
};

// One run of the §4.1 protocol's inner loop: Execute, then pull answers in
// batches of kBatch until the limit (or exhaustion). Timed from Execute to
// the stream's destruction; the first batch's time is kept apart.
Execution ExecuteOnce(const omega::QueryEngine& engine, const Cell& cell,
                      TraceRecorder* trace) {
  omega::QueryEngineOptions options;
  options.evaluator.max_live_tuples = kTupleBudget;
  options.evaluator.top_k_hint = cell.limit;
  options.evaluator.trace = trace;
  Execution e;
  const double t0 = NowMs();
  auto stream = engine.Execute(cell.query, options);
  const double t1 = NowMs();
  e.execute_us = (t1 - t0) * 1000;
  if (!stream.ok()) {
    e.status = stream.status();
    return e;
  }
  double first = -1;
  QueryAnswer answer;
  while (cell.limit == 0 || e.answers.size() < cell.limit) {
    if (!(*stream)->Next(&answer)) break;
    e.answers.push_back(std::move(answer));
    if (e.answers.size() == kBatch) first = NowMs();
  }
  const double t2 = NowMs();
  e.status = (*stream)->status();
  e.stats = (*stream)->stats();
  if (trace != nullptr && (*stream)->plan() != nullptr) {
    omega::RecordOperatorTrace(*(*stream)->plan(), trace);
  }
  (*stream).reset();
  const double t3 = NowMs();
  e.next_ms = t2 - t1;
  e.first_ms = (first < 0 ? t2 : first) - t0;
  e.total_ms = t3 - t0;
  return e;
}

// Checks answer lists, and runs the self-test on the first list that has
// answers both at distance 0 and above.
struct Checker {
  Report* report;
  bool self_tested = false;

  void Check(const std::string& what, const std::vector<QueryAnswer>& answers,
             const ExactAnswers& exact, const Expectation& expect) {
    const std::string err = CheckAnswers(answers, exact, expect);
    if (!err.empty()) {
      report->Fail(what + ": " + err);
      return;
    }
    if (!self_tested && answers.size() >= 2 && answers.back().distance > 0 &&
        answers.front().distance == 0) {
      const std::string self = SelfTest(answers, exact, expect);
      if (!self.empty()) report->Fail("self-test on " + what + ": " + self);
      self_tested = true;
    }
  }

  // The self-test must have found a list to corrupt.
  void Finish() {
    if (!self_tested) report->Fail("no answer list qualified for the self-test");
  }
};

// Writes and opens a snapshot of `spec`, serves every cell of that dataset
// twice (cold, then from the cache) through a QueryService, and swaps the
// dataset once: the traced run's figures for the snapshot and service
// layers on workloads whose own loop does not use them.
Status ProbeServiceLayers(const Args& args, const DatasetSpec& spec,
                          size_t dataset, const std::vector<Cell>& cells,
                          const std::vector<ExactAnswers>& exact,
                          Layers* layers, Checker* checker) {
  auto loaded = LoadFromText(args.dir, spec);
  if (!loaded.ok()) return loaded.status();
  const std::string path = SnapshotPath(args.dir, spec);
  double t0 = NowMs();
  OMEGA_RETURN_NOT_OK(omega::WriteSnapshot(
      *(*loaded)->graph, (*loaded)->ontology.get(), &(*loaded)->reach,
      &(*loaded)->sketch, path));
  layers->write_ms.push_back(NowMs() - t0);
  (*loaded).reset();
  t0 = NowMs();
  auto opened = omega::SnapshotReader::Open(path);
  if (!opened.ok()) return opened.status();
  layers->open_ms.push_back(NowMs() - t0);

  omega::QueryServiceOptions options;
  options.num_workers = kWorkers;
  options.engine.evaluator.max_live_tuples = kTupleBudget;
  omega::QueryService service(*opened, options);
  Report* report = checker->report;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].dataset != dataset) continue;
      TraceRecorder trace;
      omega::QueryRequest request;
      request.query = omega::Clone(cells[i].query);
      request.top_k = kPage;
      request.trace = &trace;
      ++report->attempted;
      omega::QueryResponse response = service.Execute(std::move(request));
      if (!response.status.ok()) {
        ++report->failed;
        continue;
      }
      layers->AddTrace(trace, false);
      ++layers->lookups;
      if (response.cache_hit) {
        ++layers->hits;
      } else {
        layers->queue_ms.push_back(response.queue_ms);
        layers->exec_ms.push_back(response.exec_ms);
      }
      checker->Check("service " + cells[i].name, response.answers, exact[i],
                     {cells[i].all_exact, kPage});
    }
  }
  auto again = omega::SnapshotReader::Open(path);
  if (!again.ok()) return again.status();
  t0 = NowMs();
  OMEGA_RETURN_NOT_OK(service.SwapDataset(*again));
  layers->swap_ms.push_back(NowMs() - t0);
  const omega::ServiceStats stats = service.stats();
  if (stats.epochs_drained > 0) {
    layers->drain_ms =
        stats.drain_ms_total / static_cast<double>(stats.epochs_drained);
  }
  return Status::OK();
}

Status RunEngineWorkload(const Args& args, std::vector<Cell> cells,
                         Report* report) {
  const std::vector<DatasetSpec> specs = DatasetsFor(args.workload, args.seed);
  Layers layers;
  std::vector<double> setup_s;
  std::vector<EngineDataset> datasets;
  for (int rep = 0; rep < kSetups; ++rep) {
    datasets.clear();
    const double t0 = NowMs();
    double load_ms = 0, index_ms = 0;
    for (const DatasetSpec& spec : specs) {
      auto loaded = LoadFromText(args.dir, spec);
      if (!loaded.ok()) return loaded.status();
      EngineDataset d;
      d.loaded = std::move(loaded).value();
      d.indexes = std::make_unique<omega::IndexManager>(
          d.loaded->graph.get(), std::move(d.loaded->reach),
          std::optional<omega::DistanceSketch>(std::move(d.loaded->sketch)));
      load_ms += d.loaded->load_ms;
      index_ms += d.loaded->index_ms;
      datasets.push_back(std::move(d));
    }
    setup_s.push_back((NowMs() - t0) / 1000);
    layers.load_ms.push_back(load_ms);
    layers.index_ms.push_back(index_ms);
  }

  for (size_t d = 0; d < specs.size(); ++d) {
    std::fprintf(stderr, "perfbench: %s: %zu nodes, %zu edges\n",
                 specs[d].name.c_str(), datasets[d].loaded->graph->NumNodes(),
                 datasets[d].loaded->graph->NumEdges());
  }
  std::vector<std::unique_ptr<omega::QueryEngine>> engines;
  std::vector<std::unique_ptr<ReferenceEvaluator>> references;
  std::vector<const omega::GraphStore*> graphs;
  std::vector<const omega::Ontology*> ontologies;
  for (const EngineDataset& d : datasets) {
    graphs.push_back(d.loaded->graph.get());
    ontologies.push_back(d.loaded->ontology.get());
    engines.push_back(std::make_unique<omega::QueryEngine>(
        graphs.back(), ontologies.back(), d.indexes.get()));
    references.push_back(
        std::make_unique<ReferenceEvaluator>(graphs.back(), ontologies.back()));
  }
  std::vector<ExactAnswers> exact;
  for (const Cell& cell : cells) {
    exact.push_back(references[cell.dataset]->Answers(cell.query));
  }
  if (args.trace) {
    OMEGA_RETURN_NOT_OK(MeasureFrontEnd(cells, graphs, ontologies, &layers));
  }

  Checker checker{report};
  std::vector<std::vector<double>> cell_total(cells.size());
  std::vector<std::vector<double>> cell_first(cells.size());
  std::vector<double> all_total;
  double busy_ms = 0;
  uint64_t answers_delivered = 0;
  // Whole rounds; another starts only if the last one's length still fits
  // before the deadline.
  double peak_rss_mb = 0;
  const double deadline = NowMs() + args.seconds * 1000;
  for (int round = 0;; ++round) {
    const double round_start = NowMs();
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      for (int run = 0; run < kProtocolRuns; ++run) {
        std::optional<TraceRecorder> trace;
        if (args.trace) trace.emplace();
        Execution e = ExecuteOnce(*engines[cell.dataset], cell,
                                  trace ? &*trace : nullptr);
        ++report->attempted;
        if (!e.status.ok()) {
          ++report->failed;
          if (round == 0 && run == 0) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n",
                         cell.name.c_str(), e.status.ToString().c_str());
          }
          continue;
        }
        checker.Check(cell.name, e.answers, exact[i],
                      {cell.all_exact, cell.limit});
        const bool first_of_cell = round == 0 && run == 0;
        if (trace) {
          layers.AddTrace(*trace, first_of_cell);
          if (run > 0) {
            layers.execute_us.push_back(e.execute_us);
            layers.next_ms.push_back(e.next_ms);
          }
        }
        if (first_of_cell) layers.AddStats(e.stats);
        if (run == 0) continue;  // §4.1: the first run warms the caches
        cell_total[i].push_back(e.total_ms);
        cell_first[i].push_back(e.first_ms);
        all_total.push_back(e.total_ms);
        busy_ms += e.total_ms;
        answers_delivered += e.answers.size();
      }
    }
    // The first round runs every query five times; later rounds repeat it
    // and move the high-water mark only by where the allocator happens to
    // place the big join states (143 or 162 MB on `join`, by seed).
    if (round == 0) peak_rss_mb = PeakRssMb();
    if (NowMs() + (NowMs() - round_start) > deadline) break;
  }

  std::vector<double> total_medians, first_medians;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cell_total[i].empty()) continue;
    total_medians.push_back(Median(cell_total[i]));
    first_medians.push_back(Median(cell_first[i]));
    std::fprintf(stderr, "  %-48s %10.3f ms  first %8.3f ms  %zu answers\n",
                 cells[i].name.c_str(), total_medians.back(),
                 first_medians.back(), exact[i].size());
  }
  std::fprintf(stderr, "perfbench: %zu timed requests, %zu queries\n",
               all_total.size(), total_medians.size());
  Report e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("latency_gmean_ms", GeoMean(total_medians), "ms");
  e2e.Add("first_batch_gmean_ms", GeoMean(first_medians), "ms");
  e2e.Add("latency_p50_ms", HarrellDavis(all_total, 50), "ms");
  e2e.Add("latency_p95_ms", Percentile(all_total, 95), "ms");
  e2e.Add("queries_per_s",
          static_cast<double>(all_total.size()) / (busy_ms / 1000), "1/s");
  e2e.Add("answers_per_s",
          static_cast<double>(answers_delivered) / (busy_ms / 1000), "1/s");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB");
  if (args.trace) {
    for (size_t d = 0; d < specs.size(); ++d) {
      OMEGA_RETURN_NOT_OK(ProbeServiceLayers(args, specs[d], d, cells, exact,
                                             &layers, &checker));
    }
  }
  checker.Finish();
  Finish(args, e2e, layers, report);
  return Status::OK();
}

// --- served -----------------------------------------------------------------------

struct ServedSample {
  size_t entry = 0;
  double latency_ms = 0;
  bool hit = false;
  size_t answers = 0;
};

// One distinct answer list of a pool entry on one of the two snapshots.
struct ServedList {
  size_t entry = 0;
  uint64_t epoch = 0;  // the first epoch that returned it
  std::vector<QueryAnswer> answers;
};

struct ClientLog {
  std::vector<ServedSample> samples;
  // Responses repeat a handful of answer lists, so each distinct list is
  // kept once and checked once; keeping every response's answers made the
  // run's peak RSS grow with the number of requests the machine managed.
  std::vector<ServedList> lists;
  std::vector<std::vector<size_t>> lists_by_key;  // entry * 2 + epoch parity

  void KeepAnswers(size_t entry, uint64_t epoch,
                   std::vector<QueryAnswer>&& answers) {
    std::vector<size_t>& known = lists_by_key[entry * 2 + epoch % 2];
    for (size_t i : known) {
      if (lists[i].answers == answers) return;
    }
    known.push_back(lists.size());
    lists.push_back({entry, epoch, std::move(answers)});
  }
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  Layers layers;
};

}  // namespace

Status RunPaper(const Args& args, Report* report) {
  std::vector<Cell> cells;
  OMEGA_RETURN_NOT_OK(PaperCells(&cells));
  // The seed sets the order the cells run in, the same in every round.
  uint64_t rng = args.seed * 0x9e3779b97f4a7c15ull + 17;
  Shuffle(&cells, &rng);
  return RunEngineWorkload(args, std::move(cells), report);
}

Status RunJoin(const Args& args, Report* report) {
  std::vector<Cell> cells;
  OMEGA_RETURN_NOT_OK(JoinCells(args.seed, false, &cells));
  return RunEngineWorkload(args, std::move(cells), report);
}

Status RunServed(const Args& args, Report* report) {
  const std::vector<DatasetSpec> specs = DatasetsFor("served", args.seed);
  Layers layers;
  std::vector<double> setup_s;
  std::shared_ptr<const omega::Dataset> serving;
  for (int rep = 0; rep < kSetups; ++rep) {
    serving.reset();
    const double t0 = NowMs();
    auto loaded = LoadFromText(args.dir, specs[0]);
    if (!loaded.ok()) return loaded.status();
    const double t1 = NowMs();
    OMEGA_RETURN_NOT_OK(omega::WriteSnapshot(
        *(*loaded)->graph, (*loaded)->ontology.get(), &(*loaded)->reach,
        &(*loaded)->sketch, SnapshotPath(args.dir, specs[0])));
    const double t2 = NowMs();
    auto opened = omega::SnapshotReader::Open(SnapshotPath(args.dir, specs[0]));
    if (!opened.ok()) return opened.status();
    const double t3 = NowMs();
    serving = std::move(opened).value();
    setup_s.push_back((t3 - t0) / 1000);
    layers.load_ms.push_back((*loaded)->load_ms);
    layers.index_ms.push_back((*loaded)->index_ms);
    layers.write_ms.push_back(t2 - t1);
    layers.open_ms.push_back(t3 - t2);
  }
  {
    // The swap target: a second seed's snapshot, prepared untimed.
    auto loaded = LoadFromText(args.dir, specs[1]);
    if (!loaded.ok()) return loaded.status();
    OMEGA_RETURN_NOT_OK(omega::WriteSnapshot(
        *(*loaded)->graph, (*loaded)->ontology.get(), &(*loaded)->reach,
        &(*loaded)->sketch, SnapshotPath(args.dir, specs[1])));
  }
  const std::string paths[2] = {SnapshotPath(args.dir, specs[0]),
                                SnapshotPath(args.dir, specs[1])};

  // The pool: Fig. 4 in every mode, then the L4All join templates; Zipf
  // popularity follows this fixed order.
  std::vector<Cell> pool;
  {
    std::vector<Cell> paper;
    OMEGA_RETURN_NOT_OK(PaperCells(&paper));
    for (Cell& c : paper) {
      if (c.dataset != 0) continue;
      c.limit = kPage;
      pool.push_back(std::move(c));
    }
    std::vector<Cell> joins;
    OMEGA_RETURN_NOT_OK(JoinCells(args.seed, true, &joins));
    for (Cell& c : joins) {
      c.limit = kPage;
      pool.push_back(std::move(c));
    }
  }

  // References on both datasets, over the same snapshot files the service
  // opens (epoch parity names the dataset: client 0 alternates swaps).
  std::shared_ptr<const omega::Dataset> by_parity[2];
  by_parity[0] = serving;
  {
    auto b = omega::SnapshotReader::Open(paths[1]);
    if (!b.ok()) return b.status();
    by_parity[1] = std::move(b).value();
  }
  for (int p = 0; p < 2; ++p) {
    std::fprintf(stderr, "perfbench: %s: %zu nodes, %zu edges\n",
                 specs[p].name.c_str(), by_parity[p]->graph().NumNodes(),
                 by_parity[p]->graph().NumEdges());
  }
  std::vector<ExactAnswers> exact[2];
  for (int p = 0; p < 2; ++p) {
    ReferenceEvaluator reference(&by_parity[p]->graph(),
                                 by_parity[p]->ontology());
    for (const Cell& c : pool) exact[p].push_back(reference.Answers(c.query));
  }
  if (args.trace) {
    OMEGA_RETURN_NOT_OK(MeasureFrontEnd(pool, {&serving->graph()},
                                        {serving->ontology()}, &layers));
  }

  std::vector<double> cumulative;
  double total_weight = 0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total_weight += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cumulative.push_back(total_weight);
  }

  omega::QueryServiceOptions options;
  options.num_workers = kWorkers;
  options.engine.evaluator.max_live_tuples = kTupleBudget;
  omega::QueryService service(serving, options);

  ClientLog logs[kClients];
  for (ClientLog& log : logs) log.lists_by_key.resize(2 * pool.size());
  std::atomic<uint64_t> sent{0};
  std::mutex swap_mu;
  const double start = NowMs();
  const double deadline = start + args.seconds * 1000;
  auto client = [&](size_t id) {
    ClientLog& log = logs[id];
    uint64_t rng = args.seed * 0x9e3779b97f4a7c15ull + id * 7 + 1;
    do {
      std::vector<size_t> round;
      for (size_t e = 0; e < pool.size(); ++e) round.push_back(e);
      for (size_t k = 0; k < kRoundDraws; ++k) {
        const double u =
            static_cast<double>(NextRandom(&rng) >> 11) * 0x1.0p-53 *
            total_weight;
        round.push_back(static_cast<size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin()));
      }
      Shuffle(&round, &rng);
      for (size_t entry : round) {
        entry = std::min(entry, pool.size() - 1);
        if (sent.fetch_add(1) % kSwapEvery == kSwapEvery - 1) {
          // Swaps are serialised so that epoch e always serves
          // paths[e % 2], which is what the answer checks rely on.
          std::lock_guard<std::mutex> lock(swap_mu);
          const double t0 = NowMs();
          auto next = omega::SnapshotReader::Open(
              paths[(service.dataset_epoch() + 1) % 2]);
          const double t1 = NowMs();
          ++log.attempted;
          if (!next.ok() || !service.SwapDataset(*next).ok()) {
            ++log.failed;
          } else {
            log.layers.open_ms.push_back(t1 - t0);
            log.layers.swap_ms.push_back(NowMs() - t1);
          }
        }
        std::optional<TraceRecorder> trace;
        if (args.trace) trace.emplace();
        omega::QueryRequest request;
        request.query = omega::Clone(pool[entry].query);
        request.top_k = kPage;
        request.trace = trace ? &*trace : nullptr;
        ++log.attempted;
        const double t0 = NowMs();
        auto ticket = service.Submit(std::move(request));
        if (!ticket.ok()) {
          ++log.failed;
          continue;
        }
        omega::QueryResponse response = (*ticket)->TakeResponse();
        const double latency = NowMs() - t0;
        if (!response.status.ok()) {
          ++log.failed;
          if (log.errors.size() < 3) {
            log.errors.push_back(pool[entry].name + ": " +
                                 response.status.ToString());
          }
          continue;
        }
        if (trace) {
          const TraceTimes t = log.layers.AddTrace(*trace, !response.cache_hit);
          if (!response.cache_hit && t.execute_us >= 0) {
            log.layers.execute_us.push_back(t.plan_us + t.compile_us);
            log.layers.next_ms.push_back(
                (t.execute_us - t.plan_us - t.compile_us) / 1000);
          }
        }
        ++log.layers.lookups;
        if (response.cache_hit) {
          ++log.layers.hits;
        } else {
          log.layers.queue_ms.push_back(response.queue_ms);
          log.layers.exec_ms.push_back(response.exec_ms);
        }
        log.samples.push_back({entry, latency, response.cache_hit,
                               response.answers.size()});
        log.KeepAnswers(entry, response.epoch, std::move(response.answers));
      }
    } while (NowMs() < deadline);
  };
  std::vector<std::thread> threads;
  for (size_t id = 0; id < kClients; ++id) threads.emplace_back(client, id);
  for (std::thread& t : threads) t.join();
  const double window_s = (NowMs() - start) / 1000;

  Checker checker{report};
  std::vector<std::vector<double>> miss_latency(pool.size());
  std::vector<double> all_latency;
  uint64_t answers_delivered = 0;
  for (ClientLog& log : logs) {
    report->attempted += log.attempted;
    report->failed += log.failed;
    for (const std::string& e : log.errors) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
    for (const ServedList& l : log.lists) {
      checker.Check("served " + pool[l.entry].name + " @epoch " +
                        std::to_string(l.epoch),
                    l.answers, exact[l.epoch % 2][l.entry],
                    {pool[l.entry].all_exact, kPage});
    }
    for (const ServedSample& s : log.samples) {
      all_latency.push_back(s.latency_ms);
      if (!s.hit) miss_latency[s.entry].push_back(s.latency_ms);
      answers_delivered += s.answers;
    }
    layers.Merge(log.layers);
  }

  std::vector<double> medians;
  for (const auto& v : miss_latency) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  std::fprintf(stderr, "perfbench: %zu requests, hit ratio %.3f, %zu swaps\n",
               all_latency.size(),
               static_cast<double>(layers.hits) /
                   static_cast<double>(std::max<uint64_t>(1, layers.lookups)),
               layers.swap_ms.size());
  const double gmean = GeoMean(medians);
  Report e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("latency_gmean_ms", gmean, "ms");
  e2e.Add("first_batch_gmean_ms", gmean, "ms");
  e2e.Add("latency_p50_ms", HarrellDavis(all_latency, 50), "ms");
  e2e.Add("latency_p95_ms", Percentile(all_latency, 95), "ms");
  e2e.Add("queries_per_s", static_cast<double>(all_latency.size()) / window_s,
          "1/s");
  e2e.Add("answers_per_s", static_cast<double>(answers_delivered) / window_s,
          "1/s");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  const omega::ServiceStats stats = service.stats();
  for (const omega::ClassAggregate& c : stats.per_class) layers.AddStats(c.eval);
  if (stats.epochs_drained > 0) {
    layers.drain_ms =
        stats.drain_ms_total / static_cast<double>(stats.epochs_drained);
  }
  checker.Finish();
  Finish(args, e2e, layers, report);
  return Status::OK();
}

}  // namespace perfbench
