// ecobench: end-to-end benchmark of ecoDB in host time and simulated
// joules.
//
//   ecobench --workload <analytic_serial|analytic_parallel|eco_stream>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// One workload per process, one client. The benchmark calls only ecoDB's
// public API (Database, WorkloadScheduler, Machine ledgers, BufferPool
// stats, QueryResult) and checks every answer against the independent
// oracle in reference.cc. Output: "# config {...}" with the run's
// configuration, one "metric <name> <value> <unit>" line per computed
// metric, "# ops attempted=<n> failed=<n>", and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A traced run (--trace 1) also writes its spans as Chrome trace-event
// JSON to --trace-out, which it requires. The README next to this file documents the workloads and
// every metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "ecodb/exec/simd.h"
#include "ecodb/util/stats.h"
#include "reference.h"
#include "trace.h"

namespace ecobench {
namespace {

using namespace ecodb;  // NOLINT: the benchmark speaks ecoDB's API

// ---------------------------------------------------------------------
// Fixed workload parameters (printed in every run's config line).

constexpr int kSetupReps = 5;          ///< setup_s is the median of these
constexpr double kAnalyticSf = 0.01;
constexpr double kStreamSf = 0.002;
constexpr uint64_t kStreamPoolPages = 64;  ///< < lineitem's page count
constexpr size_t kStreamQueueDepth = 32;
constexpr int kStreams = 48;  ///< independent arrival streams per run
constexpr int kStreamQueries = 1000;
constexpr double kStreamSelectionFraction = 0.7;
/// The stream runs near the knee of its queueing curve (the ladder has to
/// engage), where a 3% change in service time from another dbgen seed
/// moves the latency median by ~30%; its data is therefore generated from
/// dbgen's default seed, and --seed varies the query mixes and arrivals.
constexpr uint64_t kStreamDataSeed = 19940101;
constexpr double kStreamRateQps = 5.5;
/// Relative tolerance for a simulated figure that must repeat: the
/// machine's clock and ledger are running double sums, so the same work
/// priced later in a run differs in the trailing digits (~1e-10 relative
/// after a few thousand simulated seconds).
constexpr double kSimRepeatTol = 1e-6;
/// Failed checks reported on stderr before the rest are only counted.
constexpr int kMaxReportedMismatches = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
  }
  if ((argc - 1) % 2 != 0) {
    std::fprintf(stderr, "flags take one value each\n");
    return false;
  }
  if (a->trace && a->trace_out.empty()) {
    std::fprintf(stderr, "--trace 1 needs --trace-out\n");
    return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seeds of one run, all derived from --seed.
struct Seeds {
  uint64_t data = 0;       ///< dbgen (analytic workloads)
  uint64_t params = 0;     ///< analytic substitution parameters
  uint64_t stream = 0;     ///< MakeSchedulerMixWorkload
  uint64_t scheduler = 0;  ///< Poisson arrivals + retry jitter
};

Seeds DeriveSeeds(uint64_t seed) {
  uint64_t s = seed;
  Seeds out;
  out.data = SplitMix(&s);
  out.params = SplitMix(&s);
  out.stream = SplitMix(&s);
  out.scheduler = SplitMix(&s);
  return out;
}

MixParams DrawParams(uint64_t seed) {
  static const char* const kSegments[5] = {"AUTOMOBILE", "BUILDING",
                                           "FURNITURE", "HOUSEHOLD",
                                           "MACHINERY"};
  uint64_t s = seed;
  auto below = [&s](uint64_t n) { return SplitMix(&s) % n; };
  MixParams p;
  p.q1_cutoff = CivilDate(CivilDays("1998-12-01") -
                          static_cast<int64_t>(60 + below(61)));
  p.q3_segment = kSegments[below(5)];
  p.q3_date = StrFormat("1995-03-%02d", static_cast<int>(1 + below(31)));
  p.q5_region = tpch::kRegionNames[below(5)];
  const int q5_year = 1993 + static_cast<int>(below(5));
  p.q5_date_lo = StrFormat("%d-01-01", q5_year);
  p.q5_date_hi = StrFormat("%d-01-01", q5_year + 1);
  const int q6_year = 1993 + static_cast<int>(below(5));
  p.q6_date_lo = StrFormat("%d-01-01", q6_year);
  p.q6_date_hi = StrFormat("%d-01-01", q6_year + 1);
  p.q6_discount_pct = 2 + static_cast<int>(below(8));
  p.q6_quantity = 24 + static_cast<int>(below(2));
  return p;
}

struct MixQuery {
  std::string type;
  std::string sql;
};

/// The analytic mix, in the order each round runs it.
std::vector<MixQuery> AnalyticMix(const MixParams& p) {
  tpch::Q3Params q3;
  q3.segment = p.q3_segment;
  q3.date = p.q3_date;
  tpch::Q5Params q5;
  q5.region = p.q5_region;
  q5.date_lo = p.q5_date_lo;
  q5.date_hi = p.q5_date_hi;
  tpch::Q6Params q6;
  q6.date_lo = p.q6_date_lo;
  q6.date_hi = p.q6_date_hi;
  q6.discount = p.q6_discount_pct / 100.0;
  q6.quantity = p.q6_quantity;
  return {
      {"q1", tpch::Q1Sql(p.q1_cutoff)},
      {"q3", tpch::Q3Sql(q3)},
      {"q5", tpch::Q5Sql(q5)},
      {"q6", tpch::Q6Sql(q6)},
      {"group_by_strings",
       "SELECT l_shipmode, l_returnflag, l_linestatus, SUM(l_quantity) AS "
       "qty, COUNT(*) AS n, MIN(l_shipinstruct) AS min_instruct FROM "
       "lineitem GROUP BY l_shipmode, l_returnflag, l_linestatus"},
      {"order_by_lineitem",
       "SELECT * FROM lineitem ORDER BY l_shipdate DESC, l_orderkey"},
      {"limit_over_agg",
       "SELECT l_orderkey, SUM(l_extendedprice) AS revenue, COUNT(*) AS n "
       "FROM lineitem GROUP BY l_orderkey LIMIT 100"},
  };
}

// ---------------------------------------------------------------------
// Small statistics helpers.

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
template <typename T>
uint64_t FnvValue(uint64_t h, const T& v) {
  return Fnv(h, &v, sizeof(v));
}

/// Bit-level digest of an answer (row order, types and payloads).
uint64_t AnswerDigest(const ResultSet& set) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t r = 0; r < set.num_rows(); ++r) {
    for (int c = 0; c < set.num_cols(); ++c) {
      const CellView v = set.At(r, c);
      h = FnvValue(h, static_cast<int>(v.type));
      if (v.type == ValueType::kString) {
        h = Fnv(h, v.s->data(), v.s->size());
      } else if (v.type == ValueType::kDouble) {
        h = FnvValue(h, v.d);
      } else {
        h = FnvValue(h, v.i);
      }
    }
  }
  return h;
}

/// The integer work counters the W-invariance contract pins bit-exactly.
std::vector<uint64_t> IntegerCounters(const QueryExecStats& s) {
  return {s.tuples_scanned, s.tuples_output, s.comparisons, s.arith_ops,
          s.hash_builds,    s.hash_probes,   s.agg_updates, s.sort_compares,
          s.spill_bytes,    s.peak_memory_bytes};
}

// ---------------------------------------------------------------------
// Metrics: every name the run may print, with its unit. Names and units
// match BENCHMARK.json; a per-layer metric a workload does not exercise
// reads 0.

struct MetricDef {
  std::string name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_qps", "queries/s"},
    {"host_round_p50_ms", "ms"},
    {"host_round_p90_ms", "ms"},
    {"host_geomean_ms", "ms"},
    {"sim_latency_p50_s", "s"},
    {"sim_latency_p95_s", "s"},
    {"sim_joules_per_query", "J"},
    {"sim_cpu_joules_per_query", "J"},
    {"peak_rss_mib", "MiB"},
};

const char* const kMixTypes[] = {"q1", "q3", "q5", "q6", "group_by_strings",
                                 "order_by_lineitem", "limit_over_agg"};

/// Per-layer metrics, in print order.
const std::vector<MetricDef>& PerLayerDefs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {{"tpch.load_s", "s"}, {"sql.plan_us", "us"}};
    for (const char* t : kMixTypes) {
      d.push_back({std::string("exec.host_ms.") + t, "ms"});
    }
    for (const char* t : kMixTypes) {
      d.push_back({std::string("exec.sim_j.") + t, "J"});
    }
    const MetricDef rest[] = {
        {"exec.host_ns_per_tuple", "ns"},
        {"exec.tuples_scanned", "count"},
        {"exec.comparisons", "count"},
        {"exec.arith_ops", "count"},
        {"exec.hash_builds", "count"},
        {"exec.hash_probes", "count"},
        {"exec.agg_updates", "count"},
        {"exec.sort_compares", "count"},
        {"exec.cycles_charged", "cycles"},
        {"exec.mem_lines_charged", "lines"},
        {"exec.peak_memory_bytes", "bytes"},
        {"process.cpu_s_per_query", "s"},
        {"process.cpu_util", "ratio"},
        {"morsel.sim_core_speedup.stream", "ratio"},
        {"morsel.sim_core_speedup.join_build", "ratio"},
        {"morsel.sim_core_speedup.agg", "ratio"},
        {"morsel.sim_core_speedup.sort", "ratio"},
        {"morsel.sim_makespan_s", "s"},
        {"morsel.sim_busy_sum_s", "s"},
        {"sim.cpu_j", "J"},
        {"sim.mem_j", "J"},
        {"sim.disk_j", "J"},
        {"sim.psu_loss_j", "J"},
        {"sim.busy_s", "s"},
        {"sim.io_s", "s"},
        {"sim.idle_s", "s"},
        {"storage.pool_hit_rate", "ratio"},
        {"storage.pool_misses", "count"},
        {"storage.random_misses", "count"},
        {"storage.evictions", "count"},
        {"scheduler.host_run_s", "s"},
        {"scheduler.sim_makespan_s", "s"},
        {"scheduler.escalations", "count"},
        {"scheduler.max_level", "level"},
        {"scheduler.attributed_j_per_query", "J"},
        {"scheduler.merged_batches", "count"},
        {"scheduler.merged_share", "ratio"},
        {"qed.members_per_batch", "count"},
    };
    d.insert(d.end(), std::begin(rest), std::end(rest));
    return d;
  }();
  return defs;
}

class Metrics {
 public:
  Metrics() {
    for (const MetricDef& d : kEndToEnd) e2e_[d.name] = {0.0, false};
    for (const MetricDef& d : PerLayerDefs()) layer_[d.name] = {0.0, false};
  }
  void SetE2e(const std::string& name, double v) { Set(&e2e_, name, v); }
  void SetLayer(const std::string& name, double v) { Set(&layer_, name, v); }

  /// Prints "metric" lines for everything computed, then returns the
  /// JSON "metrics" object of the requested set. An end-to-end metric
  /// left unset is a bug in this program.
  std::string Emit(bool per_layer) const {
    for (const MetricDef& d : kEndToEnd) {
      const Slot& s = e2e_.at(d.name);
      if (!s.set) {
        std::fprintf(stderr, "end-to-end metric %s was not measured\n",
                     d.name.c_str());
        std::exit(2);
      }
      std::printf("metric %s %.17g %s\n", d.name.c_str(), s.value, d.unit);
    }
    const std::vector<MetricDef>& layer_defs = PerLayerDefs();
    for (const MetricDef& d : layer_defs) {
      std::printf("metric %s %.17g %s\n", d.name.c_str(),
                  layer_.at(d.name).value, d.unit);
    }
    std::string out = "{";
    bool first = true;
    auto add = [&](const MetricDef& d, double v) {
      out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       first ? "" : ", ", d.name.c_str(), v, d.unit);
      first = false;
    };
    if (per_layer) {
      for (const MetricDef& d : layer_defs) add(d, layer_.at(d.name).value);
    } else {
      for (const MetricDef& d : kEndToEnd) add(d, e2e_.at(d.name).value);
    }
    return out + "}";
  }

 private:
  struct Slot {
    double value;
    bool set;
  };
  static void Set(std::map<std::string, Slot>* m, const std::string& name,
                  double v) {
    auto it = m->find(name);
    if (it == m->end()) {
      std::fprintf(stderr, "unknown metric %s\n", name.c_str());
      std::exit(2);
    }
    it->second = {v, true};
  }
  std::map<std::string, Slot> e2e_;
  std::map<std::string, Slot> layer_;
};

// ---------------------------------------------------------------------
// Outcome bookkeeping shared by the workloads.

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;

  void Mismatch(const std::string& what) {
    if (++mismatches <= kMaxReportedMismatches) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void Failed(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
  }
};

/// Simulated energy sanity shared by every query: wall >= DC > 0 and
/// CPU > 0 over the ledger delta.
void CheckEnergy(const EnergyLedger& before, const EnergyLedger& after,
                 const std::string& what, Outcome* out) {
  const double wall = after.wall_j - before.wall_j;
  const double dc = after.dc_j - before.dc_j;
  const double cpu = after.cpu_j - before.cpu_j;
  if (!(wall >= dc && dc > 0 && cpu > 0)) {
    out->Mismatch(StrFormat("%s: energy wall=%g dc=%g cpu=%g violates "
                            "wall >= dc > 0, cpu > 0",
                            what.c_str(), wall, dc, cpu));
  }
}

/// Builds the database kSetupReps times (the last one is kept) and
/// records setup_s and tpch.load_s as medians.
std::unique_ptr<Database> SetUp(const DatabaseOptions& options,
                                const tpch::DbGenOptions& gen, Tracer* tr,
                                Metrics* metrics) {
  std::unique_ptr<Database> db;
  std::vector<double> setup_s, load_s;
  for (int i = 0; i < kSetupReps; ++i) {
    db.reset();  // one database alive at a time
    Tracer::Scope setup(tr, "setup");
    {
      Tracer::Scope s(tr, "Database::Database");
      db = std::make_unique<Database>(options);
    }
    Tracer::Scope load(tr, "Database::LoadTpch");
    Status st = db->LoadTpch(gen);
    load_s.push_back(load.End());
    if (!st.ok()) {
      std::fprintf(stderr, "LoadTpch failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    {
      Tracer::Scope c(tr, "Database::ColdRestart");
      db->ColdRestart();
    }
    setup_s.push_back(setup.End());
  }
  metrics->SetE2e("setup_s", Median(setup_s));
  metrics->SetLayer("tpch.load_s", Median(load_s));
  return db;
}

/// Ledger deltas summed over a run (sim.* per-layer metrics).
struct LedgerSum {
  double cpu_j = 0, mem_j = 0, disk_j = 0, psu_loss_j = 0;
  double busy_s = 0, io_s = 0, idle_s = 0;

  void Add(const EnergyLedger& b, const EnergyLedger& a) {
    cpu_j += a.cpu_j - b.cpu_j;
    mem_j += a.mem_j - b.mem_j;
    disk_j += a.DiskJ() - b.DiskJ();
    psu_loss_j += (a.wall_j - a.dc_j) - (b.wall_j - b.dc_j);
    busy_s += a.busy_s - b.busy_s;
    io_s += a.io_s - b.io_s;
    idle_s += a.idle_s - b.idle_s;
  }
  void Report(double queries, Metrics* m) const {
    m->SetLayer("sim.cpu_j", Ratio(cpu_j, queries));
    m->SetLayer("sim.mem_j", Ratio(mem_j, queries));
    m->SetLayer("sim.disk_j", Ratio(disk_j, queries));
    m->SetLayer("sim.psu_loss_j", Ratio(psu_loss_j, queries));
    m->SetLayer("sim.busy_s", Ratio(busy_s, queries));
    m->SetLayer("sim.io_s", Ratio(io_s, queries));
    m->SetLayer("sim.idle_s", Ratio(idle_s, queries));
  }
};

/// QueryExecStats summed over a run (exec.* per-layer metrics).
struct CounterSum {
  double tuples_scanned = 0, comparisons = 0, arith_ops = 0,
         hash_builds = 0, hash_probes = 0, agg_updates = 0,
         sort_compares = 0, cycles = 0, mem_lines = 0, peak_memory = 0;

  void Add(const QueryExecStats& s) {
    tuples_scanned += static_cast<double>(s.tuples_scanned);
    comparisons += static_cast<double>(s.comparisons);
    arith_ops += static_cast<double>(s.arith_ops);
    hash_builds += static_cast<double>(s.hash_builds);
    hash_probes += static_cast<double>(s.hash_probes);
    agg_updates += static_cast<double>(s.agg_updates);
    sort_compares += static_cast<double>(s.sort_compares);
    cycles += s.cycles_charged;
    mem_lines += s.mem_lines_charged;
    peak_memory += static_cast<double>(s.peak_memory_bytes);
  }
  void Report(double queries, Metrics* m) const {
    m->SetLayer("exec.tuples_scanned", Ratio(tuples_scanned, queries));
    m->SetLayer("exec.comparisons", Ratio(comparisons, queries));
    m->SetLayer("exec.arith_ops", Ratio(arith_ops, queries));
    m->SetLayer("exec.hash_builds", Ratio(hash_builds, queries));
    m->SetLayer("exec.hash_probes", Ratio(hash_probes, queries));
    m->SetLayer("exec.agg_updates", Ratio(agg_updates, queries));
    m->SetLayer("exec.sort_compares", Ratio(sort_compares, queries));
    m->SetLayer("exec.cycles_charged", Ratio(cycles, queries));
    m->SetLayer("exec.mem_lines_charged", Ratio(mem_lines, queries));
    m->SetLayer("exec.peak_memory_bytes", Ratio(peak_memory, queries));
  }
};

// ---------------------------------------------------------------------
// analytic_serial / analytic_parallel

/// What a query type produced the first time it ran (the comparison
/// point for every later run of the same type).
struct Baseline {
  uint64_t digest = 0;
  std::vector<uint64_t> counters;
  double sim_seconds = 0, wall_j = 0;
};

struct Analytic {
  Database* db;
  const Reference* ref;
  Tracer* tr;
  Outcome* out;
  int64_t next_query_id = 0;

  /// One query through PlanSql + ExecutePlanQuery; checks the answer.
  /// Returns false when the query failed to plan or execute.
  struct Run {
    double plan_s = 0, exec_s = 0;
    QueryResult result;
    EnergyLedger before, after;
    uint64_t digest = 0;
  };
  bool RunOne(const MixQuery& q, Run* run) {
    const int64_t qid = next_query_id++;
    Tracer::Scope span(tr, "query." + q.type, qid);
    Tracer::Scope plan_span(tr, "Database::PlanSql", qid);
    Result<PlanNodePtr> plan = db->PlanSql(q.sql);
    run->plan_s = plan_span.End();
    if (!plan.ok()) {
      out->Failed(q.type + ": " + plan.status().ToString());
      return false;
    }
    Machine* m = db->machine();
    m->ResetCoreLedgers();
    run->before = m->ledger();
    Tracer::Scope exec_span(tr, "Database::ExecutePlanQuery", qid);
    Result<QueryResult> res = db->ExecutePlanQuery(*plan.value());
    run->exec_s = exec_span.End();
    run->after = m->ledger();
    if (!res.ok()) {
      out->Failed(q.type + ": " + res.status().ToString());
      return false;
    }
    run->result = std::move(res).value();
    Tracer::Scope check(tr, "check." + q.type, qid);
    AnswerView view;
    view.set = &run->result.result;
    std::string m1 = ref->Check(q.type, view);
    if (!m1.empty()) out->Mismatch(q.type + ": " + m1);
    CheckEnergy(run->before, run->after, q.type, out);
    run->digest = AnswerDigest(run->result.result);
    return true;
  }
};

struct SimFigures {
  double seconds = 0, wall_joules = 0, cpu_joules = 0;
};

struct PhaseSum {
  double busy_sum = 0, makespan = 0;
};

int RunAnalytic(const Args& args, bool parallel, Tracer* tr, Metrics* metrics,
                Outcome* out) {
  const double sf = kAnalyticSf;
  const Seeds seeds = DeriveSeeds(args.seed);
  const MixParams params = DrawParams(seeds.params);
  const std::vector<MixQuery> mix = AnalyticMix(params);
  const int nproc = HostCpus();
  // Morsel workers on half the host's CPUs, at least 2 so the morsel
  // layer runs even on a 2-CPU host. With a worker on every CPU next to
  // the calling thread, any other process on the host stalls one worker,
  // and the static morsel schedule waits for it: round times then spread
  // by more than the host bounds between runs.
  const int workers = parallel ? std::max(2, nproc / 2) : 1;

  std::printf(
      "# config {\"workload\": \"%s\", \"seed\": %llu, \"params\": "
      "{\"sf\": %g, \"profile\": \"MySqlMemory\", \"exec_workers\": %d, "
      "\"clients\": 1, \"seconds\": %g, \"setup_reps\": %d}, "
      "\"data_seed\": %llu, \"nproc\": %d, \"simd\": \"%s\", "
      "\"simd_target\": \"%s\", \"trace\": %d, \"mix\": {\"q1_cutoff\": "
      "\"%s\", \"q3_segment\": \"%s\", \"q3_date\": \"%s\", \"q5_region\": "
      "\"%s\", \"q5_date_lo\": \"%s\", \"q6_date_lo\": \"%s\", "
      "\"q6_discount\": %.2f, \"q6_quantity\": %d}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), sf,
      workers, args.seconds, kSetupReps,
      static_cast<unsigned long long>(seeds.data), nproc,
      simd::Enabled() ? "on" : "off", simd::ActiveTarget(), args.trace ? 1 : 0,
      params.q1_cutoff.c_str(), params.q3_segment.c_str(),
      params.q3_date.c_str(), params.q5_region.c_str(),
      params.q5_date_lo.c_str(), params.q6_date_lo.c_str(),
      params.q6_discount_pct / 100.0, params.q6_quantity);
  for (const MixQuery& q : mix) {
    std::printf("# sql %s: %s\n", q.type.c_str(), q.sql.c_str());
  }
  std::fflush(stdout);

  DatabaseOptions opt;
  opt.profile = EngineProfile::MySqlMemory();
  opt.exec_mode = ExecMode::kBatch;
  tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  gen.seed = seeds.data;
  std::unique_ptr<Database> db = SetUp(opt, gen, tr, metrics);

  std::unique_ptr<Reference> ref;
  {
    Tracer::Scope s(tr, "reference");
    ref = std::make_unique<Reference>(*db->catalog(), params);
  }
  Analytic a{db.get(), ref.get(), tr, out};

  // Baseline pass at W=1: every answer checked, and its digest and
  // integer counters become what every later run of the type must match
  // bit for bit (the W-invariance rule for analytic_parallel; plain
  // repeatability for analytic_serial).
  std::map<std::string, Baseline> base;
  {
    Tracer::Scope s(tr, "baseline_w1");
    db->set_exec_workers(1);
    for (const MixQuery& q : mix) {
      Analytic::Run run;
      if (!a.RunOne(q, &run)) continue;
      base[q.type] = {run.digest, IntegerCounters(run.result.exec_stats),
                      run.result.seconds, run.result.wall_joules};
    }
  }
  db->set_exec_workers(workers);

  // The measured closed loop: whole rounds of the mix until the time is
  // up.
  std::map<std::string, std::vector<double>> host_by_type;
  std::map<std::string, SimFigures> sim_first;  // first measured round
  std::vector<double> round_s, plan_s;
  double host_sum = 0, exec_s_sum = 0, tuples = 0;
  LedgerSum ledger;
  CounterSum counters;
  std::map<std::string, PhaseSum> phases;
  PhaseSum all_phases;
  uint64_t completed = 0;

  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNs();
  const double budget_ns = args.seconds * 1e9;
  while (static_cast<double>(NowNs() - t0) < budget_ns) {
    Tracer::Scope round(tr, "round");
    double round_sum = 0;
    for (const MixQuery& q : mix) {
      ++out->attempted;
      Analytic::Run run;
      if (!a.RunOne(q, &run)) continue;
      const QueryResult& r = run.result;
      auto b = base.find(q.type);
      if (b != base.end()) {
        if (run.digest != b->second.digest) {
          out->Mismatch(q.type + ": answer differs bit-wise from the W=1 pass");
        }
        if (IntegerCounters(r.exec_stats) != b->second.counters) {
          out->Mismatch(q.type +
                        ": integer work counters differ from the W=1 pass");
        }
        if (std::fabs(r.wall_joules - b->second.wall_j) >
            1e-3 * b->second.wall_j) {
          out->Mismatch(q.type + ": wall joules differ from the W=1 pass by "
                                 "more than 0.1%");
        }
      }
      // Same query, same worker count: the simulated figures repeat
      // within kSimRepeatTol. The metrics come from the first measured
      // round, whose position on the simulated clock depends only on the
      // seed, so they repeat exactly from run to run.
      auto first = sim_first.emplace(
          q.type, SimFigures{r.seconds, r.wall_joules, r.cpu_joules});
      if (!first.second) {
        const SimFigures& f = first.first->second;
        if (std::fabs(f.seconds - r.seconds) > kSimRepeatTol * f.seconds ||
            std::fabs(f.wall_joules - r.wall_joules) >
                kSimRepeatTol * f.wall_joules ||
            std::fabs(f.cpu_joules - r.cpu_joules) >
                kSimRepeatTol * f.cpu_joules) {
          out->Mismatch(q.type + ": simulated seconds/joules not repeatable");
        }
      }

      ++completed;
      const double lat = run.plan_s + run.exec_s;
      host_sum += lat;
      round_sum += lat;
      host_by_type[q.type].push_back(lat);
      plan_s.push_back(run.plan_s);
      exec_s_sum += run.exec_s;
      tuples += static_cast<double>(r.exec_stats.tuples_scanned);
      ledger.Add(run.before, run.after);
      counters.Add(r.exec_stats);
      Machine* m = db->machine();
      for (const CorePhase& ph : m->core_phases()) {
        ParallelPhaseSummary s = m->SummarizeCoreLedgers(ph.ledgers);
        phases[ph.label].busy_sum += s.busy_sum_s;
        phases[ph.label].makespan += s.makespan_s;
        all_phases.busy_sum += s.busy_sum_s;
        all_phases.makespan += s.makespan_s;
      }
    }
    round_s.push_back(round_sum);
  }
  const double wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const double cpu_s = ProcessCpuSeconds() - cpu0;

  const double n = static_cast<double>(completed);
  std::vector<double> type_medians;
  for (const auto& [type, lats] : host_by_type) {
    type_medians.push_back(Median(lats));
  }
  metrics->SetE2e("host_qps", Ratio(n, host_sum));
  // Per-query percentiles over a mix of seven shapes land between the
  // shapes' clusters and jump when two types trade places; a round (the
  // seven queries, plan + execute) is one well-conditioned distribution.
  metrics->SetE2e("host_round_p50_ms", 1e3 * Percentile(round_s, 50));
  metrics->SetE2e("host_round_p90_ms", 1e3 * Percentile(round_s, 90));
  metrics->SetE2e("host_geomean_ms", 1e3 * GeoMean(type_medians));
  // Over whole rounds of identical per-type values, the nearest-rank
  // percentiles and the mean equal those of one round.
  std::vector<double> sim_lat;
  double wall_j = 0, cpu_j = 0;
  for (const auto& [type, r] : sim_first) {
    sim_lat.push_back(r.seconds);
    wall_j += r.wall_joules;
    cpu_j += r.cpu_joules;
  }
  const double types = static_cast<double>(sim_first.size());
  metrics->SetE2e("sim_latency_p50_s", Percentile(sim_lat, 50));
  metrics->SetE2e("sim_latency_p95_s", Percentile(sim_lat, 95));
  metrics->SetE2e("sim_joules_per_query", Ratio(wall_j, types));
  metrics->SetE2e("sim_cpu_joules_per_query", Ratio(cpu_j, types));

  // Per-layer: host figures from the spans when traced (the same numbers
  // the loop timed directly otherwise).
  std::vector<double> span_plan = tr->enabled()
                                      ? tr->Durations("Database::PlanSql")
                                      : plan_s;
  metrics->SetLayer("sql.plan_us", 1e6 * Median(span_plan));
  for (const char* t : kMixTypes) {
    const auto& lats = host_by_type[t];
    metrics->SetLayer(std::string("exec.host_ms.") + t, 1e3 * Median(lats));
    auto f = sim_first.find(t);
    metrics->SetLayer(std::string("exec.sim_j.") + t,
                      f == sim_first.end() ? 0.0 : f->second.wall_joules);
  }
  metrics->SetLayer("exec.host_ns_per_tuple", Ratio(exec_s_sum * 1e9, tuples));
  counters.Report(n, metrics);
  ledger.Report(n, metrics);
  metrics->SetLayer("process.cpu_s_per_query", Ratio(cpu_s, n));
  metrics->SetLayer("process.cpu_util", Ratio(cpu_s, wall_s));
  for (const char* label : {"stream", "join_build", "agg", "sort"}) {
    const PhaseSum& p = phases[label];
    metrics->SetLayer(std::string("morsel.sim_core_speedup.") + label,
                      Ratio(p.busy_sum, p.makespan));
  }
  metrics->SetLayer("morsel.sim_makespan_s", Ratio(all_phases.makespan, n));
  metrics->SetLayer("morsel.sim_busy_sum_s", Ratio(all_phases.busy_sum, n));
  const BufferPoolStats& ps = db->buffer_pool()->stats();
  metrics->SetLayer("storage.pool_hit_rate", ps.HitRate());
  for (const char* name : {"scheduler.host_run_s", "scheduler.sim_makespan_s",
                           "scheduler.escalations", "scheduler.max_level",
                           "scheduler.attributed_j_per_query",
                           "scheduler.merged_batches", "scheduler.merged_share",
                           "qed.members_per_batch", "storage.pool_misses",
                           "storage.random_misses", "storage.evictions"}) {
    metrics->SetLayer(name, 0.0);
  }
  if (completed < 200) {
    std::fprintf(stderr, "warning: only %llu queries completed (< 200)\n",
                 static_cast<unsigned long long>(completed));
  }
  return 0;
}

// ---------------------------------------------------------------------
// eco_stream

/// Whether two schedules of the same input agree: identical outcome
/// kinds and counts, timings and energy within kSimRepeatTol.
bool SameSchedule(const ScheduleReport& a, const ScheduleReport& b) {
  auto close = [](double x, double y) {
    return std::fabs(x - y) <=
           kSimRepeatTol * std::max(std::fabs(x), std::fabs(y));
  };
  if (a.outcomes.size() != b.outcomes.size() || a.completed != b.completed ||
      a.merged_batches != b.merged_batches ||
      a.max_level_reached != b.max_level_reached ||
      !close(a.total_wall_j, b.total_wall_j) ||
      !close(a.makespan_seconds, b.makespan_seconds)) {
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const QueryOutcome& x = a.outcomes[i];
    const QueryOutcome& y = b.outcomes[i];
    if (x.status.code() != y.status.code() || x.attempts != y.attempts ||
        x.merged != y.merged || !close(x.latency_seconds, y.latency_seconds) ||
        !close(x.attributed_wall_j, y.attributed_wall_j)) {
      return false;
    }
  }
  return true;
}

/// One of the run's independent streams: its own query mix and arrival
/// seed, and the schedule its first repetition produced.
struct Stream {
  tpch::Workload workload;
  std::vector<QuerySpec> specs;
  SchedulerOptions options;
  bool has_first = false;
  ScheduleReport first;  ///< first repetition, rows dropped
  double first_cpu_j = 0;
  std::vector<double> host_ms_per_query;  ///< one entry per repetition
};

int RunStream(const Args& args, Tracer* tr, Metrics* metrics, Outcome* out) {
  const double sf = kStreamSf;
  const Seeds seeds = DeriveSeeds(args.seed);
  const int nproc = HostCpus();
  std::printf(
      "# config {\"workload\": \"%s\", \"seed\": %llu, \"params\": "
      "{\"sf\": %g, \"profile\": \"Commercial\", \"pool_pages\": %llu, "
      "\"queue_depth\": %zu, \"streams\": %d, \"queries_per_stream\": %d, "
      "\"selection_fraction\": %g, \"rate_qps\": %g, \"exec_workers\": 1, "
      "\"clients\": 1, \"seconds\": %g, \"setup_reps\": %d}, "
      "\"data_seed\": %llu, \"stream_seed\": %llu, \"scheduler_seed\": %llu, "
      "\"nproc\": %d, \"simd\": \"%s\", \"simd_target\": \"%s\", "
      "\"trace\": %d}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), sf,
      static_cast<unsigned long long>(kStreamPoolPages), kStreamQueueDepth,
      kStreams, kStreamQueries, kStreamSelectionFraction, kStreamRateQps,
      args.seconds, kSetupReps,
      static_cast<unsigned long long>(kStreamDataSeed),
      static_cast<unsigned long long>(seeds.stream),
      static_cast<unsigned long long>(seeds.scheduler), nproc,
      simd::Enabled() ? "on" : "off", simd::ActiveTarget(),
      args.trace ? 1 : 0);
  std::fflush(stdout);

  DatabaseOptions opt;
  opt.profile = EngineProfile::Commercial();
  opt.profile.buffer_pool_pages = kStreamPoolPages;
  tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  gen.seed = kStreamDataSeed;
  std::unique_ptr<Database> db = SetUp(opt, gen, tr, metrics);

  std::vector<uint64_t> quantity_counts;
  {
    Tracer::Scope s(tr, "reference");
    quantity_counts = LineitemQuantityCounts(*db->catalog());
  }
  std::vector<Stream> streams(kStreams);
  uint64_t stream_seed = seeds.stream;
  uint64_t scheduler_seed = seeds.scheduler;
  for (int k = 0; k < kStreams; ++k) {
    Tracer::Scope s(tr, "tpch::MakeSchedulerMixWorkload", k);
    auto wl = tpch::MakeSchedulerMixWorkload(
        *db->catalog(), kStreamQueries, SplitMix(&stream_seed),
        kStreamSelectionFraction);
    if (!wl.ok()) {
      std::fprintf(stderr, "workload: %s\n", wl.status().ToString().c_str());
      return 1;
    }
    Stream& st = streams[static_cast<size_t>(k)];
    st.workload = std::move(wl).value();
    st.specs = WorkloadScheduler::SpecsFromWorkload(st.workload);
    st.options.seed = SplitMix(&scheduler_seed);
    st.options.max_queue_depth = kStreamQueueDepth;
    st.options.keep_rows = true;  // every selection's rows are checked
  }
  const ArrivalProcess arrivals = ArrivalProcess::OpenLoop(kStreamRateQps);

  std::vector<double> run_host_s;
  uint64_t completed = 0;
  double host_sum = 0, attributed_j = 0;
  LedgerSum ledger;
  BufferPoolStats pool_sum;

  // Each stream is one round of whole operations. The run cycles through
  // the streams, always finishing the first pass over all of them (it
  // supplies the simulated metrics), and stops at a stream boundary once
  // the time is up.
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNs();
  const double budget_ns = args.seconds * 1e9;
  for (int i = 0;
       i < kStreams || static_cast<double>(NowNs() - t0) < budget_ns; ++i) {
    Stream& st = streams[static_cast<size_t>(i % kStreams)];
    Tracer::Scope rep_span(tr, "stream", i);
    {
      Tracer::Scope s(tr, "Database::ColdRestart", i);
      db->ColdRestart();
    }
    const EnergyLedger before = db->machine()->ledger();
    const BufferPoolStats pool_before = db->buffer_pool()->stats();
    WorkloadScheduler sched(db.get(), st.options);
    Tracer::Scope run_span(tr, "WorkloadScheduler::Run", i);
    Result<ScheduleReport> res = sched.Run(st.specs, arrivals);
    const double host_s = run_span.End();
    const EnergyLedger after = db->machine()->ledger();
    const BufferPoolStats& pool_after = db->buffer_pool()->stats();
    out->attempted += st.specs.size();
    if (!res.ok()) {
      out->failed += st.specs.size();
      std::fprintf(stderr, "WorkloadScheduler::Run failed: %s\n",
                   res.status().ToString().c_str());
      continue;
    }
    const ScheduleReport& r = res.value();
    Tracer::Scope check(tr, "check.stream", i);
    const uint64_t not_completed = r.failed + r.shed_queue_full +
                                   r.shed_projected_wait + r.breaker_rejected;
    out->failed += not_completed;
    if (not_completed > 0) {
      std::fprintf(stderr,
                   "stream %d: %llu failed, %llu shed, %llu rejected\n",
                   i % kStreams, static_cast<unsigned long long>(r.failed),
                   static_cast<unsigned long long>(r.shed_queue_full +
                                                   r.shed_projected_wait),
                   static_cast<unsigned long long>(r.breaker_rejected));
    }
    if (r.submitted != st.specs.size() ||
        r.submitted != r.completed + r.failed + r.shed_queue_full +
                           r.shed_projected_wait + r.breaker_rejected ||
        r.admitted != r.completed + r.failed) {
      out->Mismatch("stream: conservation identities violated");
    }
    if (r.sheds_below_max_level != 0) {
      out->Mismatch("stream: shed below the top of the degradation ladder");
    }
    CheckEnergy(before, after, "stream", out);
    for (size_t q = 0; q < r.outcomes.size(); ++q) {
      const QueryOutcome& o = r.outcomes[q];
      if (!o.status.ok()) continue;
      if (!(o.attributed_wall_j > 0)) {
        out->Mismatch(StrFormat("stream query %zu: no energy attributed", q));
      }
      const int64_t key = st.specs[q].merge_key;
      if (key >= 0) {
        AnswerView view;
        view.rows = &o.rows;
        std::string m = CheckSelection(quantity_counts, key, view);
        if (!m.empty()) out->Mismatch(StrFormat("stream query %zu: ", q) + m);
      }
    }
    // A stream's first repetition starts at a simulated-clock position
    // that depends only on the seed; it supplies the simulated metrics.
    if (!st.has_first) {
      st.has_first = true;
      st.first = r;
      for (QueryOutcome& o : st.first.outcomes) {
        std::vector<Row>().swap(o.rows);  // release, not just clear
      }
      st.first_cpu_j = after.cpu_j - before.cpu_j;
    } else if (!SameSchedule(st.first, r)) {
      out->Mismatch("stream: a repetition's schedule differs from the first");
    }
    check.End();

    completed += r.completed;
    host_sum += host_s;
    run_host_s.push_back(host_s);
    const double ms = 1e3 * Ratio(host_s, static_cast<double>(r.completed));
    st.host_ms_per_query.push_back(ms);
    ledger.Add(before, after);
    pool_sum.hits += pool_after.hits - pool_before.hits;
    pool_sum.misses += pool_after.misses - pool_before.misses;
    pool_sum.random_misses +=
        pool_after.random_misses - pool_before.random_misses;
    pool_sum.evictions += pool_after.evictions - pool_before.evictions;
    for (const QueryOutcome& o : r.outcomes) {
      if (o.status.ok()) attributed_j += o.attributed_wall_j;
    }
  }
  const double wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double n = static_cast<double>(completed);

  // Simulated metrics pool the first repetition of every stream.
  std::vector<double> sim_lat, stream_medians;
  double first_wall_j = 0, first_cpu_j = 0, first_makespan = 0;
  double escalations = 0, max_level = 0, merged_batches = 0, merged = 0;
  uint64_t first_completed = 0;
  for (const Stream& st : streams) {
    for (const QueryOutcome& o : st.first.outcomes) {
      if (o.status.ok()) sim_lat.push_back(o.latency_seconds);
    }
    first_wall_j += st.first.total_wall_j;
    first_cpu_j += st.first_cpu_j;
    first_completed += st.first.completed;
    first_makespan += st.first.makespan_seconds;
    escalations += static_cast<double>(st.first.escalations);
    max_level = std::max(max_level,
                         static_cast<double>(st.first.max_level_reached));
    merged_batches += static_cast<double>(st.first.merged_batches);
    merged += static_cast<double>(st.first.merged_members);
    stream_medians.push_back(Median(st.host_ms_per_query));
  }
  const double first_n = static_cast<double>(first_completed);
  // Per-query host time is not observable outside WorkloadScheduler::Run:
  // a round is one stream (p50/p90 over the stream runs), and the
  // geometric mean is over the streams of each stream's median host
  // milliseconds per completed query.
  metrics->SetE2e("host_qps", Ratio(n, host_sum));
  metrics->SetE2e("host_round_p50_ms", 1e3 * Percentile(run_host_s, 50));
  metrics->SetE2e("host_round_p90_ms", 1e3 * Percentile(run_host_s, 90));
  metrics->SetE2e("host_geomean_ms", GeoMean(stream_medians));
  metrics->SetE2e("sim_latency_p50_s", Percentile(sim_lat, 50));
  metrics->SetE2e("sim_latency_p95_s", Percentile(sim_lat, 95));
  metrics->SetE2e("sim_joules_per_query", Ratio(first_wall_j, first_n));
  metrics->SetE2e("sim_cpu_joules_per_query", Ratio(first_cpu_j, first_n));

  ledger.Report(n, metrics);
  metrics->SetLayer("process.cpu_s_per_query", Ratio(cpu_s, n));
  metrics->SetLayer("process.cpu_util", Ratio(cpu_s, wall_s));
  const double lookups = static_cast<double>(pool_sum.hits + pool_sum.misses);
  metrics->SetLayer("storage.pool_hit_rate",
                    Ratio(static_cast<double>(pool_sum.hits), lookups));
  metrics->SetLayer("storage.pool_misses",
                    Ratio(static_cast<double>(pool_sum.misses), n));
  metrics->SetLayer("storage.random_misses",
                    Ratio(static_cast<double>(pool_sum.random_misses), n));
  metrics->SetLayer("storage.evictions",
                    Ratio(static_cast<double>(pool_sum.evictions), n));
  std::vector<double> span_run = tr->enabled()
                                     ? tr->Durations("WorkloadScheduler::Run")
                                     : run_host_s;
  const double streams_n = static_cast<double>(kStreams);
  metrics->SetLayer("scheduler.host_run_s", Median(span_run));
  metrics->SetLayer("scheduler.sim_makespan_s", first_makespan / streams_n);
  metrics->SetLayer("scheduler.escalations", escalations / streams_n);
  metrics->SetLayer("scheduler.max_level", max_level);
  metrics->SetLayer("scheduler.attributed_j_per_query", Ratio(attributed_j, n));
  metrics->SetLayer("scheduler.merged_batches", merged_batches / streams_n);
  metrics->SetLayer("scheduler.merged_share", Ratio(merged, first_n));
  metrics->SetLayer("qed.members_per_batch", Ratio(merged, merged_batches));
  std::printf("# stream streams=%d completed=%llu merged_batches=%g "
              "max_level=%g stream_runs=%zu\n",
              kStreams, static_cast<unsigned long long>(first_completed),
              merged_batches, max_level, run_host_s.size());

  // Logical work of the streams' queries. The scheduler does not expose
  // per-query counters, so a traced run re-executes the first stream's
  // specs solo, from a cold pool, after the measured repetitions.
  CounterSum counters;
  const std::vector<QuerySpec>& solo_specs = streams.front().specs;
  if (tr->enabled()) {
    Tracer::Scope solo(tr, "solo_counters");
    db->ColdRestart();
    for (size_t q = 0; q < solo_specs.size(); ++q) {
      Tracer::Scope qs(tr, "Database::ExecutePlanQuery",
                       static_cast<int64_t>(q));
      Result<QueryResult> res = db->ExecutePlanQuery(*solo_specs[q].plan);
      if (!res.ok()) {
        out->Mismatch(StrFormat("stream query %zu solo: ", q) +
                      res.status().ToString());
        continue;
      }
      counters.Add(res.value().exec_stats);
    }
  }
  counters.Report(static_cast<double>(solo_specs.size()), metrics);

  // Layers the stream does not exercise: the SQL front end (plans are
  // built directly), per-type analytic timings and the morsel pools
  // (disk-backed queries are clamped to one worker).
  metrics->SetLayer("sql.plan_us", 0.0);
  for (const char* t : kMixTypes) {
    metrics->SetLayer(std::string("exec.host_ms.") + t, 0.0);
    metrics->SetLayer(std::string("exec.sim_j.") + t, 0.0);
  }
  metrics->SetLayer("exec.host_ns_per_tuple", 0.0);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ecobench --workload <analytic_serial|"
                 "analytic_parallel|eco_stream> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  Tracer tracer(args.trace);
  Metrics metrics;
  Outcome out;
  int rc = 0;
  if (args.workload == "analytic_serial") {
    rc = RunAnalytic(args, /*parallel=*/false, &tracer, &metrics, &out);
  } else if (args.workload == "analytic_parallel") {
    rc = RunAnalytic(args, /*parallel=*/true, &tracer, &metrics, &out);
  } else if (args.workload == "eco_stream") {
    rc = RunStream(args, &tracer, &metrics, &out);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  metrics.SetE2e("peak_rss_mib", PeakRssMib());

  if (tracer.enabled()) {
    const std::string& path = args.trace_out;
    if (!tracer.WriteChromeTrace(path)) {
      std::fprintf(stderr, "could not write trace %s\n", path.c_str());
      return 1;
    }
    std::printf("# trace %s (%zu spans)\n", path.c_str(),
                tracer.spans().size());
  }
  const std::string json = metrics.Emit(args.trace);
  const bool correct = out.mismatches == 0;
  std::printf("# ops attempted=%llu failed=%llu check_failures=%llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.mismatches));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ecobench

int main(int argc, char** argv) { return ecobench::Main(argc, argv); }
