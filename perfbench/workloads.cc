#include "workloads.h"

#include <utility>

#include "ra/predicate.h"
#include "util/random.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

constexpr double kMs = 1e-3;

uint64_t DataSeed(uint64_t seed, const char* tag) {
  return tcq::SubstreamSeed(seed, tag, 0);
}

// The generators name their relations r1/r2. Queries that share one
// Session need distinct names, so warm_repeat copies each relation under
// a new name; the copy has the same blocks in the same order.
tcq::Result<tcq::RelationPtr> Renamed(const tcq::Relation& rel,
                                      std::string name) {
  TCQ_ASSIGN_OR_RETURN(tcq::Relation copy,
                       tcq::Relation::Create(std::move(name), rel.schema(),
                                             rel.block_bytes()));
  for (int64_t b = 0; b < rel.NumBlocks(); ++b) {
    for (const tcq::Tuple& t : rel.ViewBlock(b).rows()) {
      copy.AppendUnchecked(t);
    }
  }
  return tcq::RelationPtr(std::make_shared<tcq::Relation>(std::move(copy)));
}

// A Session holding a generated workload's own catalog.
std::unique_ptr<tcq::Session> SessionOver(tcq::Workload w) {
  return std::make_unique<tcq::Session>(std::move(w.catalog));
}

int64_t StoredTuples(const tcq::Catalog& catalog) {
  int64_t n = 0;
  for (const std::string& name : catalog.Names()) {
    n += (*catalog.Find(name))->NumTuples();
  }
  return n;
}

// select_large: two 400k-tuple relations (80k blocks each), one with
// uniformly scattered keys and one block-clustered, each in its own
// Session; COUNT(SELECT[key < 40000](r1)) at quotas of 20, 50 and 200 ms.
// At 5 and 10 ms a query's latency is bimodal (some plan a second stage
// over the whole relation, some do not), and at 100 ms that stage ends
// within a few ms of the quota, so which side of either edge a run lands
// on flips with machine load. At 20, 50 and 200 ms every quota stays on
// one side of its edge: the second stage overruns 20 and 50 ms, and the
// whole relation fits in 200 ms.
tcq::Status BuildSelectLarge(Workload* w) {
  constexpr int64_t kTuples = 400000;
  constexpr int64_t kBound = 40000;
  const struct {
    const char* name;
    double clustering;
  } kinds[] = {{"select.uniform", 0.0}, {"select.clustered", 0.5}};
  for (const auto& kind : kinds) {
    TCQ_ASSIGN_OR_RETURN(
        tcq::Workload gen,
        tcq::MakeSelectionWorkload(kBound, DataSeed(w->seed, kind.name),
                                   kTuples, tcq::kPaperTupleBytes,
                                   kind.clustering));
    QueryFamily f;
    f.name = kind.name;
    f.query = gen.query;
    f.exact_count = gen.exact_count;
    f.select_bound = kBound;
    f.clustered = kind.clustering > 0.0;
    w->stored_tuples += StoredTuples(gen.catalog);
    w->sessions.push_back(SessionOver(std::move(gen)));
    f.session = w->sessions.back().get();
    w->families.push_back(std::move(f));
  }
  w->quotas_s = {20 * kMs, 50 * kMs, 200 * kMs};
  return tcq::Status::OK();
}

// join_sortmerge: two 200k-tuple relation pairs at 2 threads with full
// fulfillment: an Intersect sharing 20k tuples, and a Join in the paper's
// Fig. 5.3 geometry scaled 20x (1.4M output, 10 right tuples per key).
tcq::Status BuildJoinSortMerge(Workload* w) {
  constexpr int64_t kTuples = 200000;
  TCQ_ASSIGN_OR_RETURN(
      tcq::Workload inter,
      tcq::MakeIntersectionWorkload(20000, DataSeed(w->seed, "intersect"),
                                    kTuples));
  TCQ_ASSIGN_OR_RETURN(
      tcq::Workload join,
      tcq::MakeJoinWorkload(1400000, DataSeed(w->seed, "join"), kTuples,
                            tcq::kPaperTupleBytes, 10));
  std::pair<const char*, tcq::Workload*> gens[] = {{"intersect", &inter},
                                                   {"join", &join}};
  for (auto& [name, gen] : gens) {
    QueryFamily f;
    f.name = name;
    f.query = gen->query;
    f.exact_count = gen->exact_count;
    f.threads = 2;
    w->stored_tuples += StoredTuples(gen->catalog);
    w->sessions.push_back(SessionOver(std::move(*gen)));
    f.session = w->sessions.back().get();
    w->families.push_back(std::move(f));
  }
  w->quotas_s = {5 * kMs, 20 * kMs, 100 * kMs};
  return tcq::Status::OK();
}

// warm_repeat: one warm-start Session with the hybrid selectivity
// predictor, three 100k-tuple queries (a 10% Select, an Intersect sharing
// 10k tuples, a Join with 700k output) at quotas of 10 and 30 ms.
tcq::Status BuildWarmRepeat(Workload* w) {
  constexpr int64_t kTuples = 100000;
  TCQ_ASSIGN_OR_RETURN(
      tcq::Workload sel,
      tcq::MakeSelectionWorkload(10000, DataSeed(w->seed, "warm.select"),
                                 kTuples));
  TCQ_ASSIGN_OR_RETURN(
      tcq::Workload inter,
      tcq::MakeIntersectionWorkload(10000, DataSeed(w->seed, "warm.intersect"),
                                    kTuples));
  TCQ_ASSIGN_OR_RETURN(
      tcq::Workload join,
      tcq::MakeJoinWorkload(700000, DataSeed(w->seed, "warm.join"), kTuples,
                            tcq::kPaperTupleBytes, 10));
  tcq::Catalog catalog;
  const struct {
    tcq::Workload* gen;
    const char* from;
    const char* to;
  } renames[] = {{&sel, "r1", "s1"},   {&inter, "r1", "i1"},
                 {&inter, "r2", "i2"}, {&join, "r1", "j1"},
                 {&join, "r2", "j2"}};
  for (const auto& r : renames) {
    TCQ_ASSIGN_OR_RETURN(tcq::RelationPtr rel, r.gen->catalog.Find(r.from));
    TCQ_ASSIGN_OR_RETURN(tcq::RelationPtr copy, Renamed(*rel, r.to));
    TCQ_RETURN_NOT_OK(catalog.Register(std::move(copy)));
  }
  w->stored_tuples = StoredTuples(catalog);
  w->sessions.push_back(std::make_unique<tcq::Session>(std::move(catalog)));
  tcq::Session* session = w->sessions.back().get();

  QueryFamily fs;
  fs.name = "warm.select";
  fs.query = tcq::Select(tcq::Scan("s1"),
                         tcq::CmpLiteral("key", tcq::CompareOp::kLt, 10000));
  fs.exact_count = sel.exact_count;
  fs.select_bound = 10000;
  QueryFamily fi;
  fi.name = "warm.intersect";
  fi.query = tcq::Intersect(tcq::Scan("i1"), tcq::Scan("i2"));
  fi.exact_count = inter.exact_count;
  QueryFamily fj;
  fj.name = "warm.join";
  fj.query = tcq::Join(tcq::Scan("j1"), tcq::Scan("j2"), {{"key", "key"}});
  fj.exact_count = join.exact_count;
  for (QueryFamily* f : {&fs, &fi, &fj}) {
    f->session = session;
    w->families.push_back(std::move(*f));
  }
  w->quotas_s = {10 * kMs, 30 * kMs};
  w->warm = true;
  w->epoch_rounds = 3;
  return tcq::Status::OK();
}

}  // namespace

const QueryFamily& Workload::FamilyOf(int64_t i) const {
  return families[static_cast<size_t>(i) % families.size()];
}

double Workload::QuotaOf(int64_t i) const {
  const auto round = static_cast<size_t>(i) / families.size();
  return quotas_s[round % quotas_s.size()];
}

uint64_t Workload::SamplingSeedOf(int64_t i) const {
  return tcq::SubstreamSeed(seed, "query", static_cast<uint64_t>(i));
}

tcq::QueryBuilder Workload::MakeQuery(int64_t i) const {
  const QueryFamily& f = FamilyOf(i);
  tcq::QueryBuilder b = f.session->Query(f.query);
  b.WithQuota(QuotaOf(i))
      .WithThreads(f.threads)
      .WithSeed(SamplingSeedOf(i))
      .WithWallClock()
      .WithCostModel(tcq::CostModel::ModernInMemory())
      .WithDeadline(tcq::DeadlineMode::kHard);
  if (warm) b.WithWarmStart().WithSelPredictor();
  return b;
}

bool IsWorkloadName(const std::string& name) {
  return name == "select_large" || name == "join_sortmerge" ||
         name == "warm_repeat";
}

tcq::Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                    uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->seed = seed;
  w->tuple_bytes = tcq::kPaperTupleBytes;
  if (name == "select_large") {
    TCQ_RETURN_NOT_OK(BuildSelectLarge(w.get()));
  } else if (name == "join_sortmerge") {
    TCQ_RETURN_NOT_OK(BuildJoinSortMerge(w.get()));
  } else if (name == "warm_repeat") {
    TCQ_RETURN_NOT_OK(BuildWarmRepeat(w.get()));
  } else {
    return tcq::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
