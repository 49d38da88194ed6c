// Independent answer checks for the benchmark's queries.
//
// Every expected answer is derived in plain loops over the loaded tables'
// columns (Catalog::FindTable(...)->column(i)) — no ExecContext, no
// operators, no planner and no engine date helpers — so a wrong answer
// from the engine cannot be mirrored by the oracle. Doubles are compared
// within kRelTol relative (kAbsTol absolute near zero): summation order
// differs between the oracle, the batch engine and the morsel merge.
// Check functions return an empty string on success and a description
// of the first mismatch otherwise.

#ifndef ECOBENCH_REFERENCE_H_
#define ECOBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ecodb/ecodb.h"

namespace ecobench {

inline constexpr double kRelTol = 1e-9;
inline constexpr double kAbsTol = 1e-9;

/// Days since 1970-01-01 of an ISO "YYYY-MM-DD" date (proleptic
/// Gregorian), computed without the engine's own date parser.
int64_t CivilDays(const std::string& iso);
/// Inverse of CivilDays.
std::string CivilDate(int64_t days);

/// Substitution parameters of the analytic mix (TPC-H style, drawn from
/// the run's seed).
struct MixParams {
  std::string q1_cutoff;   ///< 1998-12-01 minus 60..120 days
  std::string q3_segment;
  std::string q3_date;     ///< a day in March 1995
  std::string q5_region;
  std::string q5_date_lo;  ///< Jan 1 of 1993..1997
  std::string q5_date_hi;  ///< one year later
  std::string q6_date_lo;
  std::string q6_date_hi;
  int q6_discount_pct = 6;  ///< 2..9: BETWEEN (pct-1)/100 AND (pct+1)/100
  int q6_quantity = 24;     ///< 24 or 25
};

/// A read-only view of one query's answer: a columnar ResultSet (direct
/// execution) or boxed rows (the workload scheduler's outcomes).
struct AnswerView {
  const ecodb::ResultSet* set = nullptr;
  const std::vector<ecodb::Row>* rows = nullptr;

  size_t num_rows() const { return set ? set->num_rows() : rows->size(); }
  int num_cols() const {
    if (set) return set->num_cols();
    return rows->empty() ? 0 : static_cast<int>(rows->front().size());
  }
  ecodb::CellView At(size_t r, int c) const {
    return set ? set->At(r, c)
               : ecodb::CellView::Of((*rows)[r][static_cast<size_t>(c)]);
  }
};

/// One expected cell: numeric (compared within tolerance) or string.
struct RefCell {
  bool is_string = false;
  double num = 0.0;
  std::string str;
};
using RefRow = std::vector<RefCell>;

/// Expected answers for every analytic query type, computed once per
/// database.
class Reference {
 public:
  Reference(const ecodb::Catalog& catalog, const MixParams& params);

  /// Checks `answer` for query type `type` (one of the mix's names).
  std::string Check(const std::string& type, const AnswerView& answer) const;

 private:
  std::string CheckOrderBy(const AnswerView& answer) const;
  std::string CheckLimitOverAgg(const AnswerView& answer) const;

  std::map<std::string, std::vector<RefRow>> ordered_;  ///< exact row order
  std::vector<RefRow> group_by_strings_;                ///< any row order
  size_t group_key_cols_ = 3;

  struct OrderAgg {
    double revenue = 0.0;
    int64_t count = 0;
  };
  std::unordered_map<int64_t, OrderAgg> per_order_;  ///< limit_over_agg

  // order_by_lineitem properties: row count and order-independent
  // per-column checksums of lineitem.
  size_t lineitem_rows_ = 0;
  std::vector<uint64_t> lineitem_checksums_;
  int shipdate_col_ = -1;
  int orderkey_col_ = -1;
};

/// Rows of lineitem per l_quantity value, indexed by the value (the QED
/// selection oracle).
std::vector<uint64_t> LineitemQuantityCounts(const ecodb::Catalog& catalog);

/// Checks one scheduler-completed selection on l_quantity == v against
/// the counts of LineitemQuantityCounts.
std::string CheckSelection(const std::vector<uint64_t>& quantity_counts,
                           int64_t v, const AnswerView& answer);

}  // namespace ecobench

#endif  // ECOBENCH_REFERENCE_H_
