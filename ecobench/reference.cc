#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

namespace ecobench {

using ecodb::CellView;
using ecodb::Column;
using ecodb::Table;
using ecodb::ValueType;

int64_t CivilDays(const std::string& iso) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(iso.c_str(), "%d-%d-%d", &y, &m, &d) != 3) return INT64_MIN;
  // Howard Hinnant's days_from_civil.
  y -= m <= 2 ? 1 : 0;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const int yoe = y - era * 400;
  const int doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 + doe - 719468;
}

std::string CivilDate(int64_t days) {
  // Howard Hinnant's civil_from_days.
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const int64_t doe = days - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp < 10 ? mp + 3 : mp - 9;
  const int64_t y = yoe + era * 400 + (m <= 2 ? 1 : 0);
  return ecodb::StrFormat("%04lld-%02lld-%02lld", static_cast<long long>(y),
                          static_cast<long long>(m),
                          static_cast<long long>(d));
}

namespace {

const Table& TableOrDie(const ecodb::Catalog& catalog, const char* name) {
  const Table* t = catalog.FindTable(name);
  if (t == nullptr) {
    std::fprintf(stderr, "reference: table %s missing\n", name);
    std::exit(2);
  }
  return *t;
}

const Column& Col(const Table& t, const char* name) {
  int idx = t.schema().FindField(name);
  if (idx < 0) {
    std::fprintf(stderr, "reference: column %s missing\n", name);
    std::exit(2);
  }
  return t.column(idx);
}

RefCell Num(double v) {
  RefCell c;
  c.num = v;
  return c;
}
RefCell Str(const std::string& s) {
  RefCell c;
  c.is_string = true;
  c.str = s;
  return c;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= kAbsTol + kRelTol * std::max(std::fabs(a),
                                                          std::fabs(b));
}

std::string CellMismatch(const RefCell& want, const CellView& got) {
  if (want.is_string) {
    if (got.type != ValueType::kString || got.s == nullptr) {
      return "expected string '" + want.str + "', got a non-string";
    }
    if (*got.s != want.str) {
      return "expected '" + want.str + "', got '" + *got.s + "'";
    }
    return "";
  }
  if (got.is_null() || got.type == ValueType::kString) {
    return ecodb::StrFormat("expected %.17g, got null/string", want.num);
  }
  if (!Close(want.num, got.AsDouble())) {
    return ecodb::StrFormat("expected %.17g, got %.17g", want.num,
                            got.AsDouble());
  }
  return "";
}

std::string RowMismatch(const RefRow& want, const AnswerView& a, size_t r) {
  for (size_t c = 0; c < want.size(); ++c) {
    std::string m = CellMismatch(want[c], a.At(r, static_cast<int>(c)));
    if (!m.empty()) {
      return ecodb::StrFormat("row %zu col %zu: ", r, c) + m;
    }
  }
  return "";
}

std::string ShapeMismatch(const AnswerView& a, size_t rows, size_t cols) {
  if (a.num_rows() != rows) {
    return ecodb::StrFormat("expected %zu rows, got %zu", rows, a.num_rows());
  }
  if (rows > 0 && static_cast<size_t>(a.num_cols()) != cols) {
    return ecodb::StrFormat("expected %zu columns, got %d", cols,
                            a.num_cols());
  }
  return "";
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t StringHash(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Order-independent checksum contribution of one cell.
uint64_t CellSum(const CellView& v) {
  switch (v.type) {
    case ValueType::kString:
      return Mix(StringHash(*v.s));
    case ValueType::kDouble:
      return Mix(DoubleBits(v.d));
    default:
      return Mix(static_cast<uint64_t>(v.i));
  }
}

uint64_t ColumnCellSum(const Column& col, size_t r) {
  switch (col.type()) {
    case ValueType::kString:
      return Mix(StringHash(col.GetString(r)));
    case ValueType::kDouble:
      return Mix(DoubleBits(col.GetDouble(r)));
    default:
      return Mix(static_cast<uint64_t>(col.GetInt(r)));
  }
}

}  // namespace

Reference::Reference(const ecodb::Catalog& catalog, const MixParams& p) {
  const Table& li = TableOrDie(catalog, "lineitem");
  const Table& orders = TableOrDie(catalog, "orders");
  const Table& customer = TableOrDie(catalog, "customer");
  const Table& supplier = TableOrDie(catalog, "supplier");
  const Table& nation = TableOrDie(catalog, "nation");
  const Table& region = TableOrDie(catalog, "region");
  const size_t n = li.num_rows();

  const Column& l_orderkey = Col(li, "l_orderkey");
  const Column& l_suppkey = Col(li, "l_suppkey");
  const Column& l_quantity = Col(li, "l_quantity");
  const Column& l_price = Col(li, "l_extendedprice");
  const Column& l_discount = Col(li, "l_discount");
  const Column& l_tax = Col(li, "l_tax");
  const Column& l_flag = Col(li, "l_returnflag");
  const Column& l_status = Col(li, "l_linestatus");
  const Column& l_shipdate = Col(li, "l_shipdate");
  const Column& l_instruct = Col(li, "l_shipinstruct");
  const Column& l_mode = Col(li, "l_shipmode");

  // --- q1: pricing summary, grouped by (flag, status), sorted by key.
  {
    struct G {
      double qty = 0, base = 0, disc = 0, charge = 0, discount = 0;
      int64_t n = 0;
    };
    std::map<std::pair<std::string, std::string>, G> groups;
    const int64_t cutoff = CivilDays(p.q1_cutoff);
    for (size_t r = 0; r < n; ++r) {
      if (l_shipdate.GetInt(r) > cutoff) continue;
      G& g = groups[{l_flag.GetString(r), l_status.GetString(r)}];
      const double price = l_price.GetDouble(r);
      const double d = l_discount.GetDouble(r);
      g.qty += static_cast<double>(l_quantity.GetInt(r));
      g.base += price;
      g.disc += price * (1 - d);
      g.charge += price * (1 - d) * (1 + l_tax.GetDouble(r));
      g.discount += d;
      ++g.n;
    }
    std::vector<RefRow>& rows = ordered_["q1"];
    for (const auto& [key, g] : groups) {
      const double cnt = static_cast<double>(g.n);
      rows.push_back({Str(key.first), Str(key.second), Num(g.qty),
                      Num(g.base), Num(g.disc), Num(g.charge),
                      Num(g.qty / cnt), Num(g.base / cnt),
                      Num(g.discount / cnt), Num(cnt)});
    }
  }

  // Order lookups shared by q3 and q5.
  const Column& o_orderkey = Col(orders, "o_orderkey");
  const Column& o_custkey = Col(orders, "o_custkey");
  const Column& o_orderdate = Col(orders, "o_orderdate");
  const Column& o_shippriority = Col(orders, "o_shippriority");
  const Column& c_custkey = Col(customer, "c_custkey");
  const Column& c_nationkey = Col(customer, "c_nationkey");
  const Column& c_segment = Col(customer, "c_mktsegment");
  std::unordered_map<int64_t, size_t> order_row;
  for (size_t r = 0; r < orders.num_rows(); ++r) {
    order_row[o_orderkey.GetInt(r)] = r;
  }

  // --- q3: shipping priority, top 10 by revenue desc, orderdate asc.
  {
    std::unordered_set<int64_t> custs;
    for (size_t r = 0; r < customer.num_rows(); ++r) {
      if (c_segment.GetString(r) == p.q3_segment) {
        custs.insert(c_custkey.GetInt(r));
      }
    }
    const int64_t date = CivilDays(p.q3_date);
    std::unordered_map<int64_t, double> revenue;
    for (size_t r = 0; r < n; ++r) {
      if (l_shipdate.GetInt(r) <= date) continue;
      auto it = order_row.find(l_orderkey.GetInt(r));
      if (it == order_row.end()) continue;
      const size_t o = it->second;
      if (o_orderdate.GetInt(o) >= date) continue;
      if (custs.count(o_custkey.GetInt(o)) == 0) continue;
      revenue[l_orderkey.GetInt(r)] +=
          l_price.GetDouble(r) * (1 - l_discount.GetDouble(r));
    }
    struct Out {
      int64_t key, date, prio;
      double rev;
    };
    std::vector<Out> out;
    for (const auto& [key, rev] : revenue) {
      const size_t o = order_row.at(key);
      out.push_back({key, o_orderdate.GetInt(o), o_shippriority.GetInt(o),
                     rev});
    }
    std::sort(out.begin(), out.end(), [](const Out& a, const Out& b) {
      if (a.rev != b.rev) return a.rev > b.rev;
      if (a.date != b.date) return a.date < b.date;
      return a.key < b.key;
    });
    if (out.size() > 10) out.resize(10);
    std::vector<RefRow>& rows = ordered_["q3"];
    for (const Out& o : out) {
      rows.push_back({Num(static_cast<double>(o.key)),
                      Num(static_cast<double>(o.date)),
                      Num(static_cast<double>(o.prio)), Num(o.rev)});
    }
  }

  // --- q5: local-supplier volume per nation of one region.
  {
    const Column& r_regionkey = Col(region, "r_regionkey");
    const Column& r_name = Col(region, "r_name");
    int64_t region_key = -1;
    for (size_t r = 0; r < region.num_rows(); ++r) {
      if (r_name.GetString(r) == p.q5_region) {
        region_key = r_regionkey.GetInt(r);
      }
    }
    const Column& n_nationkey = Col(nation, "n_nationkey");
    const Column& n_name = Col(nation, "n_name");
    const Column& n_regionkey = Col(nation, "n_regionkey");
    std::unordered_map<int64_t, std::string> nations;  // in the region
    for (size_t r = 0; r < nation.num_rows(); ++r) {
      if (n_regionkey.GetInt(r) == region_key) {
        nations[n_nationkey.GetInt(r)] = n_name.GetString(r);
      }
    }
    std::unordered_map<int64_t, int64_t> cust_nation;
    for (size_t r = 0; r < customer.num_rows(); ++r) {
      cust_nation[c_custkey.GetInt(r)] = c_nationkey.GetInt(r);
    }
    const Column& s_suppkey = Col(supplier, "s_suppkey");
    const Column& s_nationkey = Col(supplier, "s_nationkey");
    std::unordered_map<int64_t, int64_t> supp_nation;
    for (size_t r = 0; r < supplier.num_rows(); ++r) {
      supp_nation[s_suppkey.GetInt(r)] = s_nationkey.GetInt(r);
    }
    const int64_t lo = CivilDays(p.q5_date_lo);
    const int64_t hi = CivilDays(p.q5_date_hi);
    std::map<std::string, double> revenue;
    for (size_t r = 0; r < n; ++r) {
      auto it = order_row.find(l_orderkey.GetInt(r));
      if (it == order_row.end()) continue;
      const size_t o = it->second;
      const int64_t od = o_orderdate.GetInt(o);
      if (od < lo || od >= hi) continue;
      auto cn = cust_nation.find(o_custkey.GetInt(o));
      auto sn = supp_nation.find(l_suppkey.GetInt(r));
      if (cn == cust_nation.end() || sn == supp_nation.end()) continue;
      if (cn->second != sn->second) continue;
      auto nat = nations.find(sn->second);
      if (nat == nations.end()) continue;
      revenue[nat->second] +=
          l_price.GetDouble(r) * (1 - l_discount.GetDouble(r));
    }
    std::vector<std::pair<std::string, double>> out(revenue.begin(),
                                                    revenue.end());
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    std::vector<RefRow>& rows = ordered_["q5"];
    for (const auto& [name, rev] : out) rows.push_back({Str(name), Num(rev)});
  }

  // --- q6: forecasting revenue change (one scalar).
  {
    const int64_t lo = CivilDays(p.q6_date_lo);
    const int64_t hi = CivilDays(p.q6_date_hi);
    // The SQL text spells the bounds as two-decimal literals; l_discount
    // holds k/100.0, so compare on integer cents.
    double revenue = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const int64_t sd = l_shipdate.GetInt(r);
      if (sd < lo || sd >= hi) continue;
      const double d = l_discount.GetDouble(r);
      const long cents = std::lround(d * 100.0);
      if (cents < p.q6_discount_pct - 1 || cents > p.q6_discount_pct + 1) {
        continue;
      }
      if (l_quantity.GetInt(r) >= p.q6_quantity) continue;
      revenue += l_price.GetDouble(r) * d;
    }
    ordered_["q6"] = {{Num(revenue)}};
  }

  // --- group_by_strings: (shipmode, flag, status) -> SUM/COUNT/MIN.
  {
    struct G {
      double qty = 0;
      int64_t n = 0;
      std::string min_instruct;
    };
    std::map<std::vector<std::string>, G> groups;
    for (size_t r = 0; r < n; ++r) {
      G& g = groups[{l_mode.GetString(r), l_flag.GetString(r),
                     l_status.GetString(r)}];
      const std::string& ins = l_instruct.GetString(r);
      if (g.n == 0 || ins < g.min_instruct) g.min_instruct = ins;
      g.qty += static_cast<double>(l_quantity.GetInt(r));
      ++g.n;
    }
    for (const auto& [key, g] : groups) {
      group_by_strings_.push_back({Str(key[0]), Str(key[1]), Str(key[2]),
                                   Num(g.qty),
                                   Num(static_cast<double>(g.n)),
                                   Str(g.min_instruct)});
    }
  }

  // --- limit_over_agg: per-order SUM(l_extendedprice), COUNT(*).
  for (size_t r = 0; r < n; ++r) {
    OrderAgg& a = per_order_[l_orderkey.GetInt(r)];
    a.revenue += l_price.GetDouble(r);
    ++a.count;
  }

  // --- order_by_lineitem properties.
  lineitem_rows_ = n;
  lineitem_checksums_.assign(static_cast<size_t>(li.num_columns()), 0);
  for (int c = 0; c < li.num_columns(); ++c) {
    const Column& col = li.column(c);
    uint64_t sum = 0;
    for (size_t r = 0; r < n; ++r) sum += ColumnCellSum(col, r);
    lineitem_checksums_[static_cast<size_t>(c)] = sum;
  }
  shipdate_col_ = li.schema().FindField("l_shipdate");
  orderkey_col_ = li.schema().FindField("l_orderkey");
}

std::string Reference::Check(const std::string& type,
                             const AnswerView& answer) const {
  if (type == "order_by_lineitem") return CheckOrderBy(answer);
  if (type == "limit_over_agg") return CheckLimitOverAgg(answer);
  if (type == "group_by_strings") {
    // No ORDER BY: match each answer row to its group by the key columns.
    std::string m = ShapeMismatch(answer, group_by_strings_.size(),
                                  group_by_strings_.front().size());
    if (!m.empty()) return m;
    std::vector<bool> seen(group_by_strings_.size(), false);
    for (size_t r = 0; r < answer.num_rows(); ++r) {
      size_t match = group_by_strings_.size();
      for (size_t g = 0; g < group_by_strings_.size(); ++g) {
        bool keys_equal = true;
        for (size_t c = 0; c < group_key_cols_ && keys_equal; ++c) {
          keys_equal = CellMismatch(group_by_strings_[g][c],
                                    answer.At(r, static_cast<int>(c)))
                           .empty();
        }
        if (keys_equal) {
          match = g;
          break;
        }
      }
      if (match == group_by_strings_.size() || seen[match]) {
        return ecodb::StrFormat("row %zu: unknown or repeated group", r);
      }
      seen[match] = true;
      m = RowMismatch(group_by_strings_[match], answer, r);
      if (!m.empty()) return m;
    }
    return "";
  }
  auto it = ordered_.find(type);
  if (it == ordered_.end()) return "no reference for query type " + type;
  const std::vector<RefRow>& want = it->second;
  std::string m = ShapeMismatch(answer, want.size(),
                                want.empty() ? 0 : want.front().size());
  if (!m.empty()) return m;
  for (size_t r = 0; r < want.size(); ++r) {
    m = RowMismatch(want[r], answer, r);
    if (!m.empty()) return m;
  }
  return "";
}

std::string Reference::CheckOrderBy(const AnswerView& a) const {
  std::string m = ShapeMismatch(a, lineitem_rows_, lineitem_checksums_.size());
  if (!m.empty()) return m;
  const size_t n = a.num_rows();
  // Sorted on (l_shipdate DESC, l_orderkey ASC).
  for (size_t r = 1; r < n; ++r) {
    const int64_t d0 = a.At(r - 1, shipdate_col_).i;
    const int64_t d1 = a.At(r, shipdate_col_).i;
    if (d0 < d1 || (d0 == d1 && a.At(r - 1, orderkey_col_).i >
                                     a.At(r, orderkey_col_).i)) {
      return ecodb::StrFormat("rows %zu/%zu out of order", r - 1, r);
    }
  }
  for (size_t c = 0; c < lineitem_checksums_.size(); ++c) {
    uint64_t sum = 0;
    for (size_t r = 0; r < n; ++r) sum += CellSum(a.At(r, static_cast<int>(c)));
    if (sum != lineitem_checksums_[c]) {
      return ecodb::StrFormat("column %zu checksum differs from lineitem", c);
    }
  }
  return "";
}

std::string Reference::CheckLimitOverAgg(const AnswerView& a) const {
  const size_t want_rows = std::min<size_t>(100, per_order_.size());
  std::string m = ShapeMismatch(a, want_rows, 3);
  if (!m.empty()) return m;
  std::unordered_set<int64_t> keys;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    const int64_t key = a.At(r, 0).i;
    auto it = per_order_.find(key);
    if (it == per_order_.end() || !keys.insert(key).second) {
      return ecodb::StrFormat("row %zu: unknown or repeated l_orderkey %lld",
                              r, static_cast<long long>(key));
    }
    m = RowMismatch({Num(static_cast<double>(key)), Num(it->second.revenue),
                     Num(static_cast<double>(it->second.count))},
                    a, r);
    if (!m.empty()) return m;
  }
  return "";
}

std::vector<uint64_t> LineitemQuantityCounts(const ecodb::Catalog& catalog) {
  const Table& li = TableOrDie(catalog, "lineitem");
  const Column& l_quantity = Col(li, "l_quantity");
  std::vector<uint64_t> counts;
  for (size_t r = 0; r < li.num_rows(); ++r) {
    const int64_t q = l_quantity.GetInt(r);
    if (q < 0) continue;
    if (static_cast<size_t>(q) >= counts.size()) {
      counts.resize(static_cast<size_t>(q) + 1, 0);
    }
    ++counts[static_cast<size_t>(q)];
  }
  return counts;
}

std::string CheckSelection(const std::vector<uint64_t>& quantity_counts,
                           int64_t v, const AnswerView& answer) {
  const uint64_t want =
      v >= 0 && static_cast<size_t>(v) < quantity_counts.size()
          ? quantity_counts[static_cast<size_t>(v)]
          : 0;
  if (answer.num_rows() != want) {
    return ecodb::StrFormat("l_quantity = %lld: expected %llu rows, got %zu",
                            static_cast<long long>(v),
                            static_cast<unsigned long long>(want),
                            answer.num_rows());
  }
  // The selection projects (l_orderkey, l_partkey, l_quantity, ...).
  for (size_t r = 0; r < answer.num_rows(); ++r) {
    if (answer.At(r, 2).i != v) {
      return ecodb::StrFormat("l_quantity = %lld: row %zu has quantity %lld",
                              static_cast<long long>(v), r,
                              static_cast<long long>(answer.At(r, 2).i));
    }
  }
  return "";
}

}  // namespace ecobench
