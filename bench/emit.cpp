#include "bench/emit.h"

#include <algorithm>
#include <cmath>
#include <iomanip>

namespace mps {

namespace {

char shade_for(double v, double lo, double hi) {
  static constexpr char kShades[] = {'.', ':', '-', '=', '+', '*', '%', '#'};
  if (hi <= lo) return kShades[0];
  const double x = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
  const int idx = std::min<int>(static_cast<int>(x * 8.0), 7);
  return kShades[idx];
}

}  // namespace

void print_heatmap(std::ostream& os, const std::string& title,
                   const std::string& row_axis, const std::string& col_axis,
                   const std::vector<std::string>& row_labels,
                   const std::vector<std::string>& col_labels,
                   const std::function<double(std::size_t, std::size_t)>& value,
                   double lo, double hi) {
  os << "\n" << title << "\n";
  os << "  rows: " << row_axis << ", cols: " << col_axis
     << "  (shade: '.'=low '#'=high)\n";
  os << std::setw(10) << "";
  for (const auto& c : col_labels) os << std::setw(8) << c;
  os << "\n";
  // Paper heat maps put the first row label at the bottom; iterate reversed
  // so the text layout matches the figures.
  for (std::size_t r = row_labels.size(); r-- > 0;) {
    os << std::setw(10) << row_labels[r];
    for (std::size_t c = 0; c < col_labels.size(); ++c) {
      const double v = value(r, c);
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.2f%c", v, shade_for(v, lo, hi));
      os << std::setw(8) << buf;
    }
    os << "\n";
  }
}

std::vector<double> make_x_grid(
    const std::vector<std::pair<std::string, const Samples*>>& series, std::size_t points,
    double quantile_cap) {
  double xmax = 0.0;
  for (const auto& [name, s] : series) {
    if (s != nullptr && !s->empty()) xmax = std::max(xmax, s->quantile(quantile_cap));
  }
  if (xmax <= 0.0) xmax = 1.0;
  std::vector<double> grid;
  grid.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    grid.push_back(xmax * static_cast<double>(i) / static_cast<double>(points));
  }
  return grid;
}

void print_distribution(std::ostream& os, const std::string& title,
                        const std::string& x_label,
                        const std::vector<std::pair<std::string, const Samples*>>& series,
                        bool ccdf, const std::vector<double>& x_grid) {
  os << "\n" << title << (ccdf ? "  [CCDF: P(X > x)]" : "  [CDF: P(X <= x)]") << "\n";
  os << std::setw(14) << x_label;
  for (const auto& [name, s] : series) {
    os << std::setw(12) << name << "(n=" << (s ? s->count() : 0) << ")";
  }
  os << "\n";
  for (double x : x_grid) {
    os << std::setw(14) << std::fixed << std::setprecision(4) << x;
    for (const auto& [name, s] : series) {
      const double y = s == nullptr || s->empty() ? 0.0 : (ccdf ? s->ccdf_at(x) : s->cdf_at(x));
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%.5f", y);
      os << std::setw(12 + 4 + static_cast<int>(std::to_string(s ? s->count() : 0).size()))
         << buf;
    }
    os << "\n";
  }
  os.unsetf(std::ios::fixed);
}

void print_grouped(std::ostream& os, const std::string& title,
                   const std::string& group_label,
                   const std::vector<std::string>& groups,
                   const std::vector<std::string>& series_names,
                   const std::function<double(std::size_t, std::size_t)>& value,
                   int precision) {
  os << "\n" << title << "\n";
  os << std::setw(16) << group_label;
  for (const auto& name : series_names) os << std::setw(12) << name;
  os << "\n";
  for (std::size_t g = 0; g < groups.size(); ++g) {
    os << std::setw(16) << groups[g];
    for (std::size_t s = 0; s < series_names.size(); ++s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.*f", precision, value(g, s));
      os << std::setw(12) << buf;
    }
    os << "\n";
  }
}

void print_trace(std::ostream& os, const std::string& title,
                 const std::vector<std::pair<std::string, const TimeSeries*>>& series,
                 Duration bucket, TimePoint from, TimePoint to) {
  os << "\n" << title << "\n";
  os << std::setw(12) << "time(s)";
  for (const auto& [name, s] : series) os << std::setw(14) << name;
  os << "\n";
  for (TimePoint t = from; t < to; t += bucket) {
    os << std::setw(12) << std::fixed << std::setprecision(1) << t.to_seconds();
    for (const auto& [name, s] : series) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", s->time_mean(t, t + bucket));
      os << std::setw(14) << buf;
    }
    os << "\n";
  }
  os.unsetf(std::ios::fixed);
}

void print_header(std::ostream& os, const std::string& experiment,
                  const std::string& paper_ref, const std::string& scale_note) {
  os << "==============================================================\n";
  os << experiment << "\n";
  os << "reproduces: " << paper_ref << "\n";
  if (!scale_note.empty()) os << "scale: " << scale_note << "\n";
  os << "==============================================================\n";
}

}  // namespace mps
