// Text emitters that render results in the shapes the paper uses: heat maps
// (Figs. 2/9/15/19), CDF/CCDF tables (Figs. 5/13/14/20/21/23), grouped bars
// (Figs. 6/7/10/16/18), and time-series traces (Figs. 3/11/12/17).
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/series.h"
#include "util/stats.h"

namespace mps {

// Grid of value(row, col) with labels; renders numeric cells plus a coarse
// ASCII shade ('#' dark = high) echoing the paper's grey-scale maps.
void print_heatmap(std::ostream& os, const std::string& title,
                   const std::string& row_axis, const std::string& col_axis,
                   const std::vector<std::string>& row_labels,
                   const std::vector<std::string>& col_labels,
                   const std::function<double(std::size_t row, std::size_t col)>& value,
                   double lo = 0.0, double hi = 1.0);

// One column per named series; rows are distribution points at the given
// quantile-ish x grid. `ccdf` prints P(X > x), else P(X <= x).
void print_distribution(std::ostream& os, const std::string& title,
                        const std::string& x_label,
                        const std::vector<std::pair<std::string, const Samples*>>& series,
                        bool ccdf, const std::vector<double>& x_grid);

// Convenience: builds a uniform x grid covering all series.
std::vector<double> make_x_grid(const std::vector<std::pair<std::string, const Samples*>>& series,
                                std::size_t points, double quantile_cap = 0.999);

// Grouped values table: one row per group, one column per named series.
void print_grouped(std::ostream& os, const std::string& title,
                   const std::string& group_label,
                   const std::vector<std::string>& groups,
                   const std::vector<std::string>& series_names,
                   const std::function<double(std::size_t group, std::size_t series)>& value,
                   int precision = 3);

// Down-sampled time-series trace: one row per time bucket.
void print_trace(std::ostream& os, const std::string& title,
                 const std::vector<std::pair<std::string, const TimeSeries*>>& series,
                 Duration bucket, TimePoint from, TimePoint to);

// Section header used by every bench binary.
void print_header(std::ostream& os, const std::string& experiment,
                  const std::string& paper_ref, const std::string& scale_note);

}  // namespace mps
