#include "telemetry/metric_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace sol::telemetry {

void
MetricRegistry::Increment(const std::string& name, std::uint64_t delta)
{
    counters_[name] += delta;
}

void
MetricRegistry::SetCounter(const std::string& name, std::uint64_t value)
{
    counters_[name] = value;
}

void
MetricRegistry::SetGauge(const std::string& name, double value)
{
    gauges_[name] = value;
}

void
MetricRegistry::AppendSeries(const std::string& name, double x, double y)
{
    series_[name].push_back(SeriesPoint{x, y});
}

void
MetricRegistry::RecordLatency(const std::string& name,
                              std::uint64_t value_ns)
{
    histograms_[name].Record(value_ns);
}

void
MetricRegistry::SetHistogram(const std::string& name,
                             const LatencyHistogram& histogram)
{
    histograms_[name] = histogram;
}

void
MetricRegistry::MergeHistogram(const std::string& name,
                               const LatencyHistogram& histogram)
{
    histograms_[name].Merge(histogram);
}

std::uint64_t
MetricRegistry::Counter(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricRegistry::Gauge(const std::string& name) const
{
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

const LatencyHistogram&
MetricRegistry::Histogram(const std::string& name) const
{
    static const LatencyHistogram kEmpty;
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? kEmpty : it->second;
}

bool
MetricRegistry::HasCounter(const std::string& name) const
{
    return counters_.count(name) > 0;
}

bool
MetricRegistry::HasGauge(const std::string& name) const
{
    return gauges_.count(name) > 0;
}

bool
MetricRegistry::HasSeries(const std::string& name) const
{
    return series_.count(name) > 0;
}

bool
MetricRegistry::HasHistogram(const std::string& name) const
{
    return histograms_.count(name) > 0;
}

const std::vector<SeriesPoint>&
MetricRegistry::Series(const std::string& name) const
{
    static const std::vector<SeriesPoint> kEmpty;
    const auto it = series_.find(name);
    return it == series_.end() ? kEmpty : it->second;
}

void
MetricRegistry::PrintSummary(std::ostream& os) const
{
    for (const auto& [name, value] : counters_) {
        os << "  " << name << " = " << value << "\n";
    }
    os << std::fixed << std::setprecision(4);
    for (const auto& [name, value] : gauges_) {
        os << "  " << name << " = " << value << "\n";
    }
    os.unsetf(std::ios_base::floatfield);
    for (const auto& [name, histogram] : histograms_) {
        const LatencySnapshot snapshot = histogram.Snapshot();
        os << "  " << name << " = n=" << snapshot.count << " p50="
           << snapshot.p50_ns << " p99=" << snapshot.p99_ns
           << " max=" << snapshot.max_ns << " ns\n";
    }
}

void
MetricRegistry::PrintSeriesCsv(std::ostream& os,
                               const std::string& name) const
{
    for (const auto& point : Series(name)) {
        os << point.x << "," << point.y << "\n";
    }
}

namespace {

/** Escapes a string for use inside a JSON string literal. */
std::string
JsonEscape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Formats a double as JSON (finite numbers only; else null). */
std::string
JsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    std::ostringstream ss;
    ss << std::setprecision(12) << v;
    return ss.str();
}

/** True when a table cell parses fully as a finite double. "0x..."
 *  cells are excluded even though strtod accepts C99 hex floats: they
 *  are 64-bit trace-hash fingerprints, and a double would silently
 *  truncate them past 2^53 — they must survive as exact strings. */
bool
LooksNumeric(const std::string& cell, double* value)
{
    if (cell.empty()) {
        return false;
    }
    if (cell.size() > 1 && cell[0] == '0' &&
        (cell[1] == 'x' || cell[1] == 'X')) {
        return false;
    }
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (end != cell.c_str() + cell.size() || !std::isfinite(v)) {
        return false;
    }
    *value = v;
    return true;
}

}  // namespace

void
MetricRegistry::WriteJson(std::ostream& os) const
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters_) {
        os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
           << "\": " << value;
        first = false;
    }
    os << "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : gauges_) {
        os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
           << "\": " << JsonNumber(value);
        first = false;
    }
    os << "\n  },\n  \"series\": {";
    first = true;
    for (const auto& [name, points] : series_) {
        os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
           << "\": [";
        for (std::size_t i = 0; i < points.size(); ++i) {
            os << (i == 0 ? "" : ",") << "[" << JsonNumber(points[i].x)
               << "," << JsonNumber(points[i].y) << "]";
        }
        os << "]";
        first = false;
    }
    os << "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] : histograms_) {
        const LatencySnapshot s = histogram.Snapshot();
        os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
           << "\": {\"count\": " << s.count << ", \"sum_ns\": "
           << s.sum_ns << ", \"min_ns\": " << s.min_ns
           << ", \"max_ns\": " << s.max_ns << ", \"p50_ns\": "
           << s.p50_ns << ", \"p90_ns\": " << s.p90_ns
           << ", \"p99_ns\": " << s.p99_ns << ", \"p999_ns\": "
           << s.p999_ns << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void
MetricRegistry::MergeFrom(const MetricRegistry& other,
                          const std::string& prefix)
{
    const std::string p = prefix.empty() ? "" : prefix + ".";
    for (const auto& [name, value] : other.counters_) {
        counters_[p + name] += value;
    }
    for (const auto& [name, value] : other.gauges_) {
        gauges_[p + name] = value;
    }
    for (const auto& [name, points] : other.series_) {
        auto& dst = series_[p + name];
        dst.insert(dst.end(), points.begin(), points.end());
    }
    for (const auto& [name, histogram] : other.histograms_) {
        histograms_[p + name].Merge(histogram);
    }
}

void
MetricRegistry::Clear()
{
    counters_.clear();
    gauges_.clear();
    series_.clear();
    histograms_.clear();
}

void
MetricRegistry::VisitCounters(
    const std::function<void(const std::string&, std::uint64_t)>& fn) const
{
    for (const auto& [name, value] : counters_) {
        fn(name, value);
    }
}

void
MetricRegistry::VisitGauges(
    const std::function<void(const std::string&, double)>& fn) const
{
    for (const auto& [name, value] : gauges_) {
        fn(name, value);
    }
}

void
MetricRegistry::VisitHistograms(
    const std::function<void(const std::string&, const LatencyHistogram&)>&
        fn) const
{
    for (const auto& [name, histogram] : histograms_) {
        fn(name, histogram);
    }
}

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TableWriter::AddRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size()) {
        throw std::invalid_argument("TableWriter row width mismatch");
    }
    rows_.push_back(std::move(cells));
}

void
TableWriter::Print(std::ostream& os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
        for (const auto& row : rows_) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
        os << "| ";
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c] << " | ";
        }
        os << "\n";
    };
    print_row(headers_);
    os << "|";
    for (const auto w : widths) {
        os << std::string(w + 2, '-') << "-|";
    }
    os << "\n";
    for (const auto& row : rows_) {
        print_row(row);
    }
}

std::string
TableWriter::Num(double v, int precision)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
}

BenchJson::BenchJson(std::string bench_name)
    : bench_name_(std::move(bench_name))
{
}

void
BenchJson::AddTable(const std::string& section, const TableWriter& table)
{
    Section s;
    s.name = section;
    s.is_table = true;
    s.headers = table.headers();
    s.rows = table.rows();
    sections_.push_back(std::move(s));
}

void
BenchJson::AddMetrics(const std::string& section,
                      const MetricRegistry& registry)
{
    Section s;
    s.name = section;
    s.metrics = registry;
    sections_.push_back(std::move(s));
}

void
BenchJson::Write(std::ostream& os) const
{
    os << "{\n\"bench\": \"" << JsonEscape(bench_name_)
       << "\",\n\"schema_version\": 1,\n\"sections\": {";
    bool first_section = true;
    for (const auto& section : sections_) {
        os << (first_section ? "" : ",") << "\n\""
           << JsonEscape(section.name) << "\": ";
        first_section = false;
        if (!section.is_table) {
            section.metrics.WriteJson(os);
            continue;
        }
        os << "{\n  \"headers\": [";
        for (std::size_t c = 0; c < section.headers.size(); ++c) {
            os << (c == 0 ? "" : ",") << "\""
               << JsonEscape(section.headers[c]) << "\"";
        }
        os << "],\n  \"rows\": [";
        for (std::size_t r = 0; r < section.rows.size(); ++r) {
            os << (r == 0 ? "" : ",") << "\n    [";
            for (std::size_t c = 0; c < section.rows[r].size(); ++c) {
                const std::string& cell = section.rows[r][c];
                double value = 0.0;
                os << (c == 0 ? "" : ",");
                if (LooksNumeric(cell, &value)) {
                    os << JsonNumber(value);
                } else {
                    os << "\"" << JsonEscape(cell) << "\"";
                }
            }
            os << "]";
        }
        os << "\n  ]\n}";
    }
    os << "\n}\n}\n";
}

bool
BenchJson::WriteFile() const
{
    std::string dir;
    if (const char* env = std::getenv("SOL_BENCH_JSON_DIR")) {
        dir = env;
    }
    if (dir == "-") {
        return true;  // Explicitly disabled.
    }
    const std::string path = (dir.empty() ? std::string() : dir + "/") +
                             "BENCH_" + bench_name_ + ".json";
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: could not write " << path << "\n";
        return false;
    }
    Write(out);
    std::cout << "\nwrote " << path << "\n";
    return true;
}

}  // namespace sol::telemetry
