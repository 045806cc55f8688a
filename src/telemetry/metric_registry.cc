#include "telemetry/metric_registry.h"

#include <algorithm>
#include <charconv>
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

/**
 * The JSON number a table cell is written as, or "" when the cell stays
 * a string. A cell becomes a number only when it is a JSON number
 * literal whose value survives the trip: an integer is written digit
 * for digit (64-bit counts stay exact past 2^53), any other literal as
 * the shortest text that parses back to the same double. Everything
 * else stays a string: " 12", "007", "+5", hex fingerprints such as
 * "0x1f" or "-0x1f", and literals out of double range such as "1e400".
 */
std::string
JsonNumberCell(const std::string& cell)
{
    // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    const std::size_t n = cell.size();
    std::size_t i = 0;
    const auto digits = [&cell, n, &i] {
        const std::size_t start = i;
        while (i < n && cell[i] >= '0' && cell[i] <= '9') {
            ++i;
        }
        return i - start;
    };
    if (i < n && cell[i] == '-') {
        ++i;
    }
    const std::size_t int_start = i;
    const std::size_t int_digits = digits();
    if (int_digits == 0 || (int_digits > 1 && cell[int_start] == '0')) {
        return "";
    }
    bool integer = true;
    if (i < n && cell[i] == '.') {
        ++i;
        if (digits() == 0) {
            return "";
        }
        integer = false;
    }
    if (i < n && (cell[i] == 'e' || cell[i] == 'E')) {
        ++i;
        if (i < n && (cell[i] == '+' || cell[i] == '-')) {
            ++i;
        }
        if (digits() == 0) {
            return "";
        }
        integer = false;
    }
    if (i != n) {
        return "";
    }
    if (integer) {
        return cell;
    }
    double value = 0.0;
    const char* last = cell.data() + n;
    const std::from_chars_result parsed =
        std::from_chars(cell.data(), last, value);
    if (parsed.ec != std::errc() || parsed.ptr != last) {
        return "";  // Beyond double range: the number would not survive.
    }
    char text[32];
    const std::to_chars_result written =
        std::to_chars(text, text + sizeof(text), value);
    return std::string(text, written.ptr);
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
                const std::string number = JsonNumberCell(cell);
                os << (c == 0 ? "" : ",");
                if (!number.empty()) {
                    os << number;
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
