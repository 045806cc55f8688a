#include "core/schedule.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace sol::core {

std::vector<std::string>
Schedule::Validate() const
{
    std::vector<std::string> problems;
    if (data_per_epoch < 1) {
        problems.push_back("data_per_epoch must be >= 1");
    }
    if (data_collect_interval <= sim::Duration::zero()) {
        problems.push_back("data_collect_interval must be positive");
    }
    if (max_epoch_time <= sim::Duration::zero()) {
        problems.push_back("max_epoch_time must be positive");
    }
    if (data_collect_interval > sim::Duration::zero() &&
        max_epoch_time < data_collect_interval) {
        problems.push_back(
            "max_epoch_time must be >= data_collect_interval");
    }
    if (assess_model_every_epochs < 1) {
        problems.push_back("assess_model_every_epochs must be >= 1");
    }
    if (max_actuation_delay <= sim::Duration::zero()) {
        problems.push_back("max_actuation_delay must be positive");
    }
    if (assess_actuator_interval <= sim::Duration::zero()) {
        problems.push_back("assess_actuator_interval must be positive");
    }
    return problems;
}

sim::Duration
ParseDuration(const std::string& text)
{
    std::size_t pos = 0;
    bool seen_point = false;
    for (; pos < text.size(); ++pos) {
        const char c = text[pos];
        if (c == '.' && !seen_point) {
            seen_point = true;
        } else if (!std::isdigit(static_cast<unsigned char>(c))) {
            break;  // A second point lands in the unit, which rejects it.
        }
    }
    if (pos == 0) {
        throw std::invalid_argument("duration has no number: " + text);
    }
    double value = 0;
    try {
        value = std::stod(text.substr(0, pos));
    } catch (const std::out_of_range&) {
        throw std::invalid_argument("duration out of range: " + text);
    }
    const std::string unit = text.substr(pos);
    double scale = 0;
    if (unit == "ns") {
        scale = 1;
    } else if (unit == "us") {
        scale = 1e3;
    } else if (unit == "ms") {
        scale = 1e6;
    } else if (unit == "s") {
        scale = 1e9;
    } else {
        throw std::invalid_argument("unknown duration unit: " + text);
    }
    const double ns = value * scale;
    // 2^63 is exactly representable; converting anything at or above it
    // to int64 is undefined behaviour.
    if (!(ns < 0x1p63)) {
        throw std::invalid_argument("duration out of range: " + text);
    }
    return sim::Duration(static_cast<std::int64_t>(ns));
}

namespace {

std::string
Trim(const std::string& s)
{
    const auto begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) {
        return "";
    }
    const auto end = s.find_last_not_of(" \t\r\n");
    return s.substr(begin, end - begin + 1);
}

}  // namespace

Schedule
ParseSchedule(std::istream& in)
{
    Schedule schedule;
    std::string line;
    while (std::getline(in, line)) {
        const auto comment = line.find('#');
        if (comment != std::string::npos) {
            line = line.substr(0, comment);
        }
        line = Trim(line);
        if (line.empty()) {
            continue;
        }
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("malformed schedule line: " + line);
        }
        const std::string key = Trim(line.substr(0, eq));
        const std::string value = Trim(line.substr(eq + 1));
        if (key == "data_per_epoch") {
            schedule.data_per_epoch = std::stoi(value);
        } else if (key == "data_collect_interval") {
            schedule.data_collect_interval = ParseDuration(value);
        } else if (key == "max_epoch_time") {
            schedule.max_epoch_time = ParseDuration(value);
        } else if (key == "assess_model_every_epochs") {
            schedule.assess_model_every_epochs = std::stoi(value);
        } else if (key == "max_actuation_delay") {
            schedule.max_actuation_delay = ParseDuration(value);
        } else if (key == "assess_actuator_interval") {
            schedule.assess_actuator_interval = ParseDuration(value);
        } else {
            throw std::invalid_argument("unknown schedule key: " + key);
        }
    }
    return schedule;
}

}  // namespace sol::core
