#include "core/runtime_stats.h"

#include <type_traits>

namespace sol::core {

std::ostream&
operator<<(std::ostream& os, const RuntimeStats& stats)
{
    ForEachCounter(
        [&os](const char* name, CounterFold, const auto& value) {
            os << name << " = ";
            if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                         sim::Duration>) {
                os << sim::ToSeconds(value);
            } else {
                os << value;
            }
            os << "\n";
        },
        stats);
    return os;
}

}  // namespace sol::core
