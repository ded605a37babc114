#include "spans.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace e2e {

double
Tracer::total_seconds(const char* name, std::int32_t run) const
{
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.run == run && std::strcmp(span.name, name) == 0) {
            total += span.seconds();
        }
    }
    return total;
}

double
Tracer::self_seconds(std::int32_t id) const
{
    const Span& self = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (const Span& span : spans_) {
        if (span.parent == id) {
            children.emplace_back(std::max(span.start_ns, self.start_ns),
                                  std::min(span.end_ns, self.end_ns));
        }
    }
    std::sort(children.begin(), children.end());
    std::int64_t covered = 0;
    std::int64_t reach = self.start_ns;
    for (const auto& [start, end] : children) {
        const std::int64_t from = std::max(start, reach);
        if (end > from) {
            covered += end - from;
            reach = end;
        }
    }
    return static_cast<double>(self.end_ns - self.start_ns - covered) * 1e-9;
}

void
Tracer::write(std::ostream& out) const
{
    out << "run\tid\tparent\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << span.run << '\t' << i << '\t' << span.parent << '\t'
            << span.name << '\t' << span.start_ns << '\t' << span.end_ns
            << '\n';
    }
}

}  // namespace e2e
