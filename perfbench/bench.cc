#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench
{

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finaliser over (seed, stream): distinct streams of
    // one run and equal streams of distinct runs never collide in
    // practice, and the mapping is fixed across builds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty() || !(p > 0) || p > 100)
        throw std::invalid_argument("percentile: empty or bad p");
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::max<std::size_t>(rank, 1) - 1];
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50);
}

int
Tracer::begin(const std::string &name, std::uint64_t id, int parent)
{
    if (!on)
        return -1;
    all.push_back({name, now() - origin, 0, parent, id});
    return static_cast<int>(all.size()) - 1;
}

void
Tracer::end(int handle, double t)
{
    if (handle >= 0)
        all[static_cast<std::size_t>(handle)].end = t - origin;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu, \"parent\": %d}}%s\n",
                     s.name.c_str(), s.start * 1e6,
                     (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id), s.parent,
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimes() const
{
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].end - all[i].start;
    for (const Span &s : all) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < all.size(); ++i)
        by_name[all[i].name] += self[i];
    return {by_name.begin(), by_name.end()};
}

void
Tally::record(const std::string &problem)
{
    ++attempted;
    if (problem.empty())
        return;
    ++failed;
    if (messages.size() < 8)
        messages.push_back(problem);
}

} // namespace perfbench
