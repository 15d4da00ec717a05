#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>
#include <utility>

namespace perfbench
{

using reach::cbir::Matrix;
using reach::cbir::Neighbor;

namespace
{

template <typename... Parts>
std::string
describe(const Parts &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

double
normSq(std::span<const float> a)
{
    double acc = 0;
    for (float v : a)
        acc += static_cast<double>(v) * v;
    return acc;
}

} // namespace

double
l2sq(std::span<const float> a, std::span<const float> b)
{
    double acc[4] = {0, 0, 0, 0};
    std::size_t n = a.size(), i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t j = 0; j < 4; ++j) {
            double d = static_cast<double>(a[i + j]) - b[i + j];
            acc[j] += d * d;
        }
    }
    for (; i < n; ++i) {
        double d = static_cast<double>(a[i]) - b[i];
        acc[0] += d * d;
    }
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

std::string
checkAnswer(const std::vector<Neighbor> &got, std::span<const float> query,
            const Matrix &database, std::size_t k)
{
    if (got.size() != k)
        return describe("answer holds ", got.size(), " ids, expected ", k);
    std::unordered_set<std::uint32_t> seen;
    double qn = normSq(query);
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Neighbor &nb = got[i];
        if (nb.id >= database.rows())
            return describe("id ", nb.id, " out of range");
        if (!seen.insert(nb.id).second)
            return describe("id ", nb.id, " repeated");
        if (i > 0 && nb.distSq < got[i - 1].distSq)
            return describe("distances not sorted at rank ", i);
        auto row = database.row(nb.id);
        double ref = l2sq(query, row);
        double tol = kDistTol * (qn + normSq(row)) + 1e-6;
        if (std::fabs(static_cast<double>(nb.distSq) - ref) > tol) {
            return describe("id ", nb.id, " distance ", nb.distSq,
                            " but recomputed ", ref);
        }
    }
    return {};
}

std::string
checkShortlist(const std::vector<std::uint32_t> &list,
               std::span<const float> query, const Matrix &centroids,
               std::size_t nprobe, double rel_tol)
{
    if (list.size() != nprobe)
        return describe("short-list holds ", list.size(), " clusters");
    std::vector<double> dist(centroids.rows());
    for (std::size_t c = 0; c < centroids.rows(); ++c)
        dist[c] = l2sq(query, centroids.row(c));
    std::vector<double> sorted = dist;
    std::nth_element(sorted.begin(),
                     sorted.begin() +
                         static_cast<std::ptrdiff_t>(nprobe - 1),
                     sorted.end());
    double kth = sorted[nprobe - 1];
    double qn = normSq(query);
    std::unordered_set<std::uint32_t> seen;
    for (std::uint32_t c : list) {
        if (c >= centroids.rows())
            return describe("cluster ", c, " out of range");
        if (!seen.insert(c).second)
            return describe("cluster ", c, " repeated");
        double tol = rel_tol * (qn + normSq(centroids.row(c)));
        if (dist[c] > kth + tol) {
            return describe("cluster ", c, " at ", dist[c],
                            " is not among the ", nprobe,
                            " nearest (limit ", kth, ")");
        }
    }
    return {};
}

std::vector<std::uint32_t>
rebuildCandidates(const reach::cbir::InvertedFileIndex &index,
                  const std::vector<std::uint32_t> &list,
                  std::size_t budget)
{
    std::vector<std::uint32_t> ids;
    for (std::uint32_t c : list) {
        for (std::uint32_t id : index.cluster(c)) {
            if (budget != 0 && ids.size() == budget)
                return ids;
            ids.push_back(id);
        }
    }
    return ids;
}

std::string
checkExactTopK(const std::vector<Neighbor> &got,
               std::span<const float> query, const Matrix &database,
               const std::vector<std::uint32_t> &candidates,
               std::size_t k)
{
    if (got.size() != std::min(k, candidates.size()))
        return describe("top-k holds ", got.size(), " ids");
    std::vector<std::pair<double, std::uint32_t>> mine, exact;
    for (const Neighbor &nb : got) {
        if (std::find(candidates.begin(), candidates.end(), nb.id) ==
            candidates.end())
            return describe("id ", nb.id, " is not a candidate");
        mine.push_back({l2sq(query, database.row(nb.id)), nb.id});
    }
    for (std::uint32_t id : candidates)
        exact.push_back({l2sq(query, database.row(id)), id});
    std::size_t kk = mine.size();
    std::partial_sort(exact.begin(),
                      exact.begin() + static_cast<std::ptrdiff_t>(kk),
                      exact.end());
    std::sort(mine.begin(), mine.end());
    double qn = normSq(query);
    for (std::size_t i = 0; i < kk; ++i) {
        double tol = kDistTol * (2 * qn +
                                 normSq(database.row(mine[i].second)) +
                                 normSq(database.row(exact[i].second))) +
                     1e-6;
        if (std::fabs(mine[i].first - exact[i].first) > tol) {
            return describe("rank ", i, " holds id ", mine[i].second,
                            " at ", mine[i].first, " but the exact top-",
                            k, " holds id ", exact[i].second, " at ",
                            exact[i].first);
        }
    }
    return {};
}

std::vector<std::uint32_t>
bruteForceIds(std::span<const float> query, const Matrix &database,
              std::size_t k)
{
    std::vector<std::pair<double, std::uint32_t>> all(database.rows());
    for (std::size_t i = 0; i < database.rows(); ++i)
        all[i] = {l2sq(query, database.row(i)),
                  static_cast<std::uint32_t>(i)};
    std::size_t kk = std::min(k, all.size());
    std::partial_sort(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(kk),
                      all.end());
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < kk; ++i)
        ids.push_back(all[i].second);
    return ids;
}

double
recallOf(const std::vector<Neighbor> &got,
         const std::vector<std::uint32_t> &truth)
{
    if (truth.empty())
        return 1.0;
    std::unordered_set<std::uint32_t> t(truth.begin(), truth.end());
    std::size_t hit = 0;
    for (const Neighbor &nb : got)
        hit += t.count(nb.id);
    return static_cast<double>(hit) / static_cast<double>(truth.size());
}

} // namespace perfbench
