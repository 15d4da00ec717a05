/**
 * @file
 * Output checks computed apart from the program: plain double
 * precision loops written here, never the program's own kernels,
 * brute force or recall helpers. Each check returns an empty string
 * when the output passes and a description of the first problem
 * otherwise.
 */

#ifndef REACH_PERFBENCH_CHECKS_HH
#define REACH_PERFBENCH_CHECKS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cbir/index.hh"
#include "cbir/linalg.hh"
#include "cbir/rerank.hh"

namespace perfbench
{

/** Squared L2 distance in double precision. */
double l2sq(std::span<const float> a, std::span<const float> b);

/**
 * Relative tolerance for a float distance computed through the norm
 * decomposition ||q||^2 + ||x||^2 - 2 q.x: its rounding error scales
 * with the norms, not with the distance.
 */
constexpr double kDistTol = 1e-5;

/** Same for the fp16 short-list scan (half-rounded centroids). */
constexpr double kFp16Tol = 2e-4;

/**
 * One retrieved list: exactly @p k unique ids below the database
 * size, distances non-decreasing, each distance equal to a double
 * recomputation within kDistTol.
 */
std::string checkAnswer(const std::vector<reach::cbir::Neighbor> &got,
                        std::span<const float> query,
                        const reach::cbir::Matrix &database,
                        std::size_t k);

/**
 * One short-list: @p nprobe unique cluster ids, each no farther from
 * the query (double precision, fp32 centroids) than the nprobe-th
 * nearest centroid plus @p rel_tol x (||q||^2 + ||c||^2).
 */
std::string checkShortlist(const std::vector<std::uint32_t> &list,
                           std::span<const float> query,
                           const reach::cbir::Matrix &centroids,
                           std::size_t nprobe, double rel_tol);

/**
 * The candidate set the rerank stage must score: members of the
 * short-listed clusters in list order, truncated at @p budget
 * (0 = unlimited).
 */
std::vector<std::uint32_t>
rebuildCandidates(const reach::cbir::InvertedFileIndex &index,
                  const std::vector<std::uint32_t> &list,
                  std::size_t budget);

/**
 * @p got is an exact top-k over @p candidates: every id is a
 * candidate, and the i-th smallest double distance of the returned
 * ids equals the i-th smallest over all candidates within kDistTol
 * (ties may resolve either way).
 */
std::string checkExactTopK(const std::vector<reach::cbir::Neighbor> &got,
                           std::span<const float> query,
                           const reach::cbir::Matrix &database,
                           const std::vector<std::uint32_t> &candidates,
                           std::size_t k);

/** Ids of the @p k nearest database rows by double brute force. */
std::vector<std::uint32_t>
bruteForceIds(std::span<const float> query,
              const reach::cbir::Matrix &database, std::size_t k);

/** |got ids ∩ truth| / |truth|. */
double recallOf(const std::vector<reach::cbir::Neighbor> &got,
                const std::vector<std::uint32_t> &truth);

} // namespace perfbench

#endif // REACH_PERFBENCH_CHECKS_HH
