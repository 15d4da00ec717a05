/**
 * @file
 * Benchmark harness for the host retrieval engine and the ReACH model.
 *
 *   reach_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--git-sha <sha>] [--trace-out <file>]
 *   reach_bench --self-test
 *
 * Every workload runs both surfaces: a host phase (set-up, then one
 * single-threaded closed-loop caller over a pool of query batches)
 * and a model phase (rounds of the simulated four-mapping comparison
 * plus an open-loop stream). The workload picks the retrieval
 * configuration of each and which phase gets most of the time. The
 * last stdout line is one JSON object: end-to-end metrics untraced,
 * per-layer metrics traced.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hh"
#include "checks.hh"
#include "host.hh"
#include "model.hh"
#include "sim/logging.hh"
#include "simd/simd.hh"
#include "workload/dataset.hh"

using namespace perfbench;
namespace cbir = reach::cbir;

namespace
{

struct Workload
{
    const char *name;
    HostSpec host;
    ModelSpec model;
    /** Share of --seconds given to the host phase; the model gets the rest. */
    double hostShare;
};

/** PQ operating point of the compressed workload. */
cbir::PqConfig
pq4()
{
    cbir::PqConfig pq;
    pq.enabled = true;
    pq.bits = 4;
    pq.m = 48;
    pq.refine = 256;
    return pq;
}

std::vector<Workload>
workloads(std::uint64_t seed)
{
    const std::uint64_t arrival = deriveSeed(seed, 6);

    Workload exact{"exact-b16", {}, {}, 0.6};
    exact.model.arrivalSeed = arrival;

    Workload pq{"pq4-b64-zipf", {}, {}, 0.6};
    pq.host.batch = 64;
    pq.host.zipfS = 1.0;
    pq.host.precision = cbir::ShortlistPrecision::Fp16;
    pq.host.pq = pq4();
    pq.host.batchedRerank = true;
    // The model runs the same configuration (CoSimulation's mirroring
    // of the service knobs into the timing scale).
    pq.model.scale.batchSize = 64;
    pq.model.scale.pq = pq4();
    pq.model.scale.batchedRerank = true;
    pq.model.scale.probeZipfS = 1.0;
    pq.model.scale.centroidBytesPerDim =
        cbir::centroidBytesPerDim(cbir::ShortlistPrecision::Fp16);
    pq.model.paperScale = false;
    pq.model.arrivalSeed = arrival;

    // Half the default index, so that set-up does not dominate a
    // workload whose time belongs to the model.
    Workload sim{"sim-reach", {}, {}, 0.3};
    sim.host.indexFraction = 0.5;
    sim.model.arrivalSeed = arrival;

    return {exact, pq, sim};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printJson(bool correct, const Tally &tally,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: reach_bench --workload "
                 "<exact-b16|pq4-b64-zipf|sim-reach> --seed <n> "
                 "--seconds <s> --trace <0|1> [--git-sha <sha>] "
                 "[--trace-out <file>]\n       reach_bench --self-test\n",
                 msg);
    return 2;
}

/** sim_qps is a median over rounds: at least three of them. */
constexpr std::size_t kMinModelRounds = 3;

int selfTest();

} // namespace

int
main(int argc, char **argv)
{
    reach::sim::setQuiet(true);
    std::string workload, git_sha = "unknown", trace_out;
    std::uint64_t seed = 1;
    double seconds = 15;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--self-test")
            return selfTest();
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                return usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(seconds > 0) || seconds > 600)
                return usage("--seconds takes a number in (0, 600]");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            trace = v == "1";
        } else if (a == "--git-sha") {
            git_sha = v;
        } else if (a == "--trace-out") {
            trace_out = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }

    const Workload *w = nullptr;
    const std::vector<Workload> all = workloads(seed);
    for (const Workload &c : all) {
        if (workload == c.name)
            w = &c;
    }
    if (!w)
        return usage(("unknown workload '" + workload + "'").c_str());

    const HostSeeds hs = hostSeeds(seed);
    std::printf("# reach perfbench: workload %s, seed %llu, %.0f s, "
                "trace %d\n",
                w->name, static_cast<unsigned long long>(seed), seconds,
                trace ? 1 : 0);
    std::printf("# git %s, simd %s, threads 1\n", git_sha.c_str(),
                reach::simd::name(reach::simd::resolve()));
    std::printf("# seeds: dataset %llu, kmeans %llu, pq %llu, queries "
                "%llu, held-out %llu, arrivals %llu\n",
                static_cast<unsigned long long>(hs.dataset),
                static_cast<unsigned long long>(hs.kmeans),
                static_cast<unsigned long long>(hs.pq),
                static_cast<unsigned long long>(hs.queries),
                static_cast<unsigned long long>(hs.heldOut),
                static_cast<unsigned long long>(w->model.arrivalSeed));
    std::fflush(stdout);

    Tracer tracer(trace);
    Tally tally;
    std::vector<Metric> e2e, layers;

    runHostPhase(w->host, hs, seconds * w->hostShare, tracer, tally, e2e,
                 layers);
    const Tally host = tally;
    const double model_start = now();
    ModelPhase model = runModelPhase(
        w->model, seconds * (1 - w->hostShare), kMinModelRounds, tracer,
        tally);
    std::printf("# model phase: %zu rounds in %.2f s\n",
                model.rounds.size(), now() - model_start);
    addModelMetrics(model, e2e, layers);
    e2e.push_back({"peak_rss_mb", peakRssMb(), "MB"});

    const ModelOutputs &mo = model.outputs;
    std::printf("# host batches checked %llu, failing %llu\n",
                static_cast<unsigned long long>(host.attempted),
                static_cast<unsigned long long>(host.failed));
    std::printf("# model rounds %zu, failing %llu; stream requests per "
                "round: submitted %llu, completed %llu, failed %llu, "
                "shed %llu\n",
                model.rounds.size(),
                static_cast<unsigned long long>(tally.failed - host.failed),
                static_cast<unsigned long long>(mo.submitted),
                static_cast<unsigned long long>(mo.completed),
                static_cast<unsigned long long>(mo.failed),
                static_cast<unsigned long long>(mo.shed));
    for (const std::string &m : tally.messages)
        std::printf("# FAILED: %s\n", m.c_str());

    bool finite = true;
    for (const Metric &m : e2e)
        finite = finite && std::isfinite(m.value) && m.value != 0;
    for (const Metric &m : layers)
        finite = finite && std::isfinite(m.value);
    if (!finite)
        std::printf("# FAILED: a metric is zero or not finite\n");

    for (const Metric &m : trace ? e2e : layers)
        std::printf("# %s %s = %.6g %s\n", trace ? "end-to-end" : "layer",
                    m.name.c_str(), m.value, m.unit.c_str());

    if (trace) {
        std::printf("# self time by span (s):\n");
        for (const auto &[name, s] : tracer.selfTimes())
            std::printf("#   %-28s %10.4f\n", name.c_str(), s);
        if (!trace_out.empty()) {
            if (tracer.writeChromeTrace(trace_out)) {
                std::printf("# trace: %zu spans -> %s\n",
                            tracer.spans().size(), trace_out.c_str());
            } else {
                std::printf("# FAILED: cannot write %s\n",
                            trace_out.c_str());
                finite = false;
            }
        }
    }

    const bool correct = tally.failed == 0 && finite;
    printJson(correct, tally, trace ? layers : e2e);
    return correct ? 0 : 1;
}

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

int
selfTest()
{
    // Nearest-rank percentile, by hand: rank = ceil(p/100 * n).
    const std::vector<double> v = {15, 20, 35, 40, 50};
    expect(percentile(v, 5) == 15 && percentile(v, 30) == 20 &&
               percentile(v, 40) == 20 && percentile(v, 50) == 35 &&
               percentile(v, 90) == 50 && percentile(v, 100) == 50,
           "percentile matches the nearest-rank example");

    // A small engine; its real outputs pass, planted faults do not.
    reach::workload::DatasetConfig dc;
    dc.numVectors = 4000;
    dc.latentClusters = 8;
    reach::workload::Dataset ds(dc);
    cbir::KMeansConfig km;
    km.clusters = 40;
    km.maxIterations = 10;
    km.parallel = {1};
    cbir::InvertedFileIndex index(ds.vectors(), km);
    const cbir::Matrix q = ds.makeQueries(8, 0.1, 3);
    const std::size_t nprobe = 4, k = 10, budget = 300;
    cbir::ShortLists lists =
        cbir::shortlistRetrieve(q, index, nprobe, {1});
    cbir::RerankConfig rc;
    rc.maxCandidates = budget;
    rc.parallel = {1};
    const cbir::RerankResults res =
        cbir::rerank(q, ds.vectors(), index, lists, rc);
    const cbir::Matrix &db = ds.vectors();
    const auto cands = rebuildCandidates(index, lists[0], budget);

    bool clean = true;
    for (std::size_t i = 0; i < q.rows(); ++i) {
        auto ci = rebuildCandidates(index, lists[i], budget);
        clean = clean && checkAnswer(res[i], q.row(i), db, k).empty() &&
                checkShortlist(lists[i], q.row(i), index.centroids(),
                               nprobe, kDistTol)
                    .empty() &&
                checkExactTopK(res[i], q.row(i), db, ci, k).empty();
    }
    expect(clean, "real outputs pass every host check");

    auto swapped = res[0];
    swapped[3].id = cands.back() == swapped[3].id ? cands.front()
                                                  : cands.back();
    expect(!checkAnswer(swapped, q.row(0), db, k).empty(),
           "swapped id is rejected (distance check)");
    swapped[3].distSq = static_cast<float>(
        l2sq(q.row(0), db.row(swapped[3].id)));
    expect(!checkExactTopK(swapped, q.row(0), db, cands, k).empty(),
           "swapped id is rejected (exact top-k check)");

    auto perturbed = res[0];
    perturbed[5].distSq *= 1.01f;
    expect(!checkAnswer(perturbed, q.row(0), db, k).empty(),
           "perturbed distance is rejected");

    auto unsorted = res[0];
    std::swap(unsorted[0], unsorted[k - 1]);
    expect(!checkAnswer(unsorted, q.row(0), db, k).empty(),
           "unsorted list is rejected");

    auto repeated = res[0];
    repeated[2] = repeated[1];
    expect(!checkAnswer(repeated, q.row(0), db, k).empty(),
           "repeated id is rejected");

    auto far_list = lists[0];
    std::size_t farthest = 0;
    double worst = -1;
    for (std::size_t c = 0; c < index.numClusters(); ++c) {
        double d = l2sq(q.row(0), index.centroids().row(c));
        if (d > worst) {
            worst = d;
            farthest = c;
        }
    }
    far_list.back() = static_cast<std::uint32_t>(farthest);
    expect(!checkShortlist(far_list, q.row(0), index.centroids(), nprobe,
                           kDistTol)
                .empty(),
           "short-list holding a far centroid is rejected");

    // The model: two rounds in one process agree bit for bit, and a
    // lost request breaks the accounting check.
    ModelSpec spec;
    spec.streamRequests = 200;
    Tracer tracer(false);
    Tally tally;
    ModelHostTimes h1, h2;
    ModelOutputs a = runModelRound(spec, 0, tracer, h1, tally);
    ModelOutputs b = runModelRound(spec, 1, tracer, h2, tally);
    expect(tally.failed == 0, "real model outputs pass every model check");
    expect(a == b, "simulated outputs are identical across two runs");
    ModelOutputs lost = a;
    lost.completed -= 1;
    expect(!checkModelOutputs(lost, spec).empty(),
           "lost request is rejected");
    ModelOutputs failed = a;
    failed.completed -= 1;
    failed.failed += 1;
    expect(!checkModelOutputs(failed, spec).empty(),
           "failed request is rejected");
    ModelOutputs skewed = a;
    skewed.reachEnergyJ[0] *= 1.01;
    expect(!checkModelOutputs(skewed, spec).empty(),
           "energy components that do not sum to the total are rejected");

    std::printf("self-test: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace
