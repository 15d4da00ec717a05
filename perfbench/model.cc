#include "model.hh"

#include <cmath>
#include <memory>
#include <sstream>

#include "core/cbir_deployment.hh"
#include "core/reach_system.hh"
#include "energy/energy_model.hh"
#include "service/query_service.hh"
#include "sim/stats.hh"

namespace perfbench
{

namespace core = reach::core;
namespace sim = reach::sim;

namespace
{

constexpr core::Mapping kMappings[4] = {
    core::Mapping::OnChipOnly, core::Mapping::NearMemOnly,
    core::Mapping::NearStorOnly, core::Mapping::Reach};
constexpr std::size_t kReach = 3;
/** fig13's throughput run length. */
constexpr std::uint32_t kThroughputBatches = 12;
/** Open-loop rate as a share of ReACH closed-loop capacity. */
constexpr double kStreamLoad = 0.6;

double
ms(sim::Tick t)
{
    return sim::secondsFromTicks(t) * 1e3;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

/** Add @p sys's layer counters (gam, mem, noc, storage, acc) to @p out. */
void
addCounters(core::ReachSystem &sys, ModelOutputs &out)
{
    const sim::StatRegistry &reg = sys.simulator().stats();
    out.gamTasks += static_cast<double>(sys.gam().tasksDispatched());
    out.gamPolls += static_cast<double>(sys.gam().statusPolls());
    out.gamDmaBytes += static_cast<double>(sys.gam().bytesMoved());
    for (const sim::Stat *s : reg.all()) {
        const std::string &n = s->name();
        if (n == "gam.queueWait") {
            if (auto *d = dynamic_cast<const sim::Distribution *>(s))
                out.gamQueueWaitMs += d->sum() / sim::tickPerMs;
        } else if (endsWith(n, ".busyTicks")) {
            // Only links carry busyTicks; their bytes sit beside it.
            std::string link = n.substr(0, n.size() - 10);
            out.linkBusyMs += s->value() / sim::tickPerMs;
            if (const sim::Stat *b = reg.find(link + ".bytes"))
                out.linkBytes += b->value();
        } else if (endsWith(n, ".readBytes")) {
            out.ssdReadBytes += s->value();
        }
    }
    // The CBIR deployments move DRAM and cache traffic over these two
    // links; the cycle-level mem::MemorySystem and LLC stay idle.
    auto bytes = [&](reach::noc::Link &link) {
        const sim::Stat *s = reg.find(link.name() + ".bytes");
        return s ? s->value() : 0.0;
    };
    out.dramBytes += bytes(sys.hostDramLink());
    out.cacheBytes += bytes(sys.cacheLink());
    auto busy = [&](reach::acc::Accelerator &a) {
        const sim::Stat *s = reg.find(a.name() + ".activeTicks");
        if (s) {
            out.accBusyMs[static_cast<std::size_t>(a.level())] +=
                s->value() / sim::tickPerMs;
        }
    };
    if (sys.hasOnChip())
        busy(sys.onChip());
    for (std::uint32_t i = 0; i < sys.numAims(); ++i)
        busy(sys.aim(i));
    for (std::uint32_t i = 0; i < sys.numNs(); ++i)
        busy(sys.ns(i));
    busy(sys.hostCore());
}

core::SystemConfig
systemFor(const reach::cbir::ScaleConfig &scale)
{
    core::SystemConfig cfg;
    cfg.aimUsesHbm =
        scale.shortlistPlacement == reach::cbir::ScanPlacement::Hbm;
    return cfg;
}

std::unique_ptr<core::ReachSystem>
buildSystem(const reach::cbir::ScaleConfig &scale, std::uint64_t round,
            int parent, Tracer &tracer, ModelHostTimes &host)
{
    Timed t(tracer, "core.ReachSystem", round, parent);
    auto sys = std::make_unique<core::ReachSystem>(systemFor(scale));
    host.buildS.push_back(t.stop());
    return sys;
}

const char *
mappingKey(std::size_t m)
{
    static const char *keys[4] = {"onchip", "nearmem", "nearstor",
                                  "reach"};
    return keys[m];
}

const char *
levelKey(std::size_t level)
{
    static const char *keys[4] = {"onchip", "nearmem", "nearstor",
                                  "cpu"};
    return keys[level];
}

} // namespace

ModelOutputs
runModelRound(const ModelSpec &spec, std::uint64_t round, Tracer &tracer,
              ModelHostTimes &host, Tally &tally)
{
    ModelOutputs out;
    Timed whole(tracer, "model.round", round);
    reach::cbir::CbirWorkloadModel model(spec.scale);
    const double batch = spec.scale.batchSize;

    for (std::size_t m = 0; m < 4; ++m) {
        double run_s = 0;
        auto lat_sys =
            buildSystem(spec.scale, round, whole.span(), tracer, host);
        core::CbirDeployment lat_dep(*lat_sys, model, kMappings[m]);
        Timed lat_t(tracer, "core.CbirDeployment.run", round,
                    whole.span());
        core::RunResult lat = lat_dep.run(1);
        run_s += lat_t.stop();
        addCounters(*lat_sys, out);

        auto thr_sys =
            buildSystem(spec.scale, round, whole.span(), tracer, host);
        core::CbirDeployment thr_dep(*thr_sys, model, kMappings[m]);
        Timed thr_t(tracer, "core.CbirDeployment.run", round,
                    whole.span());
        core::RunResult thr = thr_dep.run(kThroughputBatches);
        run_s += thr_t.stop();
        addCounters(*thr_sys, out);
        reach::energy::EnergyBreakdown e = thr_sys->measureEnergy();

        host.runS[m] = run_s;
        out.qps[m] = thr.queriesPerSec(spec.scale.batchSize);
        out.latencyMs[m] = ms(lat.meanLatency);
        out.energyJ[m] = e.total();
        out.simulatedQueries +=
            (lat.completedBatches + thr.completedBatches) * batch;
        out.closedLoopShort +=
            std::int64_t{1} + kThroughputBatches -
            static_cast<std::int64_t>(lat.completedBatches) -
            static_cast<std::int64_t>(thr.completedBatches);
        if (m == kReach) {
            out.reachEnergyJ.assign(e.joules.begin(), e.joules.end());
            out.reachQueries = kThroughputBatches * batch;
        }
    }

    auto svc_sys =
        buildSystem(spec.scale, round, whole.span(), tracer, host);
    reach::service::ServiceConfig cfg;
    cfg.totalRequests = spec.streamRequests;
    cfg.arrival.kind = reach::service::ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = kStreamLoad * out.qps[kReach];
    cfg.arrival.seed = spec.arrivalSeed;
    // The stream measures queueing below capacity: no degradation
    // (it would change the answers), and a deadline and queue loose
    // enough that no request is shed at this load.
    cfg.degrade = false;
    cfg.sloLatency = 500 * sim::tickPerMs;
    cfg.queueCapacity = 8 * spec.scale.batchSize;
    reach::service::QueryService svc(*svc_sys, spec.scale,
                                     core::Mapping::Reach, cfg);
    Timed svc_t(tracer, "service.QueryService.run", round,
                whole.span());
    reach::service::ServiceResult r = svc.run();
    host.serviceS = svc_t.stop();
    addCounters(*svc_sys, out);

    out.submitted = r.submitted;
    out.completed = r.completed;
    out.failed = r.failed;
    out.shed = r.shedTotal();
    out.p50Ms = ms(r.p50);
    out.p99Ms = ms(r.p99);
    out.maxMs = ms(r.maxLatency);
    out.simulatedQueries += static_cast<double>(r.completed);

    host.roundS = whole.stop();
    tally.record(checkModelOutputs(out, spec));
    return out;
}

std::string
checkModelOutputs(const ModelOutputs &out, const ModelSpec &spec)
{
    std::ostringstream os;
    if (out.completed + out.failed + out.shed != out.submitted) {
        os << "stream accounting: completed " << out.completed
           << " + failed " << out.failed << " + shed " << out.shed
           << " != submitted " << out.submitted << "; ";
    }
    if (out.submitted != spec.streamRequests)
        os << "stream submitted " << out.submitted << "; ";
    if (out.closedLoopShort != 0)
        os << out.closedLoopShort << " closed-loop batches missing; ";
    if (out.failed != 0 || out.shed != 0)
        os << out.failed << " failed, " << out.shed << " shed; ";
    if (!(out.qps[kReach] > out.qps[0]) ||
        !(out.latencyMs[kReach] < out.latencyMs[0]) ||
        !(out.energyJ[kReach] < out.energyJ[0]))
        os << "ReACH does not beat on-chip on throughput, latency and "
              "energy; ";
    double sum = 0;
    for (double j : out.reachEnergyJ)
        sum += j;
    double total = out.energyJ[kReach];
    if (std::fabs(sum - total) > 1e-9 * std::fabs(total))
        os << "energy components sum to " << sum << " not " << total
           << "; ";
    if (!(out.p50Ms <= out.p99Ms && out.p99Ms <= out.maxMs))
        os << "percentiles out of order: p50 " << out.p50Ms << " p99 "
           << out.p99Ms << " max " << out.maxMs << "; ";
    if (spec.paperScale) {
        double thr = out.qps[kReach] / out.qps[0];
        double lat = out.latencyMs[0] / out.latencyMs[kReach];
        double red = 1.0 - out.energyJ[kReach] / out.energyJ[0];
        if (std::fabs(thr / kPaperThroughputGain - 1) > kPaperTolerance ||
            std::fabs(lat / kPaperLatencyGain - 1) > kPaperTolerance ||
            std::fabs(red / kPaperEnergyReduction - 1) >
                kPaperTolerance) {
            os << "headline ratios " << thr << "x, " << lat << "x, -"
               << red * 100 << "% are not within "
               << kPaperTolerance * 100 << "% of the paper's; ";
        }
    }
    return os.str();
}

double
paperErrorPct(const ModelOutputs &out)
{
    double thr = out.qps[kReach] / out.qps[0];
    double lat = out.latencyMs[0] / out.latencyMs[kReach];
    double red = 1.0 - out.energyJ[kReach] / out.energyJ[0];
    return 100.0 / 3.0 *
           (std::fabs(thr / kPaperThroughputGain - 1) +
            std::fabs(lat / kPaperLatencyGain - 1) +
            std::fabs(red / kPaperEnergyReduction - 1));
}

ModelPhase
runModelPhase(const ModelSpec &spec, double budget_s,
              std::size_t min_rounds, Tracer &tracer, Tally &tally)
{
    ModelPhase phase;
    double start = now();
    for (std::uint64_t round = 0;
         round < min_rounds || now() - start < budget_s; ++round) {
        ModelHostTimes host;
        ModelOutputs out = runModelRound(spec, round, tracer, host,
                                         tally);
        if (round == 0) {
            phase.outputs = out;
        } else if (!(out == phase.outputs)) {
            // The round already counted as passed; a divergent round
            // is one more failed operation.
            tally.failed += 1;
            tally.messages.push_back("model round " +
                                     std::to_string(round) +
                                     " differs from round 0");
        }
        phase.rounds.push_back(std::move(host));
    }
    return phase;
}

void
addModelMetrics(const ModelPhase &phase, std::vector<Metric> &e2e,
                std::vector<Metric> &layers)
{
    const ModelOutputs &o = phase.outputs;
    const double n = static_cast<double>(phase.rounds.size());
    double service_s = 0, run_s = 0;
    std::vector<double> builds, round_s;
    std::array<double, 4> per_mapping{};
    for (const ModelHostTimes &h : phase.rounds) {
        round_s.push_back(h.roundS);
        service_s += h.serviceS;
        builds.insert(builds.end(), h.buildS.begin(), h.buildS.end());
        for (std::size_t m = 0; m < 4; ++m) {
            per_mapping[m] += h.runS[m];
            run_s += h.runS[m];
        }
    }
    const double q = o.reachQueries;

    // Per median round, so one round slowed by the host does not move it.
    e2e.push_back({"sim_qps", o.simulatedQueries / median(round_s), "1/s"});
    e2e.push_back({"model_capacity_qps", o.qps[kReach], "1/s"});
    e2e.push_back({"model_p99_ms", o.p99Ms, "ms"});
    e2e.push_back({"model_energy_mj_per_query",
                   o.energyJ[kReach] / q * 1e3, "mJ"});
    e2e.push_back({"paper_err_pct", paperErrorPct(o), "%"});

    layers.push_back({"core.system_build_ms", median(builds) * 1e3, "ms"});
    for (std::size_t m = 0; m < 4; ++m) {
        layers.push_back({std::string("core.run_s.") + mappingKey(m),
                          per_mapping[m] / n, "s"});
    }
    layers.push_back({"service.run_s", service_s / n, "s"});
    layers.push_back({"service.host_us_per_request",
                      service_s / n / static_cast<double>(o.submitted) *
                          1e6,
                      "us"});
    layers.push_back({"gam.host_us_per_task",
                      (run_s + service_s) / n / o.gamTasks * 1e6, "us"});
    layers.push_back({"model.gam.tasks", o.gamTasks, "count"});
    layers.push_back({"model.gam.status_polls", o.gamPolls, "count"});
    layers.push_back({"model.gam.dma_mb", o.gamDmaBytes / 1e6, "MB"});
    layers.push_back({"model.gam.queue_wait_ms", o.gamQueueWaitMs, "ms"});
    layers.push_back({"model.mem.dram_mb", o.dramBytes / 1e6, "MB"});
    layers.push_back({"model.mem.cache_mb", o.cacheBytes / 1e6, "MB"});
    layers.push_back({"model.noc.link_mb", o.linkBytes / 1e6, "MB"});
    layers.push_back({"model.noc.link_busy_ms", o.linkBusyMs, "ms"});
    layers.push_back({"model.storage.ssd_read_mb", o.ssdReadBytes / 1e6,
                      "MB"});
    // No mapping of the comparison places work on the host core.
    for (std::size_t l = 0; l < 3; ++l) {
        layers.push_back({std::string("model.acc.busy_ms.") + levelKey(l),
                          o.accBusyMs[l], "ms"});
    }
    static const char *energy_keys[] = {"acc", "cache", "dram", "ssd",
                                        "interconnect", "pcie"};
    for (std::size_t c = 0; c < o.reachEnergyJ.size() && c < 6; ++c) {
        layers.push_back({std::string("model.energy.") + energy_keys[c] +
                              "_mj_per_query",
                          o.reachEnergyJ[c] / q * 1e3, "mJ"});
    }
    for (std::size_t m = 0; m < 4; ++m) {
        layers.push_back({std::string("model.") + mappingKey(m) + ".qps",
                          o.qps[m], "1/s"});
        layers.push_back({std::string("model.") + mappingKey(m) +
                              ".latency_ms",
                          o.latencyMs[m], "ms"});
    }
}

} // namespace perfbench
