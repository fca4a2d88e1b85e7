/**
 * @file
 * Tests for the model/system catalog and the multi-tenant fleet:
 * every catalog entry builds and serves, the registry shim keeps the
 * paper names, a single-tenant TenantFleet is a bit-exact passthrough
 * over a bare device, lane-split tenants match the withTableSubset
 * reference, and the isolation knobs (inflight caps, cache/tier
 * carves) enforce their contracts deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant.h"
#include "catalog/tenant_serving.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::catalog {
namespace {

/** Small functional model: tables load into flash in milliseconds. */
model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

/** A second tenant at twice the embedding dim (RMC2-shaped). */
model::ModelConfig
tinyWideConfig()
{
    model::ModelConfig config = model::rmc2().withRowsPerTable(512);
    config.numTables = 4;
    config.lookupsPerTable = 4;
    return config;
}

// ---- ModelCatalog ---------------------------------------------------

TEST(Catalog, BuiltinListsZooModelsAndPaperSystems)
{
    const ModelCatalog &c = ModelCatalog::builtin();
    for (const char *m : {"RMC1", "RMC2", "RMC3", "NCF", "WnD"}) {
        EXPECT_TRUE(c.hasModel(m)) << m;
        EXPECT_EQ(c.model(m).name, m);
    }
    // The paper sweep order the goldens iterate, verbatim.
    const std::vector<std::string> paper = c.paperOrderNames();
    ASSERT_GE(paper.size(), 10u);
    EXPECT_EQ(paper.front(), "DRAM");
    EXPECT_EQ(paper.back(), "RM-SSD+part");
    // Fleet variants are addressable but not part of the sweep.
    EXPECT_TRUE(c.hasSystem("RM-SSD x2"));
    EXPECT_TRUE(c.hasSystem("RM-SSD x4"));
    for (const std::string &name : paper)
        EXPECT_NE(name.find("x4"), 0u);
}

TEST(Catalog, EverySystemEntryServesATinyTrace)
{
    const ModelCatalog &c = ModelCatalog::builtin();
    const model::ModelConfig config = tinyConfig();
    for (const std::string &name : c.systemNames()) {
        auto system = c.make(name, config);
        workload::TraceGenerator gen(config, workload::localityK(0.3));
        const workload::RunResult r = system->run(gen, 2, 3, 1);
        EXPECT_EQ(r.system, name);
        EXPECT_EQ(r.batches, 3u);
        EXPECT_GT(r.totalNanos.raw(), 0u) << name;
    }
}

TEST(Catalog, CacheVariantsShareOneRecipeShape)
{
    // The "+cache"/"+lfu"/"+part" entries fold the old copy-paste
    // blocks into one RmSsdCached recipe parameterized by a single
    // EvCacheConfig delta.
    const ModelCatalog &c = ModelCatalog::builtin();
    const SystemEntry &cache = c.system("RM-SSD+cache");
    const SystemEntry &lfu = c.system("RM-SSD+lfu");
    const SystemEntry &part = c.system("RM-SSD+part");
    for (const SystemEntry *e : {&cache, &lfu, &part})
        EXPECT_EQ(e->recipe.kind, SystemRecipe::Kind::RmSsdCached);
    EXPECT_EQ(cache.recipe.evCache.admission,
              engine::EvCacheAdmission::AlwaysAdmit);
    EXPECT_EQ(lfu.recipe.evCache.admission,
              engine::EvCacheAdmission::TinyLfu);
    EXPECT_FALSE(lfu.recipe.evenTableShares);
    EXPECT_TRUE(part.recipe.evenTableShares);
    EXPECT_EQ(part.recipe.evCache.admission,
              engine::EvCacheAdmission::TinyLfu);
}

TEST(Catalog, UnknownNamesDie)
{
    const model::ModelConfig config = tinyConfig();
    EXPECT_DEATH((void)makeSystem("no-such-system", config),
                 "unknown");
    EXPECT_DEATH((void)ModelCatalog::builtin().model("no-such-model"),
                 "unknown");
}

TEST(Catalog, UserCatalogRegistersModelsAndRecipes)
{
    ModelCatalog c;
    model::ModelConfig config = tinyConfig();
    config.name = "tiny";
    c.addModel(config);

    SystemEntry entry;
    entry.name = "tiny-dram";
    entry.recipe.kind = SystemRecipe::Kind::Dram;
    c.addSystem(entry);

    ASSERT_TRUE(c.hasModel("tiny"));
    ASSERT_TRUE(c.hasSystem("tiny-dram"));
    auto system = c.make("tiny-dram", "tiny");
    workload::TraceGenerator gen(config, workload::localityK(0.3));
    EXPECT_EQ(system->run(gen, 1, 2, 0).batches, 2u);
    EXPECT_DEATH(c.addModel(config), "duplicate");
}

// ---- Union layout ---------------------------------------------------

TEST(UnionLayout, SingleTenantPassesThroughVerbatim)
{
    TenantSpec spec;
    spec.id = "solo";
    spec.config = tinyConfig();
    const UnionLayout layout =
        buildUnionLayout(std::span<const TenantSpec>(&spec, 1), 99);
    EXPECT_TRUE(layout.passthrough);
    EXPECT_EQ(layout.config.name, spec.config.name);
    EXPECT_EQ(layout.config.seed, spec.config.seed); // not unionSeed
    ASSERT_EQ(layout.slots.size(), 1u);
    EXPECT_EQ(layout.lanes[0], 1u);
    for (std::uint32_t t = 0; t < spec.config.numTables; ++t)
        EXPECT_EQ(layout.slots[0][t], t);
}

TEST(UnionLayout, TwoTenantsLaneSplitAtMinDim)
{
    std::vector<TenantSpec> specs(2);
    specs[0].id = "narrow";
    specs[0].config = tinyConfig(); // 8 tables, dim 32
    specs[1].id = "wide";
    specs[1].config = tinyWideConfig(); // 4 tables, dim 64

    const UnionLayout layout = buildUnionLayout(specs, 7);
    EXPECT_FALSE(layout.passthrough);
    EXPECT_EQ(layout.config.embDim, 32u);
    EXPECT_EQ(layout.config.seed, 7u);
    EXPECT_EQ(layout.lanes[0], 1u);
    EXPECT_EQ(layout.lanes[1], 2u);
    // 8 narrow slots then 4*2 wide lanes, globally offset.
    ASSERT_EQ(layout.slots[0].size(), 8u);
    ASSERT_EQ(layout.slots[1].size(), 8u);
    EXPECT_EQ(layout.config.numTables, 16u);
    for (std::uint32_t t = 0; t < 8; ++t)
        EXPECT_EQ(layout.slots[0][t], t);
    for (std::uint32_t s = 0; s < 8; ++s)
        EXPECT_EQ(layout.slots[1][s], 8u + s);
    // Rows/lookups cover the biggest tenant.
    EXPECT_EQ(layout.config.rowsPerTable, 512u);
    EXPECT_EQ(layout.config.lookupsPerTable, 4u);
}

TEST(UnionLayout, IndivisibleDimsDie)
{
    std::vector<TenantSpec> specs(2);
    specs[0].id = "a";
    specs[0].config = tinyConfig();
    specs[0].config.embDim = 32;
    specs[1].id = "b";
    specs[1].config = tinyConfig();
    specs[1].config.name = "tiny48";
    specs[1].config.embDim = 48;
    EXPECT_DEATH((void)buildUnionLayout(specs, 1), "multiple");
}

// ---- TenantFleet ----------------------------------------------------

FleetOptions
functionalOptions()
{
    FleetOptions options;
    options.device.functional = true;
    return options;
}

std::vector<TenantSpec>
twoTenants()
{
    std::vector<TenantSpec> specs(2);
    specs[0].id = "narrow";
    specs[0].config = tinyConfig();
    specs[0].trace = workload::localityK(0.3);
    specs[1].id = "wide";
    specs[1].config = tinyWideConfig();
    specs[1].trace = workload::localityK(0.3);
    return specs;
}

TEST(TenantFleet, SingleTenantEqualsBareDeviceAtDepths1And4)
{
    const model::ModelConfig config = tinyConfig();
    for (const std::uint32_t depth : {1u, 4u}) {
        TenantSpec spec;
        spec.id = "solo";
        spec.config = config;
        spec.trace = workload::localityK(0.3);
        TenantFleet fleet({spec}, FleetOptions{});

        engine::RmSsd bare(config, engine::RmSsdOptions{});
        bare.loadTables();

        workload::ServingConfig sc;
        sc.arrivalQps = 500.0;
        sc.numRequests = 30;
        sc.queueDepth = depth;
        workload::TraceGenerator gen(config, workload::localityK(0.3));
        const workload::ServingResult a =
            workload::simulateServing(fleet, gen, sc);
        gen.reset();
        const workload::ServingResult b =
            workload::simulateServing(bare, gen, sc);

        EXPECT_EQ(a.meanLatency, b.meanLatency) << "depth " << depth;
        EXPECT_EQ(a.p99, b.p99) << "depth " << depth;
        EXPECT_EQ(a.achievedQps, b.achievedQps) << "depth " << depth;
        EXPECT_EQ(a.requests, b.requests);
    }
}

TEST(TenantFleet, SingleTenantFunctionalOutputsMatchBareDevice)
{
    const model::ModelConfig config = tinyConfig();
    TenantSpec spec;
    spec.id = "solo";
    spec.config = config;
    spec.trace = workload::localityK(0.3);
    TenantFleet fleet({spec}, functionalOptions());

    engine::RmSsdOptions bareOptions;
    bareOptions.functional = true;
    engine::RmSsd bare(config, bareOptions);
    bare.loadTables();

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const auto batch = gen.nextBatch(5);
    const auto fromFleet = fleet.inferTenant(0, batch);
    const auto fromBare = bare.infer(batch);
    ASSERT_EQ(fromFleet.outputs.size(), fromBare.outputs.size());
    for (std::size_t i = 0; i < fromBare.outputs.size(); ++i)
        EXPECT_EQ(fromFleet.outputs[i], fromBare.outputs[i]);
}

TEST(TenantFleet, LaneSplitPooledMatchesTableSubsetReference)
{
    TenantFleet fleet(twoTenants(), functionalOptions());
    ASSERT_EQ(fleet.numTenants(), 2u);

    for (std::size_t i = 0; i < fleet.numTenants(); ++i) {
        const model::ModelConfig &tcfg = fleet.tenant(i).config;
        workload::TraceGenerator gen(tcfg, workload::localityK(0.3));
        const auto batch = gen.nextBatch(4);
        const auto fromFleet = fleet.inferTenant(i, batch);

        // Reference: a bare embedding-only device over the union
        // model's subset of this tenant's slots, fed the lane-expanded
        // index lists (the cluster's withTableSubset idiom).
        const model::ModelConfig sub =
            fleet.unionConfig().withTableSubset(fleet.tenantSlots(i));
        engine::RmSsdOptions refOptions;
        refOptions.variant = engine::EngineVariant::EmbeddingOnly;
        refOptions.functional = true;
        engine::RmSsd ref(sub, refOptions);
        ref.loadTables();

        const std::uint32_t lanes = fleet.unionLayout().lanes[i];
        std::vector<model::Sample> expanded(batch.size());
        for (std::size_t s = 0; s < batch.size(); ++s) {
            expanded[s].dense.assign(sub.denseInputDim(), 0.0f);
            expanded[s].indices.resize(sub.numTables);
            for (std::uint32_t t = 0; t < tcfg.numTables; ++t)
                for (std::uint32_t l = 0; l < lanes; ++l)
                    expanded[s].indices[t * lanes + l] =
                        batch[s].indices[t];
        }
        const auto fromRef = ref.infer(expanded);

        ASSERT_EQ(fromFleet.outputs.size(), fromRef.outputs.size())
            << "tenant " << i;
        for (std::size_t v = 0; v < fromRef.outputs.size(); ++v)
            EXPECT_EQ(fromFleet.outputs[v], fromRef.outputs[v])
                << "tenant " << i << " element " << v;
    }
}

TEST(TenantFleet, TwoTenantInterleavingIsDeterministic)
{
    FleetServingConfig sc;
    sc.loads.resize(2);
    sc.loads[0].arrivalQps = 800.0;
    sc.loads[0].numRequests = 40;
    sc.loads[1].arrivalQps = 400.0;
    sc.loads[1].numRequests = 20;
    sc.queueDepth = 4;

    auto run = [&] {
        TenantFleet fleet(twoTenants(), FleetOptions{});
        return simulateFleetServing(fleet, sc);
    };
    const FleetServingResult a = run();
    const FleetServingResult b = run();

    ASSERT_EQ(a.tenants.size(), 2u);
    EXPECT_EQ(a.requests, 60u);
    EXPECT_EQ(a.achievedQps, b.achievedQps);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(a.tenants[i].meanLatency, b.tenants[i].meanLatency);
        EXPECT_EQ(a.tenants[i].p99, b.tenants[i].p99);
        EXPECT_EQ(a.tenants[i].requests, sc.loads[i].numRequests);
        EXPECT_GT(a.tenants[i].achievedQps, 0.0);
    }
}

TEST(TenantFleet, InflightCapBoundsATenantsOutstandingWork)
{
    std::vector<TenantSpec> specs = twoTenants();
    specs[0].maxInflightCap = 2;
    TenantFleet fleet(std::move(specs), FleetOptions{});
    fleet.setMaxInflight(8);

    workload::TraceGenerator gen(fleet.tenant(0).config,
                                 workload::localityK(0.3));
    for (int r = 0; r < 12; ++r) {
        fleet.submitTenant(0, gen.nextBatch(1));
        EXPECT_LE(fleet.tenantInflight(0), 2u);
        EXPECT_LE(fleet.inflight(), 8u);
    }
    while (fleet.retireNext()) {
    }
    EXPECT_EQ(fleet.tenantInflight(0), 0u);
    EXPECT_EQ(fleet.tenantRetired(0), 12u);
}

TEST(TenantFleet, CapsProtectVictimP99DuringCoTenantSpike)
{
    // Aggressor flash-crowd: 10x its base rate over the middle third
    // of its requests. With the aggressor uncapped it fills the shared
    // queue and the victim's dispatch waits behind its backlog; capped
    // at 2, the victim's p99 must stay close to its quiet-hours value.
    // Closed-loop fleet capacity in requests/s (batch 1, depth 8).
    const auto capacityQps = [](TenantFleet &fleet) {
        std::vector<workload::TraceGenerator> gens;
        for (std::size_t i = 0; i < fleet.numTenants(); ++i)
            gens.emplace_back(fleet.tenant(i).config,
                              fleet.tenant(i).trace);
        fleet.resetTiming();
        fleet.setMaxInflight(8);
        const Cycle start = fleet.deviceNow();
        const std::uint32_t requests = 64;
        for (std::uint32_t r = 0; r < requests; ++r)
            fleet.submitTenant(r % fleet.numTenants(),
                               gens[r % fleet.numTenants()].nextBatch(1));
        Cycle done = start;
        for (const engine::AsyncCompletion &c : fleet.drain())
            done = std::max(done, c.outcome.completionCycle);
        return static_cast<double>(requests) /
               nanosToSeconds(cyclesToNanos(done - start));
    };
    // Calibrate offered load once, on an uncapped fleet, so both
    // scenarios see the identical arrival processes.
    double capacity = 0.0;
    {
        TenantFleet probe(twoTenants(), FleetOptions{});
        capacity = capacityQps(probe);
    }
    const auto victimP99 = [&](std::uint32_t aggressorCap) {
        std::vector<TenantSpec> specs = twoTenants();
        specs[1].maxInflightCap = aggressorCap;
        TenantFleet fleet(std::move(specs), FleetOptions{});

        FleetServingConfig sc;
        sc.loads.resize(2);
        sc.queueDepth = 8;
        sc.loads[0].arrivalQps = 0.15 * capacity;
        sc.loads[0].numRequests = 120;
        sc.loads[1].arrivalQps = 0.15 * capacity;
        sc.loads[1].numRequests = 120;
        sc.loads[1].spikeMultiplier = 10.0;
        sc.loads[1].spikeStartRequest = 40;
        sc.loads[1].spikeEndRequest = 80;
        const FleetServingResult r = simulateFleetServing(fleet, sc);
        return r.tenants[0].p99.raw();
    };
    const std::uint64_t uncapped = victimP99(0);
    const std::uint64_t capped = victimP99(2);
    EXPECT_LT(capped, uncapped)
        << "caps should shield the victim tenant";
    EXPECT_LT(static_cast<double>(capped),
              0.8 * static_cast<double>(uncapped))
        << "protection should be substantial, not noise";
}

TEST(TenantFleet, TierBudgetsFollowSharesAndStayInPool)
{
    std::vector<TenantSpec> specs = twoTenants();
    specs[0].tierShare = 3.0;
    specs[1].tierShare = 1.0;
    FleetOptions options;
    options.hostTierBytes = Bytes{1u << 20};
    TenantFleet fleet(std::move(specs), options);

    ASSERT_NE(fleet.sharedTier(), nullptr);
    const Bytes a = fleet.tenantTierBudget(0);
    const Bytes b = fleet.tenantTierBudget(1);
    EXPECT_LE(a.raw() + b.raw(), options.hostTierBytes.raw());
    // 3:1 carve, up to one row-slot of apportionment rounding.
    const double ratio = static_cast<double>(a.raw()) /
                         static_cast<double>(b.raw());
    EXPECT_NEAR(ratio, 3.0, 0.2);
    EXPECT_LE(fleet.tenantTierPlannedBytes(0).raw(), a.raw());
    EXPECT_LE(fleet.tenantTierPlannedBytes(1).raw(), b.raw());
}

TEST(TenantFleet, EvCacheCarveFollowsSharesHotSetsAndLanes)
{
    // Per-table hot fractions over tables wider than the hot set give
    // the tables distinct hot working sets (uniqueHotIndices).
    std::vector<TenantSpec> specs = twoTenants();
    for (TenantSpec &spec : specs) {
        spec.config.withRowsPerTable(1u << 16);
        spec.trace.tableHotFractions = {0.9, 0.1, 0.5, 0.3};
    }
    specs[0].cacheShare = 3.0;
    specs[1].cacheShare = 1.0;
    FleetOptions options;
    options.device.evCache.enabled = true;
    options.device.evCache.admission = engine::EvCacheAdmission::TinyLfu;
    options.device.evCache.capacityBytes = Bytes{1u << 20};
    TenantFleet fleet(std::move(specs), options);

    const auto *device =
        dynamic_cast<const engine::RmSsd *>(&fleet.backend());
    ASSERT_NE(device, nullptr);
    ASSERT_NE(device->evCache(), nullptr);
    const std::vector<engine::EvCachePartition> &parts =
        device->evCache()->partitions();
    ASSERT_EQ(parts.size(), fleet.unionConfig().numTables);
    std::uint64_t numSets = 0;
    for (const engine::EvCachePartition &p : parts)
        numSets += p.numSets;
    const double spare = static_cast<double>(numSets - parts.size());

    // Every slot gets a one-set floor plus its largest-remainder
    // share of the spare sets: its quota exceeds its exact share of
    // the spare by more than 0 and at most 2 sets.
    constexpr double kEps = 1e-6;
    const double shareSum = 3.0 + 1.0;
    for (std::size_t i = 0; i < fleet.numTenants(); ++i) {
        const TenantSpec &spec = fleet.tenant(i);
        const auto hist =
            workload::TraceGenerator(spec.config, spec.trace)
                .tableHistograms(options.profileLookups);
        std::vector<double> hot;
        double hotSum = 0.0;
        for (const auto &h : hist) {
            hot.push_back(static_cast<double>(
                std::max<std::uint64_t>(1, h.uniqueHotIndices)));
            hotSum += hot.back();
        }
        ASSERT_GT(*std::max_element(hot.begin(), hot.end()),
                  2.0 * *std::min_element(hot.begin(), hot.end()))
            << "hot working sets should differ across tables";

        const std::uint32_t lanes = fleet.unionLayout().lanes[i];
        const std::vector<std::uint32_t> &slots = fleet.tenantSlots(i);
        double tenantSets = 0.0;
        for (std::uint32_t t = 0; t < spec.config.numTables; ++t) {
            // Within the tenant the budget follows uniqueHotIndices;
            // each lane of a wide table gets half the table's share.
            const double exact = spare * spec.cacheShare / shareSum *
                                 hot[t] / hotSum / lanes;
            std::vector<std::uint32_t> laneSets;
            for (std::uint32_t l = 0; l < lanes; ++l) {
                const std::uint32_t sets =
                    parts[slots[static_cast<std::size_t>(t) * lanes + l]]
                        .numSets;
                EXPECT_GT(sets, exact - kEps) << "tenant " << i << " t " << t;
                EXPECT_LE(sets, exact + 2.0 + kEps)
                    << "tenant " << i << " t " << t;
                laneSets.push_back(sets);
                tenantSets += sets;
            }
            EXPECT_LE(*std::max_element(laneSets.begin(), laneSets.end()) -
                          *std::min_element(laneSets.begin(),
                                            laneSets.end()),
                      1u)
                << "tenant " << i << " t " << t;
        }
        // The tenant's whole carve is its cacheShare of the pool (3:1).
        const double tenantExact = spare * spec.cacheShare / shareSum;
        EXPECT_GT(tenantSets, tenantExact - kEps) << "tenant " << i;
        EXPECT_LE(tenantSets,
                  tenantExact + 2.0 * static_cast<double>(slots.size()) +
                      kEps)
            << "tenant " << i;
    }
    EXPECT_EQ(fleet.unionLayout().lanes[1], 2u);
}

TEST(TenantFleet, StatsExportUnderTenantNamespaces)
{
    TenantFleet fleet(twoTenants(), FleetOptions{});
    StatsRegistry registry;
    fleet.registerStats(registry);

    workload::TraceGenerator gen0(fleet.tenant(0).config,
                                  workload::localityK(0.3));
    workload::TraceGenerator gen1(fleet.tenant(1).config,
                                  workload::localityK(0.3));
    fleet.inferTenant(0, gen0.nextBatch(2));
    fleet.inferTenant(0, gen0.nextBatch(2));
    fleet.inferTenant(1, gen1.nextBatch(3));

    EXPECT_EQ(registry.counterValue("fleet.tenant.narrow.submitted"),
              2u);
    EXPECT_EQ(registry.counterValue("fleet.tenant.narrow.retired"),
              2u);
    EXPECT_EQ(registry.counterValue("fleet.tenant.narrow.samples"),
              4u);
    EXPECT_EQ(registry.counterValue("fleet.tenant.wide.submitted"),
              1u);
    EXPECT_EQ(registry.counterValue("fleet.tenant.wide.samples"), 3u);
    EXPECT_GT(
        registry.gaugeValue("fleet.tenant.narrow.latency.p99Nanos"),
        0u);
    EXPECT_GT(registry.counterValue("fleet.device.emb.lookups"), 0u);
}

TEST(TenantFleet, ClusterBackendServesBothTenants)
{
    FleetOptions options;
    options.numDevices = 2;
    TenantFleet fleet(twoTenants(), options);

    FleetServingConfig sc;
    sc.loads.resize(2);
    sc.loads[0].numRequests = 10;
    sc.loads[1].numRequests = 10;
    const FleetServingResult r = simulateFleetServing(fleet, sc);
    EXPECT_EQ(r.requests, 20u);
    EXPECT_GT(r.tenants[0].achievedQps, 0.0);
    EXPECT_GT(r.tenants[1].achievedQps, 0.0);
}

TEST(TenantFleet, BuildFleetFromCatalogResolvesModelNames)
{
    ModelCatalog c;
    model::ModelConfig narrow = tinyConfig();
    narrow.name = "tiny-narrow";
    model::ModelConfig wide = tinyWideConfig();
    wide.name = "tiny-wide";
    c.addModel(narrow);
    c.addModel(wide);

    std::vector<TenantSpec> specs(2);
    specs[0].id = "tiny-narrow";
    specs[1].id = "tiny-wide";
    TenantFleet fleet =
        buildFleetFromCatalog(c, std::move(specs), FleetOptions{});
    EXPECT_EQ(fleet.tenant(0).config.name, "tiny-narrow");
    EXPECT_EQ(fleet.tenant(1).config.name, "tiny-wide");
    EXPECT_EQ(fleet.unionConfig().embDim, 32u);
}

} // namespace
} // namespace rmssd::catalog
