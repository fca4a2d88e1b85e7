#include "catalog/catalog.h"

#include <utility>

#include "baseline/cluster_system.h"
#include "baseline/dram_system.h"
#include "baseline/emb_mmio_system.h"
#include "baseline/emb_pagesum_system.h"
#include "baseline/emb_vectorsum_system.h"
#include "baseline/recssd_system.h"
#include "baseline/rm_ssd_system.h"
#include "baseline/ssd_naive_system.h"
#include "model/model_zoo.h"
#include "sim/log.h"

namespace rmssd::catalog {

void
ModelCatalog::addModel(const model::ModelConfig &config)
{
    if (modelIndex_.count(config.name))
        fatal("duplicate catalog model '%s'", config.name.c_str());
    modelIndex_.emplace(config.name, models_.size());
    models_.push_back(config);
}

void
ModelCatalog::addSystem(SystemEntry entry)
{
    if (systemIndex_.count(entry.name))
        fatal("duplicate catalog system '%s'", entry.name.c_str());
    systemIndex_.emplace(entry.name, systems_.size());
    systems_.push_back(std::move(entry));
}

bool
ModelCatalog::hasModel(const std::string &name) const
{
    return modelIndex_.count(name) != 0;
}

bool
ModelCatalog::hasSystem(const std::string &name) const
{
    return systemIndex_.count(name) != 0;
}

const model::ModelConfig &
ModelCatalog::model(const std::string &name) const
{
    auto it = modelIndex_.find(name);
    if (it == modelIndex_.end())
        fatal("unknown catalog model '%s'", name.c_str());
    return models_[it->second];
}

const SystemEntry &
ModelCatalog::system(const std::string &name) const
{
    auto it = systemIndex_.find(name);
    if (it == systemIndex_.end())
        fatal("unknown system '%s'", name.c_str());
    return systems_[it->second];
}

std::vector<std::string>
ModelCatalog::modelNames() const
{
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const model::ModelConfig &config : models_)
        names.push_back(config.name);
    return names;
}

std::vector<std::string>
ModelCatalog::systemNames() const
{
    std::vector<std::string> names;
    names.reserve(systems_.size());
    for (const SystemEntry &entry : systems_)
        names.push_back(entry.name);
    return names;
}

std::vector<std::string>
ModelCatalog::paperOrderNames() const
{
    std::vector<std::string> names;
    for (const SystemEntry &entry : systems_) {
        if (entry.inPaperOrder)
            names.push_back(entry.name);
    }
    return names;
}

std::unique_ptr<baseline::InferenceSystem>
ModelCatalog::make(const std::string &name,
                   const model::ModelConfig &config) const
{
    const SystemEntry &entry = system(name);
    const SystemRecipe &recipe = entry.recipe;
    switch (recipe.kind) {
    case SystemRecipe::Kind::Dram:
        return std::make_unique<baseline::DramSystem>(config);
    case SystemRecipe::Kind::SsdNaive:
        return std::make_unique<baseline::SsdNaiveSystem>(
            config, recipe.ssdUtilization);
    case SystemRecipe::Kind::EmbMmio:
        return std::make_unique<baseline::EmbMmioSystem>(config);
    case SystemRecipe::Kind::EmbPageSum:
        return std::make_unique<baseline::EmbPageSumSystem>(config);
    case SystemRecipe::Kind::EmbVectorSum:
        return std::make_unique<baseline::EmbVectorSumSystem>(config);
    case SystemRecipe::Kind::Recssd:
        return std::make_unique<baseline::RecssdSystem>(config);
    case SystemRecipe::Kind::RmSsd:
        return std::make_unique<baseline::RmSsdSystem>(config,
                                                       recipe.variant);
    case SystemRecipe::Kind::RmSsdCached: {
        engine::EvCacheConfig evCache = recipe.evCache;
        if (recipe.evenTableShares)
            evCache.tableShares.assign(config.numTables, 1.0);
        return std::make_unique<baseline::RmSsdSystem>(config, evCache,
                                                       entry.name);
    }
    case SystemRecipe::Kind::Cluster:
        return std::make_unique<baseline::ClusterSystem>(
            config, recipe.cluster, entry.name);
    }
    fatal("unhandled recipe kind for system '%s'", name.c_str());
}

std::unique_ptr<baseline::InferenceSystem>
ModelCatalog::make(const std::string &systemName,
                   const std::string &modelName) const
{
    return make(systemName, model(modelName));
}

namespace {

SystemEntry
entry(std::string name, std::string description, SystemRecipe recipe,
      bool inPaperOrder = true)
{
    SystemEntry e;
    e.name = std::move(name);
    e.description = std::move(description);
    e.recipe = std::move(recipe);
    e.inPaperOrder = inPaperOrder;
    return e;
}

/**
 * The cache variants differ by exactly one EvCacheConfig delta (and
 * the "+part" even-share fill); everything else about the recipe is
 * shared here instead of copy-pasted.
 */
SystemEntry
cachedEntry(std::string name, std::string description,
            engine::EvCacheConfig evCache, bool evenTableShares = false)
{
    SystemRecipe recipe;
    recipe.kind = SystemRecipe::Kind::RmSsdCached;
    recipe.evCache = evCache;
    recipe.evenTableShares = evenTableShares;
    return entry(std::move(name), std::move(description), recipe);
}

SystemEntry
clusterEntry(std::string name, std::string description,
             std::uint32_t numDevices)
{
    SystemRecipe recipe;
    recipe.kind = SystemRecipe::Kind::Cluster;
    // No traffic profile at registration time, so the table split is
    // capacity-exact and the router balances by outstanding work.
    recipe.cluster.sharding.numDevices = numDevices;
    recipe.cluster.policy = cluster::RouterPolicy::LeastOutstanding;
    return entry(std::move(name), std::move(description), recipe,
                 /*inPaperOrder=*/false);
}

ModelCatalog
makeBuiltin()
{
    ModelCatalog c;
    for (const model::ModelConfig &config : model::allModels())
        c.addModel(config);

    SystemRecipe dram;
    dram.kind = SystemRecipe::Kind::Dram;
    c.addSystem(entry("DRAM", "host DRAM baseline", dram));

    SystemRecipe ssdS;
    ssdS.kind = SystemRecipe::Kind::SsdNaive;
    ssdS.ssdUtilization = 0.25;
    c.addSystem(entry("SSD-S", "block SSD, small-read utilization",
                      ssdS));

    SystemRecipe ssdM;
    ssdM.kind = SystemRecipe::Kind::SsdNaive;
    ssdM.ssdUtilization = 0.5;
    c.addSystem(entry("SSD-M", "block SSD, medium-read utilization",
                      ssdM));

    SystemRecipe embMmio;
    embMmio.kind = SystemRecipe::Kind::EmbMmio;
    c.addSystem(entry("EMB-MMIO", "embedding offload over MMIO",
                      embMmio));

    SystemRecipe embPage;
    embPage.kind = SystemRecipe::Kind::EmbPageSum;
    c.addSystem(entry("EMB-PageSum", "page-granular pooled offload",
                      embPage));

    SystemRecipe embVec;
    embVec.kind = SystemRecipe::Kind::EmbVectorSum;
    c.addSystem(entry("EMB-VectorSum", "vector-granular pooled offload",
                      embVec));

    SystemRecipe recssd;
    recssd.kind = SystemRecipe::Kind::Recssd;
    c.addSystem(entry("RecSSD", "RecSSD-style host-managed offload",
                      recssd));

    SystemRecipe naive;
    naive.kind = SystemRecipe::Kind::RmSsd;
    naive.variant = engine::EngineVariant::Naive;
    c.addSystem(entry("RM-SSD-Naive", "full offload, naive kernels",
                      naive));

    SystemRecipe searched;
    searched.kind = SystemRecipe::Kind::RmSsd;
    searched.variant = engine::EngineVariant::Searched;
    c.addSystem(entry("RM-SSD", "full offload, searched kernels",
                      searched));

    c.addSystem(cachedEntry("RM-SSD+cache",
                            "device EV cache, LRU admission",
                            engine::EvCacheConfig{}));

    // Same capacity as RM-SSD+cache, but fills must earn their slot:
    // TinyLFU admission keeps the cold tail out.
    engine::EvCacheConfig lfu;
    lfu.admission = engine::EvCacheAdmission::TinyLfu;
    c.addSystem(cachedEntry("RM-SSD+lfu",
                            "device EV cache, TinyLFU admission", lfu));

    c.addSystem(cachedEntry("RM-SSD+part",
                            "TinyLFU + per-table partitioning", lfu,
                            /*evenTableShares=*/true));

    c.addSystem(clusterEntry("RM-SSD x2", "two-shard fleet", 2));
    c.addSystem(clusterEntry("RM-SSD x4", "four-shard fleet", 4));
    return c;
}

} // namespace

const ModelCatalog &
ModelCatalog::builtin()
{
    static const ModelCatalog catalog = makeBuiltin();
    return catalog;
}

std::unique_ptr<baseline::InferenceSystem>
makeSystem(const std::string &name, const model::ModelConfig &config)
{
    return ModelCatalog::builtin().make(name, config);
}

} // namespace rmssd::catalog
