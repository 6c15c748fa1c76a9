#include "engine/grid_plan.hpp"

#include <stdexcept>

#include "core/hash.hpp"
#include "engine/result_cache.hpp"

namespace hxmesh::engine {

GridPlan::GridPlan(std::vector<GridSpec> grids) : grids_(std::move(grids)) {
  dims_.reserve(grids_.size());
  for (const GridSpec& grid : grids_) {
    const SweepConfig& config = grid.config;
    if (!grid.labels.empty() &&
        grid.labels.size() != config.topologies.size())
      throw std::invalid_argument(
          "GridPlan: labels must parallel topologies (got " +
          std::to_string(grid.labels.size()) + " labels for " +
          std::to_string(config.topologies.size()) + " topologies)");

    Grid dims;
    dims.first_cell = total_cells_;
    dims.nt = config.topologies.size();
    dims.ne = config.engines.size();
    dims.np = config.patterns.size();
    dims.inherit_seeds = config.seeds.empty();
    dims.ns = dims.inherit_seeds ? 1 : config.seeds.size();
    dims_.push_back(dims);

    const std::size_t cells_per_job = dims.np * dims.ns;
    for (std::size_t ti = 0; ti < dims.nt; ++ti) {
      const std::size_t slot = topo_specs_.size();
      topo_specs_.push_back(config.topologies[ti]);
      // Batch slots by spec string (first-appearance numbering): repeated
      // topologies — across grids or within one axis — share one build.
      slot_batch_.push_back(batch_specs_.size());
      for (std::size_t b = 0; b < batch_specs_.size(); ++b)
        if (batch_specs_[b] == config.topologies[ti]) {
          slot_batch_.back() = b;
          break;
        }
      if (slot_batch_.back() == batch_specs_.size())
        batch_specs_.push_back(config.topologies[ti]);
      for (std::size_t ei = 0; ei < dims.ne; ++ei) {
        Job job;
        job.first_cell = total_cells_;
        job.last_cell = total_cells_ + cells_per_job;
        job.topo_slot = slot;
        job.engine = config.engines[ei];
        jobs_.push_back(std::move(job));
        total_cells_ += cells_per_job;
      }
    }
  }

  // Fingerprint: every axis value in order, plus the cache schema version,
  // so two plans agree on the hex string iff they describe the same cells.
  Fnv1a hash;
  hash.update(static_cast<std::uint64_t>(grids_.size()));
  for (const GridSpec& grid : grids_) {
    const SweepConfig& config = grid.config;
    hash.update(static_cast<std::uint64_t>(config.topologies.size()));
    for (const std::string& t : config.topologies) hash.update(t);
    hash.update(static_cast<std::uint64_t>(grid.labels.size()));
    for (const std::string& l : grid.labels) hash.update(l);
    hash.update(static_cast<std::uint64_t>(config.engines.size()));
    for (const std::string& e : config.engines) hash.update(e);
    hash.update(static_cast<std::uint64_t>(config.patterns.size()));
    for (const flow::TrafficSpec& p : config.patterns)
      hash.update(flow::pattern_spec(p));
    hash.update(static_cast<std::uint64_t>(config.seeds.size()));
    for (std::uint64_t s : config.seeds) hash.update(s);
  }
  hash.update(ResultCache::kSchemaVersion);
  fingerprint_ = hash.hex();
}

SweepRow GridPlan::cell_row(std::size_t cell) const {
  // Find the owning grid (grids are few; linear scan is fine and keeps the
  // plan allocation-free after construction).
  std::size_t g = 0;
  while (g + 1 < dims_.size() && cell >= dims_[g + 1].first_cell) ++g;
  const Grid& dims = dims_[g];
  const GridSpec& grid = grids_[g];
  const SweepConfig& config = grid.config;

  std::size_t rest = cell - dims.first_cell;
  const std::size_t si = rest % dims.ns;
  rest /= dims.ns;
  const std::size_t pi = rest % dims.np;
  rest /= dims.np;
  const std::size_t ei = rest % dims.ne;
  const std::size_t ti = rest / dims.ne;

  SweepRow row;
  row.topology = config.topologies[ti];
  row.label = grid.labels.empty() ? config.topologies[ti] : grid.labels[ti];
  row.engine = config.engines[ei];
  row.pattern = config.patterns[pi];
  row.seed = dims.inherit_seeds ? row.pattern.seed : config.seeds[si];
  row.pattern.seed = row.seed;
  return row;
}

std::string GridPlan::cell_key(std::size_t cell) const {
  const SweepRow row = cell_row(cell);
  return ResultCache::cell_key(row.topology, row.engine, row.pattern,
                               row.seed);
}

std::pair<std::size_t, std::size_t> GridPlan::shard_range(std::size_t total,
                                                          unsigned shard,
                                                          unsigned shards) {
  if (shards == 0 || shard >= shards)
    throw std::invalid_argument("shard_range: shard " + std::to_string(shard) +
                                " of " + std::to_string(shards));
  // floor(total * i / shards) boundaries: monotone, exactly covering, and
  // never off by more than one cell between shards. Sizes here are far
  // below 2^32, so the product cannot overflow 64 bits.
  const std::size_t lo = total * shard / shards;
  const std::size_t hi = total * (shard + 1) / shards;
  return {lo, hi};
}

}  // namespace hxmesh::engine
