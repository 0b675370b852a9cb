#pragma once
// Fleet factory: builds an IBM-like heterogeneous set of named 27-qubit
// heavy-hex backends with distinct quality factors (the persistent
// performance spread behind Fig. 2b) and a shared drift process.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qpu/backend.hpp"

namespace qon::qpu {

/// A fleet of QPU backends plus the model registry and drift process.
struct Fleet {
  std::vector<std::shared_ptr<const QpuModel>> models;
  std::vector<std::shared_ptr<Backend>> backends;
  CalibrationDrift drift{CalibrationProfile{}};

  /// Backend lookup by name; throws std::out_of_range when absent.
  std::shared_ptr<Backend> backend(const std::string& name) const;

  /// One template backend per model, averaging current calibrations.
  std::vector<Backend> template_backends() const;

  /// Copy-on-write recalibration: a fleet of fresh backend copies advanced
  /// one calibration cycle. This fleet and its backends stay untouched, so
  /// readers holding it keep a consistent calibration snapshot.
  Fleet recalibrated(Rng& rng, double timestamp) const;
};

/// The paper's recurring IBM device names, in the order used by Fig. 8c.
const std::vector<std::string>& ibm_device_names();

/// Builds `count` 27-qubit Falcon-like backends. Quality factors are spaced
/// log-uniformly in [best_quality, worst_quality] and shuffled by seed, so
/// fleets exhibit the ~38% best-to-worst fidelity spread of Fig. 2b.
Fleet make_ibm_like_fleet(std::size_t count, std::uint64_t seed, double best_quality = 0.72,
                          double worst_quality = 1.55);

}  // namespace qon::qpu
