#pragma once
// QPU backends: a named device with a model (topology + basis gates), a
// calibration snapshot, and the static metadata the system monitor
// publishes. Template backends average the calibration of all same-model
// devices (§6 "QPU transpilation").

#include <memory>
#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "qpu/calibration.hpp"
#include "qpu/topology.hpp"

namespace qon::qpu {

/// A QPU model (product line): topology + basis gate set + model name.
/// Several backends may share a model, as Falcon-r5 devices do at IBM.
struct QpuModel {
  std::string name;        ///< e.g. "falcon-r5"
  Topology topology;
  std::vector<circuit::GateKind> basis_gates;  ///< e.g. {RZ, SX, X, CX}

  bool in_basis(circuit::GateKind kind) const;
};

/// The default Falcon-like basis {RZ, SX, X, CX} (+ measure/barrier/delay,
/// which are always legal).
std::vector<circuit::GateKind> falcon_basis();

/// A concrete QPU device.
class Backend {
 public:
  Backend(std::string name, std::shared_ptr<const QpuModel> model, CalibrationData calibration,
          CalibrationProfile profile);

  const std::string& name() const { return name_; }
  const QpuModel& model() const { return *model_; }
  int num_qubits() const { return model_->topology.num_qubits(); }
  const Topology& topology() const { return model_->topology; }

  const CalibrationData& calibration() const { return calibration_; }

  /// The quality envelope this backend's calibrations are drawn from.
  const CalibrationProfile& profile() const { return profile_; }

  /// Advances one calibration cycle in place using the given drift process.
  /// Shared backends are never advanced: Fleet::recalibrated copies first.
  void recalibrate(const CalibrationDrift& drift, Rng& rng, double timestamp);

 private:
  std::string name_;
  std::shared_ptr<const QpuModel> model_;
  CalibrationData calibration_;
  CalibrationProfile profile_;
};

/// Builds a template backend for `model`: same topology/basis, calibration
/// values averaged across `backends` (which must share the model). Used by
/// the resource estimator for scalable coarse-grained estimation.
Backend make_template_backend(const std::shared_ptr<const QpuModel>& model,
                              const std::vector<const Backend*>& backends);

}  // namespace qon::qpu
