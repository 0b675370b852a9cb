// Tests for topologies, calibration sampling/drift and the fleet factory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "qpu/backend.hpp"
#include "qpu/calibration.hpp"
#include "qpu/fleet.hpp"
#include "qpu/topology.hpp"

namespace qon::qpu {
namespace {

TEST(Topology, LineProperties) {
  const auto t = Topology::line(5);
  EXPECT_EQ(t.num_qubits(), 5);
  EXPECT_EQ(t.edges().size(), 4u);
  EXPECT_TRUE(t.connected(2, 3));
  EXPECT_FALSE(t.connected(0, 4));
  EXPECT_EQ(t.distance(0, 4), 4);
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, RingWrapsAround) {
  const auto t = Topology::ring(6);
  EXPECT_EQ(t.edges().size(), 6u);
  EXPECT_TRUE(t.connected(0, 5));
  EXPECT_EQ(t.distance(0, 3), 3);
  EXPECT_EQ(t.distance(0, 5), 1);
}

TEST(Topology, GridDimensions) {
  const auto t = Topology::grid(3, 4);
  EXPECT_EQ(t.num_qubits(), 12);
  // 3*3 horizontal + 2*4 vertical = 17 edges.
  EXPECT_EQ(t.edges().size(), 17u);
  EXPECT_EQ(t.distance(0, 11), 5);  // manhattan distance corner to corner
}

TEST(Topology, HeavyHexFalcon27Structure) {
  const auto t = Topology::heavy_hex_falcon27();
  EXPECT_EQ(t.num_qubits(), 27);
  EXPECT_EQ(t.edges().size(), 28u);
  EXPECT_TRUE(t.is_connected());
  // Heavy-hex degree is bounded by 3.
  for (const auto& neighbors : t.adjacency()) {
    EXPECT_LE(neighbors.size(), 3u);
    EXPECT_GE(neighbors.size(), 1u);
  }
}

TEST(Topology, FullyConnectedDistanceIsOne) {
  const auto t = Topology::fully_connected(5);
  EXPECT_EQ(t.edges().size(), 10u);
  EXPECT_EQ(t.distance(0, 4), 1);
}

TEST(Topology, RejectsInvalidEdges) {
  EXPECT_THROW(Topology(2, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(Topology(2, {{0, 5}}), std::out_of_range);
  EXPECT_THROW(Topology(0, {}), std::invalid_argument);
}

TEST(Topology, DeduplicatesEdges) {
  const Topology t(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(t.edges().size(), 1u);
}

TEST(Calibration, SampleCoversTopology) {
  Rng rng(5);
  const auto topo = Topology::heavy_hex_falcon27();
  const auto cal = sample_calibration(topo, CalibrationProfile{}, rng);
  EXPECT_EQ(cal.qubits.size(), 27u);
  EXPECT_EQ(cal.edges.size(), topo.edges().size());
  for (const auto& q : cal.qubits) {
    EXPECT_GT(q.t1, 0.0);
    EXPECT_GT(q.t2, 0.0);
    EXPECT_LE(q.t2, 2.0 * q.t1);  // physical constraint
    EXPECT_GT(q.readout_error, 0.0);
    EXPECT_LE(q.readout_error, 0.5);
  }
  EXPECT_NO_THROW(cal.edge(1, 0));
  EXPECT_THROW(cal.edge(0, 26), std::out_of_range);
}

TEST(Calibration, QualityScalesErrors) {
  Rng rng1(9);
  Rng rng2(9);
  CalibrationProfile good;
  good.quality = 0.5;
  CalibrationProfile bad;
  bad.quality = 2.0;
  const auto topo = Topology::line(10);
  const auto cal_good = sample_calibration(topo, good, rng1);
  const auto cal_bad = sample_calibration(topo, bad, rng2);
  EXPECT_LT(cal_good.mean_gate_error_2q(), cal_bad.mean_gate_error_2q());
  EXPECT_LT(cal_good.mean_readout_error(), cal_bad.mean_readout_error());
  EXPECT_GT(cal_good.mean_t1(), cal_bad.mean_t1());
}

TEST(Calibration, DriftChangesValuesButStaysSane) {
  Rng rng(13);
  const auto topo = Topology::heavy_hex_falcon27();
  auto cal = sample_calibration(topo, CalibrationProfile{}, rng);
  const CalibrationDrift drift{CalibrationProfile{}};
  const auto next = drift.next(cal, rng);
  EXPECT_EQ(next.cycle, cal.cycle + 1);
  bool any_changed = false;
  for (std::size_t q = 0; q < cal.qubits.size(); ++q) {
    if (std::abs(next.qubits[q].readout_error - cal.qubits[q].readout_error) > 1e-12) {
      any_changed = true;
    }
    EXPECT_GT(next.qubits[q].readout_error, 0.0);
    EXPECT_LE(next.qubits[q].readout_error, 0.5);
    EXPECT_LE(next.qubits[q].t2, 2.0 * next.qubits[q].t1);
  }
  EXPECT_TRUE(any_changed);
}

TEST(Calibration, DriftMeanRevertsOverManyCycles) {
  Rng rng(17);
  const auto topo = Topology::line(8);
  CalibrationProfile profile;
  auto cal = sample_calibration(topo, profile, rng);
  // Push the first qubit's error far above the median, then drift.
  cal.qubits[0].gate_error_1q = 0.2;
  const CalibrationDrift drift{profile};
  for (int i = 0; i < 50; ++i) cal = drift.next(cal, rng);
  // Should have reverted to within an order of magnitude of the median.
  EXPECT_LT(cal.qubits[0].gate_error_1q, 0.05);
}

TEST(Calibration, DriftValidatesParameters) {
  EXPECT_THROW(CalibrationDrift(CalibrationProfile{}, -0.1), std::invalid_argument);
  EXPECT_THROW(CalibrationDrift(CalibrationProfile{}, 0.1, 1.5), std::invalid_argument);
}

TEST(Backend, ConstructionValidatesWidth) {
  Rng rng(19);
  auto model = std::make_shared<QpuModel>();
  model->name = "m";
  model->topology = Topology::line(4);
  model->basis_gates = falcon_basis();
  auto cal = sample_calibration(Topology::line(3), CalibrationProfile{}, rng);
  EXPECT_THROW(Backend("x", model, cal, CalibrationProfile{}), std::invalid_argument);
}

TEST(Backend, BasisMembership) {
  QpuModel model;
  model.basis_gates = falcon_basis();
  EXPECT_TRUE(model.in_basis(circuit::GateKind::kCX));
  EXPECT_TRUE(model.in_basis(circuit::GateKind::kMeasure));  // always legal
  EXPECT_TRUE(model.in_basis(circuit::GateKind::kBarrier));
  EXPECT_FALSE(model.in_basis(circuit::GateKind::kH));
  EXPECT_FALSE(model.in_basis(circuit::GateKind::kSwap));
}

TEST(Backend, RecalibrateAdvancesCycle) {
  auto fleet = make_ibm_like_fleet(2, 23);
  auto b = fleet.backends[0];
  Rng rng(29);
  const auto before = b->calibration().cycle;
  b->recalibrate(fleet.drift, rng, 3600.0);
  EXPECT_EQ(b->calibration().cycle, before + 1);
  EXPECT_DOUBLE_EQ(b->calibration().timestamp, 3600.0);
}

TEST(Fleet, NamesAndSizes) {
  const auto fleet = make_ibm_like_fleet(8, 42);
  ASSERT_EQ(fleet.backends.size(), 8u);
  std::set<std::string> names;
  for (const auto& b : fleet.backends) {
    names.insert(b->name());
    EXPECT_EQ(b->num_qubits(), 27);
  }
  EXPECT_EQ(names.size(), 8u);  // unique names
  EXPECT_NO_THROW(fleet.backend("auckland"));
  EXPECT_THROW(fleet.backend("nonexistent"), std::out_of_range);
}

TEST(Fleet, QualitySpreadProducesFidelityVariance) {
  const auto fleet = make_ibm_like_fleet(6, 7);
  std::vector<double> mean_errors;
  for (const auto& b : fleet.backends) {
    mean_errors.push_back(b->calibration().mean_gate_error_2q());
  }
  const double lo = *std::min_element(mean_errors.begin(), mean_errors.end());
  const double hi = *std::max_element(mean_errors.begin(), mean_errors.end());
  // Spatial heterogeneity: the default quality band spans ~2.15x in error,
  // so sampled means should spread by at least 1.5x (Fig. 2b).
  EXPECT_GT(hi / lo, 1.5);
}

TEST(Fleet, TemplateBackendAveragesCalibrations) {
  const auto fleet = make_ibm_like_fleet(4, 31);
  const auto templates = fleet.template_backends();
  ASSERT_EQ(templates.size(), 1u);  // one model in the fleet
  const auto& tmpl = templates[0];
  EXPECT_EQ(tmpl.num_qubits(), 27);
  // The template's mean error equals the across-backend average.
  double expected = 0.0;
  for (const auto& b : fleet.backends) expected += b->calibration().mean_gate_error_2q();
  expected /= static_cast<double>(fleet.backends.size());
  EXPECT_NEAR(tmpl.calibration().mean_gate_error_2q(), expected, 1e-12);
}

TEST(Fleet, RecalibratedAdvancesEveryBackendCopy) {
  const auto fleet = make_ibm_like_fleet(3, 37);
  Rng rng(41);
  const auto next = fleet.recalibrated(rng, 7200.0);
  ASSERT_EQ(next.backends.size(), fleet.backends.size());
  for (std::size_t i = 0; i < next.backends.size(); ++i) {
    EXPECT_EQ(next.backends[i]->calibration().cycle, 1u);
    EXPECT_DOUBLE_EQ(next.backends[i]->calibration().timestamp, 7200.0);
    EXPECT_EQ(next.backends[i]->name(), fleet.backends[i]->name());
    // Copy-on-write: the published generation is left untouched.
    EXPECT_NE(next.backends[i], fleet.backends[i]);
    EXPECT_EQ(fleet.backends[i]->calibration().cycle, 0u);
  }
}

TEST(Fleet, DeterministicInSeed) {
  const auto a = make_ibm_like_fleet(4, 99);
  const auto b = make_ibm_like_fleet(4, 99);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.backends[i]->name(), b.backends[i]->name());
    EXPECT_DOUBLE_EQ(a.backends[i]->calibration().mean_gate_error_2q(),
                     b.backends[i]->calibration().mean_gate_error_2q());
  }
}

TEST(Fleet, RejectsBadArguments) {
  EXPECT_THROW(make_ibm_like_fleet(0, 1), std::invalid_argument);
  EXPECT_THROW(make_ibm_like_fleet(2, 1, 2.0, 1.0), std::invalid_argument);
}

TEST(TemplateBackend, RejectsModelMismatch) {
  auto fleet_a = make_ibm_like_fleet(1, 1);
  auto other_model = std::make_shared<QpuModel>();
  other_model->name = "different";
  other_model->topology = Topology::heavy_hex_falcon27();
  other_model->basis_gates = falcon_basis();
  std::vector<const Backend*> backends{fleet_a.backends[0].get()};
  EXPECT_THROW(make_template_backend(other_model, backends), std::invalid_argument);
  EXPECT_THROW(make_template_backend(other_model, {}), std::invalid_argument);
}

}  // namespace
}  // namespace qon::qpu
