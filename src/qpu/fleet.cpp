#include "qpu/fleet.hpp"

#include <cmath>
#include <stdexcept>

namespace qon::qpu {

std::shared_ptr<Backend> Fleet::backend(const std::string& name) const {
  for (const auto& b : backends) {
    if (b->name() == name) return b;
  }
  throw std::out_of_range("Fleet::backend: unknown backend: " + name);
}

std::vector<Backend> Fleet::template_backends() const {
  std::vector<Backend> out;
  for (const auto& model : models) {
    std::vector<const Backend*> same_model;
    for (const auto& b : backends) {
      if (b->model().name == model->name) same_model.push_back(b.get());
    }
    if (!same_model.empty()) out.push_back(make_template_backend(model, same_model));
  }
  return out;
}

Fleet Fleet::recalibrated(Rng& rng, double timestamp) const {
  Fleet next = *this;
  for (auto& b : next.backends) {
    b = std::make_shared<Backend>(*b);
    b->recalibrate(drift, rng, timestamp);
  }
  return next;
}

const std::vector<std::string>& ibm_device_names() {
  static const std::vector<std::string> kNames = {
      "auckland", "lagos",  "cairo",     "hanoi",   "kolkata", "mumbai",
      "guadalupe", "nairobi", "algiers", "perth",   "jakarta", "quito",
      "belem",    "manila", "santiago",  "bogota",  "lima",    "quebec",
      "osaka",    "brisbane"};
  return kNames;
}

Fleet make_ibm_like_fleet(std::size_t count, std::uint64_t seed, double best_quality,
                          double worst_quality) {
  // Defaults yield a fleet whose mean 2q-error spreads ~2x best-to-worst,
  // reproducing the ~38% GHZ-12 fidelity spread of Fig. 2b.
  if (count == 0) throw std::invalid_argument("make_ibm_like_fleet: count must be > 0");
  if (!(best_quality > 0.0) || !(worst_quality >= best_quality)) {
    throw std::invalid_argument("make_ibm_like_fleet: bad quality range");
  }
  Rng rng(seed);

  Fleet fleet;
  auto model = std::make_shared<QpuModel>();
  model->name = "falcon-r5";
  model->topology = Topology::heavy_hex_falcon27();
  model->basis_gates = falcon_basis();
  fleet.models.push_back(model);

  // Log-uniformly spaced quality factors, shuffled so the name order does
  // not correlate with quality.
  std::vector<double> qualities(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = count == 1 ? 0.5 : static_cast<double>(i) / static_cast<double>(count - 1);
    qualities[i] = std::exp(std::log(best_quality) +
                            t * (std::log(worst_quality) - std::log(best_quality)));
  }
  rng.shuffle(qualities);

  const auto& names = ibm_device_names();
  for (std::size_t i = 0; i < count; ++i) {
    CalibrationProfile profile;
    profile.quality = qualities[i];
    // Devices differ in reset/repetition rates: 150-500 us per shot.
    profile.rep_delay = rng.uniform(150e-6, 500e-6);
    CalibrationData cal = sample_calibration(model->topology, profile, rng);
    std::string name =
        i < names.size() ? names[i] : "qpu" + std::to_string(i);
    fleet.backends.push_back(
        std::make_shared<Backend>(std::move(name), model, std::move(cal), profile));
  }
  fleet.drift = CalibrationDrift(CalibrationProfile{});
  return fleet;
}

}  // namespace qon::qpu
