// A snapshot of end-to-end resource availability, as collected by the
// QoSProxies from the Resource Brokers (paper §3, §4.1.1).
#pragma once

#include "core/ids.hpp"
#include "util/flat_map.hpp"

namespace qres {

/// One broker report: current availability r^avail and the Availability
/// Change Index alpha = r^avail / r^avail_avg (paper §4.3.1, eq. 5).
/// Brokers that do not track the change index report alpha = 1.0.
struct ResourceObservation {
  double available = 0.0;
  double alpha = 1.0;
};

/// The per-resource snapshot used to construct a QoS-Resource Graph.
class AvailabilityView {
 public:
  void set(ResourceId id, double available, double alpha = 1.0) {
    QRES_REQUIRE(id.valid(), "AvailabilityView::set: invalid id");
    QRES_REQUIRE(available >= 0.0,
                 "AvailabilityView::set: negative availability");
    QRES_REQUIRE(alpha >= 0.0, "AvailabilityView::set: negative alpha");
    observations_.insert_or_assign(id, ResourceObservation{available, alpha});
  }

  bool contains(ResourceId id) const noexcept {
    return observations_.contains(id);
  }

  /// Requires the resource to be present.
  const ResourceObservation& get(ResourceId id) const {
    return observations_.at(id);
  }

  /// The observation of a resource, or nullptr when it is absent.
  const ResourceObservation* find(ResourceId id) const noexcept {
    const auto it = observations_.find(id);
    return it == observations_.end() ? nullptr : &it->second;
  }

  std::size_t size() const noexcept { return observations_.size(); }
  auto begin() const noexcept { return observations_.begin(); }
  auto end() const noexcept { return observations_.end(); }

 private:
  FlatMap<ResourceId, ResourceObservation> observations_;
};

}  // namespace qres
