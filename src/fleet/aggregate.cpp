#include "fleet/aggregate.hpp"

#include "common/units.hpp"
#include "fleet/device.hpp"

namespace hhpim::fleet {

SliceAggregate::SliceAggregate(const AggregateShape& shape)
    : busy_frac(0.0, shape.busy_frac_max, shape.busy_frac_bins),
      energy_mj(0.0, shape.slice_energy_mj_max, shape.slice_energy_bins) {}

void SliceAggregate::add(std::int64_t busy_time_ps, std::int64_t slice_ps,
                         double energy_pj) {
  busy_frac.add(Time::ps(busy_time_ps) / Time::ps(slice_ps));
  energy_mj.add(Energy::pj(energy_pj).as_mj());
  busy_ps.add(static_cast<std::uint64_t>(busy_time_ps));
}

void SliceAggregate::merge(const SliceAggregate& o) {
  busy_frac.merge(o.busy_frac);
  energy_mj.merge(o.energy_mj);
  busy_ps.merge(o.busy_ps);
}

FleetAggregate::FleetAggregate(const AggregateShape& shape) : slices(shape) {}

void FleetAggregate::add_device(const DeviceResult& r) {
  ++devices;
  executed_slices += static_cast<std::uint64_t>(r.slices_executed);
  tasks += r.tasks;
  tasks_dropped += r.tasks_dropped;
  deadline_violations += r.deadline_violations;
  if (r.exhausted_at_slice >= 0) ++exhausted_devices;
  mode_switches += r.mode_switches;
  low_power_slices += static_cast<std::uint64_t>(r.low_power_slices);
  host_cycles += r.host_cycles;
  device_energy_mj.add(r.energy_pj * 1e-9);
  final_soc.add(r.final_soc);
}

void FleetAggregate::merge(const FleetAggregate& o) {
  devices += o.devices;
  executed_slices += o.executed_slices;
  tasks += o.tasks;
  tasks_dropped += o.tasks_dropped;
  deadline_violations += o.deadline_violations;
  exhausted_devices += o.exhausted_devices;
  mode_switches += o.mode_switches;
  low_power_slices += o.low_power_slices;
  host_cycles += o.host_cycles;
  device_energy_mj.merge(o.device_energy_mj);
  final_soc.merge(o.final_soc);
  slices.merge(o.slices);
}

}  // namespace hhpim::fleet
