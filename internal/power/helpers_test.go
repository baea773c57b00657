package power

import "repro/internal/units"

// Readings only the tests use, to check the power model against the
// paper's figures.

// Aggregate reports total data bandwidth.
func (o OpticalSwitch) Aggregate() units.Bandwidth {
	return units.Bandwidth(float64(o.PortRate) * float64(o.Ports))
}
