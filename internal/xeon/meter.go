package xeon

// PowerMeter models the WattsUp .net device of §5.2 [1]: it integrates
// wall energy continuously. (The device also reports per-second average
// power; nothing here reads those windows, so they are not modelled.)
//
// It satisfies heartbeat.EnergyMeter, so application monitors can
// evaluate power and energy goals against wall measurements exactly as
// the real SEEC deployment did.
type PowerMeter struct {
	joules float64 // cumulative energy
}

// Integrate accumulates powerW drawn for dt seconds.
func (m *PowerMeter) Integrate(powerW, dt float64) { m.joules += powerW * dt }

// EnergyJoules implements heartbeat.EnergyMeter.
func (m *PowerMeter) EnergyJoules() float64 { return m.joules }
