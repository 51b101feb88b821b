// Package wsn simulates the district's wireless sensor and actuator
// network: the physical devices the paper's testbed deploys (DESIGN.md
// S8). Every virtual device speaks its native protocol for real — MAC
// frames over the simulated 802.15.4 radio, ZCL attribute commands,
// ESP3 telegrams on a simulated serial gateway, OPC UA services over
// TCP — so the device-proxies' dedicated layers exercise exactly the
// translation work the paper assigns them.
package wsn

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dataformat"
)

// Signal models one physical quantity's evolution: a base level, a
// diurnal sinusoidal component, and Gaussian noise. It is the synthetic
// stand-in for real sensor physics.
type Signal struct {
	// Base is the mean level (e.g. 21 degC).
	Base float64
	// Amplitude scales the sinusoidal component.
	Amplitude float64
	// Period is the oscillation period (e.g. 24h); zero disables it.
	Period time.Duration
	// NoiseStd is the standard deviation of the additive noise.
	NoiseStd float64
	// Min/Max clamp the output when Max > Min.
	Min, Max float64
}

// valueAt evaluates the signal at time t using the given RNG.
func (s Signal) valueAt(t time.Time, rng *rand.Rand) float64 {
	v := s.Base
	if s.Period > 0 && s.Amplitude != 0 {
		phase := 2 * math.Pi * float64(t.UnixNano()%int64(s.Period)) / float64(s.Period)
		v += s.Amplitude * math.Sin(phase)
	}
	if s.NoiseStd > 0 {
		v += rng.NormFloat64() * s.NoiseStd
	}
	if s.Max > s.Min {
		v = math.Max(s.Min, math.Min(s.Max, v))
	}
	return v
}

// battery models a linearly draining battery.
type battery struct {
	mu      sync.Mutex
	percent float64
	drain   float64 // percent per sample
}

func newBattery(start, drainPerSample float64) *battery {
	return &battery{percent: start, drain: drainPerSample}
}

// sample returns the current level and applies one sample's drain.
func (b *battery) sample() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := b.percent
	b.percent -= b.drain
	if b.percent < 0 {
		b.percent = 0
	}
	return v
}

// DefaultSignals returns the signals every simulated device senses
// (core.SimulatedDevice): a diurnal indoor temperature and humidity.
func DefaultSignals() map[dataformat.Quantity]Signal {
	return map[dataformat.Quantity]Signal{
		dataformat.Temperature: {Base: 21, Amplitude: 2, Period: 24 * time.Hour, NoiseStd: 0.1, Min: -10, Max: 40},
		dataformat.Humidity:    {Base: 45, Amplitude: 8, Period: 24 * time.Hour, NoiseStd: 0.8, Min: 0, Max: 100},
	}
}
