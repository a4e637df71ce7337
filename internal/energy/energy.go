// Package energy models the power measurement setup of the paper's Fig 3:
// an ODROID Smart Power meter between the RPi and its supply, sampled while
// HyperProv runs at different load levels over 10-minute intervals. The
// power model is anchored to the paper's measured values — an idle RPi
// draws barely less than one running an idle HLF network (2.71 W), peak
// load draws only ~10.7 % more than idle, and the maximum observed draw is
// 3.64 W.
package energy

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// PowerModel maps device utilization to instantaneous power draw.
type PowerModel struct {
	// IdleWatts is the device idle (no blockchain processes).
	IdleWatts float64
	// HLFIdleWatts is the draw with peers+client running but no
	// transactions (the paper's 2.71 W).
	HLFIdleWatts float64
	// LoadWatts is the sustained draw at full transaction load
	// (idle + 10.7 % in the paper).
	LoadWatts float64
	// MaxWatts bounds transient spikes (the paper's 3.64 W).
	MaxWatts float64
	// SpikePct is the probability of a transient spike sample at high
	// utilization.
	SpikePct float64
}

// RPiPowerModel returns the model calibrated to the paper's RPi 3B+
// measurements.
func RPiPowerModel() PowerModel {
	return PowerModel{
		IdleWatts:    2.65,
		HLFIdleWatts: 2.71,
		LoadWatts:    2.71 * 1.107, // ≈ 3.00 W: "10.7% more ... compared to idle"
		MaxWatts:     3.64,
		SpikePct:     0.02,
	}
}

// Power returns the modeled draw at the given utilization in [0, 1].
// hlfRunning distinguishes a bare idle device from one running the idle
// blockchain stack.
func (m PowerModel) Power(util float64, hlfRunning bool) float64 {
	if !hlfRunning {
		return m.IdleWatts
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return m.HLFIdleWatts + (m.LoadWatts-m.HLFIdleWatts)*util
}

// Sample is one meter reading.
type Sample struct {
	// At is the offset from the start of metering (modeled time).
	At time.Duration
	// Watts is the instantaneous draw.
	Watts float64
	// Util is the utilization that produced it.
	Util float64
}

// Meter accumulates samples and integrates energy, like the ODROID meter's
// logging mode.
type Meter struct {
	model   PowerModel
	rng     *rand.Rand
	samples []Sample
}

// NewMeter creates a meter for the given model. seed fixes spike noise.
func NewMeter(model PowerModel, seed int64) *Meter {
	return &Meter{model: model, rng: rand.New(rand.NewSource(seed))}
}

// Record takes one reading at modeled offset at with the given utilization.
func (m *Meter) Record(at time.Duration, util float64, hlfRunning bool) {
	w := m.model.Power(util, hlfRunning)
	// Transient spikes at high load, bounded by MaxWatts.
	if hlfRunning && util > 0.5 && m.rng.Float64() < m.model.SpikePct {
		w += (m.model.MaxWatts - w) * m.rng.Float64()
	}
	if w > m.model.MaxWatts {
		w = m.model.MaxWatts
	}
	m.samples = append(m.samples, Sample{At: at, Watts: w, Util: util})
}

// Samples returns a copy of all readings.
func (m *Meter) Samples() []Sample {
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// Errors returned by report computation.
var ErrNoSamples = errors.New("energy: no samples recorded")

// Report summarizes a metering window.
type Report struct {
	Duration time.Duration
	AvgWatts float64
	MaxWatts float64
	// EnergyJoules is the integral of power over the window.
	EnergyJoules float64
	AvgUtil      float64
}

// Summarize integrates the recorded samples (trapezoidal rule over sample
// offsets).
func (m *Meter) Summarize() (Report, error) {
	if len(m.samples) == 0 {
		return Report{}, ErrNoSamples
	}
	var r Report
	var sumW, sumU float64
	for i, s := range m.samples {
		sumW += s.Watts
		sumU += s.Util
		if s.Watts > r.MaxWatts {
			r.MaxWatts = s.Watts
		}
		if i > 0 {
			dt := s.At - m.samples[i-1].At
			r.EnergyJoules += (s.Watts + m.samples[i-1].Watts) / 2 * dt.Seconds()
		}
	}
	r.AvgWatts = sumW / float64(len(m.samples))
	r.AvgUtil = sumU / float64(len(m.samples))
	r.Duration = m.samples[len(m.samples)-1].At - m.samples[0].At
	return r, nil
}

// Phase describes one Fig-3 load phase.
type Phase struct {
	// Name labels the phase ("idle", "idle+HLF", "load 50%", "peak").
	Name string
	// Duration is the modeled phase length (10 minutes in the paper).
	Duration time.Duration
	// Util is the device utilization during the phase.
	Util float64
	// HLFRunning is false only for the bare-idle baseline phase.
	HLFRunning bool
}

// PhaseResult is one row of the Fig-3 table.
type PhaseResult struct {
	Phase  Phase
	Report Report
}

// RunPhases meters a sequence of phases in virtual time, sampling at the
// given interval, and returns one result per phase. No wall-clock time
// passes: Fig 3 is a pure power-integration experiment once utilizations
// are known.
func RunPhases(model PowerModel, phases []Phase, sampleEvery time.Duration, seed int64) ([]PhaseResult, error) {
	if sampleEvery <= 0 {
		return nil, errors.New("energy: non-positive sample interval")
	}
	out := make([]PhaseResult, 0, len(phases))
	for i, ph := range phases {
		if ph.Duration <= 0 {
			return nil, fmt.Errorf("energy: phase %q has non-positive duration", ph.Name)
		}
		meter := NewMeter(model, seed+int64(i)*977)
		for at := time.Duration(0); at <= ph.Duration; at += sampleEvery {
			meter.Record(at, ph.Util, ph.HLFRunning)
		}
		rep, err := meter.Summarize()
		if err != nil {
			return nil, err
		}
		out = append(out, PhaseResult{Phase: ph, Report: rep})
	}
	return out, nil
}

// FormatTable renders phase results as the Fig-3 style report.
func FormatTable(results []PhaseResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %10s %10s %12s %8s\n",
		"phase", "duration", "avg W", "max W", "energy J", "util")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-14s %10s %10.2f %10.2f %12.1f %7.0f%%\n",
			r.Phase.Name, r.Report.Duration.Truncate(time.Second),
			r.Report.AvgWatts, r.Report.MaxWatts, r.Report.EnergyJoules,
			r.Report.AvgUtil*100)
	}
	return sb.String()
}
