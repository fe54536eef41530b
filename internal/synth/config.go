// Package synth generates synthetic CDN edge-server request logs whose
// aggregate structure matches the JSON traffic the paper measured on
// Akamai (§3-§5): the device and application mix of Fig. 3, the
// request-method split, the cacheability structure of Fig. 4, the
// manifest-driven request chains that make requests predictable (§5.2),
// and the periodic machine-to-machine flows of §5.1.
//
// The generator is an event-driven simulation: a population of client
// actors (mobile apps, browsers, embedded devices, pollers, telemetry
// uploaders, unknown agents) is scheduled on a single event queue, and
// each actor emits log records when it fires. Everything is
// deterministic given Config.Seed.
package synth

import (
	"errors"
	"math"
	"time"

	"repro/internal/obs"
)

// SourceMix sets the share of JSON requests attributable to each traffic
// source archetype. The shares should sum to roughly 1; Validate
// enforces a tolerance.
type SourceMix struct {
	// MobileApp is native mobile application traffic (paper: >=52%).
	MobileApp float64
	// MobileBrowser is browser traffic from mobile devices (paper: 2.5%).
	MobileBrowser float64
	// DesktopBrowser is desktop browser traffic.
	DesktopBrowser float64
	// DesktopApp is native desktop application traffic.
	DesktopApp float64
	// Embedded is game consoles, smart TVs, watches, IoT (paper: 12%).
	Embedded float64
	// Unknown is traffic with missing or unidentifiable user agents
	// (paper: 24%).
	Unknown float64
}

// DefaultSourceMix returns the paper's Figure 3 shares.
func DefaultSourceMix() SourceMix {
	return SourceMix{
		MobileApp:      0.55,
		MobileBrowser:  0.025,
		DesktopBrowser: 0.08,
		DesktopApp:     0.005,
		Embedded:       0.12,
		Unknown:        0.22,
	}
}

// Sum returns the total of all shares.
func (m SourceMix) Sum() float64 {
	return m.MobileApp + m.MobileBrowser + m.DesktopBrowser +
		m.DesktopApp + m.Embedded + m.Unknown
}

// Config parameterizes one synthetic dataset.
type Config struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed uint64
	// Start is the capture start time.
	Start time.Time
	// Duration is the capture window (paper: 10 min short-term, 24 h
	// long-term).
	Duration time.Duration
	// Domains is the number of distinct customer domains.
	Domains int
	// TargetRequests is the approximate total record count to emit; the
	// generator sizes the client population to hit it within ~10%.
	TargetRequests int
	// Mix is the traffic source composition.
	Mix SourceMix
	// PeriodicShare is the fraction of JSON requests that belong to
	// periodic machine-to-machine flows (paper: 6.3%).
	PeriodicShare float64
	// UncacheableShare is the fraction of JSON traffic configured
	// uncacheable (paper: ~55%). Reached jointly through domain policies
	// and traffic weighting.
	UncacheableShare float64
	// NonJSONShare is the fraction of total records that are not
	// application/json (HTML, scripts, images) so that content-type
	// comparisons are exercised; the paper's datasets are JSON-filtered,
	// so analyses apply the JSON filter first.
	NonJSONShare float64
	// UTCOffset shifts the human diurnal activity cycle, modeling a
	// vantage point in another region (the paper's long-term dataset is
	// Seattle-only and its §7 limitations call for more regions).
	// Machine traffic is unaffected. Zero keeps the default phase.
	UTCOffset time.Duration
	// Attack overlays seeded adversarial traffic populations on the
	// normal stream: cache-busting query storms, flash crowds, bot
	// floods with spoofed user agents, and compression-conversion
	// amplification probes. Attack actors draw on their own RNG stream
	// and never touch the benign simulation's state, so a given Seed
	// produces the identical benign subsequence whether or not the
	// attack is enabled (see AttackMask). The zero value disables all
	// attack traffic.
	Attack AttackConfig
	// Obs, if non-nil, receives generation metrics: every emitted record
	// increments synth_records_generated_total and adds its body size to
	// synth_bytes_generated_total, so a scrape of a running generator
	// shows its record rate.
	Obs *obs.Registry
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Start.IsZero():
		return errors.New("synth: Config.Start is zero")
	case c.Duration <= 0:
		return errors.New("synth: Config.Duration must be positive")
	case c.Domains <= 0:
		return errors.New("synth: Config.Domains must be positive")
	case c.TargetRequests <= 0:
		return errors.New("synth: Config.TargetRequests must be positive")
	case c.PeriodicShare < 0 || c.PeriodicShare >= 1:
		return errors.New("synth: Config.PeriodicShare out of [0,1)")
	case c.UncacheableShare < 0 || c.UncacheableShare > 1:
		return errors.New("synth: Config.UncacheableShare out of [0,1]")
	case c.NonJSONShare < 0 || c.NonJSONShare >= 1:
		return errors.New("synth: Config.NonJSONShare out of [0,1)")
	}
	s := c.Mix.Sum()
	if s < 0.95 || s > 1.05 {
		return errors.New("synth: Config.Mix shares must sum to ~1")
	}
	return c.Attack.validate()
}

// captureStart is the fixed reference capture time used by the presets
// (early May 2019, matching the paper's measurement period).
var captureStart = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

// ShortTermConfig returns a preset modeled on the paper's short-term
// dataset (Table 2: 25 million logs over 10 minutes across ~5K domains,
// network wide), scaled down by the given factor (e.g. scale=0.001 gives
// 25K records over the same 10 minutes across ~50 domains). Domain count
// scales with sqrt(scale) so per-domain request density stays realistic.
func ShortTermConfig(seed uint64, scale float64) Config {
	if scale <= 0 {
		scale = 1
	}
	domains := int(5000 * math.Sqrt(scale))
	if domains < 12 {
		domains = 12
	}
	return Config{
		Seed:             seed,
		Start:            captureStart,
		Duration:         10 * time.Minute,
		Domains:          domains,
		TargetRequests:   int(25_000_000 * scale),
		Mix:              DefaultSourceMix(),
		PeriodicShare:    0.063,
		UncacheableShare: 0.55,
		NonJSONShare:     0.28,
	}
}

// LongTermConfig returns a preset modeled on the paper's long-term
// dataset (Table 2: 10 million logs over 24 hours from ~170 domains at
// one vantage), scaled down by the given factor.
func LongTermConfig(seed uint64, scale float64) Config {
	if scale <= 0 {
		scale = 1
	}
	domains := int(170 * math.Sqrt(scale))
	if domains < 12 {
		domains = 12
	}
	return Config{
		Seed:             seed,
		Start:            captureStart,
		Duration:         24 * time.Hour,
		Domains:          domains,
		TargetRequests:   int(10_000_000 * scale),
		Mix:              DefaultSourceMix(),
		PeriodicShare:    0.063,
		UncacheableShare: 0.55,
		NonJSONShare:     0.28,
	}
}
