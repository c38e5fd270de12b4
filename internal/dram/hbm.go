// Package dram models each GPM's HBM stack (Table I: 8 GB, 1.23 TB/s):
// a fixed access latency plus a bandwidth-limited service line. At 1 GHz,
// 1.23 TB/s is 1230 bytes per cycle; a 64 B cacheline therefore occupies the
// stack for a fraction of a cycle, so bandwidth only matters under heavy
// concurrent load — exactly when it should.
package dram

import "hdpat/internal/sim"

// Config describes one HBM stack.
type Config struct {
	// AccessLatency is the fixed CAS-equivalent latency in cycles.
	AccessLatency sim.VTime
	// BytesPerCycle is the sustained bandwidth (bytes transferred per cycle).
	BytesPerCycle float64
}

// DefaultConfig matches Table I at 1 GHz.
func DefaultConfig() Config {
	return Config{AccessLatency: 100, BytesPerCycle: 1230}
}

// HBM is one memory stack.
type HBM struct {
	cfg  Config
	line sim.Line
	// Partial-cycle bandwidth debt, carried between requests so small
	// transfers still consume bandwidth in aggregate.
	debt float64

	// Stats
	Reads      uint64
	BytesMoved uint64
}

// New creates a stack.
func New(cfg Config) *HBM {
	return &HBM{cfg: cfg}
}

// Reset returns the stack to the state New left it in.
func (h *HBM) Reset() { *h = HBM{cfg: h.cfg} }

// Access books a transfer of size bytes arriving at now and returns the
// completion time: queueing for bandwidth, then the fixed access latency.
func (h *HBM) Access(now sim.VTime, size int) (done sim.VTime) {
	h.Reads++
	h.BytesMoved += uint64(size)
	h.debt += float64(size) / h.cfg.BytesPerCycle
	hold := sim.VTime(0)
	if h.debt >= 1 {
		whole := sim.VTime(h.debt)
		h.debt -= float64(whole)
		hold = whole
	}
	_, end := h.line.Occupy(now, hold)
	return end + h.cfg.AccessLatency
}
