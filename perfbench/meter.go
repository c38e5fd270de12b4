package main

import (
	"hdpat"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// iteration is one timed pass of a workload: the host cost of its measured
// interval plus everything the checks and the per-layer ledger read.
type iteration struct {
	// Host cost of the measured interval (begin to end).
	wall, cpu time.Duration
	alloc     uint64  // bytes allocated
	gcCycles  uint32  // completed GC cycles
	gcCPU     float64 // GC CPU seconds (runtime/metrics estimate)
	userCPU   float64 // Go user-code CPU seconds (runtime/metrics estimate)

	// Per-run wall times and outcomes.
	runWalls []time.Duration
	results  []hdpat.Result
	runErrs  []error
	workers  int

	// Extra correctness checks the workload made (artifact hashes) and the
	// ones that failed.
	checks    int
	checkErrs []string

	// Daemon client latencies and the runs the daemon executed.
	submitMs, artifactMs []float64
	executed             int

	start snapshot
}

// snapshot is the process state at one instant.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	numGC    uint32
	gc, user float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuSamples))
	copy(s, cpuSamples)
	metrics.Read(s)
	return snapshot{
		at: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, numGC: ms.NumGC,
		gc: floatOf(s[0]), user: floatOf(s[1]),
	}
}

func floatOf(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin opens the measured interval.
func (it *iteration) begin() { it.start = takeSnapshot() }

// end closes the measured interval.
func (it *iteration) end() {
	e := takeSnapshot()
	it.wall = e.at.Sub(it.start.at)
	it.cpu = e.cpu - it.start.cpu
	it.alloc = e.alloc - it.start.alloc
	it.gcCycles = e.numGC - it.start.numGC
	it.gcCPU = e.gc - it.start.gc
	it.userCPU = e.user - it.start.user
}
