package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"hdpat/internal/vm"
)

// Trace record/replay: a benchmark's per-CU address streams serialise to
// JSON lines ({"gpm":G,"cu":C,"addrs":[...]}), one record per CU. This lets
// users inspect the synthetic streams the generators produce, or feed
// externally captured address traces (e.g. from a real GPU profiler)
// through the simulator via a replaying Benchmark.

// TraceRecord is one CU's address stream.
type TraceRecord struct {
	GPM   int      `json:"gpm"`
	CU    int      `json:"cu"`
	Addrs []uint64 `json:"addrs"`
}

// WriteTrace generates benchmark b's traces for an entire wafer and writes
// them as JSON lines. The regions are allocated on a private placement so
// addresses match what a wafer.Run with the same parameters would issue.
func WriteTrace(w io.Writer, b Benchmark, scale, numGPMs, numCUs, opsBudget int, ps vm.PageSize, seed int64) error {
	placement := vm.NewPlacement(numGPMs, ps)
	regions := map[string]vm.Region{}
	for _, rs := range b.Regions(scale, numGPMs, ps) {
		regions[rs.Name] = placement.Alloc(rs.Name, rs.Pages, 0)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var err error
	b.Traces(Context{
		Regions: regions, PageSize: ps, NumGPMs: numGPMs, NumCUs: numCUs,
		OpsBudget: opsBudget, Seed: seed,
	}, func(g, cu int, tr []vm.VAddr) {
		if err != nil {
			return
		}
		rec := TraceRecord{GPM: g, CU: cu, Addrs: make([]uint64, len(tr))}
		for i, a := range tr {
			rec.Addrs[i] = uint64(a)
		}
		err = enc.Encode(rec)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadTrace parses JSON-line trace records and returns a replaying
// Benchmark (see FromTraceRecords). The caller supplies the regions the
// addresses refer to. The replay is exact for addresses inside them: each
// (GPM, CU) gets its recorded stream, and positions with no record get an
// empty trace. Addresses outside the regions are dropped silently when a
// trace is built, not reported as an error.
func ReadTrace(r io.Reader, abbr string, gap int, regions []RegionSpec) (Benchmark, error) {
	var recs []TraceRecord
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec TraceRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return Benchmark{}, fmt.Errorf("workload: bad trace record: %w", err)
		}
		recs = append(recs, rec)
	}
	return FromTraceRecords(abbr, gap, regions, recs)
}

// FromTraceRecords builds a replaying Benchmark from in-memory records.
// The regions are assumed to be allocated contiguously in declaration order
// starting at the replay placement's first VPN. Each trace keeps only the
// addresses that fall inside them and drops the rest silently; a negative
// GPM or CU is the only record error.
func FromTraceRecords(abbr string, gap int, regions []RegionSpec, recs []TraceRecord) (Benchmark, error) {
	if len(recs) == 0 {
		return Benchmark{}, fmt.Errorf("workload: empty trace")
	}
	byPos := make(map[[2]int][]uint64, len(recs))
	for _, rec := range recs {
		if rec.GPM < 0 || rec.CU < 0 {
			return Benchmark{}, fmt.Errorf("workload: negative gpm/cu in trace")
		}
		byPos[[2]int{rec.GPM, rec.CU}] = rec.Addrs
	}
	// Total pages across regions bounds the valid address space; the replay
	// assumes region layout matches the recording (same specs, same order).
	totalPages := 0
	for _, r := range regions {
		totalPages += r.Pages
	}
	return Custom(abbr, "trace replay", gap, regions, func(ctx Context) []vm.VAddr {
		addrs := byPos[[2]int{ctx.GPM, ctx.CU}]
		// Rebase: recorded VPN offsets are relative to the first region's
		// start at record time, which equals the replay's first start when
		// the region specs match. Validate bounds rather than trust.
		var first vm.Region
		found := false
		for _, rs := range regions {
			if r, ok := ctx.Regions[rs.Name]; ok && !found {
				first = r
				found = true
			}
		}
		if !found {
			return nil
		}
		limit := first.Start + vm.VPN(totalPages)
		out := make([]vm.VAddr, 0, len(addrs))
		for _, a := range addrs {
			v := ctx.PageSize.VPNOf(vm.VAddr(a))
			if v < first.Start || v >= limit {
				continue // out-of-range record; drop rather than fault
			}
			out = append(out, vm.VAddr(a))
		}
		return out
	}), nil
}
