package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"hdpat"
)

// checkResult applies the conservation laws every run must satisfy:
//   - the IOMMU six-counter identity: every submission ends in exactly one of
//     TLBHits, MSHRMerged, Walks, Revisits, RTRedirects or SkippedCompleted;
//   - HopsTotal >= ManhattanTotal, with equality under minimal (XY) routing;
//   - every GPM completed every op it issued, and the ops issued are the
//     trace lengths the run loaded.
func checkResult(res hdpat.Result, exactHops bool) error {
	var errs []error
	io := res.IOMMU
	if sum := io.TLBHits + io.MSHRMerged + io.Walks + io.Revisits + io.RTRedirects + io.SkippedCompleted; sum != io.Requests {
		errs = append(errs, fmt.Errorf("IOMMU outcomes sum to %d, want Requests %d", sum, io.Requests))
	}
	noc := res.NoC
	if noc.HopsTotal < noc.ManhattanTotal {
		errs = append(errs, fmt.Errorf("HopsTotal %d below Manhattan total %d", noc.HopsTotal, noc.ManhattanTotal))
	}
	if exactHops && noc.HopsTotal != noc.ManhattanTotal {
		errs = append(errs, fmt.Errorf("XY HopsTotal %d != Manhattan total %d", noc.HopsTotal, noc.ManhattanTotal))
	}
	var issued uint64
	for i, g := range res.GPMStats {
		issued += g.OpsIssued
		if g.OpsCompleted != g.OpsIssued {
			errs = append(errs, fmt.Errorf("GPM %d completed %d of %d ops", i, g.OpsCompleted, g.OpsIssued))
		}
	}
	if issued != res.TotalOps || issued == 0 {
		errs = append(errs, fmt.Errorf("GPMs issued %d ops, trace holds %d", issued, res.TotalOps))
	}
	return errors.Join(errs...)
}

// digestResult hashes a canonical rendering of everything a run computes:
// cycles, op and event counts, IOMMU and NoC accounting, auxiliary caches
// and every GPM's finish time and counters.
func digestResult(res hdpat.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "scheme=%s bench=%s cycles=%d ops=%d events=%d\n",
		res.Scheme, res.Benchmark, res.Cycles, res.TotalOps, res.Events)
	fmt.Fprintf(h, "iommu=%+v\nnoc=%+v\naux=%d %+v\n", res.IOMMU, res.NoC, res.AuxLen, res.AuxStats)
	for i, gs := range res.GPMStats {
		fmt.Fprintf(h, "gpm%d finish=%d %+v\n", i, res.GPMFinish[i], gs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkReference compares got (cell -> digest at recordedSeed) with the
// committed reference for workload, or rewrites that entry under
// -update-reference. The comparison counts as one check, which fails on
// any missing, extra or different digest.
func (b *bench) checkReference(workload string, got map[string]string) error {
	ref := map[string]map[string]string{}
	data, err := os.ReadFile(b.refPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &ref); err != nil {
			return fmt.Errorf("parse %s: %w", b.refPath, err)
		}
	case !(b.update && errors.Is(err, os.ErrNotExist)):
		return err
	}
	if b.update {
		ref[workload] = got
		out, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(b.refPath, append(out, '\n'), 0o644)
	}
	want := ref[workload]
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var diff []string
	for _, k := range sorted {
		if got[k] != want[k] {
			diff = append(diff, fmt.Sprintf("%s: digest %.12q, reference %.12q", k, got[k], want[k]))
		}
	}
	b.attempted++
	if len(diff) > 0 {
		b.fail("%s reference at seed %d: %v", workload, recordedSeed, diff)
	}
	return nil
}
