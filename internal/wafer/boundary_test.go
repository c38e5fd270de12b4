package wafer

import (
	"go/build"
	"slices"
	"testing"
)

// TestComponentsDoNotImportMetrics keeps the simulator components free of
// the metrics registry: they keep only their Stats, and the publisher in
// this package derives every series from them. A component importing the
// registry would be a second copy of its counters.
func TestComponentsDoNotImportMetrics(t *testing.T) {
	for _, pkg := range []string{"sim", "noc", "iommu", "gpm", "tlb", "cache", "mshr", "cuckoo", "migrate", "xlat"} {
		p, err := build.ImportDir("../"+pkg, 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		if slices.Contains(p.Imports, "hdpat/internal/metrics") {
			t.Errorf("internal/%s imports hdpat/internal/metrics", pkg)
		}
	}
}
