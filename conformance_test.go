//go:build conformance

package hdpat_test

// conformance reports a build with the conformance tag, which CI's
// conformance job sets: only then do the full-traffic 30x30 legs run (see
// noconformance_test.go).
const conformance = true
