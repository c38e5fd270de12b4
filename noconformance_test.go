//go:build !conformance

package hdpat_test

// conformance reports a build with the conformance tag. Without it the
// full-traffic 30x30 legs skip: four full-wafer runs would add about 20 s
// to every `go test ./...`.
const conformance = false
