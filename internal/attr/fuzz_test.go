package attr

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"hdpat/internal/trace"
)

// recordTrace drives trace's JSONL writer with spans decoded from data, six
// bytes a span (kind, start, duration, request, two operands), tagged with
// batch child run when run > 0.
func recordTrace(t testing.TB, data []byte, run int) []byte {
	var buf bytes.Buffer
	root := trace.New(&buf, trace.JSONL)
	tr := root
	if run > 0 {
		tr = root.Run(run)
	}
	for i := 0; i+6 <= len(data); i += 6 {
		start := uint64(data[i+1]) * 16
		end := start + uint64(data[i+2])
		req, a, b := uint64(data[i+3]%8), int(data[i+4]), int(data[i+5])
		switch data[i] % 6 {
		case 0:
			tr.RequestSpan(start, end, req, a%4, b)
		case 1:
			tr.QueueSpan([]string{"iommu.admission", "iommu.pwq", "gmmu.port", "other"}[a%4], start, end, req)
		case 2:
			tr.WalkSpan(start, end, req, uint64(a))
		case 3:
			tr.HopSpan(start, end, a%8, a/8%8, b%8, b/8%8, 64, b&0x80 != 0)
		case 4:
			tr.MigrationSpan(start, end, req, a, b)
		case 5:
			tr.Instant("iommu", "marker", start)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReplayJSONL checks that ReplayJSONL never panics: any input yields
// either an error or a Breakdown that renders, an accepted replay runs no
// longer than the latest span end in its input, and a trace recorded by
// trace's JSONL writer always replays to a Breakdown.
func FuzzReplayJSONL(f *testing.F) {
	lifecycle := []byte{
		1, 6, 10, 1, 0, 0, 1, 7, 40, 1, 1, 0, 2, 9, 100, 1, 0x42, 0,
		3, 15, 40, 1, 0, 1, 0, 5, 220, 1, 2, 5, 4, 0, 250, 9, 0, 3,
	}
	f.Add(recordTrace(f, lifecycle, 0), -1)
	f.Add(recordTrace(f, lifecycle, 2), 2)
	f.Add(recordTrace(f, lifecycle, 3), 1)
	f.Add([]byte("{\"ev\":\"hop\",\"ts\":1e300,\"dur\":-5}\n\n{not json}\n"), 0)
	f.Add([]byte("{\"ev\":\"request\",\"ts\":0,\"dur\":-5,\"req\":1}\n"), 0)
	f.Add([]byte("{\"ev\":\"request\",\"ts\":1e300,\"dur\":1,\"req\":1}\n"), 0)
	f.Fuzz(func(t *testing.T, data []byte, run int) {
		b, err := ReplayJSONL(bytes.NewReader(data), run)
		if (b == nil) == (err == nil) {
			t.Fatalf("ReplayJSONL = %v, %v; want exactly one of a Breakdown or an error", b, err)
		}
		if b != nil {
			if last := latestEnd(data); float64(b.Cycles) > last {
				t.Fatalf("replay runs %d cycles, past the latest span end %v", b.Cycles, last)
			}
			b.WriteMarkdown(io.Discard)
			_ = b.HeatmapCSV()
		}
		rec := recordTrace(t, data, run%4)
		if b, err = ReplayJSONL(bytes.NewReader(rec), run%4); err != nil || b == nil {
			t.Fatalf("recorded trace did not replay: %v", err)
		}
		b.WriteMarkdown(io.Discard)
	})
}

// latestEnd is the largest ts+dur over the JSON lines of data, read as plain
// floats, and at least 0.
func latestEnd(data []byte) float64 {
	var last float64
	for _, line := range bytes.Split(data, []byte("\n")) {
		var e map[string]any
		if json.Unmarshal(line, &e) != nil {
			continue
		}
		ts, _ := e["ts"].(float64)
		dur, _ := e["dur"].(float64)
		last = max(last, ts+dur)
	}
	return last
}

// Replay rejects trace numbers that are no cycle count or id: negative,
// fractional, or too large to be exact.
func TestReplayRejectsBadNumbers(t *testing.T) {
	for _, line := range []string{
		`{"ev":"request","ts":0,"dur":-5,"req":1}`,
		`{"ev":"request","ts":1e300,"dur":1,"req":1}`,
		`{"ev":"request","ts":9007199254740994,"dur":1,"req":1}`,
		`{"ev":"walk","ts":3,"dur":2.5,"req":1}`,
		`{"ev":"hop","ts":3,"dur":2,"fx":-1}`,
		`{"ev":"request","ts":3,"dur":2,"run":-2}`,
	} {
		if b, err := ReplayJSONL(strings.NewReader(line), 0); err == nil {
			t.Errorf("%s: replayed to %d cycles, want an error", line, b.Cycles)
		}
	}
}
