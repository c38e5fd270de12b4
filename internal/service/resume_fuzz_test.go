package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"
	"testing"

	"hdpat/internal/metrics"
	"hdpat/internal/wafer"
)

// FuzzResumeResult stores arbitrary bytes as the result of an interrupted
// compare job's completed baseline run, journals that run, and reopens the
// service over the state dir, which resumes the job. Resuming must never
// panic, and the job must finish. Its baseline run either serves the
// stored bytes unchanged, when they decode as a result, or runs again and
// serves what a fresh run stores; the scheme run always runs. The
// committed corpus (testdata/fuzz/FuzzResumeResult) adds null, truncated,
// wrongly typed and empty attribution results.
func FuzzResumeResult(f *testing.F) {
	spec := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Seed: 3, Attribution: true}
	points := spec.Points()
	fresh, err := fakeRun(context.Background(), spec, points[0], nil)
	if err != nil {
		f.Fatal(err)
	}
	rerun, err := marshalResult(fresh)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rerun)
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		st, err := OpenStore(dir+"/artifacts", nil)
		if err != nil {
			t.Fatal(err)
		}
		digest, _, err := st.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		jr, err := openJournal(dir, spec.ID())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []journalEntry{{T: evAccepted, Spec: &spec}, {T: evRun, Index: 0, Digest: digest}} {
			if err := jr.append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := jr.f.Close(); err != nil {
			t.Fatal(err)
		}

		var baselineRuns atomic.Int64
		svc := open(t, dir, func(ctx context.Context, s JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
			if p.Index == 0 {
				baselineRuns.Add(1)
			}
			return fakeRun(ctx, s, p, reg)
		})
		defer svc.Close()
		j, ok := svc.Get(spec.ID())
		if !ok {
			t.Fatal("the reopened service lost the job")
		}
		got := waitState(t, j, StateDone)

		want := data
		if runs := baselineRuns.Load(); runs > 1 {
			t.Fatalf("stored %q: the baseline ran %d times", data, runs)
		} else if runs == 1 {
			want = rerun
		}
		sum := sha256.Sum256(want)
		served := ""
		for _, a := range got.Artifacts {
			if a.Name == runName(points[0]) {
				served = a.Digest
			}
		}
		if served != hex.EncodeToString(sum[:]) {
			t.Fatalf("stored %q, baseline runs %d: served %q, want %x", data, baselineRuns.Load(), served, sum)
		}
	})
}
