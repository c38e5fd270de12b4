package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hdpat/internal/metrics"
	"hdpat/internal/wafer"
)

// holdRun never finishes a run before its job is cancelled.
func holdRun(ctx context.Context, _ JobSpec, _ Point, _ *metrics.Registry) (wafer.Result, error) {
	<-ctx.Done()
	return wafer.Result{}, ctx.Err()
}

// FuzzSubmitSpec posts arbitrary bodies to POST /v1/jobs, the JobSpec
// decoder hdpatd serves. The handler must never panic. It either rejects
// the body with 400 or accepts it (201, or 200 for a spec it already
// holds), and an accepted spec round-trips through JSON: its canonical
// encoding decodes, under the handler's strict rules, to a spec with the
// same encoding and the same job ID. A job that never finishes holds the
// service's only dispatcher, so accepted specs queue and never run. The
// committed corpus (testdata/fuzz/FuzzSubmitSpec) adds hostile bodies:
// empty lists, out-of-range meshes, unknown fields, invalid UTF-8,
// trailing data.
func FuzzSubmitSpec(f *testing.F) {
	for _, spec := range []JobSpec{
		{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "PR", Seed: 3},
		{Kind: KindCompare, Scheme: "transfw", Benchmark: "SPMV", OpsBudget: 8, MeshW: 7, MeshH: 12, Routing: "deflect"},
		sweepSpec(),
	} {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc := open(t, t.TempDir(), holdRun)
		defer svc.Close()
		hold, _, err := svc.Submit(JobSpec{Kind: KindSimulate, Scheme: "hold", Benchmark: "hold"})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusCreated, http.StatusOK:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		var st Status
		if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
			t.Fatalf("accepted %q, but its status does not decode: %v", body, err)
		}
		j, ok := svc.Get(st.ID)
		if !ok {
			t.Fatalf("accepted %q as job %s, which the service does not hold", body, st.ID)
		}
		if (rec.Code == http.StatusOK) != (j == hold) {
			t.Fatalf("status %d for %q, job %s", rec.Code, body, j.ID)
		}
		canon, err := json.Marshal(j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		dec := json.NewDecoder(bytes.NewReader(canon))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("accepted spec %s does not decode: %v", canon, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, canon) || back.ID() != j.ID {
			t.Fatalf("accepted spec %s round-trips to %s (ID %s, job %s)", canon, again, back.ID(), j.ID)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("accepted spec %s fails Validate after a round trip: %v", canon, err)
		}
		if j != hold {
			if err := svc.Cancel(j.ID); err != nil {
				t.Fatal(err)
			}
		}
	})
}
