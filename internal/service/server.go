package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hdpat/internal/metrics"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs                 submit a JobSpec (201; 200 when deduplicated)
//	GET    /v1/jobs                 list job statuses
//	GET    /v1/jobs/{id}            one job's status
//	DELETE /v1/jobs/{id}            cancel a queued or running job
//	GET    /v1/jobs/{id}/progress   SSE stream (Accept: text/event-stream) or
//	                                long-poll (?since=REV&timeout=30s)
//	GET    /v1/jobs/{id}/metrics    per-job Prometheus text exposition
//	GET    /v1/jobs/{id}/metrics.json  per-job JSON snapshot
//	GET    /v1/jobs/{id}/timeline   wall-clock Chrome trace_event JSON
//	GET    /v1/jobs/{id}/events     flight-recorder ring (recent log events)
//	GET    /v1/artifacts            artifact index (digest -> size)
//	GET    /v1/artifacts/{digest}   artifact content by SHA-256 hex digest
//	GET    /metrics                 aggregate exposition across all jobs
//	GET    /metrics.json            aggregate JSON snapshot
//	GET    /healthz                 liveness
//	GET    /readyz                  readiness (journal replay + store index)
//
// Per-job metrics reuse the same handlers ServeMetrics mounts per-process
// (internal/metrics), lifted to one registry per job. Every route is
// wrapped in metrics.InstrumentHandler, so the aggregate /metrics carries
// per-route/per-status http_request.count counters and
// http_request.latency_us log2 histograms keyed by registration pattern.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, metrics.InstrumentHandler(s.reg, pattern, h))
	}
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	handle("GET /readyz", s.handleReadyz)
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", s.handleJob)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /v1/jobs/{id}/progress", s.handleProgress)
	handle("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	handle("GET /v1/jobs/{id}/metrics.json", s.handleJobMetricsJSON)
	handle("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	handle("GET /v1/jobs/{id}/events", s.handleEvents)
	handle("GET /v1/artifacts", s.handleArtifactIndex)
	handle("GET /v1/artifacts/{digest}", s.handleArtifact)
	handle("GET /metrics", s.handleAggregate)
	handle("GET /metrics.json", s.handleAggregateJSON)
	return mux
}

// handleReadyz distinguishes readiness from liveness: 200 only between the
// end of journal replay / store index load and the start of shutdown, so
// orchestrators route traffic to daemons that can actually serve state.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if !s.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	j, existed, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, j.Status())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// job resolves the {id} path value, writing 404 on a miss.
func (s *Service) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
	}
	return j, ok
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.ID); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleProgress serves job progress two ways: an SSE stream of status
// events when the client accepts text/event-stream (or asks with ?sse=1),
// else one long-poll — block until the revision exceeds ?since (or
// ?timeout, default 30s, elapses) and return the current status.
func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") || r.URL.Query().Get("sse") == "1" {
		s.streamProgress(w, r, j)
		return
	}
	since := int64(-1)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
		since = n
	}
	timeout := 30 * time.Second
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q", v))
			return
		}
		if d > time.Minute {
			d = time.Minute
		}
		timeout = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	writeJSON(w, http.StatusOK, j.Wait(ctx, since))
}

// streamProgress writes SSE "status" events on every revision change until
// the job reaches a terminal state or the client disconnects. Each event's
// data is the job's Status JSON.
func (s *Service) streamProgress(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(st Status) bool {
		data, err := json.Marshal(st)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: status\nid: %d\ndata: %s\n\n", st.Rev, data)
		fl.Flush()
		return true
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		ch, rev := j.Changed()
		st := j.Status()
		if !send(st) {
			return
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-ch:
		case <-heartbeat.C:
			fmt.Fprintf(w, ": heartbeat rev=%d\n\n", rev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		metrics.Handler(j.Registry()).ServeHTTP(w, r)
	}
}

func (s *Service) handleJobMetricsJSON(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		metrics.JSONHandler(j.Registry()).ServeHTTP(w, r)
	}
}

// handleTimeline serves the job's wall-clock trace as Chrome trace_event
// JSON: the persisted object for terminal jobs (including jobs recovered
// from a previous process), a live render of the spans recorded so far
// otherwise.
func (s *Service) handleTimeline(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if digest := j.TimelineDigest(); digest != "" {
		if data, err := s.store.Get(digest); err == nil {
			w.Header().Set("ETag", `"`+digest+`"`)
			_, _ = w.Write(data)
			return
		}
		// Store miss (pruned object tree): fall through to the live render.
	}
	_, _ = w.Write(j.RenderTimeline())
}

// eventsBody is the /v1/jobs/{id}/events payload.
type eventsBody struct {
	Events []Event `json:"events"`
	// Dropped counts older events the bounded ring evicted.
	Dropped uint64 `json:"dropped"`
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	events, dropped := j.Events()
	writeJSON(w, http.StatusOK, eventsBody{Events: events, Dropped: dropped})
}

func (s *Service) handleArtifactIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Index())
}

func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	data, err := s.store.Get(digest)
	if errors.Is(err, ErrCorruptObject) {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("artifact %s not found", digest))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", `"`+digest+`"`)
	_, _ = w.Write(data)
}

func (s *Service) handleAggregate(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.AggregateSnapshot().Prometheus()))
}

func (s *Service) handleAggregateJSON(w http.ResponseWriter, r *http.Request) {
	out, err := s.AggregateSnapshot().JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}
