package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// maxWait caps the long-poll hold so a proxy timeout never races the
// server's own response.
const maxWait = 60 * time.Second

// Handler returns the campaign API:
//
//	POST   /v1/jobs               submit a JobSpec, 201 + JobStatus
//	GET    /v1/jobs               list all jobs
//	GET    /v1/jobs/{id}          one job's status
//	GET    /v1/jobs/{id}/results  incremental results; ?after=N&wait=30s long-polls
//	DELETE /v1/jobs/{id}          cancel (queued: immediate; running: next wave)
//	GET    /healthz               {"status":"ok"|"draining"}
//
// Every response is JSON. Errors use {"error": "..."} with a matching
// status code.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": m.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Status(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", m.handleResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := m.Cancel(id); err != nil {
			writeErr(w, err)
			return
		}
		st, err := m.Status(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if m.Draining() {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": status})
	})
	return mux
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job spec: " + err.Error()})
		return
	}
	st, err := m.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

// handleResults validates the long-poll parameters strictly: a negative
// `after` or a negative `wait` is a caller bug (most often a sign error
// in cursor arithmetic), and silently clamping either to zero would turn
// that bug into a surprise full-replay or busy-poll. Both are rejected
// with 400 so the caller sees the mistake.
func (m *Manager) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after := 0
	if s := q.Get("after"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad after: " + err.Error()})
			return
		}
		if n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad after: must be >= 0, got " + s})
			return
		}
		after = n
	}
	var wait time.Duration
	if s := q.Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad wait: " + err.Error()})
			return
		}
		if d < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad wait: must be >= 0, got " + s})
			return
		}
		wait = min(d, maxWait)
	}
	page, err := m.Results(r.Context(), r.PathValue("id"), after, wait)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// writeErr maps manager errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrDraining), errors.Is(err, ErrJournalClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrTerminal):
		code = http.StatusConflict
	default:
		// Validation failures are client errors.
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
