package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// statusWriter records the status code a handler wrote. It forwards Flush so
// wrapping does not break SSE streaming (handleEvents type-asserts
// http.Flusher).
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// Flush implements http.Flusher when the underlying writer does.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, so handlers
// behind the middleware can reach the connection's controls (read deadlines,
// full-duplex) — the live ingest handler depends on both.
func (sw *statusWriter) Unwrap() http.ResponseWriter {
	return sw.ResponseWriter
}

// statusClass folds a status code to its class label ("2xx", "4xx", ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// observe wraps the route table with the server's observability layer:
//
//   - every request gets a correlation ID (an inbound X-Request-Id is
//     honored, otherwise one is generated), echoed in the X-Request-Id
//     response header and carried on the request context for handlers and
//     the engine to log under;
//   - request count and latency are recorded per route pattern (the
//     ServeMux pattern, not the raw path, so /campaigns/{id} is one series
//     however many campaigns exist);
//   - each request is logged structurally (method, route, status, duration,
//     request ID, and the campaign ID a coordinator sends a worker as
//     X-Campaign-Id) — probe endpoints (/healthz, /metrics) log at Debug so
//     a scraper does not flood the log.
func (s *Server) observe(next http.Handler) http.Handler {
	lg := obs.Logger("http")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		// The mux stamps the matched pattern onto the *http.Request it is
		// handed; keep a reference so we can read it after dispatch.
		r2 := r.WithContext(obs.WithRequestID(r.Context(), id))
		next.ServeHTTP(sw, r2)

		route := r2.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.metrics.requests.With(route, r.Method, statusClass(status)).Inc()
		s.metrics.latency.With(route).Observe(elapsed.Seconds())

		level := lg.Info
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			level = lg.Debug
		}
		attrs := []any{
			"method", r.Method,
			"route", route,
			"path", r.URL.Path,
			"status", status,
			"duration_ms", float64(elapsed.Microseconds()) / 1000,
			"request_id", id,
		}
		if campaign := r.Header.Get("X-Campaign-Id"); campaign != "" {
			attrs = append(attrs, "campaign_id", campaign)
		}
		level("request", attrs...)
	})
}
