package httpmw

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"activepages/internal/obs"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// TestRouteMetricName pins the pattern -> metric segment mapping.
func TestRouteMetricName(t *testing.T) {
	for pattern, want := range map[string]string{
		"GET /healthz":                 "get_healthz",
		"POST /api/v1/runs":            "post_api_v1_runs",
		"GET /api/v1/runs/{id}/output": "get_api_v1_runs_id_output",
		"GET /api/v1/fleet":            "get_api_v1_fleet",
	} {
		if got := RouteMetricName(pattern); got != want {
			t.Errorf("RouteMetricName(%q) = %q, want %q", pattern, got, want)
		}
	}
}

// TestHandleRegistersHistogramAndCounters checks every instrumented route
// pre-registers its latency histogram and that a served request lands in
// it along with the shared request counter.
func TestHandleRegistersHistogramAndCounters(t *testing.T) {
	live := obs.New()
	m := NewInstrument(discardLogger(), live, "router.")
	mux := http.NewServeMux()
	m.Handle(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	m.Handle(mux, "GET /boom", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})

	ts := httptest.NewServer(mux)
	defer ts.Close()
	for _, path := range []string{"/healthz", "/boom"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Each route's pre-registered histogram observed exactly its own
	// request — the route->histogram mapping is static.
	snap := live.Snapshot()
	for _, k := range []string{"router.http.get_healthz.h.count", "router.http.get_boom.h.count"} {
		if got := snap[k]; got != 1 {
			t.Errorf("%s = %d, want 1 (have %v)", k, got, snap.Names())
		}
	}
	if got := snap["router.http_requests"]; got != 2 {
		t.Errorf("http_requests = %d, want 2", got)
	}
	if got := snap["router.http_errors"]; got != 1 {
		t.Errorf("http_errors = %d, want 1 (the 500 route)", got)
	}
}

// TestRecovererPanicBecomes500 checks a panicking handler answers 500 with
// a JSON error body and increments the panic counter, and the mux keeps
// serving afterwards.
func TestRecovererPanicBecomes500(t *testing.T) {
	live := obs.New()
	m := NewInstrument(discardLogger(), live, "serve.")
	mux := http.NewServeMux()
	m.Handle(mux, "GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	m.Handle(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	ts := httptest.NewServer(m.Recoverer(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(data, []byte("internal error")) {
		t.Fatalf("panic route: %d %s", resp.StatusCode, data)
	}
	if got := m.Panics(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: %v %v", resp, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestRequestIDPropagation checks the three id paths: a client-provided id
// flows into the handler context and back out on the response header, an
// absent id is generated fresh, and NewRequestID's format is stable.
func TestRequestIDPropagation(t *testing.T) {
	live := obs.New()
	m := NewInstrument(discardLogger(), live, "serve.")
	mux := http.NewServeMux()
	var seen string
	m.Handle(mux, "GET /echo", func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
		w.Write([]byte("ok"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/echo", nil)
	req.Header.Set(RequestIDHeader, "cafef00ddeadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if seen != "cafef00ddeadbeef" {
		t.Errorf("handler saw request id %q, want the inbound header's", seen)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "cafef00ddeadbeef" {
		t.Errorf("response echoes %q, want the inbound id", got)
	}

	resp, err = http.Get(ts.URL + "/echo")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	idFormat := regexp.MustCompile(`^[0-9a-f]{16}$`)
	if got := resp.Header.Get(RequestIDHeader); !idFormat.MatchString(got) || got != seen {
		t.Errorf("generated id %q (handler saw %q), want one fresh 16-hex id on both", got, seen)
	}
}

// TestStatusWriterFlush checks the instrumentation wrapper forwards Flush
// to the underlying writer (streaming handlers rely on it) and stays a
// no-op when the underlying writer cannot flush.
func TestStatusWriterFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &StatusWriter{ResponseWriter: rec}
	sw.Write([]byte("x"))
	sw.Flush()
	if !rec.Flushed {
		t.Error("Flush not forwarded to underlying writer")
	}
	if sw.status != http.StatusOK || sw.bytes != 1 {
		t.Errorf("status=%d bytes=%d, want 200/1", sw.status, sw.bytes)
	}
	// A writer without Flusher support must not panic.
	plain := &StatusWriter{ResponseWriter: nopWriter{httptest.NewRecorder()}}
	plain.Flush()
}

// nopWriter hides the recorder's Flusher implementation.
type nopWriter struct{ http.ResponseWriter }
