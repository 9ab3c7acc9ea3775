package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	g.Set(-7)
	g.Add(3)
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != -4 {
		t.Errorf("gauge = %d, want -4", g.Value())
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{0, 1, 1, 3, 100, 100000, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 100100 {
		t.Errorf("sum = %d", h.Sum())
	}
	s := h.Snapshot()
	var total int64
	for i, b := range s.Buckets {
		total += b.Count
		if i > 0 && b.Le <= s.Buckets[i-1].Le {
			t.Errorf("bucket bounds not increasing: %v", s.Buckets)
		}
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, count is %d", total, s.Count)
	}
	// 0 and -5 land in the ≤0 bucket; 1,1 in [1,1]; 3 in [2,3]; etc.
	if s.Buckets[0].Le != 0 || s.Buckets[0].Count != 2 {
		t.Errorf("zero bucket = %+v", s.Buckets[0])
	}
	// Median of {−5,0,1,1,3,100,100000} is 1; the log-bucket estimate must
	// land in the right bucket (within a factor of √2 of 1).
	if q := s.Quantile(0.5); q < 0 || q > 2 {
		t.Errorf("p50 estimate = %d, want ~1", q)
	}
	if q := s.Quantile(0.99); q < 65536 || q > 131071 {
		t.Errorf("p99 estimate = %d, want within [2^16, 2^17)", q)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d", got)
	}
	if m := s.Mean(); m < 14300-1 || m > 14300+1 {
		t.Errorf("mean = %g", m)
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("atpg_faults_done_total", "faults processed").Add(42)
	r.Gauge("atpg_workers", "worker count").Set(4)
	r.GaugeFunc("atpg_coverage", "coverage fraction", func() float64 { return 0.5 })
	h := r.Histogram("atpg_solve_ns", "per-fault solve time")
	h.Observe(1000)
	h.Observe(3000)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE atpg_faults_done_total counter",
		"atpg_faults_done_total 42",
		"# TYPE atpg_workers gauge",
		"atpg_workers 4",
		"atpg_coverage 0.5",
		"# TYPE atpg_solve_ns histogram",
		`atpg_solve_ns_bucket{le="+Inf"} 2`,
		"atpg_solve_ns_sum 4000",
		"atpg_solve_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "atpg_solve_ns_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if n < last {
			t.Errorf("bucket counts decrease at %q", line)
		}
		last = n
	}
	vals := r.Values()
	if vals["atpg_faults_done_total"] != int64(42) {
		t.Errorf("Values() = %v", vals)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "")
	r.Counter("x", "")
}

func TestTraceJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	type ev struct {
		Fault string `json:"fault"`
		NS    int64  `json:"ns"`
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if err := tr.Emit(ev{Fault: fmt.Sprintf("n%d/%d", i, j), NS: int64(j)}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 100 {
		t.Errorf("events = %d", tr.Events())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 100 {
		t.Fatalf("%d lines, want 100", len(lines))
	}
	for _, l := range lines {
		var e ev
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatalf("line %q is not JSON: %v", l, err)
		}
	}
}

func TestNilTrace(t *testing.T) {
	var tr *Trace
	if err := tr.Emit(struct{}{}); err != nil {
		t.Error(err)
	}
	if err := tr.WriteLine([]byte("{}\n")); err != nil {
		t.Error(err)
	}
	if tr.Events() != 0 {
		t.Error("nil trace recorded events")
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestTraceRetainsFirstError(t *testing.T) {
	tr := NewTrace(failWriter{})
	big := strings.Repeat("x", 1<<17) // larger than the buffer: forces a flush
	if err := tr.Emit(big); err == nil {
		t.Fatal("no error from failing writer")
	}
	if err := tr.WriteLine([]byte("{}\n")); err == nil {
		t.Fatal("WriteLine lost the write error")
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close lost the write error")
	}
}

func TestReporter(t *testing.T) {
	var n atomic.Int64
	r := StartReporter(5*time.Millisecond, func() { n.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
	if n.Load() == 0 {
		t.Error("reporter never fired")
	}
	after := n.Load()
	time.Sleep(20 * time.Millisecond)
	if n.Load() != after {
		t.Error("reporter fired after Stop")
	}
	inert := StartReporter(0, func() { t.Error("inert reporter fired") })
	inert.Stop()
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("atpg_faults_done_total", "faults processed").Add(7)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "atpg_faults_done_total 7") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["atpg_metrics"]; !ok {
		t.Errorf("/debug/vars missing atpg_metrics: %s", body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
}

// TestShutdownCompletesInFlightScrape: a /metrics scrape already being
// served when Shutdown starts must complete with its full body — the
// graceful half of the drain contract.
func TestShutdownCompletesInFlightScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("drain_test_total", "").Add(42)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, err := serve("127.0.0.1:0", r, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			once.Do(func() { close(started) })
			<-release
			inner.ServeHTTP(w, req)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- result{code: resp.StatusCode, body: string(body)}
	}()
	<-started
	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(ctx) }()
	// Shutdown must wait for the blocked request, not cut it off.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	res := <-got
	if res.err != nil || res.code != 200 || !strings.Contains(res.body, "drain_test_total 42") {
		t.Fatalf("in-flight scrape did not complete cleanly: %+v", res)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDeadlineFallsBackToClose: a request that outlives the
// drain deadline must not wedge Shutdown — it reports the deadline and
// hard-closes so the caller gets its port back.
func TestShutdownDeadlineFallsBackToClose(t *testing.T) {
	r := NewRegistry()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	var once sync.Once
	srv, err := serve("127.0.0.1:0", r, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			once.Do(func() { close(started) })
			<-release
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil despite a request past the deadline")
	}
	// The fallback Close must have freed the port.
	srv2, err := Serve(srv.Addr(), r)
	if err != nil {
		t.Fatalf("port not released after fallback Close: %v", err)
	}
	srv2.Close()
}

// TestServeRebindsRegistry: a second Serve must route /debug/vars to the
// new registry (the expvar name is process-global).
func TestServeRebindsRegistry(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("only_in_first_total", "").Add(1)
	s1, err := Serve("127.0.0.1:0", r1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	r2 := NewRegistry()
	r2.Counter("only_in_second_total", "").Add(2)
	s2, err := Serve("127.0.0.1:0", r2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	resp, err := http.Get("http://" + s2.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "only_in_second_total") {
		t.Errorf("/debug/vars not rebound to new registry: %s", body)
	}
}
