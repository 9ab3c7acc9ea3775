package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/gen"
)

// genBenchNetlist serializes a random circuit as .bench text — a job
// big enough to be interrupted mid-run but bounded on one core.
func genBenchNetlist(t *testing.T, inputs, gates int, seed int64) string {
	t.Helper()
	c := gen.Random(gen.RandomParams{Inputs: inputs, Gates: gates, Seed: seed})
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		t.Fatalf("bench.Write: %v", err)
	}
	return buf.String()
}

// pollUntilMidRun waits for the job to have at least minDone SAT-phase
// verdicts (the ones journaled one record at a time) while still
// running — the window where an interruption actually interrupts a
// partially-journaled run.
func pollUntilMidRun(t *testing.T, s *Server, id string, minDone int) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		j := s.jobByID(id)
		if j == nil {
			t.Fatalf("job %s unknown", id)
		}
		meta, p, hasP := j.snapshot()
		if terminal(meta.State) {
			t.Fatalf("job %s finished (%s) before %d verdicts — enlarge the chaos circuit", id, meta.State, minDone)
		}
		if hasP && p.Detected+p.Untestable+p.Aborted >= minDone {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %d verdicts", id, minDone)
}

// TestChaosHardStopMidJobResumesByteIdentical is the core crash-safety
// invariant: a daemon hard-stopped mid-job and restarted on the same
// data dir finishes the job with exactly the vectors an uninterrupted
// run produces — zero lost verdicts, zero divergence.
func TestChaosHardStopMidJobResumesByteIdentical(t *testing.T) {
	netlist := genBenchNetlist(t, 24, 700, 11)

	// Baseline: the uninterrupted run.
	s0 := startTestServer(t, nil)
	m0, _ := submitJob(t, s0, "?name=chaos", netlist)
	base := waitJobState(t, s0, m0.ID, StateDone).Result
	if base == nil || len(base.Vectors) == 0 {
		t.Fatal("baseline run produced no vectors")
	}
	s0.Close()

	// Interrupted: hard-stop the daemon mid-run.
	dataDir := t.TempDir()
	s1 := startTestServer(t, func(c *Config) { c.DataDir = dataDir; c.ProgressEvery = time.Millisecond })
	m1, _ := submitJob(t, s1, "?name=chaos", netlist)
	pollUntilMidRun(t, s1, m1.ID, 3)
	s1.Close()

	// The interrupted job is persisted as running — resumable, not lost.
	meta, err := readMeta(filepath.Join(dataDir, "jobs", m1.ID))
	if err != nil {
		t.Fatalf("read interrupted meta: %v", err)
	}
	if meta.State != StateRunning {
		t.Fatalf("interrupted job persisted as %q, want running", meta.State)
	}

	// Restart on the same data dir: the job resumes and completes.
	s2 := startTestServer(t, func(c *Config) { c.DataDir = dataDir })
	doc := waitJobState(t, s2, m1.ID, StateDone)
	if doc.Result.Resumed == 0 {
		t.Error("resumed run replayed no journaled verdicts")
	}
	if !reflect.DeepEqual(doc.Result.Vectors, base.Vectors) {
		t.Fatalf("resumed vectors diverge from baseline:\n resumed: %d vectors\n baseline: %d vectors",
			len(doc.Result.Vectors), len(base.Vectors))
	}
	for _, cmp := range []struct {
		name      string
		got, want int
	}{
		{"detected", doc.Result.Detected, base.Detected},
		{"untestable", doc.Result.Untestable, base.Untestable},
		{"aborted", doc.Result.Aborted, base.Aborted},
		{"errors", doc.Result.Errors, base.Errors},
	} {
		if cmp.got != cmp.want {
			t.Errorf("resumed %s = %d, baseline %d", cmp.name, cmp.got, cmp.want)
		}
	}
}

// TestChaosPanicIsolation: one poisoned job fails alone; concurrent and
// subsequent jobs on the same runners complete untouched.
func TestChaosPanicIsolation(t *testing.T) {
	s := startTestServer(t, func(c *Config) { c.RunningSlots = 2 })
	s.testHookRun = func(j *job) {
		if strings.Contains(j.meta.Name, "poison") {
			panic("chaos monkey says hello")
		}
	}

	poison, _ := submitJob(t, s, "?name=poison", c17Bench)
	good, _ := submitJob(t, s, "?name=good", c17Bench)
	doc := waitJobState(t, s, poison.ID, StateFailed)
	if !strings.Contains(doc.Error, "internal panic") {
		t.Errorf("poisoned job error %q, want an internal panic", doc.Error)
	}
	waitJobState(t, s, good.ID, StateDone)

	// The runner that absorbed the panic keeps serving.
	later, _ := submitJob(t, s, "?name=later", c17Bench)
	waitJobState(t, s, later.ID, StateDone)

	metrics := scrapeMetrics(t, s)
	if !strings.Contains(metrics, `atpgd_jobs_completed_total{state="failed"} 1`) {
		t.Error("metrics missing the failed job")
	}
	if !strings.Contains(metrics, `atpgd_jobs_completed_total{state="done"} 2`) {
		t.Error("metrics missing the completed jobs")
	}
}

// holdJournal passes a job's journal records through and, once the
// after-th verdict is journaled, holds the commit frontier that wrote it
// until release is closed: the job stays mid-run, its verdicts so far on
// disk, however fast the engine solves the rest.
type holdJournal struct {
	atpg.JournalSink
	n, after int
	held     chan struct{} // closed when the hold begins
	release  <-chan struct{}
}

// RecordFault is called under the engine's commit lock, one verdict at a
// time.
func (h *holdJournal) RecordFault(i int, status string, vector []bool, errMsg string) {
	h.JournalSink.RecordFault(i, status, vector, errMsg)
	if h.n++; h.n == h.after {
		close(h.held)
		<-h.release
	}
}

// TestChaosGracefulDrain: SIGTERM semantics. Admissions stop at once,
// a slow SSE reader cannot pin the shutdown, a running job past the
// drain deadline is checkpointed (persisted running, resumable), a
// queued job stays durably queued — and a restart finishes both. The
// running job outlives the drain window by construction: its second
// journaled verdict holds the run until the drain gives up and cancels
// the server's jobs.
func TestChaosGracefulDrain(t *testing.T) {
	netlist := genBenchNetlist(t, 25, 850, 11)
	dataDir := t.TempDir()
	goroutines0 := runtime.NumGoroutine()

	s := startTestServer(t, func(c *Config) {
		c.DataDir = dataDir
		c.RunningSlots = 1
		c.ProgressEvery = time.Millisecond
		c.SSEHeartbeat = 10 * time.Millisecond
		c.SSEWriteTimeout = 100 * time.Millisecond
	})
	held := make(chan struct{})
	s.testHookJournal = func(js atpg.JournalSink) atpg.JournalSink {
		return &holdJournal{JournalSink: js, after: 2, held: held, release: s.jobCtx.Done()}
	}
	running, _ := submitJob(t, s, "?name=big", netlist)
	pollUntilMidRun(t, s, running.ID, 2)
	select {
	case <-held:
	case <-time.After(60 * time.Second):
		t.Fatal("the running job never journaled its second verdict")
	}
	queued, _ := submitJob(t, s, "?name=waiting", c17Bench)

	// A slow reader: subscribes to the event stream, then never reads.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	fmt.Fprintf(conn, "GET /jobs/%s/events HTTP/1.1\r\nHost: atpgd\r\n\r\n", running.ID)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// While draining (the runner is still mid-job): readiness flips and
	// submissions are refused — but in-flight work is untouched.
	refuseDeadline := time.Now().Add(time.Second)
	refused := false
	for time.Now().Before(refuseDeadline) && !refused {
		resp, err := http.Get("http://" + s.Addr() + "/readyz")
		if err != nil {
			break // listener already closed: also a refusal
		}
		refused = resp.StatusCode == http.StatusServiceUnavailable
		resp.Body.Close()
		if !refused {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !refused {
		t.Error("/readyz never flipped to 503 during drain")
	}
	if _, resp := submitJob(t, s, "?name=late", c17Bench); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission during drain: status %d, want 503", resp.StatusCode)
	}

	select {
	case err := <-shutdownErr:
		// The held job cannot finish inside the 1s drain window, so the
		// deadline must have forced the checkpoint — and Shutdown still
		// completed promptly instead of hanging on the runner or the
		// stalled SSE reader.
		if err == nil {
			t.Fatal("drain reported clean, but the running job should have outlived the deadline")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Shutdown hung: slow reader or runner pinned the drain")
	}
	conn.Close()

	// Post-drain durable state: the interrupted job is resumable, the
	// queued job still queued.
	if meta, err := readMeta(filepath.Join(dataDir, "jobs", running.ID)); err != nil || meta.State != StateRunning {
		t.Fatalf("interrupted job state %q (err %v), want running", meta.State, err)
	}
	if meta, err := readMeta(filepath.Join(dataDir, "jobs", queued.ID)); err != nil || meta.State != StateQueued {
		t.Fatalf("queued job state %q (err %v), want queued", meta.State, err)
	}

	// No goroutine leaks: everything the daemon spawned has wound down.
	http.DefaultClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines0+3 && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines0+3 {
		t.Errorf("goroutines after drain: %d, started with %d", n, goroutines0)
	}

	// A restart picks up exactly where the drain left off.
	s2 := startTestServer(t, func(c *Config) { c.DataDir = dataDir })
	doc := waitJobState(t, s2, running.ID, StateDone)
	if doc.Result.Resumed == 0 {
		t.Error("drained job did not resume from its checkpoint")
	}
	waitJobState(t, s2, queued.ID, StateDone)
}

// TestChaosDrainCompletesFastJobs: a drain with room to spare lets the
// running job finish normally — done, result persisted, nil error.
func TestChaosDrainCompletesFastJobs(t *testing.T) {
	s := startTestServer(t, nil)
	meta, _ := submitJob(t, s, "?name=c17", c17Bench)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	dmeta, err := readMeta(filepath.Join(s.cfg.DataDir, "jobs", meta.ID))
	if err != nil || dmeta.State != StateDone {
		t.Fatalf("job state %q (err %v) after clean drain, want done", dmeta.State, err)
	}
}
