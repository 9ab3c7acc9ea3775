package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

const c17Bench = `# ISCAS85 c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

const mux2BLIF = `.model mux2
.inputs sel a b
.outputs y
.names sel a t0
01 1
.names sel b t1
11 1
.names t0 t1 y
1- 1
-1 1
.end
`

// startTestServer boots a daemon on a loopback port with fast progress
// and heartbeat periods. mut tweaks the config before start.
func startTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Addr:          "127.0.0.1:0",
		DataDir:       t.TempDir(),
		EngineWorkers: 2,
		ProgressEvery: 2 * time.Millisecond,
		SSEHeartbeat:  50 * time.Millisecond,
		Logf:          func(string, ...any) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submitJob(t *testing.T, s *Server, params, body string) (JobMeta, *http.Response) {
	t.Helper()
	resp, err := http.Post("http://"+s.Addr()+"/jobs"+params, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var meta JobMeta
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return meta, resp
}

func getJob(t *testing.T, s *Server, id string) jobDoc {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var doc jobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode job doc: %v", err)
	}
	return doc
}

// waitJobState polls until the job reaches want (or any terminal state,
// reported as a failure if it is not want).
func waitJobState(t *testing.T, s *Server, id, want string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		doc := getJob(t, s, id)
		if doc.State == want {
			return doc
		}
		if terminal(doc.State) {
			t.Fatalf("job %s reached %q (error %q), want %q", id, doc.State, doc.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %q in time", id, want)
	return jobDoc{}
}

func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

func TestSubmitAndComplete(t *testing.T) {
	s := startTestServer(t, nil)

	meta, resp := submitJob(t, s, "?name=c17", c17Bench)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d, want 201", resp.StatusCode)
	}
	if meta.State != StateQueued || meta.ID == "" {
		t.Fatalf("submit meta %+v, want queued with an ID", meta)
	}
	doc := waitJobState(t, s, meta.ID, StateDone)
	if doc.Result == nil {
		t.Fatal("done job has no result")
	}
	if doc.Result.Coverage != 1.0 {
		t.Fatalf("c17 coverage %v, want 1.0", doc.Result.Coverage)
	}
	if len(doc.Result.Vectors) == 0 {
		t.Fatal("done job has no vectors")
	}
	for _, v := range doc.Result.Vectors {
		if len(v) != 5 {
			t.Fatalf("vector %q has %d bits, c17 has 5 inputs", v, len(v))
		}
	}

	// The vectors endpoint serves the same set as plain text.
	vresp, err := http.Get("http://" + s.Addr() + "/jobs/" + meta.ID + "/vectors")
	if err != nil {
		t.Fatalf("GET vectors: %v", err)
	}
	body, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	lines := strings.Fields(string(body))
	if len(lines) != len(doc.Result.Vectors) {
		t.Fatalf("vectors endpoint has %d lines, result has %d", len(lines), len(doc.Result.Vectors))
	}

	// A BLIF submission works through the same pipeline.
	bmeta, bresp := submitJob(t, s, "?name=mux2&format=blif", mux2BLIF)
	if bresp.StatusCode != http.StatusCreated {
		t.Fatalf("blif submit status %d", bresp.StatusCode)
	}
	waitJobState(t, s, bmeta.ID, StateDone)

	metrics := scrapeMetrics(t, s)
	for _, want := range []string{
		`atpgd_jobs_completed_total{state="done"} 2`,
		"atpgd_jobs_submitted_total 2",
		"atpg_faults_done_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		r, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, r.StatusCode, want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s := startTestServer(t, func(c *Config) {
		c.MaxNetlistBytes = 512
		c.MaxNetlistLine = 128
	})
	cases := []struct {
		name   string
		params string
		body   string
		status int
	}{
		{"bad format", "?format=verilog", c17Bench, http.StatusBadRequest},
		{"bad priority", "?priority=urgent", c17Bench, http.StatusBadRequest},
		{"bad budget", "?budget=fast", c17Bench, http.StatusBadRequest},
		{"bad deadline", "?deadline=-3s", c17Bench, http.StatusBadRequest},
		{"malformed netlist", "", "10 = FROB(1, 2)\n", http.StatusBadRequest},
		{"blif as bench", "", mux2BLIF, http.StatusBadRequest},
		{"over byte cap", "", c17Bench + strings.Repeat("# pad\n", 200), http.StatusRequestEntityTooLarge},
		{"over line cap", "", c17Bench + "# " + strings.Repeat("x", 300) + "\n", http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		_, resp := submitJob(t, s, tc.params, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	// Nothing was admitted, and rejected submissions left no job dirs.
	if n := s.queue.depth(); n != 0 {
		t.Errorf("queue depth %d after rejected submissions", n)
	}
	entries, _ := os.ReadDir(filepath.Join(s.cfg.DataDir, "jobs"))
	if len(entries) != 0 {
		t.Errorf("%d job dirs persisted for rejected submissions", len(entries))
	}
}

// gateHook blocks the first job it sees until the gate closes (escaping
// via the server's drain context so shutdown tests cannot deadlock) and
// records every job's name in arrival order.
type gateHook struct {
	mu    sync.Mutex
	gate  chan struct{}
	first bool
	order []string
}

func newGateHook() *gateHook {
	return &gateHook{gate: make(chan struct{}), first: true}
}

func (g *gateHook) install(s *Server) {
	s.testHookRun = func(j *job) {
		g.mu.Lock()
		block := g.first
		g.first = false
		g.order = append(g.order, j.meta.Name)
		g.mu.Unlock()
		if block {
			select {
			case <-g.gate:
			case <-s.jobCtx.Done():
			}
		}
	}
}

func (g *gateHook) names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

func TestAdmissionControl(t *testing.T) {
	s := startTestServer(t, func(c *Config) {
		c.QueueCap = 1
		c.RunningSlots = 1
		c.RetryAfter = 7 * time.Second
	})
	hook := newGateHook()
	hook.install(s)

	// First job occupies the single runner (blocked in the hook).
	blocker, _ := submitJob(t, s, "?name=blocker", c17Bench)
	waitJobState(t, s, blocker.ID, StateRunning)

	// Second fills the one queue slot; third must be shed with 429.
	queued, resp := submitJob(t, s, "?name=queued", c17Bench)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}
	shed, resp := submitJob(t, s, "?name=shed", c17Bench)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After %q, want %q", got, "7")
	}
	if shed.ID != "" {
		t.Errorf("shed submission got an ID: %+v", shed)
	}
	// The shed job left nothing behind on disk.
	entries, _ := os.ReadDir(filepath.Join(s.cfg.DataDir, "jobs"))
	if len(entries) != 2 {
		t.Errorf("%d job dirs on disk, want 2", len(entries))
	}

	close(hook.gate)
	waitJobState(t, s, blocker.ID, StateDone)
	waitJobState(t, s, queued.ID, StateDone)

	metrics := scrapeMetrics(t, s)
	if !strings.Contains(metrics, `atpgd_jobs_rejected_total{reason="queue_full"} 1`) {
		t.Error("metrics missing the queue_full rejection")
	}
}

func TestPriorityOrdering(t *testing.T) {
	s := startTestServer(t, func(c *Config) { c.RunningSlots = 1 })
	hook := newGateHook()
	hook.install(s)

	blocker, _ := submitJob(t, s, "?name=blocker", c17Bench)
	waitJobState(t, s, blocker.ID, StateRunning)

	// Submitted worst-first while the runner is pinned; execution must
	// come back priority-then-FIFO.
	low, _ := submitJob(t, s, "?name=low&priority=low", c17Bench)
	norm1, _ := submitJob(t, s, "?name=norm1", c17Bench)
	high, _ := submitJob(t, s, "?name=high&priority=high", c17Bench)
	norm2, _ := submitJob(t, s, "?name=norm2&priority=normal", c17Bench)

	close(hook.gate)
	for _, id := range []string{blocker.ID, low.ID, norm1.ID, high.ID, norm2.ID} {
		waitJobState(t, s, id, StateDone)
	}
	want := []string{"blocker", "high", "norm1", "norm2", "low"}
	got := hook.names()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}

func TestSSEStream(t *testing.T) {
	s := startTestServer(t, nil)
	meta, _ := submitJob(t, s, "?name=c17", c17Bench)

	resp, err := http.Get("http://" + s.Addr() + "/jobs/" + meta.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var events []string
	var last progressEvent
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events = append(events, event)
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
		}
		if event == "end" && strings.HasPrefix(line, "data: ") {
			goto ended
		}
	}
	t.Fatalf("stream ended without an end event (events: %v, err %v)", events, sc.Err())
ended:
	if events[0] != "progress" {
		t.Fatalf("first event %q, want progress", events[0])
	}
	if last.State != StateDone {
		t.Fatalf("final event state %q, want done", last.State)
	}
	if last.Coverage != 1.0 {
		t.Fatalf("final event coverage %v, want 1.0", last.Coverage)
	}
}

func TestCancelQueuedRunningAndDeleteTerminal(t *testing.T) {
	s := startTestServer(t, func(c *Config) { c.RunningSlots = 1 })
	hook := newGateHook()
	hook.install(s)

	running, _ := submitJob(t, s, "?name=running", c17Bench)
	waitJobState(t, s, running.ID, StateRunning)
	queued, _ := submitJob(t, s, "?name=queued", c17Bench)

	del := func(id string) *http.Response {
		req, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Cancel while queued: immediate terminal state, never runs.
	if resp := del(queued.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued: status %d", resp.StatusCode)
	}
	if doc := getJob(t, s, queued.ID); doc.State != StateCanceled {
		t.Fatalf("queued job state %q after cancel", doc.State)
	}

	// Cancel while running: accepted, terminal once the runner notices.
	if resp := del(running.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running: status %d", resp.StatusCode)
	}
	close(hook.gate)
	waitJobState(t, s, running.ID, StateCanceled)

	// Delete terminal: durable state removed, job gone.
	if resp := del(running.ID); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE terminal: status %d", resp.StatusCode)
	}
	resp, _ := http.Get("http://" + s.Addr() + "/jobs/" + running.ID)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET deleted job: status %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(s.cfg.DataDir, "jobs", running.ID)); !os.IsNotExist(err) {
		t.Fatalf("deleted job dir still on disk (err %v)", err)
	}
}

func TestRestartRequeuesPersistedJobs(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := Start(Config{
		Addr: "127.0.0.1:0", DataDir: dataDir, RunningSlots: 1,
		EngineWorkers: 2, ProgressEvery: 2 * time.Millisecond,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	hook := newGateHook()
	hook.install(s1)

	running, _ := submitJob(t, s1, "?name=interrupted", c17Bench)
	waitJobState(t, s1, running.ID, StateRunning)
	queued, _ := submitJob(t, s1, "?name=waiting", c17Bench)

	// Hard stop with one job running and one queued — the moral
	// equivalent of kill -9 for everything persisted.
	s1.Close()

	s2, err := Start(Config{
		Addr: "127.0.0.1:0", DataDir: dataDir, RunningSlots: 1,
		EngineWorkers: 2, ProgressEvery: 2 * time.Millisecond,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	waitJobState(t, s2, running.ID, StateDone)
	waitJobState(t, s2, queued.ID, StateDone)

	// Both jobs are listed with their original identity.
	resp, err := http.Get("http://" + s2.Addr() + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	var metas []JobMeta
	if err := json.NewDecoder(resp.Body).Decode(&metas); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(metas) != 2 {
		t.Fatalf("listed %d jobs after restart, want 2", len(metas))
	}
}

// TestFinishedJobsServedFromDisk: the daemon keeps no per-job copy of
// what it has persisted. Once three jobs finish, /metrics holds no
// per-job coverage series, and each job's document and vectors are still
// served from its result.json — also by a daemon restarted on the same
// data dir.
func TestFinishedJobsServedFromDisk(t *testing.T) {
	cfg := Config{
		Addr: "127.0.0.1:0", DataDir: t.TempDir(),
		EngineWorkers: 2, ProgressEvery: 2 * time.Millisecond,
		Logf: func(string, ...any) {},
	}
	s1, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	submissions := []struct{ params, body string }{
		{"?name=c17", c17Bench},
		{"?name=mux2&format=blif", mux2BLIF},
		{"?name=rand", genBenchNetlist(t, 8, 60, 5)},
	}
	want := map[string][]string{}
	for _, sub := range submissions {
		meta, resp := submitJob(t, s1, sub.params, sub.body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: status %d", sub.params, resp.StatusCode)
		}
		doc := waitJobState(t, s1, meta.ID, StateDone)
		if doc.Result == nil || len(doc.Result.Vectors) == 0 {
			t.Fatalf("job %s done without vectors: %+v", meta.ID, doc.Result)
		}
		want[meta.ID] = doc.Result.Vectors
	}
	check := func(s *Server) {
		t.Helper()
		if metrics := scrapeMetrics(t, s); strings.Contains(metrics, "atpgd_job_coverage_permille{") {
			t.Errorf("finished jobs left per-job series on /metrics:\n%s", metrics)
		}
		for id, vecs := range want {
			doc := getJob(t, s, id)
			if doc.Result == nil || !reflect.DeepEqual(doc.Result.Vectors, vecs) {
				t.Errorf("job %s: document result %+v, want vectors %v", id, doc.Result, vecs)
			}
			resp, err := http.Get("http://" + s.Addr() + "/jobs/" + id + "/vectors")
			if err != nil {
				t.Fatalf("GET vectors: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if got := strings.Fields(string(body)); resp.StatusCode != http.StatusOK || !reflect.DeepEqual(got, vecs) {
				t.Errorf("job %s: /vectors status %d, %v; want %v", id, resp.StatusCode, got, vecs)
			}
		}
	}
	check(s1)
	s1.Close()

	s2, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	check(s2)
}
