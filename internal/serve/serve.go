// Package serve is the ATPG-as-a-service layer: a crash-safe,
// multi-tenant HTTP/JSON daemon over the engine. Netlists are submitted
// over HTTP, validated behind the parsers' recover barriers and the
// ioguard admission caps, queued on a bounded priority queue (full
// queue = 429 + Retry-After, never unbounded buffering), and run
// through Engine.RunFaults with every final verdict journaled via
// internal/checkpoint — so a kill -9 of the daemon loses nothing:
// queued jobs re-enqueue on restart and running jobs resume
// byte-identically from their journal. cmd/atpgd is the thin binary
// around this package.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/blif"
	"atpgeasy/internal/ioguard"
	"atpgeasy/internal/obs"
)

// Config shapes one daemon instance. Zero values select production
// defaults.
type Config struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// DataDir is the daemon's durable root: every job lives in
	// DataDir/jobs/<id>/ (meta.json, netlist, ckpt, result.json).
	DataDir string
	// QueueCap bounds the admission queue across all priorities
	// (default 64). A full queue rejects submissions with 429.
	QueueCap int
	// RunningSlots is the number of jobs running concurrently
	// (default 1 — jobs parallelize internally via EngineWorkers).
	RunningSlots int
	// EngineWorkers is the engine worker count per job (0 = GOMAXPROCS).
	EngineWorkers int
	// MaxNetlistBytes / MaxNetlistLine cap submissions before parsing
	// (defaults 8 MiB / 1 MiB). Oversized input gets 413.
	MaxNetlistBytes int64
	MaxNetlistLine  int
	// ProgressEvery is the engine progress snapshot period feeding SSE
	// and the per-job gauge (default 100ms).
	ProgressEvery time.Duration
	// SSEHeartbeat is the comment-ping period keeping idle event streams
	// alive (default 15s); SSEWriteTimeout bounds each stream write so a
	// stalled reader is disconnected instead of pinning the connection
	// (default 10s).
	SSEHeartbeat    time.Duration
	SSEWriteTimeout time.Duration
	// RetryAfter is the hint returned with 429 rejections (default 5s).
	RetryAfter time.Duration
	// Logf receives operational log lines (default: log.Printf).
	Logf func(format string, args ...any)
	// ChaosHook, when set, runs at the start of every job attempt with
	// the job's name. The chaos/load harness injects panics here; the
	// per-job panic barrier must turn each one into exactly one failed
	// job. Never set in production.
	ChaosHook func(jobName string)
}

func (c *Config) fillDefaults() {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.RunningSlots <= 0 {
		c.RunningSlots = 1
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxNetlistBytes <= 0 {
		c.MaxNetlistBytes = 8 << 20
	}
	if c.MaxNetlistLine <= 0 {
		c.MaxNetlistLine = 1 << 20
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 100 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Server is one daemon instance: HTTP front end, bounded priority
// queue, runner pool, and the per-job durable state under DataDir.
type Server struct {
	cfg     Config
	ln      net.Listener
	httpSrv *http.Server
	reg     *obs.Registry
	met     *atpg.Metrics

	queue     *jobQueue
	jobCtx    context.Context
	jobCancel context.CancelFunc
	drainCh   chan struct{}
	drainOnce sync.Once
	draining  atomic.Bool
	wg        sync.WaitGroup // runner goroutines

	mu   sync.Mutex
	jobs map[string]*job
	seq  int64

	jobsSubmitted *obs.Counter
	jobsRejected  *obs.LabeledCounter
	jobsCompleted *obs.LabeledCounter
	queueDepth    *obs.Gauge
	jobsRunning   *obs.Gauge
	jobProgress   *obs.LabeledGauge

	// testHookRun runs at the start of every job attempt — the chaos
	// harness injects panics and stalls here.
	testHookRun func(*job)
	// testHookJournal, when set, wraps every job attempt's journal; the
	// drain test holds a job mid-run in it.
	testHookJournal func(atpg.JournalSink) atpg.JournalSink
}

// Start builds a Server from cfg, replays the durable job state under
// DataDir (queued and interrupted-running jobs re-enqueue, in
// submission order), binds the listener and begins serving. The caller
// owns shutdown via Shutdown (graceful) or Close (hard).
func Start(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		met:     atpg.NewMetrics(reg),
		queue:   newJobQueue(cfg.QueueCap),
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*job),

		jobsSubmitted: reg.Counter("atpgd_jobs_submitted_total", "jobs admitted to the queue"),
		jobsRejected:  reg.LabeledCounter("atpgd_jobs_rejected_total", "submissions rejected before admission", "reason"),
		jobsCompleted: reg.LabeledCounter("atpgd_jobs_completed_total", "jobs reaching a terminal state", "state"),
		queueDepth:    reg.Gauge("atpgd_queue_depth", "jobs waiting in the admission queue"),
		jobsRunning:   reg.Gauge("atpgd_jobs_running", "jobs currently executing"),
		jobProgress:   reg.LabeledGauge("atpgd_job_coverage_permille", "running fault coverage of each running job, in permille", "job"),
	}
	s.jobCtx, s.jobCancel = context.WithCancel(context.Background())
	if cfg.ChaosHook != nil {
		s.testHookRun = func(j *job) { cfg.ChaosHook(j.meta.Name) }
	}
	if err := s.replayDataDir(); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.buildMux(), ReadHeaderTimeout: 10 * time.Second}
	for i := 0; i < cfg.RunningSlots; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return s, nil
}

// Addr is the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// replayDataDir restores the durable job state after a restart: every
// job directory is loaded; queued jobs and jobs that were running when
// the process died re-enter the queue (running ones will resume from
// their checkpoint journal), in original submission order. Terminal
// jobs are kept for listing. This is the "kill -9 loses nothing" half
// of the crash-safety contract.
func (s *Server) replayDataDir() error {
	root := filepath.Join(s.cfg.DataDir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	var requeue []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		meta, err := readMeta(dir)
		if err != nil {
			// A directory without a readable meta.json is a submission that
			// crashed before its first persist — nothing to recover.
			s.logf("serve: skipping job dir %s: %v", dir, err)
			continue
		}
		j := newJob(dir, meta)
		if terminal(meta.State) {
			close(j.done)
		}
		s.jobs[meta.ID] = j
		if meta.State == StateQueued || meta.State == StateRunning {
			if meta.State == StateRunning {
				// Truthful state until a runner picks it back up; the ckpt
				// journal on disk is what makes the re-run a resume.
				if err := j.setState(StateQueued, ""); err != nil {
					return err
				}
			}
			requeue = append(requeue, j)
		}
		if n := seqOf(meta.ID); n > s.seq {
			s.seq = n
		}
	}
	sort.Slice(requeue, func(a, b int) bool {
		if !requeue[a].meta.SubmittedAt.Equal(requeue[b].meta.SubmittedAt) {
			return requeue[a].meta.SubmittedAt.Before(requeue[b].meta.SubmittedAt)
		}
		return requeue[a].meta.ID < requeue[b].meta.ID
	})
	for _, j := range requeue {
		if err := s.queue.push(j); err != nil {
			// More persisted work than queue capacity: the overflow stays
			// queued on disk for the next restart rather than being lost.
			s.logf("serve: job %s stays on disk: %v", j.meta.ID, err)
		}
	}
	s.queueDepth.Set(int64(s.queue.depth()))
	return nil
}

// seqOf extracts the numeric prefix of a job ID ("17-c0ffee" → 17).
func seqOf(id string) int64 {
	var n int64
	for i := 0; i < len(id) && id[i] >= '0' && id[i] <= '9'; i++ {
		n = n*10 + int64(id[i]-'0')
	}
	return n
}

// runner is one job-execution loop: pop, run, repeat — until the queue
// closes (drain). runJob's panic barrier means a poisoned job never
// takes the runner down with it.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		j, err := s.queue.pop()
		if err != nil {
			return
		}
		s.queueDepth.Set(int64(s.queue.depth()))
		s.jobsRunning.Add(1)
		s.runJob(s.jobCtx, j)
		s.jobsRunning.Add(-1)
	}
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/vectors", s.handleVectors)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorDoc struct {
	Error string `json:"error"`
}

// handleSubmit is the admission path: reject early (draining, body too
// large, malformed netlist, bad parameters), persist the job durably,
// then admit it to the bounded queue — a full queue rolls the persisted
// directory back and answers 429 + Retry-After.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.jobsRejected.With("draining").Inc()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "bench"
	}
	if format != "bench" && format != "blif" {
		s.jobsRejected.With("bad_request").Inc()
		writeJSON(w, http.StatusBadRequest, errorDoc{fmt.Sprintf("unknown format %q (want bench or blif)", format)})
		return
	}
	prio, err := ParsePriority(q.Get("priority"))
	if err != nil {
		s.jobsRejected.With("bad_request").Inc()
		writeJSON(w, http.StatusBadRequest, errorDoc{err.Error()})
		return
	}
	var budget, deadline time.Duration
	if v := q.Get("budget"); v != "" {
		if budget, err = time.ParseDuration(v); err != nil || budget < 0 {
			s.jobsRejected.With("bad_request").Inc()
			writeJSON(w, http.StatusBadRequest, errorDoc{fmt.Sprintf("bad budget %q", v)})
			return
		}
	}
	if v := q.Get("deadline"); v != "" {
		if deadline, err = time.ParseDuration(v); err != nil || deadline < 0 {
			s.jobsRejected.With("bad_request").Inc()
			writeJSON(w, http.StatusBadRequest, errorDoc{fmt.Sprintf("bad deadline %q", v)})
			return
		}
	}
	name := q.Get("name")
	if name == "" {
		name = "job"
	}

	// Read the netlist under the byte cap, then validate it with the
	// capped parser before anything is persisted or queued: a malformed
	// or oversized submission must cost the server one bounded parse,
	// nothing more.
	body, err := readBody(r, s.cfg.MaxNetlistBytes)
	if err != nil {
		s.jobsRejected.With("too_large").Inc()
		writeJSON(w, http.StatusRequestEntityTooLarge, errorDoc{err.Error()})
		return
	}
	if err := s.validateNetlist(body, format, name); err != nil {
		if errors.Is(err, ioguard.ErrTooLarge) || errors.Is(err, ioguard.ErrLineTooLong) {
			s.jobsRejected.With("too_large").Inc()
			writeJSON(w, http.StatusRequestEntityTooLarge, errorDoc{err.Error()})
			return
		}
		s.jobsRejected.With("parse").Inc()
		writeJSON(w, http.StatusBadRequest, errorDoc{err.Error()})
		return
	}

	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("%d-%x", s.seq, time.Now().UnixNano()&0xffffff)
	s.mu.Unlock()
	dir := filepath.Join(s.cfg.DataDir, "jobs", id)
	meta := JobMeta{
		ID: id, Name: name, Format: format, Priority: prio,
		State:       StateQueued,
		BudgetNS:    budget.Nanoseconds(),
		DeadlineNS:  deadline.Nanoseconds(),
		SubmittedAt: time.Now().UTC(),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorDoc{err.Error()})
		return
	}
	j := newJob(dir, meta)
	if err := os.WriteFile(j.netlistPath(), body, 0o644); err == nil {
		err = writeMeta(dir, meta)
	}
	if err != nil {
		os.RemoveAll(dir)
		writeJSON(w, http.StatusInternalServerError, errorDoc{err.Error()})
		return
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	if err := s.queue.push(j); err != nil {
		// Admission control: undo the persist so the rejected job does not
		// haunt the next restart, and tell the client when to retry.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		os.RemoveAll(dir)
		if errors.Is(err, ErrQueueFull) {
			s.jobsRejected.With("queue_full").Inc()
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Seconds())))
			writeJSON(w, http.StatusTooManyRequests, errorDoc{"job queue full"})
			return
		}
		s.jobsRejected.With("draining").Inc()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.queueDepth.Set(int64(s.queue.depth()))
	s.jobsSubmitted.Inc()
	writeJSON(w, http.StatusCreated, meta)
}

// readBody drains the request body under the byte cap, mapping the
// over-cap failure to ioguard.ErrTooLarge.
func readBody(r *http.Request, max int64) ([]byte, error) {
	data, err := io.ReadAll(ioguard.CapBytes(r.Body, max))
	if errors.Is(err, ioguard.ErrTooLarge) {
		return nil, fmt.Errorf("netlist body over the %d-byte cap: %w", max, ioguard.ErrTooLarge)
	}
	return data, err
}

// validateNetlist runs the capped parser over the submitted bytes —
// the recover barriers plus admission caps mean a hostile submission is
// one bounded, failed parse, never a crashed or bloated daemon.
func (s *Server) validateNetlist(body []byte, format, name string) error {
	var err error
	switch format {
	case "blif":
		_, err = blif.ReadCapped(bytes.NewReader(body), s.cfg.MaxNetlistBytes, s.cfg.MaxNetlistLine)
	default:
		_, err = bench.ReadCapped(bytes.NewReader(body), name, s.cfg.MaxNetlistBytes, s.cfg.MaxNetlistLine)
	}
	return err
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	metas := make([]JobMeta, 0, len(s.jobs))
	for _, j := range s.jobs {
		m, _, _ := j.snapshot()
		metas = append(metas, m)
	}
	s.mu.Unlock()
	sort.Slice(metas, func(a, b int) bool {
		if !metas[a].SubmittedAt.Equal(metas[b].SubmittedAt) {
			return metas[a].SubmittedAt.Before(metas[b].SubmittedAt)
		}
		return metas[a].ID < metas[b].ID
	})
	writeJSON(w, http.StatusOK, metas)
}

// jobDoc is the GET /jobs/{id} response: the meta, the latest progress
// (while running) and the result (once done).
type jobDoc struct {
	JobMeta
	Progress *progressEvent `json:"progress,omitempty"`
	Result   *JobResult     `json:"result,omitempty"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{"no such job"})
		return
	}
	meta, p, hasP := j.snapshot()
	doc := jobDoc{JobMeta: meta}
	if hasP {
		ev := buildEvent(meta, p, true)
		doc.Progress = &ev
	}
	if meta.State == StateDone {
		if res, err := j.loadResult(); err == nil {
			doc.Result = res
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{"no such job"})
		return
	}
	s.serveEvents(w, r, j)
}

func (s *Server) handleVectors(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{"no such job"})
		return
	}
	meta, _, _ := j.snapshot()
	if meta.State != StateDone {
		writeJSON(w, http.StatusConflict, errorDoc{fmt.Sprintf("job is %s, vectors exist once done", meta.State)})
		return
	}
	res, err := j.loadResult()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorDoc{err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, v := range res.Vectors {
		fmt.Fprintln(w, v)
	}
}

// handleDelete cancels a queued or running job, or removes a terminal
// job's durable state.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobByID(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{"no such job"})
		return
	}
	meta, _, _ := j.snapshot()
	switch {
	case meta.State == StateQueued && s.queue.remove(id):
		s.queueDepth.Set(int64(s.queue.depth()))
		s.jobsCompleted.With(StateCanceled).Inc()
		_ = j.setState(StateCanceled, "")
		meta, _, _ = j.snapshot()
		writeJSON(w, http.StatusOK, meta)
	case !terminal(meta.State):
		// Running (or queued-but-just-claimed): flag the user cancel and
		// fire the context; the runner persists the terminal state.
		j.mu.Lock()
		j.userCancel = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		meta, _, _ = j.snapshot()
		writeJSON(w, http.StatusAccepted, meta)
	default:
		// Terminal: remove the durable state entirely.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		if err := os.RemoveAll(j.dir); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorDoc{err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// Shutdown drains the daemon gracefully: admissions stop immediately
// (submissions get 503, /readyz flips), queued jobs stay durably queued
// for the next start, and running jobs get until ctx's deadline to
// finish — past it they are cancelled, which checkpoints them (journal
// synced, state persisted as running) for a byte-identical resume.
// In-flight SSE streams and scrapes complete before the HTTP server
// closes. Returns nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.close()

	runnersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(runnersDone)
	}()
	var drainErr error
	select {
	case <-runnersDone:
	case <-ctx.Done():
		// Out of patience: checkpoint the running jobs via cancellation.
		// Engine cancellation is prompt (next limit check), so this wait
		// is short and bounded by the solvers' cancel granularity.
		drainErr = ctx.Err()
		s.jobCancel()
		<-runnersDone
	}
	s.drainOnce.Do(func() { close(s.drainCh) })
	httpCtx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		httpCtx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	if err := s.httpSrv.Shutdown(httpCtx); err != nil {
		s.httpSrv.Close()
		if drainErr == nil {
			drainErr = err
		}
	}
	s.jobCancel()
	return drainErr
}

// Close is the hard stop: running jobs are cancelled (their journals
// are flushed per record, so nothing decided is lost), connections are
// dropped, and the listener closes. The in-process stand-in for
// kill -9 in the chaos tests — except kill -9 does not even get this.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.queue.close()
	s.jobCancel()
	s.drainOnce.Do(func() { close(s.drainCh) })
	err := s.httpSrv.Close()
	s.wg.Wait()
	return err
}
