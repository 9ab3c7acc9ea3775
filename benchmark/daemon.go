package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atpgeasy"
	"atpgeasy/internal/atpg"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/serve"
)

const (
	// dmClients is the closed loop's client count: each client submits
	// its next job only after the previous one's vectors arrive.
	dmClients = 2
	// daemonPasses is how often an untraced daemon-mix run sends its job
	// list, each time through a fresh daemon on a fresh data directory.
	// The data directories are removed only when the run ends: a deletion
	// slows the disk for the passes that follow it.
	daemonPasses = 7
	// restartRepeats is how often the daemon is restarted on the filled
	// data directory for setup_s.
	restartRepeats = 9
	// daemonDeadline bounds a whole daemon-mix run, so a wedged daemon
	// fails the run instead of hanging it.
	daemonDeadline = 150 * time.Second
)

// jobDoc is the GET /jobs/{id} response.
type jobDoc struct {
	serve.JobMeta
	Result *serve.JobResult `json:"result,omitempty"`
}

// daemonJob is one submission as its client saw it.
type daemonJob struct {
	nl      netlist
	id      string
	err     error
	refused bool // admission answered with an error status
	// Client-side timestamps: POST sent, POST answered, SSE end event
	// received, result and vectors received.
	submit, admitted, ended, fetched time.Time
	doc                              jobDoc
	vectors                          []string
}

// daemonPass is the whole job list through one daemon instance.
type daemonPass struct {
	jobs    []daemonJob
	wall    time.Duration
	cpu     time.Duration
	heapMB  float64
	allocMB float64
	gc      uint32
	scrape  map[string]float64 // unlabeled /metrics samples at the end
	cfg     serve.Config
	srv     *serve.Server
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * dmClients}}
}

// runDaemonPass starts atpgd in process with its shipped configuration on
// a fresh data directory and drives the job list through it with
// dmClients closed-loop HTTP clients. The caller shuts the server down.
func runDaemonPass(ctx context.Context, dataDir string, nls []netlist, tr *tracer) (*daemonPass, error) {
	cfg := serve.Config{Addr: "127.0.0.1:0", DataDir: dataDir}
	srv, err := serve.Start(cfg)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	p := &daemonPass{jobs: make([]daemonJob, len(nls)), cfg: cfg, srv: srv}
	base := "http://" + srv.Addr()
	client := newHTTPClient()
	defer client.CloseIdleConnections()

	ms0 := readMemStats()
	u0, t0 := readUsage(), time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < dmClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(nls) {
					return
				}
				p.jobs[i] = runJob(ctx, client, base, i, nls[i], tr)
			}
		}()
	}
	wg.Wait()
	u1 := readUsage()
	ms1 := readMemStats()
	p.cpu = u1.cpu - u0.cpu
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
	p.gc = ms1.NumGC - ms0.NumGC
	last := t0
	for _, j := range p.jobs {
		if j.fetched.After(last) {
			last = j.fetched
		}
	}
	p.wall = last.Sub(t0)
	p.heapMB = liveHeapMB()
	if p.scrape, err = scrapeMetrics(ctx, client, base); err != nil {
		return p, err
	}
	return p, nil
}

// runJob submits one netlist, waits for the SSE end event, then fetches
// the job document and the vector set.
func runJob(ctx context.Context, client *http.Client, base string, i int, nl netlist, tr *tracer) daemonJob {
	j := daemonJob{nl: nl}
	group := jobGroup(i, nl)
	root := tr.begin(group, "job", 0)
	defer tr.end(root)

	j.submit = time.Now()
	sp := tr.begin(group, "admit", root)
	var meta serve.JobMeta
	err := doJSON(ctx, client, http.MethodPost, base+"/jobs?name="+url.QueryEscape(nl.Name), nl.Bench, &meta)
	tr.end(sp)
	j.admitted = time.Now()
	if err != nil {
		var se *statusError
		j.refused = errors.As(err, &se)
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	j.id = meta.ID

	sp = tr.begin(group, "events", root)
	err = waitForEnd(ctx, client, base+"/jobs/"+j.id+"/events")
	j.ended = time.Now()
	tr.end(sp)
	if err != nil {
		j.err = fmt.Errorf("events: %w", err)
		return j
	}

	fetch := tr.begin(group, "fetch", root)
	err = doJSON(ctx, client, http.MethodGet, base+"/jobs/"+j.id, nil, &j.doc)
	if err == nil {
		j.vectors, err = getLines(ctx, client, base+"/jobs/"+j.id+"/vectors")
	}
	j.fetched = time.Now()
	tr.end(fetch)
	if err != nil {
		j.err = fmt.Errorf("fetch: %w", err)
		return j
	}
	// The daemon's own lifecycle stamps become the events span's children.
	m := j.doc.JobMeta
	tr.record(group, "queue", sp, m.SubmittedAt, m.StartedAt)
	tr.record(group, "engine", sp, m.StartedAt, m.FinishedAt)
	return j
}

// jobGroup is the span group of the i-th job of the list.
func jobGroup(i int, nl netlist) string { return fmt.Sprintf("job%04d-%s", i, nl.Name) }

// statusError is a response with a status other than 2xx.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// send issues one request. A response with a non-2xx status is closed and
// returned as a *statusError; otherwise the caller closes the body.
func send(ctx context.Context, client *http.Client, method, u string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10)) // best effort: the text only decorates the error
		resp.Body.Close()
		return nil, &statusError{resp.StatusCode, strings.TrimSpace(string(data))}
	}
	return resp, nil
}

// doJSON sends one request and decodes its JSON response into out.
func doJSON(ctx context.Context, client *http.Client, method, u string, body []byte, out any) error {
	resp, err := send(ctx, client, method, u, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// waitForEnd reads a job's event stream until its "end" event, and
// requires the job to have finished done.
func waitForEnd(ctx context.Context, client *http.Client, u string) error {
	resp, err := send(ctx, client, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	isEnd := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			isEnd = true
		case isEnd && strings.HasPrefix(line, "data: "):
			var ev struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return err
			}
			if ev.State != serve.StateDone {
				return fmt.Errorf("job ended %s: %s", ev.State, ev.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream closed before the end event")
}

// getLines fetches a plain-text response line by line.
func getLines(ctx context.Context, client *http.Client, u string) ([]string, error) {
	resp, err := send(ctx, client, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// scrapeMetrics reads the unlabeled samples of /metrics.
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	lines, err := getLines(ctx, client, base+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, line := range lines {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// restartTimes restarts the daemon on a filled data directory n times and
// returns each restart's time from serve.Start to /readyz answering 200.
func restartTimes(ctx context.Context, cfg serve.Config, n int) ([]float64, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var xs []float64
	for k := 0; k < n; k++ {
		t0 := time.Now()
		srv, err := serve.Start(cfg)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		for {
			resp, err := send(ctx, client, http.MethodGet, "http://"+srv.Addr()+"/readyz", nil)
			if err == nil {
				resp.Body.Close()
				break
			}
			if ctx.Err() != nil {
				srv.Close()
				return nil, fmt.Errorf("restart: /readyz never answered 200: %v", err)
			}
		}
		xs = append(xs, time.Since(t0).Seconds())
		if err := srv.Shutdown(ctx); err != nil {
			return nil, fmt.Errorf("restart: shutdown: %w", err)
		}
	}
	return xs, nil
}

// runDaemonWorkload runs daemon-mix.
func runDaemonWorkload(cfg runConfig) (*report, error) {
	nls, err := makeInputs(cfg.Workload, cfg.Seed, cfg.Seconds)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), daemonDeadline)
	defer cancel()
	rep := &report{Attempted: len(nls)}
	pass := func(name string, tr *tracer) (*daemonPass, error) {
		p, err := runDaemonPass(ctx, filepath.Join(cfg.WorkDir, name), nls, tr)
		if p != nil {
			if serr := p.srv.Shutdown(ctx); serr != nil && err == nil {
				err = fmt.Errorf("shutdown: %w", serr)
			}
			p.srv = nil
		}
		return p, err
	}

	first, err := pass("pass1", nil)
	if err != nil {
		return nil, err
	}
	out := checkDaemonPass(&report{}, first, nil, false)
	if !cfg.Trace {
		passes := []*daemonPass{first}
		for k := 2; k <= daemonPasses; k++ {
			p, err := pass(fmt.Sprintf("pass%d", k), nil)
			if err != nil {
				return nil, err
			}
			if checkDaemonPass(&report{}, p, nil, false).digest != out.digest {
				rep.fail("pass %d returned different outputs than pass 1", k)
			}
			passes = append(passes, p)
		}
		peak := readUsage().maxRSSB
		xs, err := restartTimes(ctx, first.cfg, restartRepeats)
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", median(xs), "s")
		rep.sample("setup_s", "median of %d restarts on %d job directories", len(xs), len(nls))
		daemonEndToEnd(rep, passes, peak)
	} else {
		tr := newTracer()
		pt, err := pass("traced", tr)
		if err != nil {
			return nil, err
		}
		traced := checkDaemonPass(&report{}, pt, tr, false)
		if traced.digest != out.digest {
			rep.fail("traced pass returned different outputs than the untraced pass")
		}
		totals, err := tr.finish(cfg.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		if err := daemonPerLayer(rep, pt, traced, totals); err != nil {
			return nil, err
		}
		rep.set("trace.overhead_s", (pt.wall - first.wall).Seconds(), "s")
		rep.sample("trace.spans", "%d", len(tr.spans))
	}
	// The output check runs once every timed pass is over, so its own
	// allocation stays out of peak_rss_mb.
	checked := checkDaemonPass(rep, first, nil, true)
	checked.counts.report(rep, len(nls)-checked.failed, len(nls))
	rep.Failed = checked.failed
	rep.Correct = checked.failed == 0 && len(rep.Problems) == 0
	rep.Digest = checked.digest
	return rep, nil
}

// checkDaemonPass pools the outcome of every job of p and fingerprints
// it. Every job must have finished done with a vector listing equal to
// its result, and a netlist submitted more than once must return the
// same outputs each time. With verify, each job also goes through the
// output check against the verdicts in its checkpoint journal. The
// check's parse, decompose and collapse of each job's bytes are the
// tracer's probe spans.
func checkDaemonPass(rep *report, p *daemonPass, tr *tracer, verify bool) passOutcome {
	var out passOutcome
	dg := newDigest()
	seen := make(map[string]string) // netlist bytes → output fingerprint
	for i, j := range p.jobs {
		c, gates, vecs, err := checkDaemonJob(p.cfg.DataDir, jobGroup(i, j.nl), j, tr, verify)
		if err == nil {
			fp := newDigest()
			fp.add("", c, vecs)
			if prev, ok := seen[string(j.nl.Bench)]; ok && prev != fp.sum() {
				err = errors.New("a repeat submission of this netlist returned different outputs")
			}
			seen[string(j.nl.Bench)] = fp.sum()
		}
		if err != nil {
			out.failed++
			rep.fail("%s (%s): %v", j.nl.Name, j.id, err)
			continue
		}
		out.counts.add(c)
		out.gates += gates
		dg.add(j.nl.Name, c, vecs)
	}
	out.digest = dg.sum()
	return out
}

func checkDaemonJob(dataDir, group string, j daemonJob, tr *tracer, verify bool) (outcomeCounts, int, [][]bool, error) {
	if j.err != nil {
		return outcomeCounts{}, 0, nil, j.err
	}
	res := j.doc.Result
	if j.doc.State != serve.StateDone || res == nil {
		return outcomeCounts{}, 0, nil, fmt.Errorf("job is %s without a result", j.doc.State)
	}
	if len(j.vectors) != len(res.Vectors) {
		return outcomeCounts{}, 0, nil, fmt.Errorf("vector listing has %d vectors, the result %d", len(j.vectors), len(res.Vectors))
	}
	vecs := make([][]bool, len(j.vectors))
	for k, s := range j.vectors {
		if s != res.Vectors[k] {
			return outcomeCounts{}, 0, nil, fmt.Errorf("vector listing differs from the result at %d", k)
		}
		v, err := checkpoint.DecodeVector(s)
		if err != nil {
			return outcomeCounts{}, 0, nil, err
		}
		vecs[k] = v
	}
	counts := outcomeCounts{
		total: res.Faults, detected: res.Detected + res.DetectedByRPT, untestable: res.Untestable,
		aborted: res.Aborted + res.Errors, vectors: len(vecs),
	}
	if !verify && tr == nil {
		return counts, 0, vecs, nil
	}

	root := tr.begin(group, "probe", 0)
	sp := tr.begin(group, "parse", root)
	c, err := atpgeasy.ReadBench(bytes.NewReader(j.nl.Bench), j.nl.Name)
	tr.end(sp)
	if err == nil {
		sp = tr.begin(group, "decompose", root)
		c, err = atpgeasy.Decompose(c, 3)
		tr.end(sp)
	}
	if err != nil {
		tr.end(root)
		return outcomeCounts{}, 0, nil, err
	}
	sp = tr.begin(group, "collapse", root)
	faults := collapsedFaults(c)
	tr.end(sp)
	tr.end(root)
	if !verify {
		return counts, c.NumGates(), vecs, nil
	}

	st, err := checkpoint.Load(filepath.Join(dataDir, "jobs", j.id, "ckpt"))
	if err != nil {
		return outcomeCounts{}, 0, nil, fmt.Errorf("journal: %w", err)
	}
	cl := claim{Total: res.Faults, Detected: counts.detected, Vectors: vecs}
	for idx, v := range st.Faults {
		if v.Status != atpg.Untestable.String() {
			continue
		}
		if idx < 0 || idx >= len(faults) {
			return outcomeCounts{}, 0, nil, fmt.Errorf("journal names fault %d of %d", idx, len(faults))
		}
		cl.Untestable = append(cl.Untestable, faults[idx])
	}
	if len(cl.Untestable) != res.Untestable {
		return outcomeCounts{}, 0, nil, fmt.Errorf("result counts %d untestable faults, the journal %d", res.Untestable, len(cl.Untestable))
	}
	if err := checkClaim(c, faults, cl); err != nil {
		return outcomeCounts{}, 0, nil, err
	}
	return counts, c.NumGates(), vecs, nil
}

// daemonEndToEnd fills the end-to-end metrics. Each timing metric is
// its best value over the passes: on a shared host a pass often runs
// through a stretch of CPU steal or disk contention, and the least
// disturbed pass is the steadiest estimate of what the daemon itself
// costs.
func daemonEndToEnd(rep *report, passes []*daemonPass, peakRSS int64) {
	var wall, cpu, rate, p50, p95 []float64
	n := 0
	for _, p := range passes {
		var lat []float64
		for _, j := range p.jobs {
			if j.err == nil {
				lat = append(lat, j.fetched.Sub(j.submit).Seconds())
			}
		}
		n = len(lat)
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		r := 0.0 // every job failed
		if p.wall > 0 {
			r = float64(len(lat)) / p.wall.Seconds()
		}
		rate = append(rate, r)
		p50 = append(p50, median(lat))
		p95 = append(p95, percentile(lat, 0.95))
	}
	rep.set("wall_s", slices.Min(wall), "s")
	rep.set("cpu_s", slices.Min(cpu), "s")
	rep.set("peak_rss_mb", float64(peakRSS)/mib, "MB")
	rep.set("jobs_per_s", slices.Max(rate), "1/s")
	rep.set("job_p50_s", slices.Min(p50), "s")
	rep.set("job_p95_s", slices.Min(p95), "s")
	for _, name := range []string{"wall_s", "cpu_s", "jobs_per_s"} {
		rep.sample(name, "best of %d passes", len(passes))
	}
	rep.sample("passes", "wall_s %.3f, job_p50_s %.4f, job_p95_s %.4f", wall, p50, p95)
	rep.sample("job_p50_s", "best of %d passes, each over %d jobs", len(passes), n)
	rep.sample("job_p95_s", "best of %d passes, each over %d jobs with %d beyond", len(passes), n, beyond(n, 0.95))
}

// daemonPerLayer fills the per-layer metrics of a traced pass.
func daemonPerLayer(rep *report, p *daemonPass, out passOutcome, totals map[string]layerTotals) error {
	var admit, queue, run, notify, fetch []float64
	refused := 0
	for _, j := range p.jobs {
		if j.refused {
			refused++
		}
		if j.err != nil {
			continue
		}
		m := j.doc.JobMeta
		admit = append(admit, j.admitted.Sub(j.submit).Seconds())
		queue = append(queue, m.StartedAt.Sub(m.SubmittedAt).Seconds())
		run = append(run, m.FinishedAt.Sub(m.StartedAt).Seconds())
		notify = append(notify, j.ended.Sub(m.FinishedAt).Seconds())
		fetch = append(fetch, j.fetched.Sub(j.ended).Seconds())
	}
	spanLayers(rep, totals, out)
	// The engine runs inside the daemon, so its allocation and GC are
	// the process-wide deltas over the job window.
	rep.set("engine.alloc_mb", p.allocMB, "MB")
	rep.set("engine.gc_cycles", float64(p.gc), "count")
	s := p.scrape
	engineLayers(rep, engineCounters{
		rptS: s["atpg_phase_rpt_ns_total"] / 1e9, rptDetected: int(s["atpg_rpt_detected_total"]),
		buildS: s["atpg_phase_build_ns_total"] / 1e9, solveS: s["atpg_phase_solve_ns_total"] / 1e9,
		solveCalls: int(s["atpg_fault_solve_ns_count"]), conflicts: int64(s["atpg_solver_conflicts_total"]),
		propagations: int64(s["atpg_solver_propagations_total"]), learnedReused: int64(s["atpg_learned_reused_total"]),
		faultsimS: s["atpg_phase_faultsim_ns_total"] / 1e9, dropped: int(s["atpg_faults_dropped_total"]),
		wasted: int(s["atpg_solves_wasted_total"]),
	})
	rep.set("admit.p50_s", median(admit), "s")
	rep.set("admit.p95_s", percentile(admit, 0.95), "s")
	rep.set("admit.refused", float64(refused), "count")
	rep.set("queue.wait_p50_s", median(queue), "s")
	rep.set("queue.wait_p95_s", percentile(queue, 0.95), "s")
	rep.set("run.p50_s", median(run), "s")
	rep.set("run.p95_s", percentile(run, 0.95), "s")
	rep.set("notify.p50_s", median(notify), "s")
	rep.set("fetch.p50_s", median(fetch), "s")
	rep.set("heap.live_mb", p.heapMB, "MB")
	for _, name := range []string{"admit", "queue", "run", "notify", "fetch"} {
		rep.sample(name, "%d jobs", len(admit))
	}
	jb, jr, err := journalSize(p.cfg.DataDir)
	if err != nil {
		return err
	}
	rep.set("journal.bytes", float64(jb), "bytes")
	rep.set("journal.records", float64(jr), "count")
	return nil
}

// journalSize sums the checkpoint journals under a daemon data directory:
// total bytes and JSONL records.
func journalSize(dataDir string) (bytesTotal, records int64, err error) {
	paths, err := filepath.Glob(filepath.Join(dataDir, "jobs", "*", "ckpt"))
	if err != nil {
		return 0, 0, err
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, err
		}
		bytesTotal += int64(len(data))
		records += int64(bytes.Count(data, []byte{'\n'}))
	}
	return bytesTotal, records, nil
}
