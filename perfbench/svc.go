package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"topocon/internal/svc"
)

// The service configuration svc-cold runs: two session workers, a
// verdict store and checkpoints (every horizon) on the checkout's disk,
// and a small pager hot set so that heavy cells spill. One closed-loop
// client drives it: with two, on a two-CPU host, the clients' jobs, the
// HTTP handlers and the GC contended for the CPUs, and job_ms.p50 varied
// between runs of one seed nearly twice as much as with one.
const (
	svcWorkers    = 2
	pagerHotBytes = 64 << 10
	// epochDocs is the length of an epoch: the first 50 blocks of the
	// stream. probeDocs are the two blocks after them, each with one heavy
	// template, which the heap probe runs.
	epochDocs = 50 * 20
	probeDocs = 2 * 20
)

func svcConfig(dir string) svc.Config {
	return svc.Config{
		StoreDir:        filepath.Join(dir, "store"),
		CheckpointDir:   filepath.Join(dir, "ckpt"),
		CheckpointEvery: 1,
		PagerHotBytes:   pagerHotBytes,
		Workers:         svcWorkers,
	}
}

// daemon is an in-process topoconsvc behind an httptest server.
type daemon struct {
	dir    string
	svc    *svc.Service
	srv    *httptest.Server
	client *http.Client
	// truncated counts event streams that closed without the job's
	// terminal event.
	truncated atomic.Int64
}

func bootDaemon(dir string) (*daemon, error) {
	s, err := svc.New(svcConfig(dir))
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(s.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	return &daemon{dir: dir, svc: s, srv: srv, client: &http.Client{Transport: tr}}, nil
}

// stop drains the service and closes the server; it is idempotent.
func (d *daemon) stop() {
	if d == nil || d.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = d.svc.Shutdown(ctx) // a drain that times out leaves documents behind; they are counted, not lost
	d.client.CloseIdleConnections()
	d.srv.Close()
	d.srv = nil
}

// orphanDocs counts the job documents left under the checkpoint dir.
func (d *daemon) orphanDocs() int {
	entries, err := os.ReadDir(filepath.Join(d.dir, "ckpt", "jobs"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".job") {
			n++
		}
	}
	return n
}

// cellOutcome is one cell of a finished job, as its event stream told it.
type cellOutcome struct {
	Name, Status, Verdict, Tier, Err string
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	Doc    int // stream index
	Status string
	Err    string
	// Client-side phases: POST, ack → started event, started → terminal.
	Submit, Queue, Run, Total time.Duration
	Cells                     []cellOutcome
	Horizons                  map[cellHorizon]horizonCounts
}

type cellHorizon struct {
	Cell    string
	Horizon int
}

func (j *jobOutcome) verdicts() string {
	vs := make([]string, len(j.Cells))
	for i, c := range j.Cells {
		vs[i] = c.Name + "=" + c.Verdict
	}
	sort.Strings(vs)
	return strings.Join(vs, ",")
}

// runJob submits one document and follows its event stream to the
// terminal event. Tracing spans, when tr is non-nil, cover the POST, the
// wait from acknowledgement to the started event, and the run, under
// trace id trace.
func (d *daemon) runJob(doc Doc, tr *Tracer, trace int) jobOutcome {
	out := jobOutcome{Doc: doc.Index, Horizons: map[cellHorizon]horizonCounts{}}
	root, span := 0, 0
	if tr != nil {
		root = tr.Start(trace, 0, "svc.job")
		defer tr.End(root)
		span = tr.Start(trace, root, "svc.submit")
	}
	start := time.Now()
	resp, err := d.client.Post(d.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(doc.Body))
	if err != nil {
		out.Status, out.Err = "error", err.Error()
		return out
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	ack := time.Now()
	out.Submit = ack.Sub(start)
	if tr != nil {
		tr.End(span)
	}
	if resp.StatusCode != http.StatusAccepted {
		out.Status, out.Err = "refused", fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return out
	}
	var acked struct{ ID string }
	if err := json.Unmarshal(body, &acked); err != nil {
		out.Status, out.Err = "error", err.Error()
		return out
	}
	if tr != nil {
		span = tr.Start(trace, root, "svc.queue_wait")
	}
	resp, err = d.client.Get(d.srv.URL + "/v1/jobs/" + acked.ID + "/events?format=ndjson")
	if err != nil {
		out.Status, out.Err = "error", err.Error()
		return out
	}
	defer resp.Body.Close()
	started := time.Time{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var e svc.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			out.Status, out.Err = "error", err.Error()
			return out
		}
		switch e.Type {
		case "started":
			started = time.Now()
			out.Queue = started.Sub(ack)
			if tr != nil {
				tr.End(span)
				span = tr.Start(trace, root, "svc.run")
			}
		case "horizon":
			h := e.Horizon
			out.Horizons[cellHorizon{e.Cell, h.Horizon}] = horizonCounts{h.Horizon, h.Runs, h.Components, h.MixedComponents}
		case "cell":
			c := e.Result
			out.Cells = append(out.Cells, cellOutcome{c.Name, c.Status, c.Verdict, c.CacheTier, c.Err})
		case svc.StatusDone, svc.StatusFailed, svc.StatusCancelled:
			end := time.Now()
			out.Status, out.Err = e.Type, e.Error
			out.Total = end.Sub(start)
			if !started.IsZero() {
				out.Run = end.Sub(started)
			}
			if tr != nil {
				tr.End(span)
			}
			return out
		}
	}
	if err := sc.Err(); err != nil {
		out.Status, out.Err = "error", err.Error()
		return out
	}
	// The stream closed before the terminal event: the service flips a
	// job's status before it appends the terminal event, and a streamer
	// that looks in between sees a finished job with nothing left to send.
	// Like the repo's load client, fall back to polling the job document,
	// and count the truncation.
	d.truncated.Add(1)
	return d.await(out, acked.ID, start, started, tr, span)
}

// await polls a job until it is terminal and completes the outcome from its
// report.
func (d *daemon) await(out jobOutcome, id string, start, started time.Time, tr *Tracer, span int) jobOutcome {
	for {
		resp, err := d.client.Get(d.srv.URL + "/v1/jobs/" + id)
		if err != nil {
			out.Status, out.Err = "error", err.Error()
			return out
		}
		var v svc.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			out.Status, out.Err = "error", err.Error()
			return out
		}
		if v.Status == svc.StatusDone || v.Status == svc.StatusFailed || v.Status == svc.StatusCancelled {
			end := time.Now()
			out.Status, out.Err, out.Total = v.Status, v.Error, end.Sub(start)
			if !started.IsZero() {
				out.Run = end.Sub(started)
			}
			if v.Report != nil && len(out.Cells) < len(v.Report.Cells) {
				out.Cells = out.Cells[:0]
				for _, c := range v.Report.Cells {
					out.Cells = append(out.Cells, cellOutcome{c.Name, c.Status, c.Verdict, c.CacheTier, c.Err})
				}
			}
			if tr != nil {
				tr.End(span)
			}
			return out
		}
		time.Sleep(time.Millisecond)
	}
}

// loop is the closed-loop client: it runs the documents one after another,
// each submitted once the previous job has finished, and returns their
// outcomes. Traced jobs get trace ids from traceBase+1. heavy, if non-nil,
// is set while a heavy job is in flight.
func (d *daemon) loop(docs []Doc, tr *Tracer, traceBase int, heavy *atomic.Bool) []jobOutcome {
	outs := make([]jobOutcome, len(docs))
	for i, doc := range docs {
		isHeavy := heavy != nil && doc.Class == classHeavy
		if isHeavy {
			heavy.Store(true)
		}
		outs[i] = d.runJob(doc, tr, traceBase+i+1)
		if isHeavy {
			heavy.Store(false)
		}
	}
	return outs
}

// svcWorkload is svc-cold. Its unit of work is an epoch: a daemon booted
// over empty store and checkpoint dirs runs the first epochDocs documents
// of the seed's stream. Every epoch is the same work, however far a run
// gets; a time-bounded walk down the stream would not be, since the
// memory tier's hit ratio climbs along it and a faster run would reach
// cheaper jobs.
type svcWorkload struct {
	seed  int64
	state string

	docs []Doc // the epoch's documents, then the probe's
	d    *daemon
	runs int // daemons booted so far, naming their state dirs
	// truncated sums the event streams cut short on every daemon this
	// workload has stopped.
	truncated int64
}

// boot starts a daemon over a fresh state dir.
func (w *svcWorkload) boot() error {
	w.runs++
	dir := filepath.Join(w.state, fmt.Sprintf("run%d", w.runs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var err error
	w.d, err = bootDaemon(dir)
	return err
}

// setup generates the documents and boots the first epoch's daemon.
func (w *svcWorkload) setup(ctx context.Context) error {
	docs, err := Stream(w.seed, epochDocs+probeDocs)
	if err != nil {
		return err
	}
	w.docs = docs
	return w.boot()
}

// close stops the daemon and removes its state.
func (w *svcWorkload) close() {
	if w.d != nil {
		w.d.stop()
		w.truncated += w.d.truncated.Load()
		os.RemoveAll(w.d.dir)
		w.d = nil
	}
}

// epochs runs whole epochs back to back until at least budget has passed
// in them, the first on the running daemon and each later one on a fresh
// daemon, and leaves the last epoch's daemon running. It returns each
// epoch's outcomes, the wall and process CPU time spent in the epochs
// (daemon boots and drains between them excluded), and the Analyzers the
// epochs constructed.
func (w *svcWorkload) epochs(budget time.Duration, tr *Tracer) ([][]jobOutcome, time.Duration, time.Duration, int64, error) {
	var all [][]jobOutcome
	var wall, cpu time.Duration
	var analyzers int64
	for wall < budget {
		if len(all) > 0 {
			w.close()
			if err := w.boot(); err != nil {
				return nil, 0, 0, 0, err
			}
		}
		start, cpu0 := time.Now(), cpuTime()
		outs := w.d.loop(w.docs[:epochDocs], tr, len(all)*epochDocs, nil)
		cpu += cpuTime() - cpu0
		wall += time.Since(start)
		analyzers += w.d.svc.AnalyzersConstructed()
		all = append(all, outs)
	}
	return all, wall, cpu, analyzers, nil
}

// gate checks every job: it must finish done with every cell done, and
// its verdicts must equal those of the document it derives from (an exact
// repeat, a respelling, a relabelling) and those of every other run of the
// same document. It returns the failed-job count.
func (w *svcWorkload) gate(outs []jobOutcome, r *Result) int {
	first := map[int]string{}
	for _, o := range outs {
		if o.Status == svc.StatusDone {
			if _, ok := first[o.Doc]; !ok {
				first[o.Doc] = o.verdicts()
			}
		}
	}
	failed := 0
	for _, o := range outs {
		var why []string
		if o.Status != svc.StatusDone {
			why = append(why, fmt.Sprintf("status %s %s", o.Status, o.Err))
		}
		doc := w.docs[o.Doc]
		if len(o.Cells) != doc.Cells && o.Status == svc.StatusDone {
			why = append(why, fmt.Sprintf("%d cells, want %d", len(o.Cells), doc.Cells))
		}
		for _, c := range o.Cells {
			if c.Status != "done" {
				why = append(why, fmt.Sprintf("cell %s: %s %s", c.Name, c.Status, c.Err))
			}
		}
		if o.Status == svc.StatusDone {
			if doc.Ref >= 0 {
				if want, ok := first[doc.Ref]; ok && !sameVerdicts(want, o.verdicts()) {
					why = append(why, fmt.Sprintf("%s of doc %d: verdicts %s, source %s", doc.Class, doc.Ref, o.verdicts(), want))
				}
			}
			if want, ok := first[o.Doc]; ok && want != o.verdicts() {
				why = append(why, fmt.Sprintf("verdicts %s, another run of the same doc %s", o.verdicts(), want))
			}
		}
		if len(why) > 0 {
			failed++
			r.fail("doc %d (%s): %s", o.Doc, doc.Class, strings.Join(why, "; "))
		}
	}
	return failed
}

// sameVerdicts compares verdict lists ignoring cell names, which a
// respelling or relabelling renames.
func sameVerdicts(a, b string) bool {
	strip := func(s string) []string {
		var vs []string
		for _, kv := range strings.Split(s, ",") {
			_, v, _ := strings.Cut(kv, "=")
			vs = append(vs, v)
		}
		sort.Strings(vs)
		return vs
	}
	return strings.Join(strip(a), ",") == strings.Join(strip(b), ",")
}

func (w *svcWorkload) measure(ctx context.Context, budget time.Duration, r *Result) error {
	epochs, wall, cpu, analyzers, err := w.epochs(budget, nil)
	if err != nil {
		return err
	}
	probe, peak := w.heapProbe()
	w.d.stop()
	orphans := w.d.orphanDocs()
	w.close()
	var outs []jobOutcome
	for _, e := range epochs {
		outs = append(outs, e...)
	}
	r.Attempted = len(outs) + len(probe)
	r.Failed = w.gate(append(outs, probe...), r)
	var totals []float64
	for _, o := range outs {
		if o.Status == svc.StatusDone {
			totals = append(totals, ms(o.Total))
		}
	}
	n := len(totals)
	r.set("jobs_per_s", float64(n)/wall.Seconds(), "1/s", n)
	r.set("job_ms.p50", median(totals), "ms", n)
	r.set("job_ms.p90", quantile(totals, 0.9), "ms", n)
	r.set("cpu_ms_per_job", ms(cpu)/float64(max(n, 1)), "ms", n)
	r.set("peak_heap_mb", peak, "MB", len(probe))
	fmt.Printf("svc-cold: %d epochs of %d jobs and %d jobs in the heap probe; %d analyzers constructed in the epochs, %d event streams closed before the terminal event, %d job documents the last daemon left after its drain\n",
		len(epochs), epochDocs, len(probe), analyzers, w.truncated, orphans)
	return nil
}

// heapProbe runs the probe documents on the last epoch's daemon, untimed,
// forcing GCs back to back while a heavy job is in flight. It returns the
// outcomes and the highest live heap found, in MiB: the daemon's retained
// jobs and cache plus one heavy job's sessions at their largest horizon.
// Sampling densely through each finds its peak on every run, where sparse
// samples land wherever a session happens to be; the timed epochs run with
// no forced GC.
func (w *svcWorkload) heapProbe() ([]jobOutcome, float64) {
	var heavy atomic.Bool
	var peak uint64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !heavy.Load() {
				time.Sleep(time.Millisecond)
				continue
			}
			peak = max(peak, liveHeap())
		}
	}()
	outs := w.d.loop(w.docs[epochDocs:], nil, 0, &heavy)
	close(stop)
	<-stopped
	return outs, float64(max(peak, liveHeap())) / (1 << 20)
}
