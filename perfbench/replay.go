package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"topocon/internal/check"
	"topocon/internal/ma"
	"topocon/internal/scenario"
	"topocon/internal/store"
	"topocon/internal/sweep"
)

// timingTier wraps the verdict store the replay's cache reads through,
// recording a span around every Get and Put. The replay runs one job at a
// time, so the current job's trace and sweep span are plain fields set
// between jobs.
type timingTier struct {
	st            *store.Store
	tr            *Tracer
	trace, parent int
}

func (t *timingTier) Get(k sweep.Key) (sweep.Outcome, bool) {
	id := t.tr.Start(t.trace, t.parent, "store.get")
	defer t.tr.End(id)
	return t.st.Get(k)
}

func (t *timingTier) Put(k sweep.Key, o sweep.Outcome) error {
	id := t.tr.Start(t.trace, t.parent, "store.put")
	defer t.tr.End(id)
	return t.st.Put(k, o)
}

// replayStats collects what the replay's callbacks observe.
type replayStats struct {
	mu        sync.Mutex
	cells     []float64 // wall ms of every cell
	overheads []float64 // computed cells: wall minus Σ horizon Elapsed
	computed  int
	analyzers int
	jobCells  []float64 // per job: Σ cell wall ms
	horizons  map[cellHorizon]horizonCounts
	elapsed   map[string]time.Duration // per cell name, this job
	sessions  time.Duration            // Σ horizon Elapsed, all cells
	checkpts  int64
	spilled   int64
	faulted   int64
	verdicts  map[int]string // per doc
	probes    []probeCell
}

// probeCell is a solved cell the decision-map probe replays.
type probeCell struct {
	name string
	sc   *scenario.Scenario
}

// replay is phase 2 of a traced svc run: the documents phase 1 ran, in
// submission order, through the service's own sweep configuration —
// scenario.Parse / ParseTemplate, then sweep.Run / RunScenario over a
// tiered cache on a timed store, with checkpoints, the small pager hot set
// and per-horizon progress.
func (w *svcWorkload) replay(ctx context.Context, outs []jobOutcome, storeDir, ckptDir string, tr *Tracer) (*replayStats, *sweep.Cache, error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, nil, err
	}
	tier := &timingTier{st: st, tr: tr}
	cache := sweep.NewTieredCache(tier)
	rs := &replayStats{horizons: map[cellHorizon]horizonCounts{}, verdicts: map[int]string{}}
	probed := map[string]bool{}
	for k, o := range outs {
		doc := w.docs[o.Doc]
		trace := 1_000_000 + k
		root := tr.Start(trace, 0, "replay.job")
		rs.elapsed = map[string]time.Duration{}
		var cells []*scenario.Scenario
		var tpl *scenario.Template
		var sc *scenario.Scenario
		span := tr.Start(trace, root, "scenario.parse")
		if doc.Template {
			tpl, err = scenario.ParseTemplate(doc.Body)
			if err == nil {
				var expanded []scenario.Cell
				expanded, err = tpl.Expand()
				for _, c := range expanded {
					cells = append(cells, c.Scenario)
				}
			}
		} else {
			sc, err = scenario.Parse(doc.Body)
			cells = []*scenario.Scenario{sc}
		}
		tr.End(span)
		if err != nil {
			return nil, nil, fmt.Errorf("replay doc %d: %w", o.Doc, err)
		}
		// The sweep keys every cell; time the key and the two ma calls it
		// is built from, in isolation.
		for _, c := range cells {
			opts, err := c.Options.Resolved()
			if err != nil {
				return nil, nil, err
			}
			span = tr.Start(trace, root, "ma.fingerprint")
			ma.Fingerprint(c.Adversary, opts.MaxHorizon)
			tr.End(span)
			span = tr.Start(trace, root, "ma.automorphisms")
			ma.Automorphisms(c.Adversary)
			tr.End(span)
			span = tr.Start(trace, root, "sweep.key")
			_, err = sweep.KeyFor(c.Adversary, c.Options)
			tr.End(span)
			if err != nil {
				return nil, nil, err
			}
		}
		byName := map[string]*scenario.Scenario{}
		for _, c := range cells {
			byName[c.Name] = c
		}
		run := tr.Start(trace, root, "sweep.run")
		tier.trace, tier.parent = trace, run
		var jobCell float64
		var results []sweep.CellResult
		cfg := sweep.Config{
			Workers:         svcWorkers,
			Cache:           cache,
			CheckpointDir:   ckptDir,
			CheckpointEvery: 1,
			PagerHotBytes:   pagerHotBytes,
			OnAnalyzerBuilt: func(string) {
				rs.mu.Lock()
				rs.analyzers++
				rs.mu.Unlock()
			},
			CellProgress: func(cell string, h check.HorizonReport) {
				rs.mu.Lock()
				rs.horizons[cellHorizon{cell, h.Horizon}] = horizonCounts{h.Horizon, h.Runs, h.Components, h.MixedComponents}
				rs.elapsed[cell] += h.Elapsed
				rs.sessions += h.Elapsed
				rs.mu.Unlock()
			},
			Progress: func(c sweep.CellResult) {
				results = append(results, c)
			},
		}
		var rep *sweep.Report
		if tpl != nil {
			rep, err = sweep.Run(ctx, tpl, cfg)
		} else {
			rep, err = sweep.RunScenario(ctx, sc, cfg)
		}
		tr.End(run)
		tr.End(root)
		if err != nil {
			return nil, nil, fmt.Errorf("replay doc %d: %w", o.Doc, err)
		}
		j := jobOutcome{Doc: o.Doc}
		for _, c := range results {
			jobCell += c.WallMillis
			rs.cells = append(rs.cells, c.WallMillis)
			j.Cells = append(j.Cells, cellOutcome{c.Name, c.Status, c.Verdict, c.CacheTier, c.Err})
			if c.CacheTier == "" && c.Status == sweep.StatusDone {
				rs.computed++
				rs.overheads = append(rs.overheads, c.WallMillis-ms(rs.elapsed[c.Name]))
				if c.Verdict == check.VerdictSolvable.String() && byName[c.Name].Adversary.Compact() && !probed[c.Name] && len(rs.probes) < maxProbes {
					probed[c.Name] = true
					rs.probes = append(rs.probes, probeCell{c.Name, byName[c.Name]})
				}
			}
		}
		rs.jobCells = append(rs.jobCells, jobCell)
		rs.verdicts[o.Doc] = j.verdicts()
		rs.checkpts += rep.Summary.Paging.CheckpointsWritten
		rs.spilled += rep.Summary.Paging.PagesSpilled
		rs.faulted += rep.Summary.Paging.PagesFaulted
	}
	return rs, cache, nil
}

// maxProbes bounds the solved cells the decision-map probe replays.
const maxProbes = 16

func (w *svcWorkload) traced(ctx context.Context, budget time.Duration, r *Result, tr *Tracer) ([]LayerShare, error) {
	// Phase 1: epochs for half the budget untraced, the base of the
	// tracing overhead, then epochs for half with client spans.
	refEpochs, _, _, analyzers, err := w.epochs(budget/2, nil)
	if err != nil {
		return nil, err
	}
	w.close()
	if err := w.boot(); err != nil {
		return nil, err
	}
	epochs, _, _, more, err := w.epochs(budget/2, tr)
	if err != nil {
		return nil, err
	}
	analyzers += more
	w.d.stop()
	orphans := w.d.orphanDocs()
	w.close()
	var ref, outs []jobOutcome
	for _, e := range refEpochs {
		ref = append(ref, e...)
	}
	for _, e := range epochs {
		outs = append(outs, e...)
	}
	failed := w.gate(append(ref, outs...), r)

	// Phase 2: replay the first traced epoch's documents into fresh state.
	// Its client spans are the ones with trace ids up to epochDocs.
	p2 := filepath.Join(w.state, "replay")
	defer os.RemoveAll(p2)
	var p1 []Span
	for _, s := range tr.Spans() {
		if s.Trace <= epochDocs {
			p1 = append(p1, s)
		}
	}
	rs, cache, err := w.replay(ctx, epochs[0], filepath.Join(p2, "store"), filepath.Join(p2, "ckpt", "cells"), tr)
	if err != nil {
		return nil, err
	}
	failed += w.gateReplay(epochs[0], rs, r)
	analyzers += int64(rs.analyzers)

	// The decision-map probe: solved cells through the traced replica of
	// the Analyzer, which must reproduce the replay's horizons.
	for i, p := range rs.probes {
		got, err := tracedSession(ctx, tr, 2_000_000+i, p.sc.Adversary, p.sc.Options)
		if err != nil {
			return nil, err
		}
		for _, h := range got.Horizons {
			if want, ok := rs.horizons[cellHorizon{p.name, h.Horizon}]; ok && want != h {
				failed++
				r.fail("probe of %s: horizon %v, replay %v", p.name, h, want)
			}
		}
		if got.Verdict != check.VerdictSolvable {
			failed++
			r.fail("probe of %s: verdict %v, replay solvable", p.name, got.Verdict)
		}
	}
	r.Attempted = len(ref) + len(outs) + len(epochs[0]) + len(rs.probes)
	r.Failed = failed

	spans := tr.Spans()
	cs := cache.Stats()
	n := len(outs)
	var totals, submits, queues, runs []float64
	for _, o := range outs {
		totals = append(totals, ms(o.Total))
		submits = append(submits, ms(o.Submit))
		queues = append(queues, ms(o.Queue))
		runs = append(runs, ms(o.Run))
	}
	var refTotals []float64
	for _, o := range ref {
		refTotals = append(refTotals, ms(o.Total))
	}
	hits := cs.MemoryHits + cs.DiskHits
	set := func(name string, v float64, samples int) { r.set(name, v, perLayerUnits[name], samples) }
	set("check.analyzers", float64(analyzers), n)
	set("check.decisionmap_ms", mean(Durations(spans, "check.decisionmap"))/1e6, len(rs.probes))
	set("ma.fingerprint_us", mean(Durations(spans, "ma.fingerprint"))/1e3, len(rs.cells))
	set("ma.automorphisms_us", mean(Durations(spans, "ma.automorphisms"))/1e3, len(rs.cells))
	set("scenario.parse_us", mean(Durations(spans, "scenario.parse"))/1e3, n)
	set("sweep.key_us", mean(Durations(spans, "sweep.key"))/1e3, len(rs.cells))
	set("sweep.cell_ms", mean(rs.cells), len(rs.cells))
	set("sweep.memory_hits", float64(cs.MemoryHits), len(rs.cells))
	set("sweep.computes", float64(cs.Computes), len(rs.cells))
	set("sweep.hit_ratio", float64(hits)/float64(max(hits+cs.Computes, 1)), len(rs.cells))
	gets, puts := Durations(spans, "store.get"), Durations(spans, "store.put")
	set("store.get_us", mean(gets)/1e3, len(gets))
	set("store.put_us", mean(puts)/1e3, len(puts))
	set("store.puts", float64(len(puts)), len(puts))
	set("ckpt.checkpoints", float64(rs.checkpts), rs.computed)
	set("ckpt.cell_overhead_ms", mean(rs.overheads), len(rs.overheads))
	set("pager.pages_spilled", float64(rs.spilled), rs.computed)
	set("pager.pages_faulted", float64(rs.faulted), rs.computed)
	set("svc.submit_ms", median(submits), n)
	set("svc.queue_wait_ms", median(queues), n)
	set("svc.run_ms", median(runs), n)
	set("svc.self_ms", mean(totals)-mean(rs.jobCells), n)
	set("svc.orphan_job_docs", float64(orphans), 1)
	set("svc.truncated_streams", float64(w.truncated), len(ref)+n)
	set("trace.overhead_frac", mean(totals)/mean(refTotals)-1, n)
	fmt.Printf("svc-cold: %d orphaned job documents after the drained traced pass\n", orphans)
	return svcShares(p1, spans, rs), nil
}

// gateReplay checks that phase 2 reproduced phase 1: the same verdicts per
// document and the same per-horizon component counts for every cell both
// phases solved.
func (w *svcWorkload) gateReplay(outs []jobOutcome, rs *replayStats, r *Result) int {
	failed := 0
	for _, o := range outs {
		if got := rs.verdicts[o.Doc]; got != o.verdicts() {
			failed++
			r.fail("replay of doc %d: verdicts %s, traced pass %s", o.Doc, got, o.verdicts())
			continue
		}
		for k, want := range o.Horizons {
			if got, ok := rs.horizons[k]; ok && got != want {
				failed++
				r.fail("replay of doc %d cell %s: horizon %v, traced pass %v", o.Doc, k.Cell, got, want)
				break
			}
		}
	}
	return failed
}

// svcShares apportions the traced pass's job time to layers: scenario
// parsing; keying (the ma calls, and the rest of sweep.KeyFor under
// sweep); store reads and writes; analysis sessions (Σ horizon Elapsed of
// solved cells, under check); checkpoint and pager work (a solved cell's
// wall time beyond its sessions and store write, under ckpt); the rest of
// the sweep engine; and svc — what the job took beyond its replay (HTTP,
// events, queueing). Shares are of the rows' sum.
func svcShares(phase1, spans []Span, rs *replayStats) []LayerShare {
	total := func(name string) float64 { return sum(Durations(spans, name)) / 1e6 }
	parse := total("scenario.parse")
	maMs := total("ma.fingerprint") + total("ma.automorphisms")
	key := total("sweep.key")
	put := total("store.put")
	storeMs := total("store.get") + put
	run := total("sweep.run")
	sessions := ms(rs.sessions)
	ckptMs := max(0, sum(rs.overheads)-put)
	rows := map[string]float64{
		"scenario": parse,
		"ma":       maMs,
		"sweep":    max(0, key-maMs) + max(0, run-key-storeMs-sessions-ckptMs),
		"store":    storeMs,
		"check":    sessions,
		"ckpt":     ckptMs,
		"svc":      max(0, sum(Durations(phase1, "svc.job"))/1e6-parse-run),
	}
	all := 0.0
	for _, v := range rows {
		all += v
	}
	var out []LayerShare
	for layer, v := range rows {
		out = append(out, LayerShare{Layer: layer, SelfMs: v, Share: v / max(all, 1e-9)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}
