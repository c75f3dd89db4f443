package main

import (
	"context"
	"fmt"
	"time"

	"topocon/internal/baseline"
	"topocon/internal/check"
	"topocon/internal/ma"
	"topocon/internal/topo"
)

// horizonCounts is the per-horizon decomposition a session reports.
type horizonCounts struct {
	Horizon, Runs, Components, Mixed int
}

// sessionOutcome is what a deep session must reproduce on every run.
type sessionOutcome struct {
	Verdict  check.Verdict
	Summary  string
	Horizons []horizonCounts
	// Items and Views are the interned items and views at the final
	// horizon; ExtendItems sums the items interned over every horizon.
	Items, Views, ExtendItems int
}

// deepSetup is the set-up product of the deep-session workload.
type deepSetup struct {
	sessions []DeepSession
	// want holds each session's reference outcome: the pinned verdicts of
	// the anchors, and a NoSymmetry session for every generated adversary.
	want map[string]sessionOutcome
	// rejected counts generated candidates dropped because they were no
	// longer mixed at their horizon, not impossible, or outside their
	// slot's band of views.
	rejected int
}

func setupDeep(ctx context.Context, root string, seed int64) (*deepSetup, error) {
	anchors, err := anchorSessions(root)
	if err != nil {
		return nil, err
	}
	ds := &deepSetup{sessions: anchors, want: map[string]sessionOutcome{}}
	for i, slot := range deepSlots {
		next := deepCandidates(seed, i)
		for {
			s := next()
			pre := s
			pre.NoSymmetry, pre.Horizon = true, slot.bandHorizon()
			out, err := runSession(ctx, pre, nil)
			if err != nil {
				return nil, err
			}
			if !slot.inBand(out.Views, fullRuns(s.Adv, pre.Horizon)) {
				ds.rejected++
				continue
			}
			ref := s
			ref.NoSymmetry = true
			out, err = runSession(ctx, ref, nil)
			if err != nil {
				return nil, err
			}
			last := out.Horizons[len(out.Horizons)-1]
			if last.Horizon != s.Horizon || last.Mixed == 0 || out.Verdict != check.VerdictImpossible {
				ds.rejected++
				continue
			}
			ds.sessions = append(ds.sessions, s)
			ds.want[s.Name] = out
			break
		}
	}
	return ds, nil
}

// runSession is the untraced path: one fresh Analyzer session on the
// topocheck configuration (parallelism 1, no pager, no cache) run to its
// verdict. A non-nil onHorizon runs after each horizon's report.
func runSession(ctx context.Context, s DeepSession, onHorizon func()) (sessionOutcome, error) {
	var out sessionOutcome
	opts := []check.AnalyzerOption{
		check.WithMaxHorizon(s.Horizon),
		check.WithParallelism(1),
		check.WithProgress(func(r check.HorizonReport) {
			out.Horizons = append(out.Horizons, horizonCounts{r.Horizon, r.Runs, r.Components, r.MixedComponents})
			out.Items, out.Views = r.InternedRuns, r.InternedViews
			out.ExtendItems += r.InternedRuns
			if onHorizon != nil {
				onHorizon()
			}
		}),
	}
	if s.NoSymmetry {
		opts = append(opts, check.WithNoSymmetry())
	}
	a, err := check.NewAnalyzer(s.Adv, opts...)
	if err != nil {
		return out, err
	}
	res, err := a.Check(ctx)
	if err != nil {
		return out, fmt.Errorf("%s: %w", s.Name, err)
	}
	out.Verdict, out.Summary = res.Verdict, res.Summary()
	return out, nil
}

// checkSession applies the correctness gates to one session outcome and
// returns the failures.
func (ds *deepSetup) checkSession(s DeepSession, got sessionOutcome) []string {
	var fails []string
	if len(got.Horizons) == 0 {
		return []string{s.Name + ": no horizon analysed"}
	}
	last := got.Horizons[len(got.Horizons)-1]
	if want := s.FullRuns; last.Runs != want {
		fails = append(fails, fmt.Sprintf("%s: FullLen %d at horizon %d, want d^n·k^h = %d", s.Name, last.Runs, last.Horizon, want))
	}
	switch s.Name {
	case anchorStar4, anchorStar4Full:
		if got.Verdict != check.VerdictUnknown {
			fails = append(fails, fmt.Sprintf("%s: verdict %v, want unknown", s.Name, got.Verdict))
		}
		other := anchorStar4Full
		if s.Name == anchorStar4Full {
			other = anchorStar4
		}
		if w, ok := ds.want[other]; ok && w.Summary != got.Summary {
			fails = append(fails, fmt.Sprintf("%s: summary differs from %s", s.Name, other))
		}
	case anchorLossy3:
		if got.Verdict != check.VerdictImpossible {
			fails = append(fails, fmt.Sprintf("%s: verdict %v, want impossible", s.Name, got.Verdict))
		}
	default:
		if w := ds.want[s.Name]; w.Verdict != got.Verdict {
			fails = append(fails, fmt.Sprintf("%s: verdict %v, NoSymmetry reference %v", s.Name, got.Verdict, w.Verdict))
		}
	}
	if w, ok := ds.want[s.Name]; ok && !sameHorizons(w.Horizons, got.Horizons) {
		fails = append(fails, fmt.Sprintf("%s: per-horizon components %v, reference %v", s.Name, got.Horizons, w.Horizons))
	}
	return fails
}

func sameHorizons(a, b []horizonCounts) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sessionSample is one measured session.
type sessionSample struct {
	session string
	wall    time.Duration
	out     sessionOutcome
}

// runDeepLoop runs whole cycles of the session list back to back (closed
// loop, one client) until at least budget has elapsed, calling run for
// each session.
func runDeepLoop(ctx context.Context, ds *deepSetup, budget time.Duration, run func(DeepSession) (sessionOutcome, error)) ([]sessionSample, time.Duration, error) {
	var samples []sessionSample
	start := time.Now()
	for time.Since(start) < budget {
		for _, s := range ds.sessions {
			t := time.Now()
			out, err := run(s)
			if err != nil {
				return samples, time.Since(start), err
			}
			samples = append(samples, sessionSample{s.Name, time.Since(t), out})
		}
	}
	return samples, time.Since(start), nil
}

// The first run of every anchor fixes the summary its twin is compared
// with.
func (ds *deepSetup) record(samples []sessionSample) {
	for _, smp := range samples {
		if _, ok := ds.want[smp.session]; !ok {
			ds.want[smp.session] = smp.out
		}
	}
}

// tracedSession drives one session through the public calls that
// Analyzer.Step and Check compose, recording a span around each:
// ma.Automorphisms, topo.BuildCtx, Space.Extend, topo.DecomposeCtx /
// Decomposition.Refine, check.BuildDecisionMap, and the certificate
// searches baseline.FindPumpCertificate / ProveBivalent. It replicates
// the compact route only: the svc probe calls it on solvable cells alone.
func tracedSession(ctx context.Context, tr *Tracer, trace int, adv ma.Adversary, options check.Options) (sessionOutcome, error) {
	var out sessionOutcome
	root := tr.Start(trace, 0, "check.session")
	defer tr.End(root)

	opts, err := options.Resolved()
	if err != nil {
		return out, err
	}
	span := tr.Start(trace, root, "ma.automorphisms")
	grp := ma.TrivialGroup(adv.N())
	if !opts.NoSymmetry {
		grp = ma.Automorphisms(adv)
	}
	tr.End(span)

	span = tr.Start(trace, root, "topo.build")
	cur, err := topo.BuildCtx(ctx, adv, opts.InputDomain, 0, topo.Config{MaxRuns: opts.MaxRuns, Parallelism: 1, Symmetry: grp})
	tr.End(span)
	if err != nil {
		return out, err
	}
	var d *topo.Decomposition
	sep, bcast := -1, -1
	for t := 1; t <= opts.MaxHorizon && (sep < 0 || bcast < 0); t++ {
		span = tr.Start(trace, root, "topo.extend")
		next, err := cur.Extend(ctx, t)
		tr.End(span)
		if err != nil {
			return out, err
		}
		span = tr.Start(trace, root, "topo.refine")
		if d == nil {
			d, err = topo.DecomposeCtx(ctx, next)
		} else {
			d, err = d.Refine(ctx, next)
		}
		tr.End(span)
		if err != nil {
			return out, err
		}
		cur = next
		mixed := len(d.MixedComponents())
		out.Horizons = append(out.Horizons, horizonCounts{t, next.FullLen(), len(d.Comps), mixed})
		out.Items, out.Views = next.Len(), next.Interner.Size()
		out.ExtendItems += next.Len()
		if sep < 0 && mixed == 0 {
			sep = t
			span = tr.Start(trace, root, "check.decisionmap")
			check.BuildDecisionMap(d, opts.DefaultValue)
			tr.End(span)
		}
		if bcast < 0 && d.ValentComponentsBroadcastable() {
			bcast = t
		}
	}
	out.Verdict = check.VerdictUnknown
	if sep >= 0 {
		out.Verdict = check.VerdictSolvable
		return out, nil
	}
	ob, ok := ma.Normalize(adv).(*ma.Oblivious)
	chainLen := opts.EffectiveCertChainLen(adv.N())
	if !ok || chainLen <= 0 {
		return out, nil
	}
	span = tr.Start(trace, root, "baseline.certificate")
	defer tr.End(span)
	if _, found := baseline.FindPumpCertificate(ob, opts.InputDomain); found {
		out.Verdict = check.VerdictImpossible
	} else if len(ob.Graphs()) <= maxGraphsForChainSearch {
		if _, found := baseline.ProveBivalent(ob, opts.InputDomain, chainLen); found {
			out.Verdict = check.VerdictImpossible
		}
	}
	return out, nil
}

// maxGraphsForChainSearch mirrors the checker's gate on the bounded-chain
// certificate search (exponential in the graph-set size).
const maxGraphsForChainSearch = 10

// deepLayerMetrics derives the topo/ptg/check per-layer metrics from the
// traced sessions.
func deepLayerMetrics(m map[string]float64, spans []Span, samples []sessionSample) {
	var items, full, views, extendItems float64
	for _, smp := range samples {
		items += float64(smp.out.Items)
		views += float64(smp.out.Views)
		extendItems += float64(smp.out.ExtendItems)
		full += float64(smp.out.Horizons[len(smp.out.Horizons)-1].Runs)
	}
	n := float64(len(samples))
	extend := sum(Durations(spans, "topo.extend"))
	m["topo.extend_ms"] = extend / 1e6 / n
	m["topo.extend_ns_per_item"] = extend / extendItems
	m["topo.refine_ms"] = sum(Durations(spans, "topo.refine")) / 1e6 / n
	m["topo.interned_items"] = items / n
	m["topo.full_runs"] = full / n
	m["topo.quotient_ratio"] = full / items
	m["ptg.interned_views"] = views / n
	m["check.decisionmap_ms"] = mean(Durations(spans, "check.decisionmap")) / 1e6
	m["check.certificate_ms"] = mean(Durations(spans, "baseline.certificate")) / 1e6
	for _, name := range []string{anchorStar4, anchorStar4Full, anchorLossy3} {
		var walls []float64
		for _, smp := range samples {
			if smp.session == name {
				walls = append(walls, ms(smp.wall))
			}
		}
		m["check.session_ms."+name] = median(walls)
	}
	m["ma.automorphisms_us"] = mean(Durations(spans, "ma.automorphisms")) / 1e3
}

// deepWorkload is the deep-session workload: back-to-back fresh Analyzer
// sessions, closed loop, one client.
type deepWorkload struct {
	root string
	seed int64
	ds   *deepSetup
}

func (w *deepWorkload) setup(ctx context.Context) error {
	ds, err := setupDeep(ctx, w.root, w.seed)
	w.ds = ds
	return err
}

func (w *deepWorkload) close() { w.ds = nil }

// gate checks every sample and returns the number of failed sessions.
func (w *deepWorkload) gate(samples []sessionSample, r *Result) int {
	w.ds.record(samples)
	byName := map[string]DeepSession{}
	for _, s := range w.ds.sessions {
		byName[s.Name] = s
	}
	failed := 0
	for _, smp := range samples {
		fails := w.ds.checkSession(byName[smp.session], smp.out)
		if len(fails) > 0 {
			failed++
			for _, f := range fails {
				r.fail("%s", f)
			}
		}
	}
	return failed
}

func (w *deepWorkload) measure(ctx context.Context, budget time.Duration, r *Result) error {
	cpu0 := cpuTime()
	samples, elapsed, err := runDeepLoop(ctx, w.ds, budget, func(s DeepSession) (sessionOutcome, error) {
		return runSession(ctx, s, nil)
	})
	cpu := cpuTime() - cpu0
	if err != nil {
		return err
	}
	peak, err := w.heapProbe(ctx)
	if err != nil {
		return err
	}
	r.Attempted = len(samples)
	r.Failed = w.gate(samples, r)
	// Every cycle runs each session once, so a quantile over all samples
	// would fall between the runs of two sessions and follow their tails.
	// Take each cycle's mean session time and its 90th percentile instead,
	// and report their medians over the cycles.
	k := len(w.ds.sessions)
	var means, p90s []float64
	for c := 0; c+k <= len(samples); c += k {
		walls := make([]float64, k)
		for i, smp := range samples[c : c+k] {
			walls[i] = ms(smp.wall)
		}
		means = append(means, mean(walls))
		p90s = append(p90s, quantile(walls, 0.9))
	}
	n := len(samples)
	r.set("jobs_per_s", float64(n)/elapsed.Seconds(), "1/s", n)
	r.set("job_ms.p50", median(means), "ms", len(means))
	r.set("job_ms.p90", median(p90s), "ms", len(p90s))
	r.set("cpu_ms_per_job", ms(cpu)/float64(n), "ms", n)
	r.set("peak_heap_mb", peak, "MB", len(w.ds.sessions))
	fmt.Printf("deep-session: %d sessions per cycle, %d generated candidates rejected as not mixed, not impossible or out of band\n", len(w.ds.sessions), w.ds.rejected)
	byName := map[string][]float64{}
	for _, smp := range samples {
		byName[smp.session] = append(byName[smp.session], ms(smp.wall))
	}
	for _, s := range w.ds.sessions {
		fmt.Printf("  %-22s n=%d |G|=%d k=%-2d h=%-2d runs=%-7d %s %8.1f ms\n", s.Name, s.Adv.N(), s.Order, len(s.Adv.Graphs()), s.Horizon, s.FullRuns, w.ds.want[s.Name].Verdict, median(byName[s.Name]))
	}
	return nil
}

// traced runs half the budget untraced through the Analyzer (the reference
// the replay must reproduce, and the base of the tracing overhead), then
// half through the traced replay.
func (w *deepWorkload) traced(ctx context.Context, budget time.Duration, r *Result, tr *Tracer) ([]LayerShare, error) {
	ref, _, err := runDeepLoop(ctx, w.ds, budget/2, func(s DeepSession) (sessionOutcome, error) {
		return runSession(ctx, s, nil)
	})
	if err != nil {
		return nil, err
	}
	failed := w.gate(ref, r)
	trace := 0
	samples, _, err := runDeepLoop(ctx, w.ds, budget/2, func(s DeepSession) (sessionOutcome, error) {
		trace++
		return tracedSession(ctx, tr, trace, s.Adv, check.Options{MaxHorizon: s.Horizon, NoSymmetry: s.NoSymmetry})
	})
	if err != nil {
		return nil, err
	}
	// The replay must reproduce the untraced per-horizon counts and
	// verdicts exactly.
	for _, smp := range samples {
		want := w.ds.want[smp.session]
		if smp.out.Verdict != want.Verdict || !sameHorizons(smp.out.Horizons, want.Horizons) {
			failed++
			r.fail("traced replay of %s: verdict %v horizons %v, untraced %v %v", smp.session, smp.out.Verdict, smp.out.Horizons, want.Verdict, want.Horizons)
		}
	}
	r.Attempted = len(ref) + len(samples)
	r.Failed = failed

	m := map[string]float64{}
	spans := tr.Spans()
	deepLayerMetrics(m, spans, samples)
	for name, v := range m {
		r.set(name, v, perLayerUnits[name], len(samples))
	}
	r.set("check.analyzers", float64(len(ref)), "count", len(ref))
	r.set("trace.overhead_frac", cycleMs(samples)/cycleMs(ref)-1, "frac", len(samples))
	var e2e time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			e2e += s.Dur()
		}
	}
	return LayerShares(spans, e2e), nil
}

// cycleMs is the mean wall time of one cycle of sessions: the sum over
// session names of each name's mean wall time.
func cycleMs(samples []sessionSample) float64 {
	byName := map[string][]float64{}
	for _, smp := range samples {
		byName[smp.session] = append(byName[smp.session], ms(smp.wall))
	}
	total := 0.0
	for _, w := range byName {
		total += mean(w)
	}
	return total
}

// heapProbe runs every session once more, untimed, forcing a GC at the end
// of each horizon, and returns the highest live heap found, in MiB: the
// data a session retains at its peak, read at the same points on every
// run rather than wherever the GC pacer happened to collect.
func (w *deepWorkload) heapProbe(ctx context.Context) (float64, error) {
	var peak uint64
	for _, s := range w.ds.sessions {
		if _, err := runSession(ctx, s, func() { peak = max(peak, liveHeap()) }); err != nil {
			return 0, err
		}
	}
	return float64(peak) / (1 << 20), nil
}
