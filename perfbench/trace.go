package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of that layer. Spans of one session or job
// share a Trace id; Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Layer is the span name's prefix before the first dot ("topo.extend" →
// "topo"), the unit the layer-share table aggregates by.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: store-tier spans are recorded from sweep worker
// goroutines.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// Start opens a span and returns its id (1-based).
func (t *Tracer) Start(trace, parent int, name string) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// End closes a span opened by Start.
func (t *Tracer) End(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the durations of every span with the given name.
func Durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (children may overlap, so the
// covered part is the union of their intervals, clipped to the parent).
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// LayerShare is one row of a workload's layer-share table.
type LayerShare struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"selfMs"`
	Share  float64 `json:"share"`
}

// LayerShares sums self time per layer and divides it by the end-to-end
// time the spans account for (e2e, the sum of the workload's root spans).
func LayerShares(spans []Span, e2e time.Duration) []LayerShare {
	self := SelfTimes(spans)
	byLayer := make(map[string]time.Duration)
	for i, s := range spans {
		byLayer[s.Layer()] += self[i]
	}
	rows := make([]LayerShare, 0, len(byLayer))
	for layer, d := range byLayer {
		share := 0.0
		if e2e > 0 {
			share = float64(d) / float64(e2e)
		}
		rows = append(rows, LayerShare{Layer: layer, SelfMs: ms(d), Share: share})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfMs > rows[b].SelfMs })
	return rows
}

// writeTrace writes the spans and the layer-share table of one traced run.
func writeTrace(path string, workload string, seed int64, spans []Span, shares []LayerShare) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Shares   []LayerShare `json:"layerShares"`
		Spans    []Span       `json:"spans"`
	}{workload, seed, shares, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
