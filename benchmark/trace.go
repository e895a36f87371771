package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one op share Op; Parent indexes the
// span that caused this one (-1 for the root "op" span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
}

// layerTime accumulates one span name over a traced window.
type layerTime struct {
	Count   uint64  `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	P50Ns   float64 `json:"p50_ns"`
	hist    durHist
}

func (l *layerTime) meanNs() float64 { return float64(l.TotalNs) / float64(max(l.Count, 1)) }

// maxKeptSpans bounds the span file: a 10 s traced xmit_n1 window would
// otherwise write millions of identical three-span ops. Totals cover every
// op; the file holds the first ops in full.
const maxKeptSpans = 30000

// tracer keeps spans in memory. A nil *tracer is the untraced run: every
// method is a no-op, so workloads carry one code path.
type tracer struct {
	epoch  time.Time
	cur    []span // the op in progress, root at index 0
	self   selfTimer
	kept   []span
	ops    uint64
	layers map[string]*layerTime
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		cur:    make([]span, 0, 256),
		kept:   make([]span, 0, maxKeptSpans),
		layers: make(map[string]*layerTime),
	}
}

// now reads the clock only when tracing, so span boundaries cost the
// untraced run nothing.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// begin opens the root span of the next op.
func (t *tracer) begin(start time.Time) {
	if t == nil {
		return
	}
	t.cur = append(t.cur[:0], span{Name: "op", Start: int64(start.Sub(t.epoch)), Parent: -1, Op: t.ops})
}

// child records a finished span directly under the root.
func (t *tracer) child(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.cur = append(t.cur, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: 0, Op: t.ops})
}

// end closes the root span and folds the op into the per-layer totals.
func (t *tracer) end(end time.Time) {
	if t == nil {
		return
	}
	t.cur[0].End = int64(end.Sub(t.epoch))
	selfNs := t.self.compute(t.cur)
	for i, s := range t.cur {
		l := t.layers[s.Name]
		if l == nil {
			l = new(layerTime)
			t.layers[s.Name] = l
		}
		l.Count++
		l.TotalNs += s.End - s.Start
		l.SelfNs += selfNs[i]
		l.hist.add(s.End - s.Start)
	}
	if base := len(t.kept); base+len(t.cur) <= cap(t.kept) {
		for _, s := range t.cur {
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.kept = append(t.kept, s)
		}
	}
	t.ops++
}

// layer returns the totals recorded under name (all zero when never seen).
func (t *tracer) layer(name string) *layerTime {
	l := t.layers[name]
	if l == nil {
		return new(layerTime)
	}
	l.P50Ns = l.hist.quantile(0.5)
	return l
}

// selfTimer computes span self times with scratch it reuses, so folding an
// op into the totals allocates nothing once warm.
type selfTimer struct {
	order []int
	out   []int64
}

// compute returns each span's self time: its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// and may stick out of the parent; covered time is the union of the child
// intervals clipped to the parent, so nothing is subtracted twice. The
// result is valid until the next call.
func (st *selfTimer) compute(spans []span) []int64 {
	st.order, st.out = st.order[:0], st.out[:0]
	for i, s := range spans {
		st.out = append(st.out, s.End-s.Start)
		// Insertion sort by (parent, start): spans arrive nearly in that
		// order already, so this is linear in practice.
		j := len(st.order)
		st.order = append(st.order, i)
		for ; j > 0; j-- {
			p := spans[st.order[j-1]]
			if p.Parent < s.Parent || (p.Parent == s.Parent && p.Start <= s.Start) {
				break
			}
			st.order[j] = st.order[j-1]
		}
		st.order[j] = i
	}
	for j := 0; j < len(st.order); {
		pi := spans[st.order[j]].Parent
		k := j
		for k < len(st.order) && spans[st.order[k]].Parent == pi {
			k++
		}
		if pi >= 0 && pi < len(spans) {
			parent := spans[pi]
			edge := parent.Start
			for _, ci := range st.order[j:k] {
				a, b := max(spans[ci].Start, edge), min(spans[ci].End, parent.End)
				if b > a {
					st.out[pi] -= b - a
					edge = b
				}
			}
		}
		j = k
	}
	return st.out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Ops       uint64                `json:"ops_traced"`
	SpansKept int                   `json:"spans_kept"`
	Layers    map[string]*layerTime `json:"layers"`
	Spans     []span                `json:"spans"`
}

// write stores the kept spans and the per-layer totals as
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	layers := make(map[string]*layerTime, len(t.layers))
	for name := range t.layers {
		layers[name] = t.layer(name)
	}
	b, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Ops: t.ops,
		SpansKept: len(t.kept), Layers: layers, Spans: t.kept,
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
