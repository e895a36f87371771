package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	_ "decafdrivers/internal/drivers/e1000"
	"decafdrivers/internal/xpc"
)

// TestMain routes the re-exec'd test binary into the worker loop, as main
// does for the benchmark binary.
func TestMain(m *testing.M) {
	xpc.MaybeRunWorker()
	os.Exit(m.Run())
}

func ascending(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		value   int64
		got     float64
		comment string
	}{
		{2000, 99, 1980, 99, "20 beyond p99: reported as asked"},
		{1000, 99, 990, 99, "exactly 10 beyond: still p99"},
		{999, 99, 989, 99, "floor(989.01) at or below, 10 beyond"},
		{500, 99, 490, 98, "5 beyond p99: falls back to the rank with 10 beyond"},
		{100, 99.9, 90, 90, "p999 of 100 samples is p90"},
		{1000, 50, 500, 50, "the median is never limited"},
		{10, 99, 1, 10, "10 samples: nothing has 10 beyond it"},
		{1, 50, 1, 100, "one sample"},
	} {
		v, got := tailPercentile(ascending(tc.n), tc.want)
		if v != tc.value || math.Abs(got-tc.got) > 1e-9 {
			t.Errorf("n=%d p%v: got value %d at p%v, want %d at p%v (%s)", tc.n, tc.want, v, got, tc.value, tc.got, tc.comment)
		}
	}
	if v, got := tailPercentile(nil, 99); v != 0 || got != 0 {
		t.Errorf("empty: got %d at p%v", v, got)
	}
}

func TestBetterQuartile(t *testing.T) {
	parts := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := betterQuartile(slices.Clone(parts), false); got != 3 {
		t.Errorf("lower is better: got %v, want the third smallest of ten", got)
	}
	if got := betterQuartile(slices.Clone(parts), true); got != 8 {
		t.Errorf("higher is better: got %v, want the third largest of ten", got)
	}
	if got := betterQuartile([]float64{4}, true); got != 4 {
		t.Errorf("one part: got %v", got)
	}
	if got := betterQuartile(nil, true); got != 0 {
		t.Errorf("no parts: got %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// 0: root [0,100]
	// 1: child [10,40]            2: child [30,60] overlaps 1
	// 3: child [90,120] sticks out of the root
	// 4: grandchild of 1 [15,25]  5: grandchild of 1 [20,35] overlaps 4
	// 6: child [45,50] lies inside 2's cover
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "a1", Start: 15, End: 25, Parent: 1},
		{Name: "a2", Start: 20, End: 35, Parent: 1},
		{Name: "d", Start: 45, End: 50, Parent: 0},
	}
	want := []int64{
		100 - (50 + 10), // root: [10,60] ∪ [90,100]
		30 - 20,         // a: [15,35] covered
		30, 30, 10, 15, 5,
	}
	var st selfTimer
	if got := st.compute(spans); !slices.Equal(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	// Scratch reuse must not leak state between ops.
	if got := st.compute(spans[:1]); !slices.Equal(got, []int64{100}) {
		t.Fatalf("second use: self times = %v, want [100]", got)
	}
}

func TestTracerFoldsOps(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	for i := 0; i < 3; i++ {
		tr.begin(at(0))
		tr.child("build", at(0), at(30))
		tr.child("flush", at(30), at(90))
		tr.end(at(100))
	}
	op, build, flush := tr.layer("op"), tr.layer("build"), tr.layer("flush")
	if op.Count != 3 || op.TotalNs != 300 || op.SelfNs != 30 {
		t.Errorf("op: %d spans, %d ns total, %d ns self; want 3, 300, 30", op.Count, op.TotalNs, op.SelfNs)
	}
	if build.TotalNs != 90 || build.SelfNs != 90 || flush.TotalNs != 180 || flush.P50Ns != 60 {
		t.Errorf("build: %d ns total, %d self; flush: %d ns total, p50 %v; want 90, 90, 180, 60",
			build.TotalNs, build.SelfNs, flush.TotalNs, flush.P50Ns)
	}
	if len(tr.kept) != 9 || tr.kept[4].Parent != 3 || tr.kept[4].Op != 1 || tr.kept[3].Parent != -1 {
		t.Errorf("kept spans = %+v", tr.kept)
	}
	var nilTracer *tracer
	nilTracer.begin(at(0))
	nilTracer.child("x", at(0), at(1))
	nilTracer.end(at(1))
	if !nilTracer.now().IsZero() {
		t.Error("nil tracer read the clock")
	}
}

func TestDurHistQuantile(t *testing.T) {
	var h durHist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want) > want/(2*histSub)+1 {
			t.Errorf("q%v = %v, want %v within 1/%d", q, got, want, 2*histSub)
		}
	}
	var empty durHist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty histogram median = %v", got)
	}
	var big durHist
	big.add(math.MaxInt64)
	big.add(-5)
	if got := big.quantile(1); got < math.MaxInt64/2 {
		t.Errorf("max value landed at %v", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A comm with spaces and parentheses, as prctl(PR_SET_NAME) allows.
	stat := []byte("4242 (de caf) (wrk)) S 1 4242 4242 0 -1 4194560 311 0 0 0 150 25 7 3 20 0 5 0 1234 1 2 3\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1750 * time.Millisecond; got != want {
		t.Errorf("utime 150 + stime 25 ticks = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
	// The real thing parses too (its value may still be under one tick).
	if own, err := os.ReadFile("/proc/self/stat"); err != nil {
		t.Error(err)
	} else if _, err := parseStatCPU(own); err != nil {
		t.Error(err)
	}
	kb, err := parseStatusKB([]byte("Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n"), "VmHWM")
	if err != nil || kb != 20480 {
		t.Errorf("VmHWM = %d, %v", kb, err)
	}
	if mb := familyRSSMB(0); mb <= 0 {
		t.Errorf("own peak RSS = %v MB", mb)
	}
}

// specNames reads the workload and metric names BENCHMARK.json promises.
func specNames(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range sp.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range sp.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s:\n  emitted   %v\n  in BENCHMARK.json %v", what, got, want)
	}
}

// TestEndToEndSmoke runs the untraced measurement for a fraction of a second
// against a real worker: the output checks must hold and the metrics must be
// the ones BENCHMARK.json names.
func TestEndToEndSmoke(t *testing.T) {
	workloads, endToEndNames, _ := specNames(t)
	for _, name := range workloads {
		if _, err := newWorkload(name, 1); err != nil {
			t.Errorf("BENCHMARK.json lists a workload the harness cannot run: %v", err)
		}
	}
	for _, name := range []string{"xmit_n1", "watchdog_down"} {
		wl, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := endToEnd(wl, 0, 200*time.Millisecond, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		sameNames(t, name+" end-to-end metrics", metricNames(res.Metrics), endToEndNames)
		for metric, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, metric, m.Value)
			}
		}
	}
}

// TestOutputChecksCatchLoss: a check must fail when the worker's side of the
// ledger and the workload's own disagree.
func TestOutputChecksCatchLoss(t *testing.T) {
	wl, err := newWorkload("xmit_n32", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.setup(); err != nil {
		t.Fatal(err)
	}
	defer wl.close()
	before := wl.observe()
	if _, ops, failed := wl.sample(nil, time.Now()); ops != batchN || failed != 0 {
		t.Fatalf("sample: %d ops, %d failed", ops, failed)
	}
	after := wl.observe()
	if bad := wl.check(before, after); len(bad) != 0 {
		t.Fatalf("honest window failed its checks: %v", bad)
	}
	after.t.served++ // the workload believes one more call was served than the worker ran
	if bad := wl.check(before, after); len(bad) != 3 {
		t.Fatalf("a lost call tripped %d checks, want 3 (served, cell, bytes): %v", len(bad), bad)
	}
}

// TestPerLayerSmoke runs the traced measurement briefly: every per-layer
// metric BENCHMARK.json names is emitted, the span file is written and
// parses, and the child spans tile the op.
func TestPerLayerSmoke(t *testing.T) {
	_, _, perLayerNames := specNames(t)
	wl, err := newWorkload("xmit_n32", 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := perLayer(wl, "xmit_n32", 2, 0, 400*time.Millisecond, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run: %d of %d ops failed", res.Failed, res.Attempted)
	}
	sameNames(t, "per-layer metrics", metricNames(res.Metrics), perLayerNames)
	if r := res.Metrics["op.self_ratio"].Value; r > 0.05 {
		t.Errorf("op.self_ratio = %v: child spans leave more than 5%% of the op uncovered", r)
	}
	if got := res.Metrics["xpc.worker.served_calls_per_op"].Value; got != 1 {
		t.Errorf("xpc.worker.served_calls_per_op = %v, want 1", got)
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace-xmit_n32.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Ops == 0 || len(tf.Spans) == 0 || tf.Spans[0].Name != "op" || tf.Spans[1].Parent != 0 {
		t.Errorf("span file: %d ops, %d spans, first %+v", tf.Ops, len(tf.Spans), tf.Spans[:min(2, len(tf.Spans))])
	}
}
