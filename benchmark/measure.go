package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// subWindows is how many equal parts the measured window is cut into. Every
// end-to-end figure is the better-side quartile of its per-part values (see
// betterQuartile), so another tenant's busy spell or a slow collection that
// covers even half the window does not move the report.
const subWindows = 10

// setupRuns is how many times a run sets the system up from nothing;
// setup_s is the median. A fork+exec of the worker is a few milliseconds
// and varies run to run far more than the steady state does. Not more than
// this: every torn-down transport leaves its shm mapping behind, and past
// some 45 set-ups in one process a set-up with a mapped payload ring takes
// ten times as long (README, "How a run is made steady").
const setupRuns = 21

// window is what one uninterrupted measuring interval yields.
type window struct {
	wall        time.Duration
	ops, failed uint64
	latNs       []int64 // ascending; aliases the caller's buffer
	cpu         time.Duration
	rssMB       float64
	mem0, mem1  runtime.MemStats
	obs0, obs1  observed
	mismatches  []string
}

func (w *window) opsPerSec() float64  { return float64(w.ops) / w.wall.Seconds() }
func (w *window) cpuUsPerOp() float64 { return float64(w.cpu) / 1e3 / float64(w.ops) }
func (w *window) allocsPerOp() float64 {
	return float64(w.mem1.Mallocs-w.mem0.Mallocs) / float64(w.ops)
}

// latUs reports a latency percentile in microseconds under the
// tailPercentile rule, and the percentile it actually is.
func (w *window) latUs(pct float64) (us, got float64) {
	v, got := tailPercentile(w.latNs, pct)
	return float64(v) / 1e3, got
}

// runWindow drives wl closed-loop for d and measures it. buf holds the
// latency samples and is allocated by the caller, outside the window, so the
// window's allocation count is the system's own. Samples beyond cap(buf) are
// still counted as ops but not kept.
func runWindow(wl workload, d time.Duration, tr *tracer, buf []int64) window {
	var w window
	lat := buf[:0]
	pt := wl.base().pt
	w.obs0 = wl.observe()
	cpu0 := familyCPU(pt.WorkerPID())
	runtime.ReadMemStats(&w.mem0)

	begin := time.Now()
	deadline := begin.Add(d)
	start := begin
	for {
		tr.begin(start)
		end, ops, failed := wl.sample(tr, start)
		tr.end(end)
		w.ops += uint64(ops)
		w.failed += uint64(failed)
		if len(lat) < cap(lat) {
			lat = append(lat, int64(end.Sub(start)))
		}
		if !end.Before(deadline) {
			w.wall = end.Sub(begin)
			break
		}
		// Untraced, the next sample starts where this one ended: the loop
		// is the op. Traced, folding the spans took time that belongs to
		// no op, so the clock is read again.
		start = end
		if tr != nil {
			start = time.Now()
		}
	}

	runtime.ReadMemStats(&w.mem1)
	pid := pt.WorkerPID()
	w.cpu = familyCPU(pid) - cpu0
	w.rssMB = familyRSSMB(pid)
	w.obs1 = wl.observe()
	w.mismatches = wl.check(w.obs0, w.obs1)
	slices.Sort(lat)
	w.latNs = lat
	return w
}

// warm runs the workload for d and throws the result away: a fresh worker
// runs well below its steady rate for its first couple of seconds.
func warm(wl workload, d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	deadline := start.Add(d)
	for start.Before(deadline) {
		start, _, _ = wl.sample(nil, start)
	}
}

// latBuf makes a sample buffer for a window of d, sized for 300k samples a
// second: three times what the fastest workload produces on the machine this
// was written on. Every page is touched now, so that the buffer weighs the
// same in peak_rss_mb however many samples a run happens to record.
func latBuf(d time.Duration) []int64 {
	buf := make([]int64, int(d.Seconds()*3e5)+1024)
	for i := range buf {
		buf[i] = 1
	}
	return buf[:0]
}

// timedSetup sets the workload up from nothing once and returns the wall
// time that took.
func timedSetup(wl workload) (float64, error) {
	t0 := time.Now()
	if err := wl.setup(); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// medianSetup closes the workload and sets it up again until there are
// setupRuns times, first among them, and returns their median. It leaves the
// workload set up.
func medianSetup(wl workload, first float64) (float64, error) {
	times := append(make([]float64, 0, setupRuns), first)
	for len(times) < setupRuns {
		wl.close()
		t, err := timedSetup(wl)
		if err != nil {
			return 0, err
		}
		times = append(times, t)
	}
	return median(times), nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tallyWindow adds a window's ops and failures to the result. An output
// check that does not hold cannot be pinned on one op, so each counts as one
// more failure.
func (r *result) tallyWindow(w *window, log io.Writer, label string) {
	r.Attempted += w.ops
	r.Failed += w.failed
	for _, m := range w.mismatches {
		r.Failed++
		fmt.Fprintf(log, "  output check failed (%s): %s\n", label, m)
	}
}

// endToEnd measures the end-to-end metrics of one workload, untraced.
func endToEnd(wl workload, warmup, seconds time.Duration, log io.Writer) (result, error) {
	firstSetup, err := timedSetup(wl)
	if err != nil {
		return result{}, err
	}
	defer wl.close()
	warm(wl, warmup)

	part := seconds / subWindows
	buf := latBuf(part)
	var res result
	var opsS, p50, p99, cpu, allocs []float64
	rss, p99Got := 0.0, 99.0
	for i := 0; i < subWindows; i++ {
		w := runWindow(wl, part, nil, buf)
		res.tallyWindow(&w, log, fmt.Sprintf("part %d", i+1))
		opsS = append(opsS, w.opsPerSec())
		v, _ := w.latUs(50)
		p50 = append(p50, v)
		v, got := w.latUs(99)
		p99 = append(p99, v)
		p99Got = min(p99Got, got)
		cpu = append(cpu, w.cpuUsPerOp())
		allocs = append(allocs, w.allocsPerOp())
		rss = max(rss, w.rssMB)
		fmt.Fprintf(log, "  part %d: %d ops, %d samples, %.0f ops/s, p50 %.2f us, p%.2f %.2f us\n",
			i+1, w.ops, len(w.latNs), w.opsPerSec(), p50[i], got, p99[i])
	}
	if p99Got < 99 {
		fmt.Fprintf(log, "  lat_us_p99 fell back as far as p%.2f: a part had fewer than %d samples beyond p99\n", p99Got, minBeyond)
	}
	// The other set-ups come after the window, not before it: the garbage of
	// torn-down systems, collected whenever the collector happens to get to
	// it, would otherwise decide the process's peak RSS (with twenty of them
	// in front, 92 to 109 MB run to run on e1000_netperf, whose steady state
	// needs half that).
	setupS, err := medianSetup(wl, firstSetup)
	if err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {betterQuartile(opsS, true), "1/s"},
		"lat_us_p50":    {betterQuartile(p50, false), "us"},
		"lat_us_p99":    {betterQuartile(p99, false), "us"},
		"cpu_us_per_op": {betterQuartile(cpu, false), "us"},
		"allocs_per_op": {betterQuartile(allocs, false), "count"},
		"peak_rss_mb":   {rss, "MB"},
	}
	return res, nil
}
