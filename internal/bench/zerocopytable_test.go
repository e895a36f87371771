package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestZeroCopyTableDirectPathCopiesNothing is the acceptance check for the
// payload ring: on every driver/workload cell the direct rows copy ~0
// payload bytes per packet while the copy rows marshal the full frame, at
// equal crossings-per-packet — the payload path changed, the crossing
// structure did not.
func TestZeroCopyTableDirectPathCopiesNothing(t *testing.T) {
	cfg := ZeroCopyTableConfig{
		NetperfDuration: 2 * time.Second,
		OfferedMbps:     2.5,
		BatchN:          16,
		QueueDepth:      128,
		Transports:      "async",
	}
	rows, err := RunZeroCopyTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ copy, direct *ZeroCopyRow }
	cells := map[string]*cell{}
	for i := range rows {
		r := &rows[i]
		key := r.Driver + "/" + r.Workload
		if cells[key] == nil {
			cells[key] = &cell{}
		}
		if r.Payload == "copy" {
			cells[key].copy = r
		} else {
			cells[key].direct = r
		}
	}
	if len(cells) != 3 {
		t.Fatalf("expected 3 driver/workload cells, got %d", len(cells))
	}
	for key, c := range cells {
		if c.copy == nil || c.direct == nil {
			t.Fatalf("%s: missing payload rows", key)
		}
		// Copy path: the full frame (1462B + the XDR length prefix) is
		// marshaled per packet.
		if c.copy.CopiedBPerPkt < 1000 {
			t.Errorf("%s: copy path marshaled only %.1f B/pkt", key, c.copy.CopiedBPerPkt)
		}
		if c.copy.DirectBPerPkt != 0 {
			t.Errorf("%s: copy path rode the ring (%.1f B/pkt)", key, c.copy.DirectBPerPkt)
		}
		// Direct path: payload bytes stay in the ring; nothing falls back
		// with a default-sized ring, so bytes copied per packet is exactly 0.
		if c.direct.CopiedBPerPkt != 0 {
			t.Errorf("%s: direct path still copied %.1f B/pkt", key, c.direct.CopiedBPerPkt)
		}
		if c.direct.DirectBPerPkt < 1000 {
			t.Errorf("%s: direct path moved only %.1f B/pkt through the ring", key, c.direct.DirectBPerPkt)
		}
		if c.direct.RingExhausted != 0 {
			t.Errorf("%s: default ring exhausted %d times", key, c.direct.RingExhausted)
		}
		// No regression in crossing structure: copy and direct share the
		// transport and coalescing size, so X/pkt must be comparable.
		if c.copy.XPerPacket == 0 || c.direct.XPerPacket == 0 {
			t.Fatalf("%s: zero crossings-per-packet", key)
		}
		ratio := c.direct.XPerPacket / c.copy.XPerPacket
		if math.Abs(ratio-1) > 0.25 {
			t.Errorf("%s: X/pkt diverged: copy %.3f direct %.3f",
				key, c.copy.XPerPacket, c.direct.XPerPacket)
		}
		// Delivered throughput survives the payload-path change.
		if c.direct.ThroughputMbps < c.copy.ThroughputMbps*0.8 {
			t.Errorf("%s: direct throughput %.2f regressed vs copy %.2f",
				key, c.direct.ThroughputMbps, c.copy.ThroughputMbps)
		}
	}
}

// TestZeroCopyTableExhaustionDegradesToCopy runs the direct path with a
// deliberately tiny ring: exhaustion must fall back to the copy path —
// visible in the counters — without dropping or blocking the workload.
func TestZeroCopyTableExhaustionDegradesToCopy(t *testing.T) {
	cfg := ZeroCopyTableConfig{
		NetperfDuration: time.Second,
		OfferedMbps:     2.5,
		BatchN:          16,
		QueueDepth:      128,
		RingSlots:       4,
		Transports:      "async",
	}
	rows, err := RunZeroCopyTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawExhaustion := false
	for _, r := range rows {
		if r.Payload != "direct" {
			continue
		}
		if r.Packets == 0 {
			t.Errorf("%s/%s: no packets delivered under a tiny ring", r.Driver, r.Workload)
		}
		if r.RingExhausted > 0 {
			sawExhaustion = true
			if r.CopiedBPerPkt == 0 {
				t.Errorf("%s/%s: exhausted %d times but copied nothing (fallback not taken)",
					r.Driver, r.Workload, r.RingExhausted)
			}
		}
	}
	if !sawExhaustion {
		t.Fatal("a 4-slot ring under a 16-deep pipeline never exhausted")
	}
}

// virtualOnly zeroes the fields of a row the virtual clock does not drive:
// the Go collector's counters, and the payload ring's peak occupancy, which
// follows how far the async service goroutine lags the producer in real time.
func virtualOnly(r ZeroCopyRow) ZeroCopyRow {
	r.GCCycles, r.GCPauseTotalMs, r.GCPauseMaxMs, r.RingPeak = 0, 0, 0, 0
	return r
}

// TestZeroCopyTableDeterministic runs the same configuration twice: every
// row must match exactly in everything the virtual clock drives.
func TestZeroCopyTableDeterministic(t *testing.T) {
	cfg := ZeroCopyTableConfig{
		NetperfDuration: 500 * time.Millisecond,
		OfferedMbps:     2.5,
		BatchN:          8,
		QueueDepth:      64,
		Transports:      "async",
	}
	a, err := RunZeroCopyTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunZeroCopyTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if virtualOnly(a[i]) != virtualOnly(b[i]) {
			t.Errorf("row %d differs across runs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestPrintZeroCopyTableRenders smoke-tests the rendering and JSON paths.
func TestPrintZeroCopyTableRenders(t *testing.T) {
	cfg := ZeroCopyTableConfig{
		NetperfDuration: 500 * time.Millisecond,
		OfferedMbps:     2.5,
		BatchN:          8,
		QueueDepth:      64,
		Transports:      "async",
	}
	var buf bytes.Buffer
	if err := PrintZeroCopyTable(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CopiedB/pkt", "direct", "copy", "async(q64,b8)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := PrintZeroCopyTableJSON(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Table string        `json:"table"`
		Rows  []ZeroCopyRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &envelope); err != nil {
		t.Fatalf("JSON output unparseable: %v\n%s", err, buf.String())
	}
	if envelope.Table != "zerocopy" || len(envelope.Rows) == 0 {
		t.Fatalf("JSON envelope = %q with %d rows", envelope.Table, len(envelope.Rows))
	}
}
