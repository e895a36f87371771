package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestZeroCopyTableExhaustionDegradesToCopy runs the direct path with a
// deliberately tiny ring: exhaustion must fall back to the copy path —
// visible in the counters — without dropping or blocking the workload.
func TestZeroCopyTableExhaustionDegradesToCopy(t *testing.T) {
	cfg := ZeroCopyTableConfig{
		NetperfDuration: time.Second,
		OfferedMbps:     2.5,
		BatchN:          16,
		RingSlots:       4,
		Transports:      "batched",
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
// the Go collector's counters.
func virtualOnly(r ZeroCopyRow) ZeroCopyRow {
	r.GCCycles, r.GCPauseTotalMs, r.GCPauseMaxMs = 0, 0, 0
	return r
}

// TestZeroCopyTableDeterministic runs the same configuration twice: every
// row must match exactly in everything the virtual clock drives.
func TestZeroCopyTableDeterministic(t *testing.T) {
	cfg := ZeroCopyTableConfig{
		NetperfDuration: 500 * time.Millisecond,
		OfferedMbps:     2.5,
		BatchN:          8,
		Transports:      "batched",
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
		Transports:      "batched",
	}
	var buf bytes.Buffer
	if err := PrintZeroCopyTable(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CopiedB/pkt", "direct", "copy", "batched(8)"} {
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
