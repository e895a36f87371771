//go:build unix

package bench

import (
	"math"
	"os"
	"testing"
	"time"

	"decafdrivers/internal/xpc"
)

// TestMain routes the re-exec'd test binary into the decaf worker loop: the
// proc rows spawn the current executable as their worker process.
func TestMain(m *testing.M) {
	xpc.MaybeRunWorker()
	os.Exit(m.Run())
}

// TestZeroCopyTableDirectPathCopiesNothing is the acceptance check for the
// payload ring: on every driver/workload cell the direct rows copy ~0
// payload bytes per packet while the copy rows marshal the full frame, at
// equal crossings-per-packet — the payload path changed, the crossing
// structure did not. It runs the proc rows, where the ring is memory the
// worker process maps.
func TestZeroCopyTableDirectPathCopiesNothing(t *testing.T) {
	cfg := ZeroCopyTableConfig{
		NetperfDuration: 2 * time.Second,
		OfferedMbps:     2.5,
		BatchN:          16,
		Transports:      "proc",
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
