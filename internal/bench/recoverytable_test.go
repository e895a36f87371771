package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestRecoveryTableScenarios is the acceptance check for the recovery
// subsystem's benchmark: armed supervision costs zero steady-state
// crossings (off and armed rows identical), and the fault scenario recovers
// with bounded latency, a replayed journal, and no error surfacing.
func TestRecoveryTableScenarios(t *testing.T) {
	cfg := RecoveryTableConfig{
		NetperfDuration: 2 * time.Second,
		OfferedMbps:     2.5,
		BatchN:          16,
		FaultNth:        20,
		Policy:          "backoff",
		Transports:      "batched",
	}
	rows, err := RunRecoveryTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ off, armed, fault *RecoveryRow }
	cells := map[string]*cell{}
	for i := range rows {
		r := &rows[i]
		key := r.Driver + "/" + r.Workload
		if cells[key] == nil {
			cells[key] = &cell{}
		}
		switch r.Scenario {
		case "off":
			cells[key].off = r
		case "armed":
			cells[key].armed = r
		case "fault":
			cells[key].fault = r
		}
	}
	if len(cells) != 2 {
		t.Fatalf("expected 2 driver/workload cells, got %d", len(cells))
	}
	for key, c := range cells {
		if c.off == nil || c.armed == nil || c.fault == nil {
			t.Fatalf("%s: missing scenario rows", key)
		}
		// Steady-state journaling overhead must be zero: identical traffic,
		// identical crossings.
		if c.off.Crossings != c.armed.Crossings || c.off.Packets != c.armed.Packets {
			t.Errorf("%s: supervision changed the steady state: off %d X/%d pkts, armed %d X/%d pkts",
				key, c.off.Crossings, c.off.Packets, c.armed.Crossings, c.armed.Packets)
		}
		if c.armed.Faults != 0 || c.armed.Recoveries != 0 {
			t.Errorf("%s: armed row recovered without a fault: %+v", key, *c.armed)
		}
		// The fault scenario recovered, transparently and boundedly.
		f := c.fault
		if f.Faults == 0 || f.Recoveries == 0 || f.FailStops != 0 {
			t.Errorf("%s: fault row did not recover: %+v", key, *f)
		}
		if f.RecoveryLatencyMs <= 0 || f.RecoveryLatencyMs > 10_000 {
			t.Errorf("%s: recovery latency unbounded: %.3fms", key, f.RecoveryLatencyMs)
		}
		if f.JournalReplayed < 2 {
			t.Errorf("%s: journal replayed %d entries, want probe+ifup", key, f.JournalReplayed)
		}
		if f.TxHeld != f.TxReplayed+f.TxHeldDropped {
			t.Errorf("%s: held accounting broken: %+v", key, *f)
		}
		if f.SlotsReclaimed != 0 {
			t.Errorf("%s: quiesce stranded %d ring slots", key, f.SlotsReclaimed)
		}
		if f.Packets == 0 {
			t.Errorf("%s: fault phase moved no traffic", key)
		}
	}
}

// TestRecoveryTableJSON: the -json envelope for the recovery table is
// parseable and carries the scenario rows (the CI smoke contract).
func TestRecoveryTableJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := RecoveryTableConfig{
		NetperfDuration: 1 * time.Second,
		OfferedMbps:     2.5,
		BatchN:          16,
		FaultNth:        10,
		Transports:      "batched",
	}
	if err := PrintRecoveryTableJSON(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Table string        `json:"table"`
		Rows  []RecoveryRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if env.Table != "recovery" {
		t.Fatalf("table = %q", env.Table)
	}
	if len(env.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 cells x 3 scenarios", len(env.Rows))
	}
	seen := map[string]bool{}
	for _, r := range env.Rows {
		seen[r.Scenario] = true
	}
	for _, s := range []string{"off", "armed", "fault"} {
		if !seen[s] {
			t.Fatalf("missing scenario %q in JSON rows", s)
		}
	}
}

// TestRestartPolicyValidation: the policy names the CLI accepts resolve,
// and anything else is rejected.
func TestRestartPolicyValidation(t *testing.T) {
	for _, name := range RestartPolicies {
		if _, err := restartPolicyFor(name); err != nil {
			t.Fatalf("valid policy %q rejected: %v", name, err)
		}
	}
	if _, err := restartPolicyFor("aggressive"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
