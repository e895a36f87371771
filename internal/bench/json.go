package bench

import (
	"encoding/json"
	"io"
)

// writeTableJSON emits one table's metrics as a machine-readable envelope:
// {"table": <name>, "rows": [...]}. Durations marshal as nanoseconds. CI
// pipes `decafbench -table recovery|contend -json` into
// scripts/check_bench.py.
func writeTableJSON(w io.Writer, name string, rows any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Table string `json:"table"`
		Rows  any    `json:"rows"`
	}{Table: name, Rows: rows})
}

// PrintContendTableJSON runs the concurrent-submission comparison and emits
// JSON.
func PrintContendTableJSON(w io.Writer, cfg ContendTableConfig) error {
	rows, err := RunContendTable(cfg.fill())
	if err != nil {
		return err
	}
	return writeTableJSON(w, "contend", rows)
}

// PrintRecoveryTableJSON runs the fault-tolerance comparison and emits JSON.
func PrintRecoveryTableJSON(w io.Writer, cfg RecoveryTableConfig) error {
	rows, err := RunRecoveryTable(cfg.fill())
	if err != nil {
		return err
	}
	return writeTableJSON(w, "recovery", rows)
}
