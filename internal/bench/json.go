package bench

import (
	"encoding/json"
	"io"
)

// writeTableJSON emits one table's metrics as a machine-readable envelope:
// {"table": <name>, "rows": [...]}. Durations marshal as nanoseconds. CI
// runs `decafbench -table zerocopy -json` as a smoke check, so perf PRs
// inherit a parseable baseline.
func writeTableJSON(w io.Writer, name string, rows any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Table string `json:"table"`
		Rows  any    `json:"rows"`
	}{Table: name, Rows: rows})
}

// PrintBatchTableJSON runs the batched-crossing comparison and emits JSON.
func PrintBatchTableJSON(w io.Writer, cfg BatchTableConfig) error {
	rows, err := RunBatchTable(cfg)
	if err != nil {
		return err
	}
	return writeTableJSON(w, "batch", rows)
}

// PrintZeroCopyTableJSON runs the zero-copy comparison and emits JSON.
func PrintZeroCopyTableJSON(w io.Writer, cfg ZeroCopyTableConfig) error {
	rows, err := RunZeroCopyTable(cfg.fill())
	if err != nil {
		return err
	}
	return writeTableJSON(w, "zerocopy", rows)
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
