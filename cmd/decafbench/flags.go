package main

import (
	"fmt"
	"strings"

	"decafdrivers/internal/bench"
)

// validTables and validTransports are the accepted flag values; anything
// else is rejected with a message listing them.
var (
	validTables     = []string{"1", "2", "3", "4", "casestudy", "recovery", "contend", "all"}
	validTransports = []string{"all", "per-call", "sync", "batched", "batch", "proc"}
	jsonTables      = []string{"recovery", "contend"}
	// procTables are the tables with process-separated rows: the only ones
	// -transport proc may select.
	procTables = []string{"recovery", "contend"}
)

func oneOf(value string, valid []string) bool {
	for _, v := range valid {
		if value == v {
			return true
		}
	}
	return false
}

// benchFlags is the cross-flag state the CLI validates before running
// anything, extracted from the flag set so the whole matrix is unit-testable
// without exec'ing the binary.
type benchFlags struct {
	Table         string
	Transport     string
	JSON          bool
	RestartPolicy string
	// Set holds the flag names explicitly provided on the command line
	// (flag.Visit), for rules that reject an explicit flag the selected
	// table would silently ignore.
	Set map[string]bool
}

// validate returns the first rule violation, phrased with the accepted
// values so the fix is in the message. A nil error means the combination
// runs.
func (f benchFlags) validate() error {
	if !oneOf(f.Table, validTables) {
		return fmt.Errorf("unknown table %q (valid: %s)", f.Table, strings.Join(validTables, ", "))
	}
	if !oneOf(f.Transport, validTransports) {
		return fmt.Errorf("unknown transport %q (valid: %s)", f.Transport, strings.Join(validTransports, ", "))
	}
	// Only the procTables have proc rows: reject the combination for any
	// other table (including "all", whose paper tables have no transport
	// rows) instead of silently selecting nothing.
	if f.Transport == "proc" && !oneOf(f.Table, procTables) {
		return fmt.Errorf("-transport %s requires -table %s (-table %s has no %[1]s rows)",
			f.Transport, strings.Join(procTables, ", "), f.Table)
	}
	if f.JSON && !oneOf(f.Table, jsonTables) {
		return fmt.Errorf("-json supports -table %s (got %q)", strings.Join(jsonTables, ", "), f.Table)
	}
	if f.RestartPolicy != "" && !oneOf(f.RestartPolicy, bench.RestartPolicies) {
		return fmt.Errorf("unknown restart policy %q (valid: %s)", f.RestartPolicy, strings.Join(bench.RestartPolicies, ", "))
	}
	// The fault-injection flags shape only the recovery table: reject them
	// elsewhere instead of silently ignoring them.
	for _, name := range []string{"faults", "restart-policy"} {
		if f.Set[name] && f.Table != "recovery" {
			return fmt.Errorf("-%s requires -table recovery (got -table %s)", name, f.Table)
		}
	}
	// Likewise the contention flags shape only the contend storm.
	for _, name := range []string{"submitters", "flushes"} {
		if f.Set[name] && f.Table != "contend" {
			return fmt.Errorf("-%s requires -table contend (got -table %s)", name, f.Table)
		}
	}
	return nil
}

// transportNote returns the explicit coverage note a run should print, or
// "". "-transport all" never includes the process-separated transport
// (spawning real worker processes must be requested), and before this note
// existed that exclusion was silent: a `-table all` run looked like full
// transport coverage while the proc rows were missing.
func (f benchFlags) transportNote() string {
	if f.Transport != "all" && f.Transport != "" {
		return ""
	}
	covers := false
	for _, t := range procTables {
		if f.Table == t || f.Table == "all" {
			covers = true
		}
	}
	if !covers {
		return ""
	}
	return "note: -transport all covers the in-process transports only; add -transport proc\n" +
		"(with -table recovery or contend) for the process-separated rows."
}
