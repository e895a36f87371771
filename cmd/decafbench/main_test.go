package main

import (
	"flag"
	"strings"
	"testing"
)

// TestValidateFlagMatrix pins the CLI's cross-flag rules: every accepted
// combination must validate, and every rejection must name the fix.
func TestValidateFlagMatrix(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		f       benchFlags
		wantErr string // substring; "" means valid
	}{
		{"defaults", benchFlags{Table: "all", Transport: "all"}, ""},
		{"unknown table", benchFlags{Table: "5", Transport: "all"}, "unknown table"},
		{"unknown transport", benchFlags{Table: "all", Transport: "uds"}, "unknown transport"},
		{"proc needs proc table", benchFlags{Table: "all", Transport: "proc"}, "requires -table recovery, contend"},
		{"proc on table 3", benchFlags{Table: "3", Transport: "proc"}, "requires -table recovery, contend"},
		{"async table gone", benchFlags{Table: "async", Transport: "all"}, "unknown table"},
		{"batch table gone", benchFlags{Table: "batch", Transport: "all"}, "unknown table"},
		{"zerocopy table gone", benchFlags{Table: "zerocopy", Transport: "all"}, "unknown table"},
		{"proc table gone", benchFlags{Table: "proc", Transport: "proc"}, "unknown table"},
		{"async transport gone", benchFlags{Table: "recovery", Transport: "async"}, "unknown transport"},
		{"proc recovery", benchFlags{Table: "recovery", Transport: "proc"}, ""},
		{"proc contend", benchFlags{Table: "contend", Transport: "proc"}, ""},
		{"proc recovery json", benchFlags{Table: "recovery", Transport: "proc", JSON: true}, ""},
		{"json on table 1", benchFlags{Table: "1", Transport: "all", JSON: true}, "-json supports"},
		{"json on all", benchFlags{Table: "all", Transport: "all", JSON: true}, "-json supports"},
		{"bad restart policy", benchFlags{Table: "recovery", Transport: "all", RestartPolicy: "eventually"}, "unknown restart policy"},
		{"good restart policy", benchFlags{Table: "recovery", Transport: "all", RestartPolicy: "backoff", Set: set("restart-policy")}, ""},
		{"faults off-table", benchFlags{Table: "contend", Transport: "all", Set: set("faults")}, "-faults requires -table recovery"},
		{"restart-policy off-table", benchFlags{Table: "contend", Transport: "all", RestartPolicy: "backoff", Set: set("restart-policy")}, "-restart-policy requires -table recovery"},
		{"submitters off-table", benchFlags{Table: "recovery", Transport: "all", Set: set("submitters")}, "-submitters requires -table contend"},
		{"sync alias", benchFlags{Table: "recovery", Transport: "sync"}, ""},
		{"batched contend", benchFlags{Table: "contend", Transport: "batched"}, ""},
	}
	for _, tc := range cases {
		err := tc.f.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: validate() = %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
	// Flags of deleted tables and transports are no longer defined, so the
	// flag package rejects them as unknown and exits 2: -queue sized the
	// async transport's ring, -batch, -slots and -trace shaped the batch,
	// zerocopy and proc tables.
	for _, name := range []string{"queue", "batch", "slots", "trace"} {
		if flag.Lookup(name) != nil {
			t.Errorf("-%s is still a defined flag", name)
		}
	}
}

// TestTransportNote: "-transport all" runs that would silently omit the
// process-separated rows must announce the omission; explicit transports and
// proc-free tables stay quiet.
func TestTransportNote(t *testing.T) {
	noted := []benchFlags{
		{Table: "all", Transport: "all"},
		{Table: "contend", Transport: "all"},
		{Table: "recovery", Transport: ""},
		{Table: "recovery", Transport: "all"},
	}
	for _, f := range noted {
		note := f.transportNote()
		if !strings.Contains(note, "-transport proc") {
			t.Errorf("table=%q transport=%q: note %q does not point at -transport proc", f.Table, f.Transport, note)
		}
	}
	quiet := []benchFlags{
		{Table: "recovery", Transport: "proc"},
		{Table: "recovery", Transport: "batched"},
		{Table: "3", Transport: "all"},
		{Table: "1", Transport: "all"},
		{Table: "casestudy", Transport: "all"},
	}
	for _, f := range quiet {
		if note := f.transportNote(); note != "" {
			t.Errorf("table=%q transport=%q: unexpected note %q", f.Table, f.Transport, note)
		}
	}
}
