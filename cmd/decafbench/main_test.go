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
		{"proc needs proc table", benchFlags{Table: "all", Transport: "proc"}, "requires -table zerocopy, recovery"},
		{"proc on batch table", benchFlags{Table: "batch", Transport: "proc"}, "requires -table zerocopy, recovery"},
		{"async table gone", benchFlags{Table: "async", Transport: "all"}, "unknown table"},
		{"async transport gone", benchFlags{Table: "zerocopy", Transport: "async"}, "unknown transport"},
		{"proc zerocopy", benchFlags{Table: "zerocopy", Transport: "proc"}, ""},
		{"proc recovery", benchFlags{Table: "recovery", Transport: "proc"}, ""},
		{"proc zerocopy json", benchFlags{Table: "zerocopy", Transport: "proc", JSON: true}, ""},
		{"json on table 1", benchFlags{Table: "1", Transport: "all", JSON: true}, "-json supports"},
		{"json on all", benchFlags{Table: "all", Transport: "all", JSON: true}, "-json supports"},
		{"bad restart policy", benchFlags{Table: "recovery", Transport: "all", RestartPolicy: "eventually"}, "unknown restart policy"},
		{"good restart policy", benchFlags{Table: "recovery", Transport: "all", RestartPolicy: "backoff", Set: set("restart-policy")}, ""},
		{"faults off-table", benchFlags{Table: "zerocopy", Transport: "all", Set: set("faults")}, "-faults requires -table recovery"},
		{"restart-policy off-table", benchFlags{Table: "zerocopy", Transport: "all", RestartPolicy: "backoff", Set: set("restart-policy")}, "-restart-policy requires -table recovery"},
		{"sync alias", benchFlags{Table: "batch", Transport: "sync"}, ""},
		{"batched zerocopy", benchFlags{Table: "zerocopy", Transport: "batched"}, ""},
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
	// -queue sized the deleted async transport's ring: it is no longer
	// defined, so the flag package rejects it as unknown and exits 2.
	if flag.Lookup("queue") != nil {
		t.Error("-queue is still a defined flag")
	}
}

// TestTransportNote: "-transport all" runs that would silently omit the
// process-separated rows must announce the omission; explicit transports and
// proc-free tables stay quiet.
func TestTransportNote(t *testing.T) {
	noted := []benchFlags{
		{Table: "all", Transport: "all"},
		{Table: "contend", Transport: "all"},
		{Table: "zerocopy", Transport: ""},
		{Table: "recovery", Transport: "all"},
	}
	for _, f := range noted {
		note := f.transportNote()
		if !strings.Contains(note, "-transport proc") {
			t.Errorf("table=%q transport=%q: note %q does not point at -transport proc", f.Table, f.Transport, note)
		}
	}
	quiet := []benchFlags{
		{Table: "zerocopy", Transport: "proc"},
		{Table: "recovery", Transport: "batched"},
		{Table: "batch", Transport: "all"},
		{Table: "1", Transport: "all"},
		{Table: "casestudy", Transport: "all"},
	}
	for _, f := range quiet {
		if note := f.transportNote(); note != "" {
			t.Errorf("table=%q transport=%q: unexpected note %q", f.Table, f.Transport, note)
		}
	}
}
