//go:build unix

package xpc

import (
	"strings"
	"testing"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/trace"
)

// layoutCase is one header the worker is handed: a planned layout, edited
// before the header is written (edit) or after (scribble), over a region of
// the planned size less short bytes. want is the error text parseLayout
// must report, or empty when it must accept the header.
type layoutCase struct {
	name                                string
	payload, lanes, entries, traceEntry int
	edit                                func(l *layout)
	scribble                            func(mem []byte)
	short                               int
	want                                string
}

func layoutCases() []layoutCase {
	const page = 4 << 10
	return []layoutCase{
		{name: "valid", payload: page, lanes: 2, entries: 4},
		{name: "valid traced", payload: page, lanes: 2, entries: 4, traceEntry: 4},
		{name: "zeroed header", payload: page, lanes: 2, entries: 4,
			scribble: func(mem []byte) { clear(mem[:layoutHdrSize]) }, want: "layout magic 0x0,"},
		{name: "other version", payload: page, lanes: 2, entries: 4,
			scribble: func(mem []byte) { layoutAt(mem).magic.Add(1) }, want: "layout magic"},
		{name: "version 1", payload: page, lanes: 2, entries: 4,
			scribble: func(mem []byte) { layoutAt(mem).magic.Store(0x4443_464C_4159_0001) }, want: "layout magic 0x4443464c41590001"},
		{name: "other handler table", payload: page, lanes: 2, entries: 4,
			scribble: func(mem []byte) { layoutAt(mem).digest.Add(1) }, want: "handler table digest"},
		{name: "word past the region", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.payload.n = l.trace.end() + 1 }, want: "payload length"},
		{name: "region shorter than its areas", payload: page, lanes: 2, entries: 4, short: 1,
			want: "trace offset"},
		{name: "trace area one byte past the region", payload: page, lanes: 2, entries: 4, traceEntry: 4, short: 1,
			want: "trace area"},
		{name: "payload over the header", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.payload.off = 0 }, want: "payload area at 0 overlaps"},
		{name: "state over the payload", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.state.off = l.payload.off }, want: "state area"},
		{name: "lanes over the state", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.lanes.off -= 64 }, want: "lane area"},
		{name: "misaligned state window", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.state.off += 8 }, want: "not cache-line aligned"},
		{name: "state area below the registry", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.state.n = registry.StateBytes() - 8 }, want: "state area of"},
		{name: "one lane", payload: page, lanes: 1, entries: 4, want: "lane count 1 outside"},
		{name: "lanes at MaxProcLanes+1", payload: page, lanes: MaxProcLanes + 1, entries: 4},
		{name: "lanes at MaxProcLanes+2", payload: page, lanes: MaxProcLanes + 2, entries: 4, want: "lane count 66 outside"},
		{name: "descriptor entries not a power of two", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.descEntries = 3 }, want: "descriptor entries 3"},
		{name: "descriptor entries past the bound", payload: 4 << 20, lanes: 2, entries: 4,
			edit: func(l *layout) { l.descEntries = 2 << 20 }, want: "descriptor entries 2097152"},
		{name: "slot size at its floor", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.slotSize, l.lanes.n = 8, laneRegionBytes(2, 4, 8) }},
		{name: "slot size below its floor", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.slotSize, l.lanes.n = 7, laneRegionBytes(2, 4, 7) }, want: "slot size 7"},
		{name: "slot size past its ceiling", payload: 2 << 20, lanes: 2, entries: 4,
			edit: func(l *layout) { l.slotSize = 1<<20 + 1 }, want: "slot size 1048577"},
		{name: "lane area short of its rings", payload: page, lanes: 2, entries: 4,
			edit: func(l *layout) { l.lanes.n -= 64 }, want: "lane area of"},
		{name: "trace entries at their floor", payload: page, lanes: 2, entries: 4, traceEntry: 2},
		{name: "trace entries below their floor", payload: page, lanes: 2, entries: 4, traceEntry: 1, want: "trace entries 1 "},
		{name: "trace entries at MaxTraceEntries", payload: page, lanes: 2, entries: 4, traceEntry: MaxTraceEntries},
		{name: "trace entries past MaxTraceEntries", payload: page, lanes: 2, entries: 4, traceEntry: 2 * MaxTraceEntries,
			want: "trace entries 65536"},
		{name: "trace entries not a power of two", payload: page, lanes: 2, entries: 4, traceEntry: 3, want: "trace entries 3 "},
		{name: "trace rings short of the lanes", payload: page, lanes: 2, entries: 4, traceEntry: 4,
			edit: func(l *layout) { l.traceRings-- }, want: "trace rings 2"},
		{name: "trace entries without rings", payload: page, lanes: 2, entries: 4, traceEntry: 4,
			edit: func(l *layout) { l.traceRings = 0 }, want: "no trace rings"},
		{name: "trace area short of its rings", payload: page, lanes: 2, entries: 4, traceEntry: 4,
			edit: func(l *layout) { l.trace.n -= 64 }, want: "trace area of"},
	}
}

// region plans tc's layout, writes its header over an aligned region of the
// planned size (less tc.short bytes) and applies tc's edits.
func (tc layoutCase) region() []byte {
	l := planLayout(tc.payload, tc.lanes, tc.entries, tc.traceEntry)
	mem := alignedRegion(l.trace.end() - tc.short)
	if tc.edit != nil {
		tc.edit(&l)
	}
	layoutAt(mem).store(l, 0)
	if tc.scribble != nil {
		tc.scribble(mem)
	}
	return mem
}

// TestParseLayout: the worker's one check of the header accepts the planned
// layouts — each bound at its limit included — and refuses every field one
// step past its bound, every overlap, misalignment and overrun, naming the
// field it refused.
func TestParseLayout(t *testing.T) {
	for _, tc := range layoutCases() {
		t.Run(tc.name, func(t *testing.T) {
			mem := tc.region()
			l, err := parseLayout(mem)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused a valid layout: %v", err)
			case tc.want == "":
				checkCarves(t, mem, l)
			case err == nil:
				t.Fatalf("accepted %+v, want an error containing %q", l, tc.want)
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
	if _, err := parseLayout(alignedRegion(layoutHdrSize - 8)); err == nil {
		t.Fatal("accepted a region shorter than the header")
	}
}

// checkCarves asserts what an accepted layout promises the worker: every
// area inside the mapping, cache-line aligned and disjoint from the header
// and from each other, and every carve the worker makes over them succeeds.
func checkCarves(t *testing.T, mem []byte, l layout) {
	t.Helper()
	end := layoutHdrSize
	for _, a := range []area{l.payload, l.state, l.lanes, l.trace} {
		if a.off%64 != 0 || a.off < end || a.n < 0 || a.end() > len(mem) {
			t.Fatalf("accepted area %+v: misaligned, overlapping or outside the %dB region (%+v)", a, len(mem), l)
		}
		end = a.end()
	}
	if _, err := registry.BindState(l.state.of(mem)); err != nil {
		t.Fatalf("accepted state area does not bind: %v", err)
	}
	if _, _, err := carveLanes(l.lanes.of(mem), l.laneCount, l.descEntries, l.slotSize); err != nil {
		t.Fatalf("accepted lane area does not carve: %v", err)
	}
	if l.traceRings > 0 {
		if _, err := trace.CarveRings(l.trace.of(mem), l.traceRings, l.traceEntries); err != nil {
			t.Fatalf("accepted trace area does not carve: %v", err)
		}
	}
}

// FuzzLayout writes arbitrary header bytes over a fixed-size mapping:
// parseLayout either refuses them or returns areas the worker can carve —
// inside the mapping, aligned and disjoint — and never panics. The seeds
// are the planned header and, under testdata/fuzz, the headers
// TestParseLayout refuses.
func FuzzLayout(f *testing.F) {
	l0 := planLayout(4<<10, 2, 4, 4)
	size := l0.trace.end()
	seed := alignedRegion(size)
	layoutAt(seed).store(l0, 0)
	f.Add(append([]byte(nil), seed[:layoutHdrSize]...))
	f.Fuzz(func(t *testing.T, hdr []byte) {
		mem := alignedRegion(size)
		copy(mem[:layoutHdrSize], hdr)
		if l, err := parseLayout(mem); err == nil {
			checkCarves(t, mem, l)
		}
	})
}
