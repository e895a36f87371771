//go:build unix

package workload

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"decafdrivers/internal/drivers/e1000"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/xpc"
)

// TestRetainedFramesSurviveRecycling pins the ownership the packet path's
// recycling must not break: the slice handed to a device's OnTransmit
// observer and the *knet.Packet handed to the RX sink belong to whoever
// receives them. Kept without a copy, each still holds exactly its own
// frame after more than twice the descriptor rings and twice the payload
// ring of further traffic have passed through the same buffers, flights and
// queues — on both NICs, with the data path in the nucleus and in the decaf
// driver, in-process and across a real worker process.
func TestRetainedFramesSurviveRecycling(t *testing.T) {
	// A multiple of 16: the testbed's e1000 interrupts once per 16 frames.
	const frames = 2*e1000.DefaultRxRing + 2*xpc.DefaultRingSlots + 32
	paths := []struct {
		name string
		opts NetOptions
	}{
		{"nucleus", NetOptions{}},
		{"decaf", NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 8, ZeroCopy: true}},
		{"decaf-proc", NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 8, ZeroCopy: true, Proc: true}},
	}
	nics := []struct {
		name string
		boot func(NetOptions) (*Testbed, error)
	}{
		{"e1000", func(o NetOptions) (*Testbed, error) { return NewE1000With(xpc.ModeDecaf, o) }},
		{"rtl8139", func(o NetOptions) (*Testbed, error) { return NewRTL8139With(xpc.ModeDecaf, o) }},
	}
	for _, nic := range nics {
		for _, path := range paths {
			t.Run(nic.name+"/"+path.name, func(t *testing.T) {
				tb, err := nic.boot(path.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer tb.Shutdown()
				var nd *knet.NetDevice
				var inject func([]byte) bool
				var wire [][]byte
				observe := func(f []byte) { wire = append(wire, f) }
				if tb.E1000 != nil {
					nd, inject = tb.E1000.NetDevice(), tb.E1000Dev.InjectRx
					tb.E1000Dev.OnTransmit = observe
				} else {
					nd, inject = tb.RTL.NetDevice(), tb.RTLDev.InjectRx
					tb.RTLDev.OnTransmit = observe
				}
				var sunk []*knet.Packet
				nd.SetRxSink(func(p *knet.Packet) { sunk = append(sunk, p) })

				peer := [6]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}
				// Frame i of a direction is unlike every other frame of the
				// run, in length as well as in bytes.
				frame := func(dst, src [6]byte, dir byte, i int) *knet.Packet {
					p := knet.NewPacket(dst, src, 0x0800, 64+i%700)
					for j := knet.EthHeaderLen; j < len(p.Data); j++ {
						p.Data[j] = byte(i>>8) ^ byte(i*131+j) ^ dir
					}
					return p
				}
				ctx := tb.Kernel.NewContext("ownership")
				for i := 0; i < frames; i++ {
					if err := nd.Transmit(ctx, frame(peer, nd.MAC, 'T', i)); err != nil {
						t.Fatalf("transmit %d: %v", i, err)
					}
					if !inject(frame(nd.MAC, peer, 'R', i).Data) {
						t.Fatalf("adapter dropped injected frame %d", i)
					}
					tb.Clock.Advance(20 * time.Microsecond)
					tb.drainDeferredWork()
				}
				// Let the coalescing windows close on the partial last batch.
				tb.Clock.Advance(5 * time.Millisecond)
				tb.Settle(ctx)

				check := func(what string, n int, got func(int) []byte, dst, src [6]byte, dir byte) {
					t.Helper()
					if n != frames {
						t.Fatalf("%s: %d frames, want %d", what, n, frames)
					}
					for i := 0; i < n; i++ {
						if want := frame(dst, src, dir, i).Data; !bytes.Equal(got(i), want) {
							t.Fatalf("%s: retained frame %d no longer holds its bytes (%s)", what, i, firstDiff(got(i), want))
						}
					}
				}
				check("OnTransmit", len(wire), func(i int) []byte { return wire[i] }, peer, nd.MAC, 'T')
				check("RX sink", len(sunk), func(i int) []byte { return sunk[i].Data }, nd.MAC, peer, 'R')
			})
		}
	}
}

func firstDiff(got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d is %#x, want %#x", i, got[i], want[i])
		}
	}
	return "equal"
}
