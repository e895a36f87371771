// Soundcard: the ens1371 driver playing audio — the paper's cleanest split
// (no driver library at all). Playback start and end cross to the decaf
// driver (§4.2 counted 15 such calls); the period interrupts and sample
// copies stay in the kernel.
//
// Run: go run ./examples/soundcard
package main

import (
	"fmt"
	"log"
	"time"

	"decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

func main() {
	tb, err := workload.NewEns1371(xpc.ModeDecaf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("insmod ens1371 (decaf): %v, %d crossings\n", tb.Load.InitLatency, tb.InitCrossings())
	// The probe body wrote its results to shared state cells; the kernel
	// side adopted them into the chip structure read here.
	fmt.Printf("AC'97 codec vendor: %#x; SRC RAM initialized; %d mixer controls\n\n",
		tb.Ens.Chip.CodecVendor, tb.Ens.Chip.MixerCtls)

	before := tb.Runtime.Counters().Trips()
	res, err := workload.Mpg123(tb, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("played 30s of 44.1kHz stereo PCM: %d periods, CPU %.2f%%\n",
		res.Units, res.CPUUtil*100)
	fmt.Printf("decaf-driver calls during playback: %d, all at start and end (paper: 15)\n",
		tb.Runtime.Counters().Trips()-before)

	c := tb.Runtime.Counters()
	fmt.Println("\nentry points crossed during the session:")
	for _, n := range c.CallNames() {
		fmt.Printf("  %5d  %s\n", c.PerCall[n], n)
	}
}
