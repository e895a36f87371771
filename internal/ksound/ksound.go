// Package ksound is the simulated kernel sound subsystem (an ALSA-shaped
// core): card registration, one playback PCM substream per card, and mixer
// controls. Locking follows the paper's §3.1.3 modification: "we modified
// the kernel sound libraries to use mutexes" instead of spinlocks, which is
// what allows PCM operations (open, hw_params, prepare, trigger) to execute
// in the decaf driver — a mutex holder may block, a spinlock holder may not.
package ksound

import (
	"fmt"
	"sync"

	"decafdrivers/internal/kernel"
)

// PCMOps are the driver-supplied playback operations. All run in process
// context under the card mutex (never a spinlock), so implementations may
// cross to user level.
type PCMOps interface {
	// Open prepares the hardware for a playback stream.
	Open(ctx *kernel.Context) error
	// HWParams configures rate (Hz), channels, and period size in frames.
	HWParams(ctx *kernel.Context, rate, channels, periodFrames int) error
	// Prepare resets the stream position before starting.
	Prepare(ctx *kernel.Context) error
	// Trigger starts (true) or stops (false) the DMA engine.
	Trigger(ctx *kernel.Context, start bool) error
	// Pointer reports the hardware playback position in frames.
	Pointer(ctx *kernel.Context) uint32
	// CopyAudio moves PCM data into the hardware buffer at the given frame
	// offset. It is the data path and runs in the kernel.
	CopyAudio(ctx *kernel.Context, frameOff uint32, data []byte) error
	// Close releases the stream.
	Close(ctx *kernel.Context) error
}

// Card is the snd_card analogue.
type Card struct {
	Name string

	// Mutex is the card-wide lock; per §3.1.3 a kernel mutex, not a
	// spinlock, so driver callbacks can block on XPC.
	Mutex *kernel.Mutex

	mu       sync.Mutex
	controls int
	pcm      PCMOps
	stream   *Substream
}

// Subsystem is the sound core.
type Subsystem struct {
	mu    sync.Mutex
	cards map[string]*Card
}

// New creates the sound subsystem.
func New() *Subsystem {
	return &Subsystem{cards: make(map[string]*Card)}
}

// NewCard allocates an unregistered card (snd_card_new).
func (s *Subsystem) NewCard(name string) *Card {
	return &Card{Name: name, Mutex: kernel.NewMutex("snd_card:" + name)}
}

// Register registers a card (snd_card_register) — the downcall shown in the
// paper's Figure 2 stub.
func (s *Subsystem) Register(card *Card) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.cards[card.Name]; dup {
		return fmt.Errorf("ksound: card %q already registered", card.Name)
	}
	s.cards[card.Name] = card
	return nil
}

// Unregister removes a card.
func (s *Subsystem) Unregister(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cards[name]; !ok {
		return fmt.Errorf("ksound: card %q not registered", name)
	}
	delete(s.cards, name)
	return nil
}

// Card finds a registered card.
func (s *Subsystem) Card(name string) (*Card, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cards[name]
	return c, ok
}

// AddControl registers a mixer control (snd_ctl_add). The model counts
// controls; it keeps no name or value, since nothing reads one back.
func (c *Card) AddControl() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.controls++
}

// Controls reports the number of registered mixer controls.
func (c *Card) Controls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.controls
}

// SetPCMOps installs the driver's playback operations (snd_pcm_new).
func (c *Card) SetPCMOps(ops PCMOps) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pcm = ops
}

// Substream is one open playback stream.
type Substream struct {
	card *Card
	ops  PCMOps

	Channels int

	mu           sync.Mutex
	appFrames    uint64 // frames written by the application
	periodsSoFar uint64
}

// OpenPlayback opens the card's playback substream through the driver.
func (c *Card) OpenPlayback(ctx *kernel.Context) (*Substream, error) {
	c.Mutex.Lock(ctx)
	defer c.Mutex.Unlock(ctx)
	if c.pcm == nil {
		return nil, fmt.Errorf("ksound: card %q has no PCM", c.Name)
	}
	if c.stream != nil {
		return nil, fmt.Errorf("ksound: card %q playback busy", c.Name)
	}
	if err := c.pcm.Open(ctx); err != nil {
		return nil, err
	}
	st := &Substream{card: c, ops: c.pcm}
	c.stream = st
	return st, nil
}

// Configure sets hardware parameters and prepares the stream.
func (st *Substream) Configure(ctx *kernel.Context, rate, channels, periodFrames int) error {
	st.card.Mutex.Lock(ctx)
	defer st.card.Mutex.Unlock(ctx)
	if err := st.ops.HWParams(ctx, rate, channels, periodFrames); err != nil {
		return err
	}
	st.Channels = channels
	return st.ops.Prepare(ctx)
}

// Start triggers playback.
func (st *Substream) Start(ctx *kernel.Context) error {
	st.card.Mutex.Lock(ctx)
	defer st.card.Mutex.Unlock(ctx)
	return st.ops.Trigger(ctx, true)
}

// Stop halts playback.
func (st *Substream) Stop(ctx *kernel.Context) error {
	st.card.Mutex.Lock(ctx)
	defer st.card.Mutex.Unlock(ctx)
	return st.ops.Trigger(ctx, false)
}

// Close releases the stream.
func (st *Substream) Close(ctx *kernel.Context) error {
	st.card.Mutex.Lock(ctx)
	defer st.card.Mutex.Unlock(ctx)
	st.card.mu.Lock()
	st.card.stream = nil
	st.card.mu.Unlock()
	return st.ops.Close(ctx)
}

// Write copies PCM data into the hardware buffer (the data path; kernel
// resident). Returns the bytes accepted.
func (st *Substream) Write(ctx *kernel.Context, data []byte) (int, error) {
	frameBytes := 2 * st.Channels
	if frameBytes == 0 {
		return 0, fmt.Errorf("ksound: stream not configured")
	}
	st.mu.Lock()
	off := uint32(st.appFrames)
	st.mu.Unlock()
	if err := st.ops.CopyAudio(ctx, off, data); err != nil {
		return 0, err
	}
	st.mu.Lock()
	st.appFrames += uint64(len(data) / frameBytes)
	st.mu.Unlock()
	return len(data), nil
}

// PeriodElapsed is called by the driver's interrupt handler each time a
// period completes (snd_pcm_period_elapsed).
func (st *Substream) PeriodElapsed() {
	st.mu.Lock()
	st.periodsSoFar++
	st.mu.Unlock()
}

// Periods reports completed periods.
func (st *Substream) Periods() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.periodsSoFar
}
