package gpusim

import (
	"fmt"
	"sync"
)

// Device is a simulated GPU: a flat global memory of 32-bit words, a bump
// allocator, and accumulated statistics. All methods are safe for
// concurrent use. The blocks of a launch run concurrently on host
// goroutines, so global-memory atomics take the device lock; the threads
// of one block run in sequence on one goroutine.
type Device struct {
	cfg Config

	mu    sync.Mutex
	mem   []uint32
	next  int // bump-allocation watermark
	stats Stats

	profiler *Profiler // nil until AttachProfiler
	faults   *Injector // nil until EnableFaults
}

// Buffer is a region of device global memory, in 32-bit words. The zero
// Buffer is invalid.
type Buffer struct {
	off   int
	words int
	valid bool
}

// Words returns the buffer's length in 32-bit words.
func (b Buffer) Words() int { return b.words }

// Bytes returns the buffer's length in bytes.
func (b Buffer) Bytes() int { return b.words * 4 }

// NewDevice creates a device with the given configuration and global
// memory capacity in 32-bit words.
func NewDevice(cfg Config, memWords int) *Device {
	cfg.validate()
	if memWords <= 0 {
		panic("gpusim: device memory must be positive")
	}
	return &Device{cfg: cfg, mem: make([]uint32, memWords)}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Malloc allocates words of global memory, aligned to the coalescing
// segment boundary like cudaMalloc aligns to 256 bytes. It returns an
// error when the device is out of memory — the same failure mode that
// bounds dataset size on the real card.
func (d *Device) Malloc(words int) (Buffer, error) {
	if words <= 0 {
		return Buffer{}, fmt.Errorf("gpusim: Malloc of %d words", words)
	}
	align := d.cfg.SegmentBytes / 4
	d.mu.Lock()
	defer d.mu.Unlock()
	off := (d.next + align - 1) / align * align
	if off+words > len(d.mem) {
		return Buffer{}, fmt.Errorf("gpusim: out of device memory: need %d words at %d, have %d",
			words, off, len(d.mem))
	}
	d.next = off + words
	return Buffer{off: off, words: words, valid: true}, nil
}

// FreeAll resets the allocator, invalidating all buffers. (The paper's
// workflow allocates the first-generation bitsets once and reuses them, so
// a bump allocator with whole-device reset is sufficient.)
func (d *Device) FreeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.next = 0
}

// FreeAllAbove resets the allocator watermark to the end of keep,
// releasing every buffer allocated after it while keeping keep (and
// everything allocated before it) valid. It is how per-launch scratch
// buffers are recycled around the long-lived first-generation vectors.
func (d *Device) FreeAllAbove(keep Buffer) {
	if !keep.valid {
		panic("gpusim: FreeAllAbove of zero Buffer")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if end := keep.off + keep.words; end < d.next {
		d.next = end
	}
}

// MemWords returns total device memory capacity in words.
func (d *Device) MemWords() int { return len(d.mem) }

// AllocatedWords returns the current allocation watermark.
func (d *Device) AllocatedWords() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next
}

func (b Buffer) check(idx int) {
	if !b.valid {
		panic("gpusim: use of zero Buffer")
	}
	if idx < 0 || idx >= b.words {
		panic(fmt.Sprintf("gpusim: buffer index %d out of range [0,%d)", idx, b.words))
	}
}

// CopyToDevice copies host data into the buffer (cudaMemcpyHostToDevice),
// accounting PCIe transfer time and bytes. len(data) must not exceed the
// buffer size.
func (d *Device) CopyToDevice(dst Buffer, data []uint32) {
	if !dst.valid {
		panic("gpusim: CopyToDevice into zero Buffer")
	}
	if len(data) > dst.words {
		panic(fmt.Sprintf("gpusim: CopyToDevice of %d words into %d-word buffer", len(data), dst.words))
	}
	d.mu.Lock()
	copy(d.mem[dst.off:dst.off+len(data)], data)
	d.stats.H2DBytes += int64(len(data) * 4)
	d.stats.H2DCalls++
	d.mu.Unlock()
}

// CopyFromDevice copies the buffer into host memory
// (cudaMemcpyDeviceToHost), accounting transfer time and bytes. len(dst)
// must not exceed the buffer size.
func (d *Device) CopyFromDevice(dst []uint32, src Buffer) {
	if !src.valid {
		panic("gpusim: CopyFromDevice from zero Buffer")
	}
	if len(dst) > src.words {
		panic(fmt.Sprintf("gpusim: CopyFromDevice of %d words from %d-word buffer", len(dst), src.words))
	}
	d.mu.Lock()
	copy(dst, d.mem[src.off:src.off+len(dst)])
	d.stats.D2HBytes += int64(len(dst) * 4)
	d.stats.D2HCalls++
	d.mu.Unlock()
}
