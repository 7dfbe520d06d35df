package nand_test

import (
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/nand"
	"repro/internal/sim"
)

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewAllocatesPagesLazily pins the saving of lazy page state on the
// NVMe-SSD geometry: building the array must cost at least 10x fewer bytes
// than building it and giving every block its page array up front, the way
// New used to.
func TestNewAllocatesPagesLazily(t *testing.T) {
	cfg := device.NVMeSSD()
	k := sim.NewKernel()
	defer k.Close()
	var a *nand.Array
	lazy := allocated(func() { a = nand.New(k, cfg.Geometry, cfg.Timing) })
	pages := allocated(func() { nand.AllocateAllPages(a) })
	eager := lazy + pages
	t.Logf("nand.New on %+v: lazy %d B, eager %d B (%.0fx)", cfg.Geometry, lazy, eager, float64(eager)/float64(lazy))
	if eager < 10*lazy {
		t.Fatalf("lazy nand.New allocates %d B, eager %d B: want at least 10x fewer", lazy, eager)
	}
}
