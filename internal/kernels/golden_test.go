package kernels

import (
	"testing"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/vertical"
)

// golden is one production kernel run on fixed inputs: the event counts
// of each launch it makes (in launch order), and the device's whole
// modeled time for the call, transfers included.
type golden struct {
	launches []gpusim.Stats
	modeled  gpusim.TimeBreakdown
}

// record runs call on dev from reset statistics and returns the event
// counts of each launch the call makes and the device's modeled time.
func record(t *testing.T, dev *gpusim.Device, call func() error) golden {
	t.Helper()
	prof := dev.AttachProfiler()
	dev.ResetStats()
	if err := call(); err != nil {
		t.Fatal(err)
	}
	var g golden
	for _, r := range prof.Records() {
		g.launches = append(g.launches, r.Stats)
	}
	g.modeled = dev.ModeledTime()
	return g
}

// goldenCases runs every production kernel on fixed inputs. The word
// count (94 words, padded to 96) makes lanes of a 64-thread block do
// unequal trip counts, and the tidset grid ends in a partial block.
func goldenCases(t *testing.T) map[string]golden {
	db := gen.Random(3000, 24, 0.4, 2011)
	bit := vertical.BuildBitsets(db)
	pairs := [][]dataset.Item{{0, 1}, {2, 3}, {4, 23}, {7, 19}, {11, 12}}
	triples := [][]dataset.Item{{0, 1, 2}, {3, 9, 17}, {5, 6, 7}}
	// Two profitable classes (m·(k−2) > k) and one that falls back to
	// the complete kernel.
	classes := [][]dataset.Item{
		{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 1, 5}, {0, 1, 6}, {0, 1, 7},
		{2, 3, 4}, {2, 3, 5}, {2, 3, 8}, {2, 3, 9},
		{5, 6, 7}, {5, 6, 8},
	}
	upload := func() *DeviceDB {
		d, err := Upload(newTestDevice(), bit)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	counts := func(cands [][]dataset.Item, opt Options) golden {
		d := upload()
		return record(t, d.Device(), func() error {
			_, err := d.SupportCounts(cands, opt)
			return err
		})
	}

	out := map[string]golden{
		"complete/preload":    counts(pairs, Options{BlockSize: 64, Preload: true, Unroll: 4}),
		"complete/no-preload": counts(triples, Options{BlockSize: 64, Preload: false, Unroll: 1}),
		"prefix/preload":      counts(classes, Options{BlockSize: 64, Preload: true, Unroll: 4, PrefixCache: true}),
		"prefix/no-preload":   counts(classes, Options{BlockSize: 32, Preload: false, Unroll: 2, PrefixCache: true}),
	}
	d := upload()
	out["atomic"] = record(t, d.Device(), func() error {
		_, err := d.SupportCountsAtomic(pairs, Options{BlockSize: 64, Preload: true, Unroll: 4})
		return err
	})

	var tidCands [][]dataset.Item
	for i := 0; i < 20; i++ {
		tidCands = append(tidCands, []dataset.Item{dataset.Item(i), dataset.Item(i + 1), dataset.Item(i + 3)})
	}
	dt, err := UploadTidsets(newTestDevice(), vertical.BuildTidsets(db))
	if err != nil {
		t.Fatal(err)
	}
	out["tidset"] = record(t, dt.dev, func() error {
		_, err := dt.SupportCounts(tidCands, 16)
		return err
	})
	return out
}

// goldenWant was captured from the goroutine-per-thread executor that
// preceded the phase executor. Every field of Stats and TimeBreakdown is
// compared; omitted fields are zero.
var goldenWant = map[string]golden{
	"atomic": {
		launches: []gpusim.Stats{
			{KernelLaunches: 1, BlocksRun: 5, WarpsRun: 10, ThreadsRun: 320, GlobalLoads: 970, GlobalStores: 319, Transactions: 404, PerfectlyCoalescedGroups: 40, UncoalescedExtra: 319, SharedAccesses: 1120, ALULaneOps: 3040, Barriers: 320, OccupancyMilliWarps: 333},
		},
		modeled: gpusim.TimeBreakdown{Kernel: 6.089854560442796e-06, Memory: 6.089854560442796e-06, Compute: 3.4602503738306205e-07, Launch: 5e-06, Transfer: 3.0014545454545457e-05},
	},
	"complete/no-preload": {
		launches: []gpusim.Stats{
			{KernelLaunches: 1, BlocksRun: 3, WarpsRun: 6, ThreadsRun: 192, GlobalLoads: 1728, GlobalStores: 3, Transactions: 111, PerfectlyCoalescedGroups: 111, SharedAccesses: 2016, ALULaneOps: 2976, Barriers: 1344, OccupancyMilliWarps: 200},
		},
		modeled: gpusim.TimeBreakdown{Kernel: 2.7858823529411767e-06, Memory: 2.7858823529411767e-06, Compute: 8.148148148148149e-07, Launch: 5e-06, Transfer: 2.0008727272727273e-05},
	},
	"complete/preload": {
		launches: []gpusim.Stats{
			{KernelLaunches: 1, BlocksRun: 5, WarpsRun: 10, ThreadsRun: 320, GlobalLoads: 970, GlobalStores: 5, Transactions: 90, PerfectlyCoalescedGroups: 50, UncoalescedExtra: 20, SharedAccesses: 4480, ALULaneOps: 2560, Barriers: 2560, OccupancyMilliWarps: 333},
		},
		modeled: gpusim.TimeBreakdown{Kernel: 1.3566507684154743e-06, Memory: 1.3566507684154743e-06, Compute: 7.414822229637044e-07, Launch: 5e-06, Transfer: 2.001090909090909e-05},
	},
	"prefix/no-preload": {
		launches: []gpusim.Stats{
			{KernelLaunches: 1, BlocksRun: 2, WarpsRun: 2, ThreadsRun: 64, GlobalLoads: 768, GlobalStores: 192, Transactions: 60, PerfectlyCoalescedGroups: 60, ALULaneOps: 1280, OccupancyMilliWarps: 67},
			{KernelLaunches: 1, BlocksRun: 10, WarpsRun: 10, ThreadsRun: 320, GlobalLoads: 3840, GlobalStores: 10, Transactions: 250, PerfectlyCoalescedGroups: 250, SharedAccesses: 5440, ALULaneOps: 6720, Barriers: 1920, OccupancyMilliWarps: 333},
			{KernelLaunches: 1, BlocksRun: 2, WarpsRun: 2, ThreadsRun: 64, GlobalLoads: 1152, GlobalStores: 2, Transactions: 74, PerfectlyCoalescedGroups: 74, SharedAccesses: 1088, ALULaneOps: 1920, Barriers: 384, OccupancyMilliWarps: 67},
		},
		modeled: gpusim.TimeBreakdown{Kernel: 1.238241592140068e-05, Memory: 1.238241592140068e-05, Compute: 3.098316017659344e-06, Launch: 1.5000000000000002e-05, Transfer: 5.003054545454546e-05},
	},
	"prefix/preload": {
		launches: []gpusim.Stats{
			{KernelLaunches: 1, BlocksRun: 2, WarpsRun: 4, ThreadsRun: 128, GlobalLoads: 388, GlobalStores: 192, Transactions: 50, PerfectlyCoalescedGroups: 26, UncoalescedExtra: 12, SharedAccesses: 448, ALULaneOps: 960, Barriers: 128, OccupancyMilliWarps: 133},
			{KernelLaunches: 1, BlocksRun: 10, WarpsRun: 20, ThreadsRun: 640, GlobalLoads: 1940, GlobalStores: 10, Transactions: 180, PerfectlyCoalescedGroups: 100, UncoalescedExtra: 40, SharedAccesses: 8960, ALULaneOps: 5120, Barriers: 5120, OccupancyMilliWarps: 667},
			{KernelLaunches: 1, BlocksRun: 2, WarpsRun: 4, ThreadsRun: 128, GlobalLoads: 582, GlobalStores: 2, Transactions: 52, PerfectlyCoalescedGroups: 28, UncoalescedExtra: 12, SharedAccesses: 1984, ALULaneOps: 1408, Barriers: 1024, OccupancyMilliWarps: 133},
		},
		modeled: gpusim.TimeBreakdown{Kernel: 4.551541516928315e-06, Memory: 4.551541516928315e-06, Compute: 2.0801079750704617e-06, Launch: 1.5000000000000002e-05, Transfer: 5.003054545454546e-05},
	},
	"tidset": {
		launches: []gpusim.Stats{
			{KernelLaunches: 1, BlocksRun: 2, WarpsRun: 2, ThreadsRun: 32, GlobalLoads: 215814, GlobalStores: 20, Transactions: 215683, PerfectlyCoalescedGroups: 83, UncoalescedExtra: 193544, ALULaneOps: 852240, BranchesExecuted: 7780, DivergentBranches: 2283, OccupancyMilliWarps: 67},
		},
		modeled: gpusim.TimeBreakdown{Kernel: 0.01615886684225929, Memory: 0.01615886684225929, Compute: 0.0003271604938271605, Launch: 5e-06, Transfer: 2.005818181818182e-05},
	},
}

// TestGoldenModeledStats pins the full event counts and modeled time of
// every production kernel on fixed inputs. The values are literals: any
// change to how the simulator executes kernels must leave the timing
// model's inputs, and so the reproduction's modeled numbers, untouched.
func TestGoldenModeledStats(t *testing.T) {
	got := goldenCases(t)
	if len(got) != len(goldenWant) {
		t.Fatalf("%d golden cases, want %d", len(got), len(goldenWant))
	}
	for name, want := range goldenWant {
		g := got[name]
		if len(g.launches) != len(want.launches) {
			t.Errorf("%s: %d launches, want %d", name, len(g.launches), len(want.launches))
			continue
		}
		for i := range want.launches {
			if g.launches[i] != want.launches[i] {
				t.Errorf("%s launch %d:\n got %+v\nwant %+v", name, i, g.launches[i], want.launches[i])
			}
		}
		if g.modeled != want.modeled {
			t.Errorf("%s modeled time:\n got %+v\nwant %+v", name, g.modeled, want.modeled)
		}
	}
}
