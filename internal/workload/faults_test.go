package workload

import (
	"fmt"
	"testing"
	"time"
)

// formatFault renders a fault with every field that can vary, exactly.
func formatFault(f Fault) string {
	s := fmt.Sprintf("%v %s slot=%d", f.At, f.Kind, f.Slot)
	if f.Stall != 0 {
		s += fmt.Sprintf(" stall=%v", f.Stall)
	}
	if f.Window != 0 || f.Factor != 0 {
		s += fmt.Sprintf(" window=%v factor=%g", f.Window, f.Factor)
	}
	return s
}

// TestGenFaultsGolden pins the schedules GenFaults draws for seeds 1-3
// under two rate sets over a 90 s horizon: the cache-directory
// experiment's churn mix (bench.CacheDirFaultRates) and a crash, stall,
// drain and degrade mix. Every schedule the benchmarks and CLIs replay is
// drawn by this code, so a change to the draw sequence — a kind's draws
// added, dropped or reordered — moves every fault after it and shows here.
func TestGenFaultsGolden(t *testing.T) {
	const horizon = 90 * time.Second
	cases := []struct {
		name  string
		rates FaultRates
		want  [3][]string // seeds 1, 2, 3
	}{
		{
			name: "cachedir",
			rates: FaultRates{CrashPerMin: 0.5, DrainPerMin: 2, DegradePerMin: 1,
				DegradeMean: 5 * time.Second, DegradeFactor: 6},
			want: [3][]string{{
				"5.907331729s drain slot=53932",
				"8.727256702s drain slot=18340",
				"25.473073606s degrade slot=23701 window=3.588144214s factor=6",
				"34.259147036s degrade slot=8536 window=1.949838237s factor=6",
				"46.369136565s drain slot=23215",
				"1m24.645817924s crash slot=19911",
			}, {
				"19.075682399s drain slot=10488",
				"23.854887489s crash slot=10460",
				"34.224753714s degrade slot=43284 window=3.83516929s factor=6",
				"38.250049462s drain slot=17284",
				"38.718191522s degrade slot=58368 window=3.061992599s factor=6",
				"55.780027967s drain slot=29251",
			}, {
				"29.257919174s drain slot=48683",
				"31.441370732s degrade slot=5422 window=6.567672596s factor=6",
				"31.527726887s drain slot=19918",
				"38.487013638s drain slot=56157",
				"58.736772251s crash slot=10720",
			}},
		},
		{
			name: "mix",
			rates: FaultRates{CrashPerMin: 1, StallPerMin: 2.5, DrainPerMin: 1.5, DegradePerMin: 1,
				StallMean: 2 * time.Second},
			want: [3][]string{{
				"14.086732925s stall slot=32584 stall=623.112301ms",
				"18.286818898s drain slot=2266",
				"34.259147036s stall slot=8536 stall=779.935295ms",
				"38.217374736s stall slot=53638 stall=197.001915ms",
				"46.369136565s stall slot=23215 stall=429.952848ms",
				"1m1.117620832s drain slot=35810",
				"1m17.62422937s degrade slot=50303 window=3.523175347s factor=4",
				"1m24.645817924s crash slot=19911",
			}, {
				"1.131291428s drain slot=54953",
				"10.707966828s crash slot=27496",
				"11.420727642s stall slot=58222 stall=3.012005797s",
				"23.854887489s crash slot=10460",
				"33.177841953s stall slot=55872 stall=855.568575ms",
				"38.250049462s stall slot=17284 stall=1.837388196s",
				"49.854836416s degrade slot=20938 window=15.845681675s factor=4",
				"1m20.551646716s drain slot=26182",
				"1m24.646449601s degrade slot=36447 window=13.678855573s factor=4",
			}, {
				"31.527726887s stall slot=19918 stall=4.772348921s",
				"42.91195266s drain slot=59034",
				"45.691745614s stall slot=31672 stall=1.121238902s",
				"58.736772251s crash slot=10720",
				"1m4.011900209s degrade slot=19383 window=5.547612261s factor=4",
				"1m5.183977167s drain slot=51570",
				"1m19.927768487s degrade slot=43345 window=1.271980408s factor=4",
				"1m20.417981377s stall slot=35371 stall=1.032880136s",
			}},
		},
	}
	for _, tc := range cases {
		for i, want := range tc.want {
			seed := int64(i + 1)
			got := GenFaults(seed, tc.rates, horizon)
			if len(got) != len(want) {
				t.Errorf("%s seed %d: %d faults, want %d", tc.name, seed, len(got), len(want))
				continue
			}
			for j, f := range got {
				if err := f.Validate(); err != nil {
					t.Errorf("%s seed %d fault %d: %v", tc.name, seed, j, err)
				}
				if s := formatFault(f); s != want[j] {
					t.Errorf("%s seed %d fault %d = %q, want %q", tc.name, seed, j, s, want[j])
				}
			}
		}
	}
}
