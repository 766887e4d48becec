package main

import (
	"runtime/debug"
	"testing"
)

// TestCalibrationKernel checks that the kernel does the same work in every
// pass and hands the collector back as it found it.
func TestCalibrationKernel(t *testing.T) {
	var a, b calibrator
	a.run()
	b.run()
	b.run()
	if 2*a.sink != b.sink {
		t.Errorf("passes differ: one pass gives %v, two give %v", a.sink, b.sink)
	}
	before := debug.SetGCPercent(137)
	defer debug.SetGCPercent(before)
	a.pass()
	if got := debug.SetGCPercent(137); got != 137 {
		t.Errorf("after a pass the GC percent is %d, want 137", got)
	}
	if len(a.passes) != 1 || a.passes[0] <= 0 || a.spent != a.passes[0] {
		t.Errorf("pass recorded %v (spent %v)", a.passes, a.spent)
	}
}

// TestRefSeconds checks the conversion: on a host twice as slow as the
// reference, a pass takes twice calibRefSeconds and two host seconds are
// one reference second.
func TestRefSeconds(t *testing.T) {
	c := &calibrator{passes: []float64{3 * calibRefSeconds, 2 * calibRefSeconds, 1.5 * calibRefSeconds}}
	if got := c.refSeconds(2); got != 1 {
		t.Errorf("refSeconds(2) = %v, want 1", got)
	}
}
