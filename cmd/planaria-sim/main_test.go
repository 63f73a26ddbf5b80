package main

import (
	"flag"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestDefaultConfigPaperGeometry: with no flags the CLI simulates the
// paper geometry, one execution unit per channel, however many processors
// the host has.
func TestDefaultConfigPaperGeometry(t *testing.T) {
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		fs := flag.NewFlagSet("planaria-sim", flag.ContinueOnError)
		config := engineFlags(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		eng := sim.New(config())
		runtime.GOMAXPROCS(prev)
		if got := eng.SubShards(); got != 1 {
			t.Fatalf("GOMAXPROCS=%d: default config simulates %d sub-shards per channel, want 1", procs, got)
		}
	}
}
