package main

import (
	"flag"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workloads"
)

// TestDefaultOptionsPaperGeometry: with no flags the CLI simulates the
// paper geometry, one execution unit per channel, however many processors
// the host has.
func TestDefaultOptionsPaperGeometry(t *testing.T) {
	p, _ := workloads.ByAbbr("CFM")
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		options := optionFlags(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		opts := options()
		opts.Requests = 5_000
		rep, err := experiments.RunOne(p, "none", opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Channels != 4 || rep.SubShards != 1 {
			t.Fatalf("GOMAXPROCS=%d: default run simulated %d channels × %d sub-shards, want 4 × 1",
				procs, rep.Channels, rep.SubShards)
		}
	}
}
