package main

import (
	"flag"
	"io"
	"testing"
)

// TestDefaultLoadFollowsCores pins the -load default: half the uniform
// saturation load of the chosen core count (the 256-core value is the
// historical 0.00390625), while an explicit -load, even 0, is kept.
func TestDefaultLoadFollowsCores(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want float64
	}{
		{nil, 0.00390625},
		{[]string{"-cores", "1024"}, 0.0009765625},
		{[]string{"-cores", "1024", "-load", "0.0015"}, 0.0015},
		{[]string{"-load", "0"}, 0},
	} {
		fs := flag.NewFlagSet("ownsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseFlags(fs, tc.args)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if o.load != tc.want {
			t.Errorf("%v: load = %v, want %v", tc.args, o.load, tc.want)
		}
	}
}

// TestParseFlagsRejects covers ownsim's own validation next to the
// shared rules.
func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "optimistic"},
		{"-config", "5"},
		{"-fail", "3,x"},
		{"-sample", "0"},
		{"-pprof"},
	} {
		fs := flag.NewFlagSet("ownsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
