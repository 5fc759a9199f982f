package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expectedJSON holds the simulated outputs recorded per workload and
// seed (see -record). A run at a recorded seed must reproduce them
// exactly; any other seed is held to the workload's invariants only.
//
//go:embed expected.json
var expectedJSON []byte

// recordings maps workload -> seed -> output key -> value.
type recordings map[string]map[string]map[string]string

func loadRecordings(data []byte) (recordings, error) {
	rec := recordings{}
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("expected outputs: %w", err)
	}
	return rec, nil
}

func (r recordings) lookup(workload string, seed uint64) map[string]string {
	return r[workload][strconv.FormatUint(seed, 10)]
}

// record stores out under (workload, seed) in the JSON file at path.
func record(path, workload string, seed uint64, out []field) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, err := loadRecordings(data)
	if err != nil {
		return err
	}
	if rec[workload] == nil {
		rec[workload] = map[string]map[string]string{}
	}
	m := map[string]string{}
	for _, f := range out {
		m[f.key] = f.val
	}
	rec[workload][strconv.FormatUint(seed, 10)] = m
	data, err = json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checker counts output checks and keeps the first failures.
type checker struct {
	attempted, failed int
	failures          []string
}

const maxKeptFailures = 20

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < maxKeptFailures {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// outputs checks one repetition's outputs: the workload's invariants,
// the recorded values when the seed has them, and equality with the
// first repetition of this process (the simulation is deterministic, so
// every repetition, traced or not, must reproduce it).
func (c *checker) outputs(w workload, want map[string]string, first, out []field, label string) {
	bad := w.invariants(out)
	c.check(len(bad) == 0, "%s: invariants: %v", label, bad)
	if want != nil {
		c.check(len(want) == len(out), "%s: %d outputs, %d recorded", label, len(out), len(want))
		for _, f := range out {
			exp, ok := want[f.key]
			c.check(ok && exp == f.val, "%s: %s = %q, recorded %q", label, f.key, f.val, exp)
		}
	}
	if first != nil {
		c.check(sameFields(first, out), "%s: outputs differ from the first repetition", label)
	}
}

func sameFields(a, b []field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
