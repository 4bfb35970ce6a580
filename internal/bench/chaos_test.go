package bench

import (
	"testing"
)

// TestChaosAvailabilityDeterministic: two runs of the availability sweep
// with the same seed must produce byte-identical artifacts, and the sweep
// must hold its own claims (checkChaos: no acknowledged write lost, the
// retry and degraded-read machinery firing). At -quick every faulted rate
// also serves a degraded read, which checkChaos asks of one rate only: the
// heal phase reads every acknowledged file back before repair, and a
// restarted node misses whatever was written while it was down.
func TestChaosAvailabilityDeterministic(t *testing.T) {
	r1, err := ChaosAvailability(true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ChaosAvailability(true)
	if err != nil {
		t.Fatal(err)
	}
	if j1, j2 := FormatJSON(r1), FormatJSON(r2); j1 != j2 {
		t.Fatalf("same-seed runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
	c := claims{res: r1}
	for _, row := range r1.Rows {
		if c.num(row, "fault rate") >= 0.10 {
			c.check(c.num(row, "degraded reads") > 0, "rate %s: no degraded read recorded", c.str(row, "fault rate"))
		}
	}
	if err := c.err(); err != nil {
		t.Fatal(err)
	}
}
