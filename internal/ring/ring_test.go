package ring

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func devs(n int) []Device {
	ds := make([]Device, n)
	for i := range ds {
		ds[i] = Device{ID: i, Zone: i % 4, Weight: 1}
	}
	return ds
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, devs(4)); err == nil {
		t.Error("partPower 0 accepted")
	}
	if _, err := New(25, 3, devs(4)); err == nil {
		t.Error("partPower 25 accepted")
	}
	if _, err := New(8, 0, devs(4)); err == nil {
		t.Error("replicas 0 accepted")
	}
	if _, err := New(8, 3, nil); !errors.Is(err, ErrNoDevices) {
		t.Error("empty device list accepted")
	}
	if _, err := New(8, 3, []Device{{ID: 1, Weight: -2}}); !errors.Is(err, ErrNoDevices) {
		t.Error("all-zero-weight device list accepted")
	}
	if _, err := New(8, 3, []Device{{ID: 1, Weight: 1}, {ID: 1, Weight: 1}}); err == nil {
		t.Error("duplicate device IDs accepted")
	}
}

func TestReplicasCappedAtDeviceCount(t *testing.T) {
	r, err := New(6, 5, devs(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReplicaCount(); got != 2 {
		t.Fatalf("ReplicaCount = %d, want 2", got)
	}
}

func TestPartitionDeterministicAndInRange(t *testing.T) {
	r, _ := New(10, 3, devs(8))
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("obj-%d", i)
		p := r.Partition(name)
		if p != r.Partition(name) {
			t.Fatal("Partition not deterministic")
		}
		if p >= uint32(r.PartitionCount()) {
			t.Fatalf("partition %d out of range", p)
		}
	}
}

// TestPartitionGolden pins MD5 placement at the cluster's default part
// power: every committed CSV rests on these values, so Partition may get
// faster but never different. It also checks that a name that fits the
// stack buffer is hashed without touching the heap.
func TestPartitionGolden(t *testing.T) {
	r, err := New(10, 3, devs(8))
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name string
		part uint32
	}{
		{"", 848},
		{"a", 51},
		{"hot/object", 593},
		{"x|y::z", 19},
		{"alice|00.0.0::docs", 541},
		{"acct|01.1.1::/NameRing/", 81},
		{"acct|01.1.1::/NameRing/.Node01.Patch000003", 267},
		{"acct|01.1.1::child000001", 689},
		{"user7|0a.1700000000.42::photos", 526},
		{"user7|0a.1700000000.42::a\nb", 44},
		{"bench|ff.9.9::日本語.txt", 927},
		{"long|11.2.3::" + fmt.Sprintf("%0200d", 7), 609}, // past the stack buffer
	}
	for _, g := range golden {
		if got := r.Partition(g.name); got != g.part {
			t.Errorf("Partition(%q) = %d, want %d", g.name, got, g.part)
		}
	}
	name := golden[6].name
	if n := testing.AllocsPerRun(100, func() { r.Partition(name) }); n != 0 {
		t.Errorf("Partition allocates %v times per call, want 0", n)
	}
}

func TestDevicesDistinctPerPartition(t *testing.T) {
	r, _ := New(8, 3, devs(8))
	for p := uint32(0); p < uint32(r.PartitionCount()); p++ {
		ds := r.PartitionDevices(p)
		if len(ds) != 3 {
			t.Fatalf("partition %d has %d replicas", p, len(ds))
		}
		seen := map[int]bool{}
		for _, d := range ds {
			if seen[d] {
				t.Fatalf("partition %d has duplicate device %d", p, d)
			}
			seen[d] = true
		}
	}
}

func TestZoneSpreadWhenPossible(t *testing.T) {
	// 6 devices in 3 zones, 3 replicas: every partition must span 3 zones.
	ds := []Device{
		{ID: 0, Zone: 0, Weight: 1}, {ID: 1, Zone: 0, Weight: 1},
		{ID: 2, Zone: 1, Weight: 1}, {ID: 3, Zone: 1, Weight: 1},
		{ID: 4, Zone: 2, Weight: 1}, {ID: 5, Zone: 2, Weight: 1},
	}
	r, _ := New(8, 3, ds)
	zoneOf := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
	for p := uint32(0); p < uint32(r.PartitionCount()); p++ {
		zones := map[int]bool{}
		for _, d := range r.PartitionDevices(p) {
			zones[zoneOf[d]] = true
		}
		if len(zones) != 3 {
			t.Fatalf("partition %d spans %d zones, want 3", p, len(zones))
		}
	}
}

func TestBalanceUniformWeights(t *testing.T) {
	r, _ := New(12, 3, devs(8))
	st := r.Stats()
	if st.MaxRatio > 1.05 {
		t.Fatalf("MaxRatio %.3f > 1.05 for uniform weights", st.MaxRatio)
	}
	if st.MaxLoad-st.MinLoad > st.MaxLoad/10+1 {
		t.Fatalf("load spread too wide: min %d max %d", st.MinLoad, st.MaxLoad)
	}
}

func TestBalanceWeighted(t *testing.T) {
	// Weights chosen so fair shares are feasible under both the one-replica-
	// per-device and one-replica-per-zone constraints (each device and each
	// zone holds at most 1/replicas of the total weight).
	ds := []Device{
		{ID: 0, Zone: 0, Weight: 1.5}, {ID: 1, Zone: 0, Weight: 0.5},
		{ID: 2, Zone: 1, Weight: 1.0}, {ID: 3, Zone: 1, Weight: 1.0},
		{ID: 4, Zone: 2, Weight: 0.5}, {ID: 5, Zone: 2, Weight: 1.5},
		{ID: 6, Zone: 3, Weight: 1.0}, {ID: 7, Zone: 3, Weight: 1.0},
	}
	r, _ := New(12, 3, ds)
	st := r.Stats()
	if st.MaxRatio > 1.10 {
		t.Fatalf("MaxRatio %.3f > 1.10 for weighted devices", st.MaxRatio)
	}
}

// Property: for any set of devices, every object maps to a full, distinct
// replica set.
func TestAssignmentProperty(t *testing.T) {
	f := func(nDevs uint8, seed uint16) bool {
		n := int(nDevs%12) + 1
		r, err := New(6, 3, devs(n))
		if err != nil {
			return false
		}
		name := fmt.Sprintf("key-%d", seed)
		ds := r.Devices(name)
		if len(ds) != r.ReplicaCount() {
			return false
		}
		seen := map[int]bool{}
		for _, d := range ds {
			if d < 0 || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceIDsSorted(t *testing.T) {
	r, _ := New(4, 2, []Device{{ID: 7, Weight: 1}, {ID: 2, Weight: 1}, {ID: 5, Weight: 1}})
	ids := r.DeviceIDs()
	want := []int{2, 5, 7}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("DeviceIDs = %v, want %v", ids, want)
		}
	}
}

// TestAssignmentDeterministic: two rings built from the same device set
// must agree on every partition's replica set. Persistent clusters depend
// on this — a restart rebuilds the ring and must find objects where the
// previous process put them.
func TestAssignmentDeterministic(t *testing.T) {
	build := func() *Ring {
		ds := []Device{
			{ID: 3, Zone: 1, Weight: 2}, {ID: 0, Zone: 0, Weight: 1},
			{ID: 7, Zone: 3, Weight: 1}, {ID: 5, Zone: 2, Weight: 2},
			{ID: 1, Zone: 0, Weight: 1}, {ID: 6, Zone: 3, Weight: 1},
			{ID: 4, Zone: 2, Weight: 1}, {ID: 2, Zone: 1, Weight: 1},
		}
		r, err := New(10, 3, ds)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := build(), build()
	for p := uint32(0); p < uint32(a.PartitionCount()); p++ {
		da, db := a.PartitionDevices(p), b.PartitionDevices(p)
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("partition %d differs between builds: %v vs %v", p, da, db)
			}
		}
	}
}

func BenchmarkDevices(b *testing.B) {
	r, _ := New(16, 3, devs(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Devices("account/container/some/deep/path/object.dat")
	}
}

func BenchmarkDeviceIDs(b *testing.B) {
	r, _ := New(10, 3, devs(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DeviceIDs()
	}
}

func BenchmarkRebalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(12, 3, devs(16)); err != nil {
			b.Fatal(err)
		}
	}
}
