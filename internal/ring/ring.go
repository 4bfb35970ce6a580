// Package ring implements a Swift-style consistent hashing ring.
//
// The object storage cloud underneath H2Cloud (paper §3.1, Figure 4c) keeps
// all objects — file content, directory objects, and NameRings alike — on a
// single, larger consistent hashing ring so that load balance is kept
// automatically. Following OpenStack Swift's design, the ring divides the
// hash space into 2^partPower partitions; an object's MD5 hash selects its
// partition, and each partition is assigned to `replicas` devices spread
// across failure zones, proportionally to device weight.
package ring

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Device is a storage device participating in the ring.
type Device struct {
	ID     int     // unique device identifier
	Zone   int     // failure zone; replicas avoid sharing zones when possible
	Weight float64 // relative capacity; partitions assigned proportionally
}

// Ring maps object names to replica device sets. It is immutable after
// New, so it is safe for concurrent readers.
type Ring struct {
	partPower int
	replicas  int
	devices   map[int]Device
	// part2dev[r][p] is the device ID holding replica r of partition p.
	part2dev [][]int
	// sortedIDs is the device IDs, sorted once by New.
	sortedIDs []int
}

// ErrNoDevices is returned when a ring is built with no usable devices.
var ErrNoDevices = errors.New("ring: no devices with positive weight")

// New builds a ring with 2^partPower partitions and the given replica count
// over the devices, and balances it. replicas is capped at the number of
// devices.
func New(partPower, replicas int, devices []Device) (*Ring, error) {
	if partPower < 1 || partPower > 24 {
		return nil, fmt.Errorf("ring: partPower %d out of range [1,24]", partPower)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("ring: replicas %d < 1", replicas)
	}
	r := &Ring{
		partPower: partPower,
		replicas:  replicas,
		devices:   make(map[int]Device, len(devices)),
	}
	for _, d := range devices {
		if d.Weight <= 0 {
			continue
		}
		if _, dup := r.devices[d.ID]; dup {
			return nil, fmt.Errorf("ring: duplicate device ID %d", d.ID)
		}
		r.devices[d.ID] = d
	}
	if len(r.devices) == 0 {
		return nil, ErrNoDevices
	}
	if replicas > len(r.devices) {
		r.replicas = len(r.devices)
	}
	for id := range r.devices {
		r.sortedIDs = append(r.sortedIDs, id)
	}
	sort.Ints(r.sortedIDs)
	r.part2dev = make([][]int, r.replicas)
	for rep := range r.part2dev {
		r.part2dev[rep] = make([]int, r.PartitionCount())
	}
	r.balance()
	return r, nil
}

// PartitionCount reports the number of partitions (2^partPower).
func (r *Ring) PartitionCount() int { return 1 << r.partPower }

// ReplicaCount reports the number of replicas kept per partition.
func (r *Ring) ReplicaCount() int { return r.replicas }

// DeviceIDs returns the IDs of all devices in the ring, sorted. The slice
// is a copy of the one New sorted, not re-sorted per call.
func (r *Ring) DeviceIDs() []int {
	return r.DeviceIDsAppend(make([]int, 0, len(r.sortedIDs)))
}

// DeviceIDsAppend appends the sorted device IDs to dst and returns the
// extended slice; the zero-alloc sibling of DeviceIDs.
func (r *Ring) DeviceIDsAppend(dst []int) []int {
	return append(dst, r.sortedIDs...)
}

// Partition returns the partition an object name hashes to: the top
// partPower bits of its MD5, a pure function of the name. Names up to 128
// bytes are hashed from a stack buffer, so the call does not allocate.
func (r *Ring) Partition(name string) uint32 {
	var buf [128]byte
	sum := md5.Sum(append(buf[:0], name...))
	return binary.BigEndian.Uint32(sum[:4]) >> (32 - uint(r.partPower))
}

// Devices returns the replica device IDs responsible for an object name.
// The returned slice is freshly allocated.
func (r *Ring) Devices(name string) []int {
	return r.PartitionDevices(r.Partition(name))
}

// DevicesAppend appends the replica device IDs responsible for an object
// name to dst and returns the extended slice. Fan-out hot paths pass a
// stack-backed buffer to avoid the per-call allocation of Devices.
func (r *Ring) DevicesAppend(name string, dst []int) []int {
	return r.PartitionDevicesAppend(r.Partition(name), dst)
}

// PartitionDevices returns the replica device IDs for a partition.
func (r *Ring) PartitionDevices(part uint32) []int {
	return r.PartitionDevicesAppend(part, make([]int, 0, r.replicas))
}

// PartitionDevicesAppend appends the replica device IDs for a partition
// to dst and returns the extended slice.
func (r *Ring) PartitionDevicesAppend(part uint32, dst []int) []int {
	for rep := 0; rep < r.replicas; rep++ {
		dst = append(dst, r.part2dev[rep][part])
	}
	return dst
}

// devLoad tracks assignment progress for one device during balance.
type devLoad struct {
	dev  Device
	want float64 // desired replica-partitions
	have int     // assigned replica-partitions
}

// balance assigns every partition replica of a fresh ring to a device,
// proportionally to weight, keeping replicas of one partition on distinct
// devices and — when enough zones exist — in distinct zones. Slots are
// filled replica by replica, so a slot reads only the ones before it.
func (r *Ring) balance() {
	parts := r.PartitionCount()
	total := 0.0
	for _, d := range r.devices {
		total += d.Weight
	}
	zones := make(map[int]bool)
	for _, d := range r.devices {
		zones[d.Zone] = true
	}
	distinctZones := len(zones) >= r.replicas
	// Build the candidate list in ascending device-id order: pickDevice
	// breaks starvation ties by list position, so map iteration order here
	// would make replica placement differ run to run.
	loads := make(map[int]*devLoad, len(r.devices))
	order := make([]*devLoad, 0, len(r.sortedIDs))
	for _, id := range r.sortedIDs {
		d := r.devices[id]
		l := &devLoad{dev: d, want: d.Weight / total * float64(parts*r.replicas)}
		loads[id] = l
		order = append(order, l)
	}
	// Hand each slot to the most starved device that keeps the partition's
	// replicas on distinct devices (and zones when possible).
	for rep := 0; rep < r.replicas; rep++ {
		for p := 0; p < parts; p++ {
			usedDev := make(map[int]bool, r.replicas)
			usedZone := make(map[int]bool, r.replicas)
			for other := 0; other < rep; other++ {
				l := loads[r.part2dev[other][p]]
				usedDev[l.dev.ID] = true
				usedZone[l.dev.Zone] = true
			}
			best := r.pickDevice(order, usedDev, usedZone, distinctZones)
			if best == nil {
				// All devices carry a replica already; relax device uniqueness.
				best = r.pickDevice(order, nil, nil, false)
			}
			best.have++
			r.part2dev[rep][p] = best.dev.ID
		}
	}
}

// pickDevice selects the device with the largest deficit (want - have)
// among those not excluded. Ties break on smaller device ID for
// determinism.
func (r *Ring) pickDevice(order []*devLoad, usedDev, usedZone map[int]bool, wantZone bool) *devLoad {
	var best *devLoad
	for _, l := range order {
		if usedDev[l.dev.ID] {
			continue
		}
		if wantZone && usedZone[l.dev.Zone] {
			continue
		}
		if best == nil {
			best = l
			continue
		}
		db, dl := best.want-float64(best.have), l.want-float64(l.have)
		if dl > db || (dl == db && l.dev.ID < best.dev.ID) {
			best = l
		}
	}
	if best == nil && wantZone {
		return r.pickDevice(order, usedDev, nil, false)
	}
	return best
}

// BalanceStats summarizes how evenly replica-partitions are spread.
type BalanceStats struct {
	MinLoad int     // fewest replica-partitions on any device
	MaxLoad int     // most replica-partitions on any device
	Mean    float64 // mean replica-partitions per device
	// MaxRatio is MaxLoad divided by the device's weighted fair share; 1.0
	// is perfect balance.
	MaxRatio float64
}

// Stats computes balance statistics for the current assignment.
func (r *Ring) Stats() BalanceStats {
	counts := make(map[int]int, len(r.devices))
	for id := range r.devices {
		counts[id] = 0
	}
	for rep := 0; rep < r.replicas; rep++ {
		for _, id := range r.part2dev[rep] {
			if _, ok := counts[id]; ok {
				counts[id]++
			}
		}
	}
	total := 0.0
	for _, d := range r.devices {
		total += d.Weight
	}
	parts := float64(r.PartitionCount() * r.replicas)
	st := BalanceStats{MinLoad: math.MaxInt32}
	sum := 0
	for id, c := range counts {
		sum += c
		if c < st.MinLoad {
			st.MinLoad = c
		}
		if c > st.MaxLoad {
			st.MaxLoad = c
		}
		fair := r.devices[id].Weight / total * parts
		if fair > 0 {
			if ratio := float64(c) / fair; ratio > st.MaxRatio {
				st.MaxRatio = ratio
			}
		}
	}
	st.Mean = float64(sum) / float64(len(counts))
	return st
}
