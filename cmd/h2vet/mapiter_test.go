package main

import "testing"

func TestMapiter(t *testing.T) {
	cases := []golden{
		{
			name: "append without sort caught",
			src: `package core

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			want: []string{
				"internal/core/src.go:6:3: mapiter: append to out in map iteration order over m with no later sort; sort out or iterate sorted keys",
			},
		},
		{
			name: "append with later sort allowed",
			src: `package core

import "sort"

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`,
			want: nil,
		},
		{
			name: "hash and channel send inside loop caught",
			src: `package core

import "hash/crc32"

func digest(m map[string][]byte, ch chan string) uint32 {
	h := crc32.NewIEEE()
	for k, v := range m {
		h.Write(v)
		ch <- k
	}
	return h.Sum32()
}
`,
			want: []string{
				"internal/core/src.go:8:3: mapiter: call to Write inside map iteration over m; emission order is nondeterministic, iterate sorted keys",
				"internal/core/src.go:9:3: mapiter: channel send inside map iteration over m; delivery order is nondeterministic",
			},
		},
		{
			name: "loop-local slice is order-free",
			src: `package core

func count(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}
`,
			want: nil,
		},
		{
			name: "slice range untouched",
			src: `package core

func collect(s []string) []string {
	var out []string
	for _, v := range s {
		out = append(out, v)
	}
	return out
}
`,
			want: nil,
		},
	}
	runGoldens(t, mapiterAnalyzer, "internal/core/src.go", nil, cases)
}
