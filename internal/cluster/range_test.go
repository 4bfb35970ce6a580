package cluster

import (
	"context"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

func TestGetRangeSemantics(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	if err := c.Put(ctx, "obj", []byte("0123456789"), nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off, length int64
		want        string
	}{
		{0, 4, "0123"},
		{6, -1, "6789"},
		{6, 100, "6789"},
		{10, 5, ""},
		{999, -1, ""},
	}
	for _, cse := range cases {
		got, info, err := c.GetRange(ctx, "obj", cse.off, cse.length)
		if err != nil {
			t.Fatalf("GetRange(%d,%d): %v", cse.off, cse.length, err)
		}
		if string(got) != cse.want {
			t.Fatalf("GetRange(%d,%d) = %q, want %q", cse.off, cse.length, got, cse.want)
		}
		if info.Size != 10 {
			t.Fatalf("info.Size = %d", info.Size)
		}
	}
	if _, _, err := c.GetRange(ctx, "obj", -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, _, err := c.GetRange(ctx, "missing", 0, 4); err == nil {
		t.Fatal("missing object range read succeeded")
	}
}

func TestGetRangeChargesOnlyReturnedBytes(t *testing.T) {
	c, err := New(Config{Profile: SwiftProfile()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	big := make([]byte, 1<<20) // 1 MiB object
	if err := c.Put(ctx, "big", big, nil); err != nil {
		t.Fatal(err)
	}
	p := SwiftProfile()
	tr := vclock.NewTracker()
	if _, _, err := c.GetRange(vclock.With(ctx, tr), "big", 0, 1024); err != nil {
		t.Fatal(err)
	}
	want := p.Get + 1*p.PerKB // one KiB of transfer, not 1024
	if got := tr.Elapsed(); got != want {
		t.Fatalf("ranged read charged %v, want %v", got, want)
	}
	tr.Reset()
	if _, _, err := c.Get(vclock.With(ctx, tr), "big"); err != nil {
		t.Fatal(err)
	}
	full := p.Get + 1024*p.PerKB
	if got := tr.Elapsed(); got != full {
		t.Fatalf("full read charged %v, want %v", got, full)
	}
}

// A ranged read copies the range, not the object: on a 1 MiB object its
// allocation follows the range's length.
func TestGetRangeAllocatesTheRangeOnly(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	if err := c.Put(ctx, "big", make([]byte, 1<<20), nil); err != nil {
		t.Fatal(err)
	}
	for _, length := range []int64{1 << 10, 64 << 10} {
		read := func() {
			if part, _, err := c.GetRange(ctx, "big", 4096, length); err != nil || int64(len(part)) != length {
				t.Fatalf("GetRange(4096, %d) = %d bytes, %v", length, len(part), err)
			}
		}
		if n := testing.AllocsPerRun(20, read); n != 1 {
			t.Fatalf("GetRange of %d B makes %v allocations, want 1 (the range)", length, n)
		}
		if b := fstest.AllocBytesPerRun(20, read); int64(b) < length || int64(b) >= length+length/8 {
			t.Fatalf("GetRange of %d B out of 1 MiB allocates %d B", length, b)
		}
	}
}
