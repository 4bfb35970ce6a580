package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeNameRingRoundTrip(t *testing.T) {
	r := NewNameRing()
	r.Set(Tuple{Name: "cat", Time: 100})
	r.Set(Tuple{Name: "bash", Time: 200, Dir: true, NS: "02.01.1469346604539"})
	r.Set(Tuple{Name: "nc", Time: 300, Deleted: true})
	r.Set(Tuple{Name: "video.bin", Time: 350, Chunked: true})
	r.Set(Tuple{Name: "weird\tname\n", Time: 400, Dir: true, Deleted: true, NS: "03.02.7"})
	got, err := DecodeNameRing(EncodeNameRing(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", r.All(), got.All())
	}
}

func TestEncodeNameRingSortedASCII(t *testing.T) {
	r := NewNameRing()
	r.Set(Tuple{Name: "zebra", Time: 1})
	r.Set(Tuple{Name: "apple", Time: 2})
	out := string(EncodeNameRing(r))
	if !strings.HasPrefix(out, "H2NR/1\n") {
		t.Fatalf("missing magic: %q", out)
	}
	if strings.Index(out, "apple") > strings.Index(out, "zebra") {
		t.Fatal("tuples not alphabetically sorted")
	}
	for _, c := range out {
		if c > 127 {
			t.Fatalf("non-ASCII byte in encoding: %q", c)
		}
	}
}

func TestDecodeNameRingErrors(t *testing.T) {
	cases := []string{
		"",
		"WRONG/1\n",
		"H2NR/1\nunquoted\t1\t-\t-\n",
		"H2NR/1\n\"x\"\tnotanumber\t-\t-\n",
		"H2NR/1\n\"x\"\t1\tq\t-\n",
		"H2NR/1\n\"x\"\t1\t-\n",
		"H2NR/1\n\"x\"\t1\n",
	}
	for _, c := range cases {
		if _, err := DecodeNameRing([]byte(c)); err == nil {
			t.Errorf("DecodeNameRing(%q) accepted", c)
		}
	}
}

func TestEmptyNameRingRoundTrip(t *testing.T) {
	got, err := DecodeNameRing(EncodeNameRing(NewNameRing()))
	if err != nil || got.TotalLen() != 0 {
		t.Fatalf("empty round trip: %v, %d tuples", err, got.TotalLen())
	}
}

// Property: encode/decode is lossless for arbitrary names and flags.
func TestNameRingCodecProperty(t *testing.T) {
	f := func(names []string, times []int64, flags []uint8) bool {
		r := NewNameRing()
		for i, n := range names {
			if n == "" {
				continue
			}
			tp := Tuple{Name: n}
			if i < len(times) {
				tp.Time = times[i]
			}
			if i < len(flags) {
				tp.Deleted = flags[i]&1 != 0
				tp.Dir = flags[i]&2 != 0
				if tp.Dir && flags[i]&4 != 0 {
					tp.NS = "01.02.3"
				}
				if !tp.Dir {
					tp.Chunked = flags[i]&8 != 0
				}
			}
			r.Set(tp)
		}
		got, err := DecodeNameRing(EncodeNameRing(r))
		return err == nil && got.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirObjectRoundTrip(t *testing.T) {
	d := DirObject{NS: "06.01.1469346604539", Name: "home dir \"x\"", Created: 123456789}
	got, err := DecodeDir(EncodeDir(d))
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip = %+v, want %+v", got, d)
	}
	if !IsDirObject(EncodeDir(d)) {
		t.Fatal("IsDirObject = false on encoded dir")
	}
	if IsDirObject([]byte("random")) {
		t.Fatal("IsDirObject = true on junk")
	}
}

func TestDecodeDirErrors(t *testing.T) {
	cases := []string{
		"",
		"H2DIR/1\nnope\n",
		"H2DIR/1\nname=\"x\"\n",          // missing ns
		"H2DIR/1\nns=1.1.1\nname=bare\n", // unquoted name
		"H2DIR/1\nns=1.1.1\ncreated=x\n",
		"H2DIR/1\nunknown=1\n",
	}
	for _, c := range cases {
		if _, err := DecodeDir([]byte(c)); err == nil {
			t.Errorf("DecodeDir(%q) accepted", c)
		}
	}
}

func TestPatchKeyMatchesPaperFormat(t *testing.T) {
	// §3.3.2 example: "N97::/NameRing/.Node01.Patch03".
	key := PatchKey("alice", "N97", 1, 3)
	if !strings.Contains(key, "N97::/NameRing/.Node01.Patch") {
		t.Fatalf("patch key = %q", key)
	}
	if k, ok := ParseKey(key); !ok || k.Kind != KeyPatch || k.Node != 1 || k.Seq != 3 {
		t.Fatalf("ParseKey = %+v, %v", k, ok)
	}
}

// The %02d/%06d layout is an on-store format: the widths are minimums,
// never truncations, and the hand-built key matches fmt's rendering for
// every node and sequence, sign included.
func TestPatchKeyLayout(t *testing.T) {
	for _, c := range []struct {
		node, seq int
		want      string
	}{
		{1, 3, "alice|N97::/NameRing/.Node01.Patch000003"},
		{0, 0, "alice|N97::/NameRing/.Node00.Patch000000"},
		{99, 999999, "alice|N97::/NameRing/.Node99.Patch999999"},
		{100, 1000000, "alice|N97::/NameRing/.Node100.Patch1000000"},
		{4711, 123456789, "alice|N97::/NameRing/.Node4711.Patch123456789"},
		{-1, -2, "alice|N97::/NameRing/.Node-1.Patch-00002"},
	} {
		got := PatchKey("alice", "N97", c.node, c.seq)
		if old := fmt.Sprintf("%s.Node%02d.Patch%06d", RingKey("alice", "N97"), c.node, c.seq); got != c.want || got != old {
			t.Errorf("PatchKey(%d, %d) = %q, want %q (fmt renders %q)", c.node, c.seq, got, c.want, old)
		}
		if k, ok := ParseKey(got); !ok || k.Kind != KeyPatch || k.Node != c.node || k.Seq != c.seq {
			t.Errorf("ParseKey(%q) = %+v, %v", got, k, ok)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = PatchKey("alice", "N97", 7, 1234567) }); n != 1 {
		t.Errorf("PatchKey allocates %v times per call, want 1", n)
	}
}

func TestParsePatchKeyErrors(t *testing.T) {
	for _, bad := range []string{
		"", "x.Node01", "x.NodeAA.Patch01", "x.Node01.PatchZZ",
		"a|n::/NameRing/.NodeAA.Patch000001",
		"a|n::/NameRing/.Node01.PatchZZ",
		"a|n::/NameRing/.Node1.Patch000001", // not zero-padded
		"a|n::/NameRing/.Node01.Patch01",
		"a|n::/NameRing/.Node01",
	} {
		if k, ok := ParseKey(bad); ok && k.Kind == KeyPatch {
			t.Errorf("ParseKey(%q) = %+v, a patch", bad, k)
		}
	}
}

func TestPatchEncodeDecodeRoundTrip(t *testing.T) {
	ring := NewNameRing()
	ring.Set(Tuple{Name: "file1", Time: 42})
	ring.Set(Tuple{Name: "gone", Time: 43, Deleted: true})
	p := &Patch{Account: "alice", NS: "02.01.99", Node: 3, Seq: 17, Ring: ring}
	got, err := DecodePatch(p.Key(), p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Account != "alice" || got.NS != "02.01.99" || got.Node != 3 || got.Seq != 17 {
		t.Fatalf("decoded patch = %+v", got)
	}
	if !got.Ring.Equal(ring) {
		t.Fatal("patch ring mismatch")
	}
}

func TestDecodePatchErrors(t *testing.T) {
	ring := EncodeNameRing(NewNameRing())
	cases := []struct{ key string }{
		{"no-account-sep.Node01.Patch01"},
		{"alice|nomarker.Node01.Patch01"},
		{"alice|ns::/NameRing/"},
	}
	for _, c := range cases {
		if _, err := DecodePatch(c.key, ring); err == nil {
			t.Errorf("DecodePatch(%q) accepted", c.key)
		}
	}
	if _, err := DecodePatch(PatchKey("a", "n", 1, 1), []byte("junk")); err == nil {
		t.Error("DecodePatch accepted junk body")
	}
}

func TestKeySchemeDistinct(t *testing.T) {
	// The three key kinds for one namespace must never collide, nor may a
	// child named like the ring marker (names with '/' are invalid anyway).
	keys := []string{
		ChildKey("alice", "N1", "file"),
		RingKey("alice", "N1"),
		PatchKey("alice", "N1", 1, 1),
		RootKey("alice"),
		ChildKey("bob", "N1", "file"),
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("key collision: %q", k)
		}
		seen[k] = true
	}
}

func TestValidAccount(t *testing.T) {
	for _, ok := range []string{"alice", "user-1", "A_B9"} {
		if !ValidAccount(ok) {
			t.Errorf("ValidAccount(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a|b", "a/b", "a b", "ü"} {
		if ValidAccount(bad) {
			t.Errorf("ValidAccount(%q) = true", bad)
		}
	}
}

func TestValidChildName(t *testing.T) {
	for _, ok := range []string{"file1", ".hidden", "na me", "::"} {
		if !ValidChildName(ok) {
			t.Errorf("ValidChildName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b"} {
		if ValidChildName(bad) {
			t.Errorf("ValidChildName(%q) = true", bad)
		}
	}
}
