package core

import (
	"reflect"
	"testing"
)

func TestGCEntryRoundTrip(t *testing.T) {
	cases := []GCEntry{
		{Account: "alice", NS: "N05", ParentNS: "N01", Name: "videos", Enqueued: 42},
		{Account: "bob", NS: "N07", ParentNS: "N02", Name: "weird\tname\n=x", Enqueued: -1},
		{Account: "carol", NS: "N09", Root: true, Enqueued: 1700000000000000000},
	}
	for _, want := range cases {
		got, err := DecodeGCEntry(EncodeGCEntry(want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestGCEntryDecodeRejectsGarbage(t *testing.T) {
	for _, data := range []string{"", "H2DIR/1\nns=x\n", "H2GCQ/1\nnonsense\n", "H2GCQ/1\naccount=a\n"} {
		if _, err := DecodeGCEntry([]byte(data)); err == nil {
			t.Fatalf("decode %q: expected error", data)
		}
	}
}

func TestGCEntryEntryKey(t *testing.T) {
	e := GCEntry{Account: "alice", NS: "N05", ParentNS: "N01", Name: "videos"}
	if got, want := e.EntryKey(), ChildKey("alice", "N01", "videos"); got != want {
		t.Fatalf("EntryKey = %q, want %q", got, want)
	}
	root := GCEntry{Account: "alice", NS: "N01", Root: true}
	if got := root.EntryKey(); got != "" {
		t.Fatalf("root EntryKey = %q, want empty", got)
	}
}

func TestGCEntryAcked(t *testing.T) {
	e := GCEntry{Account: "alice", NS: "N05", ParentNS: "N01", Name: "videos"}
	cases := []struct {
		name      string
		t         Tuple
		ok        bool
		wantAcked bool
		wantKey   string
	}{
		{"live tuple, same namespace", Tuple{Name: "videos", Dir: true, NS: "N05"}, true, false, ""},
		{"tombstone", Tuple{Name: "videos", Dir: true, NS: "N05", Deleted: true}, true, true, e.EntryKey()},
		{"absent", Tuple{}, false, true, e.EntryKey()},
		{"live successor, new namespace", Tuple{Name: "videos", Dir: true, NS: "N09"}, true, true, ""},
	}
	for _, c := range cases {
		acked, key := e.Acked(c.t, c.ok)
		if acked != c.wantAcked || key != c.wantKey {
			t.Errorf("%s: Acked = (%v, %q), want (%v, %q)", c.name, acked, key, c.wantAcked, c.wantKey)
		}
	}
}

func TestGCQueueKeyRoundTrip(t *testing.T) {
	key := GCQueueKey("alice", 3, 17)
	if want := "alice|/gcq/Node03.Item000017"; key != want {
		t.Fatalf("GCQueueKey = %q, want %q", key, want)
	}
	if k, ok := ParseKey(key); !ok || k != (Key{Kind: KeyGCEntry, Account: "alice", Node: 3, Seq: 17}) {
		t.Fatalf("ParseKey(%q) = %+v, %v", key, k, ok)
	}
	if k, _ := ParseKey(ChildKey("alice", "N01", "file")); k.Kind == KeyGCEntry {
		t.Fatal("child key misdetected as queue key")
	}
}

func TestGCIndexKeyOutsideAccountKeyspace(t *testing.T) {
	key := GCIndexKey(7)
	if k, ok := ParseKey(key); !ok || k != (Key{Kind: KeyGCIndex, Node: 7}) {
		t.Fatalf("ParseKey(%q) = %+v, %v", key, k, ok)
	}
	// The '#' prefix can never be an account name, so index objects can
	// never collide with user data.
	account, _, _ := splitAccount(key)
	if ValidAccount(account) {
		t.Fatalf("index key account part %q must be invalid as an account", account)
	}
}

// splitAccount mirrors how scrubbing code extracts the account prefix.
func splitAccount(key string) (string, string, bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[:i], key[i+1:], true
		}
	}
	return key, "", false
}

func TestGCIndexRoundTripSortedAndDeterministic(t *testing.T) {
	in := []GCIndexEntry{
		{Account: "zed", Cursor: 4, Head: 9},
		{Account: "alice", Cursor: 1, Head: 1},
	}
	data := EncodeGCIndex(in)
	if string(data) != string(EncodeGCIndex([]GCIndexEntry{in[1], in[0]})) {
		t.Fatal("encoding must not depend on input order")
	}
	got, err := DecodeGCIndex(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := []GCIndexEntry{
		{Account: "alice", Cursor: 1, Head: 1},
		{Account: "zed", Cursor: 4, Head: 9},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	if _, err := DecodeGCIndex([]byte("H2NR/1\n")); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if _, err := DecodeGCIndex([]byte("H2GCX/1\nalice\t1\n")); err == nil {
		t.Fatal("expected malformed-line error")
	}
}
