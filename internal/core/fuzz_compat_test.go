package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// This file pins the PR-8 zero-copy decoders to the seed decoders they
// replaced. seedDecodeNameRing and seedDecodeDir are verbatim copies of
// the pre-optimization implementations (strings.Split based, one
// allocation per field); the fuzzers assert the rewritten decoders are
// observationally identical — same accept/reject decision, same error
// text, same decoded value — and additionally alias-safe: the rewritten
// decoders copy the input once, so scribbling over the input buffer
// after Decode returns must not corrupt the result.

// seedDecodeNameRing is the pre-PR-8 DecodeNameRing, kept as the
// reference semantics for the Formatter.
func seedDecodeNameRing(data []byte) (*NameRing, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != ringMagic {
		return nil, fmt.Errorf("core: not a NameRing object (bad magic)")
	}
	r := NewNameRing()
	for i, line := range lines[1:] {
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			return nil, fmt.Errorf("core: NameRing line %d malformed: %q", i+2, line)
		}
		name, err := strconv.Unquote(fields[0])
		if err != nil {
			return nil, fmt.Errorf("core: NameRing line %d bad name: %w", i+2, err)
		}
		ts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: NameRing line %d bad timestamp: %w", i+2, err)
		}
		t := Tuple{Name: name, Time: ts}
		for _, c := range fields[2] {
			switch c {
			case 'd':
				t.Dir = true
			case 'x':
				t.Deleted = true
			case 'c':
				t.Chunked = true
			case '-':
			default:
				return nil, fmt.Errorf("core: NameRing line %d unknown flag %q", i+2, c)
			}
		}
		if fields[3] != "-" {
			t.NS = fields[3]
		}
		r.Set(t)
	}
	return r, nil
}

// seedDecodeDir is the pre-PR-8 DecodeDir, kept as the reference
// semantics for directory objects.
func seedDecodeDir(data []byte) (DirObject, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != dirMagic {
		return DirObject{}, fmt.Errorf("core: not a directory object (bad magic)")
	}
	var d DirObject
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return DirObject{}, fmt.Errorf("core: directory line malformed: %q", line)
		}
		switch key {
		case "ns":
			d.NS = val
		case "name":
			name, err := strconv.Unquote(val)
			if err != nil {
				return DirObject{}, fmt.Errorf("core: directory bad name: %w", err)
			}
			d.Name = name
		case "created":
			ts, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return DirObject{}, fmt.Errorf("core: directory bad created: %w", err)
			}
			d.Created = ts
		default:
			return DirObject{}, fmt.Errorf("core: directory unknown field %q", key)
		}
	}
	if d.NS == "" {
		return DirObject{}, fmt.Errorf("core: directory object missing namespace")
	}
	return d, nil
}

// FuzzNameRingDecodeCompat: the zero-copy DecodeNameRing must be
// byte-for-byte equivalent to the seed decoder on every input, and the
// decoded ring must survive the caller mutating the input buffer.
func FuzzNameRingDecodeCompat(f *testing.F) {
	r := NewNameRing()
	r.Set(Tuple{Name: "cat", Time: 100})
	r.Set(Tuple{Name: "dir", Time: 200, Dir: true, NS: "01.02.3"})
	r.Set(Tuple{Name: "gone", Time: 300, Deleted: true})
	r.Set(Tuple{Name: "tab\tquote\"nl\n", Time: 400, Chunked: true})
	r.Set(Tuple{Name: "unié", Time: 500})
	f.Add(EncodeNameRing(r))
	f.Add(EncodeNameRing(NewNameRing()))
	f.Add([]byte(ringMagic))
	f.Add([]byte("H2NR/1\n\"x\"\t1\t-\t-\n"))
	f.Add([]byte("H2NR/1\n\n\"x\"\t1\t-\t-"))
	f.Add([]byte("H2NR/1\n\"x\"\t1\t-\t-\textra\n"))
	f.Add([]byte("H2NR/1\n\"x\"\t1\tz\t-\n"))
	// Lines out of name order and repeated names: the decoder's sort path,
	// which must leave what Set in input order leaves.
	f.Add([]byte("H2NR/1\n\"b\"\t1\t-\t-\n\"a\"\t2\t-\t-\n"))
	f.Add([]byte("H2NR/1\n\"a\"\t2\tx\t-\n\"a\"\t1\t-\t-\n"))
	f.Add([]byte("H2NR/1\n\"c\"\t1\t-\t-\n\"a\"\t5\td\t01.1\n\"c\"\t3\tx\t-\n\"b\"\t1\t-\t-\n\"a\"\t2\t-\t-\n"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		got, gotErr := DecodeNameRing(data)
		// Alias safety: the result may not reference data after return.
		for i := range data {
			data[i] = 0xAA
		}
		want, wantErr := seedDecodeNameRing(orig)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject diverged: new=%v seed=%v\ninput: %q", gotErr, wantErr, orig)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text diverged:\nnew:  %v\nseed: %v\ninput: %q", gotErr, wantErr, orig)
			}
			return
		}
		if !got.Equal(want) {
			t.Fatalf("decoded rings diverged on %q", orig)
		}
		if ne, se := EncodeNameRing(got), EncodeNameRing(want); !bytes.Equal(ne, se) {
			t.Fatalf("re-encodings diverged:\nnew:  %q\nseed: %q", ne, se)
		}
	})
}

// FuzzAppendQuotedName: the encoders' quote fast path must emit exactly
// what strconv.AppendQuote emits, for every name after every prefix, so
// no stored ring or directory object changes by a byte.
func FuzzAppendQuotedName(f *testing.F) {
	for b := 0; b < 256; b++ {
		f.Add([]byte("H2NR/1\n"), string([]byte{byte(b)}))
	}
	for _, s := range []string{"\x7f", "a\"b", "a\\b", "\xff", "a\xc3", "\xed\xa0\x80", "unié", "", "child000123"} {
		f.Add([]byte(nil), s)
	}
	f.Fuzz(func(t *testing.T, prefix []byte, name string) {
		got := appendQuotedName(bytes.Clone(prefix), name)
		want := strconv.AppendQuote(bytes.Clone(prefix), name)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendQuotedName(%q, %q) = %q, want %q", prefix, name, got, want)
		}
	})
}

// FuzzDirDecodeCompat: same contract for directory objects.
func FuzzDirDecodeCompat(f *testing.F) {
	f.Add(EncodeDir(DirObject{NS: "06.01.1469346604539", Name: "home", Created: 1}))
	f.Add(EncodeDir(DirObject{NS: "1.1.1", Name: "q\"t\tn\n", Created: -7}))
	f.Add([]byte(dirMagic))
	f.Add([]byte("H2DIR/1\nns=1.1.1\n"))
	f.Add([]byte("H2DIR/1\nns=1.1.1\nname=\"x\"\ncreated=5\n"))
	f.Add([]byte("H2DIR/1\nbogus\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		got, gotErr := DecodeDir(data)
		for i := range data {
			data[i] = 0xAA
		}
		want, wantErr := seedDecodeDir(orig)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject diverged: new=%v seed=%v\ninput: %q", gotErr, wantErr, orig)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text diverged:\nnew:  %v\nseed: %v\ninput: %q", gotErr, wantErr, orig)
			}
			return
		}
		if got != want {
			t.Fatalf("decoded objects diverged: new=%+v seed=%+v\ninput: %q", got, want, orig)
		}
	})
}
