package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreSegment writes arbitrary bytes as the one segment of a store
// directory and drives the store over it: Open, a Get of every key ListKeys
// gives for every indexed stage, Stats, a Put and a reopen. The properties:
// nothing panics; every record Get answers has an intact frame in the
// segment (its CRC matches); the disk entries Stats counts are exactly the
// records answered; and after the reopen every answered record and the Put
// one are answered again.
func FuzzStoreSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := os.WriteFile(filepath.Join(dir, segPrefix+"00000001"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		var stages []string
		for stage := range s.idx {
			stages = append(stages, stage)
		}
		answered := map[[2]string][]byte{}
		for _, stage := range stages {
			for _, key := range s.ListKeys(stage) {
				b, ok := s.Get(stage, key)
				if !ok {
					continue
				}
				if !bytes.Contains(seg, appendFrame(nil, recordMagic, stage, key, b)) {
					t.Fatalf("(%q, %q) answered %q, which has no intact frame in the segment", stage, key, b)
				}
				answered[[2]string{stage, key}] = b
			}
		}
		if st := s.Stats(); st.DiskEntries != len(answered) {
			t.Fatalf("Stats counts %d disk entries, %d records answered", st.DiskEntries, len(answered))
		}
		s.Put("fuzz", "k", []byte("v"))
		answered[[2]string{"fuzz", "k"}] = []byte("v")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for sk, want := range answered {
			if b, ok := s.Get(sk[0], sk[1]); !ok || !bytes.Equal(b, want) {
				t.Fatalf("(%q, %q) after the reopen: %q, %v; want %q", sk[0], sk[1], b, ok, want)
			}
		}
	})
}
