package store

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzStoreFrame feeds arbitrary bytes to the store's decoder as the
// contents of an entry file, both directly through readVerify and through
// Open + Get on a fresh directory. Neither may panic, the two must agree on
// whether the entry is valid, and any payload they return must re-encode,
// through the writer's frame layout, to exactly the file's bytes — so a
// payload is never served from a frame that the writer would not produce.
func FuzzStoreFrame(f *testing.F) {
	frame := func(key string, payload []byte) []byte {
		return append(frameHeader(key, payload), payload...)
	}
	valid := frame("abc123", []byte(`{"hash":"abc123","result":42}`))
	f.Add("abc123", valid)
	f.Add("deadbeef#series", frame("deadbeef#series", []byte("{\"step\":0}\n{\"step\":1}\n")))
	f.Add("empty", frame("empty", nil))
	f.Add("abc123", valid[:len(valid)-3])
	f.Add("abc123", append(bytes.Clone(valid), 'x'))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 1
	f.Add("abc123", flipped)
	f.Add("other", valid)
	f.Add("abc123", []byte("MNS1"))
	f.Add("abc123", []byte{})
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		// The key names the entry file, so keep it to names the writer
		// could have produced on disk.
		if key == "" || len(key) > 200 || strings.ContainsAny(key, "/\x00") || strings.HasPrefix(key, tmpPrefix) {
			key = "k"
		}
		dir := t.TempDir()
		s := &Store{dir: dir}
		path := s.path(key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip(err)
		}
		payload, verr := readVerify(path, key)
		if verr == nil && !bytes.Equal(frame(key, payload), data) {
			t.Fatalf("readVerify returned %q from a file that does not re-encode to its bytes", payload)
		}

		st, err := Open(dir, 1<<30)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		got, ok := st.Get(key)
		if ok != (verr == nil) {
			t.Fatalf("Get hit=%v but readVerify err=%v", ok, verr)
		}
		if ok && !bytes.Equal(got, payload) {
			t.Fatalf("Get returned %q, readVerify %q", got, payload)
		}
		// A frame that fails verification is deleted, unless Open adopted
		// it under the other key its header names.
		if _, err := os.Stat(path); !ok && err == nil && st.Len() == 0 {
			t.Fatal("an invalid entry file survived Open + Get")
		}
	})
}
