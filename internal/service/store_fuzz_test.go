package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreIndex writes arbitrary bytes as a store's index.json, over an
// object tree holding two objects, and reopens the store. OpenStore must
// never panic or fail. It either accepts the index, when the bytes are a
// JSON object whose every key is a valid digest, and then lists exactly
// what the bytes hold; or it falls back to the rebuild scan and lists
// exactly the two objects. Either way every listed digest is valid, Get
// serves each listed object it has with verified bytes, the two objects
// stay readable, and a Put works and is listed. The committed corpus
// (testdata/fuzz/FuzzStoreIndex) adds null, non-object, truncated and
// invalid-key indexes.
func FuzzStoreIndex(f *testing.F) {
	objects := [][]byte{[]byte("first object"), []byte("second object")}
	scanned := map[string]int64{}
	for _, obj := range objects {
		sum := sha256.Sum256(obj)
		scanned[hex.EncodeToString(sum[:])] = int64(len(obj))
	}
	valid, err := json.Marshal(map[string]ArtifactInfo{
		hex.EncodeToString(make([]byte, sha256.Size)): {Size: 3, Created: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		st, err := OpenStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range objects {
			if _, _, err := st.Put(obj); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "index.json"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err = OpenStore(dir, nil)
		if err != nil {
			t.Fatalf("OpenStore on index %q: %v", index, err)
		}
		want := map[string]int64{}
		var parsed map[string]ArtifactInfo
		if json.Unmarshal(index, &parsed) == nil && len(parsed) > 0 && allValid(parsed) {
			for d, info := range parsed {
				want[d] = info.Size
			}
		} else {
			want = scanned
		}
		got := map[string]int64{}
		for d, info := range st.Index() {
			got[d] = info.Size
		}
		if !maps.Equal(got, want) {
			t.Fatalf("index %q: store lists %v, want %v", index, got, want)
		}
		for d := range got {
			data, err := st.Get(d)
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("index %q: Get(%s): %v", index, d, err)
			}
			if err == nil && !bytes.Equal(data, objects[0]) && !bytes.Equal(data, objects[1]) {
				t.Fatalf("index %q: Get(%s) served %q", index, d, data)
			}
		}
		for d := range scanned {
			if _, err := st.Get(d); err != nil {
				t.Fatalf("index %q: object %s unreadable: %v", index, d, err)
			}
		}
		d, _, err := st.Put([]byte("after reopen"))
		if err != nil {
			t.Fatal(err)
		}
		if !st.Has(d) {
			t.Fatalf("index %q: a Put after reopening is not listed", index)
		}
	})
}

// allValid reports whether every key of index is a valid digest.
func allValid(index map[string]ArtifactInfo) bool {
	for d := range index {
		if !validDigest(d) {
			return false
		}
	}
	return true
}
