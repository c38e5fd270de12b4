package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrCorruptObject reports a stored object whose bytes no longer hash to
// its digest (a torn write, disk corruption, or tampering); Get returns it
// wrapped rather than serve the bytes.
var ErrCorruptObject = errors.New("service: store: object does not match its digest")

// ArtifactInfo is the index record of one stored object.
type ArtifactInfo struct {
	// Size is the content length in bytes.
	Size int64 `json:"size"`
	// Created is the first-seen time (unix seconds); later identical puts
	// deduplicate against this object and keep the original stamp.
	Created int64 `json:"created"`
}

// Store is a content-addressed artifact store: objects live under
// <dir>/objects/<aa>/<digest> keyed by the SHA-256 hex of their content,
// with a JSON index at <dir>/index.json. Identical content is stored once
// regardless of how many jobs produce it.
type Store struct {
	dir string
	log *slog.Logger

	mu    sync.Mutex
	index map[string]ArtifactInfo
	// dedup counts puts that found their object already present.
	dedup uint64
}

// OpenStore opens (creating if needed) the store rooted at dir. A missing
// or unreadable index is rebuilt by scanning the object tree, so a crash
// between an object write and the index rewrite loses nothing. logger (nil
// = discard) receives structured operational events: index rebuilds and
// tolerated index-write failures.
func OpenStore(dir string, logger *slog.Logger) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{dir: dir, log: logger.With("component", "store"), index: make(map[string]ArtifactInfo)}
	data, err := os.ReadFile(s.indexPath())
	switch {
	case err == nil:
		// An index that is not a JSON object of valid digests is corrupt:
		// fall back to a scan. A null or empty one rebuilds too.
		var index map[string]ArtifactInfo
		jerr := json.Unmarshal(data, &index)
		if jerr == nil {
			for d := range index {
				if !validDigest(d) {
					jerr = fmt.Errorf("invalid digest %q", d)
					break
				}
			}
		}
		if jerr != nil {
			s.log.Warn("store index unreadable; rebuilding from object tree", "err", jerr)
		} else if len(index) > 0 {
			s.index = index
		}
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("service: store index: %w", err)
	}
	if len(s.index) == 0 {
		if err := s.rebuild(); err != nil {
			return nil, err
		}
		if len(s.index) > 0 {
			s.log.Info("store index rebuilt by scan", "objects", len(s.index))
		}
	}
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

func (s *Store) objectPath(digest string) string {
	return filepath.Join(s.dir, "objects", digest[:2], digest)
}

// rebuild repopulates the index from the object tree.
func (s *Store) rebuild() error {
	root := filepath.Join(s.dir, "objects")
	return filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		digest := filepath.Base(path)
		if len(digest) == sha256.Size*2 {
			s.index[digest] = ArtifactInfo{Size: info.Size(), Created: info.ModTime().Unix()}
		}
		return nil
	})
}

// Put stores data under its SHA-256 digest and returns the digest. existed
// reports a deduplicated write: the object (byte-identical content) was
// already present. The object file lands via temp-file + rename, so readers
// never observe a partial object.
func (s *Store) Put(data []byte) (digest string, existed bool, err error) {
	sum := sha256.Sum256(data)
	digest = hex.EncodeToString(sum[:])

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[digest]; ok {
		s.dedup++
		return digest, true, nil
	}
	path := s.objectPath(digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	s.index[digest] = ArtifactInfo{Size: int64(len(data)), Created: time.Now().Unix()}
	s.writeIndexLocked()
	return digest, false, nil
}

// writeIndexLocked persists the index atomically; index-write failures are
// tolerated (the index rebuilds from the object tree on next open).
func (s *Store) writeIndexLocked() {
	data, err := json.MarshalIndent(s.index, "", " ")
	if err != nil {
		return
	}
	tmp := s.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.log.Warn("store index write failed; will rebuild by scan on next open", "err", err)
		return
	}
	if err := os.Rename(tmp, s.indexPath()); err != nil {
		s.log.Warn("store index rename failed; will rebuild by scan on next open", "err", err)
	}
}

// Get returns the content stored under digest, verified on read: bytes
// that do not hash to digest are never returned (ErrCorruptObject).
func (s *Store) Get(digest string) ([]byte, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("service: store: invalid digest %q", digest)
	}
	data, err := os.ReadFile(s.objectPath(digest))
	if err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != digest {
		return nil, fmt.Errorf("%w: %s", ErrCorruptObject, digest)
	}
	return data, nil
}

// Has reports whether digest is present.
func (s *Store) Has(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[digest]
	return ok
}

// Stat returns the index record for digest.
func (s *Store) Stat(digest string) (ArtifactInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.index[digest]
	return info, ok
}

// Index returns a sorted copy of the digest index.
func (s *Store) Index() map[string]ArtifactInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ArtifactInfo, len(s.index))
	for d, info := range s.index {
		out[d] = info
	}
	return out
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// DedupHits counts puts that were deduplicated against existing objects.
func (s *Store) DedupHits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dedup
}

// validDigest accepts exactly 64 lowercase hex digits — the only strings
// objectPath may be asked to resolve (no separators, no traversal).
func validDigest(d string) bool {
	if len(d) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
