package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store is a content-addressed on-disk trace store: traces are spooled in,
// validated by a full streaming decode, and filed under the hex SHA-256 of
// their bytes. The server's POST /traces endpoint puts uploads here, and
// campaign jobs resolve Spec.TraceRef against it — the hash in an artifact
// therefore names the exact input bytes of every job that used it.
//
// Nothing is ever held in memory: Put streams to disk while hashing, and
// OpenTrace hands back a streaming reader over the stored file.
type Store struct {
	dir string
}

// traceExt and metaExt are the store's file suffixes: <hash>.trace holds
// the trace bytes, <hash>.json a cached TraceInfo sidecar.
const (
	traceExt = ".trace"
	metaExt  = ".json"
)

// ErrInvalidTrace marks Put failures caused by the uploaded bytes (bad
// encoding, truncation, corruption) as opposed to the store's own I/O —
// the distinction HTTP handlers need between 400 and 500.
var ErrInvalidTrace = errors.New("invalid trace")

// TraceInfo describes one stored (or inspected) trace.
type TraceInfo struct {
	Hash    string `json:"hash"`              // hex SHA-256 of the trace bytes
	Size    int64  `json:"size"`              // byte length
	Format  string `json:"format"`            // binary | ndjson
	Version int    `json:"version"`           // trace format version
	Name    string `json:"name,omitempty"`    // recorded benchmark profile
	Seed    uint64 `json:"seed"`              // recording seed
	Events  int64  `json:"events,omitempty"`  // total event count
	Mallocs int64  `json:"mallocs,omitempty"` // EvMalloc count
	Frees   int64  `json:"frees,omitempty"`   // EvFree count
}

// NewStore opens (creating if needed) a trace store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("workload: creating trace store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Put spools r to disk, hashing as it copies, then validates the spooled
// bytes with a full streaming decode (header, every event, the binary end
// record) before filing them. Re-putting identical bytes is a no-op that
// returns the same hash. The trace is never materialised: memory use is
// bounded by the codec's record buffer.
func (s *Store) Put(r io.Reader) (TraceInfo, error) {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return TraceInfo{}, fmt.Errorf("workload: spooling trace: %w", err)
	}
	defer os.Remove(tmp.Name())

	h := sha256.New()
	size, err := io.Copy(io.MultiWriter(tmp, h), r)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return TraceInfo{}, fmt.Errorf("workload: spooling trace: %w", err)
	}

	info, err := ScanTrace(tmp.Name())
	if err != nil {
		return TraceInfo{}, fmt.Errorf("workload: %w: %v", ErrInvalidTrace, err)
	}
	info.Hash = hex.EncodeToString(h.Sum(nil))
	info.Size = size

	final := filepath.Join(s.dir, info.Hash+traceExt)
	if _, err := os.Stat(final); err == nil {
		return info, nil // identical content already stored
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return TraceInfo{}, fmt.Errorf("workload: filing trace: %w", err)
	}
	if meta, err := json.Marshal(info); err == nil {
		// The sidecar is a cache; losing it only costs a rescan.
		_ = os.WriteFile(filepath.Join(s.dir, info.Hash+metaExt), meta, 0o644)
	}
	return info, nil
}

// validTraceRef reports whether ref is a plausible content address: 6 to
// 64 lowercase hex characters. Anything else — path separators included —
// is rejected before a ref ever becomes part of a filesystem path, so a
// hostile ref ("../../etc/x") cannot escape the store directory.
func validTraceRef(ref string) bool {
	if len(ref) < 6 || len(ref) > 64 {
		return false
	}
	for _, c := range ref {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// resolve maps a ref — a full hex hash, a "sha256:"-prefixed hash, or a
// unique hash prefix of at least 6 characters — to the stored hash.
func (s *Store) resolve(ref string) (string, error) {
	ref = strings.TrimPrefix(ref, "sha256:")
	if !validTraceRef(ref) {
		return "", fmt.Errorf("workload: invalid trace ref %q (want a lowercase hex sha-256 hash or a >= 6-char prefix)", ref)
	}
	if len(ref) == 64 {
		if _, err := os.Stat(filepath.Join(s.dir, ref+traceExt)); err == nil {
			return ref, nil
		}
	}
	hashes, err := s.hashes()
	if err != nil {
		return "", err
	}
	var match string
	for _, h := range hashes {
		if strings.HasPrefix(h, ref) {
			if match != "" {
				return "", fmt.Errorf("workload: trace ref %q is ambiguous", ref)
			}
			match = h
		}
	}
	if match == "" {
		return "", fmt.Errorf("workload: unknown trace %q", ref)
	}
	return match, nil
}

func (s *Store) hashes() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("workload: listing trace store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), traceExt); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// OpenTrace resolves ref and returns a streaming reader over the stored
// trace plus the full content hash. It satisfies campaign.TraceOpener, so
// a Store can be handed directly to campaign.RunOptions.Traces.
func (s *Store) OpenTrace(ref string) (TraceReader, string, error) {
	hash, err := s.resolve(ref)
	if err != nil {
		return nil, "", err
	}
	f, err := os.Open(filepath.Join(s.dir, hash+traceExt))
	if err != nil {
		return nil, "", fmt.Errorf("workload: opening trace %s: %w", hash, err)
	}
	tr, err := NewTraceReader(f)
	if err != nil {
		f.Close()
		return nil, "", fmt.Errorf("workload: trace %s: %w", hash, err)
	}
	return tr, hash, nil
}

// Stat resolves ref and returns the trace's metadata, from the cached
// sidecar when present or by rescanning the file.
func (s *Store) Stat(ref string) (TraceInfo, error) {
	hash, err := s.resolve(ref)
	if err != nil {
		return TraceInfo{}, err
	}
	return s.statHash(hash)
}

func (s *Store) statHash(hash string) (TraceInfo, error) {
	path := filepath.Join(s.dir, hash+traceExt)
	if meta, err := os.ReadFile(filepath.Join(s.dir, hash+metaExt)); err == nil {
		var info TraceInfo
		if json.Unmarshal(meta, &info) == nil && info.Hash == hash {
			return info, nil
		}
	}
	info, err := ScanTrace(path)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("workload: trace %s: %w", hash, err)
	}
	info.Hash = hash
	if fi, err := os.Stat(path); err == nil {
		info.Size = fi.Size()
	}
	// Re-cache the sidecar so a lost one costs exactly one rescan, not a
	// full re-decode on every future Stat/List of a possibly huge trace.
	if meta, err := json.Marshal(info); err == nil {
		_ = os.WriteFile(filepath.Join(s.dir, hash+metaExt), meta, 0o644)
	}
	return info, nil
}

// List returns metadata for every stored trace, sorted by hash.
func (s *Store) List() ([]TraceInfo, error) {
	hashes, err := s.hashes()
	if err != nil {
		return nil, err
	}
	out := make([]TraceInfo, 0, len(hashes))
	for _, h := range hashes {
		info, err := s.statHash(h)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}

// ScanTrace streams through the trace file at path, validating it end to
// end and counting its events. Memory use is bounded by the codec's record
// buffer; Hash and Size are left for the caller to fill.
func ScanTrace(path string) (TraceInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceInfo{}, err
	}
	defer f.Close()
	tr, err := NewTraceReader(f)
	if err != nil {
		return TraceInfo{}, err
	}
	return scanReader(tr)
}

// scanReader drains tr, returning header metadata and event counts.
func scanReader(tr TraceReader) (TraceInfo, error) {
	hdr := tr.Header()
	info := TraceInfo{
		Format:  tr.Format(),
		Version: hdr.Version,
		Name:    hdr.Name,
		Seed:    hdr.Seed,
	}
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return info, nil
		}
		if err != nil {
			return TraceInfo{}, err
		}
		info.Events++
		switch ev.Op {
		case EvMalloc:
			info.Mallocs++
		case EvFree:
			info.Frees++
		}
	}
}
