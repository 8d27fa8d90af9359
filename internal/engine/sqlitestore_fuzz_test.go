package engine_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// The records FuzzSQLiteLogTail acknowledges before appending its tail, and
// the job it writes after.
var (
	fuzzCampaign = engine.Campaign{ID: "c000001", Seq: 1, State: engine.StateDone, Created: time.Unix(1700000000, 0).UTC()}
	fuzzK1       = strings.Repeat("a1", 32)
	fuzzJR1      = campaign.JobResult{Job: campaign.Job{Profile: "povray", Seed: 1}, Mallocs: 1}
	fuzzK2       = strings.Repeat("b2", 32)
	fuzzJR2      = campaign.JobResult{Job: campaign.Job{Profile: "hmmer", Seed: 2}, Mallocs: 2}
)

// FuzzSQLiteLogTail appends arbitrary bytes after acknowledged records, as
// a crash mid-append (or a corrupted disk) leaves them, and checks the log
// recovery: opening and reading never panic; every acknowledged record
// reads back byte-identical unless the tail itself holds a complete,
// checksum-valid record for its key; and after a write through a handle
// that saw the tail, a handle opened before the tail, the writing handle and
// a fresh open serve the same state.
func FuzzSQLiteLogTail(f *testing.F) {
	k1Image := recordImage(f, func(s *engine.SQLiteStore) error {
		return s.PublishJob(fuzzK1, "writer", campaign.JobResult{Mallocs: 99})
	})
	k2Image := recordImage(f, func(s *engine.SQLiteStore) error { return s.PublishJob(fuzzK2, "writer", fuzzJR2) })
	badCRC := slices.Clone(k1Image)
	badCRC[len(badCRC)-1] ^= 0xFF
	sameLength := slices.Clone(k2Image)
	sameLength[len(sameLength)-1] ^= 0xFF
	f.Add([]byte{})
	f.Add(k2Image[:len(k2Image)/2])                                 // a truncated valid record
	f.Add(badCRC)                                                   // a bad CRC over a new k1
	f.Add(binary.AppendUvarint([]byte{3}, 1<<63))                   // a 2^63 length prefix
	f.Add(append([]byte{3}, strings.Repeat("\x80", 11)...))         // eleven continuation bytes
	f.Add(sameLength)                                               // the length the next write appends
	f.Add(append(slices.Clone(k1Image), []byte{1, 7, 'c', '0'}...)) // a valid k1 record, then a torn one
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "store.db")
		early := openSQLite(t, path)
		if err := early.PutCampaign(fuzzCampaign); err != nil {
			t.Fatal(err)
		}
		if err := early.PublishJob(fuzzK1, "writer", fuzzJR1); err != nil {
			t.Fatal(err)
		}
		if err := early.AcquireJobLease(fuzzK1, "fuzz", time.Hour); err != nil {
			t.Fatal(err)
		}
		appendBytes(t, path, tail)

		rewritten := tailKeys(tail)
		late := openSQLite(t, path)
		checkAcknowledged(t, "late", late, rewritten)
		checkAcknowledged(t, "early", early, rewritten)

		if err := late.PublishJob(fuzzK2, "writer", fuzzJR2); err != nil {
			t.Fatalf("PublishJob after the tail: %v", err)
		}
		fresh := openSQLite(t, path)
		checkAcknowledged(t, "fresh", fresh, rewritten)
		keys := []string{fuzzCampaign.ID, fuzzK1, fuzzK2}
		for k := range rewritten {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if jr, err := late.Job(fuzzK2); err != nil || marshal(jr) != marshal(fuzzJR2) {
			t.Errorf("the writing handle serves Job = %s, %v; want %s", marshal(jr), err, marshal(fuzzJR2))
		}
		want := storeView(late, keys)
		for name, s := range map[string]*engine.SQLiteStore{"early": early, "fresh": fresh} {
			if got := storeView(s, keys); got != want {
				t.Errorf("%s handle serves\n%s\nthe writing handle serves\n%s", name, got, want)
			}
		}
	})
}

// checkAcknowledged checks that s serves every record FuzzSQLiteLogTail
// acknowledged before its tail, byte for byte, except those whose keys the
// tail rewrote.
func checkAcknowledged(t *testing.T, name string, s *engine.SQLiteStore, rewritten map[string]bool) {
	t.Helper()
	if !rewritten[fuzzCampaign.ID] {
		c, err := s.Campaign(fuzzCampaign.ID)
		if err != nil || marshal(c) != marshal(fuzzCampaign) {
			t.Errorf("%s: Campaign = %s, %v; want %s", name, marshal(c), err, marshal(fuzzCampaign))
		}
	}
	if !rewritten[fuzzK1] {
		jr, err := s.Job(fuzzK1)
		if err != nil || marshal(jr) != marshal(fuzzJR1) {
			t.Errorf("%s: Job = %s, %v; want %s", name, marshal(jr), err, marshal(fuzzJR1))
		}
		if owner, held, err := s.PeekJobLease(fuzzK1); err != nil || !held || owner != "fuzz" {
			t.Errorf("%s: PeekJobLease = %q, %v, %v; want fuzz, true", name, owner, held, err)
		}
	}
}

// storeView renders what s serves for keys, errors included, so handles
// can be compared.
func storeView(s *engine.SQLiteStore, keys []string) string {
	var b strings.Builder
	for _, k := range keys {
		jr, err := s.Job(k)
		fmt.Fprintf(&b, "job %s: %s %v\n", k, marshal(jr), err)
		c, err := s.Campaign(k)
		fmt.Fprintf(&b, "campaign %s: %s %v\n", k, marshal(c), err)
		owner, held, err := s.PeekJobLease(k)
		fmt.Fprintf(&b, "lease %s: %q %v %v\n", k, owner, held, err)
	}
	cs, err := s.Campaigns()
	fmt.Fprintf(&b, "campaigns: %s %v\n", marshal(cs), err)
	seq, err := s.MaxSeq()
	fmt.Fprintf(&b, "max seq: %d %v\n", seq, err)
	return b.String()
}

// marshal renders a record as the store encodes it. The store's record
// types always marshal, so the error is dropped.
func marshal(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// tailKeys decodes tail as the log's records (kind, uvarint key length,
// key, uvarint value length, value, little-endian CRC-32C of the rest) and
// returns the keys of the complete, checksum-valid records it starts with.
func tailKeys(tail []byte) map[string]bool {
	keys := map[string]bool{}
	field := func(b []byte) (v, rest []byte, ok bool) {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w) {
			return nil, nil, false
		}
		return b[w : w+int(n)], b[w+int(n):], true
	}
	for len(tail) > 0 {
		key, rest, ok := field(tail[1:])
		if ok {
			_, rest, ok = field(rest)
		}
		if !ok || len(rest) < 4 {
			break
		}
		body := tail[:len(tail)-len(rest)]
		if binary.LittleEndian.Uint32(rest) != crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) {
			break
		}
		keys[string(key)] = true
		tail = rest[4:]
	}
	return keys
}
