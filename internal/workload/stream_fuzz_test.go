package workload

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"
)

// FuzzBinaryTraceDecode throws arbitrary bytes at the sniffing reader and
// the binary and NDJSON decoders. Invariants under fuzz:
//
//   - no panic and no unbounded allocation (payload and name lengths are
//     capped before being trusted);
//   - decode is a function of the bytes: decoding twice yields identical
//     results;
//   - decode∘encode∘decode = decode: any stream that decodes cleanly
//     re-encodes to a stream that decodes to the same events;
//   - window decode = per-event decode: StreamingSource windows of 1, 7
//     and DefaultWindow events, over whole, one-byte and half reads, give
//     Next's events and outcome (checkWindows).
func FuzzBinaryTraceDecode(f *testing.F) {
	// Seed corpus: valid traces of both flavours plus targeted mutations.
	for seed := int64(1); seed <= 3; seed++ {
		var buf bytes.Buffer
		w, err := NewBinaryTraceWriter(&buf, syntheticHeader(seed))
		if err != nil {
			f.Fatal(err)
		}
		if err := writeEvents(w, syntheticTrace(seed, int(seed)*50)); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncated
		mut := bytes.Clone(buf.Bytes())
		mut[len(mut)/2] ^= 0xFF // flipped mid-stream byte
		f.Add(mut)
	}
	f.Add([]byte(TraceMagic))
	f.Add(append([]byte(TraceMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)) // uvarint overflow-ish header
	var hostile []byte
	hostile = append(hostile, TraceMagic...)
	hostile = binary.AppendUvarint(hostile, TraceVersion)
	hostile = binary.AppendUvarint(hostile, 1)
	hostile = binary.AppendUvarint(hostile, 1<<40) // absurd name length
	f.Add(hostile)
	// An end record whose payload carries bytes after its count.
	endSlack := encode(f, TraceHeader{}, []TraceEvent{{Op: EvMalloc, Size: 64}}, binaryWriter)
	f.Add(append(endSlack[:len(endSlack)-3], opEnd, 3, 1, 0xAA, 0xBB))
	// A trace longer than the 4 KiB read buffer, so records straddle its
	// end.
	long := encode(f, syntheticHeader(5), syntheticTrace(5, 2000), binaryWriter)
	if len(long) <= maxNDJSONHeaderBytes {
		f.Fatalf("long seed is %d bytes, want more than the %d-byte read buffer", len(long), maxNDJSONHeaderBytes)
	}
	f.Add(long)
	// NDJSON seeds: every input without the binary magic reaches the NDJSON
	// decoder.
	var nd bytes.Buffer
	w, err := NewNDJSONTraceWriter(&nd, TraceHeader{Name: "nd", Seed: 4})
	if err != nil {
		f.Fatal(err)
	}
	if err := writeEvents(w, syntheticTrace(4, 50)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(nd.Bytes())
	f.Add(nd.Bytes()[:nd.Len()/2])                                            // truncated
	f.Add([]byte(`{"format":"cherivoke-trace","version":2,"seed":4}` + "\n")) // wrong version
	f.Add([]byte(`{"format":"cherivoke-trace","version":1,"seed":4}` + "\n" +
		`{"op":"m","size":64}` + "\n" + `{"op":"f","ref":-1}` + "\n")) // negative ref

	f.Fuzz(func(t *testing.T, data []byte) {
		first, err1 := fuzzDecode(data)
		second, err2 := fuzzDecode(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("decode determinism: %v vs %v", err1, err2)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatal("decode determinism: events diverge")
		}
		checkWindows(t, data, first.events, err1)
		if err1 != nil {
			return
		}
		// NDJSON decodes a negative ref, and a header name that decodes
		// past maxTraceName (each invalid UTF-8 byte becomes a 3-byte
		// U+FFFD), neither of which the binary encoding can hold. The
		// re-encode property only applies to encodable traces.
		if len(first.hdr.Name) > maxTraceName {
			return
		}
		for _, ev := range first.events {
			if ev.Ref < 0 {
				return
			}
		}
		// Re-encode and decode again: must be the same events.
		var buf bytes.Buffer
		w, err := NewBinaryTraceWriter(&buf, first.hdr)
		if err != nil {
			t.Fatalf("re-encoding decoded trace: %v", err)
		}
		if err := writeEvents(w, first.events); err != nil {
			t.Fatalf("re-encoding decoded trace: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		third, err := fuzzDecode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(first, third) {
			t.Fatal("decode(encode(decode(x))) != decode(x)")
		}
	})
}

// decoded is one fuzz input's decode result: the header and every event.
type decoded struct {
	hdr    TraceHeader
	events []TraceEvent
}

// fuzzDecode drains one sniffed stream through Next, returning the events
// decoded before any error, with a sanity cap on event count (a fuzz input
// of n bytes cannot encode more than n records; the cap guards against a
// decoder bug looping without consuming input).
func fuzzDecode(data []byte) (*decoded, error) {
	d := &decoded{}
	r, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return d, err
	}
	defer r.Close()
	d.hdr = r.Header()
	for i := 0; i <= len(data); i++ {
		ev, err := r.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return d, err
		}
		d.events = append(d.events, ev)
	}
	panic("decoder yielded more events than input bytes")
}

// windowReads are the read shapes checkWindows decodes through: the whole
// input at once, one byte per Read, and half of each Read's buffer.
var windowReads = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"bytes.Reader", func(r io.Reader) io.Reader { return r }},
	{"OneByteReader", iotest.OneByteReader},
	{"HalfReader", iotest.HalfReader},
}

// checkWindows is the differential check of the window decode against
// per-event Next: decoding data in StreamingSource windows must give the
// events next (Next's, over a bytes.Reader) and nextErr's outcome, io.EOF
// or an error, for every window size and read shape. On an error, the
// window that hit it is discarded, so the windows hold next up to the last
// whole window.
func checkWindows(t *testing.T, data []byte, next []TraceEvent, nextErr error) {
	t.Helper()
	for _, read := range windowReads {
		for _, window := range []int{1, 7, DefaultWindow} {
			got, err := windowDecode(read.wrap(bytes.NewReader(data)), window, len(data))
			if (err == nil) != (nextErr == nil) {
				t.Fatalf("%s, window %d: outcome %v, per-event Next %v", read.name, window, err, nextErr)
			}
			want := next
			if nextErr != nil {
				want = next[:len(next)-len(next)%window]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, window %d: %d events, per-event Next %d (error %v)", read.name, window, len(got), len(want), nextErr)
			}
		}
	}
}

// windowDecode drains one sniffed stream window by window, with
// fuzzDecode's cap on event count.
func windowDecode(r io.Reader, window, limit int) ([]TraceEvent, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	src := NewStreamingSource(tr, window)
	var events []TraceEvent
	for len(events) <= limit {
		win, err := src.NextWindow()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, win...)
	}
	panic("decoder yielded more events than input bytes")
}
