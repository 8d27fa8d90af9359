package workload

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

// FuzzBinaryTraceDecode throws arbitrary bytes at the sniffing reader and
// the binary and NDJSON decoders. Invariants under fuzz:
//
//   - no panic and no unbounded allocation (payload and name lengths are
//     capped before being trusted);
//   - decode is a function of the bytes: decoding twice yields identical
//     results;
//   - decode∘encode∘decode = decode: any stream that decodes cleanly
//     re-encodes to a stream that decodes to the same events.
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
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatal("decode determinism: events diverge")
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

// fuzzDecode drains one sniffed stream with a sanity cap on event count (a
// fuzz input of n bytes cannot encode more than n records; the cap guards
// against a decoder bug looping without consuming input).
func fuzzDecode(data []byte) (*decoded, error) {
	r, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	d := &decoded{hdr: r.Header()}
	for i := 0; i <= len(data); i++ {
		ev, err := r.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		d.events = append(d.events, ev)
	}
	panic("decoder yielded more events than input bytes")
}
