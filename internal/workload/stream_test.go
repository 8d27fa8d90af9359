package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// syntheticTrace builds a deterministic pseudo-random event list exercising
// the codec edge cases: zero sizes and offsets, ref 0, large sizes, all ops.
func syntheticTrace(seed int64, n int) []TraceEvent {
	r := rand.New(rand.NewSource(seed))
	var events []TraceEvent
	mallocs := 0
	for i := 0; i < n; i++ {
		switch {
		case mallocs == 0 || r.Intn(3) == 0:
			size := uint64(r.Intn(1 << 22)) // includes 0
			events = append(events, TraceEvent{Op: EvMalloc, Size: size})
			mallocs++
		case r.Intn(2) == 0:
			events = append(events, TraceEvent{Op: EvPlant, Ref: r.Intn(mallocs), Size: uint64(r.Intn(1 << 12))})
		default:
			events = append(events, TraceEvent{Op: EvFree, Ref: r.Intn(mallocs)})
		}
	}
	return events
}

// syntheticHeader is the header syntheticTrace(seed, n) is encoded under.
func syntheticHeader(seed int64) TraceHeader {
	return TraceHeader{Version: TraceVersion, Name: "synthetic", Seed: uint64(seed)}
}

// writeEvents streams events through w; the caller still owns w's Close.
func writeEvents(w TraceWriter, events []TraceEvent) error {
	for i, ev := range events {
		if err := w.WriteEvent(ev); err != nil {
			return fmt.Errorf("writing event %d: %w", i, err)
		}
	}
	return nil
}

// readEvents drains r into an event list.
func readEvents(r TraceReader) ([]TraceEvent, error) {
	var events []TraceEvent
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
}

// encode runs events through a TraceWriter constructor over a buffer.
func encode(t *testing.T, hdr TraceHeader, events []TraceEvent, newWriter func(io.Writer, TraceHeader) (TraceWriter, error)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := newWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(w, events); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func binaryWriter(w io.Writer, hdr TraceHeader) (TraceWriter, error) {
	return NewBinaryTraceWriter(w, hdr)
}
func ndjsonWriter(w io.Writer, hdr TraceHeader) (TraceWriter, error) {
	return NewNDJSONTraceWriter(w, hdr)
}

// decode sniffs and drains an encoded trace, checking the reported format.
func decode(t *testing.T, data []byte, wantFormat string) (TraceHeader, []TraceEvent) {
	t.Helper()
	r, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Format() != wantFormat {
		t.Fatalf("sniffed format %q, want %q", r.Format(), wantFormat)
	}
	events, err := readEvents(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return r.Header(), events
}

// TestCodecRoundTrip is the encode→decode = identity property, over both
// streaming codecs and a spread of seeds and sizes (including empty).
func TestCodecRoundTrip(t *testing.T) {
	codecs := []struct {
		format    string
		newWriter func(io.Writer, TraceHeader) (TraceWriter, error)
	}{
		{FormatBinary, binaryWriter},
		{FormatNDJSON, ndjsonWriter},
	}
	for _, c := range codecs {
		for seed := int64(1); seed <= 8; seed++ {
			hdr, events := syntheticHeader(seed), syntheticTrace(seed, int(seed-1)*700) // 0, 700, ... events
			gotHdr, got := decode(t, encode(t, hdr, events, c.newWriter), c.format)
			if gotHdr != hdr {
				t.Fatalf("%s seed %d: header %+v, want %+v", c.format, seed, gotHdr, hdr)
			}
			if len(got) != len(events) {
				t.Fatalf("%s seed %d: %d events, want %d", c.format, seed, len(got), len(events))
			}
			if len(events) > 0 && !reflect.DeepEqual(got, events) {
				t.Fatalf("%s seed %d: events diverge after round trip", c.format, seed)
			}
		}
	}
}

// TestCodecRoundTripRecorded round-trips a real recorded run, whose event
// mix (multi-page plants, FIFO/random frees) a synthetic trace may miss.
func TestCodecRoundTripRecorded(t *testing.T) {
	hdr, events, _ := recordedRun(t)
	for _, c := range []struct {
		format    string
		newWriter func(io.Writer, TraceHeader) (TraceWriter, error)
	}{{FormatBinary, binaryWriter}, {FormatNDJSON, ndjsonWriter}} {
		gotHdr, got := decode(t, encode(t, hdr, events, c.newWriter), c.format)
		if gotHdr != hdr || !reflect.DeepEqual(got, events) {
			t.Fatalf("%s: recorded trace diverges after round trip", c.format)
		}
	}
}

// TestTraceReaderRejectsLegacyJSON pins the two-encoding contract: the
// retired single-document JSON form, and anything else that is neither
// binary nor NDJSON, is rejected as unrecognised.
func TestTraceReaderRejectsLegacyJSON(t *testing.T) {
	for _, in := range []string{
		`{"name":"x","seed":1,"events":[{"op":109,"size":64}]}`,
		`{"format":"other","version":1}` + "\n",
		`[1,2,3]`,
		"CVT",
		"",
	} {
		r, err := NewTraceReader(strings.NewReader(in))
		if err == nil {
			r.Close()
			t.Errorf("NewTraceReader(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), "unrecognised trace format") {
			t.Errorf("NewTraceReader(%q): error %q, want an unrecognised-format rejection", in, err)
		}
	}
	// A failing read is reported as itself, not as an unknown format.
	errRead := errors.New("read failed")
	if _, err := NewTraceReader(iotest.ErrReader(errRead)); !errors.Is(err, errRead) {
		t.Errorf("NewTraceReader over a failing reader: %v, want %v", err, errRead)
	}
}

// endlessReader serves prefix and then an endless run of well-formed
// legacy event objects, counting the bytes it hands out. Past guard bytes
// it fails, so a reader that tries to buffer the whole stream errors out
// instead of hanging the test.
type endlessReader struct {
	prefix string
	n      int
	guard  int
}

func (r *endlessReader) Read(p []byte) (int, error) {
	if r.n >= r.guard {
		return 0, errors.New("endlessReader: read past the guard")
	}
	const filler = `{"op":109,"size":64},`
	for i := range p {
		if r.n < len(r.prefix) {
			p[i] = r.prefix[r.n]
		} else {
			p[i] = filler[(r.n-len(r.prefix))%len(filler)]
		}
		r.n++
	}
	return len(p), nil
}

// TestTraceReaderBoundsSniff is the untrusted-input bound: a JSON document
// that never ends must be rejected after the sniffing window, not buffered.
func TestTraceReaderBoundsSniff(t *testing.T) {
	r := &endlessReader{prefix: `{"events":[`, guard: 1 << 20}
	tr, err := NewTraceReader(r)
	if err == nil {
		tr.Close()
		t.Fatal("an endless non-trace document was accepted")
	}
	if r.n > maxNDJSONHeaderBytes {
		t.Fatalf("rejecting it read %d bytes, want at most the %d-byte sniffing window (err: %v)", r.n, maxNDJSONHeaderBytes, err)
	}
}

// TestBinaryDecoderRejectsCorruption exercises the strict paths: truncation
// (missing end record), a wrong end-record count, oversized payloads, and a
// bad magic.
func TestBinaryDecoderRejectsCorruption(t *testing.T) {
	data := encode(t, syntheticHeader(4), syntheticTrace(4, 100), binaryWriter)

	drain := func(data []byte) error {
		r, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for {
			if _, err := r.Next(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}

	if err := drain(data); err != nil {
		t.Fatalf("pristine stream: %v", err)
	}
	if err := drain(data[:len(data)-3]); err == nil {
		t.Error("truncated stream decoded cleanly")
	}
	// Flip a byte inside the end record's count.
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0x01
	if err := drain(bad); err == nil {
		t.Error("corrupted end record decoded cleanly")
	}
	if _, err := NewTraceReader(strings.NewReader("BOGUS not a trace")); err == nil {
		t.Error("bad magic accepted")
	}
	// Hostile payload length: op byte + huge uvarint length.
	hostile := append(bytes.Clone(data[:findFirstEvent(t, data)]), EvMalloc)
	hostile = binary.AppendUvarint(hostile, 1<<40)
	if err := drain(hostile); err == nil {
		t.Error("oversized payload length accepted")
	}
	// Trailing garbage after the end record: same logical trace, different
	// bytes — must be rejected, or content addressing splits.
	if err := drain(append(bytes.Clone(data), "junk"...)); err == nil {
		t.Error("trailing bytes after end record accepted")
	}
}

// findFirstEvent returns the offset of the first event record in a binary
// trace (end of header).
func findFirstEvent(t *testing.T, data []byte) int {
	t.Helper()
	r := bytes.NewReader(data)
	if _, err := NewTraceReader(r); err != nil {
		t.Fatal(err)
	}
	// NewTraceReader wraps r in a bufio.Reader, so r.Len() cannot tell us
	// the header length; re-derive it by parsing manually.
	off := len(TraceMagic)
	for i := 0; i < 2; i++ { // version, seed
		_, n := binary.Uvarint(data[off:])
		off += n
	}
	nameLen, n := binary.Uvarint(data[off:])
	return off + n + int(nameLen)
}

// TestBinaryDecoderSkipsUnknownOps verifies forward compatibility: a
// length-prefixed record with an unknown opcode is skipped, and the end
// record still validates (it counts all records, known or not). The stream
// is crafted by hand, per docs/TRACE_FORMAT.md.
func TestBinaryDecoderSkipsUnknownOps(t *testing.T) {
	var data []byte
	data = append(data, TraceMagic...)
	data = binary.AppendUvarint(data, TraceVersion)
	data = binary.AppendUvarint(data, 7)                  // seed
	data = binary.AppendUvarint(data, uint64(len("fwd"))) // name
	data = append(data, "fwd"...)
	rec := func(op byte, payload ...byte) {
		data = append(data, op)
		data = binary.AppendUvarint(data, uint64(len(payload)))
		data = append(data, payload...)
	}
	rec(EvMalloc, binary.AppendUvarint(nil, 64)...)
	rec('x', 1, 2, 3) // unknown record type
	rec(EvFree, binary.AppendUvarint(nil, 0)...)
	rec(opEnd, binary.AppendUvarint(nil, 3)...) // 3 records, skipped one included

	hdr, got := decode(t, data, FormatBinary)
	want := []TraceEvent{{Op: EvMalloc, Size: 64}, {Op: EvFree, Ref: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
	if hdr.Name != "fwd" || hdr.Seed != 7 {
		t.Fatalf("header (%q, %d), want (fwd, 7)", hdr.Name, hdr.Seed)
	}
}

// TestStreamingSourceBoundsBuffer is the bounded-window guarantee: every
// window the source hands out lives in one buffer of exactly the window
// capacity, regardless of trace length.
func TestStreamingSourceBoundsBuffer(t *testing.T) {
	const window = 64
	events := syntheticTrace(5, 10*window+17) // many windows + a short tail
	r, err := NewTraceReader(bytes.NewReader(encode(t, syntheticHeader(5), events, binaryWriter)))
	if err != nil {
		t.Fatal(err)
	}
	src := NewStreamingSource(r, window)
	if src.Window() != window {
		t.Fatalf("Window() = %d, want %d", src.Window(), window)
	}
	var total int
	for {
		win, err := src.NextWindow()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(win) == 0 || len(win) > window {
			t.Fatalf("window of %d events, want 1..%d", len(win), window)
		}
		if cap(win) != window {
			t.Fatalf("window capacity %d, want exactly %d (single reused buffer)", cap(win), window)
		}
		for i := range win {
			if !reflect.DeepEqual(win[i], events[total]) {
				t.Fatalf("event %d diverges", total)
			}
			total++
		}
	}
	if total != len(events) {
		t.Fatalf("streamed %d events, want %d", total, len(events))
	}
}

// TestStoreRoundTrip covers Put/Stat/List/OpenTrace, content-address
// dedup, and prefix resolution.
func TestStoreRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hdr, events := syntheticHeader(6), syntheticTrace(6, 500)
	data := encode(t, hdr, events, binaryWriter)

	info, err := store.Put(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Hash == "" || info.Size != int64(len(data)) || info.Events != int64(len(events)) {
		t.Fatalf("put info %+v", info)
	}
	if info.Format != FormatBinary || info.Name != hdr.Name || info.Seed != hdr.Seed {
		t.Fatalf("put metadata %+v", info)
	}

	again, err := store.Put(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if again.Hash != info.Hash {
		t.Fatalf("re-put hash %s != %s", again.Hash, info.Hash)
	}
	list, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Hash != info.Hash {
		t.Fatalf("list %+v, want the single deduped trace", list)
	}

	for _, ref := range []string{info.Hash, "sha256:" + info.Hash, info.Hash[:12]} {
		r, hash, err := store.OpenTrace(ref)
		if err != nil {
			t.Fatalf("open %q: %v", ref, err)
		}
		if hash != info.Hash {
			t.Fatalf("open %q resolved %s, want %s", ref, hash, info.Hash)
		}
		got, err := readEvents(r)
		if err != nil {
			t.Fatal(err)
		}
		gotHdr := r.Header()
		r.Close()
		if gotHdr != hdr || !reflect.DeepEqual(got, events) {
			t.Fatalf("stored trace diverges via ref %q", ref)
		}
		st, err := store.Stat(ref)
		if err != nil || st.Hash != info.Hash {
			t.Fatalf("stat %q: %+v, %v", ref, st, err)
		}
	}

	if _, _, err := store.OpenTrace("deadbeef0000"); err == nil {
		t.Error("unknown ref resolved")
	}
	if _, _, err := store.OpenTrace(info.Hash[:4]); err == nil {
		t.Error("too-short prefix resolved")
	}
	// Refs are content addresses, never paths: traversal and any
	// non-hex ref must be rejected before touching the filesystem.
	outside := filepath.Join(t.TempDir(), "escape.trace")
	if err := os.WriteFile(outside, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{
		"../" + filepath.Base(filepath.Dir(outside)) + "/escape",
		"sha256:../../escape",
		strings.ToUpper(info.Hash),
		"abc/def",
	} {
		if _, _, err := store.OpenTrace(ref); err == nil {
			t.Errorf("hostile ref %q resolved", ref)
		}
		if _, err := store.Stat(ref); err == nil {
			t.Errorf("hostile ref %q statted", ref)
		}
	}
	if _, err := store.Put(strings.NewReader("not a trace at all")); err == nil {
		t.Error("garbage upload accepted")
	}
	// A rejected Put must not leave spool droppings behind.
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover spool file %s", e.Name())
		}
	}
}

// TestStoreStatWithoutSidecar verifies the rescan fallback when the
// metadata sidecar is missing (e.g. a trace dropped into the directory by
// hand).
func TestStoreStatWithoutSidecar(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Put(bytes.NewReader(encode(t, syntheticHeader(7), syntheticTrace(7, 120), binaryWriter)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(store.Dir(), info.Hash+metaExt)); err != nil {
		t.Fatal(err)
	}
	st, err := store.Stat(info.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != info.Events || st.Name != info.Name || st.Size != info.Size {
		t.Fatalf("rescanned stat %+v, want %+v", st, info)
	}
}

// trackCloser counts Close calls on a writer, to pin the constructor
// error-path contract: ownership of the stream transfers to the writer, so
// a failed construction must close it.
type trackCloser struct {
	bytes.Buffer
	closed int
}

func (c *trackCloser) Close() error { c.closed++; return nil }

// TestWriterClosesOnConstructionFailure: both trace writer constructors
// close the underlying Closer when header validation or the header write
// fails — the caller gets no writer back to close it through.
func TestWriterClosesOnConstructionFailure(t *testing.T) {
	badHeaders := []TraceHeader{
		{Version: TraceVersion + 1},
		{Version: TraceVersion, Name: strings.Repeat("n", maxTraceName+1)},
	}
	for i, hdr := range badHeaders {
		var c trackCloser
		if _, err := NewBinaryTraceWriter(&c, hdr); err == nil {
			t.Fatalf("binary header %d accepted", i)
		}
		if c.closed != 1 {
			t.Errorf("binary header %d: %d Close calls, want 1", i, c.closed)
		}
	}
	var c trackCloser
	if _, err := NewNDJSONTraceWriter(&c, TraceHeader{Version: TraceVersion + 1}); err == nil {
		t.Fatal("ndjson bad version accepted")
	}
	if c.closed != 1 {
		t.Errorf("ndjson: %d Close calls, want 1", c.closed)
	}

	// Successful construction must NOT close: the writer owns the stream
	// until its own Close.
	var ok trackCloser
	w, err := NewBinaryTraceWriter(&ok, TraceHeader{})
	if err != nil {
		t.Fatal(err)
	}
	if ok.closed != 0 {
		t.Errorf("successful construction closed the stream")
	}
	if err := w.Close(); err != nil || ok.closed != 1 {
		t.Errorf("Close: err %v, %d Close calls, want 1", err, ok.closed)
	}
}

// TestWriteEventValidatesBeforeEncoding: a negative ref is rejected up
// front — uint64(ev.Ref) must never wrap into a huge valid-looking value —
// and the rejected event leaves no bytes in the stream, so the trace stays
// decodable with the correct count.
func TestWriteEventValidatesBeforeEncoding(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryTraceWriter(&buf, TraceHeader{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(TraceEvent{Op: EvMalloc, Size: 64}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []TraceEvent{
		{Op: EvFree, Ref: -1},
		{Op: EvPlant, Ref: -7, Size: 16},
	} {
		if err := w.WriteEvent(ev); err == nil {
			t.Fatalf("negative ref %+v accepted", ev)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := decode(t, buf.Bytes(), FormatBinary)
	if len(got) != 1 {
		t.Fatalf("stream holds %d events after rejected writes, want 1", len(got))
	}
}

// TestBinaryReaderStickyError: after a decode error the reader must keep
// returning that error — a retry that resynchronises on garbage bytes would
// hand corrupt data to the replay as events.
func TestBinaryReaderStickyError(t *testing.T) {
	full := encode(t, TraceHeader{Name: "sticky", Seed: 1}, []TraceEvent{{Op: EvMalloc, Size: 64}}, binaryWriter)
	corrupt := append([]byte(nil), full[:len(full)-2]...) // cut into the end record

	r, err := NewTraceReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first event: %v", err)
	}
	_, err1 := r.Next()
	if err1 == nil || err1 == io.EOF {
		t.Fatalf("corrupt tail yielded %v, want decode error", err1)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Next(); err != err1 {
			t.Fatalf("retry %d: err %v, want the sticky %v", i, err, err1)
		}
	}
}

// TestStreamingSourceCorruptTail is the NextWindow regression test: a full
// window followed by a corrupt record must surface the error on the next
// call and on every call after it. Before errors were sticky, a retry hit
// the reader's post-error state and could read the corrupt tail as a clean
// empty window (io.EOF with nothing buffered).
func TestStreamingSourceCorruptTail(t *testing.T) {
	full := encode(t, syntheticHeader(3), syntheticTrace(3, 5), binaryWriter)
	corrupt := append([]byte(nil), full[:len(full)-2]...) // cut into the end record

	r, err := NewTraceReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	src := NewStreamingSource(r, 5)
	win, err := src.NextWindow()
	if err != nil || len(win) != 5 {
		t.Fatalf("first window: %d events, err %v", len(win), err)
	}
	_, err1 := src.NextWindow()
	if err1 == nil || err1 == io.EOF {
		t.Fatalf("corrupt tail yielded err %v, want decode error", err1)
	}
	for i := 0; i < 3; i++ {
		win, err := src.NextWindow()
		if err != err1 {
			t.Fatalf("retry %d: window %v err %v, want the sticky %v", i, win, err, err1)
		}
	}
}

// TestStreamingSourceEOFSticky: exhaustion is terminal too — callers that
// over-read past io.EOF keep getting io.EOF, never a re-read.
func TestStreamingSourceEOFSticky(t *testing.T) {
	r, err := NewTraceReader(bytes.NewReader(encode(t, syntheticHeader(4), syntheticTrace(4, 3), binaryWriter)))
	if err != nil {
		t.Fatal(err)
	}
	src := NewStreamingSource(r, 8)
	if win, err := src.NextWindow(); err != nil || len(win) != 3 {
		t.Fatalf("short final window: %d events, err %v", len(win), err)
	}
	for i := 0; i < 2; i++ {
		if _, err := src.NextWindow(); err != io.EOF {
			t.Fatalf("post-exhaustion call %d: %v, want io.EOF", i, err)
		}
	}
}

// loopingRecords serves a binary header once, then cycles a pre-encoded
// body of records forever, never the end record, so AllocsPerRun and
// BenchmarkBinaryTraceDecode can measure a steady-state Next.
type loopingRecords struct {
	header []byte
	body   []byte
	pos    int
}

func (l *loopingRecords) Read(p []byte) (int, error) {
	if len(l.header) > 0 {
		n := copy(p, l.header)
		l.header = l.header[n:]
		return n, nil
	}
	if l.pos == len(l.body) {
		l.pos = 0
	}
	n := copy(p, l.body[l.pos:])
	l.pos += n
	return n, nil
}

// TestBinaryNextZeroAlloc pins the decode hot loop at zero heap allocations
// per record: the reader owns its payload buffer, so io.ReadFull cannot
// force a per-record escape.
func TestBinaryNextZeroAlloc(t *testing.T) {
	header := []byte(TraceMagic)
	header = binary.AppendUvarint(header, TraceVersion)
	header = binary.AppendUvarint(header, 1) // seed
	header = binary.AppendUvarint(header, 0) // empty name
	payload := binary.AppendUvarint(nil, 4096)
	body := append([]byte{EvMalloc}, binary.AppendUvarint(nil, uint64(len(payload)))...)
	body = append(body, payload...)

	r, err := NewTraceReader(&loopingRecords{header: header, body: body})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BinaryTraceReader.Next allocates %.2f per record, want 0", allocs)
	}
}
