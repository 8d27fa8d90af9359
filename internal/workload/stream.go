package workload

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// Streaming trace pipeline. The TraceReader/TraceWriter interfaces below
// stream events through a versioned codec (binary or NDJSON — see
// docs/TRACE_FORMAT.md), and StreamingSource feeds replays in fixed-size
// event windows, each decoded in one call to the reader, so a multi-GiB
// trace drives a system with a bounded event buffer.

// TraceVersion is the current on-wire trace format version, shared by the
// binary and NDJSON encodings.
const TraceVersion = 1

// TraceMagic is the 4-byte signature that opens a binary trace stream.
const TraceMagic = "CVTR"

// DefaultSeed is the workload generator seed used when Options.Seed is 0.
const DefaultSeed = uint64(0xC0FFEE)

// DefaultWindow is the StreamingSource event-window size used when the
// caller passes 0.
const DefaultWindow = 4096

// Format names reported by TraceReader.Format.
const (
	FormatBinary = "binary"
	FormatNDJSON = "ndjson"
)

// ndjsonFormatID identifies the NDJSON header line's "format" field.
const ndjsonFormatID = "cherivoke-trace"

// maxEventPayload bounds a single binary event record's payload. Real
// records are at most ~20 bytes (two uvarint64s); the bound keeps a
// corrupted or hostile length prefix from forcing a large allocation.
const maxEventPayload = 64

// maxTraceName bounds the header's benchmark-name field for the same
// reason.
const maxTraceName = 4096

// opEnd is the binary end-of-trace record opcode; its payload carries the
// total event-record count as an integrity check.
const opEnd = byte(0x00)

// TraceHeader is the stream-level metadata that precedes the events in
// every trace encoding.
type TraceHeader struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"` // recorded benchmark profile
	Seed    uint64 `json:"seed"`
}

// TraceReader is a streaming source of trace events. Next returns io.EOF
// after the last event; any other error means the stream is corrupt or
// truncated. Readers are not safe for concurrent use. Only this package's
// readers implement it: its unexported window method is the decode
// StreamingSource hands each window to.
type TraceReader interface {
	// Header returns the stream's metadata, available before any event
	// has been read.
	Header() TraceHeader
	// Format names the encoding being read (FormatBinary or
	// FormatNDJSON).
	Format() string
	// Next returns the next event, or io.EOF at end of trace.
	Next() (TraceEvent, error)
	// Close releases the underlying stream, closing it when the reader
	// was constructed over an io.Closer.
	Close() error
	// window decodes events into buf's spare capacity until buf is full
	// or the trace ends, returning buf extended by them; an empty
	// extension without an error is the end of the trace. An error
	// discards the window, and the reader stays failed.
	window(buf []TraceEvent) ([]TraceEvent, error)
}

// TraceWriter is a streaming sink of trace events. The header is written at
// construction; Close finalises the stream (for the binary codec, the end
// record carrying the event count) and must be called for the output to be
// a valid trace.
type TraceWriter interface {
	WriteEvent(TraceEvent) error
	Close() error
}

// closerOf returns r's io.Closer half when it has one, so readers and
// writers built over files close them, while bytes.Readers need no special
// casing.
func closerOf(r any) io.Closer {
	if c, ok := r.(io.Closer); ok {
		return c
	}
	return nil
}

// closeQuiet closes c when non-nil, preserving an earlier error.
func closeQuiet(c io.Closer, err error) error {
	if c == nil {
		return err
	}
	if cerr := c.Close(); err == nil {
		return cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Binary codec.

// BinaryTraceWriter encodes a trace into the compact binary format of
// docs/TRACE_FORMAT.md: magic, uvarint header, then self-describing
// length-prefixed event records and a final end record.
type BinaryTraceWriter struct {
	w      *bufio.Writer
	c      io.Closer
	count  uint64
	closed bool
}

// NewBinaryTraceWriter writes the binary header for hdr to w and returns a
// writer for the event stream. hdr.Version 0 means the current version.
// Construction failure closes w when it is a Closer: the caller hands over
// ownership of the stream and gets no writer back to close it through.
func NewBinaryTraceWriter(w io.Writer, hdr TraceHeader) (*BinaryTraceWriter, error) {
	c := closerOf(w)
	if hdr.Version == 0 {
		hdr.Version = TraceVersion
	}
	if hdr.Version != TraceVersion {
		return nil, closeQuiet(c, fmt.Errorf("workload: unsupported trace version %d (writer supports %d)", hdr.Version, TraceVersion))
	}
	if len(hdr.Name) > maxTraceName {
		return nil, closeQuiet(c, fmt.Errorf("workload: trace name too long (%d bytes, max %d)", len(hdr.Name), maxTraceName))
	}
	bw := &BinaryTraceWriter{w: bufio.NewWriter(w), c: c}
	if _, err := bw.w.WriteString(TraceMagic); err != nil {
		return nil, closeQuiet(c, err)
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(hdr.Version))
	buf = binary.AppendUvarint(buf, hdr.Seed)
	buf = binary.AppendUvarint(buf, uint64(len(hdr.Name)))
	buf = append(buf, hdr.Name...)
	if _, err := bw.w.Write(buf); err != nil {
		return nil, closeQuiet(c, err)
	}
	return bw, nil
}

// WriteEvent appends one event record.
func (bw *BinaryTraceWriter) WriteEvent(ev TraceEvent) error {
	if bw.closed {
		return fmt.Errorf("workload: write on closed trace writer")
	}
	// Validate before encoding — unknown op first (so a bogus event is
	// reported as such even when it also carries a bogus ref), then the
	// ref: a negative ref must never reach PutUvarint, where uint64(ev.Ref)
	// would wrap into a huge valid-looking value and poison the stream.
	switch ev.Op {
	case EvMalloc, EvPlant, EvFree:
	default:
		return fmt.Errorf("workload: encoding unknown op %q", ev.Op)
	}
	if ev.Ref < 0 && ev.Op != EvMalloc {
		return fmt.Errorf("workload: encoding negative ref %d", ev.Ref)
	}
	var payload [2 * binary.MaxVarintLen64]byte
	n := 0
	switch ev.Op {
	case EvMalloc:
		n = binary.PutUvarint(payload[:], ev.Size)
	case EvPlant:
		n = binary.PutUvarint(payload[:], uint64(ev.Ref))
		n += binary.PutUvarint(payload[n:], ev.Size)
	case EvFree:
		n = binary.PutUvarint(payload[:], uint64(ev.Ref))
	}
	if err := bw.record(ev.Op, payload[:n]); err != nil {
		return err
	}
	bw.count++
	return nil
}

func (bw *BinaryTraceWriter) record(op byte, payload []byte) error {
	if err := bw.w.WriteByte(op); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := bw.w.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := bw.w.Write(payload)
	return err
}

// Close writes the end record (whose payload is the event count, so readers
// detect truncation), flushes, and closes the underlying stream if it is a
// Closer.
func (bw *BinaryTraceWriter) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	var payload [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(payload[:], bw.count)
	err := bw.record(opEnd, payload[:n])
	if ferr := bw.w.Flush(); err == nil {
		err = ferr
	}
	return closeQuiet(bw.c, err)
}

// BinaryTraceReader decodes the binary trace format in place: every record
// is parsed straight out of the bufio.Reader's buffered bytes, which it
// peeks, decodes with binary.Uvarint and then discards, so no record is
// copied and no byte costs an interface call. One record parser (record)
// serves Next, StreamingSource's window decode and Store's scan; a window
// decode reads more only for a record that straddles the end of the 4 KiB
// read buffer. Unknown event opcodes are skipped (their length prefix
// makes that possible), so older readers tolerate newer writers within a
// version.
type BinaryTraceReader struct {
	r     *bufio.Reader
	c     io.Closer
	hdr   TraceHeader
	count uint64 // event records consumed, including skipped ones
	done  bool
	fail  error // sticky decode error: once corrupt, always corrupt
}

// newBinaryTraceReader parses the binary header from br, which NewTraceReader
// has sniffed, and returns a reader positioned at the first event.
func newBinaryTraceReader(br *bufio.Reader, c io.Closer) (*BinaryTraceReader, error) {
	magic := make([]byte, len(TraceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if string(magic) != TraceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace version: %w", err)
	}
	if version != TraceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d (reader supports %d)", version, TraceVersion)
	}
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace seed: %w", err)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace name length: %w", err)
	}
	if nameLen > maxTraceName {
		return nil, fmt.Errorf("workload: trace name length %d exceeds limit %d", nameLen, maxTraceName)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("workload: reading trace name: %w", err)
	}
	return &BinaryTraceReader{
		r:   br,
		c:   c,
		hdr: TraceHeader{Version: int(version), Seed: seed, Name: string(name)},
	}, nil
}

// Header returns the decoded stream header.
func (br *BinaryTraceReader) Header() TraceHeader { return br.hdr }

// Format returns FormatBinary.
func (br *BinaryTraceReader) Format() string { return FormatBinary }

// Next returns the next event: a window decode of one event. A stream that
// ends without its end record is reported as truncated rather than io.EOF,
// so spooled uploads are validated end to end. Decode errors are sticky:
// once the stream is corrupt, every later call returns the same error — a
// retry must never resynchronise on garbage and read it as events (or as a
// clean EOF).
func (br *BinaryTraceReader) Next() (TraceEvent, error) {
	var one [1]TraceEvent
	evs, err := br.window(one[:0])
	if err == nil && len(evs) == 0 {
		err = io.EOF
	}
	if err != nil {
		return TraceEvent{}, err
	}
	return evs[0], nil
}

// window decodes events into buf's spare capacity until buf is full or the
// trace ends, and returns buf extended by them. Records are parsed from the
// bytes already buffered, and it waits for more only when those end inside
// a record, so a window never blocks on bytes past its last record. On
// error it returns buf unextended: a window that hits corruption is
// discarded.
func (br *BinaryTraceReader) window(buf []TraceEvent) ([]TraceEvent, error) {
	evs := buf[:cap(buf)]
	i := len(buf)
	for br.fail == nil && !br.done && i < len(evs) {
		b, _ := br.r.Peek(br.r.Buffered()) // no read: the buffered bytes
		off := 0
		for i < len(evs) {
			n, event, err := br.record(b[off:], &evs[i])
			if err != nil {
				br.fail = err
				break
			}
			if n == 0 {
				break // b ends inside this record
			}
			off += n
			if event {
				i++
			} else if br.done {
				break
			}
		}
		_, _ = br.r.Discard(off) // off <= Buffered(): cannot fail
		switch {
		case br.fail != nil:
		case br.done:
			br.fail = br.atEOF()
		case i < len(evs):
			br.fail = br.more(len(b) - off)
		}
	}
	if br.fail != nil {
		return buf, br.fail
	}
	return evs[:i], nil
}

// record decodes the record at the front of b. A known event is stored in
// *ev and reported with event true; an unknown opcode is counted and
// skipped; the end record, once its count matches, marks the reader done.
// n is the record's length in bytes, or 0 when b ends inside the record.
// The payload-length bound is checked as soon as the length is decoded,
// before any payload byte is waited for.
func (br *BinaryTraceReader) record(b []byte, ev *TraceEvent) (n int, event bool, err error) {
	if len(b) < 2 {
		return 0, false, nil
	}
	plen, k := uint64(b[1]), 1
	if plen >= 0x80 {
		if plen, k = binary.Uvarint(b[1:]); k == 0 {
			return 0, false, nil
		} else if k < 0 {
			return 0, false, errors.New("workload: event payload length overflows 64 bits")
		}
	}
	if plen > maxEventPayload {
		return 0, false, fmt.Errorf("workload: event payload length %d exceeds limit %d", plen, maxEventPayload)
	}
	n = 1 + k + int(plen)
	if len(b) < n {
		return 0, false, nil
	}
	p := b[1+k : n]
	switch b[0] {
	case EvMalloc:
		size, m := binary.Uvarint(p)
		if m <= 0 || m != len(p) {
			return 0, false, errors.New("workload: malformed malloc record")
		}
		*ev = TraceEvent{Op: EvMalloc, Size: size}
	case EvPlant:
		ref, m := binary.Uvarint(p)
		if m <= 0 {
			return 0, false, errors.New("workload: malformed plant record")
		}
		off, m2 := binary.Uvarint(p[m:])
		if m2 <= 0 || m+m2 != len(p) {
			return 0, false, errors.New("workload: malformed plant record")
		}
		if ref > uint64(maxInt) {
			return 0, false, fmt.Errorf("workload: plant ref %d overflows int", ref)
		}
		*ev = TraceEvent{Op: EvPlant, Ref: int(ref), Size: off}
	case EvFree:
		ref, m := binary.Uvarint(p)
		if m <= 0 || m != len(p) {
			return 0, false, errors.New("workload: malformed free record")
		}
		if ref > uint64(maxInt) {
			return 0, false, fmt.Errorf("workload: free ref %d overflows int", ref)
		}
		*ev = TraceEvent{Op: EvFree, Ref: int(ref)}
	case opEnd:
		// The payload is exactly the count: trailing payload bytes would
		// give the same logical trace a second content address.
		count, m := binary.Uvarint(p)
		if m <= 0 || m != len(p) {
			return 0, false, errors.New("workload: malformed end record")
		}
		if count != br.count {
			return 0, false, fmt.Errorf("workload: end record count %d != %d events read", count, br.count)
		}
		br.done = true
		return n, false, nil
	default:
		br.count++ // forward compatibility: skip unknown record types
		return n, false, nil
	}
	br.count++
	return n, true, nil
}

// more blocks until at least one byte beyond the have bytes of a partial
// record is buffered. The stream ending first is truncation: at a record
// boundary the end record is missing, inside a record the record is cut.
func (br *BinaryTraceReader) more(have int) error {
	b, err := br.r.Peek(have + 1)
	switch {
	case len(b) > have:
		return nil
	case err == io.EOF && have == 0:
		return fmt.Errorf("workload: truncated trace: missing end record: %w", io.ErrUnexpectedEOF)
	case err == io.EOF:
		return fmt.Errorf("workload: truncated trace record: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("workload: reading trace record: %w", err)
}

// atEOF checks that the end record was the last bytes of the stream:
// trailing garbage would give the same logical trace a different content
// address, so it is corruption, not slack.
func (br *BinaryTraceReader) atEOF() error {
	switch _, err := br.r.Peek(1); err {
	case nil:
		return errors.New("workload: trailing bytes after trace end record")
	case io.EOF:
		return nil
	default:
		return fmt.Errorf("workload: reading past the end record: %w", err)
	}
}

// Close closes the underlying stream when it is a Closer.
func (br *BinaryTraceReader) Close() error { return closeQuiet(br.c, nil) }

const maxInt = int(^uint(0) >> 1)

// ---------------------------------------------------------------------------
// NDJSON codec.

// ndjsonHeader is the first line of an NDJSON trace stream.
type ndjsonHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	Seed    uint64 `json:"seed"`
}

// ndjsonEvent is one event line. Unlike TraceEvent's compact dual-use Size
// field, the NDJSON encoding is self-describing: plants carry their offset
// in "off", and the op is a one-letter string ("m", "p", "f").
type ndjsonEvent struct {
	Op   string `json:"op"`
	Size uint64 `json:"size,omitempty"`
	Ref  int    `json:"ref,omitempty"`
	Off  uint64 `json:"off,omitempty"`
}

// NDJSONTraceWriter encodes a trace as newline-delimited JSON: a header
// line followed by one event object per line. The stream is EOF-terminated.
type NDJSONTraceWriter struct {
	w      *bufio.Writer
	c      io.Closer
	closed bool
}

// NewNDJSONTraceWriter writes the NDJSON header line for hdr to w and
// returns a writer for the event stream. Construction failure closes w when
// it is a Closer, mirroring NewBinaryTraceWriter.
func NewNDJSONTraceWriter(w io.Writer, hdr TraceHeader) (*NDJSONTraceWriter, error) {
	c := closerOf(w)
	if hdr.Version == 0 {
		hdr.Version = TraceVersion
	}
	if hdr.Version != TraceVersion {
		return nil, closeQuiet(c, fmt.Errorf("workload: unsupported trace version %d (writer supports %d)", hdr.Version, TraceVersion))
	}
	nw := &NDJSONTraceWriter{w: bufio.NewWriter(w), c: c}
	line, err := json.Marshal(ndjsonHeader{Format: ndjsonFormatID, Version: hdr.Version, Name: hdr.Name, Seed: hdr.Seed})
	if err != nil {
		return nil, closeQuiet(c, err)
	}
	if err := nw.writeLine(line); err != nil {
		return nil, closeQuiet(c, err)
	}
	return nw, nil
}

func (nw *NDJSONTraceWriter) writeLine(line []byte) error {
	if _, err := nw.w.Write(line); err != nil {
		return err
	}
	return nw.w.WriteByte('\n')
}

// WriteEvent appends one event line.
func (nw *NDJSONTraceWriter) WriteEvent(ev TraceEvent) error {
	if nw.closed {
		return fmt.Errorf("workload: write on closed trace writer")
	}
	var je ndjsonEvent
	switch ev.Op {
	case EvMalloc:
		je = ndjsonEvent{Op: "m", Size: ev.Size}
	case EvPlant:
		je = ndjsonEvent{Op: "p", Ref: ev.Ref, Off: ev.Size}
	case EvFree:
		je = ndjsonEvent{Op: "f", Ref: ev.Ref}
	default:
		return fmt.Errorf("workload: encoding unknown op %q", ev.Op)
	}
	line, err := json.Marshal(je)
	if err != nil {
		return err
	}
	return nw.writeLine(line)
}

// Close flushes the stream and closes the underlying writer when it is a
// Closer.
func (nw *NDJSONTraceWriter) Close() error {
	if nw.closed {
		return nil
	}
	nw.closed = true
	return closeQuiet(nw.c, nw.w.Flush())
}

// NDJSONTraceReader decodes an NDJSON trace stream. Lines whose op this
// version does not define are skipped, mirroring the binary reader.
type NDJSONTraceReader struct {
	dec *json.Decoder
	c   io.Closer
	hdr TraceHeader
}

// Header returns the decoded stream header.
func (nr *NDJSONTraceReader) Header() TraceHeader { return nr.hdr }

// Format returns FormatNDJSON.
func (nr *NDJSONTraceReader) Format() string { return FormatNDJSON }

// Next returns the next event, or io.EOF at end of stream.
func (nr *NDJSONTraceReader) Next() (TraceEvent, error) {
	for {
		var je ndjsonEvent
		if err := nr.dec.Decode(&je); err != nil {
			if errors.Is(err, io.EOF) {
				return TraceEvent{}, io.EOF
			}
			return TraceEvent{}, fmt.Errorf("workload: decoding ndjson event: %w", err)
		}
		switch je.Op {
		case "m":
			return TraceEvent{Op: EvMalloc, Size: je.Size}, nil
		case "p":
			return TraceEvent{Op: EvPlant, Ref: je.Ref, Size: je.Off}, nil
		case "f":
			return TraceEvent{Op: EvFree, Ref: je.Ref}, nil
		default:
			continue // forward compatibility: skip unknown ops
		}
	}
}

// window decodes events one Next at a time until buf is full or the stream
// ends.
func (nr *NDJSONTraceReader) window(buf []TraceEvent) ([]TraceEvent, error) {
	for len(buf) < cap(buf) {
		ev, err := nr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
		buf = append(buf, ev)
	}
	return buf, nil
}

// Close closes the underlying stream when it is a Closer.
func (nr *NDJSONTraceReader) Close() error { return closeQuiet(nr.c, nil) }

// ---------------------------------------------------------------------------
// Format sniffing.

// maxNDJSONHeaderBytes bounds the sniffing window for the NDJSON header
// line (real headers are well under 200 bytes).
const maxNDJSONHeaderBytes = 4096

// NewTraceReader sniffs r's encoding and returns the matching reader:
// binary by its magic, NDJSON by a header decoded from at most the first
// maxNDJSONHeaderBytes. Anything else is rejected as unrecognised after
// reading no more than that window, so untrusted input never makes the
// sniffer buffer a whole document. If r is an io.Closer, the returned
// reader's Close closes it.
func NewTraceReader(r io.Reader) (TraceReader, error) {
	br := bufio.NewReaderSize(r, maxNDJSONHeaderBytes)
	if magic, err := br.Peek(len(TraceMagic)); err == nil && string(magic) == TraceMagic {
		return newBinaryTraceReader(br, closerOf(r))
	}
	window, peekErr := br.Peek(maxNDJSONHeaderBytes)
	hdrDec := json.NewDecoder(bytes.NewReader(window))
	var hdr ndjsonHeader
	if err := hdrDec.Decode(&hdr); err != nil || hdr.Format != ndjsonFormatID {
		if peekErr != nil && peekErr != io.EOF {
			return nil, fmt.Errorf("workload: reading trace header: %w", peekErr)
		}
		return nil, fmt.Errorf("workload: unrecognised trace format: want the binary (%s) or NDJSON (%q header) encoding", TraceMagic, ndjsonFormatID)
	}
	if hdr.Version != TraceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d (reader supports %d)", hdr.Version, TraceVersion)
	}
	// The header lies inside the peeked window, so Discard cannot fail.
	_, _ = br.Discard(int(hdrDec.InputOffset()))
	return &NDJSONTraceReader{
		dec: json.NewDecoder(br),
		c:   closerOf(r),
		hdr: TraceHeader{Version: hdr.Version, Name: hdr.Name, Seed: hdr.Seed},
	}, nil
}

// ---------------------------------------------------------------------------
// Bounded-window source and streamed replay.

// StreamingSource delivers a trace in fixed-size event windows from a
// single reusable buffer: the peak number of events held in memory is the
// window size, independent of trace length. This is what lets multi-GiB
// spooled traces drive revocation sweeps and campaign jobs without
// materialising their events.
type StreamingSource struct {
	r   TraceReader
	buf []TraceEvent
	err error // sticky terminal state: a decode error, or io.EOF
}

// NewStreamingSource wraps r with a bounded event window (0 = the
// DefaultWindow of 4096 events).
func NewStreamingSource(r TraceReader, window int) *StreamingSource {
	if window <= 0 {
		window = DefaultWindow
	}
	return &StreamingSource{r: r, buf: make([]TraceEvent, 0, window)}
}

// Header returns the underlying stream's header.
func (s *StreamingSource) Header() TraceHeader { return s.r.Header() }

// Window returns the fixed window capacity.
func (s *StreamingSource) Window() int { return cap(s.buf) }

// NextWindow returns the next window of events, valid until the following
// call (the buffer is reused), decoded in one call to the reader. It
// returns io.EOF when the trace is exhausted; a short final window is not
// an error. A decode error is terminal and sticky: the partial window is
// discarded and every later call returns the same error, so a caller that
// retries past a corrupt tail can never read it as a clean short window or
// a clean EOF (the underlying reader has consumed bytes up to the
// corruption; a bare retry would otherwise see io.EOF with an empty
// buffer).
func (s *StreamingSource) NextWindow() ([]TraceEvent, error) {
	if s.err != nil {
		return nil, s.err
	}
	win, err := s.r.window(s.buf[:0])
	if err == nil && len(win) == 0 {
		err = io.EOF
	}
	if err != nil {
		s.err = err
		return nil, err
	}
	return win, nil
}

// Close closes the underlying reader.
func (s *StreamingSource) Close() error { return s.r.Close() }

// RunStream replays a streamed trace against sys through an
// IncrementalReplay and measures it the way Run measures a generated
// workload, using p for the timing metadata the trace itself does not carry
// (free rate, cache-reuse factor). Callers resolve p from the stream
// header's benchmark name (ByName) or supply an explicit profile for
// controlled comparisons; a zero Profile yields the nominal timing window.
// base, when non-nil, is Options.Baseline's direct-free system, fed the
// trace's mallocs and frees as they are replayed.
//
// The replay applies exactly the recorded event sequence, so the sweeps it
// triggers — and their revoke.Stats, DRAM-traffic counters included — are
// byte-identical to the run that recorded the trace, against the same
// configuration.
func RunStream(sys, base *core.System, src *StreamingSource, p Profile) (Result, error) {
	st, err := NewIncrementalReplay(sys, base).Replay(src)
	if err != nil {
		return Result{Profile: p}, err
	}
	res := Result{
		Profile:       p,
		Mallocs:       st.Mallocs,
		Frees:         st.Frees,
		FreedBytes:    st.FreedBytes,
		PeakFootprint: sys.MemoryFootprint(),
	}
	// Scale is derived from the end-state live heap because the recording
	// run's MaxLiveBytes is not part of the trace; everything else is the
	// exact measurement Run performs.
	if p.LiveHeapMiB > 0 {
		res.Scale = float64(sys.LiveBytes()) / (p.LiveHeapMiB * (1 << 20))
	} else {
		res.Scale = 1
	}
	finishMeasurement(sys, p, &res)
	return res, nil
}
