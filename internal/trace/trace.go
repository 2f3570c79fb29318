// Package trace defines the on-disk reference-trace format of the
// simulator, utilities to capture, mix, and replay traces, and the
// in-memory event-trace tier (EventTrace/Recorder/Store) that lets one
// interpreted pass be replayed against many cache configurations.
//
// The paper drove cacheSIM from long multiprogrammed address traces. This
// reproduction usually generates references on the fly (the interpreters
// are deterministic), but the trace format lets a reference stream be
// captured once and replayed against many cache configurations, exactly as
// trace files were used in 1992 — and it is what the cmd/pipecache
// "tracegen" subcommand and the examples/tracegen program exercise.
//
// A file is the 4-byte magic "PCT2" followed by one record per reference:
// a byte packing the reference kind (2 bits) with the process id (6 bits),
// then the word address encoded as a zigzag-varint delta against the
// previous address of the same process AND kind. Fetch, load, and store
// streams advance through disjoint regions, so separating the delta bases
// keeps deltas short (typically 1-2 bytes: sequential fetches are +1 word)
// even though the record stream interleaves kinds and processes freely.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pipecache/internal/fault"
)

// ptReaderRead injects I/O-shaped faults into on-disk trace reading,
// standing in for the short reads, disk errors, and truncated
// files a production trace archive would produce.
var ptReaderRead = fault.NewPoint("trace.reader.read")

// Kind classifies a reference.
type Kind uint8

const (
	// IFetch is an instruction fetch.
	IFetch Kind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
)

func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Ref is one reference record.
type Ref struct {
	Kind Kind
	PID  uint8 // process id within the multiprogrammed mix (0-63)
	Addr uint32
}

const (
	magic  = "PCT2"
	maxPID = 63
)

// Writer streams refs to an io.Writer.
type Writer struct {
	w       *bufio.Writer
	count   uint64
	err     error
	prev    [maxPID + 1][3]uint32 // per-(pid, kind) previous address
	scratch [1 + binary.MaxVarintLen64]byte
}

// NewWriter writes the header and returns a Writer. Call Flush when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (t *Writer) Write(r Ref) error {
	if t.err != nil {
		return t.err
	}
	if r.PID > maxPID {
		t.err = fmt.Errorf("trace: pid %d exceeds %d", r.PID, maxPID)
		return t.err
	}
	if r.Kind > Store {
		t.err = fmt.Errorf("trace: bad kind %d", r.Kind)
		return t.err
	}
	buf := t.scratch[:0]
	buf = append(buf, uint8(r.Kind)<<6|r.PID)
	delta := int64(r.Addr) - int64(t.prev[r.PID][r.Kind])
	buf = binary.AppendVarint(buf, delta)
	t.prev[r.PID][r.Kind] = r.Addr
	if _, err := t.w.Write(buf); err != nil {
		t.err = err
		return err
	}
	t.count++
	return nil
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush flushes buffered records.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader streams refs from an io.Reader.
type Reader struct {
	r     *bufio.Reader
	count uint64
	prev  [maxPID + 1][3]uint32
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	return &Reader{r: br}, nil
}

// Read returns the next record, or io.EOF at a clean end of trace.
func (t *Reader) Read() (Ref, error) {
	if err := ptReaderRead.Inject(); err != nil {
		return Ref{}, fmt.Errorf("trace: record %d: %w", t.count, err)
	}
	head, err := t.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Ref{}, io.EOF
		}
		return Ref{}, err
	}
	kind := Kind(head >> 6)
	if kind > Store {
		return Ref{}, fmt.Errorf("trace: bad kind %d at record %d", kind, t.count)
	}
	pid := head & maxPID
	delta, err := binary.ReadVarint(t.r)
	if err != nil {
		if err == io.EOF {
			return Ref{}, fmt.Errorf("trace: truncated record after %d records", t.count)
		}
		return Ref{}, fmt.Errorf("trace: record %d: %w", t.count, err)
	}
	addr := int64(t.prev[pid][kind]) + delta
	if addr < 0 || addr > math.MaxUint32 {
		return Ref{}, fmt.Errorf("trace: record %d: address delta out of range", t.count)
	}
	t.prev[pid][kind] = uint32(addr)
	t.count++
	return Ref{Kind: kind, PID: pid, Addr: uint32(addr)}, nil
}

// Count returns the number of records read so far.
func (t *Reader) Count() uint64 { return t.count }
