package surface

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/stats"
)

const (
	magicPrefix  = "PSF"
	magicVersion = '2'

	// Decode bounds: a surface is a small artifact, so anything that
	// claims more than these is corrupt or hostile. Lengths are always
	// cross-checked against the remaining input before allocating.
	maxSections = 1 << 12
	maxNameLen  = 256
	maxStrLen   = 1 << 16
)

// Section names of the v2 layout. Unknown names are skipped on decode so
// the format can grow additively without a magic bump.
var passSections = [...]string{"pass:static/0", "pass:static/1", "pass:static/2", "pass:static/3", "pass:btb"}

const secTable1 = "table:1"

// Encode serializes d into the PSF2 byte format. The output is
// deterministic: the pass sections in core.Lab.DefaultPasses order, then
// Table 1, so equal Data encodes to equal bytes and the golden-file tier
// can diff format drift.
func Encode(d *Data) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("surface: nil data")
	}
	if len(d.Passes) != len(passSections) {
		return nil, fmt.Errorf("surface: %d passes, the layout stores %d", len(d.Passes), len(passSections))
	}
	payload := binary.AppendUvarint(nil, uint64(len(passSections)+1))
	for i, r := range d.Passes {
		body, err := encodePass(r)
		if err != nil {
			return nil, fmt.Errorf("surface: section %q: %w", passSections[i], err)
		}
		payload = appendSection(payload, passSections[i], body)
	}
	payload = appendSection(payload, secTable1, encodeTable1(d.Table1))

	sum := sha256.Sum256(payload)
	out := make([]byte, 0, 4+32+32+len(payload))
	out = append(out, magicPrefix...)
	out = append(out, magicVersion)
	out = append(out, d.ParamsHash[:]...)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out, nil
}

func appendSection(b []byte, name string, payload []byte) []byte {
	b = appendStr(b, name)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Decode parses and validates a PSF2 surface: magic, version, payload
// hash, and every internal length. The returned Surface pins the decoded
// content in memory.
func Decode(b []byte) (*Surface, error) {
	return decode(b, true)
}

// decode is Decode with the payload-hash check optional; the fuzz harness
// uses verify=false to reach the section decoders with arbitrary bytes
// (mutated inputs cannot recompute the hash, so the verified path alone
// would never exercise them).
func decode(b []byte, verify bool) (*Surface, error) {
	if len(b) < 4+32+32 {
		return nil, fmt.Errorf("surface: truncated header (%d bytes)", len(b))
	}
	magic := b[:4]
	if !bytes.HasPrefix(magic, []byte(magicPrefix)) {
		return nil, fmt.Errorf("surface: bad magic %q", magic)
	}
	switch v := magic[3]; {
	case v == magicVersion:
	case v > magicVersion && v <= '9':
		return nil, fmt.Errorf("surface: format version %c is newer than this reader (PSF2); rebake or upgrade", v)
	case v >= '1' && v < magicVersion:
		return nil, fmt.Errorf("surface: format version %c is older than this reader (PSF2) and stores answers, not passes; rebake it", v)
	default:
		return nil, fmt.Errorf("surface: bad magic %q", magic)
	}
	d := &Data{Passes: make([]*cpisim.Result, len(passSections))}
	copy(d.ParamsHash[:], b[4:36])
	payload := b[68:]
	sum := sha256.Sum256(payload)
	if verify && !bytes.Equal(sum[:], b[36:68]) {
		return nil, fmt.Errorf("surface: payload hash mismatch (corrupt or truncated surface)")
	}

	r := &reader{b: payload}
	nsec, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("surface: section count: %w", err)
	}
	if nsec > maxSections {
		return nil, fmt.Errorf("surface: %d sections exceeds the format bound %d", nsec, maxSections)
	}
	seen := map[string]bool{}
	for i := uint64(0); i < nsec; i++ {
		name, err := r.str(maxNameLen)
		if err != nil {
			return nil, fmt.Errorf("surface: section %d name: %w", i, err)
		}
		plen, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("surface: section %q length: %w", name, err)
		}
		body, err := r.bytes(plen)
		if err != nil {
			return nil, fmt.Errorf("surface: section %q: %w", name, err)
		}
		if seen[name] {
			return nil, fmt.Errorf("surface: duplicate section %q", name)
		}
		seen[name] = true
		sr := &reader{b: body}
		if name == secTable1 {
			d.Table1, err = decodeTable1(sr)
		} else if p := slices.Index(passSections[:], name); p >= 0 {
			d.Passes[p], err = decodePass(sr)
		}
		// Any other name is an additive format extension: skip it.
		if err != nil {
			return nil, fmt.Errorf("surface: section %q: %w", name, err)
		}
	}
	for _, name := range append(passSections[:], secTable1) {
		if !seen[name] {
			return nil, fmt.Errorf("surface: missing section %q", name)
		}
	}
	return &Surface{d: d, hash: fmt.Sprintf("%x", sum), size: len(b)}, nil
}

// benchCounters lists a benchmark's scalar counters in the order a pass
// section stores them; encode and decode walk the same list.
func benchCounters(b *cpisim.BenchResult) []*int64 {
	cs := []*int64{
		&b.Insts, &b.CTIs, &b.BranchStall, &b.FillStall,
		&b.PredTaken, &b.PredTakenRight, &b.PredNotTaken, &b.PredNotTakenRight,
		&b.Loads, &b.LoadUses, &b.LoadStall, &b.IFetches, &b.DReads, &b.DWrites,
	}
	for i := range b.BTBOutcomes {
		cs = append(cs, &b.BTBOutcomes[i])
	}
	return cs
}

// benchLadders lists a benchmark's per-size miss ladders in stored order.
func benchLadders(b *cpisim.BenchResult) []*[]int64 {
	return []*[]int64{&b.IMisses, &b.DReadMisses, &b.DWriteMisses}
}

// minBenchBytes is the fewest bytes one stored benchmark occupies: a name
// length, the weight, one byte per counter, ladder length and histogram
// bin count.
var minBenchBytes = 1 + 8 + len(benchCounters(&cpisim.BenchResult{})) + 3 + 2

// encodePass lays out one pass result: per benchmark its name, weight,
// counters, miss ladders and epsilon histograms. The configuration is not
// stored; a seeded lab rebuilds it from the pass key and its parameters.
func encodePass(r *cpisim.Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("no result")
	}
	b := binary.AppendUvarint(nil, uint64(len(r.Benches)))
	for i := range r.Benches {
		br := &r.Benches[i]
		if br.L2 != nil {
			return nil, fmt.Errorf("%s has second-level results, which the layout does not store", br.Name)
		}
		b = appendStr(b, br.Name)
		b = appendFloat(b, br.Weight)
		for _, c := range benchCounters(br) {
			b = binary.AppendVarint(b, *c)
		}
		for _, l := range benchLadders(br) {
			b = binary.AppendUvarint(b, uint64(len(*l)))
			for _, v := range *l {
				b = binary.AppendVarint(b, v)
			}
		}
		b = appendHist(b, br.Eps)
		b = appendHist(b, br.EpsBlock)
	}
	return b, nil
}

// appendHist stores a histogram as its bin count (0 for none), then every
// bin's count and the overflow count.
func appendHist(b []byte, h *stats.Hist) []byte {
	if h == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(h.Bins()))
	for v := 0; v <= h.Bins(); v++ {
		b = binary.AppendUvarint(b, h.Count(v))
	}
	return b
}

func decodePass(r *reader) (*cpisim.Result, error) {
	n, err := r.count(minBenchBytes)
	if err != nil {
		return nil, fmt.Errorf("benchmark count: %w", err)
	}
	res := &cpisim.Result{Benches: make([]cpisim.BenchResult, n)}
	for i := range res.Benches {
		br := &res.Benches[i]
		if br.Name, err = r.str(maxNameLen); err != nil {
			return nil, fmt.Errorf("benchmark %d name: %w", i, err)
		}
		if br.Weight, err = r.float(); err != nil {
			return nil, fmt.Errorf("%s weight: %w", br.Name, err)
		}
		for _, c := range benchCounters(br) {
			if *c, err = r.varint(); err != nil {
				return nil, fmt.Errorf("%s counters: %w", br.Name, err)
			}
		}
		for _, l := range benchLadders(br) {
			if *l, err = r.int64s(); err != nil {
				return nil, fmt.Errorf("%s miss ladder: %w", br.Name, err)
			}
		}
		if br.Eps, err = r.hist(); err != nil {
			return nil, fmt.Errorf("%s epsilon histogram: %w", br.Name, err)
		}
		if br.EpsBlock, err = r.hist(); err != nil {
			return nil, fmt.Errorf("%s block epsilon histogram: %w", br.Name, err)
		}
	}
	return res, nil
}

// rowStrings and rowFloats list a Table 1 row's fields in stored order.
func rowStrings(row *core.Table1Row) []*string {
	return []*string{&row.Name, &row.Desc, &row.Kind}
}

func rowFloats(row *core.Table1Row) []*float64 {
	return []*float64{&row.MInsts, &row.LoadPct, &row.StorePct, &row.CTIPct}
}

func encodeTable1(rows []core.Table1Row) []byte {
	b := binary.AppendUvarint(nil, uint64(len(rows)))
	for i := range rows {
		for _, s := range rowStrings(&rows[i]) {
			b = appendStr(b, *s)
		}
		for _, f := range rowFloats(&rows[i]) {
			b = appendFloat(b, *f)
		}
	}
	return b
}

func decodeTable1(r *reader) ([]core.Table1Row, error) {
	// Three string lengths and four fixed floats per row.
	n, err := r.count(3 + 4*8)
	if err != nil {
		return nil, fmt.Errorf("row count: %w", err)
	}
	rows := make([]core.Table1Row, n)
	for i := range rows {
		for _, s := range rowStrings(&rows[i]) {
			if *s, err = r.str(maxStrLen); err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
		}
		for _, f := range rowFloats(&rows[i]) {
			if *f, err = r.float(); err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
		}
	}
	return rows, nil
}

// reader is a bounds-checked cursor over a decode buffer. Every length it
// is asked for is validated against the remaining input before any
// allocation, so corrupt counts fail with an error instead of an
// out-of-memory or a slice panic.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) bytes(n uint64) ([]byte, error) {
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, r.remaining())
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) str(max int) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(max) {
		return "", fmt.Errorf("string length %d exceeds bound %d", n, max)
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) float() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// count reads an element count and sanity-checks it against the remaining
// bytes assuming each element occupies at least minBytes, bounding any
// allocation by the input size.
func (r *reader) count(minBytes int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()/minBytes) {
		return 0, fmt.Errorf("count %d exceeds what %d remaining bytes can hold", n, r.remaining())
	}
	return int(n), nil
}

// int64s reads a length-prefixed ladder of signed varints.
func (r *reader) int64s() ([]int64, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	vs := make([]int64, n)
	for i := range vs {
		if vs[i], err = r.varint(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// hist reads a histogram stored by appendHist, rebuilding it with the
// same operations that filled it, so it round-trips bit for bit.
func (r *reader) hist() (*stats.Hist, error) {
	bins, err := r.count(1)
	if err != nil || bins == 0 {
		return nil, err
	}
	h := stats.NewHist(bins)
	for v := 0; v <= bins; v++ {
		c, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		h.AddN(v, c)
	}
	return h, nil
}
