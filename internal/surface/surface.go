// Package surface implements the baked design-space tier: every result
// the HTTP service returns at the lab's default policy is arithmetic over
// five simulation passes (static delayed branches at b = 0..3 and the BTB
// scheme, core.Lab.DefaultPasses) plus Table 1's probe, so the artifact
// stores exactly those, and a server seeds its lab's pass memo from it
// (core.Lab.Seed). Every request then runs the live handlers, but no
// request that the seeds cover ever runs a simulation pass: any cache
// size, load depth, l2_time_ns, figure penalty or table is answered from
// the stored passes, as the paper's cacheSIM reads every cache size and
// penalty out of one pass per branch depth.
//
// The artifact is the PSF2 format, a sibling of the PCT2 trace format:
//
//	magic "PSF2" (4 bytes; "PSF" + version digit)
//	params hash  (32 bytes: SHA-256 of core.Fingerprint — the generator
//	              parameters and suite identity the surface was baked for)
//	payload hash (32 bytes: SHA-256 of everything after the header; the
//	              surface's content identity, exposed by the server)
//	section count (uvarint), then per section:
//	    name length (uvarint) + name bytes
//	    payload length (uvarint) + payload bytes
//
// Sections are named (one per pass, and "table:1"), so the format evolves
// additively: readers skip sections they do not know, and only an
// incompatible layout change bumps the magic. A reader refuses an older
// layout (PSF1 stored answers, not passes) and a newer one with a clear
// version error rather than misparsing it.
//
// Decoding validates the payload hash and every length against the input
// size before allocating, so a truncated or corrupt surface fails cleanly
// at load time instead of panicking or over-allocating (FuzzSurfaceReader
// pins this).
package surface

import (
	"crypto/sha256"
	"fmt"
	"os"

	"pipecache/internal/core"
	"pipecache/internal/cpisim"
)

// Data is the decoded (or to-be-encoded) content of a surface: what
// `pipecache bake` produces and Encode serializes.
type Data struct {
	// ParamsHash is the SHA-256 of the lab fingerprint the surface was
	// baked for; a server refuses a surface whose hash does not match its
	// own lab.
	ParamsHash [32]byte
	// Passes are the lab's default passes, in core.Lab.DefaultPasses
	// order. Only the per-benchmark results are stored; a seeded lab
	// rebuilds each configuration from its own parameters.
	Passes []*cpisim.Result
	// Table1 holds Table 1's rows; the total derives from them.
	Table1 []core.Table1Row
}

// HashParams returns the surface-header hash of a lab fingerprint
// (core.Fingerprint of the suite and params).
func HashParams(fingerprint string) [32]byte {
	return sha256.Sum256([]byte(fingerprint))
}

// Surface is a decoded surface pinned in memory. It is immutable after
// Decode and safe for concurrent use; any number of labs may be seeded
// from it.
type Surface struct {
	d    *Data
	hash string // hex payload hash: the surface's content identity
	size int    // encoded byte size
}

// Hash returns the surface's content identity: the hex SHA-256 of the
// encoded section payload, as stored in the header. Servers expose it in
// the X-Surface header and /healthz.
func (s *Surface) Hash() string { return s.hash }

// ParamsHash returns the baked-for lab fingerprint hash from the header.
func (s *Surface) ParamsHash() [32]byte { return s.d.ParamsHash }

// Size returns the encoded artifact size in bytes.
func (s *Surface) Size() int { return s.size }

// NumPasses returns the number of stored simulation passes.
func (s *Surface) NumPasses() int { return len(s.d.Passes) }

// Seed fills lab's pass memo and Table 1 from the surface, after checking
// that the surface was baked for lab's fingerprint (core.Lab.Seed keeps
// entries the lab already has).
func (s *Surface) Seed(lab *core.Lab) error {
	if s.d.ParamsHash != HashParams(core.Fingerprint(lab.Suite, lab.P)) {
		return fmt.Errorf("surface %s was baked for a different lab (params hash mismatch); rebake with matching -insts/-benchmarks", s.hash[:12])
	}
	return lab.Seed(s.d.Passes, s.d.Table1)
}

// Load reads and decodes a surface file.
func Load(path string) (*Surface, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
