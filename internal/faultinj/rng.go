// Package faultinj implements seeded, fully deterministic fault-injection
// campaigns against the synthesized simulators. A campaign drives faults
// through the seams the architecture already exposes — the load-value hook,
// instruction memory (the faultUnit path), the speculation journal, the OS
// emulator, and the code-generation caches — then differentially compares
// each faulted-then-recovered run against a clean reference run and reports
// the first divergence. Everything derives from one 64-bit seed: no wall
// clock, no global RNG, so the same seed produces byte-identical reports
// across runs and hosts.
package faultinj

// RNG is a small PCG-XSH-RR generator: 64-bit state, 32-bit output. It is
// self-contained (no math/rand) so campaign streams are stable across Go
// releases, and cheap enough to seed one per cell.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// NewRNG returns a generator for the given seed and stream. Distinct
// streams with the same seed are independent sequences.
func NewRNG(seed, stream uint64) *RNG {
	r := &RNG{inc: stream<<1 | 1}
	r.state = r.inc + seed
	r.Uint32()
	return r
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("faultinj: Intn with non-positive n")
	}
	// Modulo bias is irrelevant for fault placement; determinism is what
	// matters here.
	return int(r.Uint64() % uint64(n))
}

// SplitMix64 is the standard 64-bit mixer, used to derive per-cell seeds
// from the campaign seed so cells are independent of the order they run
// in.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashKey hashes a cell key ("isa/class/kernel") with FNV-1a so per-cell
// streams depend on the cell identity, not its position in the job list.
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
