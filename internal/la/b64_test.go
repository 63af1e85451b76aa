package la

import (
	"encoding/base64"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refBase64F64 is DecodeBase64F64's oracle: base64.StdEncoding.Decode of one
// 32-character block at a time and the scalar finite check, stopping at the
// first block that does not decode to 24 bytes of finite values, at a tail
// under 32 characters, or when dst has room for fewer than three values.
func refBase64F64(dst []float64, src []byte) int {
	k := 0
	var raw [24]byte
	for ; len(src) >= 32 && len(dst)-k >= 3; src = src[32:] {
		if nd, err := base64.StdEncoding.Decode(raw[:], src[:32]); err != nil || nd != len(raw) {
			break
		}
		var x [3]float64
		for j := range x {
			bits := binary.LittleEndian.Uint64(raw[8*j:])
			if bits&(0x7ff<<52) == 0x7ff<<52 {
				return k
			}
			x[j] = math.Float64frombits(bits)
		}
		k += copy(dst[k:], x[:])
	}
	return k
}

// checkBase64F64 runs DecodeBase64F64 over src into a dst of room values
// and holds it to refBase64F64: the same count and the same bits, and dst
// untouched past the count. With the lanes off the count must be 0.
func checkBase64F64(t *testing.T, src []byte, room int) {
	t.Helper()
	const sentinel = 0x7ff8dead0000beef // a NaN no decode may write
	got := make([]float64, room)
	want := make([]float64, room)
	for i := range got {
		got[i] = math.Float64frombits(sentinel)
	}
	n := DecodeBase64F64(got, src)
	wantN := refBase64F64(want, src)
	if !vectorKernels {
		wantN = 0
	}
	if n != wantN {
		t.Fatalf("len(src) %d, room %d: wrote %d values, stdlib decodes %d (lanes on: %v)", len(src), room, n, wantN, vectorKernels)
	}
	for i := range got {
		if i < n && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: %#x, stdlib %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		if i >= n && math.Float64bits(got[i]) != sentinel {
			t.Fatalf("value %d past the count %d written: %#x", i, n, math.Float64bits(got[i]))
		}
	}
}

// b64Values encodes x as the wire's base64, 32 characters per three values.
func b64Values(x ...float64) []byte {
	return []byte(base64.StdEncoding.EncodeToString(bytesOf(x...)))
}

// b64Specials are values whose exponents sit at and next to all-ones.
var b64Specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
	math.MaxFloat64, -math.MaxFloat64, math.Float64frombits(0x7fe0000000000000),
	5e-324, math.Copysign(0, -1), 0,
}

// TestDecodeBase64F64MatchesStdlib puts every byte at every position of the
// middle block of three, every special value at every lane of it, and cuts
// dst and src at every length, from every alignment of src.
func TestDecodeBase64F64MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 9)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	src := b64Values(vals...)
	for pos := 32; pos < 64; pos++ {
		for c := 0; c < 256; c++ {
			s := append([]byte(nil), src...)
			s[pos] = byte(c)
			checkBase64F64(t, s, len(vals))
		}
	}
	for lane := 0; lane < len(vals); lane++ {
		for _, v := range b64Specials {
			x := append([]float64(nil), vals...)
			x[lane] = v
			checkBase64F64(t, b64Values(x...), len(vals))
		}
	}
	backing := make([]byte, len(src)+31)
	for off := 0; off < 32; off++ {
		s := backing[off : off+len(src)]
		copy(s, src)
		for end := 0; end <= len(s); end++ {
			checkBase64F64(t, s[:end], len(vals))
		}
		for room := 0; room <= len(vals)+1; room++ {
			checkBase64F64(t, s, room)
		}
	}
}

// b64FuzzBlocks is how many 32-character blocks the seeds span: a bad byte
// or value goes in block 0, 2 or 4, the first, a middle and the last.
const b64FuzzBlocks = 5

// b64Seeds returns FuzzDecodeBase64F64's seed inputs: a clean five-block
// encoding, and that encoding with a bad byte, each of '=', CR, LF, '"'
// and '\', or a NaN, +Inf or −Inf in the first, a middle and the last
// block. The committed corpus in testdata/fuzz/FuzzDecodeBase64F64 holds
// the same inputs.
func b64Seeds() [][]byte {
	vals := make([]float64, 3*b64FuzzBlocks)
	for i := range vals {
		vals[i] = float64(i)*1.25 - 7
	}
	seeds := [][]byte{b64Values(vals...)}
	for _, blk := range []int{0, b64FuzzBlocks / 2, b64FuzzBlocks - 1} {
		for _, c := range []byte{'!', '=', '\r', '\n', '"', '\\'} {
			s := b64Values(vals...)
			s[32*blk+17] = c
			seeds = append(seeds, s)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := append([]float64(nil), vals...)
			x[3*blk+1] = v
			seeds = append(seeds, b64Values(x...))
		}
	}
	return seeds
}

// FuzzDecodeBase64F64 holds the lanes to base64.StdEncoding.Decode and the
// scalar finite check over arbitrary bytes: the same count of values, the
// same bits, nothing written past the count. room caps dst (255: no cap).
func FuzzDecodeBase64F64(f *testing.F) {
	for _, s := range b64Seeds() {
		f.Add(s, uint8(255))
	}
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, src []byte, room uint8) {
		n := len(src)/32*3 + 1
		if room != 255 {
			n = min(n, int(room))
		}
		checkBase64F64(t, src, n)
	})
}

// BenchmarkDecodeBase64F64 prices the decode of serve-batch's body, 256×64
// normal values as base64 (175 KB), into its query buffer: the lanes
// against the portable loop they stand in front of, base64.StdEncoding in
// 4096-character chunks and the finite check per value.
func BenchmarkDecodeBase64F64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 256*64)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	src := b64Values(vals...)
	dst := make([]float64, len(vals))
	b.Run("lanes", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			// 16,384 values: the lanes take all but the one in the padded tail.
			if DecodeBase64F64(dst, src) != len(dst)/3*3 && vectorKernels {
				b.Fatal("the lanes left whole blocks undecoded")
			}
		}
	})
	b.Run("loop", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		var raw [4096 / 4 * 3]byte
		for i := 0; i < b.N; i++ {
			out := dst[:0]
			for s := src; len(s) > 0; {
				chunk := s[:min(4096, len(s))]
				s = s[len(chunk):]
				nd, err := base64.StdEncoding.Decode(raw[:], chunk)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j+8 <= nd; j += 8 {
					bits := binary.LittleEndian.Uint64(raw[j:])
					if bits&(0x7ff<<52) == 0x7ff<<52 {
						b.Fatal("not finite")
					}
					out = append(out, math.Float64frombits(bits))
				}
			}
		}
	})
}
