package partition

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dbtf/internal/gen"
	"dbtf/internal/tensor"
)

// equalBlocks fails unless the decoded block equals the built one: type,
// PVM, ranges, row pointers, offsets and packed dense words.
func equalBlocks(t *testing.T, where string, got, want *Block) {
	t.Helper()
	if got.Type != want.Type || got.PVM != want.PVM || got.Lo != want.Lo || got.Hi != want.Hi || got.InnerLo != want.InnerLo {
		t.Fatalf("%s: layout %+v, want %+v", where, *got, *want)
	}
	if !slices.Equal(got.rowPtr, want.rowPtr) {
		t.Fatalf("%s: row pointers %v, want %v", where, got.rowPtr, want.rowPtr)
	}
	if !slices.Equal(got.bits, want.bits) {
		t.Fatalf("%s: offsets %v, want %v", where, got.bits, want.bits)
	}
	if got.stride != want.stride || !slices.Equal(got.denseWords, want.denseWords) {
		t.Fatalf("%s: dense words (stride %d) differ from built (stride %d)", where, got.stride, want.stride)
	}
}

// TestCodecRoundTrip decodes every home's share of every mode and checks
// it against the built partitioning block for block, across sparse and
// dense blocks, more machines than partitions, and partition counts that
// split PVM products.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		i, j, k := rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(20)+1
		x := randomTensor(rng, i, j, k, []float64{0.005, 0.05, 0.4}[trial%3])
		ux := x.UnfoldAll()
		n := rng.Intn(9) + 1
		machines := rng.Intn(5) + 1
		for mode, u := range ux {
			px := Build(u, n)
			seen := 0
			for home := 0; home < machines; home++ {
				blob := px.AppendBinary(nil, home, machines)
				got, rest, err := Decode(append(blob, 0xAB), home, machines)
				if err != nil {
					t.Fatalf("trial %d mode %d home %d: %v", trial, mode, home, err)
				}
				if len(rest) != 1 || rest[0] != 0xAB {
					t.Fatalf("trial %d mode %d home %d: rest %v, want the trailing byte", trial, mode, home, rest)
				}
				if got.NumRows != px.NumRows || got.NumCols != px.NumCols || got.BlockSize != px.BlockSize {
					t.Fatalf("trial %d mode %d home %d: shape differs", trial, mode, home)
				}
				for _, p := range got.Parts {
					if p.Index%machines != home {
						t.Fatalf("trial %d mode %d: home %d received partition %d", trial, mode, home, p.Index)
					}
					w := px.Parts[p.Index]
					if p.Lo != w.Lo || p.Hi != w.Hi || len(p.Blocks) != len(w.Blocks) {
						t.Fatalf("trial %d mode %d partition %d: layout differs", trial, mode, p.Index)
					}
					for bi := range p.Blocks {
						equalBlocks(t, "block", p.Blocks[bi], w.Blocks[bi])
					}
					seen++
				}
				got.Release()
			}
			if seen != len(px.Parts) {
				t.Fatalf("trial %d mode %d: homes received %d partitions, want %d", trial, mode, seen, len(px.Parts))
			}
			px.Release()
		}
		for _, u := range ux {
			u.Recycle()
		}
	}
}

// TestCodecRejectsCorruption flips, truncates and extends a valid blob:
// every variant either decodes to a well-formed share or errors.
func TestCodecRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomTensor(rng, 6, 7, 8, 0.3)
	px := Build(x.Unfold(tensor.Mode2), 3)
	blob := px.AppendBinary(nil, 1, 2)
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := Decode(blob[:cut], 1, 2); err == nil {
			t.Fatalf("truncated blob (%d of %d bytes) decoded", cut, len(blob))
		}
	}
	// Declared nonzeros beyond the payload are refused before allocation.
	bad := append([]byte(nil), blob...)
	bad[16], bad[17], bad[18], bad[19] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := Decode(bad, 1, 2); err == nil {
		t.Fatal("blob declaring 2^31 nonzeros decoded")
	}
	// Placements owning other partitions than the blob carries, and
	// invalid placements, are refused.
	for _, pl := range [][2]int{{0, 2}, {0, 1}, {2, 2}, {-1, 2}, {0, 0}} {
		if _, _, err := Decode(blob, pl[0], pl[1]); err == nil {
			t.Fatalf("blob for home 1 of 2 decoded as home %d of %d", pl[0], pl[1])
		}
	}
}

// FuzzPartitionDecode feeds arbitrary bytes and placements to Decode: it
// must never panic, it must never allocate more than a constant times the
// input, however large the sizes a forged header declares, and whatever
// it accepts must survive a re-encode unchanged.
func FuzzPartitionDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []float64{0.02, 0.3} {
		x := randomTensor(rng, 5, 9, 4, d)
		for _, u := range x.UnfoldAll() {
			px := Build(u, 3)
			f.Add(px.AppendBinary(nil, 0, 2), uint32(0), uint32(2))
			f.Add(px.AppendBinary(nil, 1, 2), uint32(1), uint32(2))
		}
	}
	f.Add([]byte{}, uint32(0), uint32(1))
	f.Add(make([]byte, codecHeaderLen), uint32(0), uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, home32, machines32 uint32) {
		home, machines := int(home32), int(machines32)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		px, _, err := Decode(data, home, machines)
		runtime.ReadMemStats(&after)
		// Every block row costs an input byte and a block is ~130 bytes of
		// layout; arenas round up to a power of two.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(data)+1<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		defer px.Release()
		n := int(binary.LittleEndian.Uint32(data[12:]))
		if n > 1<<16 {
			// A share owning nothing of a huge partitioning decodes from a
			// bare header; rebuilding its n slots here would be the test's
			// allocation, not the decoder's.
			return
		}
		// Place the decoded share back into a partitioning of n slots; the
		// slots it does not own are never read by AppendBinary.
		full := &Partitioned{NumRows: px.NumRows, NumCols: px.NumCols, BlockSize: px.BlockSize}
		full.Parts = make([]*Partition, n)
		for _, p := range px.Parts {
			full.Parts[p.Index] = p
		}
		again, rest, err := Decode(full.AppendBinary(nil, home, machines), home, machines)
		if err != nil {
			t.Fatalf("re-encoded share does not decode: %v", err)
		}
		defer again.Release()
		if len(rest) != 0 || len(again.Parts) != len(px.Parts) {
			t.Fatalf("re-encoded share has %d partitions and %d trailing bytes, want %d and 0",
				len(again.Parts), len(rest), len(px.Parts))
		}
		for i, p := range again.Parts {
			if p.Index != px.Parts[i].Index || len(p.Blocks) != len(px.Parts[i].Blocks) {
				t.Fatalf("partition %d layout changed across a re-encode", p.Index)
			}
			for bi := range p.Blocks {
				equalBlocks(t, "re-encoded block", p.Blocks[bi], px.Parts[i].Blocks[bi])
			}
		}
	})
}

// BenchmarkCodec encodes and decodes both homes' shares of all three
// modes at two machines and two partitions per mode, on a 256³ planted
// rank-10 tensor with 5% additive and destructive noise: the shape of a
// two-worker tcp setup push on that input.
func BenchmarkCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, _, _, _ := gen.FromFactors(rng, 256, 256, 256, 10, 0.1)
	x = gen.AddNoise(rng, x, 0.05, 0.05)
	const machines = 2
	var px [3]*Partitioned
	var blobs [3][machines][]byte
	for mode, u := range x.UnfoldAll() {
		px[mode] = Build(u, machines)
		for home := range blobs[mode] {
			blobs[mode][home] = px[mode].AppendBinary(nil, home, machines)
		}
	}
	b.Run("AppendBinary", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for mode := range px {
				for home := 0; home < machines; home++ {
					blobs[mode][home] = px[mode].AppendBinary(blobs[mode][home][:0], home, machines)
				}
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for mode := range blobs {
				for home, blob := range blobs[mode] {
					got, _, err := Decode(blob, home, machines)
					if err != nil {
						b.Fatal(err)
					}
					got.Release()
				}
			}
		}
	})
}
