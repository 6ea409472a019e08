package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dbtf/internal/slab"
)

// codecHeaderLen is the fixed header of a home's wire form: five
// little-endian u32 fields — rows, columns, block size, partition count,
// owned nonzeros.
const codecHeaderLen = 20

// AppendBinary appends to dst the wire form of the partitions machine
// home owns when partition pi lives on machine pi % machines: that home's
// whole share of the partitioning and nothing else, so a machine receives
// each of its nonzeros once (Lemma 6).
//
// The header carries the parameters that fix the block layout (rows,
// columns, block size, partition count) and the owned nonzero count. The
// placement is not encoded: Decode is told it. Each owned partition
// follows in index order, block by block and row by row: a uvarint
// nonzero count, then the row's column offsets as uvarint gaps (offset −
// previous offset − 1). Packed dense rows are not shipped; Decode
// rebuilds them from the offsets.
func (p *Partitioned) AppendBinary(dst []byte, home, machines int) []byte {
	if machines < 1 || home < 0 || home >= machines {
		panic(fmt.Sprintf("partition: home %d outside [0,%d)", home, machines))
	}
	nnz, rowCounts := 0, 0
	for i := home; i < len(p.Parts); i += machines {
		nnz += p.Parts[i].NNZ()
		rowCounts += len(p.Parts[i].Blocks) * p.NumRows
	}
	// Most gaps and counts take one byte; reserve that much up front.
	dst = slices.Grow(dst, codecHeaderLen+rowCounts+nnz)
	for _, v := range []int{p.NumRows, p.NumCols, p.BlockSize, len(p.Parts), nnz} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for i := home; i < len(p.Parts); i += machines {
		for _, b := range p.Parts[i].Blocks {
			for r := 0; r < p.NumRows; r++ {
				row := b.RowBits(r)
				dst = binary.AppendUvarint(dst, uint64(len(row)))
				prev := int32(-1)
				for _, o := range row {
					dst = binary.AppendUvarint(dst, uint64(o-prev-1))
					prev = o
				}
			}
		}
	}
	return dst
}

// Decode parses one AppendBinary encoding of home's share, placed over
// machines as AppendBinary placed it, from the front of data and returns
// the home's partitions with the rest of data. The result's Parts
// holds only the owned partitions, in index order; each Partition.Index
// is its position in the full partitioning. Blocks, row pointers, offsets
// and packed dense rows equal those Build produced, and live in slab
// arenas that Release returns. ShuffleBytes is zero: a decoded share is
// never distributed again.
//
// Every size read off the wire is checked against the bytes that must
// back it before anything is allocated: each owned partition has at
// least one block, each block row costs at least one count byte and each
// nonzero at least one offset byte.
func Decode(data []byte, home, machines int) (*Partitioned, []byte, error) {
	if machines < 1 || machines > math.MaxInt32 || home < 0 || home >= machines {
		return nil, nil, fmt.Errorf("partition: home %d outside [0,%d)", home, machines)
	}
	if len(data) < codecHeaderLen {
		return nil, nil, fmt.Errorf("partition: truncated header: %d bytes", len(data))
	}
	rows := int(binary.LittleEndian.Uint32(data[0:]))
	cols := int(binary.LittleEndian.Uint32(data[4:]))
	blockSize := int(binary.LittleEndian.Uint32(data[8:]))
	n := int(binary.LittleEndian.Uint32(data[12:]))
	nnz := int(binary.LittleEndian.Uint32(data[16:]))
	rest := data[codecHeaderLen:]
	// Column indices are int32 throughout the package, which also keeps
	// the layout arithmetic i·cols below overflow.
	if rows < 1 || cols < 1 || cols > math.MaxInt32 || blockSize < 1 || cols%blockSize != 0 || n < 1 || n > cols {
		return nil, nil, fmt.Errorf("partition: bad layout: %d rows, %d columns, block size %d, %d partitions", rows, cols, blockSize, n)
	}
	owned := 0
	if home < n {
		owned = (n-1-home)/machines + 1
	}
	if owned > len(rest) || nnz > len(rest) {
		return nil, nil, fmt.Errorf("partition: %d partitions / %d nonzeros cannot fit %d bytes", owned, nnz, len(rest))
	}
	// Lay the owned partitions out arithmetically first: the block count
	// bounds the row-pointer arena before any layout is allocated.
	blocks := 0
	for i := home; i < n; i += machines {
		lo, hi := i*cols/n, (i+1)*cols/n
		blocks += (hi-1)/blockSize - lo/blockSize + 1
	}
	if blocks > len(rest)/rows {
		return nil, nil, fmt.Errorf("partition: %d blocks of %d rows cannot fit %d bytes", blocks, rows, len(rest))
	}
	px := &Partitioned{NumRows: rows, NumCols: cols, BlockSize: blockSize}
	px.ptrArena = slab.Int32s(blocks * (rows + 1))
	px.bitsArena = slab.Int32s(nnz)
	fail := func(err error) (*Partitioned, []byte, error) {
		px.Release()
		return nil, nil, err
	}
	bi, pos, denseTotal := 0, 0, 0
	for i := home; i < n; i += machines {
		p := layout(i, n, cols, blockSize)
		for _, b := range p.Blocks {
			width := b.Width()
			rp := px.ptrArena[bi*(rows+1) : (bi+1)*(rows+1)]
			bi++
			rp[0] = 0
			start := pos
			for r := 0; r < rows; r++ {
				c, k := binary.Uvarint(rest)
				if k <= 0 {
					return fail(fmt.Errorf("partition: partition %d row %d: bad count", i, r))
				}
				rest = rest[k:]
				if c > uint64(width) || c > uint64(nnz-pos) {
					return fail(fmt.Errorf("partition: partition %d row %d: %d nonzeros exceed width %d or the %d declared", i, r, c, width, nnz))
				}
				prev := -1
				row := px.bitsArena[pos : pos+int(c)]
				for j := range row {
					gap, k := binary.Uvarint(rest)
					if k <= 0 {
						return fail(fmt.Errorf("partition: partition %d row %d: bad offset", i, r))
					}
					rest = rest[k:]
					if gap >= uint64(width) || prev+1+int(gap) >= width {
						return fail(fmt.Errorf("partition: partition %d row %d: offset outside width %d", i, r, width))
					}
					prev += 1 + int(gap)
					row[j] = int32(prev)
				}
				pos += len(row)
				rp[r+1] = int32(pos - start)
			}
			b.rowPtr = rp
			b.bits = px.bitsArena[start:pos:pos]
			b.stride = denseStride(rows, width, pos-start)
			denseTotal += rows * b.stride
		}
		px.Parts = append(px.Parts, p)
	}
	if pos != nnz {
		return fail(fmt.Errorf("partition: %d nonzeros decoded, header declares %d", pos, nnz))
	}
	px.denseArena = slab.Uint64sZeroed(denseTotal)
	denseOff := 0
	for _, p := range px.Parts {
		for _, b := range p.Blocks {
			if b.stride == 0 {
				continue
			}
			b.denseWords = px.denseArena[denseOff : denseOff+rows*b.stride]
			denseOff += rows * b.stride
			for r := 0; r < rows; r++ {
				base := r * b.stride
				for _, o := range b.RowBits(r) {
					b.denseWords[base+int(o)>>6] |= uint64(1) << (uint32(o) & 63)
				}
			}
		}
	}
	return px, rest, nil
}
