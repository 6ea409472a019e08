package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
)

// The state and result payloads a remote run ships, in the coordinator →
// executor direction (setup shares, factors, columns) and back (deltas, partial
// errors). Payloads are opaque to the transport: these codecs define their
// only interpretation, and every decoder validates against the run's known
// shapes so a corrupt or mismatched peer errors instead of computing
// garbage.

// wireSetup is the header of a StateSetup (or StateAdopt) blob: the
// decomposition parameters an executor needs and the home machine whose
// share follows. The share itself is the home's partitions of the three
// modes in the partition wire form, already laid out — the executor
// decodes them in place and never sees the tensor.
type wireSetup struct {
	Machines  int
	Home      int
	Rank      int
	GroupBits int
	NoCache   bool
	// Dims are the tensor's I, J, K: the row counts of the three modes'
	// unfoldings and of the factor matrices.
	Dims [3]int
}

// setupHeaderLen is the wireSetup header: eight little-endian u32 fields
// — machines, home, rank, group bits, no-cache flag, I, J, K.
const setupHeaderLen = 32

// encodeSetups returns one StateSetup blob per machine: blob m carries
// the partitions pi with pi mod machines == m of all three modes and
// nothing else, so the blobs together ship each partition once.
func encodeSetups(px [3]*partition.Partitioned, opt Options, machines int) [][]byte {
	noCache := 0
	if opt.NoCache {
		noCache = 1
	}
	homes := make([][]byte, machines)
	for m := range homes {
		var out []byte
		for _, v := range []int{machines, m, opt.Rank, opt.GroupBits, noCache, px[0].NumRows, px[1].NumRows, px[2].NumRows} {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
		for _, p := range px {
			out = p.AppendBinary(out, m, machines)
		}
		homes[m] = out
	}
	return homes
}

// decodeSetup parses one setup blob into its header and the home's
// partitions of the three modes, placed by the header's home and machines,
// checking every mode's shape against the header's dims.
func decodeSetup(payload []byte) (wireSetup, [3]*partition.Partitioned, error) {
	var px [3]*partition.Partitioned
	if len(payload) < setupHeaderLen {
		return wireSetup{}, px, fmt.Errorf("core: setup payload truncated: %d bytes", len(payload))
	}
	ws := wireSetup{
		Machines:  int(binary.LittleEndian.Uint32(payload[0:])),
		Home:      int(binary.LittleEndian.Uint32(payload[4:])),
		Rank:      int(binary.LittleEndian.Uint32(payload[8:])),
		GroupBits: int(binary.LittleEndian.Uint32(payload[12:])),
		NoCache:   binary.LittleEndian.Uint32(payload[16:]) != 0,
	}
	for i := range ws.Dims {
		ws.Dims[i] = int(binary.LittleEndian.Uint32(payload[20+4*i:]))
	}
	if ws.Machines < 1 || ws.Home >= ws.Machines || ws.Rank < 1 || ws.Rank > boolmat.MaxRank || ws.GroupBits < 1 {
		return ws, px, fmt.Errorf("core: setup parameters out of range: machines=%d home=%d rank=%d groupbits=%d",
			ws.Machines, ws.Home, ws.Rank, ws.GroupBits)
	}
	for _, d := range ws.Dims {
		if d < 1 || d > math.MaxInt32 {
			return ws, px, fmt.Errorf("core: setup dims %v out of range", ws.Dims)
		}
	}
	fail := func(err error) (wireSetup, [3]*partition.Partitioned, error) {
		for _, p := range px {
			if p != nil {
				p.Release()
			}
		}
		return ws, [3]*partition.Partitioned{}, err
	}
	rest := payload[setupHeaderLen:]
	for mode := range px {
		p, r, err := partition.Decode(rest, ws.Home, ws.Machines)
		if err != nil {
			return fail(fmt.Errorf("core: decode setup mode %d: %w", mode+1, err))
		}
		px[mode], rest = p, r
		cols := 1
		for i, d := range ws.Dims {
			if i != mode {
				cols *= d
			}
		}
		if p.NumRows != ws.Dims[mode] || p.NumCols != cols {
			return fail(fmt.Errorf("core: setup mode %d is %dx%d, dims are %v", mode+1, p.NumRows, p.NumCols, ws.Dims))
		}
	}
	if len(rest) != 0 {
		return fail(fmt.Errorf("core: %d trailing bytes after setup", len(rest)))
	}
	return ws, px, nil
}

// encodeFactors snapshots A, B, C back to back in the boolmat binary
// layout (StateFactors).
func encodeFactors(a, b, c *boolmat.FactorMatrix) []byte {
	out := a.AppendBinary(nil)
	out = b.AppendBinary(out)
	return c.AppendBinary(out)
}

func decodeFactors(payload []byte) (a, b, c *boolmat.FactorMatrix, err error) {
	rest := payload
	for i, dst := range []**boolmat.FactorMatrix{&a, &b, &c} {
		var m *boolmat.FactorMatrix
		m, rest, err = boolmat.DecodeBinaryFactor(rest)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: decode factor %d: %w", i, err)
		}
		*dst = m
	}
	if len(rest) != 0 {
		return nil, nil, nil, fmt.Errorf("core: %d trailing bytes after factor snapshot", len(rest))
	}
	return a, b, c, nil
}

// columnHeaderLen is the StateColumn header: u8 mode, u8 pad, u16 column,
// u32 row count; the packed column bits follow.
const columnHeaderLen = 8

// encodeColumn snapshots column col of factor matrix m (the factor
// updated in mode modeIdx) as a packed bit vector.
func encodeColumn(modeIdx, col int, m *boolmat.FactorMatrix) []byte {
	rows := m.Rows()
	out := make([]byte, columnHeaderLen+(rows+7)/8)
	out[0] = byte(modeIdx)
	binary.LittleEndian.PutUint16(out[2:], uint16(col))
	binary.LittleEndian.PutUint32(out[4:], uint32(rows))
	for r := 0; r < rows; r++ {
		if m.Get(r, col) {
			out[columnHeaderLen+r/8] |= 1 << uint(r%8)
		}
	}
	return out
}

func decodeColumn(payload []byte) (modeIdx, col, rows int, bits []byte, err error) {
	if len(payload) < columnHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("core: column payload truncated: %d bytes", len(payload))
	}
	modeIdx = int(payload[0])
	col = int(binary.LittleEndian.Uint16(payload[2:]))
	rows = int(binary.LittleEndian.Uint32(payload[4:]))
	bits = payload[columnHeaderLen:]
	if want := (rows + 7) / 8; len(bits) != want {
		return 0, 0, 0, nil, fmt.Errorf("core: column payload has %d bit bytes, want %d for %d rows", len(bits), want, rows)
	}
	if modeIdx < 0 || modeIdx > 2 {
		return 0, 0, 0, nil, fmt.Errorf("core: column payload mode %d outside [0,2]", modeIdx)
	}
	return modeIdx, col, rows, bits, nil
}

// encodeDeltas packs one eval task's per-row error differences
// (KindEval's result payload).
func encodeDeltas(deltas []int64) []byte {
	out := make([]byte, 4+8*len(deltas))
	binary.LittleEndian.PutUint32(out, uint32(len(deltas)))
	for i, d := range deltas {
		binary.LittleEndian.PutUint64(out[4+8*i:], uint64(d))
	}
	return out
}

// decodeDeltas unpacks an eval payload, insisting on exactly rows entries
// — the driver knows the factor's row count and a mismatched executor
// must fail loudly, not silently mis-commit columns.
func decodeDeltas(payload []byte, rows int) ([]int64, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("core: deltas payload truncated: %d bytes", len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if n != rows {
		return nil, fmt.Errorf("core: deltas payload has %d rows, want %d", n, rows)
	}
	if len(payload) != 4+8*n {
		return nil, fmt.Errorf("core: deltas payload is %d bytes, want %d", len(payload), 4+8*n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(payload[4+8*i:]))
	}
	return out, nil
}

// encodePartial packs one total-error task's partial sum (KindTotalError's
// result payload).
func encodePartial(e int64) []byte {
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], uint64(e))
	return out[:]
}

func decodePartial(payload []byte) (int64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("core: partial-error payload is %d bytes, want 8", len(payload))
	}
	return int64(binary.LittleEndian.Uint64(payload)), nil
}
