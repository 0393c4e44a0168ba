package mem

import (
	"encoding/binary"
	"testing"
)

// deepStore is the reference model for copy-on-write checkpoints: a sparse
// byte store whose Checkpoint and Restore deep-copy every frame, exactly as
// the store did before frames were shared. It is slow and obviously
// correct, so the fuzz target below trusts it as the oracle.
type deepStore struct {
	frames map[uint64][]byte
}

func newDeepStore() *deepStore { return &deepStore{frames: make(map[uint64][]byte)} }

func (d *deepStore) byteAt(addr uint64) byte {
	if f := d.frames[addr/frameBytes]; f != nil {
		return f[addr%frameBytes]
	}
	return 0
}

func (d *deepStore) write(addr uint64, p []byte) {
	for i, b := range p {
		a := addr + uint64(i)
		f := d.frames[a/frameBytes]
		if f == nil {
			f = make([]byte, frameBytes)
			d.frames[a/frameBytes] = f
		}
		f[a%frameBytes] = b
	}
}

func (d *deepStore) read(addr uint64, n uint64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = d.byteAt(addr + uint64(i))
	}
	return p
}

func cloneFrames(frames map[uint64][]byte) map[uint64][]byte {
	c := make(map[uint64][]byte, len(frames))
	for idx, f := range frames {
		c[idx] = append([]byte(nil), f...)
	}
	return c
}

func (d *deepStore) checkpoint() map[uint64][]byte { return cloneFrames(d.frames) }

func (d *deepStore) restore(c map[uint64][]byte) { d.frames = cloneFrames(c) }

// fuzzOpBytes is the size of one encoded operation:
//
//	[0] op     selects the operation (mod fuzzOps)
//	[1] side   which of the two stores it runs on (bit 0)
//	[2] frame  destination frame, mod 160: over twice the frame-cache size,
//	           so frames f and f+64 alias one cache slot
//	[3] off    destination offset: bit 7 set puts it in the last 16 bytes
//	           of the frame (fixed-width and slice writes straddle), else
//	           the low 7 bits times 97 spread it across the frame
//	[4] frame  and [5] off: the source address of Move, encoded the same way;
//	           for Checkpoint and Restore, [4] picks one of four slots
//	[6] n      length: 37·n bytes for Write/Fill/Move (up to ~9 KiB, so a
//	           write can span a frame boundary), n elements for slice writes
//	[7] v      value seed
const fuzzOpBytes = 8

const (
	opSetByte = iota
	opWrite
	opFill
	opMove
	opWriteU16
	opWriteU32
	opWriteU64
	opWriteU16Slice
	opWriteU32Slice
	opWriteU64Slice
	opCheckpoint
	opRestore
	fuzzOps
)

func fuzzAddr(frame, off byte) uint64 {
	o := uint64(off&0x7f) * 97
	if off&0x80 != 0 {
		o = frameBytes - 16 + uint64(off&0x0f)
	}
	return uint64(frame%160)*frameBytes + o
}

// pattern returns n bytes derived from seed v.
func pattern(n uint64, v byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = v + byte(i)*31
	}
	return p
}

// FuzzCheckpointMatchesDeepCopy runs a fuzzer-picked program of writes
// (through every write accessor), checkpoints and restores — into the
// same store or the other one — on two copy-on-write stores and on two
// deep-copy models side by side. After every operation every byte any
// operation has written, on either store, must read the same from each
// store as from its model: a write leaking into a shared frame shows up
// as a difference on the other store or in a later restore of the
// checkpoint. The committed corpus under testdata/fuzz covers each
// accessor, frame-straddling writes, frame-cache aliasing, a restore into
// the other store followed by writes on both sides, and repeated restores
// of one checkpoint.
func FuzzCheckpointMatchesDeepCopy(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		type ckpt struct {
			real  Checkpoint
			model map[uint64][]byte
		}
		stores := [2]*Store{NewStore(), NewStore()}
		models := [2]*deepStore{newDeepStore(), newDeepStore()}
		var slots [4]*ckpt
		// touched holds the 64-byte blocks any operation has written.
		touched := make(map[uint64]bool)
		mark := func(addr, n uint64) {
			for b := addr / 64; b <= (addr+n-1)/64; b++ {
				touched[b] = true
			}
		}

		for step := 0; len(prog) >= fuzzOpBytes && step < 128; step, prog = step+1, prog[fuzzOpBytes:] {
			op := prog[0] % fuzzOps
			side := prog[1] & 1
			s, m := stores[side], models[side]
			dst := fuzzAddr(prog[2], prog[3])
			n := uint64(prog[6])
			v := prog[7]
			var wrote []byte
			switch op {
			case opSetByte:
				s.SetByte(dst, v)
				wrote = []byte{v}
			case opWrite:
				wrote = pattern(37*n+1, v)
				s.Write(dst, wrote)
			case opFill:
				s.Fill(dst, 37*n+1, v)
				wrote = make([]byte, 37*n+1)
				for i := range wrote {
					wrote[i] = v
				}
			case opMove:
				src := fuzzAddr(prog[4], prog[5])
				s.Move(dst, src, 37*n+1)
				wrote = m.read(src, 37*n+1)
			case opWriteU16:
				wrote = binary.LittleEndian.AppendUint16(nil, uint16(v)*0x0101+1)
				s.WriteU16(dst, uint16(v)*0x0101+1)
			case opWriteU32:
				wrote = binary.LittleEndian.AppendUint32(nil, uint32(v)*0x01010101+1)
				s.WriteU32(dst, uint32(v)*0x01010101+1)
			case opWriteU64:
				wrote = binary.LittleEndian.AppendUint64(nil, uint64(v)*0x0101010101010101+1)
				s.WriteU64(dst, uint64(v)*0x0101010101010101+1)
			case opWriteU16Slice:
				vals := make([]uint16, n+1)
				for i := range vals {
					vals[i] = uint16(v) + uint16(i)*257
					wrote = binary.LittleEndian.AppendUint16(wrote, vals[i])
				}
				s.WriteU16Slice(dst, vals)
			case opWriteU32Slice:
				vals := make([]uint32, n+1)
				for i := range vals {
					vals[i] = uint32(v) + uint32(i)*65537
					wrote = binary.LittleEndian.AppendUint32(wrote, vals[i])
				}
				s.WriteU32Slice(dst, vals)
			case opWriteU64Slice:
				vals := make([]uint64, n+1)
				for i := range vals {
					vals[i] = uint64(v) + uint64(i)*0x100000001
					wrote = binary.LittleEndian.AppendUint64(wrote, vals[i])
				}
				s.WriteU64Slice(dst, vals)
			case opCheckpoint:
				slots[prog[4]%4] = &ckpt{real: s.Checkpoint(), model: m.checkpoint()}
			case opRestore:
				if c := slots[prog[4]%4]; c != nil {
					s.Restore(c.real)
					m.restore(c.model)
				}
			}
			if wrote != nil {
				m.write(dst, wrote)
				mark(dst, uint64(len(wrote)))
			}

			var got, zero [64]byte
			for b := range touched {
				for i := range stores {
					stores[i].Read(b*64, got[:])
					want := zero[:]
					if f := models[i].frames[b*64/frameBytes]; f != nil {
						want = f[b*64%frameBytes:][:64]
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("step %d (op %d on store %d): store %d byte %#x = %#x, deep copy has %#x",
								step, op, side, i, b*64+uint64(j), got[j], want[j])
						}
					}
				}
			}
		}
	})
}
