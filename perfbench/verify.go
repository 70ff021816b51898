package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"
)

// verifier holds, per object, the checksum of every version ever written
// and when its write was issued and acknowledged. Reads are checked
// against it: the bytes must be one committed (or in-flight) version, and
// not one that a write acknowledged before the read was sent has
// superseded.
type verifier struct {
	seed maphash.Seed

	mu   sync.RWMutex
	objs [][]version // per object, in issue order
}

// version is one write of an object. Times are nanoseconds on the run's
// clock, which starts before ingest; acked is -1 while the write is
// unacknowledged.
type version struct {
	sum    uint64
	issued int64
	acked  int64
}

func newVerifier(objects int) *verifier {
	return &verifier{seed: maphash.MakeSeed(), objs: make([][]version, objects)}
}

func (v *verifier) sum(data []byte) uint64 { return maphash.Bytes(v.seed, data) }

// ingested records an object's initial version, written before any read.
func (v *verifier) ingested(obj int, data []byte) {
	v.mu.Lock()
	v.objs[obj] = append(v.objs[obj], version{sum: v.sum(data)})
	v.mu.Unlock()
}

// begin records a write about to be issued at time now and returns its
// index for ack.
func (v *verifier) begin(obj int, sum uint64, now int64) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.objs[obj] = append(v.objs[obj], version{sum: sum, issued: now, acked: -1})
	return len(v.objs[obj]) - 1
}

// ack marks write idx of obj acknowledged at time now. A failed write is
// never acknowledged; its bytes stay acceptable because it may have
// committed.
func (v *verifier) ack(obj, idx int, now int64) {
	v.mu.Lock()
	v.objs[obj][idx].acked = now
	v.mu.Unlock()
}

// check verifies the bytes a read of obj sent at time sent returned.
func (v *verifier) check(obj int, data []byte, sent int64) error {
	sum := v.sum(data)
	v.mu.RLock()
	defer v.mu.RUnlock()
	vs := v.objs[obj]
	x := -1
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].sum == sum {
			x = i
			break
		}
	}
	if x < 0 {
		return fmt.Errorf("read of object %d returned %d bytes matching none of its %d versions", obj, len(data), len(vs))
	}
	// Version y supersedes x for this read when x's write was acknowledged
	// before y's was issued, and y's was acknowledged before the read.
	if vs[x].acked == -1 {
		return nil
	}
	for y := x + 1; y < len(vs); y++ {
		if vs[y].acked >= 0 && vs[y].acked < sent && vs[x].acked < vs[y].issued {
			return fmt.Errorf("stale read of object %d: returned version %d, but version %d was acknowledged before the read was sent", obj, x, y)
		}
	}
	return nil
}

// latest returns the checksum of obj's newest acknowledged version.
func (v *verifier) latest(obj int) uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	vs := v.objs[obj]
	for i := len(vs) - 1; i > 0; i-- {
		if vs[i].acked >= 0 {
			return vs[i].sum
		}
	}
	return vs[0].sum
}

// fillPayload fills buf (len a multiple of 8) with a splitmix64 stream
// keyed by key, so every object version has distinct bytes.
func fillPayload(buf []byte, key uint64) {
	x := key
	for i := 0; i+8 <= len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(buf[i:], z^(z>>31))
	}
}
