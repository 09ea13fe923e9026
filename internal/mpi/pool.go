package mpi

// Pooled buffer management for the message fabric. Payload buffers are the
// dominant allocation of the in-process runtime: every task and every
// result used to round-trip through a freshly allocated byte slice. The
// pools below hand out power-of-two size classes backed by sync.Pool, with
// explicit release; a released buffer may be handed to a later caller, so
// the usual ownership rule applies — release only after the last reader is
// done with the message (for point-to-point transfers, ownership passes to
// the receiver).
//
// The slice headers themselves are recycled through a secondary pool
// (entryPool) so that a Get/encode/Put cycle performs zero heap
// allocations in steady state — the property BenchmarkPooledEncode
// asserts.

import (
	"sync"
	"sync/atomic"
)

// maxPoolClass bounds the pooled size classes: buffers above 2^maxPoolClass
// bytes (16 MiB) bypass the pool and fall back to the garbage collector.
const maxPoolClass = 24

// poolGets/poolPuts count pool-eligible checkouts and releases. In a
// leak-free program every pool-eligible Get is eventually matched by a Put
// once the buffer's last reader is done — including the teardown paths,
// where World.Close releases payloads still queued in mailboxes. Tests
// assert the balance around cancellation scenarios via PoolCounters.
var poolGets, poolPuts atomic.Int64

// PoolCounters reports the cumulative pool-eligible Get and Put totals.
// Intended for leak checks in tests: a scenario that checks buffers out
// and runs to quiescence (including error paths) must leave gets-puts
// unchanged.
func PoolCounters() (gets, puts int64) {
	return poolGets.Load(), poolPuts.Load()
}

// entry wraps a buffer so the pools traffic in pointers; storing slices
// directly in a sync.Pool would allocate a header on every Put.
type entry struct {
	b []byte
	f []float64
}

var entryPool = sync.Pool{New: func() any { return new(entry) }}

var (
	bytePools  [maxPoolClass + 1]sync.Pool
	floatPools [maxPoolClass + 1]sync.Pool
)

// classFor returns the smallest size class c with 1<<c >= n.
func classFor(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// GetBytes returns a length-n byte slice from the pool. The contents are
// unspecified; callers overwrite before use. Release with PutBytes.
func GetBytes(n int) []byte {
	c := classFor(n)
	if c > maxPoolClass {
		return make([]byte, n)
	}
	poolGets.Add(1)
	if e, _ := bytePools[c].Get().(*entry); e != nil {
		b := e.b
		e.b = nil
		entryPool.Put(e)
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// PutBytes releases a buffer obtained from GetBytes back to the pool.
// Buffers whose capacity is not a pooled size class (for example slices
// allocated elsewhere) are silently dropped, so PutBytes is safe to call
// on any message payload. The caller must not touch b afterwards.
func PutBytes(b []byte) {
	c := classFor(cap(b))
	if c > maxPoolClass || cap(b) != 1<<c || cap(b) == 0 {
		return
	}
	poolPuts.Add(1)
	e := entryPool.Get().(*entry)
	e.b = b[:cap(b)]
	bytePools[c].Put(e)
}

// GetFloats returns a length-n float64 slice from the pool; release with
// PutFloats.
func GetFloats(n int) []float64 {
	c := classFor(n)
	if c > maxPoolClass {
		return make([]float64, n)
	}
	poolGets.Add(1)
	if e, _ := floatPools[c].Get().(*entry); e != nil {
		f := e.f
		e.f = nil
		entryPool.Put(e)
		return f[:n]
	}
	return make([]float64, n, 1<<c)
}

// PutFloats releases a slice obtained from GetFloats back to the pool.
func PutFloats(v []float64) {
	c := classFor(cap(v))
	if c > maxPoolClass || cap(v) != 1<<c || cap(v) == 0 {
		return
	}
	poolPuts.Add(1)
	e := entryPool.Get().(*entry)
	e.f = v[:cap(v)]
	floatPools[c].Put(e)
}
