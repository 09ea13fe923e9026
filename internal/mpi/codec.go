package mpi

// Typed payload codecs for wire transports. The in-process backend moves
// reference payloads (SendRef) without serialization; a wire transport
// must encode them. Packages that ship typed references across ranks
// register a codec per type here: the registry maps a stable wire id to
// an encode/decode pair, and the TCP transport consults it on both sides
// of a connection, so TryRecvRef returns the same concrete types over
// either backend. Ids must agree in every process of a run, so they are
// fixed constants assigned in blocks: mpi reserves 0–15 for itself,
// loadbal uses 16–31, core 32–47.

import (
	"fmt"
	"reflect"
	"sync"
)

// CodecID identifies a registered reference-payload codec on the wire.
// Id 0 is reserved for plain byte payloads (Send), which need no codec.
type CodecID uint16

// Built-in codecs. Id 2 was the []float64 payload codec; the number stays
// reserved so no later codec reuses it.
const (
	codecNone CodecID = 0
	// CodecBytes carries a []byte reference payload.
	CodecBytes CodecID = 1
)

type codecEntry struct {
	id  CodecID
	typ reflect.Type
	enc func(ref any, dst []byte) []byte
	dec func(b []byte) (any, error)
}

var codecReg struct {
	mu     sync.RWMutex
	byID   map[CodecID]*codecEntry
	byType map[reflect.Type]*codecEntry
}

// RegisterCodec registers the wire codec for the reference-payload type of
// prototype (only its dynamic type is inspected). enc appends the encoded
// form of ref to dst and returns the extended slice; dec parses one
// encoded payload back into the typed reference, validating lengths — a
// wire transport feeds it attacker-shaped bytes, so it must error rather
// than panic on malformed input. Registration normally happens in an init
// function so every process of a run agrees on the id space; duplicate
// ids or types panic, naming the collision.
func RegisterCodec(id CodecID, prototype any, enc func(ref any, dst []byte) []byte, dec func(b []byte) (any, error)) {
	if id == codecNone {
		panic("mpi: codec id 0 is reserved for plain byte payloads")
	}
	typ := reflect.TypeOf(prototype)
	codecReg.mu.Lock()
	defer codecReg.mu.Unlock()
	if codecReg.byID == nil {
		codecReg.byID = make(map[CodecID]*codecEntry)
		codecReg.byType = make(map[reflect.Type]*codecEntry)
	}
	if prev, ok := codecReg.byID[id]; ok {
		panic(fmt.Sprintf("mpi: codec id %d already registered for %v", id, prev.typ))
	}
	if prev, ok := codecReg.byType[typ]; ok {
		panic(fmt.Sprintf("mpi: codec for type %v already registered as id %d", typ, prev.id))
	}
	e := &codecEntry{id: id, typ: typ, enc: enc, dec: dec}
	codecReg.byID[id] = e
	codecReg.byType[typ] = e
}

// codecForRef resolves the codec registered for ref's dynamic type, or nil
// when the type has none (such a reference cannot leave the process).
func codecForRef(ref any) *codecEntry {
	typ := reflect.TypeOf(ref)
	codecReg.mu.RLock()
	e := codecReg.byType[typ]
	codecReg.mu.RUnlock()
	return e
}

// decodeRef decodes a wire payload through the codec registered under id.
func decodeRef(id CodecID, payload []byte) (any, error) {
	codecReg.mu.RLock()
	e := codecReg.byID[id]
	codecReg.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("mpi: no codec registered for wire id %d", id)
	}
	return e.dec(payload)
}

func encBytesRef(ref any, dst []byte) []byte {
	return append(dst, ref.([]byte)...)
}

// decBytesRef copies the payload into a pooled buffer: the receiver owns
// it and releases with PutBytes once done (the teardown path does so via
// releasePayload for messages dropped by a closing world).
func decBytesRef(b []byte) (any, error) {
	out := GetBytes(len(b))
	copy(out, b)
	return out, nil
}

func init() {
	RegisterCodec(CodecBytes, []byte(nil), encBytesRef, decBytesRef)
}
