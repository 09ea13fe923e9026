package mpi

import (
	"context"
	"math/rand"
	"testing"
)

// pooledFloats is EncodeFloats' layout in a pooled buffer: the payload the
// ownership tests hand to Send. Release with PutBytes.
func pooledFloats(v []float64) []byte {
	b := GetBytes(8 * len(v))
	copy(b, EncodeFloats(v))
	return b
}

func TestGetBytesLengthAndClasses(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 1023, 1024, 1025, 1 << 20} {
		b := GetBytes(n)
		if len(b) != n {
			t.Fatalf("GetBytes(%d) has len %d", n, len(b))
		}
		PutBytes(b)
		f := GetFloats(n)
		if len(f) != n {
			t.Fatalf("GetFloats(%d) has len %d", n, len(f))
		}
		PutFloats(f)
	}
	// Oversized requests bypass the pool but must still work.
	big := GetBytes(1<<maxPoolClass + 1)
	if len(big) != 1<<maxPoolClass+1 {
		t.Fatal("oversized GetBytes wrong length")
	}
	PutBytes(big) // dropped, not pooled; must not panic
	// Foreign slices with non-class capacities are silently dropped.
	PutBytes(make([]byte, 100))
	PutFloats(make([]float64, 100))
}

// A released buffer must never be aliased by a message still in flight:
// ownership passes to the receiver, and only the receiver releases. Every
// sender fills its pooled buffer with a rank-specific pattern; the
// receiver verifies the pattern before releasing. Run under -race this
// also proves the pool introduces no unsynchronized reuse: a buffer that
// were recycled while still queued would be written by the next sender
// while the receiver reads it, which the pattern check and the race
// detector would both catch.
func TestReleasedBufferNotAliasedByLiveMessage(t *testing.T) {
	const ranks = 8
	const rounds = 200
	err := Run(ranks, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < (ranks-1)*rounds; i++ {
				d, src, _, _ := c.Recv(context.Background(), AnySource, 7)
				for k, x := range DecodeFloats(d) {
					if want := float64(src*1000 + k); x != want {
						t.Errorf("message from %d slot %d: got %v want %v", src, k, x, want)
						break
					}
				}
				PutBytes(d) // receiver owns the buffer; release it here
			}
			return
		}
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		for i := 0; i < rounds; i++ {
			n := 1 + rng.Intn(64)
			vals := GetFloats(n)
			for k := range vals {
				vals[k] = float64(c.Rank()*1000 + k)
			}
			c.Send(0, 7, pooledFloats(vals))
			PutFloats(vals) // the floats were copied into the message; safe
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// SendRef must account exactly the bytes the serialized payload would
// occupy, keeping Messages and Bytes identical to the byte path.
func TestSendRefAccountingMatchesByteSend(t *testing.T) {
	payload := []float64{1, 2, 3, 4.5}
	wire := len(EncodeFloats(payload))

	byteWorld := NewWorld(2)
	if err := byteWorld.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, EncodeFloats(payload))
		} else {
			c.Recv(context.Background(), 0, 3)
		}
	}); err != nil {
		t.Fatal(err)
	}

	refWorld := NewWorld(2)
	if err := refWorld.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendRef(1, 3, payload, wire)
		} else {
			ref, _, _, _ := c.RecvRef(context.Background(), 0, 3)
			got := ref.([]float64)
			for i := range payload {
				if got[i] != payload[i] {
					t.Errorf("ref payload slot %d: %v != %v", i, got[i], payload[i])
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	bm, bb := byteWorld.Stats().Messages.Load(), byteWorld.Stats().Bytes.Load()
	rm, rb := refWorld.Stats().Messages.Load(), refWorld.Stats().Bytes.Load()
	if bm != rm || bb != rb {
		t.Errorf("accounting differs: byte path %d msgs / %d bytes, ref path %d msgs / %d bytes",
			bm, bb, rm, rb)
	}
}

// A byte message received through RecvRef comes back as its []byte
// payload, so a tag can mix both transports.
func TestRecvRefReturnsBytesForByteMessages(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, []byte{42})
			return
		}
		ref, _, _, _ := c.RecvRef(context.Background(), 0, 9)
		b, ok := ref.([]byte)
		if !ok || len(b) != 1 || b[0] != 42 {
			t.Errorf("RecvRef of a byte message returned %v", ref)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
