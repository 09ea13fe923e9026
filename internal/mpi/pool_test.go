package mpi

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// pooled copies v into a pooled buffer: the payload the ownership tests
// hand to Send. Release with PutBytes.
func pooled(v ...byte) []byte {
	b := GetBytes(len(v))
	copy(b, v)
	return b
}

func TestGetBytesLengthAndClasses(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 1023, 1024, 1025, 1 << 20} {
		b := GetBytes(n)
		if len(b) != n {
			t.Fatalf("GetBytes(%d) has len %d", n, len(b))
		}
		PutBytes(b)
	}
	// Oversized requests bypass the pool but must still work.
	big := GetBytes(1<<maxPoolClass + 1)
	if len(big) != 1<<maxPoolClass+1 {
		t.Fatal("oversized GetBytes wrong length")
	}
	PutBytes(big) // dropped, not pooled; must not panic
	// Foreign slices with non-class capacities are silently dropped.
	PutBytes(make([]byte, 100))
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
	err := runWorld(NewWorld(ranks), func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < (ranks-1)*rounds; i++ {
				d, src, _, _ := c.Recv(context.Background(), AnySource, 7)
				for k, x := range d {
					if want := byte(src*37 + k); x != want {
						t.Errorf("message from %d byte %d: got %v want %v", src, k, x, want)
						break
					}
				}
				PutBytes(d) // receiver owns the buffer; release it here
			}
			return
		}
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		for i := 0; i < rounds; i++ {
			b := GetBytes(1 + rng.Intn(512))
			for k := range b {
				b[k] = byte(c.Rank()*37 + k)
			}
			c.Send(0, 7, b)
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
	wire := 8 * len(payload)

	byteWorld := NewWorld(2)
	if err := runWorld(byteWorld, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, make([]byte, wire))
		} else {
			c.Recv(context.Background(), 0, 3)
		}
	}); err != nil {
		t.Fatal(err)
	}

	refWorld := NewWorld(2)
	if err := runWorld(refWorld, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendRef(1, 3, payload, wire)
			return
		}
		// Poll rather than meet rank 0: a rendezvous would add messages
		// to the counts compared below.
		ref, _, _, ok := c.TryRecvRef(0, 3)
		for ; !ok; ref, _, _, ok = c.TryRecvRef(0, 3) {
			runtime.Gosched()
		}
		got := ref.([]float64)
		for i := range payload {
			if got[i] != payload[i] {
				t.Errorf("ref payload slot %d: %v != %v", i, got[i], payload[i])
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

// A byte message received through TryRecvRef comes back as its []byte
// payload, so a tag can mix both transports.
func TestTryRecvRefReturnsBytesForByteMessages(t *testing.T) {
	err := runWorld(NewWorld(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, []byte{42})
		}
		rendezvous(c)
		if c.Rank() == 0 {
			return
		}
		ref, _, _, _ := c.TryRecvRef(0, 9)
		b, ok := ref.([]byte)
		if !ok || len(b) != 1 || b[0] != 42 {
			t.Errorf("TryRecvRef of a byte message returned %v", ref)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
