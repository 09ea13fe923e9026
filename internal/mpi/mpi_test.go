package mpi

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// runWorld runs fn on every rank of w through RunCtx; a rank's panic is
// its only way to fail.
func runWorld(w *World, fn func(c *Comm)) error {
	return w.RunCtx(context.Background(), func(c *Comm) error {
		fn(c)
		return nil
	})
}

// rendezvousTag is a tag no test sends on otherwise.
const rendezvousTag = 1 << 20

// rendezvous returns on a rank once every live rank has called it: each
// worker reports to rank 0 and waits for its answer, which rank 0 sends
// once it has every report. Links are FIFO, so whatever a rank sent to
// rank 0 before it reported, and whatever rank 0 sent a worker before it
// answered, is queued when the rendezvous ends.
func rendezvous(c *Comm) error {
	ctx := context.Background()
	if c.Rank() != 0 {
		if err := c.Send(0, rendezvousTag, nil); err != nil {
			return err
		}
		b, _, _, err := c.Recv(ctx, 0, rendezvousTag)
		PutBytes(b)
		return err
	}
	for r := 1; r < c.Size(); r++ {
		if c.Alive(r) {
			b, _, _, err := c.Recv(ctx, r, rendezvousTag)
			PutBytes(b)
			if err != nil {
				return err
			}
		}
	}
	for r := 1; r < c.Size(); r++ {
		if c.Alive(r) {
			if err := c.Send(r, rendezvousTag, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestSendRecvPair(t *testing.T) {
	err := runWorld(NewWorld(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			data, src, tag, err := c.Recv(context.Background(), 0, 7)
			if err != nil || string(data) != "hello" || src != 0 || tag != 7 {
				panic("bad message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcards(t *testing.T) {
	err := runWorld(NewWorld(4), func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				data, src, _, _ := c.Recv(context.Background(), AnySource, 3)
				if len(data) != 1 || int(data[0]) != src {
					panic("payload mismatch")
				}
				seen[src] = true
			}
			if len(seen) != 3 {
				panic("missing senders")
			}
		} else {
			c.Send(0, 3, []byte{byte(c.Rank())})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := runWorld(NewWorld(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("one"))
			c.Send(1, 2, []byte("two"))
		} else {
			// Receive out of order by tag.
			d2, _, _, _ := c.Recv(context.Background(), 0, 2)
			d1, _, _, _ := c.Recv(context.Background(), 0, 1)
			if string(d2) != "two" || string(d1) != "one" {
				panic("tag matching failed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	err := runWorld(NewWorld(2), func(c *Comm) {
		if c.Rank() == 0 {
			if _, _, _, ok := c.TryRecvRef(AnySource, 5); ok {
				panic("TryRecvRef must not find anything yet")
			}
			rendezvous(c)
			rendezvous(c)
			ref, _, _, ok := c.TryRecvRef(1, 5)
			if data, _ := ref.([]byte); !ok || string(data) != "x" {
				panic("TryRecvRef must find the queued message")
			}
		} else {
			rendezvous(c)
			c.Send(0, 5, []byte("x"))
			rendezvous(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowPutGet(t *testing.T) {
	w := NewWorld(4)
	win := w.NewWindow(4)
	err := runWorld(w, func(c *Comm) {
		win.Put(c.Rank(), float64(c.Rank())*10)
		rendezvous(c)
		vals := win.Get()
		for r, v := range vals {
			if v != float64(r)*10 {
				panic("window value mismatch")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2)
	err := runWorld(w, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
		} else {
			c.Recv(context.Background(), 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Messages.Load(); got != 1 {
		t.Errorf("messages = %d", got)
	}
	if got := w.Stats().Bytes.Load(); got != 100 {
		t.Errorf("bytes = %d", got)
	}
}

func TestPanicPropagates(t *testing.T) {
	err := runWorld(NewWorld(3), func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("rank panic must surface as an error")
	}
}

func TestManyRanksPingPong(t *testing.T) {
	// Ring communication across 32 ranks.
	err := runWorld(NewWorld(32), func(c *Comm) {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		c.Send(next, 0, []byte{byte(c.Rank())})
		data, src, _, _ := c.Recv(context.Background(), prev, 0)
		if int(data[0]) != prev || src != prev {
			panic("ring hop mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: the mailbox preserves per-sender FIFO order under a same-tag
// stream (the MPI ordering guarantee).
func TestMailboxFIFOProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		var bad atomic.Bool
		err := runWorld(NewWorld(2), func(c *Comm) {
			if c.Rank() == 0 {
				for i := 0; i < n; i++ {
					c.Send(1, 9, []byte{byte(i)})
				}
				return
			}
			for i := 0; i < n; i++ {
				d, _, _, _ := c.Recv(context.Background(), 0, 9)
				if int(d[0]) != i {
					bad.Store(true)
				}
			}
		})
		return err == nil && !bad.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the per-tag queue keeps working across head compaction.
func TestMsgQueueCompaction(t *testing.T) {
	q := &msgQueue{}
	for i := 0; i < 1000; i++ {
		q.push(message{from: i})
	}
	for i := 0; i < 1000; i++ {
		if q.empty() {
			t.Fatal("queue empty early")
		}
		m := q.removeAt(q.head)
		if m.from != i {
			t.Fatalf("pop %d returned %d", i, m.from)
		}
	}
	if !q.empty() {
		t.Fatal("queue must be empty")
	}
}

func BenchmarkSendRecv(b *testing.B) {
	w := NewWorld(2)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	runWorld(w, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, payload)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(context.Background(), 0, 0)
			}
		}
	})
}

func BenchmarkWindowPut(b *testing.B) {
	w := NewWorld(1)
	win := w.NewWindow(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win.Put(i%256, float64(i))
	}
}
