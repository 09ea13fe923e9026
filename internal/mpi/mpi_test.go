package mpi

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSendRecvPair(t *testing.T) {
	err := Run(2, func(c *Comm) {
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
	err := Run(4, func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				data, src, _, _ := c.Recv(context.Background(), AnySource, AnyTag)
				if len(data) != 1 || int(data[0]) != src {
					panic("payload mismatch")
				}
				seen[src] = true
			}
			if len(seen) != 3 {
				panic("missing senders")
			}
		} else {
			c.Send(0, c.Rank(), []byte{byte(c.Rank())})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) {
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
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			if _, _, _, ok := c.TryRecv(AnySource, AnyTag); ok {
				panic("TryRecv must not find anything yet")
			}
			c.Barrier()
			c.Barrier()
			data, _, _, ok := c.TryRecv(1, 5)
			if !ok || string(data) != "x" {
				panic("TryRecv must find the queued message")
			}
		} else {
			c.Barrier()
			c.Send(0, 5, []byte("x"))
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var before, after atomic.Int32
	err := Run(8, func(c *Comm) {
		before.Add(1)
		c.Barrier()
		if before.Load() != 8 {
			panic("barrier released early")
		}
		after.Add(1)
		c.Barrier()
		if after.Load() != 8 {
			panic("second barrier released early")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowPutGet(t *testing.T) {
	w := NewWorld(4)
	win := w.NewWindow(4)
	err := w.Run(func(c *Comm) {
		win.Put(c.Rank(), float64(c.Rank())*10)
		c.Barrier()
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
	err := w.Run(func(c *Comm) {
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
	err := Run(3, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("rank panic must surface as an error")
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		got := DecodeFloats(EncodeFloats(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			// NaN compares unequal; compare bit patterns via re-encode.
			a, b := EncodeFloats(v[i:i+1]), EncodeFloats(got[i:i+1])
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestManyRanksPingPong(t *testing.T) {
	// Ring communication across 32 ranks.
	err := Run(32, func(c *Comm) {
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
		err := Run(2, func(c *Comm) {
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
	w.Run(func(c *Comm) {
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
