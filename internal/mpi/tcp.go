package mpi

// TCP transport: one process per rank, a full mesh of connections between
// them, and the frame protocol from frame.go on every link.
//
// Bootstrap: the rank-0 process listens (AcceptTCP) and each worker dials
// it (JoinTCP), announcing its own listen address in a join handshake.
// Rank 0 assigns ranks in arrival order and replies with the rank, the
// cluster size, and the full peer address table. Workers then complete
// the mesh deterministically — rank i dials ranks 1..i-1 and accepts
// dial-ins from ranks i+1..n-1, with a peer handshake exchanging rank ids
// on each link — so every pair of processes shares exactly one
// connection whose single reader preserves FIFO delivery, the ordering
// guarantee the pipeline's result-drain pass relies on.
//
// Ownership over the wire: a successful send copies the payload into the
// frame buffer, after which the transport is the payload's last local
// owner and releases pooled buffers (the same "ownership passes on send"
// contract as the in-process backend). On the receiving side raw
// payloads and codec-decoded references arrive in pooled buffers that the
// receiver releases, so PoolCounters stays balanced per process.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handshake constants. The magic and version are checked on every link
// so a stray connection fails fast instead of corrupting a run.
const (
	hsMagic           = 0x504d4732 // "PMG2"
	hsVersion         = 1
	hsJoin       byte = 1
	hsWelcome    byte = 2
	hsPeer       byte = 3
	hsPeerOK     byte = 4
	maxHandshake      = 1 << 20
)

var errTransportClosed = errors.New("mpi: transport closed")

// pendItem is one decoded, fully-owned wire event parked for a world that
// does not exist locally yet (SPMD skew between processes).
type pendItem struct {
	kind  byte
	to    int
	msg   message
	win   int
	slot  int
	val   float64
	seq   uint64
	req   uint64
	rank  int
	cause string
}

type tcpPeer struct {
	conn net.Conn
	br   *bufio.Reader

	wmu    sync.Mutex
	wbuf   []byte // frame image scratch, reused per send
	encBuf []byte // codec encoding scratch, reused per ref send
}

// tcpNode is this process's endpoint: the peer links plus the epoch
// registry that pairs incoming frames with local worlds.
type tcpNode struct {
	rank, n int
	peers   []*tcpPeer // index = rank; nil at our own rank
	wg      sync.WaitGroup
	closed  atomic.Bool

	mu      sync.Mutex
	worlds  map[uint64]*World
	pending map[uint64][]pendItem

	// Membership view: deadRank[r] holds the death cause once rank r is
	// declared dead (nil while live) and deaths is the chronological
	// record.
	memMu    sync.Mutex
	deadRank []error
	deaths   []RankDeath

	// Heartbeat cadence (nanoseconds, read atomically so setHeartbeat can
	// adjust a running node), the sender goroutine's stop signal, and the
	// kick setHeartbeat uses to apply a new interval without waiting out
	// the old timer.
	hbInterval atomic.Int64
	hbTimeout  atomic.Int64
	hbStop     chan struct{}
	hbKick     chan struct{}

	getMu   sync.Mutex
	getReqs map[uint64]chan []float64
	reqSeq  atomic.Uint64

	// Clock-alignment state: nowFn is the monotonic clock the ping/pong
	// exchange reads on both sides (a tracer's Now when one is attached,
	// process-uptime nanoseconds otherwise); pings holds the in-flight
	// ping nonces awaiting a pong.
	nowFn   atomic.Pointer[func() int64]
	pingMu  sync.Mutex
	pings   map[uint64]chan int64
	pingSeq atomic.Uint64

	// Telemetry snapshots shipped by peers (rank 0 only in practice),
	// decoded and stored in arrival order until Cluster.Telemetry drains
	// them.
	telemMu sync.Mutex
	telem   []TelemetryItem
}

// processStart anchors the default clock the ping exchange reads when no
// tracer is attached; monotonic by time.Since's contract.
var processStart = time.Now()

// now reads the node's alignment clock.
func (n *tcpNode) now() int64 {
	if f := n.nowFn.Load(); f != nil {
		return (*f)()
	}
	return int64(time.Since(processStart))
}

func newTCPNode(rank, n int) *tcpNode {
	node := &tcpNode{
		rank:     rank,
		n:        n,
		peers:    make([]*tcpPeer, n),
		worlds:   make(map[uint64]*World),
		pending:  make(map[uint64][]pendItem),
		getReqs:  make(map[uint64]chan []float64),
		deadRank: make([]error, n),
		hbStop:   make(chan struct{}),
		hbKick:   make(chan struct{}, 1),
	}
	node.hbInterval.Store(int64(defaultHeartbeatInterval))
	node.hbTimeout.Store(int64(defaultHeartbeatTimeout))
	return node
}

func (n *tcpNode) attach(rank int, conn net.Conn, br *bufio.Reader) {
	n.peers[rank] = &tcpPeer{conn: conn, br: br}
}

func (n *tcpNode) startReaders() {
	for r, p := range n.peers {
		if p == nil {
			continue
		}
		n.wg.Add(1)
		go n.reader(r, p)
	}
	n.startHeartbeats()
}

// reader drains one peer link for the node's lifetime. A read error or
// deadline expiry declares that one peer dead — membership shrinks, the
// other links keep running — rather than tearing the whole node down;
// quorum rules inside rankDied decide when a death is fatal. Each read is
// armed with the heartbeat timeout as its deadline, so a SIGKILLed or
// wedged peer is detected within one timeout even on an idle link.
func (n *tcpNode) reader(peer int, p *tcpPeer) {
	defer n.wg.Done()
	var scratch []byte
	for {
		if to := time.Duration(n.hbTimeout.Load()); to > 0 {
			_ = p.conn.SetReadDeadline(time.Now().Add(to))
		} else {
			_ = p.conn.SetReadDeadline(time.Time{})
		}
		f, s, err := readFrame(p.br, scratch)
		scratch = s
		if err != nil {
			if !n.closed.Load() {
				n.rankDied(peer, fmt.Errorf("mpi: link to rank %d failed: %w", peer, err))
			}
			return
		}
		if err := n.dispatch(f); err != nil {
			n.rankDied(peer, fmt.Errorf("mpi: protocol error from rank %d: %w", peer, err))
			return
		}
	}
}

// dispatch converts a decoded frame (whose payload views the reader's
// scratch) into a fully-owned event and routes it.
func (n *tcpNode) dispatch(f frame) error {
	switch f.kind {
	case frameMsg:
		if int(f.to) != n.rank {
			return fmt.Errorf("frame for rank %d delivered to rank %d", f.to, n.rank)
		}
		m := message{from: int(f.from), tag: int(f.tag)}
		if f.codec == codecNone {
			if len(f.payload) > 0 {
				m.data = GetBytes(len(f.payload))
				copy(m.data, f.payload)
			}
		} else {
			ref, err := decodeRef(f.codec, f.payload)
			if err != nil {
				return err
			}
			m.ref = ref
		}
		n.deliver(f.epoch, pendItem{kind: frameMsg, to: int(f.to), msg: m})
	case frameWinGetReply:
		n.getMu.Lock()
		ch := n.getReqs[f.req]
		delete(n.getReqs, f.req)
		n.getMu.Unlock()
		if ch != nil {
			ch <- f.vals
		}
	case framePing:
		// Echo our clock back to the sender immediately: the reply runs on
		// this reader goroutine, so the pong's remote-read happens as close
		// to the ping's arrival as the runtime allows.
		if int(f.rank) >= len(n.peers) || n.peers[f.rank] == nil {
			return fmt.Errorf("ping from unknown rank %d", f.rank)
		}
		_, _ = n.sendCtrl(int(f.rank), frame{kind: framePong, seq: f.seq, req: uint64(n.now())})
	case framePong:
		n.pingMu.Lock()
		ch := n.pings[f.seq]
		delete(n.pings, f.seq)
		n.pingMu.Unlock()
		if ch != nil {
			ch <- int64(f.req)
		}
	case frameTelemetry:
		ref, err := decodeRef(f.codec, f.payload)
		if err != nil {
			return err
		}
		n.telemMu.Lock()
		n.telem = append(n.telem, TelemetryItem{Rank: int(f.rank), Payload: ref})
		n.telemMu.Unlock()
	case frameHeartbeat:
		// Keepalive: its arrival already refreshed this link's read
		// deadline; nothing to route.
	case frameRankDead:
		if int(f.rank) == n.rank {
			// A peer believes we are dead (one-way partition). Our own
			// links decide our view; ignore the notice.
			return nil
		}
		n.rankDied(int(f.rank), fmt.Errorf("mpi: reported dead by a peer: %s", f.cause))
	case frameWorldClose, frameBarrierEnter, frameBarrierRelease, frameWinPut, frameWinGet:
		n.deliver(f.epoch, pendItem{
			kind: f.kind, win: int(f.win), slot: int(f.slot), val: f.val,
			seq: f.seq, req: f.req, rank: int(f.rank), cause: f.cause,
		})
	default:
		return fmt.Errorf("unroutable frame kind %d", f.kind)
	}
	return nil
}

// deliver hands the event to its world, or parks it until the matching
// NewWorld call happens in this process.
func (n *tcpNode) deliver(epoch uint64, it pendItem) {
	n.mu.Lock()
	w := n.worlds[epoch]
	if w == nil && !n.closed.Load() {
		n.pending[epoch] = append(n.pending[epoch], it)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	if w == nil {
		discardItem(it)
		return
	}
	n.apply(w, it)
}

func (n *tcpNode) apply(w *World, it pendItem) {
	switch it.kind {
	case frameMsg:
		w.deliverRemote(it.to, it.msg)
	case frameWorldClose:
		w.closeWith(remoteCause(it.rank, it.cause), false)
	case frameBarrierEnter:
		w.cb.enter(it.seq)
	case frameBarrierRelease:
		w.cb.release(it.seq)
	case frameWinPut:
		w.applyWinPut(it)
	case frameWinGet:
		w.applyWinGet(it)
	}
}

func discardItem(it pendItem) {
	if it.kind == frameMsg {
		releasePayload(&it.msg)
	}
}

// register pairs a freshly minted world with its epoch and replays any
// frames that arrived ahead of it, in arrival order.
func (n *tcpNode) register(w *World) {
	n.mu.Lock()
	n.worlds[w.epoch] = w
	items := n.pending[w.epoch]
	delete(n.pending, w.epoch)
	dead := n.closed.Load()
	n.mu.Unlock()
	// Ranks that died before this world was minted are planned around,
	// not failures: the world completes over the surviving live set.
	n.memMu.Lock()
	for r, cause := range n.deadRank {
		if cause != nil {
			w.seedDead(r, cause)
		}
	}
	n.memMu.Unlock()
	for _, it := range items {
		n.apply(w, it)
	}
	if dead {
		w.closeWith(errTransportClosed, false)
	}
}

// remoteCause reconstructs a peer's teardown cause. The rank survives the
// wire so *RankError attribution works across processes; the error chain
// does not, so errors.Is against the original sentinel only holds in the
// process where the failure happened.
func remoteCause(rank int, text string) error {
	if text == "" {
		text = "peer closed world"
	}
	if rank >= 0 {
		return &RankError{Rank: rank, Err: errors.New(text)}
	}
	return errors.New(text)
}

// sendMessage ships a point-to-point message to the process hosting rank
// `to`, serializing reference payloads through the codec registry. On
// success the transport is the payload's last local owner and releases
// pooled buffers; on error ownership stays with the caller, matching the
// in-process contract. Returns the real frame size in bytes.
func (n *tcpNode) sendMessage(w *World, to int, m message) (int, error) {
	if n.closed.Load() || w.closed.Load() {
		return 0, worldOrTransportErr(w)
	}
	if de := n.deadErr(to); de != nil {
		return 0, de
	}
	p := n.peers[to]
	p.wmu.Lock()
	var codec CodecID
	payload := m.data
	if m.ref != nil {
		e := codecForRef(m.ref)
		if e == nil {
			p.wmu.Unlock()
			return 0, fmt.Errorf("mpi: no wire codec registered for payload type %T", m.ref)
		}
		p.encBuf = e.enc(m.ref, p.encBuf[:0])
		payload = p.encBuf
		codec = e.id
	}
	p.wbuf = appendFrame(p.wbuf[:0], frame{
		kind: frameMsg, epoch: w.epoch,
		from: int32(m.from), to: int32(to), tag: int32(m.tag),
		codec: codec, payload: payload,
	})
	wire := len(p.wbuf)
	_, err := p.conn.Write(p.wbuf)
	p.wmu.Unlock()
	if err != nil {
		n.rankDied(to, fmt.Errorf("mpi: write to rank %d failed: %w", to, err))
		if de := n.deadErr(to); de != nil {
			return 0, de
		}
		return 0, worldOrTransportErr(w)
	}
	releasePayload(&m)
	return wire, nil
}

func worldOrTransportErr(w *World) error {
	if err := w.Err(); err != nil {
		return err
	}
	return &closedError{cause: errTransportClosed}
}

// sendCtrl ships one control frame to the process hosting rank `to`.
// Sends to dead ranks fail fast with a *RankDeadError; a write error
// declares the peer dead.
func (n *tcpNode) sendCtrl(to int, f frame) (int, error) {
	if n.closed.Load() {
		return 0, errTransportClosed
	}
	if de := n.deadErr(to); de != nil {
		return 0, de
	}
	p := n.peers[to]
	p.wmu.Lock()
	p.wbuf = appendFrame(p.wbuf[:0], f)
	wire := len(p.wbuf)
	_, err := p.conn.Write(p.wbuf)
	p.wmu.Unlock()
	if err != nil {
		n.rankDied(to, fmt.Errorf("mpi: write to rank %d failed: %w", to, err))
		if de := n.deadErr(to); de != nil {
			return wire, de
		}
		return wire, err
	}
	return wire, nil
}

// broadcastCtrl ships one control frame to every live peer process. Link
// failures mid-broadcast shrink membership inside sendCtrl; the loop
// keeps going so surviving peers still hear the news.
func (n *tcpNode) broadcastCtrl(f frame) {
	for r, p := range n.peers {
		if p == nil || !n.alive(r) {
			continue
		}
		_, _ = n.sendCtrl(r, f)
	}
}

// winGet asks rank 0's process for a window snapshot and blocks for the
// reply. Returns nil when the world or transport is torn down mid-wait —
// pollers treat that as "no data" and notice the teardown via Err. The
// second result is the request's wire size for the stats counters.
func (n *tcpNode) winGet(w *World, win int) ([]float64, int) {
	if n.closed.Load() {
		return nil, 0
	}
	req := n.reqSeq.Add(1)
	ch := make(chan []float64, 1)
	n.getMu.Lock()
	n.getReqs[req] = ch
	n.getMu.Unlock()
	wire, err := n.sendCtrl(0, frame{
		kind: frameWinGet, epoch: w.epoch, win: int32(win), req: req, rank: int32(n.rank),
	})
	if err != nil {
		n.getMu.Lock()
		delete(n.getReqs, req)
		n.getMu.Unlock()
		return nil, wire
	}
	select {
	case v, ok := <-ch:
		if !ok {
			return nil, wire
		}
		return v, wire
	case <-w.closedCh:
		n.getMu.Lock()
		delete(n.getReqs, req)
		n.getMu.Unlock()
		return nil, wire
	}
}

// teardown fails the node once: connections close, open worlds close with
// the cause, parked frames release their payloads, and outstanding window
// gets unblock. Reader goroutines exit on their connection's error.
func (n *tcpNode) teardown(cause error) {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	if cause == nil {
		cause = errTransportClosed
	}
	close(n.hbStop)
	for _, p := range n.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	n.mu.Lock()
	worlds := make([]*World, 0, len(n.worlds))
	for _, w := range n.worlds {
		worlds = append(worlds, w)
	}
	pending := n.pending
	n.pending = make(map[uint64][]pendItem)
	n.mu.Unlock()
	for _, w := range worlds {
		w.closeWith(cause, false)
	}
	for _, items := range pending {
		for _, it := range items {
			discardItem(it)
		}
	}
	n.getMu.Lock()
	reqs := n.getReqs
	n.getReqs = make(map[uint64]chan []float64)
	n.getMu.Unlock()
	for _, ch := range reqs {
		close(ch)
	}
	n.pingMu.Lock()
	pings := n.pings
	n.pings = nil
	n.pingMu.Unlock()
	for _, ch := range pings {
		close(ch)
	}
}

// Handshake plumbing: fixed header (magic, version, kind, body length)
// then a kind-specific body, all little-endian.

func writeHS(conn net.Conn, kind byte, body []byte) error {
	buf := make([]byte, 0, 11+len(body))
	buf = appendU32(buf, hsMagic)
	buf = binary.LittleEndian.AppendUint16(buf, hsVersion)
	buf = append(buf, kind)
	buf = appendU32(buf, uint32(len(body)))
	buf = append(buf, body...)
	_, err := conn.Write(buf)
	return err
}

func readHS(br *bufio.Reader, wantKind byte) ([]byte, error) {
	var hdr [11]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if magic := binary.LittleEndian.Uint32(hdr[:]); magic != hsMagic {
		return nil, fmt.Errorf("mpi: bad handshake magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != hsVersion {
		return nil, fmt.Errorf("mpi: handshake version %d, want %d", v, hsVersion)
	}
	if hdr[6] != wantKind {
		return nil, fmt.Errorf("mpi: handshake kind %d, want %d", hdr[6], wantKind)
	}
	bl := binary.LittleEndian.Uint32(hdr[7:])
	if bl > maxHandshake {
		return nil, fmt.Errorf("mpi: handshake body %d exceeds cap %d", bl, maxHandshake)
	}
	body := make([]byte, bl)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// AcceptTCP waits on ln for n-1 workers to join, assigns ranks in arrival
// order, ships each the peer address table, and returns rank 0's cluster
// handle once all links are up. The listener is consumed: AcceptTCP
// closes it on return. ctx bounds the whole bootstrap.
func AcceptTCP(ctx context.Context, ln net.Listener, n int) (*Cluster, error) {
	defer ln.Close()
	if n < 1 {
		n = 1
	}
	node := newTCPNode(0, n)
	cl := &Cluster{n: n, tcp: node}
	if n == 1 {
		return cl, nil
	}
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	addrs := make([]string, n)
	addrs[0] = ln.Addr().String()
	fail := func(err error) (*Cluster, error) {
		node.teardown(err)
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		return nil, err
	}
	for r := 1; r < n; r++ {
		conn, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("mpi: accept: %w", err))
		}
		br := bufio.NewReaderSize(conn, 1<<16)
		body, err := readHS(br, hsJoin)
		if err != nil {
			conn.Close()
			return fail(fmt.Errorf("mpi: join handshake: %w", err))
		}
		addrs[r] = string(body)
		node.attach(r, conn, br)
	}
	var table []byte
	table = appendU32(table, uint32(n))
	for _, a := range addrs {
		table = binary.LittleEndian.AppendUint16(table, uint16(len(a)))
		table = append(table, a...)
	}
	for r := 1; r < n; r++ {
		body := appendI32(nil, int32(r))
		body = append(body, table...)
		if err := writeHS(node.peers[r].conn, hsWelcome, body); err != nil {
			return fail(fmt.Errorf("mpi: welcome to rank %d: %w", r, err))
		}
	}
	node.startReaders()
	return cl, nil
}

// JoinTCP dials the rank-0 process at rootAddr, receives this process's
// rank assignment and the peer table, and completes the full mesh (dial
// lower ranks, accept higher ones) before returning the worker's cluster
// handle. ctx bounds the whole bootstrap.
func JoinTCP(ctx context.Context, rootAddr string) (*Cluster, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", rootAddr)
	if err != nil {
		return nil, fmt.Errorf("mpi: dial root %s: %w", rootAddr, err)
	}
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		conn.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpi: worker listen: %w", err)
	}
	stop := context.AfterFunc(ctx, func() { ln.Close(); conn.Close() })
	defer stop()
	defer ln.Close()
	fail := func(err error) (*Cluster, error) {
		conn.Close()
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		return nil, err
	}
	if err := writeHS(conn, hsJoin, []byte(ln.Addr().String())); err != nil {
		return fail(fmt.Errorf("mpi: join: %w", err))
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	body, err := readHS(br, hsWelcome)
	if err != nil {
		return fail(fmt.Errorf("mpi: welcome: %w", err))
	}
	cur := frameCursor{b: body}
	myRank32, err := cur.i32()
	if err != nil {
		return fail(err)
	}
	size32, err := cur.u32()
	if err != nil {
		return fail(err)
	}
	rank, size := int(myRank32), int(size32)
	if size < 2 || rank < 1 || rank >= size {
		return fail(fmt.Errorf("mpi: welcome assigns rank %d of %d", rank, size))
	}
	addrs := make([]string, size)
	for r := range addrs {
		al, err := cur.u16()
		if err != nil {
			return fail(err)
		}
		if cur.remain() < int(al) {
			return fail(fmt.Errorf("mpi: welcome table truncated at rank %d", r))
		}
		addrs[r] = string(cur.b[cur.off : cur.off+int(al)])
		cur.off += int(al)
	}
	node := newTCPNode(rank, size)
	node.attach(0, conn, br)
	cleanup := func(err error) (*Cluster, error) {
		node.teardown(err)
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		return nil, err
	}
	// Dial lower ranks first, then accept higher ones. Rank k's dials only
	// need ranks below k to have reached their accept phase, which holds
	// inductively, so the sequential order cannot deadlock.
	for r := 1; r < rank; r++ {
		pc, err := d.DialContext(ctx, "tcp", addrs[r])
		if err != nil {
			return cleanup(fmt.Errorf("mpi: dial rank %d: %w", r, err))
		}
		if err := writeHS(pc, hsPeer, appendI32(nil, int32(rank))); err != nil {
			pc.Close()
			return cleanup(fmt.Errorf("mpi: peer hello to rank %d: %w", r, err))
		}
		pbr := bufio.NewReaderSize(pc, 1<<16)
		ok, err := readHS(pbr, hsPeerOK)
		if err != nil {
			pc.Close()
			return cleanup(fmt.Errorf("mpi: peer ack from rank %d: %w", r, err))
		}
		if len(ok) < 4 || int(int32(binary.LittleEndian.Uint32(ok))) != r {
			pc.Close()
			return cleanup(fmt.Errorf("mpi: rank %d answered for someone else", r))
		}
		node.attach(r, pc, pbr)
	}
	for i := 0; i < size-1-rank; i++ {
		pc, err := ln.Accept()
		if err != nil {
			return cleanup(fmt.Errorf("mpi: peer accept: %w", err))
		}
		pbr := bufio.NewReaderSize(pc, 1<<16)
		hello, err := readHS(pbr, hsPeer)
		if err != nil {
			pc.Close()
			return cleanup(fmt.Errorf("mpi: peer hello: %w", err))
		}
		if len(hello) < 4 {
			pc.Close()
			return cleanup(errors.New("mpi: short peer hello"))
		}
		pr := int(int32(binary.LittleEndian.Uint32(hello)))
		if pr <= rank || pr >= size || node.peers[pr] != nil {
			pc.Close()
			return cleanup(fmt.Errorf("mpi: unexpected peer rank %d", pr))
		}
		if err := writeHS(pc, hsPeerOK, appendI32(nil, int32(rank))); err != nil {
			pc.Close()
			return cleanup(fmt.Errorf("mpi: peer ack to rank %d: %w", pr, err))
		}
		node.attach(pr, pc, pbr)
	}
	node.startReaders()
	return &Cluster{n: size, rank: rank, tcp: node}, nil
}

// LoopbackClusters bootstraps an n-process-shaped TCP cluster entirely
// inside this process: n single-rank nodes connected over the loopback
// interface. Each returned handle acts as one process of an SPMD run —
// tests and benchmarks drive them from n goroutines to exercise the real
// wire path without spawning workers. Callers Close every handle.
func LoopbackClusters(ctx context.Context, n int) ([]*Cluster, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	clusters := make([]*Cluster, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		clusters[0], errs[0] = AcceptTCP(ctx, ln, n)
	}()
	addr := ln.Addr().String()
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clusters[i], errs[i] = JoinTCP(ctx, addr)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, cl := range clusters {
				if cl != nil {
					cl.Close()
				}
			}
			return nil, err
		}
	}
	return clusters, nil
}
