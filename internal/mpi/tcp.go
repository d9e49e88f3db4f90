package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TCP transport: each rank is its own process (on one machine or many),
// meshed pairwise over TCP streams. Frames are length-prefixed (codec.go)
// and delivered per source in send order, exactly like the in-process
// channels, so the two transports are interchangeable under the domain
// layer — and held bit-identical by the differential tests.
//
// Rendezvous is either a static host list (every rank knows everyone's
// listen address up front) or a small coordinator service: each rank
// registers its peer-listener address and receives the full table. The
// mesh is then established lower-rank-listens / higher-rank-dials with
// startup retries, one duplex connection per unordered pair.
//
// Progress is asynchronous by construction: a reader goroutine per
// connection drains frames into a per-source tag matcher, and a writer
// goroutine per connection drains an outgoing frame queue — so Isend
// returns after encoding and Irecv completion only needs a queue pop.
// This is what lets the staged halo exchange overlap communication with
// packing and local compute (Sec. 7.2).
//
// Failure semantics mirror World.Abort: a clean shutdown sends a bye
// frame, so an unexpected EOF or connection error (a killed rank) aborts
// the whole local world, unblocking every pending operation with the
// cause instead of deadlocking.

// Reserved tag spaces for transport-internal collectives, far above the
// application tags the domain layer uses.
const (
	sysTagBarrier = 1 << 24
	sysTagIar     = 1 << 25
)

// TCPConfig configures one rank's endpoint of a TCP world.
type TCPConfig struct {
	// Rank and Size identify this process in the world.
	Rank, Size int
	// Coordinator is the rendezvous service address: a ServeRendezvous
	// must be reachable there (the launcher runs it). Ignored when Hosts
	// is set.
	Coordinator string
	// Hosts is the static rendezvous alternative: the full host:port
	// peer-listener table, indexed by rank. Rank i binds the port of
	// Hosts[i]. No coordinator is contacted.
	Hosts []string
	// Listen is the peer-listener bind address (default ":0"). Other
	// ranks dial this rank at its host as seen by the coordinator and the
	// actual listen port.
	Listen string
	// DialTimeout bounds rendezvous and mesh establishment (default 10s).
	DialTimeout time.Duration
}

// TCPWorld is one process's endpoint of a multi-process world. Unlike the
// in-process World it holds exactly one rank; Comm returns its
// communicator. Counters are per process: Messages/Bytes count this
// rank's sent payloads (codec-exact), WireBytes the actual framed bytes
// handed to the socket (payload + 9-byte header per message).
type TCPWorld struct {
	rank, size int
	peers      []*tcpPeer
	match      []*matcher
	// sysMatch carries the transport-internal collective traffic (barrier,
	// iallreduce; tags >= sysTagBarrier) out-of-band, like the in-process
	// transport's slot/barrier machinery: collective frames interleave the
	// application stream on the socket, so they must not occupy the
	// strictly-ordered application queue a Recv head-checks.
	sysMatch []*matcher

	abort    chan struct{}
	failOnce sync.Once
	err      atomic.Pointer[abortError]
	closing  atomic.Bool
	wg       sync.WaitGroup

	comm     Comm
	commOnce sync.Once

	msgs  atomic.Int64
	bytes atomic.Int64
	wire  atomic.Int64
}

// abortError marks panics caused by transport failure; it satisfies error
// so domain's recover path surfaces the cause.
type abortError struct{ cause error }

func (e *abortError) Error() string { return fmt.Sprintf("mpi: tcp world aborted: %v", e.cause) }
func (e *abortError) Unwrap() error { return e.cause }

type tcpPeer struct {
	conn net.Conn
	out  chan []byte
}

// DialTCP establishes this rank's endpoint: rendezvous, pairwise mesh,
// then background reader/writer goroutines per connection. It blocks
// until the full mesh is up (which doubles as the initial barrier).
func DialTCP(cfg TCPConfig) (*TCPWorld, error) {
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("mpi: bad rank %d of %d", cfg.Rank, cfg.Size)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	deadline := time.Now().Add(cfg.DialTimeout)

	w := &TCPWorld{
		rank:     cfg.Rank,
		size:     cfg.Size,
		peers:    make([]*tcpPeer, cfg.Size),
		match:    make([]*matcher, cfg.Size),
		sysMatch: make([]*matcher, cfg.Size),
		abort:    make(chan struct{}),
	}
	for i := range w.match {
		w.match[i] = newMatcher()
		w.sysMatch[i] = &matcher{relaxed: true}
	}
	if cfg.Size == 1 {
		return w, nil
	}

	// Peer listener first: its address goes into the rendezvous table.
	bind := cfg.Listen
	if len(cfg.Hosts) > 0 {
		if len(cfg.Hosts) != cfg.Size {
			return nil, fmt.Errorf("mpi: %d hosts for %d ranks", len(cfg.Hosts), cfg.Size)
		}
		_, port, err := net.SplitHostPort(cfg.Hosts[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("mpi: host entry %q: %w", cfg.Hosts[cfg.Rank], err)
		}
		bind = ":" + port
	} else if bind == "" {
		bind = ":0"
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("mpi: peer listener: %w", err)
	}
	defer ln.Close()

	table := cfg.Hosts
	if table == nil {
		port := ln.Addr().(*net.TCPAddr).Port
		table, err = rendezvous(cfg, port, deadline)
		if err != nil {
			return nil, err
		}
	}

	// Mesh: dial every lower rank, accept every higher rank. The hello
	// frame identifies the dialer.
	type dialed struct {
		src  int
		conn net.Conn
		err  error
	}
	results := make(chan dialed, cfg.Size)
	for j := 0; j < cfg.Rank; j++ {
		go func(j int) {
			conn, err := dialRetry(table[j], deadline)
			if err == nil {
				err = writeFrame(conn, kindHello, cfg.Rank, nil)
			}
			results <- dialed{src: j, conn: conn, err: err}
		}(j)
	}
	accepts := cfg.Size - 1 - cfg.Rank
	go func() {
		for i := 0; i < accepts; i++ {
			if err := ln.(*net.TCPListener).SetDeadline(deadline); err != nil {
				results <- dialed{err: err}
				return
			}
			conn, err := ln.Accept()
			if err != nil {
				results <- dialed{err: fmt.Errorf("mpi: accepting peer: %w", err)}
				return
			}
			go func(conn net.Conn) {
				kind, src, payload, err := readFrame(conn)
				if err == nil && (kind != kindHello || len(payload) != 0 || src <= cfg.Rank || src >= cfg.Size) {
					err = fmt.Errorf("mpi: bad hello (kind 0x%02x, src %d)", kind, src)
				}
				if err != nil {
					conn.Close()
					results <- dialed{err: err}
					return
				}
				results <- dialed{src: src, conn: conn}
			}(conn)
		}
	}()
	for i := 0; i < cfg.Size-1; i++ {
		d := <-results
		if d.err == nil && w.peers[d.src] != nil {
			d.err = fmt.Errorf("mpi: duplicate connection from rank %d", d.src)
		}
		if d.err != nil {
			w.shutdownConns()
			return nil, d.err
		}
		w.peers[d.src] = &tcpPeer{conn: d.conn, out: make(chan []byte, 256)}
	}

	for src, p := range w.peers {
		if p == nil {
			continue
		}
		w.wg.Add(2)
		go w.readLoop(src, p)
		go w.writeLoop(p)
	}
	return w, nil
}

// Rank returns this process's rank.
func (w *TCPWorld) Rank() int { return w.rank }

// Size returns the world size.
func (w *TCPWorld) Size() int { return w.size }

// Messages returns the number of messages this rank has sent.
func (w *TCPWorld) Messages() int64 { return w.msgs.Load() }

// Bytes returns the codec-exact payload bytes this rank has sent.
func (w *TCPWorld) Bytes() int64 { return w.bytes.Load() }

// WireBytes returns the actual framed bytes handed to the sockets:
// Bytes() plus the 9-byte header per message (hello/bye frames excluded).
func (w *TCPWorld) WireBytes() int64 { return w.wire.Load() }

// Err returns the abort cause, or nil.
func (w *TCPWorld) Err() error {
	if e := w.err.Load(); e != nil {
		return e
	}
	return nil
}

// Comm returns this rank's communicator.
func (w *TCPWorld) Comm() *Comm {
	w.commOnce.Do(func() {
		w.comm = Comm{tcp: w, rank: w.rank}
	})
	return &w.comm
}

// Abort tears the world down, unblocking all pending operations here and
// (via the broken connections) on every peer.
func (w *TCPWorld) Abort() { w.fail(errors.New("aborted by application")) }

// fail records the first failure cause and tears the transport down.
func (w *TCPWorld) fail(cause error) {
	w.failOnce.Do(func() {
		w.err.Store(&abortError{cause: cause})
		close(w.abort)
		for i := range w.match {
			w.match[i].abortAll()
			w.sysMatch[i].abortAll()
		}
		w.shutdownConns()
	})
}

func (w *TCPWorld) shutdownConns() {
	for _, p := range w.peers {
		if p != nil && p.conn != nil {
			p.conn.Close()
		}
	}
}

// Close shuts the world down cleanly: a bye frame tells every peer no
// more frames follow, so their readers exit without aborting. Blocks
// (bounded) until the local goroutines drain. Returns the abort cause if
// the world failed instead.
func (w *TCPWorld) Close() error {
	if w.closing.Swap(true) {
		return w.Err()
	}
	if w.Err() == nil {
		for _, p := range w.peers {
			if p == nil {
				continue
			}
			bye := appendHeader(nil, 0, kindBye, 0)
			select {
			case p.out <- bye:
			case <-w.abort:
			}
			close(p.out)
		}
		done := make(chan struct{})
		go func() { w.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}
	w.shutdownConns()
	return w.Err()
}

// readLoop drains one peer's frames into the source's matcher.
func (w *TCPWorld) readLoop(src int, p *tcpPeer) {
	defer w.wg.Done()
	for {
		kind, tag, payload, err := readFrame(p.conn)
		if err != nil {
			if w.closing.Load() || w.Err() != nil {
				return
			}
			w.fail(fmt.Errorf("rank %d connection: %w", src, err))
			return
		}
		if kind == kindBye {
			w.match[src].closePeer()
			w.sysMatch[src].closePeer()
			return
		}
		v, err := decodePayload(kind, payload)
		if err != nil {
			w.fail(fmt.Errorf("frame from rank %d tag %d: %w", src, tag, err))
			return
		}
		w.matcherFor(src, tag).push(message{tag: tag, payload: v})
	}
}

// writeLoop drains the outgoing frame queue onto the socket.
func (w *TCPWorld) writeLoop(p *tcpPeer) {
	defer w.wg.Done()
	for frame := range p.out {
		if _, err := p.conn.Write(frame); err != nil {
			if w.closing.Load() || w.Err() != nil {
				return
			}
			w.fail(fmt.Errorf("write: %w", err))
			return
		}
	}
}

// send encodes and enqueues one message; the payload buffer is free for
// reuse on return. n is the codec-exact payload size (already computed by
// the caller for its own counters).
func (w *TCPWorld) send(dst, tag int, payload any, n int64) {
	w.msgs.Add(1)
	w.bytes.Add(n)
	w.wire.Add(n + frameHeaderSize)
	if dst == w.rank {
		w.matcherFor(dst, tag).push(message{tag: tag, payload: clonePayload(payload)})
		return
	}
	p := w.peers[dst]
	if p == nil {
		panic(fmt.Sprintf("mpi: send to unknown rank %d", dst))
	}
	frame := encodeFrame(make([]byte, 0, frameHeaderSize+int(n)), tag, payload)
	select {
	case p.out <- frame:
	case <-w.abort:
		panic(w.err.Load())
	}
}

// matcherFor routes a tag to the application or system matcher of src.
func (w *TCPWorld) matcherFor(src, tag int) *matcher {
	if tag >= sysTagBarrier {
		return w.sysMatch[src]
	}
	return w.match[src]
}

// post registers interest in (src, tag) with the matcher.
func (w *TCPWorld) post(src, tag int) *recvToken {
	tok, err := w.matcherFor(src, tag).post(tag)
	if err != nil {
		w.fail(fmt.Errorf("recv from rank %d: %w", src, err))
		panic(w.err.Load())
	}
	return tok
}

// collect blocks until a posted receive completes.
func (w *TCPWorld) collect(src int, tok *recvToken) any {
	if tok.received {
		return tok.got
	}
	select {
	case v := <-tok.ch:
		tok.received, tok.got = true, v
		return v
	case <-w.abort:
		panic(w.err.Load())
	}
}

func (w *TCPWorld) recv(src, tag int) any {
	return w.collect(src, w.post(src, tag))
}

// tcpBarrier is the central gather+release barrier (counted like any
// other messages, unlike the in-process shared-memory barrier).
func (c *Comm) tcpBarrier() {
	if c.tcp.size == 1 {
		return
	}
	if c.rank == 0 {
		for src := 1; src < c.tcp.size; src++ {
			c.Recv(src, sysTagBarrier)
		}
		for dst := 1; dst < c.tcp.size; dst++ {
			c.Send(dst, sysTagBarrier, []byte(nil))
		}
		return
	}
	c.Send(0, sysTagBarrier, []byte(nil))
	c.Recv(0, sysTagBarrier)
}

// tcpIallreduce is the non-blocking all-reduce over the wire: every rank
// ships its contribution to rank 0 immediately; a background goroutine on
// rank 0 sums in rank order 0..p-1 (bit-identical to Allreduce and to the
// in-process slot reduction) and ships the result back. Receives are
// posted eagerly so out-of-order Waits and interleaved application
// traffic match cleanly.
func (c *Comm) tcpIallreduce(seq int, values []float64) *Request {
	w := c.tcp
	tag := sysTagIar + seq
	if w.size == 1 {
		sum := append([]float64(nil), values...)
		return &Request{
			wait: func() []float64 { return sum },
			done: func() bool { return true },
		}
	}
	if c.rank != 0 {
		c.Send(0, tag, values)
		tok := w.post(0, tag)
		return &Request{
			wait: func() []float64 { return w.collect(0, tok).([]float64) },
			done: func() bool {
				if tok.received {
					return true
				}
				select {
				case v := <-tok.ch:
					tok.received, tok.got = true, v
					return true
				default:
					return false
				}
			},
		}
	}
	// Rank 0: post all contributions now, reduce and fan out off-thread.
	own := append([]float64(nil), values...)
	toks := make([]*recvToken, w.size)
	for src := 1; src < w.size; src++ {
		toks[src] = w.post(src, tag)
	}
	done := make(chan struct{})
	var sum []float64
	go func() {
		defer close(done)
		defer func() {
			// Transport aborts panic; the requester sees them at Wait.
			recover()
		}()
		acc := own
		for src := 1; src < w.size; src++ {
			v := w.collect(src, toks[src]).([]float64)
			for i := range acc {
				acc[i] += v[i]
			}
		}
		for dst := 1; dst < w.size; dst++ {
			c.Send(dst, tag, acc)
		}
		sum = acc
	}()
	return &Request{
		wait: func() []float64 {
			select {
			case <-done:
			case <-w.abort:
				panic(w.err.Load())
			}
			if sum == nil {
				panic(w.err.Load())
			}
			return sum
		},
		done: func() bool {
			select {
			case <-done:
				return sum != nil
			default:
				return false
			}
		},
	}
}

// matcher routes one source's arrived frames to receivers by tag. The
// per-source arrival order is the same contract the in-process channels
// give: a receive posted for the head message's tag takes it; a plain
// Recv whose tag does not match the head — with nobody else posted for
// the head — is the same protocol error the in-process transport panics
// on.
type matcher struct {
	mu      sync.Mutex
	fifo    []message
	waiting []*recvToken
	closed  bool
	aborted bool
	// relaxed switches to full (src, tag) matching with no head check:
	// used for the system matcher, whose senders (e.g. the rank-0
	// iallreduce collector goroutine) are concurrent with the main rank,
	// so arrival order carries no protocol meaning.
	relaxed bool
}

type recvToken struct {
	tag      int
	ch       chan any
	received bool
	got      any
}

func newMatcher() *matcher { return &matcher{} }

// push routes an arrived message: to the first waiting receiver for its
// tag, else onto the arrival queue.
func (m *matcher) push(msg message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aborted {
		return
	}
	for i, tok := range m.waiting {
		if tok.tag == msg.tag {
			m.waiting = append(m.waiting[:i], m.waiting[i+1:]...)
			tok.ch <- msg.payload
			return
		}
	}
	m.fifo = append(m.fifo, msg)
}

// post registers a receiver for tag. An already-arrived head message with
// the tag completes immediately; a head with a different tag (which, by
// construction, no current receiver wants) is a protocol error.
func (m *matcher) post(tag int) (*recvToken, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tok := &recvToken{tag: tag, ch: make(chan any, 1)}
	if m.relaxed {
		for i, msg := range m.fifo {
			if msg.tag == tag {
				m.fifo = append(m.fifo[:i], m.fifo[i+1:]...)
				tok.received, tok.got = true, msg.payload
				return tok, nil
			}
		}
	} else if len(m.fifo) > 0 {
		head := m.fifo[0]
		if head.tag != tag {
			return nil, fmt.Errorf("protocol error: expected tag %d, head of queue has tag %d", tag, head.tag)
		}
		m.fifo = m.fifo[1:]
		tok.received, tok.got = true, head.payload
		return tok, nil
	}
	if m.closed {
		return nil, errors.New("peer closed the connection")
	}
	if m.aborted {
		return nil, errors.New("world aborted")
	}
	m.waiting = append(m.waiting, tok)
	return tok, nil
}

// closePeer marks the source cleanly finished; receives already posted
// keep waiting (the world-level abort unblocks them if the peer really is
// gone), new posts with nothing queued fail.
func (m *matcher) closePeer() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

func (m *matcher) abortAll() {
	m.mu.Lock()
	m.aborted = true
	m.waiting = nil
	m.mu.Unlock()
}

// Frame IO.

func writeFrame(conn net.Conn, kind byte, tag int, payload []byte) error {
	frame := appendHeader(make([]byte, 0, frameHeaderSize+len(payload)), len(payload), kind, tag)
	frame = append(frame, payload...)
	_, err := conn.Write(frame)
	return err
}

func readFrame(conn net.Conn) (kind byte, tag int, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err = io.ReadFull(conn, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	kind = hdr[4]
	tag = int(binary.LittleEndian.Uint32(hdr[5:9]))
	if size > 1<<30 {
		return 0, 0, nil, fmt.Errorf("mpi: oversized frame (%d bytes)", size)
	}
	payload = make([]byte, size)
	if _, err = io.ReadFull(conn, payload); err != nil {
		return 0, 0, nil, err
	}
	return kind, tag, payload, nil
}

// Rendezvous.

// ServeRendezvous accepts size registrations on ln, then sends every
// registrant the full rank -> address table and closes. The launcher runs
// this next to the processes it spawns.
func ServeRendezvous(ln net.Listener, size int) error {
	conns := make([]net.Conn, size)
	addrs := make([]string, size)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for have := 0; have < size; have++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: rendezvous accept: %w", err)
		}
		kind, rank, payload, err := readFrame(conn)
		if err != nil || kind != kindHello {
			conn.Close()
			return fmt.Errorf("mpi: rendezvous registration: kind 0x%02x, %v", kind, err)
		}
		if rank < 0 || rank >= size || conns[rank] != nil {
			conn.Close()
			return fmt.Errorf("mpi: rendezvous: bad or duplicate rank %d", rank)
		}
		addr := string(payload)
		if strings.HasPrefix(addr, ":") {
			// A bare :port registration (what every rank sends): derive
			// the host from where the registration came from.
			host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
			if err != nil {
				conn.Close()
				return fmt.Errorf("mpi: rendezvous remote addr: %w", err)
			}
			addr = net.JoinHostPort(host, addr[1:])
		}
		conns[rank], addrs[rank] = conn, addr
	}
	var table []byte
	for _, a := range addrs {
		table = binary.LittleEndian.AppendUint32(table, uint32(len(a)))
		table = append(table, a...)
	}
	for rank, conn := range conns {
		if err := writeFrame(conn, kindHello, rank, table); err != nil {
			return fmt.Errorf("mpi: rendezvous reply to rank %d: %w", rank, err)
		}
	}
	return nil
}

// rendezvous registers with the coordinator and returns the address table.
func rendezvous(cfg TCPConfig, listenPort int, deadline time.Time) ([]string, error) {
	adv := fmt.Sprintf(":%d", listenPort)
	conn, err := dialRetry(cfg.Coordinator, deadline)
	if err != nil {
		return nil, fmt.Errorf("mpi: rendezvous with %s: %w", cfg.Coordinator, err)
	}
	defer conn.Close()
	if err := writeFrame(conn, kindHello, cfg.Rank, []byte(adv)); err != nil {
		return nil, fmt.Errorf("mpi: rendezvous register: %w", err)
	}
	conn.SetReadDeadline(deadline)
	kind, _, payload, err := readFrame(conn)
	if err != nil || kind != kindHello {
		return nil, fmt.Errorf("mpi: rendezvous table: kind 0x%02x, %v", kind, err)
	}
	table := make([]string, 0, cfg.Size)
	for off := 0; off < len(payload); {
		if off+4 > len(payload) {
			return nil, errors.New("mpi: truncated rendezvous table")
		}
		n := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if off+n > len(payload) {
			return nil, errors.New("mpi: truncated rendezvous table")
		}
		table = append(table, string(payload[off:off+n]))
		off += n
	}
	if len(table) != cfg.Size {
		return nil, fmt.Errorf("mpi: rendezvous table has %d entries, want %d", len(table), cfg.Size)
	}
	return table, nil
}

// dialRetry dials addr until it succeeds or the deadline passes (peers
// and the coordinator may not be listening yet during startup).
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		timeout := time.Until(deadline)
		if timeout <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline exceeded")
			}
			return nil, fmt.Errorf("mpi: dialing %s: %w", addr, lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
}
