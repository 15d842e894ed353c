// Package treenet carries combining-tree messages between redirector
// processes over TCP. It is the wide-area transport behind the real
// Layer-7/Layer-4 redirectors; the virtual-time harness uses internal/simnet
// instead.
//
// Each peer gets one persistent connection fed by a bounded send queue and a
// single writer goroutine: a Send never blocks the window loop and never
// spawns a goroutine, a broken connection is redialed with exponential
// backoff, and a slow or dead peer costs at most the queue's buffered
// messages. Delivery stays best effort, exactly like the paper's scheme
// assumes: a lost report only means the parent aggregates slightly staler
// data for one epoch.
package treenet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/combining"
	"repro/internal/topology"
)

const (
	// sendQueueDepth bounds in-flight messages per peer; the window loop
	// produces one report per epoch, so depth buys many epochs of outage.
	sendQueueDepth = 128
	dialTimeout    = 2 * time.Second
	writeTimeout   = 2 * time.Second
	// idleTimeout closes inbound connections with no traffic; peers redial
	// transparently.
	idleTimeout = 60 * time.Second
	// backoffBase/backoffMax bound the redial schedule of a peer writer.
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
	// maxFrameWidth bounds inbound principal vectors on a transport whose
	// receiver never declared its tree widths (SetWidth).
	maxFrameWidth = 1 << 16
)

// Spec describes one node's place in a combining tree of redirector
// processes, plus the transport addresses of its peers. Both the Layer-7
// and Layer-4 redirectors take a Spec to join a tree.
type Spec struct {
	NodeID   combining.NodeID
	Parent   combining.NodeID // -1 for the root
	Children []combining.NodeID
	Peers    map[combining.NodeID]string
	// ListenAddr is the tree transport bind address (default 127.0.0.1:0).
	ListenAddr string
	// Members lists every tree node id. When set (with Fanout), the
	// redirector can rebuild the topology locally after a peer failure; see
	// Reparenter.
	Members []combining.NodeID
	// Fanout is the tree fan-out Members was laid out with (default 2).
	Fanout int
	// FailureTimeout is how long a tree neighbor may stay silent before the
	// node re-parents around it (0 disables failure detection).
	FailureTimeout time.Duration
	// Topology, when set, supersedes Members/Fanout: the node takes its
	// placement (and its failure repairs) from the hierarchical plane
	// compiled from this spec instead of the flat BuildTree layout.
	Topology *topology.Spec
}

// Handler receives decoded tree messages. tree is the component-tree index
// the sender tagged the frame with (0 on a single flat tree). It is called
// from connection goroutines: implementations must synchronize access to
// the combining node or forest.
type Handler func(tree int, from combining.NodeID, msg interface{})

type envelope struct {
	From int    `json:"from"`
	Kind string `json:"kind"` // "report", "broadcast", or "rejoin"
	// Tree is the component-tree index sharing this transport (see
	// combining.Forest); 0 for a flat single-tree plane.
	Tree  int                 `json:"tree,omitempty"`
	Epoch int                 `json:"epoch"`
	Agg   combining.Aggregate `json:"agg"`
	// Delta replaces Agg when delta compression is enabled: the receiver
	// reconstructs the aggregate from its per-stream decoder state.
	Delta *combining.DeltaFrame `json:"delta,omitempty"`
	// Configuration piggyback (see combining.ConfigUpdate): reports carry
	// the acknowledged version, broadcasts the newest update.
	AckVersion uint64 `json:"ack_version,omitempty"`
	CfgVersion uint64 `json:"cfg_version,omitempty"`
	CfgGate    int    `json:"cfg_gate,omitempty"`
	CfgPayload []byte `json:"cfg_payload,omitempty"`
}

// peer is one neighbor's outbound state: an address, a bounded queue, and a
// writer goroutine that owns the connection.
type peer struct {
	id combining.NodeID
	ch chan envelope

	mu         sync.Mutex
	addr       string
	backoff    time.Duration
	nextDialAt time.Time
	everDialed bool
}

func (p *peer) address() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// Stats is a snapshot of the transport's health counters, exported through
// /metrics as the rsa_treenet_* series.
type Stats struct {
	// SendErrors counts messages dropped for any reason: unknown peer,
	// closed transport, full queue, failed dial or write.
	SendErrors int
	// QueueDrops counts the SendErrors caused by a full per-peer queue.
	QueueDrops int
	// Dials counts connections successfully established.
	Dials int
	// Reconnects counts successful dials beyond the first per peer — each
	// one is a connection that broke and was repaired.
	Reconnects int
	// PeersConnected is the current number of live outbound connections.
	PeersConnected int
	// DeadlineErrorsWrite counts SetWriteDeadline failures on outbound
	// connections; each one also disconnects the peer (a socket whose
	// deadline cannot be armed would otherwise write unbounded).
	DeadlineErrorsWrite int
	// DeadlineErrorsRead counts SetReadDeadline failures on inbound
	// connections; each one ends that read loop.
	DeadlineErrorsRead int
	// WriteTimeouts counts Encode failures classified as deadline expiry —
	// a live but stalled peer, distinguishable from outright peer death
	// (other write errors) in the failure-detector sense.
	WriteTimeouts int
	// Delta aggregates the delta-compression codec counters over every
	// per-(tree,peer) stream (zero when EnableDelta was never called).
	Delta combining.DeltaStats
}

// deltaKey identifies one directed delta stream: a component tree crossed
// with the far-end node.
type deltaKey struct {
	tree int
	node combining.NodeID
}

// Transport is one node's endpoint.
type Transport struct {
	self    combining.NodeID
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	peers  map[combining.NodeID]*peer
	closed bool
	stats  Stats

	// Delta compression state. Encoders compress outbound aggregates per
	// (tree, peer) stream; decoders rebuild inbound ones per (tree, from).
	// Guarded by deltaMu, never held together with mu.
	deltaMu     sync.Mutex
	deltaOn     bool
	deltaThresh float64
	deltaResync int
	encoders    map[deltaKey]*combining.DeltaEncoder
	decoders    map[deltaKey]*combining.DeltaDecoder
	width       func(tree int) int // inbound vector width per tree (SetWidth)

	stop chan struct{}
	wg   sync.WaitGroup
}

// Listen starts a transport for node self on addr (use "127.0.0.1:0" for an
// ephemeral port) and dispatches inbound messages to handler.
func Listen(self combining.NodeID, addr string, handler Handler) (*Transport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("treenet: listen %s: %w", addr, err)
	}
	t := &Transport{
		self:    self,
		ln:      ln,
		handler: handler,
		peers:   make(map[combining.NodeID]*peer),
		stop:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound address for peer configuration.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetPeer registers (or updates) the address of a tree neighbor. The peer's
// writer picks the new address up on its next (re)dial.
func (t *Transport) SetPeer(id combining.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[id]; ok {
		p.mu.Lock()
		if p.addr != addr {
			p.addr = addr
			// New address: dial eagerly, the old backoff no longer applies.
			p.nextDialAt = time.Time{}
			p.backoff = backoffBase
		}
		p.mu.Unlock()
		return
	}
	p := &peer{id: id, ch: make(chan envelope, sendQueueDepth), addr: addr, backoff: backoffBase}
	t.peers[id] = p
	if !t.closed {
		t.wg.Add(1)
		go t.writeLoop(p)
	}
}

// SendErrors reports how many sends were dropped so far.
func (t *Transport) SendErrors() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.SendErrors
}

// Stats returns a snapshot of the transport counters, including the delta
// codec counters folded over every stream.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	t.deltaMu.Lock()
	for _, enc := range t.encoders {
		st.Delta.Add(enc.Stats())
	}
	for _, dec := range t.decoders {
		st.Delta.Desyncs += dec.Desyncs()
	}
	t.deltaMu.Unlock()
	return st
}

func (t *Transport) dropSend() {
	t.mu.Lock()
	t.stats.SendErrors++
	t.mu.Unlock()
}

// EnableDelta turns on delta compression for outbound aggregates: an
// entry rides the wire only when a statistic moved by more than threshold
// (or went to zero) since the last transmission on that (tree, peer)
// stream, with a full-state resync every resyncEvery frames bounding the
// drift a dropped frame can cause. Call before traffic starts.
func (t *Transport) EnableDelta(threshold float64, resyncEvery int) {
	t.deltaMu.Lock()
	defer t.deltaMu.Unlock()
	t.deltaOn = true
	t.deltaThresh = threshold
	t.deltaResync = resyncEvery
	t.encoders = make(map[deltaKey]*combining.DeltaEncoder)
	t.decoders = make(map[deltaKey]*combining.DeltaDecoder)
}

// SetWidth declares the principal-vector width of each component tree this
// node receives on (combining.Forest.Width): a report or broadcast whose
// aggregate or delta frame has any other width is dropped before a decoder
// is sized from it. Without it inbound widths are bounded by maxFrameWidth.
func (t *Transport) SetWidth(width func(tree int) int) {
	t.deltaMu.Lock()
	defer t.deltaMu.Unlock()
	t.width = width
}

// fitsLocked reports whether an n-principal vector may arrive on tree.
// Callers hold deltaMu.
func (t *Transport) fitsLocked(tree, n int) bool {
	if t.width == nil {
		return n >= 0 && n <= maxFrameWidth
	}
	return n == t.width(tree)
}

// encodeDelta compresses agg for the (tree, to) stream, lazily creating
// (or re-sizing) the encoder. Returns nil when compression is off.
func (t *Transport) encodeDelta(tree int, to combining.NodeID, agg combining.Aggregate) *combining.DeltaFrame {
	t.deltaMu.Lock()
	defer t.deltaMu.Unlock()
	if !t.deltaOn {
		return nil
	}
	key := deltaKey{tree, to}
	enc := t.encoders[key]
	if enc == nil || len(agg.Sum) != enc.N() {
		enc = combining.NewDeltaEncoder(len(agg.Sum), t.deltaThresh, t.deltaResync)
		t.encoders[key] = enc
	}
	f := enc.Encode(agg)
	return &f
}

// decodeDelta reconstructs an inbound aggregate from the (tree, from)
// stream decoder. ok is false when the stream is desynced (the message
// must be dropped until a full frame arrives).
func (t *Transport) decodeDelta(tree int, from combining.NodeID, f *combining.DeltaFrame) (combining.Aggregate, bool) {
	t.deltaMu.Lock()
	defer t.deltaMu.Unlock()
	if t.decoders == nil {
		t.decoders = make(map[deltaKey]*combining.DeltaDecoder)
	}
	key := deltaKey{tree, from}
	dec := t.decoders[key]
	if dec == nil || (f.Full && f.N != dec.N()) {
		if !t.fitsLocked(tree, f.N) {
			return combining.Aggregate{}, false
		}
		dec = combining.NewDeltaDecoder(f.N)
		t.decoders[key] = dec
	}
	return dec.Apply(*f)
}

// resetEncoders forces the next frame on every stream toward peer id to be
// a full resync — called after a reconnect, when the far end may have
// restarted and lost its decoder state.
func (t *Transport) resetEncoders(id combining.NodeID) {
	t.deltaMu.Lock()
	defer t.deltaMu.Unlock()
	for key, enc := range t.encoders {
		if key.node == id {
			enc.Reset()
		}
	}
}

// Send transmits a combining.Report, combining.Broadcast, or
// combining.Rejoin to a peer on tree 0. It satisfies combining.SendFunc
// and never blocks: the message is queued for the peer's writer goroutine,
// and dropped (counted) if the queue is full, the peer is unknown, or the
// transport is closed.
func (t *Transport) Send(to combining.NodeID, msg interface{}) {
	t.send(0, to, msg)
}

// TreeSend returns the SendFunc for one component tree: frames it produces
// are tagged with the tree index so the receiving forest can route them.
func (t *Transport) TreeSend(tree int) combining.SendFunc {
	return func(to combining.NodeID, msg interface{}) {
		t.send(tree, to, msg)
	}
}

func (t *Transport) send(tree int, to combining.NodeID, msg interface{}) {
	t.mu.Lock()
	p, ok := t.peers[to]
	closed := t.closed
	t.mu.Unlock()
	if !ok || closed {
		t.dropSend()
		return
	}
	env := envelope{From: int(t.self), Tree: tree}
	switch m := msg.(type) {
	case combining.Report:
		env.Kind, env.Epoch = "report", m.Epoch
		env.AckVersion = m.AckVersion
		if env.Delta = t.encodeDelta(tree, to, m.Agg); env.Delta == nil {
			env.Agg = m.Agg
		}
	case combining.Broadcast:
		env.Kind, env.Epoch = "broadcast", m.Epoch
		if env.Delta = t.encodeDelta(tree, to, m.Agg); env.Delta == nil {
			env.Agg = m.Agg
		}
		if m.Config != nil {
			env.CfgVersion = m.Config.Version
			env.CfgGate = m.Config.GateEpoch
			env.CfgPayload = m.Config.Payload
		}
	case combining.Rejoin:
		env.Kind, env.Epoch = "rejoin", m.Epoch
		env.AckVersion = m.AckVersion
	default:
		t.dropSend()
		return
	}
	select {
	case p.ch <- env:
	default:
		t.mu.Lock()
		t.stats.SendErrors++
		t.stats.QueueDrops++
		t.mu.Unlock()
	}
}

// writeLoop owns peer p's connection: it dials lazily on the first queued
// message, re-dials with exponential backoff after failures, and retries a
// message once on a stale connection (the peer may have restarted since the
// last write).
func (t *Transport) writeLoop(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	var enc *json.Encoder
	disconnect := func() {
		if conn != nil {
			conn.Close()
			conn, enc = nil, nil
			t.mu.Lock()
			t.stats.PeersConnected--
			t.mu.Unlock()
		}
	}
	defer disconnect()
	for {
		select {
		case <-t.stop:
			return
		case env := <-p.ch:
			sent := false
			for attempt := 0; attempt < 2 && !sent; attempt++ {
				if conn == nil && !t.redial(p, &conn, &enc) {
					break
				}
				if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
					// A socket whose write deadline cannot be armed could
					// block the writer forever; treat it as dead.
					t.mu.Lock()
					t.stats.DeadlineErrorsWrite++
					t.mu.Unlock()
					disconnect()
					continue
				}
				if err := enc.Encode(env); err != nil {
					if errors.Is(err, os.ErrDeadlineExceeded) {
						t.mu.Lock()
						t.stats.WriteTimeouts++
						t.mu.Unlock()
					}
					disconnect()
					continue
				}
				sent = true
			}
			if !sent {
				t.dropSend()
			}
		}
	}
}

// redial establishes peer p's connection, respecting the backoff window. It
// reports whether conn is usable afterwards.
func (t *Transport) redial(p *peer, conn *net.Conn, enc **json.Encoder) bool {
	p.mu.Lock()
	addr := p.addr
	wait := !p.nextDialAt.IsZero() && time.Now().Before(p.nextDialAt)
	p.mu.Unlock()
	if wait {
		return false
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	p.mu.Lock()
	if err != nil {
		p.nextDialAt = time.Now().Add(p.backoff)
		p.backoff *= 2
		if p.backoff > backoffMax {
			p.backoff = backoffMax
		}
		p.mu.Unlock()
		return false
	}
	p.backoff = backoffBase
	p.nextDialAt = time.Time{}
	again := p.everDialed
	p.everDialed = true
	p.mu.Unlock()

	*conn, *enc = c, json.NewEncoder(c)
	t.mu.Lock()
	t.stats.Dials++
	t.stats.PeersConnected++
	if again {
		t.stats.Reconnects++
	}
	t.mu.Unlock()
	if again {
		// The peer may have restarted and lost its decoder state: force a
		// full resync frame on every delta stream toward it.
		t.resetEncoders(p.id)
	}
	return true
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes a stream of envelopes from one inbound connection until
// the peer hangs up, a decode fails, or the idle deadline expires.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	done := make(chan struct{})
	defer close(done)
	defer conn.Close()
	t.wg.Add(1)
	go func() { // unblock the pending Read when the transport closes
		defer t.wg.Done()
		select {
		case <-t.stop:
			conn.Close()
		case <-done:
		}
	}()
	dec := json.NewDecoder(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
			t.mu.Lock()
			t.stats.DeadlineErrorsRead++
			t.mu.Unlock()
			return
		}
		var env envelope
		if err := dec.Decode(&env); err != nil {
			return
		}
		if msg, ok := t.message(&env); ok {
			t.handler(env.Tree, combining.NodeID(env.From), msg)
		}
	}
}

// message turns one decoded envelope into the combining message it
// carries. ok is false when the frame must be dropped: an unknown kind, a
// desynced delta stream, or an aggregate that is ragged or does not fit the
// receiving tree's width. A dropped frame costs the tree one stale epoch,
// exactly like a lost report.
func (t *Transport) message(env *envelope) (interface{}, bool) {
	agg := env.Agg
	if env.Delta != nil {
		var ok bool
		if agg, ok = t.decodeDelta(env.Tree, combining.NodeID(env.From), env.Delta); !ok {
			return nil, false
		}
	}
	switch env.Kind {
	case "report", "broadcast":
	case "rejoin":
		return combining.Rejoin{Epoch: env.Epoch, AckVersion: env.AckVersion}, true
	default:
		return nil, false
	}
	t.deltaMu.Lock()
	fits := agg.Uniform(len(agg.Sum)) && t.fitsLocked(env.Tree, len(agg.Sum))
	t.deltaMu.Unlock()
	if !fits {
		return nil, false
	}
	if env.Kind == "report" {
		return combining.Report{Epoch: env.Epoch, Agg: agg, AckVersion: env.AckVersion}, true
	}
	b := combining.Broadcast{Epoch: env.Epoch, Agg: agg}
	if env.CfgVersion > 0 {
		b.Config = &combining.ConfigUpdate{
			Version:   env.CfgVersion,
			GateEpoch: env.CfgGate,
			Payload:   env.CfgPayload,
		}
	}
	return b, true
}

// Close shuts the listener down, tears down peer connections, and waits for
// the writer and reader goroutines.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.stop)
	err := t.ln.Close()
	t.wg.Wait()
	return err
}
