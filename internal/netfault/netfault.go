// Package netfault is a deterministic in-process TCP fault injector for
// tests. A Proxy listens on a loopback port and forwards byte streams to a
// real target address, but every chunk crosses a fault gate that the test
// scripts: asymmetric partitions (blackhole one or both directions without
// closing the socket), added latency, bandwidth throttling, connection
// refusal, mid-body TCP resets after a counted number of response bytes,
// and hard kills of every active connection.
//
// The point is reproducing the network's worst behaviors — not its average
// ones — inside a unit test: half-open connections that neither complete
// nor error, responses that die after the header has been read, SYNs that
// land on a dead port. Chaos suites point HTTP clients at Proxy.Addr()
// instead of the server and flip faults between requests.
//
// All faults apply to in-flight connections immediately (pumps re-check
// the gate every chunk, and a partitioned pump polls for healing), so a
// test can cut a connection's world in half mid-transfer.
package netfault

import (
	"errors"
	"net"
	"sync"
	"time"
)

// pollInterval is how often a blocked (partitioned) pump re-checks whether
// the partition has healed. Small enough that heals look instant at test
// timescales, large enough to not spin.
const pollInterval = 5 * time.Millisecond

// chunk is the forwarding granularity; faults (latency, throttle, reset
// counting) are applied per chunk.
const chunk = 4096

// Proxy forwards TCP streams to a target through a scriptable fault gate.
type Proxy struct {
	ln     net.Listener
	target string

	mu        sync.Mutex
	refuse    bool
	dropC2S   bool
	dropS2C   bool
	latency   time.Duration
	bytesPerS int
	// resetArmed/resetRemain implement "reset the connection after the
	// server has sent N more bytes": every server→client chunk draws the
	// counter down; crossing zero closes both halves with SO_LINGER(0),
	// which surfaces to the client as a mid-body RST.
	resetArmed  bool
	resetRemain int64
	closed      bool
	conns       map[net.Conn]struct{}
}

// New starts a proxy on an ephemeral loopback port forwarding to target
// (a host:port the test controls, e.g. an httptest listener address).
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; clients dial this instead of
// the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Refuse makes the proxy accept and immediately reset new connections
// (true) or forward them normally (false). Existing connections are not
// affected — this models a crashed process whose port answers RST while
// old sockets linger.
func (p *Proxy) Refuse(v bool) {
	p.mu.Lock()
	p.refuse = v
	p.mu.Unlock()
}

// Partition blackholes traffic per direction without closing sockets:
// c2s drops client→server bytes, s2c drops server→client bytes. Setting
// exactly one models an asymmetric partition — requests arrive but
// responses vanish, the nastiest failure for an at-most-once client.
// Healing (false, false) releases blocked pumps within pollInterval.
func (p *Proxy) Partition(c2s, s2c bool) {
	p.mu.Lock()
	p.dropC2S, p.dropS2C = c2s, s2c
	p.mu.Unlock()
}

// Latency adds a fixed delay before each forwarded chunk in both
// directions (0 disables).
func (p *Proxy) Latency(d time.Duration) {
	p.mu.Lock()
	p.latency = d
	p.mu.Unlock()
}

// Throttle caps forwarding bandwidth in bytes/second per direction
// (0 = unlimited). Models a congested or stalling link: bytes keep
// arriving, just slowly enough to trip per-try timeouts.
func (p *Proxy) Throttle(bytesPerSecond int) {
	p.mu.Lock()
	p.bytesPerS = bytesPerSecond
	p.mu.Unlock()
}

// ResetAfterResponseBytes arms a one-shot fault: after n more
// server→client bytes have been forwarded (across all connections), the
// connection carrying the crossing byte is torn down with a TCP RST. With
// n small enough to land mid-body, the client sees a response that starts
// and then dies — the canonical "did my write commit?" ambiguity.
func (p *Proxy) ResetAfterResponseBytes(n int64) {
	p.mu.Lock()
	p.resetArmed = true
	p.resetRemain = n
	p.mu.Unlock()
}

// KillActive hard-closes every in-flight connection (RST where the
// platform allows), leaving the listener up. Models a process crash with
// fast restart.
func (p *Proxy) KillActive() {
	p.mu.Lock()
	for c := range p.conns {
		reset(c)
		c.Close()
	}
	p.mu.Unlock()
}

// Close shuts the listener and all connections down.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	return p.ln.Close()
}

func (p *Proxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return
		}
		if p.refuse {
			p.mu.Unlock()
			reset(c)
			c.Close()
			continue
		}
		p.mu.Unlock()
		go p.serve(c)
	}
}

func (p *Proxy) serve(client net.Conn) {
	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		reset(client)
		client.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		client.Close()
		server.Close()
		return
	}
	p.conns[client] = struct{}{}
	p.conns[server] = struct{}{}
	p.mu.Unlock()

	done := make(chan struct{}, 2)
	go func() { p.pump(server, client, true); done <- struct{}{} }()  // client → server
	go func() { p.pump(client, server, false); done <- struct{}{} }() // server → client
	<-done
	// One direction died; drop both so the peer sees EOF/RST instead of a
	// half-open socket lingering past the test.
	client.Close()
	server.Close()
	<-done
	p.mu.Lock()
	delete(p.conns, client)
	delete(p.conns, server)
	p.mu.Unlock()
}

// pump forwards src→dst one chunk at a time through the fault gate.
// c2s marks the client→server direction; the server→client direction is
// where reset counting applies.
func (p *Proxy) pump(dst, src net.Conn, c2s bool) {
	buf := make([]byte, chunk)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.gate(dst, src, int64(n), c2s) {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// gate applies the current faults to a chunk about to be forwarded.
// Returns false when the connection was torn down by a fault.
func (p *Proxy) gate(dst, src net.Conn, n int64, c2s bool) bool {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return false
		}
		blocked := (c2s && p.dropC2S) || (!c2s && p.dropS2C)
		lat := p.latency
		bw := p.bytesPerS
		doReset := false
		if !c2s && p.resetArmed {
			p.resetRemain -= n
			if p.resetRemain < 0 {
				p.resetArmed = false
				doReset = true
			}
		}
		p.mu.Unlock()

		if doReset {
			reset(dst)
			reset(src)
			dst.Close()
			src.Close()
			return false
		}
		if blocked {
			time.Sleep(pollInterval)
			continue // re-check: partition may have healed or escalated
		}
		if lat > 0 {
			time.Sleep(lat)
		}
		if bw > 0 {
			time.Sleep(time.Duration(float64(n) / float64(bw) * float64(time.Second)))
		}
		return true
	}
}

// reset arranges for Close to send RST instead of FIN where possible.
func reset(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
}

// ErrProxyClosed is returned by helpers when the proxy is gone.
var ErrProxyClosed = errors.New("netfault: proxy closed")
