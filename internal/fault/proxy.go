package fault

import (
	"io"
	"net"
	"sync"
)

// proxyMode is the Proxy's current failure posture.
type proxyMode int

const (
	proxyPass      proxyMode = iota // forward bidirectionally
	proxyPartition                  // refuse new conns, kill active ones
	proxyBlackhole                  // accept and swallow — timeout-shaped
)

// Proxy is a TCP proxy for whole-process fault tests: a daemon under
// test is addressed through the proxy, and the test flips the proxy
// into partition or blackhole mode to simulate network failure without
// touching the daemon. The zero mode forwards transparently.
type Proxy struct {
	target string
	ln     net.Listener

	mu     sync.Mutex
	mode   proxyMode
	conns  map[net.Conn]struct{}
	closed bool
}

// NewProxy listens on 127.0.0.1:0 and forwards to target ("host:port").
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	go p.serve()
	return p, nil
}

// Addr is the proxy's listen address ("host:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's base URL for HTTP clients.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Partition cuts the proxy: active connections are closed and new ones
// are accepted then immediately closed (clients see a transport error,
// not a timeout). Lifting it restores forwarding for NEW connections.
func (p *Proxy) Partition(on bool) {
	p.setMode(on, proxyPartition)
}

// Blackhole makes the proxy accept and swallow traffic without ever
// answering — the failure mode that costs clients their full timeout.
func (p *Proxy) Blackhole(on bool) {
	p.setMode(on, proxyBlackhole)
}

func (p *Proxy) setMode(on bool, m proxyMode) {
	p.mu.Lock()
	if on {
		p.mode = m
	} else if p.mode == m {
		p.mode = proxyPass
	}
	for c := range p.conns {
		c.Close()
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
}

// Close stops the proxy and closes every tracked connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	return p.ln.Close()
}

func (p *Proxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) handle(down net.Conn) {
	p.mu.Lock()
	mode, closed := p.mode, p.closed
	p.mu.Unlock()
	if closed || mode == proxyPartition {
		down.Close()
		return
	}
	if !p.track(down) {
		down.Close()
		return
	}
	defer p.untrack(down)
	if mode == proxyBlackhole {
		// Swallow until the client gives up or Partition/Close kills us.
		io.Copy(io.Discard, down)
		down.Close()
		return
	}
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		down.Close()
		return
	}
	if !p.track(up) {
		up.Close()
		down.Close()
		return
	}
	defer p.untrack(up)
	done := make(chan struct{})
	go func() {
		io.Copy(up, down)
		up.Close()
		down.Close()
		close(done)
	}()
	io.Copy(down, up)
	up.Close()
	down.Close()
	<-done
}
