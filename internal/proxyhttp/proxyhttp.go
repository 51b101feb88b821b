// Package proxyhttp carries the web-service plumbing every proxy shares:
// serving common-format documents with JSON/XML content negotiation,
// registering with the master node, and keeping the registration fresh
// with heartbeats. Device-proxies and Database-proxies differ in what
// they serve, not in how they join the infrastructure; that common "how"
// lives here.
//
// The HTTP mechanics (negotiation, envelopes, retrying transport) are
// delegated to the unified service-API layer in internal/api; the
// helpers kept here are thin compatibility wrappers plus the Registrar.
package proxyhttp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/registry"
)

// NegotiateEncoding picks the response encoding from an Accept header,
// with full media-type and q-value parsing (api.NegotiateEncoding).
func NegotiateEncoding(r *http.Request) dataformat.Encoding {
	return api.NegotiateEncoding(r)
}

// WriteDoc writes a common-format document honouring content negotiation.
func WriteDoc(w http.ResponseWriter, r *http.Request, doc *dataformat.Document) {
	api.WriteDoc(w, r, doc)
}

// Error writes the uniform JSON error envelope with the given status.
func Error(w http.ResponseWriter, status int, err error) {
	api.WriteErrorStatus(w, nil, status, err)
}

// ReadDoc decodes a request body as a common-format document, sniffing
// the encoding from the Content-Type (or the payload itself).
func ReadDoc(r *http.Request) (*dataformat.Document, error) {
	return api.ReadDoc(r)
}

// Server wraps an http.Server bound to an ephemeral or fixed port.
type Server struct {
	mu  sync.Mutex
	srv *http.Server
	ln  net.Listener
	wg  sync.WaitGroup
}

// Serve starts handler on addr and returns the bound address.
func (s *Server) Serve(addr string, handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	s.srv = srv
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server.
func (s *Server) Close() {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	s.wg.Wait()
}

// Registrar keeps one proxy registered with the master node. All master
// interactions ride the shared retrying transport, so a briefly
// unreachable master is absorbed by backoff instead of surfacing
// immediately.
type Registrar struct {
	// MasterURL is the master node's base URL.
	MasterURL string
	// Registration is this proxy's record; LastSeen is managed remotely.
	Registration registry.Registration
	// HeartbeatEvery is the keepalive period. Zero means 30 seconds.
	HeartbeatEvery time.Duration
	// Client is the HTTP client; nil uses the shared pooled client.
	Client *http.Client

	cancel context.CancelFunc
	done   chan struct{}
}

// ErrRegistration reports a failed master interaction.
var ErrRegistration = errors.New("proxyhttp: registration failed")

func (g *Registrar) transport() *api.Transport {
	return &api.Transport{Client: g.Client}
}

func (g *Registrar) masterURL(pathAndQuery string) string {
	return api.URL(g.MasterURL, pathAndQuery)
}

// Register performs one registration round trip.
func (g *Registrar) Register() error {
	return g.RegisterContext(context.Background())
}

// RegisterContext performs one registration round trip under ctx.
func (g *Registrar) RegisterContext(ctx context.Context) error {
	if err := g.transport().PostJSON(ctx, g.masterURL("/register"), g.Registration, nil); err != nil {
		return fmt.Errorf("%w: %v", ErrRegistration, err)
	}
	return nil
}

// Start registers and then heartbeats until Stop.
func (g *Registrar) Start() error {
	if err := g.Register(); err != nil {
		return err
	}
	every := g.HeartbeatEvery
	if every <= 0 {
		every = 30 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	g.done = make(chan struct{})
	go func() {
		defer close(g.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := g.heartbeat(ctx); err != nil && ctx.Err() == nil {
					// A master restart forgets registrations; re-register.
					_ = g.RegisterContext(ctx)
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return nil
}

func (g *Registrar) heartbeat(ctx context.Context) error {
	url := g.masterURL("/heartbeat?id=" + g.Registration.ID)
	if err := g.transport().PostJSON(ctx, url, nil, nil); err != nil {
		return fmt.Errorf("%w: %v", ErrRegistration, err)
	}
	return nil
}

// Stop ends the heartbeat loop and deregisters from the master.
func (g *Registrar) Stop() {
	if g.cancel != nil {
		g.cancel()
		<-g.done
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Deregistration is best effort: a dead master forgets us anyway.
	tr := &api.Transport{Client: g.Client, MaxAttempts: 1}
	_ = tr.Delete(ctx, g.masterURL("/register?id="+g.Registration.ID))
}
