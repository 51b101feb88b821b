package client

import (
	"context"

	"repro/internal/api"
	"repro/internal/middleware"
	"repro/internal/stream"
)

// Streams is the live-event sub-client: resuming SSE subscriptions to
// any streaming service of the infrastructure plus the HTTP publish
// ingress.
type Streams struct {
	c *Client
}

// Streams returns the live-event sub-client.
func (c *Client) Streams() *Streams { return &Streams{c: c} }

// Subscribe opens a live subscription to the master node's event stream
// (registry lifecycle topics) for a topic pattern. The subscription
// reconnects automatically and resumes with Last-Event-ID, so consumers
// see each event at most once with no gaps across a reconnect.
func (s *Streams) Subscribe(ctx context.Context, pattern string) (*stream.Subscription, error) {
	return stream.Subscribe(ctx, s.c.MasterURL, pattern, stream.SubscribeOptions{})
}

// SubscribeService opens a live subscription to any streaming service of
// the infrastructure (measurements database, a device proxy) by its base
// URL — the redirection pattern of the paper applied to live data: the
// master's query response carries the URIs, the client subscribes to the
// source directly.
func (s *Streams) SubscribeService(ctx context.Context, serviceURL, pattern string) (*stream.Subscription, error) {
	return stream.Subscribe(ctx, serviceURL, pattern, stream.SubscribeOptions{})
}

// Publish injects one event into a remote service's stream hub through its
// /v1/publish ingress. It never retries: injection is not idempotent,
// and a retry after a lost response would duplicate the event in every
// downstream store.
func (s *Streams) Publish(ctx context.Context, serviceURL string, ev middleware.Event) error {
	tr := &api.Transport{Client: s.c.HTTP, MaxAttempts: 1}
	return tr.PostJSON(ctx, api.URL(serviceURL, "/publish"), ev, nil)
}
