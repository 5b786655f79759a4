// This file is the RPC exposure of the query service over the transport
// layer: the "query" and "stats" methods speak gob-encoded frames, so a
// standalone process (cmd/sciview-serve) can serve many TCP clients while
// the admission controller and fetch deduplicator do their work behind
// one cluster.

package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/metadata"
	"sciview/internal/transport"
)

// DefaultServiceName is the transport registry name of the query service.
const DefaultServiceName = "queryservice"

// wireQuery is the gob frame of one remote submission. The client's
// context deadline travels as TimeoutMs, since the server cannot observe
// a remote caller's context directly.
type wireQuery struct {
	Left, Right string
	JoinAttrs   []string
	Filter      metadata.Range
	Project     []string
	Priority    int
	TimeoutMs   int64
}

// wireResult is the gob frame of one remote response.
type wireResult struct {
	Engine      string
	Tuples      int64
	ElapsedNs   int64
	QueueWaitNs int64
	Weight      int64
	Degraded    bool
	Traffic     cluster.Traffic
	Cache       cache.Stats
	Health      cluster.HealthStats
}

// wireStats is the gob frame of a Stats snapshot.
type wireStats struct {
	Stats Stats
}

// ServeOn registers the service's RPC handler with a transport under
// name ("" selects DefaultServiceName). Closing the returned closer
// unregisters the handler (and, on TCP, drains in-flight exchanges); it
// does not close the service itself.
func (s *Service) ServeOn(tr transport.Transport, name string) (io.Closer, error) {
	if name == "" {
		name = DefaultServiceName
	}
	return tr.Serve(name, s.handle)
}

// Handler exposes the RPC dispatch for callers that bind the listener
// themselves (e.g. ServeAddr with an explicit address).
func (s *Service) Handler() transport.Handler { return s.handle }

func (s *Service) handle(method string, payload []byte) ([]byte, error) {
	switch method {
	case "query":
		var wq wireQuery
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wq); err != nil {
			return nil, fmt.Errorf("service: decoding query: %w", err)
		}
		ctx := context.Background()
		if wq.TimeoutMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(wq.TimeoutMs)*time.Millisecond)
			defer cancel()
		}
		resp, err := s.Submit(ctx, Query{
			Req: engine.Request{
				LeftTable:  wq.Left,
				RightTable: wq.Right,
				JoinAttrs:  wq.JoinAttrs,
				Filter:     wq.Filter,
				Project:    wq.Project,
			},
			Priority: wq.Priority,
		})
		if err != nil {
			return nil, err
		}
		return encodeGob(wireResult{
			Engine:      resp.Result.Engine,
			Tuples:      resp.Result.Tuples,
			ElapsedNs:   int64(resp.Result.Elapsed),
			QueueWaitNs: int64(resp.QueueWait),
			Weight:      resp.Weight,
			Degraded:    resp.Degraded,
			Traffic:     resp.Result.Traffic,
			Cache:       resp.Result.Cache,
			Health:      resp.Result.Health,
		})
	case "stats":
		return encodeGob(wireStats{Stats: s.Stats()})
	default:
		return nil, fmt.Errorf("service: unknown method %q", method)
	}
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Client is a remote handle on a served query service.
type Client struct {
	conn transport.Conn
}

// NewClient wraps a transport connection to a query service.
func NewClient(conn transport.Conn) *Client { return &Client{conn: conn} }

// Query submits one request and waits for its result. A ctx deadline is
// both observed locally (the call returns ctx.Err()) and shipped to the
// server, which cancels the query's execution when it expires.
func (c *Client) Query(ctx context.Context, q Query) (*Response, error) {
	wq := wireQuery{
		Left:      q.Req.LeftTable,
		Right:     q.Req.RightTable,
		JoinAttrs: q.Req.JoinAttrs,
		Filter:    q.Req.Filter,
		Project:   q.Req.Project,
		Priority:  q.Priority,
	}
	if d, ok := ctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		wq.TimeoutMs = ms
	}
	payload, err := encodeGob(wq)
	if err != nil {
		return nil, err
	}
	body, err := c.conn.CallContext(ctx, "query", payload)
	if err != nil {
		return nil, err
	}
	var wr wireResult
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&wr); err != nil {
		return nil, fmt.Errorf("service: decoding result: %w", err)
	}
	return &Response{
		Result: &engine.Result{
			Engine:  wr.Engine,
			Tuples:  wr.Tuples,
			Elapsed: time.Duration(wr.ElapsedNs),
			Traffic: wr.Traffic,
			Cache:   wr.Cache,
			Health:  wr.Health,
		},
		QueueWait: time.Duration(wr.QueueWaitNs),
		Weight:    wr.Weight,
		Degraded:  wr.Degraded,
	}, nil
}

// Stats fetches the server's service-level counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	body, err := c.conn.CallContext(ctx, "stats", nil)
	if err != nil {
		return Stats{}, err
	}
	var ws wireStats
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&ws); err != nil {
		return Stats{}, fmt.Errorf("service: decoding stats: %w", err)
	}
	return ws.Stats, nil
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }
