package bds

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"

	"sciview/internal/colenc"
	"sciview/internal/metadata"
	"sciview/internal/transport"
	"sciview/internal/tuple"
)

// The RPC surface lets a BDS instance serve sub-tables across process
// boundaries (cmd/sciview-node). Requests are gob-encoded; sub-table
// responses use the tuple wire codec.

// ServiceName returns the transport registration name of a node's BDS.
func ServiceName(node int) string { return fmt.Sprintf("bds-%d", node) }

// subTableReq is the wire request for the "subtable" method.
//
// Wire selects the response format: 0 requests the row-major SVT1
// response, WireEncoded the compressed columnar SVT2 one.
type subTableReq struct {
	Table   int32
	Chunk   int32
	Filter  *metadata.Range
	Project []string
	Wire    byte
}

// WireEncoded is the subTableReq.Wire value requesting the SVT2
// compressed columnar response format.
const WireEncoded byte = 1

// Serve registers the service's RPC handler on tr under ServiceName.
func (s *Service) Serve(tr transport.Transport) (io.Closer, error) {
	return tr.Serve(ServiceName(s.node), s.handle)
}

// Handler exposes the RPC handler for transports that register services
// with explicit addresses (the standalone node binary).
func (s *Service) Handler() transport.Handler { return s.handle }

func (s *Service) handle(method string, payload []byte) ([]byte, error) {
	switch method {
	case "subtable":
		var req subTableReq
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&req); err != nil {
			return nil, fmt.Errorf("bds: decoding request: %w", err)
		}
		id := tuple.ID{Table: req.Table, Chunk: req.Chunk}
		if req.Wire >= WireEncoded {
			t, err := s.SubTableEncoded(id, req.Filter, req.Project)
			if err != nil {
				return nil, err
			}
			// Encode into a pooled buffer; ownership passes to the
			// transport, which recycles it once the response frame is
			// written.
			return colenc.Encode(tuple.GetBuf(colenc.EncodedSize(t)), t), nil
		}
		st, err := s.SubTableProjected(id, req.Filter, req.Project)
		if err != nil {
			return nil, err
		}
		return tuple.Encode(tuple.GetBuf(tuple.EncodedSize(st)), st), nil
	default:
		return nil, fmt.Errorf("bds: unknown method %q", method)
	}
}

// Client is a remote BDS handle with the same SubTable signature as the
// local Service.
type Client struct {
	conn transport.Conn
}

// ClientFromConn wraps an already-established connection (e.g. one dialed
// by address across processes).
func ClientFromConn(conn transport.Conn) *Client { return &Client{conn: conn} }

// DialNode connects to the BDS of the given storage node.
func DialNode(tr transport.Transport, node int) (*Client, error) {
	conn, err := tr.Dial(ServiceName(node))
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// SubTable fetches a sub-table from the remote BDS.
func (c *Client) SubTable(id tuple.ID, filter *metadata.Range) (*tuple.SubTable, error) {
	return c.SubTableProjected(context.Background(), id, filter, nil)
}

// SubTableProjected fetches with projection pushdown, observing ctx: a
// cancelled or deadline-expired context aborts the wire exchange and
// returns ctx.Err() instead of blocking on a slow or stuck node.
func (c *Client) SubTableProjected(ctx context.Context, id tuple.ID, filter *metadata.Range, project []string) (*tuple.SubTable, error) {
	var buf bytes.Buffer
	req := subTableReq{Table: id.Table, Chunk: id.Chunk, Filter: filter, Project: project}
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return nil, fmt.Errorf("bds: encoding request: %w", err)
	}
	resp, err := c.conn.CallContext(ctx, "subtable", buf.Bytes())
	if err != nil {
		return nil, err
	}
	st, _, err := tuple.Decode(resp)
	// Decode copies everything out of resp (column data into a fresh
	// backing array, attribute names into fresh strings), so the response
	// buffer can go straight back to the pool.
	tuple.PutBuf(resp)
	return st, err
}

// SubTableEncoded fetches in the compressed columnar wire format: the
// request asks for SVT2, and any other reply is an error.
func (c *Client) SubTableEncoded(ctx context.Context, id tuple.ID, filter *metadata.Range, project []string) (*colenc.Table, error) {
	var buf bytes.Buffer
	req := subTableReq{Table: id.Table, Chunk: id.Chunk, Filter: filter, Project: project, Wire: WireEncoded}
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return nil, fmt.Errorf("bds: encoding request: %w", err)
	}
	resp, err := c.conn.CallContext(ctx, "subtable", buf.Bytes())
	if err != nil {
		return nil, err
	}
	t, _, err := colenc.Decode(resp)
	// Decode copies everything out of resp, so it goes straight back to
	// the pool.
	tuple.PutBuf(resp)
	return t, err
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }
