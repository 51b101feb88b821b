package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/dataformat"
)

// maxBodyBytes bounds request bodies accepted by the adapters.
const maxBodyBytes = 16 << 20

// RawJSON is a pre-encoded JSON payload: WriteJSON (and the typed
// adapters through it) write it verbatim instead of re-encoding. Result
// caches return it so a cached response reaches the wire byte-for-byte
// identical to the encode that filled the cache.
type RawJSON []byte

// jsonBufPool recycles encode buffers across responses: a response body
// is encoded into a pooled buffer and written in one call, so the
// per-request encoder and its bytes.Buffer growth are not re-allocated
// per request.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledEncodeBuf caps the buffers the pool keeps; an occasional
// giant page should not pin its high-water mark forever.
const maxPooledEncodeBuf = 1 << 20

func putEncodeBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledEncodeBuf {
		buf.Reset()
		jsonBufPool.Put(buf)
	}
}

// EncodeJSON returns exactly the bytes WriteJSON would write for v
// (including the trailing newline json.Encoder appends). The returned
// slice is freshly allocated — safe to retain.
func EncodeJSON(v any) ([]byte, error) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		putEncodeBuf(buf)
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	putEncodeBuf(buf)
	return out, nil
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if raw, ok := v.(RawJSON); ok {
		w.WriteHeader(status)
		_, _ = w.Write(raw)
		return
	}
	buf := jsonBufPool.Get().(*bytes.Buffer)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Encode-into-buffer failed before any byte reached the client:
		// the status line is still ours to set.
		putEncodeBuf(buf)
		WriteError(w, nil, err)
		return
	}
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	putEncodeBuf(buf)
}

// writeResult encodes a handler's return value: common-format documents
// are content-negotiated (JSON/XML per Accept), everything else is
// plain JSON.
func writeResult(w http.ResponseWriter, r *http.Request, v any) {
	switch out := v.(type) {
	case *dataformat.Document:
		if out == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		WriteDoc(w, r, out)
	case nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		WriteJSON(w, http.StatusOK, out)
	}
}

// Query adapts a typed query-parameter endpoint: fn gets the request
// context and parsed query values, returns a value (or a
// *dataformat.Document for negotiated output) and an error. It never
// sees http.ResponseWriter — encoding, status mapping, and the error
// envelope are the layer's job.
func Query[Resp any](fn func(ctx context.Context, q url.Values) (Resp, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out, err := fn(r.Context(), r.URL.Query())
		if err != nil {
			WriteError(w, r, err)
			return
		}
		writeResult(w, r, out)
	})
}

// ParseRange reads the from/to query values as RFC 3339 timestamps;
// both are optional (zero when absent).
func ParseRange(q url.Values) (from, to time.Time, err error) {
	if s := q.Get("from"); s != "" {
		if from, err = time.Parse(time.RFC3339, s); err != nil {
			return from, to, fmt.Errorf("bad from: %v", err)
		}
	}
	if s := q.Get("to"); s != "" {
		if to, err = time.Parse(time.RFC3339, s); err != nil {
			return from, to, fmt.Errorf("bad to: %v", err)
		}
	}
	return from, to, nil
}

// Params exposes the {param} path values a /v2 pattern route matched on
// the request.
type Params struct{ r *http.Request }

// Get returns the decoded value of one named path parameter ("" when
// the route has no such parameter).
func (p Params) Get(name string) string { return p.r.PathValue(name) }

// ParamsOf exposes the path parameters of a request to handlers that
// bypass the typed adapters (streaming endpoints).
func ParamsOf(r *http.Request) Params { return Params{r: r} }

// QueryP adapts a typed endpoint that reads both /v2 path parameters
// and query values; otherwise identical to Query.
func QueryP[Resp any](fn func(ctx context.Context, p Params, q url.Values) (Resp, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out, err := fn(r.Context(), Params{r: r}, r.URL.Query())
		if err != nil {
			WriteError(w, r, err)
			return
		}
		writeResult(w, r, out)
	})
}

// Body adapts a typed JSON-body endpoint: the request body is decoded
// into Req before fn runs. Decode failures map to 400.
func Body[Req, Resp any](fn func(ctx context.Context, in Req) (Resp, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in Req
		dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
		if err := dec.Decode(&in); err != nil {
			WriteError(w, r, BadRequest(fmt.Errorf("bad request body: %w", err)))
			return
		}
		out, err := fn(r.Context(), in)
		if err != nil {
			WriteError(w, r, err)
			return
		}
		writeResult(w, r, out)
	})
}

// ReadDoc decodes a request body as a common-format document, sniffing
// the encoding from the Content-Type (or the payload itself).
func ReadDoc(r *http.Request) (*dataformat.Document, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	enc := dataformat.ParseEncoding(r.Header.Get("Content-Type"))
	if r.Header.Get("Content-Type") == "" {
		enc = dataformat.Sniff(body)
	}
	return dataformat.Decode(body, enc)
}
