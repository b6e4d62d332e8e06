package main

// client.go is the HTTP client side: POST /query and POST /ingest over at
// most `clients` keep-alive connections to the loopback listener.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"stpq/internal/serve"
)

type readReply = serve.QueryResponse

// client sends requests to one env.
type client struct {
	url  string
	http *http.Client
	rec  *recorder
	ids  atomic.Int64
}

func newClient(e *env, clients int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &client{url: e.url, http: &http.Client{Transport: tr}, rec: e.rec}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// exec sends one op and decodes a read's reply; a write succeeds with
// status 200.
func (c *client) exec(o *op) outcome {
	path, body := "/query", []byte(nil)
	if o.read != nil {
		body = o.read.body
	} else {
		path, body = "/ingest", o.write.body
	}
	id := fmt.Sprintf("b-%d", c.ids.Add(1))
	var out outcome
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.rec.add(id, "client"+path, "", start, time.Since(start))
	out.status = resp.StatusCode
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return out
	}
	if o.read != nil {
		out.read = new(readReply)
		out.err = json.Unmarshal(data, out.read)
	}
	return out
}
