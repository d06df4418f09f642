package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// reqIDHeader carries the benchmark's request id from the client span to
// the handler span of a traced run.
const reqIDHeader = "X-Bench-Request"

// client is one closed-loop caller: it sends its next request only after it
// has read the whole reply to the previous one.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what came back for one request: the body is valid until the
// client's next call, and lat is how long the caller waited, from before
// the request is written until the reply has been read to its end.
type reply struct {
	status int
	body   []byte
	start  time.Time
	lat    time.Duration
}

// do sends one request; id, when not zero, travels in reqIDHeader.
func (c *client) do(method, path string, body []byte, id uint64) (reply, error) {
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, fmt.Errorf("read reply: %w", err)
	}
	return reply{resp.StatusCode, c.buf.Bytes(), start, lat}, nil
}
