package main

import (
	"io"
	"net"
	"sync/atomic"
)

// countingConn adds every byte read from and written to a connection to
// a shared total: the client-side wire bytes of wire_bytes_per_op.
type countingConn struct {
	net.Conn
	total *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.total.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.total.Add(int64(n))
	return n, err
}

// countingReader counts the bytes a protocol step draws from its
// randomness source (entropy.rand_bytes_per_query).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
