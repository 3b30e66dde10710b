// Package wire is drdp's wire subsystem: the protocol message types
// shared by every tier (edge client, cloud server, shard cluster), the
// versioned fixed-layout binary codec that carries them, and the
// per-connection handshake that opens every connection.
//
// # Codec
//
// Every (Request, Response) exchange travels in the binary codec: a
// fixed-layout little-endian encoding framed as
// [u32 length][u32 IEEE CRC32][payload]. No reflection on either side;
// message buffers are reused per connection (and pooled across
// short-lived encoders), so steady-state decode performs zero
// allocations for payloads the caller does not retain.
//
// # Handshake
//
// A client opens every connection with a 12-byte hello:
//
//	[0x0b]['D' 'R' 'D' 'W'][version][codec][5 reserved bytes]
//
// and the server answers an 8-byte ack:
//
//	['D' 'R' 'D' 'W'][version][codec][2 reserved bytes]
//
// The handshake is a protocol check, not a choice: both sides require
// the magic, Version and CodecBinary, and a server closes a connection
// whose first bytes are anything else without answering. The layout is
// unchanged since Version 1, so peers built against earlier releases of
// this package still connect.
//
// Message kinds, framing, and the binary layouts are documented on the
// types in this package and in DESIGN.md (S22).
package wire

import (
	"fmt"
	"io"
	"net"
	"time"
)

// Codec identifies how (Request, Response) values are serialized on a
// connection. CodecBinary is the only codec.
type Codec uint8

// CodecBinary is the fixed-layout little-endian codec; its value is the
// codec byte of the hello and the ack.
const CodecBinary Codec = 1

// String names the codec as it appears in telemetry labels.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return fmt.Sprintf("Codec(%d)", uint8(c))
}

// Preference was the dial-time codec choice.
//
// Deprecated: the binary codec is the only codec; nothing reads a
// Preference. It remains so existing configuration literals compile.
type Preference int

// PreferBinary is the only Preference.
//
// Deprecated: every connection is binary; nothing reads it.
const PreferBinary Preference = 0

// Handshake constants.
const (
	// Version is the wire-protocol version carried in hello and ack.
	Version = 1
	// helloLen is the on-the-wire hello size: a leading length byte plus
	// magic, version, codec, and reserved padding.
	helloLen = 12
	// ackLen is the on-the-wire ack size.
	ackLen = 8
	// defaultHandshakeTimeout bounds the client's hello/ack exchange when
	// the caller gives no timeout, so a silent peer fails the dial
	// instead of hanging it.
	defaultHandshakeTimeout = 2 * time.Second
)

// hello and ack are the only handshake messages either side ever sends.
// Their trailing reserved bytes are zero on send and ignored on receipt.
var (
	hello = [helloLen]byte{helloLen - 1, 'D', 'R', 'D', 'W', Version, byte(CodecBinary)}
	ack   = [ackLen]byte{'D', 'R', 'D', 'W', Version, byte(CodecBinary)}
)

// ClientHandshake runs the client half of the handshake on a fresh
// connection: it sends the hello and checks the server's ack, both
// within timeout (2s when <= 0). Any error leaves the connection
// unusable; the caller closes it.
func ClientHandshake(conn net.Conn, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultHandshakeTimeout
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write(hello[:]); err != nil {
		return fmt.Errorf("wire: write hello: %w", err)
	}
	var b [ackLen]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return fmt.Errorf("wire: read ack: %w", err)
	}
	if [6]byte(b[:6]) != [6]byte(ack[:6]) {
		return fmt.Errorf("wire: bad ack % x", b[:6])
	}
	return conn.SetDeadline(time.Time{})
}

// ServerHandshake runs the server half: it reads the connection's first
// 12 bytes from r, checks them as a hello, and writes the ack to w. A
// peer whose first bytes are not a valid hello gets no answer and an
// error; the caller closes the connection. An io.EOF error (possibly
// wrapped) means the peer sent nothing at all. The caller arms any read
// deadline it wants the wait bounded by.
func ServerHandshake(r io.Reader, w io.Writer) error {
	var b [helloLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("wire: read hello: %w", err)
	}
	if [7]byte(b[:7]) != [7]byte(hello[:7]) {
		return fmt.Errorf("wire: bad hello % x", b[:7])
	}
	if _, err := w.Write(ack[:]); err != nil {
		return fmt.Errorf("wire: write ack: %w", err)
	}
	return nil
}
