package transport

// Fuzz the two places the transport parses bytes a remote process
// controls: the hello payload and the accept-side handshake + hello
// sequence. The contract mirrors internal/wire's codecs: valid input
// roundtrips, malformed input errors, nothing panics or hangs.

import (
	"io"
	"net"
	"testing"
	"time"

	"arq/internal/wire"
)

func FuzzHello(f *testing.F) {
	f.Add([]byte{})
	if p, err := marshalHello(3, "127.0.0.1:6346"); err == nil {
		f.Add(p)
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, addr, err := unmarshalHello(data)
		if err != nil {
			return
		}
		out, err := marshalHello(id, addr)
		if err != nil {
			t.Fatalf("re-marshal of parsed hello (%d, %q) failed: %v", id, addr, err)
		}
		id2, addr2, err := unmarshalHello(out)
		if err != nil || id2 != id || addr2 != addr {
			t.Fatalf("hello roundtrip: (%d, %q, %v), want (%d, %q)", id2, addr2, err, id, addr)
		}
	})
}

// FuzzHandshake feeds arbitrary bytes to the acceptor-side handshake +
// hello sequence over an in-memory pipe. Whatever the bytes, the
// acceptor must return (error or success) within its deadline — never
// panic, never hang on a half-open or garbage-speaking client.
func FuzzHandshake(f *testing.F) {
	valid := func(id int, addr string) []byte {
		srv, cli := net.Pipe()
		done := make(chan []byte, 1)
		go func() {
			buf := make([]byte, 4096)
			var out []byte
			for {
				_ = srv.SetReadDeadline(time.Now().Add(time.Second))
				n, err := srv.Read(buf)
				out = append(out, buf[:n]...)
				if err != nil {
					done <- out
					return
				}
			}
		}()
		_, _ = cli.Write([]byte("GNUTELLA CONNECT/0.4\n\n"))
		p, _ := marshalHello(id, addr)
		m := &wire.Message{ID: helloMagic, Type: wire.TypePing, TTL: 1, Payload: p}
		_ = m.Encode(cli)
		cli.Close()
		srv.Close()
		return <-done
	}
	f.Add(valid(1, "127.0.0.1:6346"))
	f.Add([]byte("GNUTELLA CONNECT/0.4\n\n"))
	f.Add([]byte("GNUTELLA CONNECT/0.6\r\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, cli := net.Pipe()
		_ = srv.SetDeadline(time.Now().Add(2 * time.Second))
		go func() {
			_ = cli.SetDeadline(time.Now().Add(2 * time.Second))
			// Drain the acceptor's handshake response so its write
			// never blocks the pipe.
			go func() { _, _ = io.Copy(io.Discard, cli) }()
			_, _ = cli.Write(data)
			cli.Close()
		}()
		if err := wire.ServerHandshake(srv); err == nil {
			_, _, _ = readHello(srv)
		}
		srv.Close()
	})
}
