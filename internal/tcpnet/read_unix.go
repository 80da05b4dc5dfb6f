//go:build unix

package tcpnet

import (
	"cmp"
	"io"
	"net"
	"syscall"

	"mca/internal/rpc"
)

// readConn reads nc into p until nc fails or closes, handing deliver every
// frame. It reads once per arrival: a read that returned less than its
// room found the socket's queue empty, so the callback returns false and
// waits for readiness rather than read again to get EAGAIN. The wait
// loses no arrival. Every byte that arrives after that read raises a
// readiness notification of its own (Go's edge-triggered epoll and kqueue
// pollers), and the notification survives between calls of the callback
// inside one RawConn.Read; a new call clears it (poll_runtime_pollReset),
// so the loop waits only inside one call. A stale notification costs one
// EAGAIN read, as every arrival did before; under level-triggered
// readiness the wait ends at once whenever data is queued. A read that
// filled its room (or was interrupted) reads again at once, in a new call
// whose first read sees whatever came, so a Close, which waits for the
// callback to return, waits for one read at most.
//
// A FIN raises no notification of its own when it arrives with the last
// bytes before a read, and that read returns the bytes without the EOF:
// after a short read a connection that waits would miss it. On a
// connection that routes nowhere (routed false) — one a dial race's loser
// half-closes — the loop reads on after a short read, until the socket is
// empty or closed. A routed connection learns of its peer's close from
// its own next write.
func readConn(nc net.Conn, p *parser, deliver func(rpc.Datagram), routed func() bool) error {
	rc, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		return err
	}
	var failed error
	for failed == nil {
		err := rc.Read(func(fd uintptr) bool {
			space := p.space()
			n, err := syscall.Read(int(fd), space)
			reads.Inc()
			switch {
			case err == syscall.EAGAIN:
				return false
			case err == nil && n > 0:
				failed = p.parse(n, deliver)
				return failed != nil || n == len(space) || !routed()
			case err != syscall.EINTR:
				failed = cmp.Or(err, io.EOF)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return failed
}
