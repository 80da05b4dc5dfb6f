//go:build !unix

package tcpnet

import (
	"net"

	"mca/internal/rpc"
)

// readConn reads nc into p until nc fails or closes, handing deliver
// every frame. net's Read waits out an empty socket itself, and reports
// EOF whether or not the connection routes anywhere.
func readConn(nc net.Conn, p *parser, deliver func(rpc.Datagram), _ func() bool) (err error) {
	for err == nil {
		var n int
		if n, err = nc.Read(p.space()); err == nil {
			err = p.parse(n, deliver)
		}
		reads.Inc()
	}
	return err
}
