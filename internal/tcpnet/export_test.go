package tcpnet

// OpenConns returns how many connections e holds open, dialed or accepted.
func (e *Endpoint) OpenConns() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.conns)
}
