package exec

// Forming returns how many queries sit in batches that have not sealed yet,
// so tests can wait for "k queries are queued behind the busy key" instead of
// sleeping.
func (e *Executor) Forming() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, b := range e.pending {
		n += len(b.reqs)
	}
	return n
}
