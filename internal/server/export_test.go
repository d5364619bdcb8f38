package server

import "bytes"

// WedgeUntilCrash holds every workflow s starts until its runs are
// cancelled (Crash, or a forced drain), so whatever s accepts stays
// queued: the state a crash leaves pending submissions in.
func WedgeUntilCrash(s *Server) { s.execHook = func(*workflow) { <-s.runCtx.Done() } }

// takePooledBody takes a buffer out of the submission body pool and
// returns its whole array, or nil when the pool had none to give.
func takePooledBody() []byte {
	buf := bodies.Get().(*bytes.Buffer)
	if buf.Cap() == 0 {
		return nil
	}
	return buf.AvailableBuffer()[:buf.Cap()]
}
