package server

// WedgeUntilCrash holds every workflow s starts until its runs are
// cancelled (Crash, or a forced drain), so whatever s accepts stays
// queued: the state a crash leaves pending submissions in.
func WedgeUntilCrash(s *Server) { s.execHook = func(*workflow) { <-s.runCtx.Done() } }
