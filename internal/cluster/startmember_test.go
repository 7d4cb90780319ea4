package cluster

import (
	"testing"

	"yesquel/internal/kv/kvserver"
)

// TestStartMemberStopsWhatItStartedWhenListenFails: by the time a
// member's listen fails, its store has opened the write-ahead log (a
// file handle and a flusher goroutine) and its server has started the
// sweeper. startMember must stop all of it — nothing else holds a
// reference. The package's leak check (TestMain) fails the binary if a
// goroutine survives this test.
func TestStartMemberStopsWhatItStartedWhenListenFails(t *testing.T) {
	defer func(addr string) { listenAddr = addr }(listenAddr)
	listenAddr = "127.0.0.1:-1"
	cl := &Cluster{cfg: kvserver.Config{LogPath: t.TempDir()}, rf: 1}
	if srv, err := cl.startMember(0, ""); err == nil {
		srv.Close()
		srv.Store().CloseLog()
		t.Fatal("startMember succeeded on an unlistenable address")
	}
}
