// yesqueld is the Yesquel storage server daemon: one instance of the
// transactional key-value store (boxes 3 in Figure 1 of the paper).
// Start one per storage machine and hand the full address list to the
// clients. Every server is a member of a replication group and -addr is
// its member identity — the address clients are redirected to and a
// primary's -mirror names — so it must be ip:port with a specific IP.
// A lone server is the sole member of its own group; -mirror forms a
// larger one (start the backups first). A group has one membership, the
// installed epoch's, and it is also the quorum's: -mirror is the one
// reconfiguration (kvserver.Server.Reconfigure) that catches the
// backups up and installs [this server, backups...] as the next epoch,
// and commits are then acknowledged by a majority of exactly that group:
//
//	yesqueld -addr 10.0.0.2:7000
//	yesqueld -addr 10.0.0.3:7000
//	yesqueld -addr 10.0.0.1:7000 -mirror 10.0.0.2:7000,10.0.0.3:7000
//
// The primary's mirror catches a backup up on whatever it lacks: from
// the records it still retains, or, for a backup behind that retained
// log or one whose history diverged from the primary's, by pushing it
// a snapshot of the primary's state. A backup that stops answering is
// retried until it answers again, so one restarted at the same -addr,
// even empty, rejoins with no operator step.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"yesquel/internal/kv/kvserver"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "listen address as ip:port with a specific IP: it is this server's member identity, the address clients and peers reach it at")
	retention := flag.Duration("retention", 10*time.Second, "how long superseded MVCC versions remain readable")
	logPath := flag.String("log", "", "write-ahead log path (empty = in-memory only)")
	logSync := flag.Bool("log-sync", false, "fsync the log on every commit")
	mirror := flag.String("mirror", "", "backup server address(es), comma-separated, already running: this server attaches them and installs the group [this server, backups...] as a new epoch, so it serves under their lease grants and commits are acknowledged once a majority of the group holds them")
	replLogMax := flag.Int("replication-log-max", 0, "bound the retained stream tail (what the mirror resends to a backup that is behind) to this many records: beyond it the server checkpoints (state snapshot + WAL rotation) and truncates, and a backup too far behind is pushed a snapshot of the primary's state (0 = the built-in byte bound)")
	lease := flag.Duration("lease", 2*time.Second, "primary lease duration in a group of more than one member: how long the primary may serve after a backup last accepted one of its mirror batches, and how long a promotion must wait; a backup sent nothing for a third of it gets an empty batch, the heartbeat")
	groupCommitInterval := flag.Duration("group-commit-interval", 0, "how long a primary's log writer waits before writing, and a member sender after a wake before sending, letting a batch build (0 = as soon as free)")
	statsEvery := flag.Duration("stats", 0, "periodically log epoch, role, lease state, and activity counters (0 = off)")
	flag.Parse()
	if *retention < 0 {
		log.Fatalf("yesqueld: -retention %v is negative", *retention)
	}

	// The bound address is the member identity: it must be the literal
	// that clients are redirected to and that a primary's -mirror names.
	host, _, err := net.SplitHostPort(*addr)
	if ip := net.ParseIP(host); err != nil || ip == nil || ip.IsUnspecified() {
		log.Fatalf("yesqueld: -addr %q must be ip:port with a specific IP: the address is this server's member identity, which clients and peers are redirected to", *addr)
	}
	store, err := kvserver.OpenStore(nil, kvserver.Config{
		RetentionMillis:          uint64(retention.Milliseconds()),
		LogPath:                  *logPath,
		LogSync:                  *logSync,
		ReplicationLogMaxRecords: *replLogMax,
		LeaseDuration:            *lease,
		GroupCommitInterval:      *groupCommitInterval,
	})
	if err != nil {
		log.Fatalf("yesqueld: %v", err)
	}
	srv := kvserver.NewServer(store)
	// Listen before forming the group: the bound address is the member
	// identity the new epoch's membership names.
	if err := srv.Listen(*addr); err != nil {
		log.Fatalf("yesqueld: %v", err)
	}
	if *mirror != "" {
		members := []string{srv.Addr()}
		for _, b := range strings.Split(*mirror, ",") {
			if b = strings.TrimSpace(b); b != "" {
				members = append(members, b)
			}
		}
		if err := srv.Reconfigure(store.Epoch()+1, members); err != nil {
			log.Fatalf("yesqueld: forming group %v: %v", members, err)
		}
		log.Printf("yesqueld: primary of %v at epoch %d", store.Members(), store.Epoch())
	}
	log.Printf("yesqueld: serving on %s (retention %v, lease %v)", srv.Addr(), *retention, *lease)

	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for range t.C {
				st := srv.Stats()
				replicas := ""
				for _, r := range st.Replicas {
					lag := st.ReplHead - r.AckedSeq
					state := "ok"
					if r.Broken {
						state = "broken"
					}
					replicas += fmt.Sprintf(" replica=%s acked=%d lag=%d state=%s", r.Member, r.AckedSeq, lag, state)
				}
				log.Printf("yesqueld: epoch=%d role=%s members=%v lease_valid=%v repl_head=%d quorum_mark=%d watermark_lag=%d quorum_need=%d%s bumps=%d wrong_epoch_rejects=%d reads=%d commits=%d fastcommits=%d conflicts=%d orphan_aborts=%d checkpoints=%d ckpt_failures=%d log_truncated=%d snaps_served=%d snaps_installed=%d mirror_batches=%d mirror_batch_records=%d wal_syncs=%d wal_failures=%d conns=%d",
					st.Epoch, st.Role, st.Members, st.LeaseValid, st.ReplHead, st.QuorumMark, st.WatermarkLag, st.QuorumNeed, replicas, st.EpochBumps, st.WrongEpochRejects,
					st.Reads, st.Commits, st.FastCommits, st.Conflicts, st.OrphanAborts,
					st.Checkpoints, st.CheckpointFailures, st.LogRecordsTruncated, st.SnapshotsServed, st.SnapshotsInstalled,
					st.MirrorBatches, st.MirrorBatchRecords, st.WALSyncs, st.WALFailures, st.Conns)
			}
		}()
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "yesqueld: shutting down; epoch=%d role=%s reads=%d commits=%d fastcommits=%d conflicts=%d gc=%d wrong_epoch_rejects=%d\n",
			st.Epoch, st.Role, st.Reads, st.Commits, st.FastCommits, st.Conflicts, st.GCVersions, st.WrongEpochRejects)
		srv.Close()
		store.CloseLog()
	}()
	if err := srv.Serve(); err != nil {
		log.Fatalf("yesqueld: %v", err)
	}
}
