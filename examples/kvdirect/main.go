// kvdirect: using Yesquel below SQL — the distributed balanced tree and
// the transactional key-value store directly. This is the "NOSQL mode"
// the architecture enables: the same storage servers, the same
// transactions, no query processing at all.
//
// The example maintains a leaderboard (score-ordered DBT) and a profile
// store, updated atomically in one distributed transaction, then scans
// the top of the leaderboard.
//
//	go run ./examples/kvdirect
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/rand"

	"yesquel/internal/cluster"
	"yesquel/internal/core"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
)

const (
	leaderboardTree = 1
	profileTree     = 2
	players         = 100
)

// scoreKey encodes (score DESC, player) order-preservingly: higher
// scores sort first.
func scoreKey(score uint32, player string) []byte {
	k := make([]byte, 4, 4+len(player))
	binary.BigEndian.PutUint32(k, ^score) // invert: descending
	return append(k, player...)
}

func decodeScoreKey(k []byte) (uint32, string) {
	return ^binary.BigEndian.Uint32(k[:4]), string(k[4:])
}

func main() {
	ctx := context.Background()
	cl, err := cluster.Start(3, kvserver.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	yc, err := core.Connect(cl.Addrs, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer yc.Close()

	board, err := yc.CreateTree(ctx, leaderboardTree, dbt.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer board.Close()
	profiles, err := yc.CreateTree(ctx, profileTree, dbt.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer profiles.Close()

	kvc := yc.KV()
	rng := rand.New(rand.NewSource(1))

	// Insert players: profile + leaderboard entry in one transaction,
	// atomic across whichever servers the two tree nodes live on.
	var firstPlayerScore uint32
	for p := 0; p < players; p++ {
		name := fmt.Sprintf("player-%03d", p)
		score := uint32(rng.Intn(10000))
		if p == 0 {
			firstPlayerScore = score
		}
		for {
			tx := kvc.Begin()
			if err := profiles.Put(ctx, tx, []byte(name), []byte(fmt.Sprintf("score=%d", score))); err != nil {
				log.Fatal(err)
			}
			if err := board.Put(ctx, tx, scoreKey(score, name), nil); err != nil {
				log.Fatal(err)
			}
			if err := tx.Commit(ctx); err == nil {
				break
			} else if !errors.Is(err, kv.ErrConflict) {
				log.Fatal(err)
			}
		}
	}

	// A score update moves the leaderboard entry: delete old, insert
	// new, update profile — still one transaction.
	updateScore := func(name string, old, new uint32) error {
		for {
			tx := kvc.Begin()
			if err := board.Delete(ctx, tx, scoreKey(old, name)); err != nil && !errors.Is(err, dbt.ErrKeyNotFound) {
				tx.Abort()
				return err
			}
			if err := board.Put(ctx, tx, scoreKey(new, name), nil); err != nil {
				tx.Abort()
				return err
			}
			if err := profiles.Put(ctx, tx, []byte(name), []byte(fmt.Sprintf("score=%d", new))); err != nil {
				tx.Abort()
				return err
			}
			err := tx.Commit(ctx)
			if err == nil {
				return nil
			}
			if !errors.Is(err, kv.ErrConflict) {
				return err
			}
		}
	}
	if err := updateScore("player-000", firstPlayerScore, 99999); err != nil {
		log.Fatal(err)
	}

	// Top 5: a short ordered scan — the reason the storage engine is a
	// tree and not a hash table.
	tx := kvc.Begin()
	defer tx.Abort()
	top, err := board.Scan(ctx, tx, nil, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top of the leaderboard:")
	for i, cell := range top {
		score, name := decodeScoreKey(cell.Key)
		fmt.Printf("  %d. %-12s %5d\n", i+1, name, score)
	}

	// Structural sanity, courtesy of the tree checker.
	res, err := board.Check(ctx, tx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leaderboard tree: height=%d nodes=%d leaves=%d entries=%d\n",
		res.Height, res.Nodes, res.Leaves, res.Cells)
}
